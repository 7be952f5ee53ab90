//! The zero-cost-when-off guard: with tracing disabled, the instrumented
//! hot paths must cost the simulator less than 2% of a run.
//!
//! Directly timing two builds against each other isn't possible inside
//! one binary (the disabled gate is compiled in everywhere), so the guard
//! bounds the overhead from its parts: it measures (a) how long one
//! untraced run takes, (b) how many events that run would emit, and
//! (c) the wall-clock cost of that many disabled `emit` calls. The
//! disabled instrumentation cost of the run is (c) — every gate the
//! engine passes is one disabled `emit` — and the test asserts
//! (c) < 2% of (a), with real margin to spare (a disabled emit is a
//! branch on `None`; (c) is typically well under 0.1% of (a)).

use gputm::config::{GpuConfig, TmSystem};
use gputm::sweep::{run_sweep_report, CellSpec, ExperimentSpec, ResultCache, SweepOptions};
use gputm::telemetry::{CampaignEvent, MemorySink, Telemetry};
use sim_core::{AbortCause, Recorder, SimEvent, Stamp};
use std::hint::black_box;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Timing tests must not contend with each other for cores: a concurrent
/// sibling skews a 2% budget comparison far more than the overhead under
/// test. Every guard takes this lock for its whole body.
static TIMING: Mutex<()> = Mutex::new(());

fn timing_lock() -> MutexGuard<'static, ()> {
    TIMING.lock().unwrap_or_else(|e| e.into_inner())
}

fn cell() -> CellSpec {
    CellSpec::new(
        workloads::suite::Benchmark::Atm,
        workloads::suite::Scale::Fast,
        TmSystem::Getm,
        GpuConfig::tiny_test(),
    )
}

/// Minimum over `reps` timings of `f` — the least-noise estimator for
/// "how fast can this go", which is what a budget comparison wants.
fn min_time(reps: usize, mut f: impl FnMut()) -> Duration {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .min()
        .expect("reps > 0")
}

#[test]
fn disabled_tracing_costs_less_than_two_percent_of_a_run() {
    let _serial = timing_lock();
    let cell = cell();

    // (a) One untraced run (recorder off — the production configuration).
    let run_time = min_time(3, || {
        black_box(cell.run().expect("run"));
    });

    // (b) How many emit gates that run passes. A recording run fires every
    // gate exactly once per event, so the captured count is the gate count
    // (use a ring big enough that nothing is dropped-but-still-counted;
    // dropped events still passed their gate, so add them back).
    let rec = Recorder::recording(1 << 20);
    cell.run_traced(rec.clone()).expect("traced run");
    let bus = rec.bus().expect("bus");
    let events = bus.borrow().len() as u64 + bus.borrow().dropped();
    assert!(events > 0, "instrumented engine must emit events");

    // (c) That many disabled emits, measured on the same machine. The
    // closure mirrors a real site: it captures locals and builds an event,
    // but must never run.
    let off = Recorder::off();
    let emit_time = min_time(3, || {
        for i in 0..events {
            off.emit(|| {
                (
                    Stamp::warp(black_box(i), 2, 11),
                    SimEvent::TxAbort {
                        cause: AbortCause::War,
                        lanes: 32,
                    },
                )
            });
        }
    });

    let budget = run_time.mul_f64(0.02);
    assert!(
        emit_time < budget,
        "disabled tracing overhead {emit_time:?} exceeds 2% of a run \
         ({run_time:?} for {events} events; budget {budget:?})"
    );
}

/// The same bound for campaign telemetry: with no sink attached (the
/// production default), every emission site in the sweep executor is a
/// branch on a `None` and the event-constructing closure never runs.
/// Same parts-based method as the tracing guard: (a) one sweep with
/// telemetry off, (b) the event count a telemetry-on sweep of the same
/// spec produces (every emit site fires at most once per event), (c) that
/// many disabled `emit` calls with a realistic capturing closure.
#[test]
fn disabled_telemetry_costs_less_than_two_percent_of_a_sweep() {
    let _serial = timing_lock();
    let cell = cell();
    let spec = ExperimentSpec::from_cells(vec![cell.clone()]);

    // (a) One sweep with telemetry off.
    let run_time = min_time(3, || {
        let report = run_sweep_report(&spec, &SweepOptions::new().threads(1));
        assert!(report.is_complete());
        black_box(&report.outcomes);
    });

    // (b) The emit-gate count of that sweep.
    let (sink, captured) = MemorySink::new();
    let opts = SweepOptions::new()
        .threads(1)
        .telemetry(Telemetry::to_sinks(vec![Box::new(sink)]));
    assert!(run_sweep_report(&spec, &opts).is_complete());
    let events = captured.lock().unwrap().len() as u64;
    assert!(events > 0, "a telemetry-on sweep must emit events");

    // (c) That many disabled emits. The closure mirrors a real site — it
    // captures locals and allocates a label — but must never run.
    let off = Telemetry::off();
    let emit_time = min_time(3, || {
        for i in 0..events {
            off.emit(|| CampaignEvent::CellQueued {
                idx: black_box(i as usize),
                label: format!("cell {i}"),
            });
        }
    });

    let budget = run_time.mul_f64(0.02);
    assert!(
        emit_time < budget,
        "disabled telemetry overhead {emit_time:?} exceeds 2% of a sweep \
         ({run_time:?} for {events} events; budget {budget:?})"
    );
}

/// Direct/swept pairs the robustness guard times. Odd, so the median is
/// one pair's ratio.
const PAIRS: usize = 21;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The same budget for the sweep executor's robustness machinery: with
/// everything off (no progress reporter, fail-fast policy so the retry
/// loop is a single pass, no per-cell timeout, no cache/journal), routing
/// a cell through the fault-isolated executor — `catch_unwind`, policy
/// dispatch, worker scope, result channel — must cost less than 2% over
/// calling the cell directly. The guard times both paths on the same cell
/// back to back, [`PAIRS`] times, and gates the median of the pairs'
/// swept/direct ratios, as `enginebench` does: a pair shares its host
/// phase, and the median drops the pairs that noise hit unevenly. The
/// fixed per-sweep cost (one thread spawn, one channel) is sub-millisecond
/// against the ATM cell's run, about 170 ms in a release build.
///
/// The direct call runs on a fresh thread, as the executor's worker does:
/// with the direct call on the test's own thread, the median of one
/// process read anywhere from 0.79 to 1.10, so the two threads'
/// placement, not the executor, set the ratio.
#[test]
fn disabled_sweep_robustness_costs_less_than_two_percent_of_a_run() {
    let _serial = timing_lock();
    let cell = cell();
    let spec = ExperimentSpec::from_cells(vec![cell.clone()]);
    let opts = SweepOptions::new().threads(1);

    // Both paths spawn a thread; the executor's structural extra over the
    // direct call is its result channel and the wakeups that hand a
    // result across it. On a loaded machine (tier-1 runs the whole
    // workspace's test binaries in parallel processes, which an in-process
    // lock cannot serialize) a thread wakeup queues behind other work for
    // milliseconds — environmental scheduling latency, not executor
    // machinery. Probe that floor with bare spawn+join cycles and grant
    // its worst case (times a few wakeups per sweep) on top of the 2%
    // budget; on an idle host — the CI step runs this binary alone — the
    // grant is a few hundred microseconds, at most about 0.3% of a run,
    // and the bound stays tight.
    let mut handoff_max = Duration::ZERO;
    for _ in 0..5 {
        let t = Instant::now();
        std::thread::spawn(|| {}).join().expect("probe thread");
        handoff_max = handoff_max.max(t.elapsed());
    }
    let grant = handoff_max * 4;
    let direct = || {
        min_time(1, || {
            std::thread::scope(|scope| {
                scope.spawn(|| black_box(cell.run().expect("run")));
            });
        })
    };
    let swept = || {
        min_time(1, || {
            let report = run_sweep_report(&spec, &opts);
            assert!(report.is_complete());
            black_box(&report.outcomes);
        })
    };
    let mut ratios = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        // Alternate which path goes first, so neither always inherits the
        // other's cache and allocator state.
        let (d, s) = if pair % 2 == 0 {
            let d = direct();
            (d, swept())
        } else {
            let s = swept();
            (direct(), s)
        };
        // Per pair this is `s < d * 1.02 + grant`, the budget as a ratio.
        ratios.push(s.saturating_sub(grant).as_secs_f64() / d.as_secs_f64());
    }
    let ratio = median(ratios);
    if ratio < 1.02 {
        return;
    }
    // A 2% wall-clock ratio is only trustworthy with parallel headroom: on
    // a single-CPU host every thread handoff in the executor competes with
    // the measuring thread itself for the one core, and a stray timeslice
    // outweighs the machinery under test. Report instead of failing there;
    // the dedicated CI step runs this guard isolated on multi-core runners
    // and enforces the bound for real.
    let single_cpu = std::thread::available_parallelism().map_or(true, |n| n.get() <= 1);
    if single_cpu {
        eprintln!(
            "SKIPPED assert: single-CPU host cannot time a 2% budget \
             (median swept/direct ratio {ratio:.4} over {PAIRS} pairs)"
        );
        return;
    }
    panic!(
        "fault-isolated executor: median swept/direct ratio {ratio:.4} over {PAIRS} pairs \
         (scheduling grant {grant:?} per pair) — the disabled robustness path must stay within 2%"
    );
}

/// A fully-warm sweep against the cache reads it stands for: once every
/// cell of the 45-cell tiny grid is cached, `run_sweep_report` must cost
/// at most twice computing each cell's key and loading its entry
/// directly. A warm sweep's only necessary work is those reads; this
/// guard catches a warm pass that writes (journal lines, fsyncs), hashes
/// a key more than once, or spawns workers to read files. Same pairing
/// as the robustness guard: [`PAIRS`] pairs in alternating order, each
/// side on a fresh scoped thread, gated on the median of the pairs'
/// swept/direct ratios.
#[test]
fn a_warm_sweep_costs_at_most_twice_its_cache_reads() {
    let _serial = timing_lock();
    let dir = std::env::temp_dir().join(format!("getm-warm-guard-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let spec = ExperimentSpec::grid()
        .benchmarks(workloads::suite::Benchmark::ALL)
        .systems(TmSystem::ALL)
        .scale(workloads::suite::Scale::Fast)
        .base(GpuConfig::tiny_test())
        .build();
    assert_eq!(spec.len(), 45);
    let cache = ResultCache::new(&dir);
    let opts = SweepOptions::new().threads(2).cache(cache.clone());
    assert!(run_sweep_report(&spec, &opts).is_complete(), "cold pass");

    let on_fresh_thread = |f: &(dyn Fn() + Sync)| {
        let t = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(f);
        });
        t.elapsed()
    };
    let direct = || {
        for cell in spec.cells() {
            black_box(cache.load(&cell.cache_key()).expect("cached"));
        }
    };
    let swept = || {
        let report = run_sweep_report(&spec, &opts);
        assert!(report.is_complete() && report.outcomes.iter().all(|o| o.cached));
        black_box(&report.outcomes);
    };
    let mut ratios = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let (d, s) = if pair % 2 == 0 {
            let d = on_fresh_thread(&direct);
            (d, on_fresh_thread(&swept))
        } else {
            let s = on_fresh_thread(&swept);
            (on_fresh_thread(&direct), s)
        };
        ratios.push(s.as_secs_f64() / d.as_secs_f64());
    }
    std::fs::remove_dir_all(&dir).ok();
    let ratio = median(ratios);
    eprintln!("warm sweep vs direct cache reads: median ratio {ratio:.3} over {PAIRS} pairs");
    assert!(
        ratio <= 2.0,
        "a fully-warm sweep costs {ratio:.2}x its direct cache reads (median of {PAIRS} \
         pairs); a warm pass must only read"
    );
}
