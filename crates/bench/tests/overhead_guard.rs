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
use gputm::sweep::{run_sweep_report, CellSpec, ExperimentSpec, SweepOptions};
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

/// The same budget for the sweep executor's robustness machinery: with
/// everything off (no progress reporter, fail-fast policy so the retry
/// loop is a single pass, no per-cell timeout, no cache/journal), routing
/// a cell through the fault-isolated executor — `catch_unwind`, policy
/// dispatch, worker scope, result channel — must cost less than 2% over
/// calling the cell directly. The guard measures both paths min-of-3 on
/// the same cell; the fixed per-sweep cost (one thread spawn, one
/// channel) is sub-millisecond against a multi-hundred-millisecond run.
#[test]
fn disabled_sweep_robustness_costs_less_than_two_percent_of_a_run() {
    let _serial = timing_lock();
    let cell = cell();
    let spec = ExperimentSpec::from_cells(vec![cell.clone()]);
    let opts = SweepOptions::new().threads(1);

    // The executor's one structural extra over a direct call is a worker
    // thread plus a channel handoff. On a loaded machine (tier-1 runs the
    // whole workspace's test binaries in parallel processes, which an
    // in-process lock cannot serialize) a thread wakeup queues behind
    // other work for milliseconds — environmental scheduling latency, not
    // executor machinery. Probe that floor with bare spawn+join cycles
    // and grant its worst case (times a few wakeups per sweep) on top of
    // the 2% budget; on an idle host — the CI step runs this binary alone
    // — the grant is microseconds and the bound stays tight. Measuring in
    // rounds keeps one unlucky window from failing the suite: a real
    // regression inflates every round, noise does not survive three.
    let mut direct_min = Duration::MAX;
    let mut swept_min = Duration::MAX;
    let mut handoff_max = Duration::ZERO;
    for round in 0..3 {
        for _ in 0..5 {
            let t = Instant::now();
            std::thread::spawn(|| {}).join().expect("probe thread");
            handoff_max = handoff_max.max(t.elapsed());
        }
        direct_min = direct_min.min(min_time(3, || {
            black_box(cell.run().expect("run"));
        }));
        swept_min = swept_min.min(min_time(3, || {
            let report = run_sweep_report(&spec, &opts);
            assert!(report.is_complete());
            black_box(&report.outcomes);
        }));
        if swept_min < direct_min.mul_f64(1.02) + handoff_max * 4 {
            return;
        }
        eprintln!(
            "round {round}: swept {swept_min:?} vs direct {direct_min:?} \
             (handoff floor {handoff_max:?}) — outside budget, re-measuring"
        );
    }
    let budget = direct_min.mul_f64(1.02) + handoff_max * 4;
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
             (swept {swept_min:?}, direct {direct_min:?}, budget {budget:?})"
        );
        return;
    }
    panic!(
        "fault-isolated executor took {swept_min:?} against a direct run's \
         {direct_min:?} (budget {budget:?}, scheduling floor {handoff_max:?}) \
         — the disabled robustness path must stay within 2%"
    );
}
