//! Old-path/new-path engine equivalence.
//!
//! The engine's steady-state loop was rebuilt around index-addressed
//! tables, reusable scratch buffers, and idle skip-ahead. None of that may
//! be observable: for every benchmark and system, a run with skip-ahead
//! enabled must produce bit-identical [`gputm::metrics::Metrics`] and a
//! byte-identical event stream to a run that walks every cycle — and no
//! run may leave a request context behind in the token tables.

use gputm::config::{GpuConfig, TmSystem};
use gputm::engine::Engine;
use gputm::metrics::Metrics;
use sim_core::history::HistoryRecorder;
use sim_core::Recorder;
use workloads::atm::Atm;
use workloads::fuzz::{Fuzz, FuzzShape};
use workloads::suite::{Benchmark, Scale};
use workloads::Workload;

/// Runs `w` on a fresh engine and returns (metrics, serialized trace,
/// outstanding tokens after the drain).
fn run_engine(
    w: &dyn Workload,
    system: TmSystem,
    cfg: &GpuConfig,
    idle_skip: bool,
) -> (Metrics, String, usize) {
    let rec = Recorder::recording(1 << 21);
    let mut e = Engine::new(w, system, cfg).expect("engine builds");
    e.set_idle_skip(idle_skip);
    e.attach_recorder(rec.clone());
    let m = e.run().expect("run completes");
    let text = rec
        .bus()
        .expect("recording recorder has a bus")
        .borrow()
        .serialize_text();
    (m, text, e.outstanding_tokens())
}

/// Runs `w` with skip-ahead off (the reference path) and on, asserts the
/// two runs are indistinguishable, and returns their metrics.
fn assert_ab(w: &dyn Workload, system: TmSystem, cfg: &GpuConfig) -> Metrics {
    let (m_off, t_off, tok_off) = run_engine(w, system, cfg, false);
    let (m_on, t_on, tok_on) = run_engine(w, system, cfg, true);
    let who = format!("{} under {system}", w.name());
    assert_eq!(m_off, m_on, "{who}: metrics diverged between loop paths");
    assert_eq!(t_off, t_on, "{who}: traces diverged between loop paths");
    assert_eq!(tok_off, 0, "{who}: reference path leaked tokens");
    assert_eq!(tok_on, 0, "{who}: skip path leaked tokens");
    m_on
}

/// Every benchmark under the paper's system: skip-ahead is invisible.
#[test]
fn idle_skip_is_invisible_for_every_benchmark_under_getm() {
    let cfg = GpuConfig::tiny_test();
    for b in Benchmark::ALL {
        let w = b.build(Scale::Fast);
        assert_ab(w.as_ref(), TmSystem::Getm, &cfg);
    }
}

/// GETM and WarpTM-LL at transactional-concurrency limits of 1 and 2,
/// where most of the tiny machine's warps wait at `TxBegin` behind the
/// throttle, on the benchmarks that queue there the most.
#[test]
fn idle_skip_is_invisible_on_throttled_machines() {
    for limit in [1, 2] {
        let cfg = GpuConfig::tiny_test().with_concurrency(Some(limit));
        for system in [TmSystem::Getm, TmSystem::WarpTmLL] {
            for b in [Benchmark::HtH, Benchmark::Atm, Benchmark::Cl, Benchmark::Bh] {
                assert_ab(b.build(Scale::Fast).as_ref(), system, &cfg);
            }
        }
    }
}

/// A contended and an uncontended benchmark under every other system.
#[test]
fn idle_skip_is_invisible_across_systems() {
    let cfg = GpuConfig::tiny_test();
    for system in [
        TmSystem::WarpTmLL,
        TmSystem::WarpTmEL,
        TmSystem::Eapg,
        TmSystem::FgLock,
    ] {
        for b in [Benchmark::Atm, Benchmark::HtL] {
            let w = b.build(Scale::Fast);
            assert_ab(w.as_ref(), system, &cfg);
        }
    }
}

/// The Volta tier's sectored caches, hashed interleave and `Hbm` timing,
/// under every system.
#[test]
fn idle_skip_is_invisible_on_the_volta_tier() {
    let cfg = GpuConfig::tiny_volta();
    for system in TmSystem::ALL {
        for b in [Benchmark::Atm, Benchmark::HtH] {
            assert_ab(b.build(Scale::Fast).as_ref(), system, &cfg);
        }
    }
}

/// A timestamp limit low enough that GETM rolls its clocks over several
/// times (the machine of `tests/rollover.rs`).
#[test]
fn idle_skip_is_invisible_across_timestamp_rollovers() {
    let mut cfg = GpuConfig::tiny_test();
    cfg.cores = 2;
    cfg.warps_per_core = 4;
    cfg.warp_width = 8;
    cfg.partitions = 2;
    cfg.ts_limit = 96;
    let m = assert_ab(&Atm::new(64, 64, 4, 11), TmSystem::Getm, &cfg);
    assert!(m.rollovers > 1, "only {} rollovers", m.rollovers);
}

/// Two engines in one process own differently seeded hashers for any
/// `HashMap` they might hold; bit-identical results across back-to-back
/// runs prove no hash-iteration order feeds an engine decision.
#[test]
fn repeated_runs_are_bit_identical_within_one_process() {
    let cfg = GpuConfig::tiny_test();
    for system in [TmSystem::Getm, TmSystem::WarpTmLL] {
        let w = Benchmark::Atm.build(Scale::Fast);
        let (m1, t1, _) = run_engine(w.as_ref(), system, &cfg, true);
        let (m2, t2, _) = run_engine(w.as_ref(), system, &cfg, true);
        assert_eq!(m1, m2, "ATM under {system}: metrics vary across runs");
        assert_eq!(t1, t2, "ATM under {system}: traces vary across runs");
    }
}

/// Token-leak regression: long verified runs (history recording exercises
/// the per-token version capture that used to live in a side map) must
/// drain every pending access and commit context.
#[test]
fn verified_fuzz_runs_leak_no_tokens() {
    let cfg = GpuConfig::tiny_test();
    let shapes = [
        FuzzShape::SingleCell,
        FuzzShape::LockSteal,
        FuzzShape::MixedAliasing,
        FuzzShape::Scatter,
    ];
    let mut completed = 0;
    for system in [TmSystem::Getm, TmSystem::WarpTmLL, TmSystem::WarpTmEL] {
        for shape in shapes {
            let w = Fuzz::new(shape, 16, 4, 0xC0FFEE ^ shape as u64);
            let mut e = Engine::new(&w, system, &cfg).expect("engine builds");
            e.attach_history(HistoryRecorder::recording());
            match e.run() {
                Ok(_) => {}
                // Adversarial fuzz shapes can genuinely livelock the
                // WarpTM protocols; an interrupted run legitimately has
                // requests in flight, so only completed runs are checked.
                Err(sim_core::SimError::Livelock(_)) => continue,
                Err(e) => panic!("{shape:?} under {system}: {e}"),
            }
            completed += 1;
            assert_eq!(
                e.outstanding_tokens(),
                0,
                "{} under {system} left request contexts behind",
                w.name(),
            );
        }
    }
    assert!(
        completed >= 8,
        "too few fuzz runs completed ({completed}/12); the leak check lost its teeth"
    );
}
