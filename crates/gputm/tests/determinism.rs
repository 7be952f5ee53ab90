//! Run-to-run determinism: two runs of the same workload on the same
//! machine must agree bit for bit. For a contended workload under every TM
//! system, metrics, event traces, and verification verdicts must be
//! identical across repeated runs, including a run that rolls the logical
//! clocks over.

use gputm::prelude::*;
use workloads::fuzz::{Fuzz, FuzzShape};

/// A small contended machine.
fn machine() -> GpuConfig {
    let mut cfg = GpuConfig::tiny_test();
    cfg.cores = 4;
    cfg.warps_per_core = 4;
    cfg.warp_width = 8;
    cfg.partitions = 2;
    cfg
}

/// Everyone hammers one cell: maximal conflict traffic through the
/// crossbars, validation units, and abort/backoff paths.
fn contended() -> Fuzz {
    Fuzz::new(FuzzShape::SingleCell, 48, 3, 0x5EED)
}

fn run(cfg: &GpuConfig, system: TmSystem, w: &Fuzz) -> Metrics {
    Sim::new(cfg).system(system).run(w).expect("run completes")
}

#[test]
fn metrics_are_bit_identical_run_to_run() {
    let cfg = machine();
    let w = contended();
    for system in TmSystem::ALL {
        let first = run(&cfg, system, &w);
        let second = run(&cfg, system, &w);
        assert_eq!(first, second, "{system} diverged between runs");
    }
}

#[test]
fn rollover_heavy_run_is_reproducible() {
    // A tiny timestamp limit forces stall-the-world rollovers.
    let mut cfg = machine();
    cfg.ts_limit = 96;
    let w = contended();
    let first = run(&cfg, TmSystem::Getm, &w);
    assert!(first.rollovers > 0, "the workload must roll the clocks");
    assert_eq!(first, run(&cfg, TmSystem::Getm, &w));
}

#[test]
fn traced_runs_are_byte_identical_run_to_run() {
    let cfg = machine();
    let w = contended();
    let capture = || {
        let rec = sim_core::Recorder::recording(1 << 20);
        let m = Sim::new(&cfg)
            .system(TmSystem::Getm)
            .run_with(&w, &RunOptions::default().trace(rec.clone()))
            .expect("traced run")
            .metrics
            .expect("metrics");
        let bus = rec.bus().expect("recording recorder has a bus");
        let events = bus
            .borrow()
            .iter()
            .map(|e| format!("{e:?}"))
            .collect::<Vec<_>>();
        (m, events)
    };
    let (first_m, first_ev) = capture();
    let (second_m, second_ev) = capture();
    assert_eq!(first_m, second_m);
    assert_eq!(first_ev.len(), second_ev.len(), "trace length diverged");
    assert_eq!(first_ev, second_ev, "trace content diverged");
}

#[test]
fn verified_runs_reproduce_their_verdicts() {
    let cfg = machine();
    let w = contended();
    for system in [TmSystem::Getm, TmSystem::WarpTmLL, TmSystem::Eapg] {
        let verified = || {
            Sim::new(&cfg)
                .system(system)
                .run_with(&w, &RunOptions::default().verify(true))
                .expect("verified run")
        };
        let first = verified();
        let second = verified();
        assert_eq!(first.metrics, second.metrics, "{system} metrics diverged");
        let (v1, v2) = (
            first.verdict.expect("verdict"),
            second.verdict.expect("verdict"),
        );
        v1.assert_ok();
        assert_eq!(v1.stats, v2.stats, "{system} verdict stats diverged");
        assert_eq!(v1.witness_len, v2.witness_len, "{system} witness diverged");
    }
}
