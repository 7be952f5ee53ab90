//! Cross-thread-count determinism: the sharded engine must be an
//! *observationally invisible* wall-clock optimization. For a contended
//! workload under every TM system, metrics, event traces, and verification
//! verdicts must be byte-identical to serial execution at every shard
//! count — including counts that don't divide the core count, exceed it,
//! or collapse to one.

use gputm::prelude::*;
use workloads::fuzz::{Fuzz, FuzzShape};

/// A small contended machine: enough cores/partitions to shard unevenly.
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

fn run_at(cfg: &GpuConfig, system: TmSystem, w: &Fuzz, exec: ExecMode) -> Metrics {
    Sim::new(cfg)
        .system(system)
        .run_with(w, &RunOptions::default().exec(exec))
        .expect("run completes")
        .metrics
        .expect("unverified runs always carry metrics")
}

#[test]
fn metrics_are_bit_identical_across_shard_counts() {
    let cfg = machine();
    let w = contended();
    for system in TmSystem::ALL {
        let serial = run_at(&cfg, system, &w, ExecMode::Serial);
        for threads in [1, 2, 3, 4, 8] {
            let sharded = run_at(&cfg, system, &w, ExecMode::Sharded { threads });
            assert_eq!(
                serial, sharded,
                "{system} diverged at {threads} shard threads"
            );
        }
    }
}

#[test]
fn mixed_benchmark_matches_serial_when_sharded() {
    // A benchmark workload (distinct access pattern from the fuzz shapes):
    // scattered accounts plus plain-memory phases exercise the L1-hit
    // deferred-fill and plain-store replay paths.
    let cfg = machine();
    let w = Benchmark::Atm.build(Scale::Fast);
    for system in [TmSystem::Getm, TmSystem::WarpTmLL, TmSystem::Eapg] {
        let serial = Sim::new(&cfg).system(system).run(w.as_ref()).expect("run");
        for threads in [2, 4] {
            let sharded = Sim::new(&cfg)
                .system(system)
                .run_with(
                    w.as_ref(),
                    &RunOptions::default().exec(ExecMode::Sharded { threads }),
                )
                .expect("run")
                .metrics
                .expect("metrics");
            assert_eq!(serial, sharded, "{system} diverged at {threads} threads");
        }
    }
}

#[test]
fn rollover_heavy_run_matches_serial() {
    // A tiny timestamp limit forces stall-the-world rollovers, driving the
    // sharded loop through its serial-issue guard window (the cycles where
    // the timestamp high-water mark is too close to `ts_limit` for a
    // parallel issue phase) and through rollover completion itself.
    let mut cfg = machine();
    cfg.ts_limit = 96;
    let w = contended();
    let serial = run_at(&cfg, TmSystem::Getm, &w, ExecMode::Serial);
    assert!(serial.rollovers > 0, "the workload must roll the clocks");
    for threads in [2, 4, 8] {
        let sharded = run_at(&cfg, TmSystem::Getm, &w, ExecMode::Sharded { threads });
        assert_eq!(serial, sharded, "rollover path diverged at {threads}");
    }
}

#[test]
fn traced_runs_are_byte_identical_under_sharding() {
    // Tracing forces the serial loop internally (event order is defined by
    // serial execution), but through the public API a traced sharded run
    // must still produce the identical event stream and metrics.
    let cfg = machine();
    let w = contended();
    let capture = |exec: ExecMode| {
        let rec = sim_core::Recorder::recording(1 << 20);
        let m = Sim::new(&cfg)
            .system(TmSystem::Getm)
            .run_with(&w, &RunOptions::default().exec(exec).trace(rec.clone()))
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
    let (serial_m, serial_ev) = capture(ExecMode::Serial);
    let (sharded_m, sharded_ev) = capture(ExecMode::Sharded { threads: 4 });
    assert_eq!(serial_m, sharded_m);
    assert_eq!(serial_ev.len(), sharded_ev.len(), "trace length diverged");
    assert_eq!(serial_ev, sharded_ev, "trace content diverged");
}

#[test]
fn verified_runs_agree_with_serial_verdicts() {
    let cfg = machine();
    let w = contended();
    for system in [TmSystem::Getm, TmSystem::WarpTmLL, TmSystem::Eapg] {
        let run = |exec: ExecMode| {
            Sim::new(&cfg)
                .system(system)
                .run_with(&w, &RunOptions::default().exec(exec).verify(true))
                .expect("verified run")
        };
        let serial = run(ExecMode::Serial);
        let sharded = run(ExecMode::Sharded { threads: 4 });
        assert_eq!(serial.metrics, sharded.metrics, "{system} metrics diverged");
        let (vs, vp) = (
            serial.verdict.expect("verdict"),
            sharded.verdict.expect("verdict"),
        );
        vs.assert_ok();
        assert_eq!(vs.stats, vp.stats, "{system} verdict stats diverged");
        assert_eq!(vs.witness_len, vp.witness_len, "{system} witness diverged");
    }
}

#[test]
fn cache_digest_is_shared_across_exec_modes() {
    // Execution mode never changes results, so a cell a sharded sweep
    // computed is a cache hit for a serial sweep of the same grid.
    use gputm::sweep::{run_sweep_report, ExperimentSpec, ResultCache, SweepOptions};
    let dir = std::env::temp_dir().join(format!("getm-det-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let spec = ExperimentSpec::from_cells(vec![CellSpec::new(
        Benchmark::Atm,
        Scale::Fast,
        TmSystem::Getm,
        GpuConfig::tiny_test(),
    )]);
    let sweep = |exec| {
        let opts = SweepOptions::new()
            .threads(1)
            .cache(ResultCache::new(&dir))
            .cell_exec(exec);
        run_sweep_report(&spec, &opts)
    };
    let sharded = sweep(ExecMode::Sharded { threads: 2 });
    let serial = sweep(ExecMode::Serial);
    assert!(sharded.is_complete() && serial.is_complete());
    assert!(!sharded.outcomes[0].cached);
    assert!(
        serial.outcomes[0].cached,
        "exec mode must be excluded from the cache digest"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_cell_results_match_serial_cell_results() {
    // End-to-end through the sweep cell API: the digest-sharing above is
    // only sound because the computed metrics really are identical.
    let cell = CellSpec::new(Benchmark::Atm, Scale::Fast, TmSystem::Getm, machine());
    let serial = cell.run().expect("serial cell");
    let sharded = cell
        .run_with(&RunOptions::default().exec(ExecMode::Sharded { threads: 4 }))
        .expect("sharded cell");
    assert_eq!(serial, sharded);
}
