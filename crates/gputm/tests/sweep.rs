//! Integration tests for the sweep subsystem: parallel execution is
//! bit-identical to serial, and the on-disk result cache actually skips
//! re-simulation.

use gputm::config::{GpuConfig, TmSystem};
use gputm::sweep::{
    run_sweep_report, CellSpec, ExperimentSpec, ResultCache, SweepOptions, SweepOutcome,
};
use std::path::PathBuf;
use workloads::suite::{Benchmark, Scale};

/// Runs `spec`, requiring every cell to complete.
fn run_complete(spec: &ExperimentSpec, opts: &SweepOptions) -> Vec<SweepOutcome> {
    let report = run_sweep_report(spec, opts);
    assert!(report.is_complete(), "{:?}", report.failures);
    report.outcomes
}

fn small_spec() -> ExperimentSpec {
    ExperimentSpec::grid()
        .benchmarks([Benchmark::HtH])
        .systems([TmSystem::Getm, TmSystem::WarpTmLL, TmSystem::FgLock])
        .base(GpuConfig::tiny_test())
        .build()
}

/// A scratch directory that cleans up after itself (no tempfile crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("getm-sweep-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let spec = small_spec();
    let serial = run_complete(&spec, &SweepOptions::new().threads(1));
    let parallel = run_complete(&spec, &SweepOptions::new().threads(4));

    assert_eq!(serial.len(), spec.len());
    assert_eq!(parallel.len(), spec.len());
    for (s, p) in serial.iter().zip(&parallel) {
        // Same cell, same order...
        assert_eq!(s.cell.cache_key(), p.cell.cache_key());
        // ...and every metric equal, floats included: all engine
        // randomness derives from cfg.seed, so thread scheduling of the
        // sweep cannot leak into the results.
        assert_eq!(s.metrics, p.metrics, "{} diverged", s.cell.label());
        assert!(!s.cached && !p.cached);
        s.metrics.assert_correct();
    }
}

#[test]
fn cache_hit_skips_the_simulation() {
    let tmp = TempDir::new("hit");
    let spec = ExperimentSpec::grid()
        .benchmarks([Benchmark::HtH])
        .base(GpuConfig::tiny_test())
        .build();
    let cell = spec.cells()[0].clone();
    let opts = || {
        SweepOptions::new()
            .threads(1)
            .cache(ResultCache::new(&tmp.0))
    };

    // Cold: the cell simulates and its result lands in the cache.
    let cold = run_complete(&spec, &opts());
    assert!(!cold[0].cached);
    let cache = ResultCache::new(&tmp.0);
    assert_eq!(cache.entry_count(), 1);
    assert_eq!(cache.load(&cell.cache_key()), Some(cold[0].metrics.clone()));

    // Warm: the cell is recalled, not recomputed.
    let warm = run_complete(&spec, &opts());
    assert!(warm[0].cached);
    assert_eq!(warm[0].metrics, cold[0].metrics);

    // Proof that a hit bypasses the engine entirely: poison the cached
    // entry and observe the sweep return the poisoned metrics verbatim.
    let mut poisoned = cold[0].metrics.clone();
    poisoned.cycles += 123_456_789;
    cache.store(&cell.cache_key(), &poisoned).expect("store");
    let resurrected = run_complete(&spec, &opts());
    assert!(resurrected[0].cached);
    assert_eq!(resurrected[0].metrics.cycles, poisoned.cycles);

    // Without the cache attached, the true result comes back.
    let fresh = run_complete(&spec, &SweepOptions::new().threads(1));
    assert!(!fresh[0].cached);
    assert_eq!(fresh[0].metrics, cold[0].metrics);
}

#[test]
fn corrupt_cache_entries_fall_back_to_simulation() {
    let tmp = TempDir::new("corrupt");
    let spec = ExperimentSpec::from_cells(vec![CellSpec::new(
        Benchmark::HtH,
        Scale::Fast,
        TmSystem::FgLock,
        GpuConfig::tiny_test(),
    )]);
    let key = spec.cells()[0].cache_key();

    std::fs::create_dir_all(&tmp.0).unwrap();
    std::fs::write(tmp.0.join(format!("{key}.metrics")), b"not metrics").unwrap();

    let opts = SweepOptions::new()
        .threads(1)
        .cache(ResultCache::new(&tmp.0));
    let out = run_complete(&spec, &opts);
    assert!(!out[0].cached, "corrupt entry must be treated as a miss");
    out[0].metrics.assert_correct();
    // And the corrupt entry was repaired by the store that followed.
    assert_eq!(
        ResultCache::new(&tmp.0).load(&key),
        Some(out[0].metrics.clone())
    );
}
