//! Fault-isolated sweeps through the public API: a livelocking cell is
//! contained as a structured failure, an interrupted campaign resumes
//! bit-identically, and the journal tracks incomplete campaigns.

use gputm::config::{GpuConfig, TmSystem, WatchdogConfig};
use gputm::prelude::*;
use gputm::sweep::{run_sweep_report, sweep_digest, SweepJournal};
use std::path::PathBuf;

fn healthy_cell(b: Benchmark) -> CellSpec {
    CellSpec::new(b, Scale::Fast, TmSystem::Getm, GpuConfig::tiny_test())
}

/// A cell doomed by construction: a hair-trigger watchdog with the
/// serialization fallback disabled declares livelock before the first
/// commit can land (every first access is a ~100-cycle LLC round trip).
fn doomed_cell() -> CellSpec {
    let mut cfg = GpuConfig::tiny_test();
    cfg.watchdog = WatchdogConfig {
        enabled: true,
        window: 50,
        escalate_after: 1,
        serialize_after: 2,
        livelock_after: 2,
    }
    .without_fallback();
    CellSpec::new(Benchmark::Atm, Scale::Fast, TmSystem::Getm, cfg)
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("getm-sweeprob-{tag}-{}", std::process::id()))
}

#[test]
fn livelocking_cell_surfaces_as_failure_and_spares_siblings() {
    let spec = ExperimentSpec::from_cells(vec![
        healthy_cell(Benchmark::Atm),
        doomed_cell(),
        healthy_cell(Benchmark::HtH),
    ]);
    let opts = SweepOptions::new()
        .threads(2)
        .failure_policy(FailurePolicy::CollectAll);
    let report = run_sweep_report(&spec, &opts);
    assert_eq!(report.outcomes.len(), 2, "siblings must complete");
    assert_eq!(report.skipped, 0);
    assert_eq!(report.failures.len(), 1);
    let f = &report.failures[0];
    assert!(
        matches!(&f.error, FailureKind::Sim(SimError::Livelock(_))),
        "expected a typed livelock, got {:?}",
        f.error
    );
    assert!(f.to_string().contains("livelock"), "{f}");
    for o in &report.outcomes {
        o.metrics.assert_correct();
    }
}

#[test]
fn fail_fast_sweep_skips_work_after_a_doomed_cell() {
    // Serial + doomed first: everything behind it is skipped unclaimed.
    let spec = ExperimentSpec::from_cells(vec![
        doomed_cell(),
        healthy_cell(Benchmark::Atm),
        healthy_cell(Benchmark::HtH),
    ]);
    let opts = SweepOptions::new().threads(1);
    let report = run_sweep_report(&spec, &opts);
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.skipped, 2);
    assert!(report.outcomes.is_empty());
}

#[test]
fn interrupted_sweep_resumes_bit_identically() {
    let all = vec![
        healthy_cell(Benchmark::Atm),
        healthy_cell(Benchmark::HtH),
        healthy_cell(Benchmark::Cc),
        healthy_cell(Benchmark::Ap),
    ];

    // Reference: the uninterrupted campaign, its own cache directory.
    let ref_dir = tmp_dir("ref");
    let opts = SweepOptions::new()
        .threads(2)
        .cache(ResultCache::new(&ref_dir));
    let reference = run_sweep_report(&ExperimentSpec::from_cells(all.clone()), &opts);
    assert!(reference.is_complete());
    let reference = reference.outcomes;

    // "Crashed" campaign: only the first two cells ever completed
    // (exactly the disk state a SIGKILL after two journal appends
    // leaves), then the full sweep is rerun with resume on.
    let crash_dir = tmp_dir("crash");
    let opts = SweepOptions::new()
        .threads(2)
        .cache(ResultCache::new(&crash_dir));
    assert!(run_sweep_report(&ExperimentSpec::from_cells(all[..2].to_vec()), &opts).is_complete());
    let resumed = run_sweep_report(
        &ExperimentSpec::from_cells(all.clone()),
        &opts.clone().resume(true),
    );
    assert!(resumed.is_complete());
    let resumed = resumed.outcomes;

    assert_eq!(reference.len(), resumed.len());
    for (a, b) in reference.iter().zip(&resumed) {
        assert_eq!(
            a.metrics,
            b.metrics,
            "resumed metrics must be bit-identical ({})",
            a.cell.label()
        );
    }
    // The first two cells were recalled, not recomputed.
    assert!(resumed[0].cached && resumed[1].cached);
    assert!(!resumed[2].cached && !resumed[3].cached);

    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

#[test]
fn journal_outlives_failed_campaigns_and_resume_recalls_survivors() {
    let dir = tmp_dir("journal");
    std::fs::remove_dir_all(&dir).ok();
    let cells = vec![
        healthy_cell(Benchmark::Atm),
        doomed_cell(),
        healthy_cell(Benchmark::HtH),
    ];
    let spec = ExperimentSpec::from_cells(cells.clone());
    let digest = sweep_digest(&cells);
    let opts = SweepOptions::new()
        .threads(1)
        .cache(ResultCache::new(&dir))
        .failure_policy(FailurePolicy::CollectAll);

    let first = run_sweep_report(&spec, &opts);
    assert!(!first.is_complete());
    // The journal survives an incomplete campaign and names exactly the
    // completed cells.
    let journal = SweepJournal::open(&dir, &digest, true).expect("journal");
    assert_eq!(journal.completed(), 2);
    assert!(journal.is_completed(&cells[0].cache_key()));
    assert!(!journal.is_completed(&cells[1].cache_key()));
    drop(journal);

    // Resuming recalls the survivors from disk and re-fails the doomed
    // cell deterministically.
    let resumed = run_sweep_report(&spec, &opts.clone().resume(true));
    assert_eq!(resumed.outcomes.len(), 2);
    assert!(resumed.outcomes.iter().all(|o| o.cached));
    assert_eq!(resumed.failures.len(), 1);

    // A fully healthy campaign deletes its journal on completion.
    let healthy = vec![healthy_cell(Benchmark::Atm), healthy_cell(Benchmark::HtH)];
    let healthy_digest = sweep_digest(&healthy);
    let report = run_sweep_report(&ExperimentSpec::from_cells(healthy), &opts);
    assert!(report.is_complete());
    assert!(
        !dir.join(format!("sweep-{healthy_digest}.journal")).exists(),
        "a completed campaign must leave no journal behind"
    );

    std::fs::remove_dir_all(&dir).ok();
}
