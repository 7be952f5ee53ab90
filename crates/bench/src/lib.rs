//! # bench
//!
//! The experiment harness: the `fig` binary reproduces every figure and
//! table of the GETM paper's evaluation (Sec. VI).
//!
//! Each figure prints the same rows/series the paper reports, normalized
//! the same way, so EXPERIMENTS.md can record paper-vs-measured side by
//! side. Run them with:
//!
//! ```text
//! cargo run -p bench --release --bin fig -- fig10
//! cargo run -p bench --release --bin fig -- all    # everything
//! ```
//!
//! Each figure declares its cells as an [`gputm::sweep::ExperimentSpec`]
//! (see [`figures`]), prefetches them through the parallel sweep executor,
//! then renders from the [`Harness`]'s memo — so figures use every core
//! and `fig all` simulates each distinct cell exactly once. Finished
//! cells persist in an on-disk result cache keyed by a stable hash of the
//! full cell description, making reruns nearly free. See [`cli`] for the
//! shared flags (`--paper-scale`, `--jobs`, `--serial`, `--no-cache`,
//! `--cache-dir`, `--quiet`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod figures;
pub mod grid;
pub mod traceview;

use gputm::config::{GpuConfig, TmSystem};
use gputm::metrics::Metrics;
use gputm::sweep::{run_sweep_report, CellSpec, ExperimentSpec, SweepOptions};
use std::collections::HashMap;
use std::sync::Mutex;
use workloads::suite::{Benchmark, Scale};

/// The optimal transactional-concurrency setting per system and benchmark.
/// `None` means unlimited.
///
/// The paper's methodology picks the optimum *for each configuration*
/// (its Table IV lists the values its simulator found); these are the
/// optima the `table4` sweep finds on THIS simulator. They differ from
/// the paper's in places — EXPERIMENTS.md records both side by side.
pub fn optimal_concurrency(system: TmSystem, bench: Benchmark) -> Option<u32> {
    use Benchmark::*;
    use TmSystem::*;
    let (wtm, eapg, el, getm) = match bench {
        HtH => (Some(4), Some(4), Some(4), Some(2)),
        HtM => (Some(4), Some(4), Some(4), Some(2)),
        HtL => (Some(2), Some(4), Some(2), Some(4)),
        Atm => (Some(16), Some(16), Some(4), Some(4)),
        Cl => (Some(16), None, Some(16), None),
        ClTo => (None, None, None, None),
        Bh => (Some(2), Some(4), Some(16), Some(8)),
        Cc => (None, None, None, None),
        Ap => (Some(1), Some(1), Some(1), Some(1)),
    };
    match system {
        WarpTmLL => wtm,
        Eapg => eapg,
        WarpTmEL => el,
        Getm => getm,
        FgLock => None,
    }
}

/// The experiment front end shared by every figure binary: a scale, the
/// sweep options parsed from the command line, and a process-wide memo of
/// finished cells.
///
/// The intended flow is [`Harness::prefetch`] with the figure's full
/// [`ExperimentSpec`] (one parallel, disk-cached sweep), then any number
/// of [`Harness::run`] calls from the render code, which hit the memo.
/// Cells a render requests without prefetching still work — they simulate
/// on demand (serially) — so specs are a performance contract, not a
/// correctness one.
pub struct Harness {
    scale: Scale,
    opts: SweepOptions,
    trace: Option<std::path::PathBuf>,
    probe: Option<String>,
    memo: Mutex<HashMap<String, Metrics>>,
}

impl Harness {
    /// A harness with explicit settings (no trace or probe request).
    pub fn new(scale: Scale, opts: SweepOptions) -> Self {
        Harness {
            scale,
            opts,
            trace: None,
            probe: None,
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// A harness configured from parsed command-line arguments (see
    /// [`cli`]).
    pub fn from_args(args: cli::Args) -> Self {
        let mut h = Harness::new(args.scale, args.sweep_options());
        h.trace = args.trace;
        h.probe = args.probe;
        h
    }

    /// The benchmark scale every run uses.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Runs every cell of `spec` through the parallel sweep executor and
    /// memoizes the results, asserting workload invariants on each.
    ///
    /// # Panics
    ///
    /// Panics if any cell fails or violates its workload's invariants — a
    /// figure must never be built from a broken run. Before panicking,
    /// every cell failure (not just the first) is printed to stderr, so a
    /// long sweep's postmortem starts with the full casualty list.
    pub fn prefetch(&self, spec: &ExperimentSpec) {
        let report = run_sweep_report(spec, &self.opts);
        if !report.is_complete() {
            for f in &report.failures {
                eprintln!("sweep: {f}");
            }
            panic!(
                "sweep failed: {} of {} cells failed ({} skipped)",
                report.failures.len(),
                spec.len(),
                report.skipped
            );
        }
        let mut memo = self.memo.lock().expect("memo lock");
        for o in report.outcomes {
            o.metrics.assert_correct();
            memo.insert(o.cell.cache_key(), o.metrics);
        }
    }

    /// Runs (or recalls) `bench` under `system` with `cfg` at the harness
    /// scale, asserting the workload invariants.
    ///
    /// # Panics
    ///
    /// See [`Harness::prefetch`].
    pub fn run(&self, bench: Benchmark, system: TmSystem, cfg: &GpuConfig) -> Metrics {
        let cell = CellSpec::new(bench, self.scale, system, cfg.clone());
        let key = cell.cache_key();
        if !self.memo.lock().expect("memo lock").contains_key(&key) {
            self.prefetch(&ExperimentSpec::from_cells(vec![cell]));
        }
        self.memo.lock().expect("memo lock")[&key].clone()
    }

    /// Like [`Harness::run`] with the Table IV optimal concurrency applied
    /// for the `(system, bench)` pair on top of `base`.
    pub fn run_optimal(&self, bench: Benchmark, system: TmSystem, base: &GpuConfig) -> Metrics {
        let cfg = base
            .clone()
            .with_concurrency(optimal_concurrency(system, bench));
        self.run(bench, system, &cfg)
    }

    /// Honors `--trace` / `--probe`: re-runs the figure's representative
    /// cell (its first GETM cell) with tracing attached, writes the Chrome
    /// trace-event JSON, and prints the requested probe's time series.
    /// No-op when neither flag was given.
    pub fn emit_trace_artifacts(&self, spec: &ExperimentSpec) {
        if self.trace.is_none() && self.probe.is_none() {
            return;
        }
        let Some(cell) = traceview::representative_cell(spec.cells()) else {
            eprintln!("trace: this figure runs no cells; nothing to trace");
            return;
        };
        let (bus, metrics) = traceview::capture(cell, 1 << 20);
        if let Some(path) = &self.trace {
            traceview::write_chrome(&bus, cell, path);
            let h = &metrics.metadata_latency;
            if h.count() > 0 {
                eprintln!(
                    "trace: metadata latency p50/p95/p99 = {}/{}/{} cycles over {} accesses",
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.count()
                );
            }
        }
        if let Some(probe) = &self.probe {
            traceview::print_probe(&bus, probe);
        }
    }
}

/// Prints a header for a figure/table reproduction.
pub fn banner(id: &str, caption: &str) {
    println!("=== {id}: {caption} ===");
}

/// Prints one normalized data series as a row: `label v1 v2 ... gmean`.
pub fn print_row(label: &str, values: &[f64], with_gmean: bool) {
    print!("{label:<14}");
    for v in values {
        print!(" {v:>8.3}");
    }
    if with_gmean {
        print!(" {:>8.3}", sim_core::stats::gmean(values));
    }
    println!();
}

/// Prints the benchmark-name column header.
pub fn print_header(first: &str, with_gmean: bool) {
    print!("{first:<14}");
    for b in Benchmark::ALL {
        print!(" {:>8}", b.name());
    }
    if with_gmean {
        print!(" {:>8}", "GMEAN");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_concurrency_is_defined_for_all_cells() {
        for b in Benchmark::ALL {
            for s in TmSystem::ALL {
                // Every cell resolves (None = unlimited is legal).
                let _ = optimal_concurrency(s, b);
            }
        }
        assert_eq!(optimal_concurrency(TmSystem::Getm, Benchmark::Ap), Some(1));
        assert_eq!(optimal_concurrency(TmSystem::FgLock, Benchmark::Atm), None);
    }

    #[test]
    fn every_figure_spec_builds() {
        for f in &figures::ALL {
            let spec = (f.spec)(Scale::Fast);
            // table5 is analytical (no simulations); everything else sweeps.
            if f.id != "table5" {
                assert!(!spec.is_empty(), "{} has an empty spec", f.id);
            }
        }
    }

    #[test]
    fn figures_are_found_by_id() {
        assert!(figures::by_id("fig3").is_some());
        assert!(figures::by_id("table4").is_some());
        assert!(figures::by_id("fig99").is_none());
    }

    #[test]
    fn fig_selects_one_figure_or_all_in_order() {
        let ids = |figs: &[figures::Figure]| figs.iter().map(|f| f.id).collect::<Vec<_>>();
        assert_eq!(ids(figures::select("all").unwrap()), ids(&figures::ALL));
        assert_eq!(ids(figures::select("fig13").unwrap()), ["fig13"]);
        let err = figures::select("fig99").map(ids).unwrap_err();
        assert!(err.contains("fig99"), "{err}");
    }
}
