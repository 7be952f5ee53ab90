//! Parallel sweep execution with deterministic result caching.
//!
//! The paper's evaluation is a grid of independent simulations: every
//! (benchmark, TM system, machine configuration) cell is a fully
//! deterministic function of its [`CellSpec`] — the engine derives every
//! random stream from `cfg.seed` — so cells can run on any thread, in any
//! order, and produce bit-identical [`Metrics`]. This module exploits
//! that structure three ways:
//!
//! * [`ExperimentSpec`] makes a sweep a first-class value: a list of
//!   cells, usually produced by [`ExperimentSpec::grid`]'s cross-product
//!   builder.
//! * [`run_sweep_report`] executes the cells on a pool of scoped threads
//!   that claim cells in spec order; serial (`threads = 1`) and parallel
//!   runs return identical metrics in identical (spec) order.
//! * [`ResultCache`] memoizes finished cells on disk under a
//!   content-addressed key ([`CellSpec::cache_key`], a stable 128-bit
//!   FNV-1a digest of the cell description), so re-running a harness
//!   skips every cell it has ever completed.
//!
//! Sweeps are also fault-isolated: the executor contains a
//! panicking, livelocking, or runaway cell as a structured
//! [`CellFailure`] (per the configured [`FailurePolicy`] and optional
//! per-cell wall-clock timeout) instead of killing the campaign, and a
//! [`SweepJournal`] written next to the cache makes a killed sweep
//! resumable ([`SweepOptions::resume`]) with bit-identical results.
//!
//! ```no_run
//! use gputm::prelude::*;
//! use gputm::sweep::{run_sweep_report, ExperimentSpec, ResultCache, SweepOptions};
//!
//! let spec = ExperimentSpec::grid()
//!     .benchmarks([Benchmark::HtH, Benchmark::Atm])
//!     .systems([TmSystem::WarpTmLL, TmSystem::Getm])
//!     .concurrency_limits([Some(2), Some(8), None])
//!     .build();
//! let opts = SweepOptions::default().cache(ResultCache::at_default_dir());
//! let report = run_sweep_report(&spec, &opts);
//! for outcome in &report.outcomes {
//!     println!("{}: {} cycles", outcome.cell.label(), outcome.metrics.cycles);
//! }
//! assert!(report.is_complete(), "{:?}", report.failures);
//! ```

mod cache;
pub(crate) mod exec;
mod journal;
pub(crate) mod ledger;
mod lock;
mod spec;

pub(crate) use cache::{escape, unescape};
pub use cache::{parse_metrics, serialize_metrics, ResultCache};
pub use journal::{sweep_digest, SweepJournal};
pub use lock::LockFile;
pub use spec::{CellSpec, ExperimentSpec, GridBuilder};

use crate::metrics::Metrics;
use crate::telemetry::Telemetry;
use sim_core::{CancelToken, SimError};
use std::time::Duration;

/// What the executor does with cells that fail (simulation error, panic,
/// or per-cell timeout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Stop claiming new cells after the first failure; cells already in
    /// flight finish, unclaimed cells are counted as skipped. The
    /// default: a broken sweep should not burn hours on doomed work.
    #[default]
    FailFast,
    /// Attempt every cell regardless of failures and report them all —
    /// the mode for overnight campaigns, where one poisoned cell must not
    /// cost the other thousand.
    CollectAll,
    /// Like [`FailurePolicy::CollectAll`], but each failing cell is
    /// retried up to `attempts` total tries with doubling wall-clock
    /// backoff in between (for environmental flakes: OOM kills, full
    /// disks). Deterministic simulation errors fail identically every
    /// try and simply record their attempt count.
    Retry {
        /// Total tries per cell (clamped to at least 1).
        attempts: u32,
    },
}

impl FailurePolicy {
    /// Total tries a failing cell gets under this policy.
    pub(crate) fn attempts(self) -> u32 {
        match self {
            FailurePolicy::Retry { attempts } => attempts.max(1),
            _ => 1,
        }
    }
}

/// Why a cell failed.
#[derive(Debug)]
pub enum FailureKind {
    /// The simulation returned a typed error (including
    /// [`SimError::Livelock`] from the forward-progress watchdog).
    Sim(SimError),
    /// The cell panicked; the payload is rendered to a string. The panic
    /// is contained to the cell — sibling cells and the sweep survive.
    Panic(String),
    /// The cell exceeded [`SweepOptions::cell_timeout`] and was cancelled
    /// cooperatively at `cycle`.
    TimedOut {
        /// The configured wall-clock limit that was exceeded.
        limit: Duration,
        /// Simulated cycle at which the engine observed the cancellation.
        cycle: u64,
    },
    /// A distributed campaign failure observed across the wire: either a
    /// worker-reported cell failure (the original taxonomy tag and
    /// rendered error survive the hop) or a coordinator-detected worker
    /// loss (`kind` = `worker`: process exit, missed heartbeats, or an
    /// expired lease deadline, past the reassignment cap).
    Remote {
        /// The taxonomy tag: `sim`, `panic`, `timeout`, or `worker`.
        kind: &'static str,
        /// The rendered error.
        detail: String,
    },
}

impl FailureKind {
    /// Every taxonomy tag [`FailureKind::tag`] can return.
    pub(crate) const TAGS: [&'static str; 4] = ["sim", "panic", "timeout", "worker"];

    /// The failure's taxonomy tag, as carried by telemetry and the
    /// campaign wire protocol: `sim`, `panic`, `timeout`, or `worker`.
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            FailureKind::Sim(_) => "sim",
            FailureKind::Panic(_) => "panic",
            FailureKind::TimedOut { .. } => "timeout",
            FailureKind::Remote { kind, .. } => kind,
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Sim(e) => write!(f, "{e}"),
            FailureKind::Panic(msg) => write!(f, "panicked: {msg}"),
            FailureKind::TimedOut { limit, cycle } => {
                write!(f, "timed out after {limit:?} (cancelled at cycle {cycle})")
            }
            FailureKind::Remote { detail, .. } => write!(f, "{detail}"),
        }
    }
}

/// One failed cell of a sweep: the cell, what went wrong, and how hard
/// the executor tried.
#[derive(Debug)]
pub struct CellFailure {
    /// The cell that failed.
    pub cell: CellSpec,
    /// The final failure (of the last attempt).
    pub error: FailureKind,
    /// How many times the cell was attempted.
    pub attempts: u32,
    /// Wall-clock time spent on the cell across all attempts.
    pub elapsed: Duration,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.cell.label(), self.error)?;
        if self.attempts > 1 {
            write!(f, " ({} attempts)", self.attempts)?;
        }
        Ok(())
    }
}

/// Everything a sweep produced: completed cells, failed cells, and the
/// count of cells never attempted (fail-fast stop), all in spec order.
#[derive(Debug, Default)]
pub struct SweepReport {
    /// Cells that completed, in spec order.
    pub outcomes: Vec<SweepOutcome>,
    /// Cells that failed, in spec order.
    pub failures: Vec<CellFailure>,
    /// Cells never attempted because the sweep stopped early.
    pub skipped: usize,
}

impl SweepReport {
    /// Whether every cell completed.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty() && self.skipped == 0
    }
}

/// How a sweep executes: thread count, caching, progress reporting, and
/// the failure-handling policy.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; 0 means one per available core.
    pub threads: usize,
    /// On-disk result cache; `None` disables caching.
    pub result_cache: Option<ResultCache>,
    /// Print one line per completed cell to stderr.
    pub progress: bool,
    /// What to do when a cell fails (see [`FailurePolicy`]).
    pub failure_policy: FailurePolicy,
    /// Wall-clock budget per cell; a cell past it is cancelled
    /// cooperatively and reported as [`FailureKind::TimedOut`]. `None`
    /// (the default) lets cells run to the engine's own cycle limit.
    pub cell_timeout: Option<Duration>,
    /// Honor an existing sweep journal: report previously completed cells
    /// and recompute only the rest. Off, an existing journal for this
    /// sweep is discarded and the campaign starts over (the result cache,
    /// if attached, still serves whatever it holds). Journaling itself is
    /// automatic whenever a cache is attached.
    pub resume: bool,
    /// Campaign telemetry: cell-lifecycle and throughput events fanned out
    /// to the attached sinks (JSONL, live dashboard, Prometheus snapshot).
    /// Defaults to [`Telemetry::off`] — disabled emission is a branch on a
    /// `None`, inside the PR-2 <2% overhead guard.
    pub telemetry: Telemetry,
    /// External sweep-wide cancellation. When raised, workers stop
    /// claiming new cells and the cell currently in flight is interrupted
    /// cooperatively (the engine polls the token); the interrupted cell
    /// surfaces as [`FailureKind::Sim`] with
    /// [`SimError::Interrupted`] — distinct from a per-cell
    /// [`FailureKind::TimedOut`]. The distributed campaign worker threads
    /// a lease-revocation token through here so a coordinator-issued
    /// revoke stops a running cell promptly instead of orphaning it.
    pub cancel: Option<CancelToken>,
    /// Test-only override of how a cell is executed (fault injection).
    pub(crate) runner: Option<exec::CellRunner>,
}

impl SweepOptions {
    /// Defaults: all cores, no cache, no progress output.
    #[must_use]
    pub fn new() -> Self {
        SweepOptions::default()
    }

    /// Sets the worker-thread count (0 = one per available core).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches an on-disk result cache.
    #[must_use]
    pub fn cache(mut self, cache: ResultCache) -> Self {
        self.result_cache = Some(cache);
        self
    }

    /// Enables per-cell progress lines on stderr.
    #[must_use]
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Sets the failure-handling policy (default: fail fast).
    #[must_use]
    pub fn failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.failure_policy = policy;
        self
    }

    /// Sets a wall-clock budget per cell.
    #[must_use]
    pub fn cell_timeout(mut self, limit: Duration) -> Self {
        self.cell_timeout = Some(limit);
        self
    }

    /// Honors an existing sweep journal (see [`SweepOptions::resume`]).
    #[must_use]
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Attaches campaign telemetry (see [`SweepOptions::telemetry`]).
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches an external sweep-wide cancellation token (see
    /// [`SweepOptions::cancel`]).
    #[must_use]
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The resolved worker count.
    pub(crate) fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }
}

/// One completed cell of a sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The cell that ran.
    pub cell: CellSpec,
    /// Its metrics (identical whether computed or recalled from cache).
    pub metrics: Metrics,
    /// Whether the result came from the cache rather than a simulation.
    pub cached: bool,
    /// Wall-clock time spent producing this outcome.
    pub elapsed: Duration,
}

/// Runs every cell of `spec`, in parallel, under the options'
/// [`FailurePolicy`], returning a [`SweepReport`] in spec order
/// regardless of completion order: a panicking, livelocking, or
/// timed-out cell becomes a structured [`CellFailure`] and the rest of
/// the campaign survives.
///
/// Results are deterministic: a cell's metrics depend only on its spec
/// (all engine randomness derives from `cfg.seed`), so serial and
/// parallel execution — and cache hits from previous runs — are
/// bit-identical.
///
/// With a result cache attached, completed cells are additionally
/// journaled (append-only, fsynced) next to the cache, so a killed
/// process can be resumed with [`SweepOptions::resume`]: previously
/// completed cells are recalled, unfinished cells recompute, and the
/// combined outcomes are bit-identical to an uninterrupted run.
pub fn run_sweep_report(spec: &ExperimentSpec, opts: &SweepOptions) -> SweepReport {
    exec::run_report(spec.cells(), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TmSystem;
    use workloads::suite::{Benchmark, Scale};

    #[test]
    fn options_builder_chains() {
        let o = SweepOptions::new()
            .threads(3)
            .progress(true)
            .failure_policy(FailurePolicy::Retry { attempts: 3 })
            .cell_timeout(Duration::from_secs(30))
            .resume(true);
        assert_eq!(o.threads, 3);
        assert!(o.progress);
        assert!(o.result_cache.is_none());
        assert_eq!(o.failure_policy, FailurePolicy::Retry { attempts: 3 });
        assert_eq!(o.cell_timeout, Some(Duration::from_secs(30)));
        assert!(o.resume);
        assert_eq!(o.resolved_threads(), 3);
        let d = SweepOptions::new();
        assert_eq!(d.failure_policy, FailurePolicy::FailFast);
        assert_eq!(d.cell_timeout, None);
        assert!(!d.resume);
        assert!(d.resolved_threads() >= 1);
    }

    #[test]
    fn failure_kinds_render_for_operators() {
        let cell = CellSpec::new(
            Benchmark::HtH,
            Scale::Fast,
            TmSystem::Getm,
            crate::config::GpuConfig::tiny_test(),
        );
        let f = CellFailure {
            cell,
            error: FailureKind::Panic("boom".into()),
            attempts: 3,
            elapsed: Duration::from_millis(5),
        };
        let msg = f.to_string();
        assert!(msg.contains("HT-H"), "{msg}");
        assert!(msg.contains("panicked: boom"), "{msg}");
        assert!(msg.contains("3 attempts"), "{msg}");
        let t = FailureKind::TimedOut {
            limit: Duration::from_secs(2),
            cycle: 77,
        };
        assert!(t.to_string().contains("timed out after 2s"), "{t}");
    }

    #[test]
    fn sweep_of_empty_spec_is_empty() {
        let spec = ExperimentSpec::from_cells(Vec::new());
        let report = run_sweep_report(&spec, &SweepOptions::new());
        assert!(report.is_complete());
        assert!(report.outcomes.is_empty());
        let _ = (Benchmark::HtH, Scale::Fast, TmSystem::Getm);
    }
}
