//! Backend-agnostic transactional execution.
//!
//! A [`TmBackend`] executes a backend-neutral transactional program
//! ([`workloads::TxProgram`]) and returns a [`BackendOutcome`]: the usual
//! [`Metrics`]-compatible counters, the final committed memory, and —
//! when requested — the recorded [`History`] that the offline
//! serializability/opacity oracle judges. Two implementations ship:
//!
//! * [`SimBackend`] — the cycle-level GPU simulator (GETM, WarpTM, EAPG,
//!   FGLock), a thin adapter over [`Sim::run_with`]. Metrics are
//!   bit-identical to driving the simulator directly.
//! * [`Tl2Backend`] — the host-threaded TL2 software TM from the `tl2`
//!   crate, running the *same programs* on real OS threads with genuinely
//!   nondeterministic interleavings.
//!
//! The point of the shared trait is cross-validation: one benchmark
//! definition, two radically different executors, one oracle certifying
//! both. A finding that reproduces on both backends is a workload or
//! oracle property; one that appears on a single backend localizes to that
//! backend's protocol.
//!
//! ```no_run
//! use gputm::prelude::*;
//!
//! let prog = Benchmark::Atm.tx_program(Scale::Fast).unwrap();
//! let cfg = GpuConfig::fermi_15core();
//! let backends: Vec<Box<dyn TmBackend>> = vec![
//!     Box::new(SimBackend::new(cfg, TmSystem::Getm)),
//!     Box::new(Tl2Backend::new()),
//! ];
//! let opts = BackendOptions::default().record_history(true);
//! for b in &backends {
//!     let out = b.execute(&prog, &opts).unwrap();
//!     let verdict = out.verdict(&prog, b.guarantees_opacity()).unwrap();
//!     println!("{}: {} commits, {}", b.name(), out.metrics.commits, verdict.summary());
//! }
//! ```

use crate::config::{GpuConfig, TmSystem};
use crate::metrics::Metrics;
use crate::runner::{RunOptions, Sim};
use crate::verify::{Checker, Verdict};
use gpu_mem::MemImage;
use sim_core::history::History;
use sim_core::SimError;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use tl2::{Tl2Error, Tl2Options};
use workloads::TxProgram;

/// Execution options common to every backend.
#[derive(Debug, Clone)]
pub struct BackendOptions {
    /// Record a [`History`] into [`BackendOutcome::history`] for offline
    /// certification.
    pub record_history: bool,
    /// TL2 worker threads; TL2's interleavings are genuinely concurrent
    /// at `threads > 1`. The simulator ignores it.
    pub threads: usize,
    /// Seed forwarded to backend-internal randomness (TL2 backoff
    /// jitter). Simulated runs are deterministic regardless.
    pub seed: u64,
}

impl Default for BackendOptions {
    fn default() -> Self {
        BackendOptions {
            record_history: false,
            threads: 4,
            seed: 0xB0B,
        }
    }
}

impl BackendOptions {
    /// Enables history recording.
    #[must_use]
    pub fn record_history(mut self, on: bool) -> Self {
        self.record_history = on;
        self
    }

    /// Sets the TL2 worker-thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the backend-internal randomness seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// What one backend execution produced.
#[derive(Debug)]
pub struct BackendOutcome {
    /// Counters in the simulator's [`Metrics`] shape. Fields without a
    /// meaning on a given backend stay at their defaults (TL2 has no
    /// crossbar; `cycles` counts its global event ticks).
    pub metrics: Metrics,
    /// The recorded history, when [`BackendOptions::record_history`] was
    /// set.
    pub history: Option<History>,
    /// Final committed memory.
    pub final_mem: MemImage,
    /// Host wall time of the execution.
    pub wall: Duration,
}

impl BackendOutcome {
    /// Judges the recorded history against the oracle: `None` if no
    /// history was recorded, otherwise the [`Checker`] verdict with
    /// `strict` opacity (pass the backend's
    /// [`TmBackend::guarantees_opacity`]).
    pub fn verdict(&self, prog: &TxProgram, strict: bool) -> Option<Verdict> {
        let h = self.history.as_ref()?;
        let initial: HashMap<u64, u64> = prog
            .initial_memory()
            .into_iter()
            .map(|(a, v)| (a.0, v))
            .collect();
        Some(
            Checker::for_run(&initial, &self.final_mem)
                .strict(strict)
                .check(h),
        )
    }

    /// Runs the program's own invariant checker over the final memory.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn check(&self, prog: &TxProgram) -> Result<(), String> {
        prog.check(&|a| self.final_mem.get(a.0))
    }
}

/// Why a backend execution failed.
#[derive(Debug)]
pub enum BackendError {
    /// The simulator backend failed.
    Sim(SimError),
    /// The TL2 backend failed.
    Tl2(Tl2Error),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Sim(e) => write!(f, "simulator backend: {e}"),
            BackendError::Tl2(e) => write!(f, "TL2 backend: {e}"),
        }
    }
}

impl std::error::Error for BackendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BackendError::Sim(e) => Some(e),
            BackendError::Tl2(e) => Some(e),
        }
    }
}

impl From<SimError> for BackendError {
    fn from(e: SimError) -> Self {
        BackendError::Sim(e)
    }
}

impl From<Tl2Error> for BackendError {
    fn from(e: Tl2Error) -> Self {
        BackendError::Tl2(e)
    }
}

/// An executor of backend-neutral transactional programs.
pub trait TmBackend {
    /// Human-readable backend identity ("GETM (sim)", "TL2", ...).
    fn name(&self) -> String;

    /// Whether doomed (aborted) attempts are promised consistent
    /// snapshots — the strictness the oracle should check recorded
    /// histories with.
    fn guarantees_opacity(&self) -> bool;

    /// Executes `prog` to completion.
    ///
    /// # Errors
    ///
    /// [`BackendError`] wrapping the backend's native failure.
    fn execute(
        &self,
        prog: &TxProgram,
        opts: &BackendOptions,
    ) -> Result<BackendOutcome, BackendError>;
}

/// The cycle-level GPU simulator as a [`TmBackend`]: a thin adapter over
/// [`Sim::run_with`], so metrics are bit-identical to driving the
/// simulator directly with the same [`RunOptions`].
#[derive(Debug, Clone)]
pub struct SimBackend {
    cfg: GpuConfig,
    system: TmSystem,
}

impl SimBackend {
    /// A simulator backend over `cfg` running `system`.
    pub fn new(cfg: GpuConfig, system: TmSystem) -> Self {
        SimBackend { cfg, system }
    }

    /// The selected TM system.
    pub fn system(&self) -> TmSystem {
        self.system
    }
}

impl TmBackend for SimBackend {
    fn name(&self) -> String {
        format!("{} (sim)", self.system.label())
    }

    fn guarantees_opacity(&self) -> bool {
        self.system.guarantees_opacity()
    }

    fn execute(
        &self,
        prog: &TxProgram,
        opts: &BackendOptions,
    ) -> Result<BackendOutcome, BackendError> {
        let ropts = RunOptions::default().record_history(opts.record_history);
        let started = Instant::now();
        let out = Sim::new(&self.cfg)
            .system(self.system)
            .run_with(prog.workload(), &ropts)?;
        let wall = started.elapsed();
        Ok(BackendOutcome {
            metrics: out
                .metrics
                .expect("completed unverified runs always carry metrics"),
            history: out.history,
            final_mem: out
                .final_mem
                .expect("completed runs always carry the final image"),
            wall,
        })
    }
}

/// The host-threaded TL2 software TM as a [`TmBackend`].
///
/// Counter mapping: TL2's commits/aborts/atomics/CAS-failures land in
/// their [`Metrics`] namesakes, commit-time revalidation aborts in
/// [`Metrics::aborts_validation`], and the global event-tick count stands
/// in for [`Metrics::cycles`] (an event count, not simulated time —
/// comparable across TL2 runs, not against the simulator's cycles).
#[derive(Debug, Clone, Default)]
pub struct Tl2Backend {
    base: Tl2Options,
}

impl Tl2Backend {
    /// A TL2 backend with default options (thread count, seed, and
    /// recording come from [`BackendOptions`] at execute time).
    pub fn new() -> Self {
        Tl2Backend {
            base: Tl2Options::default(),
        }
    }

    /// A TL2 backend over explicit base options — retry bound, stripe
    /// count, sabotage selector. The [`BackendOptions`] fields still
    /// override threads/seed/recording per execution.
    pub fn with_options(base: Tl2Options) -> Self {
        Tl2Backend { base }
    }
}

impl TmBackend for Tl2Backend {
    fn name(&self) -> String {
        "TL2 (host threads)".to_string()
    }

    fn guarantees_opacity(&self) -> bool {
        // Eager per-read validation: even doomed attempts only observe
        // consistent snapshots. This is the property the cross-validation
        // tests pin with a strict oracle.
        true
    }

    fn execute(
        &self,
        prog: &TxProgram,
        opts: &BackendOptions,
    ) -> Result<BackendOutcome, BackendError> {
        let topts = self
            .base
            .clone()
            .threads(opts.threads)
            .seed(opts.seed)
            .record_history(opts.record_history);
        let run = tl2::run(prog, &topts)?;
        let c = run.counters;
        let final_mem = run.final_image();
        let mut metrics = Metrics {
            cycles: c.ticks,
            commits: c.commits,
            aborts: c.aborts,
            aborts_validation: c.validation_aborts,
            atomics: c.atomics,
            cas_failures: c.cas_failures,
            ..Metrics::default()
        };
        metrics.check = Some(prog.check(&|a| final_mem.get(a.0)));
        Ok(BackendOutcome {
            metrics,
            history: run.history,
            final_mem,
            wall: run.wall,
        })
    }
}
