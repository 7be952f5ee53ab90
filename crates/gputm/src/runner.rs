//! Workload execution: the [`Sim`] builder and the [`RunOptions`]
//! execution API.

use crate::config::{GpuConfig, TmSystem, WatchdogConfig};
use crate::engine::Engine;
use crate::metrics::Metrics;
use crate::verify::{self, Verdict};
use gpu_mem::MemImage;
use sim_core::history::{History, HistoryRecorder};
use sim_core::{CancelToken, Recorder, SimError};
use std::collections::HashMap;
use workloads::Workload;

/// Everything that can be composed onto a single run: an optional
/// event-trace recorder, history verification, cooperative cancellation,
/// and a watchdog override. The zero-cost default (`RunOptions::default()`)
/// is a plain untraced, unverified run.
///
/// ```no_run
/// use gputm::prelude::*;
///
/// let cfg = GpuConfig::fermi_15core();
/// let w = Benchmark::Atm.build(Scale::Fast);
/// let opts = RunOptions::default().verify(true);
/// let out = Sim::new(&cfg).run_with(w.as_ref(), &opts).unwrap();
/// println!("cycles = {}", out.metrics.unwrap().cycles);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Event-trace recorder to attach, if any. The caller keeps a clone
    /// and reads the bus afterwards (see [`sim_core::Recorder::bus`]).
    pub trace: Option<Recorder>,
    /// Record a transaction history and run the serializability/opacity
    /// checker over it, filling [`RunOutcome::verdict`].
    pub verify: bool,
    /// Record a transaction history (and the final memory image) into
    /// [`RunOutcome::history`]/[`RunOutcome::final_mem`] without judging
    /// it, for callers that run the checker themselves (the backend API)
    /// or post-process histories. Implied by `verify`.
    pub record_history: bool,
    /// Cooperative cancellation token, polled every few thousand simulated
    /// cycles.
    pub cancel: Option<CancelToken>,
    /// Overrides the config's forward-progress watchdog for this run.
    pub watchdog: Option<WatchdogConfig>,
}

impl RunOptions {
    /// Attaches an event-trace recorder.
    #[must_use]
    pub fn trace(mut self, rec: Recorder) -> Self {
        self.trace = Some(rec);
        self
    }

    /// Enables history recording plus the serializability/opacity checker.
    #[must_use]
    pub fn verify(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Enables history recording without the checker (see
    /// [`RunOptions::record_history`]).
    #[must_use]
    pub fn record_history(mut self, on: bool) -> Self {
        self.record_history = on;
        self
    }

    /// Attaches a cooperative cancellation token.
    #[must_use]
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Overrides the forward-progress watchdog configuration.
    #[must_use]
    pub fn watchdog(mut self, wd: WatchdogConfig) -> Self {
        self.watchdog = Some(wd);
        self
    }
}

/// What a [`Sim::run_with`] call produced.
///
/// `metrics` is `Some` for every completed run except a verified run that
/// tripped an engine-detected protocol violation (reported through the
/// verdict instead of an error, so harnesses show it beside checker
/// findings). `verdict` is `Some` exactly when [`RunOptions::verify`] was
/// set.
#[derive(Debug)]
pub struct RunOutcome {
    /// Run metrics, with the workload invariant check applied.
    pub metrics: Option<Metrics>,
    /// The checker's verdict, when verification was requested.
    pub verdict: Option<Verdict>,
    /// The recorded history, when [`RunOptions::verify`] or
    /// [`RunOptions::record_history`] was set (absent after an
    /// engine-detected protocol violation: the record stops where the
    /// engine did and is not a faithful account of the run).
    pub history: Option<History>,
    /// The final committed memory image; `Some` for every completed run
    /// (absent only after an engine-detected protocol violation).
    pub final_mem: Option<MemImage>,
}

/// Builder-style entry point for running workloads on the simulated GPU.
///
/// A `Sim` borrows a machine configuration, selects a TM system, and can
/// then run any number of workloads:
///
/// ```no_run
/// use gputm::prelude::*;
///
/// let cfg = GpuConfig::fermi_15core();
/// let w = Benchmark::Atm.build(Scale::Fast);
/// let m = Sim::new(&cfg).system(TmSystem::Getm).run(w.as_ref()).unwrap();
/// m.assert_correct();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Sim<'a> {
    cfg: &'a GpuConfig,
    system: TmSystem,
    require_opacity: Option<bool>,
}

impl<'a> Sim<'a> {
    /// A simulator over `cfg`, defaulting to the paper's GETM system.
    pub fn new(cfg: &'a GpuConfig) -> Self {
        Sim {
            cfg,
            system: TmSystem::Getm,
            require_opacity: None,
        }
    }

    /// Selects the synchronization system.
    #[must_use]
    pub fn system(mut self, system: TmSystem) -> Self {
        self.system = system;
        self
    }

    /// Overrides the opacity policy used by verified runs.
    ///
    /// By default a torn snapshot in an *aborted* attempt is a violation
    /// only for systems that promise opaque aborts
    /// ([`TmSystem::guarantees_opacity`]); for the rest it is waived and
    /// counted in [`verify::Verdict::opacity_waived`]. Passing `true` turns
    /// every torn doomed snapshot into a hard violation regardless of the
    /// system's promise — useful when a test knows the workload's doomed
    /// reads stay consistent on a deterministic machine and wants to pin
    /// that down (e.g. the sabotage mutation tests). Passing `false` waives
    /// them even for systems that do promise opacity.
    #[must_use]
    pub fn require_opacity(mut self, require: bool) -> Self {
        self.require_opacity = Some(require);
        self
    }

    /// The currently selected system.
    pub fn selected_system(&self) -> TmSystem {
        self.system
    }

    /// Runs `workload` to completion under `opts` — the one execution
    /// entry point every other runner method is sugar over.
    ///
    /// # Errors
    ///
    /// Configuration errors, [`SimError::CycleLimitExceeded`],
    /// [`SimError::Livelock`], and — with a cancel token attached —
    /// [`SimError::Interrupted`]. With `verify` set, an engine-detected
    /// [`SimError::ProtocolViolation`] is converted into a failing verdict
    /// (with `metrics: None`) instead of an error; without it, the
    /// violation is returned as the error it is. Workload invariant
    /// violations are reported in [`Metrics::check`] rather than as an
    /// error, so harnesses can decide how loudly to fail.
    pub fn run_with(
        &self,
        workload: &dyn Workload,
        opts: &RunOptions,
    ) -> Result<RunOutcome, SimError> {
        let cfg_override;
        let cfg = match &opts.watchdog {
            Some(wd) => {
                cfg_override = GpuConfig {
                    watchdog: wd.clone(),
                    ..self.cfg.clone()
                };
                &cfg_override
            }
            None => self.cfg,
        };
        let mut engine = Engine::new(workload, self.system, cfg)?;
        if let Some(rec) = &opts.trace {
            engine.attach_recorder(rec.clone());
        }
        if let Some(tok) = &opts.cancel {
            engine.attach_cancel(tok.clone());
        }
        let record = opts.verify || opts.record_history;
        if !record {
            let mut metrics = engine.run()?;
            metrics.check = Some(workload.check(&engine.memory_reader()));
            return Ok(RunOutcome {
                metrics: Some(metrics),
                verdict: None,
                history: None,
                final_mem: Some(engine.memory_image()),
            });
        }
        engine.attach_history(HistoryRecorder::recording());
        let initial: HashMap<u64, u64> = workload
            .initial_memory()
            .into_iter()
            .map(|(a, v)| (a.0, v))
            .collect();
        match engine.run() {
            Ok(mut metrics) => {
                metrics.check = Some(workload.check(&engine.memory_reader()));
                let hist = engine
                    .detach_history()
                    .take()
                    .expect("engine held the sole history handle");
                let final_mem = engine.memory_image();
                let verdict = opts.verify.then(|| {
                    verify::Checker::for_run(&initial, &final_mem)
                        .strict(
                            self.require_opacity
                                .unwrap_or_else(|| self.system.guarantees_opacity()),
                        )
                        .check(&hist)
                });
                Ok(RunOutcome {
                    metrics: Some(metrics),
                    verdict,
                    history: Some(hist),
                    final_mem: Some(final_mem),
                })
            }
            Err(SimError::ProtocolViolation { what, token, cycle }) => {
                let stats = engine
                    .detach_history()
                    .take()
                    .map(|h| h.stats())
                    .unwrap_or_default();
                Ok(RunOutcome {
                    metrics: None,
                    verdict: Some(verify::protocol_verdict(what, token, cycle, stats)),
                    history: None,
                    final_mem: None,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Runs `workload` to completion, returning the metrics with the
    /// workload's invariant check already applied.
    ///
    /// # Errors
    ///
    /// Configuration errors and [`SimError::CycleLimitExceeded`] (protocol
    /// livelock) are returned; invariant violations are reported in
    /// [`Metrics::check`] rather than as an error, so harnesses can decide
    /// how loudly to fail.
    pub fn run(&self, workload: &dyn Workload) -> Result<Metrics, SimError> {
        let out = self.run_with(workload, &RunOptions::default())?;
        Ok(out.metrics.expect("unverified runs always carry metrics"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_selects_system() {
        let cfg = GpuConfig::tiny_test();
        let sim = Sim::new(&cfg);
        assert_eq!(sim.selected_system(), TmSystem::Getm);
        let sim = sim.system(TmSystem::FgLock);
        assert_eq!(sim.selected_system(), TmSystem::FgLock);
    }

    #[test]
    fn tracing_is_observational() {
        use workloads::suite::{Benchmark, Scale};
        let cfg = GpuConfig::tiny_test();
        let w = Benchmark::Atm.build(Scale::Fast);
        let sim = Sim::new(&cfg);
        let plain = sim.run(w.as_ref()).expect("untraced run");
        let rec = Recorder::recording(1 << 16);
        let traced = sim
            .run_with(w.as_ref(), &RunOptions::default().trace(rec.clone()))
            .expect("traced run")
            .metrics
            .expect("traced run yields metrics");
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        let bus = rec.bus().expect("recording recorder has a bus");
        assert!(!bus.borrow().is_empty(), "the run must emit events");
    }

    #[test]
    fn verification_is_observational_and_certifies() {
        use workloads::suite::{Benchmark, Scale};
        let cfg = GpuConfig::tiny_test();
        let w = Benchmark::Atm.build(Scale::Fast);
        for system in [TmSystem::Getm, TmSystem::WarpTmLL, TmSystem::Eapg] {
            let sim = Sim::new(&cfg).system(system);
            let plain = sim.run(w.as_ref()).expect("unverified run");
            let out = sim
                .run_with(w.as_ref(), &RunOptions::default().verify(true))
                .expect("verified run");
            assert_eq!(
                Some(&plain),
                out.metrics.as_ref(),
                "history recording must not perturb the simulation ({system})"
            );
            let verdict = out.verdict.expect("verified run yields a verdict");
            verdict.assert_ok();
            assert!(verdict.stats.committed > 0);
        }
    }

    #[test]
    fn cancel_option_is_observational_when_never_cancelled() {
        use workloads::suite::{Benchmark, Scale};
        let cfg = GpuConfig::tiny_test();
        let w = Benchmark::Atm.build(Scale::Fast);
        let sim = Sim::new(&cfg);
        let plain = sim.run(w.as_ref()).expect("plain run");
        let with_token = sim
            .run_with(
                w.as_ref(),
                &RunOptions::default().cancel(CancelToken::new()),
            )
            .expect("cancellable run")
            .metrics
            .expect("metrics");
        assert_eq!(plain, with_token);
    }
}
