//! The fault-isolated, multi-threaded cell executor.
//!
//! The ledger reads the whole grid from the result cache on the caller's
//! thread first, so workers exist only for the cache's misses: a
//! fully-warm sweep spawns no thread. Workers claim the misses in spec
//! order from one shared cursor (cells are coarse, so one atomic
//! increment per cell is all the scheduling they need). Each cell's
//! attempt notes and its finished result stream over one channel to the
//! caller's thread, whose ledger slots results by index — so the returned
//! vector is in spec order no matter which worker finished first, and a
//! cell's events reach the telemetry sinks in the order the worker
//! produced them.
//!
//! [`run_cell`] is the one place a cell is attempted and retried. Each
//! attempt runs inside `catch_unwind` with an optional wall-clock
//! watchdog thread holding a [`CancelToken`]: a panicking or runaway
//! cell is contained to its slot and reported as a
//! [`CellFailure`], per the sweep's [`FailurePolicy`]. Workers do no
//! file I/O: the ledger stores each computed cell in the cache and
//! journals it next to the cache, so a killed sweep resumes.
//!
//! Everything is built from `std` scoped threads and channels; the
//! determinism argument needs no synchronization help because each cell
//! is a pure function of its [`CellSpec`].

use super::ledger::{CellResult, Ledger, Note};
use super::{
    CellFailure, CellSpec, FailureKind, FailurePolicy, SweepOptions, SweepOutcome, SweepReport,
};
use crate::metrics::Metrics;
use crate::runner::RunOptions;
use sim_core::{CancelToken, SimError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Signature of an injected cell execution (see [`CellRunner`]).
type CellRunnerFn = dyn Fn(&CellSpec, &RunOptions) -> Result<Metrics, SimError> + Send + Sync;

/// Test-only cell execution override: fault injection for the executor's
/// own tests (panics, hangs, flaky failures) without needing a real
/// workload that misbehaves. It gets the [`RunOptions`] the cell would
/// have run under; no cancel token in them means none was armed.
#[derive(Clone)]
pub(crate) struct CellRunner(pub(crate) Arc<CellRunnerFn>);

impl std::fmt::Debug for CellRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CellRunner(..)")
    }
}

/// Runs `cells` on `opts.resolved_threads()` workers under the options'
/// failure policy, returning a [`SweepReport`] in input order. Only the
/// scheduling lives here; the books are kept by the shared [`Ledger`].
pub(super) fn run_report(cells: &[CellSpec], opts: &SweepOptions) -> SweepReport {
    let total = cells.len();
    if total == 0 {
        return SweepReport::default();
    }
    let workers = opts.resolved_threads().min(total).max(1);
    let mut ledger = Ledger::open(cells, opts, workers);
    // Cache hits are already in the books; workers get only the misses.
    let pending: Vec<usize> = (0..total).filter(|&i| !ledger.is_filled(i)).collect();
    let next = AtomicUsize::new(0);

    let fail_fast = opts.failure_policy == FailurePolicy::FailFast;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, Report)>();
        for _ in 0..workers.min(pending.len()) {
            let tx = tx.clone();
            let (pending, next, stop) = (&pending, &next, &stop);
            scope.spawn(move || {
                while let Some(&idx) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
                    if stop.load(Ordering::Relaxed) {
                        break; // fail-fast: leave the rest unclaimed
                    }
                    // Notes only feed telemetry: with it off they are not sent.
                    let note = |n| {
                        if opts.telemetry.is_on() {
                            tx.send((idx, Report::Note(n))).ok();
                        }
                    };
                    let result = run_cell(&cells[idx], opts, note).map_err(|f| *f);
                    if result.is_err() && fail_fast {
                        stop.store(true, Ordering::Relaxed);
                    }
                    if tx.send((idx, Report::Done(result))).is_err() {
                        return; // collector gone; nothing left to do
                    }
                }
            });
        }
        drop(tx);
        for (idx, report) in rx {
            match report {
                Report::Note(note) => ledger.note(idx, note),
                Report::Done(result) => ledger.record(idx, result),
            }
        }
    });
    ledger.into_report()
}

/// What a worker thread tells the collector about one cell.
// `Done` is the message every cell sends; boxing it to shrink the rarer
// notes would allocate once per cell instead.
#[allow(clippy::large_enum_variant)]
enum Report {
    Note(Note),
    Done(CellResult),
}

/// Runs one cell the cache lacks to a verdict: up to the policy's
/// attempt count of fault-isolated executions. Each attempt's start and
/// retry go to `note`. The failure is boxed to keep the happy path's
/// return slot small.
fn run_cell(
    cell: &CellSpec,
    opts: &SweepOptions,
    mut note: impl FnMut(Note),
) -> Result<SweepOutcome, Box<CellFailure>> {
    let start = Instant::now();
    let budget = opts.failure_policy.attempts();
    let mut attempt = 0;
    let error = loop {
        attempt += 1;
        if attempt > 1 {
            std::thread::sleep(retry_backoff(attempt));
        }
        note(Note::Started { attempt });
        match run_attempt(cell, opts) {
            Ok(metrics) => {
                return Ok(SweepOutcome {
                    cell: cell.clone(),
                    metrics,
                    cached: false,
                    elapsed: start.elapsed(),
                });
            }
            Err(kind) => {
                if attempt >= budget {
                    break kind;
                }
                note(Note::Retried {
                    attempt,
                    error: kind.to_string(),
                });
            }
        }
    };
    Err(Box::new(CellFailure {
        cell: cell.clone(),
        error,
        attempts: attempt,
        elapsed: start.elapsed(),
    }))
}

/// Doubling backoff before retry `attempt` (the second try waits 50ms),
/// capped at one second.
fn retry_backoff(attempt: u32) -> Duration {
    Duration::from_millis((50u64 << (attempt.saturating_sub(2)).min(10)).min(1000))
}

/// One fault-isolated execution: `catch_unwind` around the run, with a
/// detached wall-clock watchdog cancelling the engine's [`CancelToken`]
/// when a per-cell timeout is configured. The monitor records that it
/// fired, so only its cancellation becomes [`FailureKind::TimedOut`].
fn run_attempt(cell: &CellSpec, opts: &SweepOptions) -> Result<Metrics, FailureKind> {
    let token = opts.cell_timeout.map(|_| CancelToken::new());
    let monitor_fired = Arc::new(AtomicBool::new(false));
    let armed = opts.cell_timeout.map(|limit| {
        let inner = token.clone().expect("timeout always arms a token");
        let fired = monitor_fired.clone();
        let (disarm, expiry) = mpsc::channel::<()>();
        let monitor = std::thread::spawn(move || {
            // A disarm message (or a dropped sender) ends the wait: the
            // attempt finished on its own.
            if expiry.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
                fired.store(true, Ordering::SeqCst);
                inner.cancel();
            }
        });
        (disarm, monitor)
    });
    let run = RunOptions {
        cancel: token,
        ..RunOptions::default()
    };
    let result = catch_unwind(AssertUnwindSafe(|| match &opts.runner {
        Some(r) => (r.0)(cell, &run),
        None => cell.run_with(&run),
    }));
    if let Some((disarm, monitor)) = armed {
        drop(disarm);
        monitor.join().ok();
    }
    let timed_out = monitor_fired.load(Ordering::SeqCst);
    let limit = opts.cell_timeout.unwrap_or_default();
    match result {
        Ok(Ok(metrics)) => Ok(metrics),
        Ok(Err(SimError::Interrupted { cycle })) if timed_out => {
            Err(FailureKind::TimedOut { limit, cycle })
        }
        Ok(Err(e)) => Err(FailureKind::Sim(e)),
        Err(payload) => Err(FailureKind::Panic(panic_text(payload.as_ref()))),
    }
}

/// Renders a panic payload the way the default hook does.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GpuConfig, TmSystem};
    use workloads::suite::{Benchmark, Scale};

    #[test]
    fn retry_backoff_doubles_and_caps() {
        assert_eq!(retry_backoff(2), Duration::from_millis(50));
        assert_eq!(retry_backoff(3), Duration::from_millis(100));
        assert_eq!(retry_backoff(4), Duration::from_millis(200));
        assert_eq!(retry_backoff(40), Duration::from_millis(1000));
    }

    // --- fault-injection harness -------------------------------------

    fn cells(n: usize) -> Vec<CellSpec> {
        Benchmark::ALL
            .into_iter()
            .take(n)
            .map(|b| CellSpec::new(b, Scale::Fast, TmSystem::Getm, GpuConfig::tiny_test()))
            .collect()
    }

    /// Options with an injected runner; serial so claim order is the
    /// spec order and fail-fast skip counts are deterministic.
    fn injected(
        policy: FailurePolicy,
        f: impl Fn(&CellSpec, &RunOptions) -> Result<Metrics, SimError> + Send + Sync + 'static,
    ) -> SweepOptions {
        let mut o = SweepOptions::new().threads(1).failure_policy(policy);
        o.runner = Some(CellRunner(Arc::new(f)));
        o
    }

    #[test]
    fn a_panicking_cell_is_contained_under_collect_all() {
        let opts = injected(FailurePolicy::CollectAll, |cell, _| {
            if cell.benchmark == Benchmark::HtM {
                panic!("injected fault in {}", cell.label());
            }
            Ok(Metrics::default())
        });
        let report = run_report(&cells(3), &opts); // HtH, HtM, HtL
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.skipped, 0);
        assert!(!report.is_complete());
        let f = &report.failures[0];
        assert_eq!(f.cell.benchmark, Benchmark::HtM);
        assert_eq!(f.attempts, 1);
        assert!(
            matches!(&f.error, FailureKind::Panic(msg) if msg.contains("injected fault")),
            "{:?}",
            f.error
        );
        // Siblings kept their spec order.
        assert_eq!(report.outcomes[0].cell.benchmark, Benchmark::HtH);
        assert_eq!(report.outcomes[1].cell.benchmark, Benchmark::HtL);
    }

    #[test]
    fn fail_fast_stops_claiming_after_the_first_failure() {
        let ran = Arc::new(AtomicUsize::new(0));
        let seen = ran.clone();
        let opts = injected(FailurePolicy::FailFast, move |_, _| {
            seen.fetch_add(1, Ordering::Relaxed);
            Err(SimError::Interrupted { cycle: 1 })
        });
        let report = run_report(&cells(4), &opts);
        assert_eq!(ran.load(Ordering::Relaxed), 1, "one attempt, then stop");
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.skipped, 3);
        assert!(report.outcomes.is_empty());
    }

    #[test]
    fn retry_recovers_a_flaky_cell_and_counts_exhausted_attempts() {
        // Flaky: fails twice, then succeeds.
        let tries = Arc::new(AtomicUsize::new(0));
        let seen = tries.clone();
        let opts = injected(FailurePolicy::Retry { attempts: 3 }, move |_, _| {
            if seen.fetch_add(1, Ordering::Relaxed) < 2 {
                panic!("flaky");
            }
            Ok(Metrics::default())
        });
        let report = run_report(&cells(1), &opts);
        assert!(report.is_complete(), "{:?}", report.failures);
        assert_eq!(tries.load(Ordering::Relaxed), 3);

        // Deterministic failure: exhausts its tries and records them.
        let opts = injected(FailurePolicy::Retry { attempts: 2 }, |_, _| {
            Err(SimError::Interrupted { cycle: 9 })
        });
        let report = run_report(&cells(1), &opts);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].attempts, 2);
        assert!(matches!(
            report.failures[0].error,
            FailureKind::Sim(SimError::Interrupted { cycle: 9 })
        ));
    }

    #[test]
    fn a_hanging_cell_times_out_via_the_cancel_token() {
        let mut opts = injected(FailurePolicy::CollectAll, |_, run| {
            let token = run.cancel.as_ref().expect("timeout must arm a token");
            // A cooperative hang: spins until the watchdog cancels.
            while !token.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(SimError::Interrupted { cycle: 4242 })
        });
        opts.cell_timeout = Some(Duration::from_millis(40));
        let report = run_report(&cells(1), &opts);
        assert_eq!(report.failures.len(), 1);
        assert!(
            matches!(
                report.failures[0].error,
                FailureKind::TimedOut { cycle: 4242, .. }
            ),
            "{:?}",
            report.failures[0].error
        );
    }

    #[test]
    fn invalid_cache_geometry_fails_the_cell_as_sim_not_panic() {
        // No injected runner: the cell really constructs an Engine, whose
        // config validation must turn bad cache geometry into a typed
        // SimError::InvalidConfig — surfaced as FailureKind::Sim — rather
        // than tripping the tag array's internal assertions.
        let mut cfg = GpuConfig::tiny_test();
        cfg.l1.line_bytes = 48; // not a power of two
        let cell = CellSpec::new(Benchmark::HtH, Scale::Fast, TmSystem::Getm, cfg);
        let opts = SweepOptions::new()
            .threads(1)
            .failure_policy(FailurePolicy::CollectAll);
        let report = run_report(&[cell], &opts);
        assert_eq!(report.failures.len(), 1);
        assert!(
            matches!(
                &report.failures[0].error,
                FailureKind::Sim(SimError::InvalidConfig { what, .. }) if what.contains("l1")
            ),
            "{:?}",
            report.failures[0].error
        );
    }

    /// One thread that issues `op` (inside a transaction if it is a
    /// transactional access) over `initial` memory.
    struct OneOp {
        initial: Vec<(gpu_mem::Addr, u64)>,
        op: gpu_simt::Op,
    }

    impl workloads::Workload for OneOp {
        fn name(&self) -> &str {
            "ONE-OP"
        }

        fn initial_memory(&self) -> Vec<(gpu_mem::Addr, u64)> {
            self.initial.clone()
        }

        fn thread_count(&self) -> usize {
            1
        }

        fn program(&self, _tid: usize, _mode: workloads::SyncMode) -> gpu_simt::BoxedProgram {
            use gpu_simt::Op;
            let ops = if self.op.is_tx_access() {
                vec![Op::TxBegin, self.op, Op::TxCommit]
            } else {
                vec![self.op]
            };
            Box::new(gpu_simt::program::ScriptProgram::new(ops))
        }

        fn check(&self, _mem: &dyn Fn(gpu_mem::Addr) -> u64) -> Result<(), String> {
            Ok(())
        }
    }

    /// Each misaligned case: an initial word at `0x1004`, then every
    /// memory op naming `0x1004` over an aligned initial word.
    fn misaligned_cases() -> Vec<OneOp> {
        use gpu_mem::Addr;
        use gpu_simt::Op;
        let (good, bad) = (Addr(0x1000), Addr(0x1004));
        let mut cases = vec![OneOp {
            initial: vec![(bad, 1)],
            op: Op::TxLoad(good),
        }];
        for op in [
            Op::TxLoad(bad),
            Op::TxStore(bad, 2),
            Op::Load(bad),
            Op::Store(bad, 2),
            Op::AtomicCas {
                addr: bad,
                expect: 1,
                new: 2,
            },
            Op::AtomicAdd {
                addr: bad,
                delta: 1,
            },
        ] {
            cases.push(OneOp {
                initial: vec![(good, 1)],
                op,
            });
        }
        cases
    }

    #[test]
    fn misaligned_addresses_fail_typed_under_getm_and_warptm() {
        let cfg = GpuConfig::tiny_test();
        for w in misaligned_cases() {
            for system in [TmSystem::Getm, TmSystem::WarpTmLL] {
                let err = crate::runner::Sim::new(&cfg)
                    .system(system)
                    .run(&w)
                    .expect_err("a misaligned word must not run");
                assert!(
                    matches!(err, SimError::MisalignedAddress { addr: 0x1004, .. }),
                    "{system} {:?}: {err:?}",
                    w.op
                );
            }
        }
        // The aligned control runs.
        let ok = OneOp {
            initial: vec![(gpu_mem::Addr(0x1000), 1)],
            op: gpu_simt::Op::TxLoad(gpu_mem::Addr(0x1008)),
        };
        crate::runner::Sim::new(&cfg)
            .system(TmSystem::Getm)
            .run(&ok)
            .expect("aligned run")
            .assert_correct();
    }

    #[test]
    fn a_misaligned_cell_fails_as_sim() {
        // The injected runner executes a real engine on the misaligned
        // workload, so the failure travels the executor's normal path.
        for (i, case) in misaligned_cases().into_iter().enumerate() {
            let case = Arc::new(case);
            let opts = injected(FailurePolicy::CollectAll, move |cell, run| {
                let out = crate::runner::Sim::new(&cell.cfg)
                    .system(cell.system)
                    .run_with(case.as_ref(), run)?;
                Ok(out.metrics.expect("unverified runs carry metrics"))
            });
            let report = run_report(&cells(1), &opts);
            assert_eq!(report.failures.len(), 1, "case {i}");
            assert!(
                matches!(
                    report.failures[0].error,
                    FailureKind::Sim(SimError::MisalignedAddress { addr: 0x1004, .. })
                ),
                "case {i}: {:?}",
                report.failures[0].error
            );
        }
    }

    /// An injected cell that computes instantly, with metrics that name
    /// its benchmark.
    fn computes(cell: &CellSpec, _: &RunOptions) -> Result<Metrics, SimError> {
        Ok(Metrics {
            cycles: 100 + cell.benchmark as u64,
            ..Metrics::default()
        })
    }

    /// An injected cell that panics: only the cache can produce results.
    fn must_hit(cell: &CellSpec, _: &RunOptions) -> Result<Metrics, SimError> {
        panic!("{} must be served from the cache", cell.label())
    }

    #[test]
    fn a_fully_warm_sweep_is_served_from_the_cache_alone() {
        use crate::sweep::ResultCache;
        use crate::telemetry::{CampaignEvent, MemorySink, Telemetry};
        let dir = std::env::temp_dir().join(format!("getm-exec-warm-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cells = cells(6);
        let cold = injected(FailurePolicy::CollectAll, computes)
            .threads(2)
            .cache(ResultCache::new(&dir));
        let first = run_report(&cells, &cold);
        assert!(first.is_complete());
        assert!(first.outcomes.iter().all(|o| !o.cached));

        let (sink, captured) = MemorySink::new();
        let warm = injected(FailurePolicy::FailFast, must_hit)
            .threads(2)
            .cache(ResultCache::new(&dir))
            .telemetry(Telemetry::to_sinks(vec![Box::new(sink)]));
        let report = run_report(&cells, &warm);
        assert!(report.is_complete(), "{:?}", report.failures);
        assert!(report.outcomes.iter().all(|o| o.cached));
        for (a, b) in first.outcomes.iter().zip(&report.outcomes) {
            assert_eq!(a.metrics, b.metrics, "{}", a.cell.label());
        }
        let hits: Vec<usize> = captured
            .lock()
            .unwrap()
            .iter()
            .filter_map(|(_, e)| match e {
                CampaignEvent::CellCacheHit { idx, .. } => Some(*idx),
                _ => None,
            })
            .collect();
        assert_eq!(hits, (0..cells.len()).collect::<Vec<_>>(), "spec order");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_complete_warm_rerun_removes_a_crashed_campaigns_journal() {
        use crate::sweep::{sweep_digest, ResultCache};
        use crate::telemetry::{CampaignEvent, MemorySink, Telemetry};
        let dir = std::env::temp_dir().join(format!("getm-exec-stale-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cells = cells(4);
        let cache = ResultCache::new(&dir);
        let cold = injected(FailurePolicy::CollectAll, computes).cache(cache.clone());
        let first = run_report(&cells, &cold);
        assert!(first.is_complete());

        // A crashed campaign over the same cells: its journal names two
        // cells, and its lock is stamped with a pid that cannot be alive.
        let digest = sweep_digest(&cells);
        let journal = dir.join(format!("sweep-{digest}.journal"));
        let lock = dir.join(format!("sweep-{digest}.journal.lock"));
        let plant = || {
            let lines: Vec<String> = [0, 2].iter().map(|&i| cells[i].cache_key()).collect();
            let text = format!("getm-sweep-journal-v1 {digest}\n{}\n", lines.join("\n"));
            std::fs::write(&journal, text).unwrap();
            std::fs::write(&lock, format!("{}\n", u32::MAX)).unwrap();
        };
        let warm = |resume: bool| {
            let (sink, captured) = MemorySink::new();
            let opts = injected(FailurePolicy::FailFast, must_hit)
                .cache(cache.clone())
                .resume(resume)
                .telemetry(Telemetry::to_sinks(vec![Box::new(sink)]));
            let report = run_report(&cells, &opts);
            let events: Vec<CampaignEvent> =
                captured.lock().unwrap().drain(..).map(|e| e.1).collect();
            (report, events)
        };
        let resumed = |events: &[CampaignEvent]| match events[0] {
            CampaignEvent::CampaignStarted { resumed, .. } => resumed,
            ref other => panic!("first event {other:?}"),
        };

        plant();
        let (report, events) = warm(false);
        assert!(report.is_complete());
        assert!(report.outcomes.iter().all(|o| o.cached));
        assert_eq!(resumed(&events), 0);
        assert!(!journal.exists() && !lock.exists(), "stale journal removed");

        plant();
        let (report, events) = warm(true);
        assert!(report.is_complete());
        assert_eq!(resumed(&events), 2, "the planted lines");
        for (a, b) in first.outcomes.iter().zip(&report.outcomes) {
            assert!(b.cached);
            assert_eq!(a.metrics, b.metrics, "{}", a.cell.label());
        }
        assert!(
            !journal.exists() && !lock.exists(),
            "resumed journal removed"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_fast_cell_never_sees_its_timeout() {
        let mut opts = injected(FailurePolicy::CollectAll, |_, _| Ok(Metrics::default()));
        opts.cell_timeout = Some(Duration::from_secs(3600));
        let report = run_report(&cells(2), &opts);
        assert!(report.is_complete());
    }
}
