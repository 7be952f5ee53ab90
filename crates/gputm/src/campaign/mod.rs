//! Distributed sweep campaigns: one coordinator, N disposable workers.
//!
//! A *campaign* runs the same experiment grid a [`crate::sweep`] does,
//! but spread across worker **processes** that rendezvous with a
//! coordinator over a Unix domain socket. The design goal is that a
//! campaign is indistinguishable from a single-process sweep in its
//! outputs — same [`SweepReport`](crate::sweep::SweepReport), same
//! stdout bytes, same telemetry invariants — while any subset of the
//! fleet (workers *or* the coordinator itself) can be SIGKILLed and the
//! campaign still converges:
//!
//! * **Results never cross the socket.** Workers store metrics into the
//!   shared content-addressed [`ResultCache`](crate::sweep::ResultCache)
//!   and send only a verdict; the coordinator loads the bytes by cache
//!   key. Two workers racing on one cell write identical content under
//!   the cache's atomic temp-file+rename discipline, so the race is
//!   logged and harmless.
//! * **Work moves under time-bounded leases.** A lease dies with its
//!   worker (socket EOF), with its heartbeats (three missed intervals),
//!   or at a hard wall-clock deadline — whichever comes first — and its
//!   cells are reassigned, up to a reassignment cap per cell.
//! * **The coordinator keeps the same books as a single-process sweep.**
//!   Both front ends record results in one shared ledger
//!   (`crate::sweep::ledger`), whose fsynced append-only journal (guarded
//!   by a pid-stamped lock file) records each completed cell, so a
//!   SIGKILLed coordinator restarted with `resume` recalls finished
//!   cells from the cache and hands out only the remainder. Both hand out
//!   unfinished cells in spec order; only the transport differs: leases
//!   over a socket here, threads on a shared cursor in-process.
//! * **A cell runs, and retries, the same way everywhere.** Workers run
//!   each leased cell through the in-process executor's own cell path,
//!   retries under the sweep's failure policy included, and report each
//!   attempt's start and retry as protocol lines. The coordinator's
//!   ledger turns those into telemetry next to the terminal event it
//!   emits exactly once per cell, no matter how many workers touched it.
//!
//! The module is Unix-only (`#[cfg(unix)]` at the crate root): the wire
//! is a `UnixListener`/`UnixStream` pair and liveness detection leans on
//! Unix process semantics.

mod coordinator;
mod protocol;
mod worker;

pub use coordinator::coordinate;
pub use protocol::PROTOCOL_VERSION;
pub use worker::work;

use std::path::PathBuf;
use std::time::Duration;

/// Coordinator-side knobs for a distributed campaign.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Rendezvous point: the Unix socket the coordinator binds and
    /// workers connect to. A stale file from a killed predecessor is
    /// unlinked before binding.
    pub socket: PathBuf,
    /// Heartbeat interval advertised to workers; a lease with no ping
    /// for three intervals is considered lost. Default 2s.
    pub heartbeat: Duration,
    /// Hard wall-clock bound on a single lease, heartbeats or not — the
    /// backstop against a worker that is alive but wedged inside a cell.
    /// It covers every attempt the worker makes under the lease, so under
    /// a retry policy set it above the attempts times the slowest expected
    /// cell, plus backoff. Default 120s.
    pub lease_timeout: Duration,
    /// Cells granted per lease. Default 1 — maximal reassignment
    /// granularity; raise it to amortize round-trips on tiny cells.
    pub chunk: usize,
    /// How many times one cell may be reassigned after worker losses
    /// before it is failed terminally (kind `worker`). Default 5.
    pub max_deaths: u32,
    /// Worker count reported in the `campaign_started` telemetry event;
    /// purely informational (workers join dynamically).
    pub workers_hint: usize,
}

impl CampaignOptions {
    /// Options with defaults, rendezvousing at `socket`.
    pub fn at(socket: impl Into<PathBuf>) -> Self {
        CampaignOptions {
            socket: socket.into(),
            heartbeat: Duration::from_secs(2),
            lease_timeout: Duration::from_secs(120),
            chunk: 1,
            max_deaths: 5,
            workers_hint: 0,
        }
    }

    /// Sets the heartbeat interval (floored at 100ms).
    #[must_use]
    pub fn heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat = interval.max(Duration::from_millis(100));
        self
    }

    /// Sets the hard per-lease deadline.
    #[must_use]
    pub fn lease_timeout(mut self, limit: Duration) -> Self {
        self.lease_timeout = limit;
        self
    }

    /// Sets the cells-per-lease grant size (floored at 1).
    #[must_use]
    pub fn chunk(mut self, cells: usize) -> Self {
        self.chunk = cells.max(1);
        self
    }

    /// Sets the per-cell reassignment cap.
    #[must_use]
    pub fn max_deaths(mut self, cap: u32) -> Self {
        self.max_deaths = cap;
        self
    }

    /// Records how many workers the launcher intends to run.
    #[must_use]
    pub fn workers_hint(mut self, n: usize) -> Self {
        self.workers_hint = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::protocol::{ToCoordinator, ToWorker, PROTOCOL_VERSION};
    use super::*;
    use crate::config::{GpuConfig, TmSystem};
    use crate::runner::RunOptions;
    use crate::sweep::{
        run_sweep_report, sweep_digest, CellSpec, ExperimentSpec, FailurePolicy, ResultCache,
        SweepOptions,
    };
    use crate::telemetry::{CampaignEvent, MemorySink, Telemetry};
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;
    use workloads::suite::{Benchmark, Scale};

    fn grid() -> ExperimentSpec {
        ExperimentSpec::grid()
            .benchmarks([Benchmark::Atm, Benchmark::HtL])
            .systems([TmSystem::Getm])
            .scale(Scale::Fast)
            .base(GpuConfig::tiny_test())
            .build()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("getm-campaign-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Spawns `n` in-process workers against `socket` and runs the
    /// coordinator on this thread.
    fn run_campaign(
        cells: &[CellSpec],
        opts: &SweepOptions,
        cfg: &CampaignOptions,
        n: usize,
    ) -> crate::sweep::SweepReport {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let cells = cells.to_vec();
                let opts = opts.clone();
                let socket = cfg.socket.clone();
                std::thread::spawn(move || work(&cells, &opts, &socket))
            })
            .collect();
        let report = coordinate(cells, opts, cfg).expect("coordinate");
        for h in handles {
            h.join().expect("worker thread").expect("worker result");
        }
        report
    }

    #[test]
    fn two_workers_match_a_serial_sweep_cell_for_cell() {
        let dir = tmp("basic");
        let spec = grid();
        let cells = spec.cells();
        let opts = SweepOptions::new()
            .cache(ResultCache::new(dir.join("cache")))
            .threads(1);
        let cfg = CampaignOptions::at(dir.join("sock")).workers_hint(2);
        let report = run_campaign(cells, &opts, &cfg, 2);
        assert!(report.is_complete(), "failures: {:?}", report.failures);
        assert_eq!(report.outcomes.len(), cells.len());

        // A fresh serial sweep of the same grid must agree metric-for-metric.
        let serial_opts = SweepOptions::new()
            .cache(ResultCache::new(dir.join("serial-cache")))
            .threads(1);
        let serial = run_sweep_report(&spec, &serial_opts);
        for (a, b) in report.outcomes.iter().zip(serial.outcomes.iter()) {
            assert_eq!(a.cell.label(), b.cell.label());
            assert_eq!(a.metrics.commits, b.metrics.commits);
            assert_eq!(a.metrics.aborts, b.metrics.aborts);
            assert_eq!(a.metrics.cycles, b.metrics.cycles);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_telemetry_has_exactly_one_terminal_event_per_cell() {
        let dir = tmp("telemetry");
        let spec = grid();
        let cells = spec.cells();
        let (sink, captured) = MemorySink::new();
        let opts = SweepOptions::new()
            .cache(ResultCache::new(dir.join("cache")))
            .threads(1)
            .telemetry(Telemetry::to_sinks(vec![Box::new(sink)]));
        let cfg = CampaignOptions::at(dir.join("sock")).workers_hint(2);
        let report = run_campaign(cells, &opts, &cfg, 2);
        assert!(report.is_complete());

        let events = captured.lock().unwrap();
        for idx in 0..cells.len() {
            let terminals = events
                .iter()
                .filter(|(_, e)| e.is_terminal() && e.cell_idx() == Some(idx))
                .count();
            assert_eq!(terminals, 1, "cell {idx} should have exactly one terminal");
        }
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e, CampaignEvent::CampaignFinished { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A raw socket client that takes a lease and goes silent: the lease
    /// must expire after three missed heartbeats and its cell complete on
    /// a real worker. The hung client also sends a torn line — what a
    /// SIGKILLed worker leaves — which parses as an unknown verb and must
    /// be dropped without disturbing the stream.
    #[test]
    fn hung_worker_lease_expires_and_cell_is_reassigned() {
        let dir = tmp("hung");
        let spec = grid();
        let cells = spec.cells();
        let digest = sweep_digest(cells);
        let opts = SweepOptions::new()
            .cache(ResultCache::new(dir.join("cache")))
            .threads(1);
        let cfg = CampaignOptions::at(dir.join("sock"))
            .heartbeat(Duration::from_millis(150))
            .workers_hint(1);

        let socket = cfg.socket.clone();
        let hang = std::thread::spawn(move || {
            let mut stream = loop {
                match UnixStream::connect(&socket) {
                    Ok(s) => break s,
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            };
            let hello = ToCoordinator::Hello {
                version: PROTOCOL_VERSION.to_string(),
                digest,
                pid: 0,
            };
            writeln!(stream, "{}", hello.encode()).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(matches!(
                ToWorker::parse(line.trim_end()),
                Some(ToWorker::Welcome { .. })
            ));
            writeln!(stream, "{}", ToCoordinator::Want { n: 1 }.encode()).unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            // Wait replies mean a real worker beat us to every cell;
            // leases land as `lease <id> <cells>`.
            if let Some(ToWorker::Lease { .. }) = ToWorker::parse(line.trim_end()) {
                // Send a torn line, then never ping again.
                writeln!(stream, "sta").unwrap();
            }
            // Hold the connection open so EOF detection cannot fire; the
            // expiry path must do the work.
            std::thread::sleep(Duration::from_secs(4));
        });

        let report = run_campaign(cells, &opts, &cfg, 1);
        hang.join().unwrap();
        assert!(report.is_complete(), "failures: {:?}", report.failures);
        assert_eq!(report.outcomes.len(), cells.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The worker retries a failing cell itself, under the sweep's own
    /// policy: a flaky injected runner fails twice, then succeeds, and the
    /// coordinator's telemetry shows each attempt of the one lease.
    #[test]
    fn worker_retries_failures_under_the_sweep_policy() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;

        let dir = tmp("retry");
        let spec = grid();
        let cells = spec.cells();
        let calls = Arc::new(AtomicU32::new(0));
        let calls_in_runner = calls.clone();
        let (sink, captured) = MemorySink::new();
        let opts = SweepOptions::new()
            .cache(ResultCache::new(dir.join("cache")))
            .threads(1)
            .failure_policy(FailurePolicy::Retry { attempts: 3 })
            .telemetry(Telemetry::to_sinks(vec![Box::new(sink)]));
        let mut worker_opts = opts.clone();
        worker_opts.runner = Some(crate::sweep::exec::CellRunner(Arc::new(
            move |cell: &CellSpec, run: &RunOptions| {
                // The flaky target's first two executions fail;
                // determinism of the final report is preserved because the
                // cache stores only the eventual success.
                if cell.benchmark == Benchmark::Atm
                    && calls_in_runner.fetch_add(1, Ordering::SeqCst) < 2
                {
                    return Err(sim_core::SimError::ResourceExhausted {
                        what: "injected flake",
                    });
                }
                cell.run_with(run)
            },
        )));
        let cfg = CampaignOptions::at(dir.join("sock")).workers_hint(1);

        let worker_cells = cells.to_vec();
        let socket = cfg.socket.clone();
        let handle = std::thread::spawn(move || work(&worker_cells, &worker_opts, &socket));
        let report = coordinate(cells, &opts, &cfg).expect("coordinate");
        handle.join().unwrap().unwrap();

        assert!(report.is_complete(), "failures: {:?}", report.failures);
        assert_eq!(calls.load(Ordering::SeqCst), 3, "two failures, one success");

        // ATM is cell 0: three starts, two retries, then its one terminal.
        let events: Vec<CampaignEvent> = captured.lock().unwrap().drain(..).map(|e| e.1).collect();
        let of_atm: Vec<String> = events
            .iter()
            .filter(|e| e.cell_idx() == Some(0) && !matches!(e, CampaignEvent::CellQueued { .. }))
            .map(|e| match e {
                CampaignEvent::CellStarted { attempt, .. } => format!("start {attempt}"),
                CampaignEvent::CellRetried { attempt, .. } => format!("retry {attempt}"),
                other => other.kind().to_string(),
            })
            .collect();
        assert_eq!(
            of_atm.join(", "),
            "start 1, retry 1, start 2, retry 2, start 3, cell_finished"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn coordinator_without_cache_is_refused() {
        let dir = tmp("nocache");
        let spec = grid();
        let cfg = CampaignOptions::at(dir.join("sock"));
        let err = coordinate(spec.cells(), &SweepOptions::new(), &cfg).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(&dir).ok();
    }
}
