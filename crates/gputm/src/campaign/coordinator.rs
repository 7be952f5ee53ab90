//! The campaign coordinator: lease scheduling, failure detection, and
//! the single source of truth for the final report.
//!
//! The coordinator keeps its books in the same [`Ledger`] the
//! single-process executor uses — per-cell slots in spec order, the
//! fsynced sweep journal, terminal telemetry — and adds only the lease
//! table that makes worker processes disposable. Detection duties are
//! split three ways:
//!
//! * **process exit** — the worker's socket EOFs; its leases requeue
//!   immediately.
//! * **hung worker** — no `ping` for three heartbeat intervals; the lease
//!   expires, a best-effort `revoke` is sent, the cells requeue.
//! * **runaway lease** — a hard per-lease wall-clock deadline bounds even
//!   a worker that heartbeats forever without finishing; same recovery.
//!
//! Reassignment is counted separately from the [`FailurePolicy`] retry
//! budget: a worker dying is the harness's failure, not the cell's. Only
//! after [`CampaignOptions::max_deaths`] reassignments does a cell fail
//! terminally (as [`FailureKind::Remote`] with kind `worker`).
//!
//! Determinism: workers transport results through the content-addressed
//! [`ResultCache`], so whichever worker finishes a cell — or if two race
//! on the same digest — the coordinator loads identical bytes and the
//! final [`SweepReport`] (and stdout rendered from it) is byte-identical
//! to a single-process `sweep` of the same grid.
//!
//! [`ResultCache`]: crate::sweep::ResultCache

use super::protocol::{
    Framed, LineReader, ToCoordinator, ToWorker, POLL_INTERVAL, PROTOCOL_VERSION,
};
use super::CampaignOptions;
use crate::sweep::exec;
use crate::sweep::ledger::Ledger;
use crate::sweep::{
    sweep_digest, CellFailure, CellSpec, FailureKind, FailurePolicy, SweepOptions, SweepOutcome,
    SweepReport,
};
use crate::telemetry::{intern_failure_kind, CampaignEvent};
use std::collections::HashMap;
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Socket-side events funneled into the coordinator's single event loop.
enum Msg {
    /// A connection was accepted; the stream is the writer half.
    Connected(u64, UnixStream),
    /// One complete line from a connection.
    Line(u64, String),
    /// The connection is gone.
    Eof(u64),
}

/// One outstanding lease.
struct Lease {
    conn: u64,
    cells: Vec<usize>,
    /// Liveness horizon: renewed by grant and by every `ping`.
    expires: Instant,
    /// Hard wall-clock bound, fixed at grant time.
    deadline: Instant,
}

/// Per-cell campaign bookkeeping beside the result slot.
#[derive(Clone)]
struct CellTrack {
    /// Policy attempts consumed (worker-reported failures).
    attempts: u32,
    /// Times the cell was requeued because its worker was lost.
    deaths: u32,
    /// Retry backoff horizon; the cell is not grantable before this.
    not_before: Instant,
    /// Whether some live lease currently covers the cell.
    leased: bool,
    /// When the cell was first granted (for failure elapsed accounting).
    first_grant: Option<Instant>,
}

struct Coordinator<'a> {
    cells: &'a [CellSpec],
    opts: &'a SweepOptions,
    cfg: &'a CampaignOptions,
    digest: String,
    ledger: Ledger<'a>,
    /// Writer halves; readers live on their own threads.
    conns: HashMap<u64, UnixStream>,
    /// Connections that completed the `hello` handshake, by worker pid.
    ready: HashMap<u64, u32>,
    leases: HashMap<u64, Lease>,
    track: Vec<CellTrack>,
    /// Fail-fast tripped: no further grants, pending cells become skipped.
    stopped: bool,
    next_lease: u64,
}

/// Runs a distributed campaign over `cells` as its coordinator: binds
/// `cfg.socket`, grants leases to connecting workers, detects and
/// reassigns lost work, and returns the same [`SweepReport`] a
/// single-process [`crate::sweep::run_sweep_report`] of the grid would.
///
/// The coordinator's durable state is the same fsynced
/// [`crate::sweep::SweepJournal`] the single-process executor writes: a
/// SIGKILLed coordinator restarted with [`SweepOptions::resume`] recalls
/// completed cells from the cache and re-runs only the rest,
/// byte-identically.
///
/// # Errors
///
/// Socket setup failures, and [`std::io::ErrorKind::InvalidInput`] when
/// `opts` carries no result cache — the cache is the result transport, a
/// campaign cannot run without it.
pub fn coordinate(
    cells: &[CellSpec],
    opts: &SweepOptions,
    cfg: &CampaignOptions,
) -> std::io::Result<SweepReport> {
    if opts.result_cache.is_none() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "distributed campaign needs the result cache (results travel through it)",
        ));
    }
    let total = cells.len();
    if total == 0 {
        return Ok(SweepReport::default());
    }

    // A SIGKILLed predecessor leaves both a stale socket file and a stale
    // journal lock; unlink the one, let LockFile's dead-pid takeover
    // handle the other.
    std::fs::remove_file(&cfg.socket).ok();
    if let Some(parent) = cfg.socket.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let listener = UnixListener::bind(&cfg.socket)?;
    listener.set_nonblocking(true)?;

    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<Msg>();
    let accept = {
        let stop = stop.clone();
        let tx = tx.clone();
        std::thread::spawn(move || accept_loop(&listener, &tx, &stop))
    };

    let now = Instant::now();
    let mut c = Coordinator {
        cells,
        opts,
        cfg,
        digest: sweep_digest(cells),
        ledger: Ledger::open(cells, opts, cfg.workers_hint),
        conns: HashMap::new(),
        ready: HashMap::new(),
        leases: HashMap::new(),
        track: vec![
            CellTrack {
                attempts: 0,
                deaths: 0,
                not_before: now,
                leased: false,
                first_grant: None,
            };
            total
        ],
        stopped: false,
        next_lease: 1,
    };

    while !c.finished() {
        match rx.recv_timeout(POLL_INTERVAL) {
            Ok(Msg::Connected(id, writer)) => {
                c.conns.insert(id, writer);
            }
            Ok(Msg::Line(id, line)) => c.handle_line(id, &line),
            Ok(Msg::Eof(id)) => c.handle_eof(id),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        c.tick();
    }

    // Teardown: tell every worker the campaign is over, stop the socket
    // threads, and remove the rendezvous point.
    c.broadcast(&ToWorker::Done);
    stop.store(true, Ordering::SeqCst);
    accept.join().ok();
    std::fs::remove_file(&cfg.socket).ok();
    Ok(c.ledger.into_report())
}

/// Accepts connections until `stop`, spawning one reader thread per
/// connection; all traffic funnels into `tx`.
fn accept_loop(listener: &UnixListener, tx: &mpsc::Sender<Msg>, stop: &Arc<AtomicBool>) {
    let mut next_id = 1u64;
    let mut readers = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let id = next_id;
                next_id += 1;
                if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
                    continue;
                }
                let writer = match stream.try_clone() {
                    Ok(w) => w,
                    Err(_) => continue,
                };
                if tx.send(Msg::Connected(id, writer)).is_err() {
                    return;
                }
                let tx = tx.clone();
                let stop = stop.clone();
                readers.push(std::thread::spawn(move || {
                    let mut reader = LineReader::new(stream);
                    loop {
                        match reader.next_line() {
                            Framed::Line(line) => {
                                if tx.send(Msg::Line(id, line)).is_err() {
                                    return;
                                }
                            }
                            Framed::Idle => {
                                if stop.load(Ordering::SeqCst) {
                                    return;
                                }
                            }
                            Framed::Eof => {
                                tx.send(Msg::Eof(id)).ok();
                                return;
                            }
                        }
                    }
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => break,
        }
    }
    for r in readers {
        r.join().ok();
    }
}

impl Coordinator<'_> {
    fn total(&self) -> usize {
        self.cells.len()
    }

    /// All cells terminal, or fail-fast stopped with no lease left to
    /// drain.
    fn finished(&self) -> bool {
        self.ledger.all_filled() || (self.stopped && self.leases.is_empty())
    }

    fn send_to(&mut self, conn: u64, msg: &ToWorker) {
        if let Some(stream) = self.conns.get(&conn) {
            let mut s = stream;
            if writeln!(s, "{}", msg.encode()).is_err() {
                // The reader thread will surface the EOF; nothing to do.
            }
        }
    }

    fn broadcast(&mut self, msg: &ToWorker) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.send_to(id, msg);
        }
    }

    fn handle_line(&mut self, conn: u64, line: &str) {
        let Some(msg) = ToCoordinator::parse(line) else {
            eprintln!("campaign: dropping malformed line from worker connection {conn}: {line:?}");
            return;
        };
        match msg {
            ToCoordinator::Hello {
                version,
                digest,
                pid,
            } => self.on_hello(conn, &version, &digest, pid),
            ToCoordinator::Want { n } => self.on_want(conn, n),
            ToCoordinator::Ping { lease } => {
                let horizon = Instant::now() + 3 * self.cfg.heartbeat;
                if let Some(l) = self.leases.get_mut(&lease) {
                    l.expires = horizon;
                }
            }
            ToCoordinator::Finished {
                lease,
                idx,
                cached,
                elapsed_ms,
            } => self.on_finished(lease, idx, cached, elapsed_ms),
            ToCoordinator::Failed {
                lease,
                idx,
                kind,
                attempts,
                error,
            } => self.on_failed(lease, idx, &kind, attempts, error),
            ToCoordinator::Event { json } => self.on_event(&json),
            ToCoordinator::Bye => self.handle_eof(conn),
        }
    }

    fn on_hello(&mut self, conn: u64, version: &str, digest: &str, pid: u32) {
        if version != PROTOCOL_VERSION {
            let reason = format!("protocol mismatch: coordinator speaks {PROTOCOL_VERSION}");
            self.send_to(conn, &ToWorker::Reject { reason });
            return;
        }
        if digest != self.digest {
            // A different digest is a different campaign: the worker was
            // started with a different grid and its results would be
            // nonsense here.
            let reason = format!("grid digest mismatch: campaign is {}", self.digest);
            self.send_to(conn, &ToWorker::Reject { reason });
            return;
        }
        self.ready.insert(conn, pid);
        if self.opts.progress {
            eprintln!("campaign: worker pid {pid} joined");
        }
        let msg = ToWorker::Welcome {
            heartbeat_ms: self.cfg.heartbeat.as_millis() as u64,
            lease_ms: self.cfg.lease_timeout.as_millis() as u64,
        };
        self.send_to(conn, &msg);
    }

    fn on_want(&mut self, conn: u64, n: usize) {
        if !self.ready.contains_key(&conn) {
            return; // no lease before a successful handshake
        }
        if self.stopped {
            self.send_to(conn, &ToWorker::Done);
            return;
        }
        let now = Instant::now();
        let grant: Vec<usize> = (0..self.total())
            .filter(|&i| {
                !self.ledger.is_filled(i)
                    && !self.track[i].leased
                    && now >= self.track[i].not_before
            })
            .take(n.clamp(1, self.cfg.chunk.max(1)))
            .collect();
        if grant.is_empty() {
            let reply = if self.ledger.all_filled() {
                ToWorker::Done
            } else {
                // Cells exist but are leased elsewhere or backing off.
                ToWorker::Wait
            };
            self.send_to(conn, &reply);
            return;
        }
        let lease = self.next_lease;
        self.next_lease += 1;
        for &i in &grant {
            self.track[i].leased = true;
            self.track[i].first_grant.get_or_insert(now);
        }
        self.leases.insert(
            lease,
            Lease {
                conn,
                cells: grant.clone(),
                expires: now + 3 * self.cfg.heartbeat,
                deadline: now + self.cfg.lease_timeout,
            },
        );
        self.send_to(
            conn,
            &ToWorker::Lease {
                lease,
                cells: grant,
            },
        );
    }

    /// Removes `idx` from `lease`'s cell set (if that lease still exists
    /// and covers it), dropping the lease when it empties.
    fn release(&mut self, lease: u64, idx: usize) {
        if let Some(l) = self.leases.get_mut(&lease) {
            if let Some(pos) = l.cells.iter().position(|&i| i == idx) {
                l.cells.swap_remove(pos);
                self.track[idx].leased = false;
                if l.cells.is_empty() {
                    self.leases.remove(&lease);
                }
            }
        }
    }

    fn on_finished(&mut self, lease: u64, idx: usize, cached: bool, elapsed_ms: u64) {
        if idx >= self.total() {
            return;
        }
        self.release(lease, idx);
        let label = self.cells[idx].label();
        if self.ledger.is_filled(idx) {
            // Two workers raced on one digest (a revoked lease's worker
            // finished late). The cache is content-addressed, so both
            // wrote identical bytes: logged, not fatal.
            eprintln!("campaign: duplicate result for {label} ignored (reassigned worker raced)");
            return;
        }
        let key = self.cells[idx].cache_key();
        let cache = self.opts.result_cache.as_ref().expect("campaign has cache");
        let Some(metrics) = cache.load(&key) else {
            // The worker said "done" but the cache has no (valid) entry —
            // a torn store would have been renamed away. Requeue, bounded
            // by the death counter so a lying worker cannot loop forever.
            eprintln!("campaign: {label} reported complete but cache entry {key} is missing");
            self.requeue_or_bury(idx, "result missing from shared cache");
            return;
        };
        let outcome = SweepOutcome {
            cell: self.cells[idx].clone(),
            metrics,
            cached,
            elapsed: Duration::from_millis(elapsed_ms),
        };
        self.ledger.record(idx, Ok(outcome));
    }

    fn on_failed(&mut self, lease: u64, idx: usize, kind: &str, attempts: u32, error: String) {
        if idx >= self.total() {
            return;
        }
        let Some(kind) = intern_failure_kind(kind) else {
            eprintln!("campaign: dropping failure report with unknown kind {kind:?}");
            return;
        };
        self.release(lease, idx);
        let label = self.cells[idx].label();
        if self.ledger.is_filled(idx) {
            eprintln!("campaign: duplicate failure for {label} ignored");
            return;
        }
        self.track[idx].attempts += attempts.max(1);
        let spent = self.track[idx].attempts;
        if spent < self.opts.failure_policy.attempts() {
            // Same backoff curve as the single-process executor, applied
            // as a not-before horizon instead of a worker-side sleep.
            self.track[idx].not_before = Instant::now() + exec::retry_backoff(spent + 1);
            let err = error.clone();
            self.opts.telemetry.emit(|| CampaignEvent::CellRetried {
                idx,
                label,
                attempt: spent,
                error: err,
            });
            return;
        }
        let failure = CellFailure {
            cell: self.cells[idx].clone(),
            error: FailureKind::Remote {
                kind,
                detail: error,
            },
            attempts: spent,
            elapsed: self.track[idx]
                .first_grant
                .map_or(Duration::ZERO, |t| t.elapsed()),
        };
        self.ledger.record(idx, Err(failure));
        if self.opts.failure_policy == FailurePolicy::FailFast && !self.stopped {
            self.stop_campaign();
        }
    }

    /// Fail-fast trip: revoke everything in flight and grant nothing
    /// more; unfinished cells become the report's skipped count.
    fn stop_campaign(&mut self) {
        self.stopped = true;
        let leases: Vec<(u64, u64)> = self.leases.iter().map(|(&id, l)| (id, l.conn)).collect();
        for (lease, conn) in leases {
            self.send_to(conn, &ToWorker::Revoke { lease });
        }
        for l in self.leases.values() {
            for &i in &l.cells {
                self.track[i].leased = false;
            }
        }
        self.leases.clear();
        self.broadcast(&ToWorker::Shutdown);
    }

    /// Worker-side telemetry passthrough: non-terminal per-cell events
    /// re-emit into the coordinator's sinks (re-stamped on its clock);
    /// terminal events are suppressed — the coordinator emits those
    /// itself, exactly once per cell, however many workers touched it.
    fn on_event(&mut self, json: &str) {
        match CampaignEvent::parse_json(json) {
            Some((
                _,
                ev @ (CampaignEvent::CellStarted { .. } | CampaignEvent::CellRetried { .. }),
            )) => {
                self.opts.telemetry.emit(|| ev);
            }
            Some(_) => {}
            None => {
                eprintln!("campaign: dropping torn telemetry line from worker: {json:?}");
            }
        }
    }

    fn handle_eof(&mut self, conn: u64) {
        self.conns.remove(&conn);
        let pid = self.ready.remove(&conn);
        let orphaned: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, l)| l.conn == conn)
            .map(|(&id, _)| id)
            .collect();
        if !orphaned.is_empty() {
            let who = pid.map_or_else(|| format!("connection {conn}"), |p| format!("pid {p}"));
            eprintln!("campaign: worker {who} disconnected mid-lease");
        }
        for lease in orphaned {
            self.reclaim_lease(lease, "worker process exited");
        }
    }

    /// Lease-expiry scan, run on every loop tick.
    fn tick(&mut self) {
        let now = Instant::now();
        let expired: Vec<(u64, u64, &'static str)> = self
            .leases
            .iter()
            .filter_map(|(&id, l)| {
                if now > l.deadline {
                    Some((id, l.conn, "lease deadline exceeded"))
                } else if now > l.expires {
                    Some((id, l.conn, "missed heartbeats"))
                } else {
                    None
                }
            })
            .collect();
        for (lease, conn, reason) in expired {
            // Best-effort revoke: a hung-but-alive worker stops its cell
            // via the CancelToken; a dead one never reads it.
            self.send_to(conn, &ToWorker::Revoke { lease });
            self.reclaim_lease(lease, reason);
        }
    }

    /// Takes a lease back (worker lost or lease expired) and requeues its
    /// unfinished cells under the death counter.
    fn reclaim_lease(&mut self, lease: u64, reason: &str) {
        let Some(l) = self.leases.remove(&lease) else {
            return;
        };
        for idx in l.cells {
            self.track[idx].leased = false;
            if !self.ledger.is_filled(idx) {
                eprintln!(
                    "campaign: reassigning {} ({reason})",
                    self.cells[idx].label()
                );
                self.requeue_or_bury(idx, reason);
            }
        }
    }

    /// Counts a worker-loss against `idx` and either requeues it or — past
    /// the reassignment cap — fails it terminally.
    fn requeue_or_bury(&mut self, idx: usize, reason: &str) {
        self.track[idx].deaths += 1;
        if self.track[idx].deaths <= self.cfg.max_deaths {
            self.track[idx].not_before = Instant::now();
            return;
        }
        let failure = CellFailure {
            cell: self.cells[idx].clone(),
            error: FailureKind::Remote {
                kind: "worker",
                detail: format!(
                    "worker lost {} times (last: {reason}); cell abandoned",
                    self.track[idx].deaths
                ),
            },
            attempts: self.track[idx].attempts.max(1),
            elapsed: self.track[idx]
                .first_grant
                .map_or(Duration::ZERO, |t| t.elapsed()),
        };
        self.ledger.record(idx, Err(failure));
        if self.opts.failure_policy == FailurePolicy::FailFast && !self.stopped {
            self.stop_campaign();
        }
    }
}
