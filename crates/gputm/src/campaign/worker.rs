//! The campaign worker: a disposable cell-execution process.
//!
//! A worker connects to the coordinator's socket, proves it was launched
//! with the same grid (the `hello` carries [`sweep_digest`]), and then
//! loops: ask for work, run the leased cells through the same
//! [`exec::run_cell`] path the single-process executor uses, report
//! `ok`/`fail` verdicts. Results themselves never cross the socket —
//! `run_cell` stores them in the shared content-addressed cache, and the
//! verdict only tells the coordinator to load them.
//!
//! Three threads cooperate:
//!
//! * the **main loop** runs cells and sends `want`/`ok`/`fail`;
//! * a **reader** thread turns coordinator messages into control events,
//!   and services `revoke`/`shutdown` immediately by cancelling the
//!   current lease's [`CancelToken`] — which stops the engine at its
//!   next watchdog poll, even mid-cell;
//! * a **heartbeat** thread pings the current lease every half heartbeat
//!   interval, so a worker that is merely slow is never mistaken for a
//!   dead one.
//!
//! Cells abandoned by a revoke are reported by *nobody*: the coordinator
//! already requeued them when it revoked, and a late result for a cell
//! another worker since finished is deduplicated coordinator-side.

use super::protocol::{
    Framed, LineReader, ToCoordinator, ToWorker, POLL_INTERVAL, PROTOCOL_VERSION,
};
use crate::sweep::exec;
use crate::sweep::{sweep_digest, CellSpec, FailurePolicy, SweepOptions};
use crate::telemetry::{CampaignEvent, Telemetry, TelemetrySink};
use sim_core::CancelToken;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a worker keeps retrying the initial connect — covers the
/// coordinator still binding its socket when workers launch first.
const CONNECT_WINDOW: Duration = Duration::from_secs(10);

/// How long the main loop waits for a coordinator reply before deciding
/// the far side is wedged.
const REPLY_WINDOW: Duration = Duration::from_secs(60);

/// Control events the reader thread forwards to the main loop. Revoke
/// and shutdown are *not* forwarded — they act on the current lease's
/// cancel token directly so a running cell stops promptly.
enum Ctrl {
    Lease(u64, Vec<usize>),
    Wait,
    Done,
    Eof,
}

/// The lease currently being executed, shared with the reader and
/// heartbeat threads.
type Current = Arc<Mutex<Option<(u64, CancelToken)>>>;

/// Runs one worker process against the coordinator at `socket` until the
/// coordinator says the campaign is over.
///
/// `cells` must be the same grid (same spec, same order) the coordinator
/// was launched with — the handshake enforces this by digest. `opts`
/// should carry the same shared result cache; per-lease execution forces
/// `CollectAll` (the coordinator owns the retry policy), disables resume
/// and progress lines, and re-routes telemetry onto the socket.
///
/// # Errors
///
/// Connect/handshake failures, a rejected hello, or the coordinator
/// vanishing mid-campaign. A campaign completing normally (`done` /
/// `shutdown`) returns `Ok(())`.
pub fn work(cells: &[CellSpec], opts: &SweepOptions, socket: &Path) -> std::io::Result<()> {
    if opts.result_cache.is_none() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "campaign worker needs the shared result cache (results travel through it)",
        ));
    }
    let stream = connect_with_retry(socket)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let mut reader = LineReader::new(stream);

    send(
        &writer,
        &ToCoordinator::Hello {
            version: PROTOCOL_VERSION.to_string(),
            digest: sweep_digest(cells),
            pid: std::process::id(),
        },
    )?;
    let (heartbeat, _lease_ms) = await_welcome(&mut reader)?;

    let stop = Arc::new(AtomicBool::new(false));
    let current: Current = Arc::new(Mutex::new(None));
    let (ctrl_tx, ctrl_rx) = mpsc::channel::<Ctrl>();

    let reader_thread = {
        let stop = stop.clone();
        let current = current.clone();
        std::thread::spawn(move || {
            loop {
                match reader.next_line() {
                    Framed::Line(line) => match ToWorker::parse(&line) {
                        Some(ToWorker::Lease { lease, cells }) => {
                            if ctrl_tx.send(Ctrl::Lease(lease, cells)).is_err() {
                                return;
                            }
                        }
                        Some(ToWorker::Wait) => {
                            if ctrl_tx.send(Ctrl::Wait).is_err() {
                                return;
                            }
                        }
                        Some(ToWorker::Done) => {
                            ctrl_tx.send(Ctrl::Done).ok();
                            return;
                        }
                        Some(ToWorker::Revoke { lease }) => {
                            let held = current.lock().expect("current lease lock");
                            if let Some((id, token)) = held.as_ref() {
                                if *id == lease {
                                    token.cancel();
                                }
                            }
                        }
                        Some(ToWorker::Shutdown) => {
                            stop.store(true, Ordering::SeqCst);
                            if let Some((_, token)) =
                                current.lock().expect("current lease lock").as_ref()
                            {
                                token.cancel();
                            }
                            ctrl_tx.send(Ctrl::Done).ok();
                            return;
                        }
                        Some(_) | None => {} // welcome replays / malformed: ignore
                    },
                    Framed::Idle => {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                    }
                    Framed::Eof => {
                        ctrl_tx.send(Ctrl::Eof).ok();
                        return;
                    }
                }
            }
        })
    };

    let heartbeat_thread = {
        let stop = stop.clone();
        let current = current.clone();
        let writer = writer.clone();
        let tick = (heartbeat / 2).max(Duration::from_millis(50));
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(tick);
                let lease = current
                    .lock()
                    .expect("current lease lock")
                    .as_ref()
                    .map(|(id, _)| *id);
                if let Some(lease) = lease {
                    if send(&writer, &ToCoordinator::Ping { lease }).is_err() {
                        return; // coordinator gone; reader will notice too
                    }
                }
            }
        })
    };

    let outcome = lease_loop(cells, opts, &writer, &current, &stop, &ctrl_rx);

    stop.store(true, Ordering::SeqCst);
    send(&writer, &ToCoordinator::Bye).ok();
    heartbeat_thread.join().ok();
    reader_thread.join().ok();
    outcome
}

/// The worker's main loop: want → lease → run cells → report, until done.
fn lease_loop(
    cells: &[CellSpec],
    opts: &SweepOptions,
    writer: &Arc<Mutex<UnixStream>>,
    current: &Current,
    stop: &Arc<AtomicBool>,
    ctrl_rx: &mpsc::Receiver<Ctrl>,
) -> std::io::Result<()> {
    // Worker telemetry streams over the socket; the coordinator
    // re-stamps and fans out to the human-facing sinks.
    let socket_tel = Telemetry::to_sinks(vec![Box::new(SocketSink {
        out: writer.clone(),
    })]);
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        send(writer, &ToCoordinator::Want { n: 16 })?;
        match ctrl_rx.recv_timeout(REPLY_WINDOW) {
            Ok(Ctrl::Lease(lease, idxs)) => {
                let token = CancelToken::new();
                *current.lock().expect("current lease lock") = Some((lease, token.clone()));
                let result =
                    run_lease(cells, opts, &socket_tel, writer, lease, &idxs, &token, stop);
                *current.lock().expect("current lease lock") = None;
                result?;
            }
            Ok(Ctrl::Wait) => std::thread::sleep(POLL_INTERVAL),
            Ok(Ctrl::Done) => return Ok(()),
            Ok(Ctrl::Eof) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "coordinator vanished mid-campaign",
                ));
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "coordinator stopped replying",
                ));
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "coordinator connection lost",
                ));
            }
        }
    }
}

/// Executes one lease's cells, reporting a verdict per cell. A cancelled
/// token (revoke or shutdown) abandons the remainder silently — the
/// coordinator has already requeued them.
#[allow(clippy::too_many_arguments)]
fn run_lease(
    cells: &[CellSpec],
    opts: &SweepOptions,
    socket_tel: &Telemetry,
    writer: &Arc<Mutex<UnixStream>>,
    lease: u64,
    idxs: &[usize],
    token: &CancelToken,
    stop: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    let mut run_opts = opts.clone();
    // The coordinator owns retries (its policy, its backoff), resume
    // recall (its journal), and the progress stream: a worker is just
    // run_cell plus a socket.
    run_opts.failure_policy = FailurePolicy::CollectAll;
    run_opts.resume = false;
    run_opts.progress = false;
    run_opts.cancel = Some(token.clone());
    run_opts.telemetry = socket_tel.clone();
    for &idx in idxs {
        if stop.load(Ordering::SeqCst) || token.is_cancelled() {
            return Ok(());
        }
        let Some(cell) = cells.get(idx) else {
            continue; // a lease for cells we don't have is a protocol bug
        };
        match exec::run_cell(idx, cell, &run_opts) {
            Ok(outcome) => {
                send(
                    writer,
                    &ToCoordinator::Finished {
                        lease,
                        idx,
                        cached: outcome.cached,
                        elapsed_ms: outcome.elapsed.as_millis() as u64,
                    },
                )?;
            }
            Err(failure) => {
                if token.is_cancelled() {
                    // The revoke interrupted the engine; this cell is the
                    // coordinator's to reassign, not ours to report.
                    return Ok(());
                }
                send(
                    writer,
                    &ToCoordinator::Failed {
                        lease,
                        idx,
                        kind: failure.error.tag().to_string(),
                        attempts: failure.attempts,
                        error: failure.error.to_string(),
                    },
                )?;
            }
        }
    }
    Ok(())
}

/// A [`TelemetrySink`] that frames each event as a protocol `event` line.
/// Terminal events are filtered coordinator-side, but a worker under
/// `CollectAll` with no journal only ever emits `cell_started`,
/// `cell_cache_hit`, `cell_finished`, `cell_failed`, and `cell_degraded`
/// — of which the coordinator passes through only the non-terminal ones.
struct SocketSink {
    out: Arc<Mutex<UnixStream>>,
}

impl TelemetrySink for SocketSink {
    fn record(&mut self, at_ms: u64, event: &CampaignEvent) {
        let msg = ToCoordinator::Event {
            json: event.to_json(at_ms),
        };
        if let Ok(mut s) = self.out.lock() {
            let _ = writeln!(&mut *s, "{}", msg.encode());
        }
    }

    fn flush(&mut self) {}
}

fn send(out: &Arc<Mutex<UnixStream>>, msg: &ToCoordinator) -> std::io::Result<()> {
    let mut s = out
        .lock()
        .map_err(|_| std::io::Error::other("socket writer poisoned"))?;
    writeln!(&mut *s, "{}", msg.encode())
}

/// Connects to the coordinator socket, retrying for [`CONNECT_WINDOW`]
/// to cover workers racing the coordinator's bind.
fn connect_with_retry(socket: &Path) -> std::io::Result<UnixStream> {
    let deadline = Instant::now() + CONNECT_WINDOW;
    loop {
        match UnixStream::connect(socket) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        e.kind(),
                        format!("no coordinator at {}: {e}", socket.display()),
                    ));
                }
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }
}

/// Drains the handshake reply; anything but a `welcome` is fatal.
fn await_welcome<R: std::io::Read>(reader: &mut LineReader<R>) -> std::io::Result<(Duration, u64)> {
    let deadline = Instant::now() + CONNECT_WINDOW;
    loop {
        match reader.next_line() {
            Framed::Line(line) => match ToWorker::parse(&line) {
                Some(ToWorker::Welcome {
                    heartbeat_ms,
                    lease_ms,
                }) => {
                    return Ok((Duration::from_millis(heartbeat_ms.max(100)), lease_ms));
                }
                Some(ToWorker::Reject { reason }) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::PermissionDenied,
                        format!("coordinator rejected this worker: {reason}"),
                    ));
                }
                _ => {} // not part of the handshake; keep draining
            },
            Framed::Idle => {
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "coordinator never completed the handshake",
                    ));
                }
            }
            Framed::Eof => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "coordinator closed the connection during the handshake",
                ));
            }
        }
    }
}
