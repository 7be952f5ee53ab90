//! The campaign wire protocol: line-oriented text over a Unix socket.
//!
//! The protocol is deliberately thin because the heavy payload — cell
//! results — never crosses the socket at all. Workers write [`Metrics`]
//! into the shared content-addressed [`ResultCache`] (atomic temp +
//! rename) and the wire carries only *control*: which cells a lease
//! covers, each attempt's start and retry, that a cell finished (the
//! coordinator re-loads it from the cache by key), and heartbeats. The cache
//! digest protocol of PR 4 thereby becomes the wire protocol: both sides
//! build the same grid from the same arguments, and the worker's `hello`
//! carries [`sweep_digest`] so a mismatched grid is rejected before any
//! lease is granted.
//!
//! Framing: one message per `\n`-terminated line, ASCII verbs, fields
//! separated by single spaces. Only the *last* field of a message may
//! contain spaces; it is escaped ([`escape`]) so a rendered error can
//! never smuggle a newline into the framing.
//! Unknown or malformed lines parse as `None` — the receiving side logs
//! and drops them (a half-written line from a SIGKILLed peer must not
//! poison the stream).
//!
//! [`Metrics`]: crate::metrics::Metrics
//! [`ResultCache`]: crate::sweep::ResultCache
//! [`sweep_digest`]: crate::sweep::sweep_digest

use crate::sweep::ledger::Note;
use crate::sweep::{escape, unescape};
use std::io::Read;
use std::time::Duration;

/// Protocol version tag, sent in `hello` and checked by the coordinator:
/// coordinator and workers must come from compatible builds.
pub const PROTOCOL_VERSION: &str = "getm-campaign-v2";

/// Messages a worker sends to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToCoordinator {
    /// Handshake: the worker's grid digest and pid. A digest that does
    /// not match the coordinator's grid is a different campaign —
    /// rejected.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        version: String,
        /// [`crate::sweep::sweep_digest`] of the worker's cell list.
        digest: String,
        /// The worker's process id (for operator logs).
        pid: u32,
    },
    /// The worker is idle and wants up to `n` cells leased.
    Want {
        /// Requested cell count (the coordinator may grant fewer).
        n: usize,
    },
    /// Heartbeat: the lease is still being worked.
    Ping {
        /// The lease being renewed.
        lease: u64,
    },
    /// An attempt at a cell is starting (`start`), or failed and will be
    /// retried per the sweep's [`crate::sweep::FailurePolicy`] (`retry`,
    /// whose rendered error is escaped free text).
    Note {
        /// The lease the cell belongs to.
        lease: u64,
        /// The cell's global spec index.
        idx: usize,
        /// The attempt's start or retry.
        note: Note,
    },
    /// A cell completed; its metrics are in the shared cache under the
    /// cell's content-addressed key.
    Finished {
        /// The lease the cell belongs to.
        lease: u64,
        /// The cell's global spec index.
        idx: usize,
        /// Whether the worker recalled it from the cache.
        cached: bool,
        /// Worker-side wall-clock for the cell (timing field).
        elapsed_ms: u64,
    },
    /// A cell failed on the worker for good.
    Failed {
        /// The lease the cell belongs to.
        lease: u64,
        /// The cell's global spec index.
        idx: usize,
        /// Taxonomy tag: `sim`, `panic`, or `timeout`.
        kind: String,
        /// Attempts the worker made.
        attempts: u32,
        /// Rendered error (escaped free text).
        error: String,
    },
    /// Clean goodbye; the worker is about to disconnect.
    Bye,
}

/// Messages the coordinator sends to a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToWorker {
    /// Handshake accepted; the campaign's heartbeat contract.
    Welcome {
        /// Expected heartbeat interval; a lease unpinged for three of
        /// these is considered abandoned.
        heartbeat_ms: u64,
    },
    /// Handshake refused (digest/version mismatch, campaign over).
    Reject {
        /// Why (escaped free text).
        reason: String,
    },
    /// A lease: the worker owns these cells until it reports them,
    /// the lease expires, or a revoke arrives.
    Lease {
        /// Lease id, unique within the campaign.
        lease: u64,
        /// Global spec indices of the leased cells.
        cells: Vec<usize>,
    },
    /// Nothing grantable right now (cells in flight elsewhere or backing
    /// off); ask again shortly.
    Wait,
    /// The campaign is over (or stopping); no more leases will ever be
    /// granted — disconnect.
    Done,
    /// The lease is withdrawn (expired or campaign aborting); stop its
    /// cells promptly and do not report them.
    Revoke {
        /// The withdrawn lease.
        lease: u64,
    },
    /// Stop everything immediately (fail-fast abort).
    Shutdown,
}

impl ToCoordinator {
    /// Renders the message as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            ToCoordinator::Hello {
                version,
                digest,
                pid,
            } => format!("hello {version} {digest} {pid}"),
            ToCoordinator::Want { n } => format!("want {n}"),
            ToCoordinator::Ping { lease } => format!("ping {lease}"),
            ToCoordinator::Note { lease, idx, note } => match note {
                Note::Started { attempt } => format!("start {lease} {idx} {attempt}"),
                Note::Retried { attempt, error } => {
                    format!("retry {lease} {idx} {attempt} {}", escape(error))
                }
            },
            ToCoordinator::Finished {
                lease,
                idx,
                cached,
                elapsed_ms,
            } => format!("ok {lease} {idx} {} {elapsed_ms}", u8::from(*cached)),
            ToCoordinator::Failed {
                lease,
                idx,
                kind,
                attempts,
                error,
            } => format!("fail {lease} {idx} {kind} {attempts} {}", escape(error)),
            ToCoordinator::Bye => "bye".to_string(),
        }
    }

    /// Parses one wire line; `None` for anything malformed.
    pub fn parse(line: &str) -> Option<ToCoordinator> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (verb, rest) = split_verb(line);
        match verb {
            "hello" => {
                let mut f = rest?.splitn(3, ' ');
                Some(ToCoordinator::Hello {
                    version: nonempty(f.next()?)?.to_string(),
                    digest: nonempty(f.next()?)?.to_string(),
                    pid: f.next()?.parse().ok()?,
                })
            }
            "want" => Some(ToCoordinator::Want {
                n: rest?.parse().ok()?,
            }),
            "ping" => Some(ToCoordinator::Ping {
                lease: rest?.parse().ok()?,
            }),
            "start" | "retry" => {
                let mut f = rest?.splitn(4, ' ');
                let (lease, idx) = (f.next()?.parse().ok()?, f.next()?.parse().ok()?);
                let attempt = f.next()?.parse().ok()?;
                let note = match (verb, f.next()) {
                    ("start", None) => Note::Started { attempt },
                    ("retry", Some(error)) => Note::Retried {
                        attempt,
                        error: unescape(error),
                    },
                    _ => return None,
                };
                Some(ToCoordinator::Note { lease, idx, note })
            }
            "ok" => {
                let mut f = rest?.split(' ');
                let msg = ToCoordinator::Finished {
                    lease: f.next()?.parse().ok()?,
                    idx: f.next()?.parse().ok()?,
                    cached: match f.next()? {
                        "0" => false,
                        "1" => true,
                        _ => return None,
                    },
                    elapsed_ms: f.next()?.parse().ok()?,
                };
                if f.next().is_some() {
                    return None;
                }
                Some(msg)
            }
            "fail" => {
                let mut f = rest?.splitn(5, ' ');
                Some(ToCoordinator::Failed {
                    lease: f.next()?.parse().ok()?,
                    idx: f.next()?.parse().ok()?,
                    kind: nonempty(f.next()?)?.to_string(),
                    attempts: f.next()?.parse().ok()?,
                    error: unescape(f.next()?),
                })
            }
            "bye" if rest.is_none() => Some(ToCoordinator::Bye),
            _ => None,
        }
    }
}

impl ToWorker {
    /// Renders the message as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            ToWorker::Welcome { heartbeat_ms } => format!("welcome {heartbeat_ms}"),
            ToWorker::Reject { reason } => format!("reject {}", escape(reason)),
            ToWorker::Lease { lease, cells } => {
                let list: Vec<String> = cells.iter().map(usize::to_string).collect();
                format!("lease {lease} {}", list.join(","))
            }
            ToWorker::Wait => "wait".to_string(),
            ToWorker::Done => "done".to_string(),
            ToWorker::Revoke { lease } => format!("revoke {lease}"),
            ToWorker::Shutdown => "shutdown".to_string(),
        }
    }

    /// Parses one wire line; `None` for anything malformed.
    pub fn parse(line: &str) -> Option<ToWorker> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (verb, rest) = split_verb(line);
        match verb {
            "welcome" => Some(ToWorker::Welcome {
                heartbeat_ms: rest?.parse().ok()?,
            }),
            "reject" => Some(ToWorker::Reject {
                reason: unescape(rest?),
            }),
            "lease" => {
                let (id, list) = rest?.split_once(' ')?;
                let cells: Option<Vec<usize>> = list.split(',').map(|c| c.parse().ok()).collect();
                let cells = cells?;
                if cells.is_empty() {
                    return None;
                }
                Some(ToWorker::Lease {
                    lease: id.parse().ok()?,
                    cells,
                })
            }
            "wait" if rest.is_none() => Some(ToWorker::Wait),
            "done" if rest.is_none() => Some(ToWorker::Done),
            "revoke" => Some(ToWorker::Revoke {
                lease: rest?.parse().ok()?,
            }),
            "shutdown" if rest.is_none() => Some(ToWorker::Shutdown),
            _ => None,
        }
    }
}

fn split_verb(line: &str) -> (&str, Option<&str>) {
    match line.split_once(' ') {
        Some((v, rest)) => (v, Some(rest)),
        None => (line, None),
    }
}

fn nonempty(s: &str) -> Option<&str> {
    (!s.is_empty()).then_some(s)
}

/// Incremental line framing over a read-timeout socket.
///
/// Reads raw bytes into a buffer and yields complete `\n`-terminated
/// lines; a read timeout yields [`Framed::Idle`] so the owning thread can
/// poll its stop flag, and EOF (or a hard error) yields [`Framed::Eof`].
/// Bytes of a half-written line stay buffered across timeouts — a peer
/// SIGKILLed mid-line leaves the fragment unread forever, which is
/// exactly the torn-tail behaviour the parsers tolerate.
#[derive(Debug)]
pub struct LineReader<R> {
    src: R,
    buf: Vec<u8>,
    pos: usize,
}

/// One step of [`LineReader::next_line`].
#[derive(Debug, PartialEq, Eq)]
pub enum Framed {
    /// A complete line (terminator stripped).
    Line(String),
    /// The read timed out with no complete line; poll and retry.
    Idle,
    /// The peer is gone (EOF or a non-timeout error).
    Eof,
}

impl<R: Read> LineReader<R> {
    /// Wraps a readable source (a `UnixStream` with a read timeout set).
    pub fn new(src: R) -> LineReader<R> {
        LineReader {
            src,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Returns the next framed step. Call in a loop; `Idle` is the
    /// natural point to check a shutdown flag.
    pub fn next_line(&mut self) -> Framed {
        loop {
            if let Some(nl) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let line = self.buf[self.pos..self.pos + nl].to_vec();
                self.pos += nl + 1;
                if self.pos >= self.buf.len() {
                    self.buf.clear();
                    self.pos = 0;
                }
                // Invalid UTF-8 is a malformed line: surfaced as empty,
                // which no parser accepts, so it is logged and dropped.
                return Framed::Line(String::from_utf8(line).unwrap_or_default());
            }
            let mut chunk = [0u8; 4096];
            match self.src.read(&mut chunk) {
                Ok(0) => return Framed::Eof,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Framed::Idle;
                }
                Err(_) => return Framed::Eof,
            }
        }
    }
}

/// The poll granularity for socket reads and the coordinator's tick: how
/// stale a stop flag or an expired lease can go unnoticed.
pub const POLL_INTERVAL: Duration = Duration::from_millis(100);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_coordinator_messages_round_trip() {
        let msgs = vec![
            ToCoordinator::Hello {
                version: PROTOCOL_VERSION.to_string(),
                digest: "0123456789abcdef0123456789abcdef".to_string(),
                pid: 4242,
            },
            ToCoordinator::Want { n: 2 },
            ToCoordinator::Ping { lease: 7 },
            ToCoordinator::Finished {
                lease: 7,
                idx: 3,
                cached: true,
                elapsed_ms: 125,
            },
            ToCoordinator::Failed {
                lease: 7,
                idx: 3,
                kind: "panic".to_string(),
                attempts: 1,
                error: "went \\ boom\nacross lines".to_string(),
            },
            ToCoordinator::Note {
                lease: 7,
                idx: 3,
                note: Note::Started { attempt: 2 },
            },
            ToCoordinator::Note {
                lease: 7,
                idx: 3,
                note: Note::Retried {
                    attempt: 1,
                    error: "tab\there \\ and\nnewline".to_string(),
                },
            },
            ToCoordinator::Bye,
        ];
        for m in msgs {
            let line = m.encode();
            assert!(!line.contains('\n'), "framing must survive: {line}");
            assert_eq!(ToCoordinator::parse(&line), Some(m.clone()), "{line}");
            assert_eq!(ToCoordinator::parse(&format!("{line}\n")), Some(m));
        }
    }

    #[test]
    fn to_worker_messages_round_trip() {
        let msgs = vec![
            ToWorker::Welcome { heartbeat_ms: 2000 },
            ToWorker::Reject {
                reason: "digest mismatch:\nyours != mine".to_string(),
            },
            ToWorker::Lease {
                lease: 1,
                cells: vec![0, 5, 9],
            },
            ToWorker::Wait,
            ToWorker::Done,
            ToWorker::Revoke { lease: 1 },
            ToWorker::Shutdown,
        ];
        for m in msgs {
            let line = m.encode();
            assert!(!line.contains('\n'), "framing must survive: {line}");
            assert_eq!(ToWorker::parse(&line), Some(m), "{line}");
        }
    }

    #[test]
    fn malformed_lines_parse_as_none() {
        for line in [
            "",
            "frobnicate 1 2 3",
            "want",
            "want -3",
            "ok 1 2",            // missing fields
            "ok 1 2 3 4",        // cached must be 0|1
            "ok 1 2 1 4 excess", // trailing field
            "bye now",           // bye takes no operand
            "hello v1",          // missing digest+pid
            "start 1 2",         // missing attempt
            "start 1 2 3 4",     // trailing field
            "retry 1 2 3",       // missing error
        ] {
            assert_eq!(ToCoordinator::parse(line), None, "{line:?}");
        }
        for line in [
            "",
            "lease 1",
            "lease 1 ",
            "lease x 0",
            "welcome 1 2",
            "wait 0",
        ] {
            assert_eq!(ToWorker::parse(line), None, "{line:?}");
        }
    }

    #[test]
    fn line_reader_frames_split_reads_and_keeps_torn_tails() {
        // A source that yields its chunks one read() at a time, then
        // "blocks" (WouldBlock) once, then EOFs.
        struct Chunks(Vec<Vec<u8>>, bool);
        impl Read for Chunks {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if let Some(c) = self.0.first() {
                    let n = c.len().min(buf.len());
                    buf[..n].copy_from_slice(&c[..n]);
                    if n == c.len() {
                        self.0.remove(0);
                    } else {
                        self.0[0] = c[n..].to_vec();
                    }
                    return Ok(n);
                }
                if !self.1 {
                    self.1 = true;
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                Ok(0)
            }
        }
        let mut r = LineReader::new(Chunks(
            vec![
                b"first li".to_vec(),
                b"ne\nsecond\nto".to_vec(),
                b"rn-tail-without-newline".to_vec(),
            ],
            false,
        ));
        assert_eq!(r.next_line(), Framed::Line("first line".to_string()));
        assert_eq!(r.next_line(), Framed::Line("second".to_string()));
        assert_eq!(r.next_line(), Framed::Idle, "timeout surfaces as Idle");
        assert_eq!(r.next_line(), Framed::Eof, "torn tail never becomes a line");
    }
}
