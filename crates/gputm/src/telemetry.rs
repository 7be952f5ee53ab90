//! Host-level campaign telemetry: a typed, timestamped event stream for
//! everything the sweep executor does above the simulated machine.
//!
//! PR 2 gave the *simulation* cycle-accurate observability; this module
//! gives the *campaign* the same treatment. The sweep ledger
//! (`crate::sweep::ledger`), the one writer for both the in-process
//! executor and the distributed coordinator, narrates cell lifecycle — queued, started, finished, cache-hit, retried,
//! failed, watchdog-degraded — plus periodic throughput/ETA samples as
//! [`CampaignEvent`]s through a [`Telemetry`] handle, which follows the
//! exact zero-cost discipline of [`sim_core::trace::Recorder`]: when no
//! sink is attached, `emit` is a branch on a `None` and the
//! event-constructing closure is never evaluated.
//!
//! Events fan out to any number of [`TelemetrySink`]s:
//!
//! * [`JsonlSink`] — one JSON object per line, flushed per event, so an
//!   external tail (or a crash postmortem) always sees a valid prefix.
//! * [`DashboardSink`] — a live in-place TTY dashboard: per-cell state
//!   grid, cells/sec, cache-hit ratio, retry/failure counters, ETA.
//! * [`PromSink`] — a Prometheus-style text snapshot rewritten atomically
//!   (temp file + rename) for external scrapers.
//! * [`MemorySink`] — an in-process capture buffer for tests and embedders
//!   (ROADMAP's sweep-as-a-service streams from exactly this hook).
//!
//! ```
//! use gputm::telemetry::{CampaignEvent, MemorySink, Telemetry};
//!
//! let (sink, captured) = MemorySink::new();
//! let tel = Telemetry::to_sinks(vec![Box::new(sink)]);
//! tel.emit(|| CampaignEvent::CampaignStarted { total: 3, workers: 1, resumed: 0 });
//! assert_eq!(captured.lock().unwrap().len(), 1);
//!
//! let off = Telemetry::off();
//! off.emit(|| unreachable!("disabled telemetry never builds events"));
//! ```

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One host-level campaign event. `idx` is the cell's position in spec
/// order; `label` is [`crate::sweep::CellSpec::label`]. Wall-clock fields
/// (`*_ms`, rates) are *timing fields*: equivalence of two telemetry
/// streams is defined modulo their values.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignEvent {
    /// A sweep began: `total` cells on `workers` worker threads, of which
    /// `resumed` were already complete in a resumed campaign's journal.
    CampaignStarted {
        /// Cells in the sweep.
        total: usize,
        /// Worker threads executing cells.
        workers: usize,
        /// Cells the resumed journal already marked complete.
        resumed: usize,
    },
    /// A cell was placed on a worker queue.
    CellQueued {
        /// Spec-order index.
        idx: usize,
        /// Human-readable cell label.
        label: String,
    },
    /// A worker began computing a cell (not emitted for cache hits).
    CellStarted {
        /// Spec-order index.
        idx: usize,
        /// Human-readable cell label.
        label: String,
        /// 1-based attempt number (>1 only under a retry policy).
        attempt: u32,
    },
    /// A cell's result was recalled from the result cache (terminal).
    CellCacheHit {
        /// Spec-order index.
        idx: usize,
        /// Human-readable cell label.
        label: String,
        /// Simulated cycles of the recalled result.
        cycles: u64,
    },
    /// A cell was computed to completion (terminal).
    CellFinished {
        /// Spec-order index.
        idx: usize,
        /// Human-readable cell label.
        label: String,
        /// Simulated cycles.
        cycles: u64,
        /// Committed transactions.
        commits: u64,
        /// Aborted transaction attempts.
        aborts: u64,
        /// Wall-clock milliseconds spent on the cell (timing field).
        elapsed_ms: u64,
    },
    /// A failing attempt will be retried (non-terminal).
    CellRetried {
        /// Spec-order index.
        idx: usize,
        /// Human-readable cell label.
        label: String,
        /// The attempt that just failed (1-based).
        attempt: u32,
        /// Rendered failure of that attempt.
        error: String,
    },
    /// A cell failed for good (terminal). `kind` is `sim`, `panic`,
    /// `timeout`, or `worker` — the [`crate::sweep::FailureKind`]
    /// taxonomy (`worker` is the distributed campaign's worker-loss
    /// class: process exit, missed heartbeats, expired lease).
    CellFailed {
        /// Spec-order index.
        idx: usize,
        /// Human-readable cell label.
        label: String,
        /// Failure class: `sim`, `panic`, `timeout`, or `worker`.
        kind: &'static str,
        /// Rendered final error.
        error: String,
        /// Total attempts made.
        attempts: u32,
    },
    /// A completed cell ran degraded: its forward-progress watchdog
    /// escalated or serialized commits, so its timing is suspect.
    CellDegraded {
        /// Spec-order index.
        idx: usize,
        /// Human-readable cell label.
        label: String,
        /// Backoff-escalation sweeps the watchdog performed.
        escalations: u64,
        /// Commits landed under serialization fallback.
        serialized_commits: u64,
    },
    /// Periodic progress sample, emitted at every completion. All fields
    /// except `done`/`total` are timing fields.
    Throughput {
        /// Cells completed (including failures).
        done: usize,
        /// Cells in the sweep.
        total: usize,
        /// Of `done`, how many were cache hits.
        cache_hits: usize,
        /// Of `done`, how many failed.
        failures: usize,
        /// Completion rate since campaign start (timing field).
        cells_per_sec: f64,
        /// Naive remaining-time estimate in ms (timing field).
        eta_ms: u64,
    },
    /// The sweep finished (successfully or not).
    CampaignFinished {
        /// Cells that completed.
        done: usize,
        /// Cells that failed.
        failed: usize,
        /// Cells never attempted (fail-fast stop).
        skipped: usize,
        /// Campaign wall-clock in ms (timing field).
        elapsed_ms: u64,
    },
}

impl CampaignEvent {
    /// The event's stable type tag, used as the JSONL `ev` field and by
    /// stream-equivalence tests.
    pub fn kind(&self) -> &'static str {
        match self {
            CampaignEvent::CampaignStarted { .. } => "campaign_started",
            CampaignEvent::CellQueued { .. } => "cell_queued",
            CampaignEvent::CellStarted { .. } => "cell_started",
            CampaignEvent::CellCacheHit { .. } => "cell_cache_hit",
            CampaignEvent::CellFinished { .. } => "cell_finished",
            CampaignEvent::CellRetried { .. } => "cell_retried",
            CampaignEvent::CellFailed { .. } => "cell_failed",
            CampaignEvent::CellDegraded { .. } => "cell_degraded",
            CampaignEvent::Throughput { .. } => "throughput",
            CampaignEvent::CampaignFinished { .. } => "campaign_finished",
        }
    }

    /// The cell index this event is about, if it is a per-cell event.
    pub fn cell_idx(&self) -> Option<usize> {
        match self {
            CampaignEvent::CellQueued { idx, .. }
            | CampaignEvent::CellStarted { idx, .. }
            | CampaignEvent::CellCacheHit { idx, .. }
            | CampaignEvent::CellFinished { idx, .. }
            | CampaignEvent::CellRetried { idx, .. }
            | CampaignEvent::CellFailed { idx, .. }
            | CampaignEvent::CellDegraded { idx, .. } => Some(*idx),
            _ => None,
        }
    }

    /// Whether this is a cell's *terminal* event (exactly one per cell in
    /// a coherent stream): finished, cache-hit, or failed.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            CampaignEvent::CellCacheHit { .. }
                | CampaignEvent::CellFinished { .. }
                | CampaignEvent::CellFailed { .. }
        )
    }

    /// Renders the event as one JSON object (no trailing newline). Keys:
    /// `t_ms` (stamped milliseconds) and `ev` (the [`kind`]) always
    /// present, the variant's fields after.
    ///
    /// [`kind`]: CampaignEvent::kind
    pub fn to_json(&self, at_ms: u64) -> String {
        let mut s = format!("{{\"t_ms\":{at_ms},\"ev\":\"{}\"", self.kind());
        let mut push = |key: &str, val: String| {
            s.push_str(&format!(",\"{key}\":{val}"));
        };
        match self {
            CampaignEvent::CampaignStarted {
                total,
                workers,
                resumed,
            } => {
                push("total", total.to_string());
                push("workers", workers.to_string());
                push("resumed", resumed.to_string());
            }
            CampaignEvent::CellQueued { idx, label } => {
                push("idx", idx.to_string());
                push("label", json_string(label));
            }
            CampaignEvent::CellStarted {
                idx,
                label,
                attempt,
            } => {
                push("idx", idx.to_string());
                push("label", json_string(label));
                push("attempt", attempt.to_string());
            }
            CampaignEvent::CellCacheHit { idx, label, cycles } => {
                push("idx", idx.to_string());
                push("label", json_string(label));
                push("cycles", cycles.to_string());
            }
            CampaignEvent::CellFinished {
                idx,
                label,
                cycles,
                commits,
                aborts,
                elapsed_ms,
            } => {
                push("idx", idx.to_string());
                push("label", json_string(label));
                push("cycles", cycles.to_string());
                push("commits", commits.to_string());
                push("aborts", aborts.to_string());
                push("elapsed_ms", elapsed_ms.to_string());
            }
            CampaignEvent::CellRetried {
                idx,
                label,
                attempt,
                error,
            } => {
                push("idx", idx.to_string());
                push("label", json_string(label));
                push("attempt", attempt.to_string());
                push("error", json_string(error));
            }
            CampaignEvent::CellFailed {
                idx,
                label,
                kind,
                error,
                attempts,
            } => {
                push("idx", idx.to_string());
                push("label", json_string(label));
                push("kind", json_string(kind));
                push("error", json_string(error));
                push("attempts", attempts.to_string());
            }
            CampaignEvent::CellDegraded {
                idx,
                label,
                escalations,
                serialized_commits,
            } => {
                push("idx", idx.to_string());
                push("label", json_string(label));
                push("escalations", escalations.to_string());
                push("serialized_commits", serialized_commits.to_string());
            }
            CampaignEvent::Throughput {
                done,
                total,
                cache_hits,
                failures,
                cells_per_sec,
                eta_ms,
            } => {
                push("done", done.to_string());
                push("total", total.to_string());
                push("cache_hits", cache_hits.to_string());
                push("failures", failures.to_string());
                push("cells_per_sec", format_f64(*cells_per_sec));
                push("eta_ms", eta_ms.to_string());
            }
            CampaignEvent::CampaignFinished {
                done,
                failed,
                skipped,
                elapsed_ms,
            } => {
                push("done", done.to_string());
                push("failed", failed.to_string());
                push("skipped", skipped.to_string());
                push("elapsed_ms", elapsed_ms.to_string());
            }
        }
        s.push('}');
        s
    }
}

/// Finite-guarding float rendering: JSON has no NaN/Inf literals.
fn format_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// `s` as a quoted JSON string.
fn json_string(s: &str) -> String {
    format!("\"{}\"", sim_core::trace::json_escape(s))
}

/// Anything that can absorb a stream of stamped campaign events.
///
/// `record` is called under the hub's lock with the milliseconds since
/// campaign telemetry was created; `flush` is called once at campaign end
/// (and on [`Telemetry`] drop of the last handle) so buffered sinks land.
pub trait TelemetrySink: Send {
    /// Records one event, stamped `at_ms` milliseconds after hub creation.
    fn record(&mut self, at_ms: u64, event: &CampaignEvent);
    /// Flushes any buffered output (default: nothing to do).
    fn flush(&mut self) {}
}

struct Hub {
    started: Instant,
    sinks: Mutex<Vec<Box<dyn TelemetrySink>>>,
}

impl Drop for Hub {
    fn drop(&mut self) {
        // The last handle going away flushes whatever the campaign never
        // explicitly flushed (e.g. a panicking caller).
        if let Ok(mut sinks) = self.sinks.lock() {
            for s in sinks.iter_mut() {
                s.flush();
            }
        }
    }
}

/// The gate every telemetry emission site branches on — the campaign-level
/// sibling of [`sim_core::trace::Recorder`]. Disabled (`Telemetry::off`,
/// the default), `emit` is a branch on a `None` and the closure is never
/// evaluated; enabled, events are stamped with wall-clock milliseconds
/// since the hub was created and fanned out to every sink under a lock
/// (cheap against multi-millisecond cells). Clones share the hub.
#[derive(Clone, Default)]
pub struct Telemetry {
    hub: Option<Arc<Hub>>,
}

impl Telemetry {
    /// Disabled telemetry: `emit` does nothing.
    pub fn off() -> Self {
        Telemetry { hub: None }
    }

    /// Telemetry fanning out to `sinks`; timestamps count from now.
    pub fn to_sinks(sinks: Vec<Box<dyn TelemetrySink>>) -> Self {
        Telemetry {
            hub: Some(Arc::new(Hub {
                started: Instant::now(),
                sinks: Mutex::new(sinks),
            })),
        }
    }

    /// True when events are being captured.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.hub.is_some()
    }

    /// Records the event built by `f` — but only when telemetry is on. The
    /// closure is never evaluated on the disabled path, which is what
    /// keeps instrumentation free for ordinary sweeps.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> CampaignEvent) {
        if let Some(hub) = &self.hub {
            let event = f();
            let at_ms = hub.started.elapsed().as_millis() as u64;
            let mut sinks = hub.sinks.lock().expect("telemetry sinks lock");
            for s in sinks.iter_mut() {
                s.record(at_ms, &event);
            }
        }
    }

    /// Flushes every sink (called by the ledger at campaign end).
    pub fn flush(&self) {
        if let Some(hub) = &self.hub {
            let mut sinks = hub.sinks.lock().expect("telemetry sinks lock");
            for s in sinks.iter_mut() {
                s.flush();
            }
        }
    }

    /// Milliseconds since the hub was created (0 when off) — the same
    /// clock `emit` stamps events with.
    pub fn now_ms(&self) -> u64 {
        self.hub
            .as_ref()
            .map(|h| h.started.elapsed().as_millis() as u64)
            .unwrap_or(0)
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Telemetry({})",
            if self.is_on() { "recording" } else { "off" }
        )
    }
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// Captures events in memory; the campaign side holds the sink, the
/// observer side holds the shared buffer. The embedding hook for tests
/// and for services that want the stream without touching disk.
pub struct MemorySink {
    buf: Arc<Mutex<Vec<(u64, CampaignEvent)>>>,
}

impl MemorySink {
    /// A sink plus the shared buffer it fills.
    #[allow(clippy::type_complexity)]
    pub fn new() -> (MemorySink, Arc<Mutex<Vec<(u64, CampaignEvent)>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        (MemorySink { buf: buf.clone() }, buf)
    }
}

impl TelemetrySink for MemorySink {
    fn record(&mut self, at_ms: u64, event: &CampaignEvent) {
        self.buf
            .lock()
            .expect("memory sink lock")
            .push((at_ms, event.clone()));
    }
}

/// Writes one JSON object per line. Each event is written and flushed
/// immediately, so a SIGKILLed campaign leaves at worst one torn final
/// line — every complete line is valid JSON.
pub struct JsonlSink {
    out: std::io::BufWriter<std::fs::File>,
}

impl JsonlSink {
    /// Creates (truncating) the JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors; the caller decides whether a
    /// campaign without telemetry is acceptable.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: std::io::BufWriter::new(std::fs::File::create(path)?),
        })
    }
}

impl TelemetrySink for JsonlSink {
    fn record(&mut self, at_ms: u64, event: &CampaignEvent) {
        // Telemetry is best-effort observation: a full disk must not kill
        // the campaign it is watching.
        let _ = writeln!(self.out, "{}", event.to_json(at_ms));
        let _ = self.out.flush();
    }
}

/// Rolling counters every aggregate sink derives its view from.
#[derive(Debug, Default, Clone)]
struct Tally {
    total: usize,
    workers: usize,
    done: usize,
    computed: usize,
    cache_hits: usize,
    retries: usize,
    failures: usize,
    degraded: usize,
    finished: bool,
}

impl Tally {
    fn apply(&mut self, event: &CampaignEvent) {
        match event {
            CampaignEvent::CampaignStarted { total, workers, .. } => {
                self.total = *total;
                self.workers = *workers;
            }
            CampaignEvent::CellCacheHit { .. } => {
                self.done += 1;
                self.cache_hits += 1;
            }
            CampaignEvent::CellFinished { .. } => {
                self.done += 1;
                self.computed += 1;
            }
            CampaignEvent::CellRetried { .. } => self.retries += 1,
            CampaignEvent::CellFailed { .. } => {
                self.done += 1;
                self.failures += 1;
            }
            CampaignEvent::CellDegraded { .. } => self.degraded += 1,
            CampaignEvent::CampaignFinished { .. } => self.finished = true,
            _ => {}
        }
    }
}

/// A live in-place dashboard: a per-cell state grid plus the campaign's
/// vital signs, re-rendered over itself with ANSI cursor movement.
///
/// Grid legend: `.` queued, `r` running, `#` finished, `c` cache hit,
/// `!` failed, `d` finished degraded.
pub struct DashboardSink {
    out: Box<dyn Write + Send>,
    states: Vec<u8>,
    tally: Tally,
    /// Lines the previous frame occupied (0 before the first frame).
    last_lines: usize,
}

impl DashboardSink {
    /// A dashboard rendering to stderr (the conventional live channel —
    /// stdout stays machine-readable).
    pub fn to_stderr() -> DashboardSink {
        DashboardSink::to_writer(Box::new(std::io::stderr()))
    }

    /// A dashboard rendering to an arbitrary writer (tests).
    pub fn to_writer(out: Box<dyn Write + Send>) -> DashboardSink {
        DashboardSink {
            out,
            states: Vec::new(),
            tally: Tally::default(),
            last_lines: 0,
        }
    }

    fn set_state(&mut self, idx: usize, state: u8) {
        if idx >= self.states.len() {
            self.states.resize(idx + 1, b'.');
        }
        self.states[idx] = state;
    }

    fn render(&mut self, at_ms: u64) {
        let mut frame = String::new();
        // Rewind over the previous frame; each line was terminated, so
        // clearing to screen-end wipes it fully before redrawing.
        if self.last_lines > 0 {
            frame.push_str(&format!("\x1b[{}A\x1b[J", self.last_lines));
        }
        let t = &self.tally;
        let secs = at_ms as f64 / 1000.0;
        let rate = if secs > 0.0 {
            t.done as f64 / secs
        } else {
            0.0
        };
        let eta = if rate > 0.0 && t.total > t.done {
            (t.total - t.done) as f64 / rate
        } else {
            0.0
        };
        let hit_pct = if t.done > 0 {
            100.0 * t.cache_hits as f64 / t.done as f64
        } else {
            0.0
        };
        frame.push_str(&format!(
            "sweep {:>3}/{:<3} [{}] {}\n",
            t.done,
            t.total,
            bar(t.done, t.total, 24),
            if t.finished { "done" } else { "running" },
        ));
        frame.push_str(&format!(
            "  {rate:.2} cells/s | cache {hit_pct:.0}% | retries {} | failures {} | degraded {} | eta {:.0}s\n",
            t.retries, t.failures, t.degraded, eta
        ));
        let mut lines = 2;
        // The state grid, 64 cells per row.
        for chunk in self.states.chunks(64) {
            frame.push_str("  ");
            frame.push_str(std::str::from_utf8(chunk).unwrap_or("?"));
            frame.push('\n');
            lines += 1;
        }
        let _ = self.out.write_all(frame.as_bytes());
        let _ = self.out.flush();
        self.last_lines = lines;
    }
}

/// A fixed-width unicode-free progress bar.
fn bar(done: usize, total: usize, width: usize) -> String {
    let filled = (done * width).checked_div(total).unwrap_or(width);
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '=' } else { ' ' });
    }
    s
}

impl TelemetrySink for DashboardSink {
    fn record(&mut self, at_ms: u64, event: &CampaignEvent) {
        self.tally.apply(event);
        match event {
            CampaignEvent::CampaignStarted { total, .. } => {
                self.states = vec![b'.'; *total];
            }
            CampaignEvent::CellQueued { idx, .. } => self.set_state(*idx, b'.'),
            CampaignEvent::CellStarted { idx, .. } | CampaignEvent::CellRetried { idx, .. } => {
                self.set_state(*idx, b'r');
            }
            CampaignEvent::CellCacheHit { idx, .. } => self.set_state(*idx, b'c'),
            CampaignEvent::CellFinished { idx, .. } => self.set_state(*idx, b'#'),
            CampaignEvent::CellFailed { idx, .. } => self.set_state(*idx, b'!'),
            CampaignEvent::CellDegraded { idx, .. } => self.set_state(*idx, b'd'),
            _ => {}
        }
        self.render(at_ms);
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Maintains a Prometheus-style text snapshot, rewritten atomically (temp
/// file + rename, the sweep cache's discipline) so a scraper can read it
/// at any moment without seeing a torn file.
pub struct PromSink {
    path: PathBuf,
    tally: Tally,
}

impl PromSink {
    /// A snapshot maintained at `path`.
    pub fn at(path: impl Into<PathBuf>) -> PromSink {
        PromSink {
            path: path.into(),
            tally: Tally::default(),
        }
    }

    /// The snapshot text for the current counters.
    fn snapshot(&self, at_ms: u64) -> String {
        let t = &self.tally;
        let secs = at_ms as f64 / 1000.0;
        let rate = if secs > 0.0 {
            t.done as f64 / secs
        } else {
            0.0
        };
        let mut s = String::with_capacity(512);
        for (name, help, kind, value) in [
            (
                "getm_sweep_cells_total",
                "Cells in the sweep",
                "gauge",
                t.total as f64,
            ),
            (
                "getm_sweep_cells_done",
                "Cells completed (incl. failures)",
                "gauge",
                t.done as f64,
            ),
            (
                "getm_sweep_cells_computed",
                "Cells computed by simulation",
                "counter",
                t.computed as f64,
            ),
            (
                "getm_sweep_cache_hits",
                "Cells recalled from the result cache",
                "counter",
                t.cache_hits as f64,
            ),
            (
                "getm_sweep_retries",
                "Failed attempts that were retried",
                "counter",
                t.retries as f64,
            ),
            (
                "getm_sweep_failures",
                "Cells that failed terminally",
                "counter",
                t.failures as f64,
            ),
            (
                "getm_sweep_degraded",
                "Completed cells flagged watchdog-degraded",
                "counter",
                t.degraded as f64,
            ),
            (
                "getm_sweep_workers",
                "Sweep worker threads",
                "gauge",
                t.workers as f64,
            ),
            (
                "getm_sweep_cells_per_sec",
                "Completion rate since campaign start",
                "gauge",
                rate,
            ),
            (
                "getm_sweep_finished",
                "1 once the campaign ended",
                "gauge",
                f64::from(u8::from(t.finished)),
            ),
        ] {
            s.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        }
        s
    }

    fn write_snapshot(&self, at_ms: u64) {
        let Some(dir) = self.path.parent() else {
            return;
        };
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = self.path.with_extension("prom.tmp");
        // Best-effort like every telemetry write: a failed snapshot must
        // not fail the sweep.
        if std::fs::write(&tmp, self.snapshot(at_ms)).is_ok() {
            let _ = std::fs::rename(&tmp, &self.path);
        }
    }
}

impl TelemetrySink for PromSink {
    fn record(&mut self, at_ms: u64, event: &CampaignEvent) {
        self.tally.apply(event);
        // Rewrite on state-changing events only: per-cell terminal events,
        // retries, and the campaign boundaries. Queued/started events
        // would double the write volume for no scraper-visible change.
        if event.is_terminal()
            || matches!(
                event,
                CampaignEvent::CampaignStarted { .. }
                    | CampaignEvent::CampaignFinished { .. }
                    | CampaignEvent::CellRetried { .. }
                    | CampaignEvent::CellDegraded { .. }
            )
        {
            self.write_snapshot(at_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<CampaignEvent> {
        vec![
            CampaignEvent::CampaignStarted {
                total: 2,
                workers: 1,
                resumed: 0,
            },
            CampaignEvent::CellQueued {
                idx: 0,
                label: "HT-H/GETM".into(),
            },
            CampaignEvent::CellStarted {
                idx: 0,
                label: "HT-H/GETM".into(),
                attempt: 1,
            },
            CampaignEvent::CellFinished {
                idx: 0,
                label: "HT-H/GETM".into(),
                cycles: 1000,
                commits: 64,
                aborts: 3,
                elapsed_ms: 17,
            },
            CampaignEvent::CellCacheHit {
                idx: 1,
                label: "ATM/GETM".into(),
                cycles: 900,
            },
            CampaignEvent::Throughput {
                done: 2,
                total: 2,
                cache_hits: 1,
                failures: 0,
                cells_per_sec: 12.5,
                eta_ms: 0,
            },
            CampaignEvent::CampaignFinished {
                done: 2,
                failed: 0,
                skipped: 0,
                elapsed_ms: 20,
            },
        ]
    }

    #[test]
    fn disabled_telemetry_never_evaluates_the_closure() {
        let off = Telemetry::off();
        off.emit(|| panic!("must not run"));
        assert!(!off.is_on());
        off.flush();
        assert_eq!(off.now_ms(), 0);
    }

    #[test]
    fn memory_sink_captures_in_order_and_clones_share_the_hub() {
        let (sink, captured) = MemorySink::new();
        let tel = Telemetry::to_sinks(vec![Box::new(sink)]);
        let clone = tel.clone();
        for e in sample_events() {
            clone.emit(|| e.clone());
        }
        let got = captured.lock().unwrap();
        assert_eq!(got.len(), sample_events().len());
        let kinds: Vec<&str> = got.iter().map(|(_, e)| e.kind()).collect();
        assert_eq!(kinds[0], "campaign_started");
        assert_eq!(*kinds.last().unwrap(), "campaign_finished");
    }

    #[test]
    fn json_lines_are_balanced_and_escaped() {
        // Every variant's full line is pinned, so a dropped or renamed
        // field fails here; the awkward strings cover every escape.
        let awkward = [
            (
                CampaignEvent::CellRetried {
                    idx: 9,
                    label: "HT-H/GETM".into(),
                    attempt: 2,
                    error: "tab\there \"quoted\" back\\slash".into(),
                },
                r#"{"t_ms":42,"ev":"cell_retried","idx":9,"label":"HT-H/GETM","attempt":2,"error":"tab\u0009here \"quoted\" back\\slash"}"#,
            ),
            (
                CampaignEvent::CellFailed {
                    idx: 3,
                    label: "a\"b\\c\nd\u{7}".into(),
                    kind: "timeout",
                    error: "went \"boom\"".into(),
                    attempts: 2,
                },
                r#"{"t_ms":42,"ev":"cell_failed","idx":3,"label":"a\"b\\c\u000ad\u0007","kind":"timeout","error":"went \"boom\"","attempts":2}"#,
            ),
            (
                CampaignEvent::CellDegraded {
                    idx: 1,
                    label: "ATM/GETM".into(),
                    escalations: 4,
                    serialized_commits: 17,
                },
                r#"{"t_ms":42,"ev":"cell_degraded","idx":1,"label":"ATM/GETM","escalations":4,"serialized_commits":17}"#,
            ),
        ];
        let sample_lines = [
            r#"{"t_ms":42,"ev":"campaign_started","total":2,"workers":1,"resumed":0}"#,
            r#"{"t_ms":42,"ev":"cell_queued","idx":0,"label":"HT-H/GETM"}"#,
            r#"{"t_ms":42,"ev":"cell_started","idx":0,"label":"HT-H/GETM","attempt":1}"#,
            r#"{"t_ms":42,"ev":"cell_finished","idx":0,"label":"HT-H/GETM","cycles":1000,"commits":64,"aborts":3,"elapsed_ms":17}"#,
            r#"{"t_ms":42,"ev":"cell_cache_hit","idx":1,"label":"ATM/GETM","cycles":900}"#,
            r#"{"t_ms":42,"ev":"throughput","done":2,"total":2,"cache_hits":1,"failures":0,"cells_per_sec":12.5,"eta_ms":0}"#,
            r#"{"t_ms":42,"ev":"campaign_finished","done":2,"failed":0,"skipped":0,"elapsed_ms":20}"#,
        ];
        let pinned: Vec<(CampaignEvent, &str)> = sample_events()
            .into_iter()
            .zip(sample_lines)
            .chain(awkward)
            .collect();
        let mut kinds: Vec<&str> = pinned.iter().map(|(e, _)| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 10, "one pinned line per variant");
        for (e, want) in pinned {
            let line = e.to_json(42);
            assert_eq!(line, want);
            assert!(!line.contains('\n'), "JSONL lines must be single lines");
            // Brace balance outside strings is a cheap structural check;
            // CI's jq pass is the real validator.
            let mut depth = 0i32;
            let mut in_str = false;
            let mut esc = false;
            for c in line.chars() {
                match (in_str, esc, c) {
                    (true, true, _) => esc = false,
                    (true, false, '\\') => esc = true,
                    (true, false, '"') => in_str = false,
                    (true, false, _) => {}
                    (false, _, '"') => in_str = true,
                    (false, _, '{') => depth += 1,
                    (false, _, '}') => depth -= 1,
                    _ => {}
                }
            }
            assert_eq!(depth, 0, "unbalanced object: {line}");
            assert!(!in_str, "unterminated string: {line}");
        }
    }

    #[test]
    fn nonfinite_rates_render_as_json_safe_zero() {
        let e = CampaignEvent::Throughput {
            done: 1,
            total: 2,
            cache_hits: 0,
            failures: 0,
            cells_per_sec: f64::INFINITY,
            eta_ms: 5,
        };
        assert!(e.to_json(0).contains("\"cells_per_sec\":0.0"));
    }

    #[test]
    fn terminal_classification_matches_the_lifecycle() {
        let mut terminals = 0;
        for e in sample_events() {
            if e.is_terminal() {
                terminals += 1;
                assert!(e.cell_idx().is_some());
            }
        }
        assert_eq!(terminals, 2, "one terminal event per cell");
    }

    #[test]
    fn dashboard_renders_grid_and_vitals_in_place() {
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut sink = DashboardSink::to_writer(Box::new(Shared(buf.clone())));
        for e in sample_events() {
            sink.record(7, &e);
        }
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(text.contains("sweep   2/2"), "{text}");
        assert!(
            text.contains("#c"),
            "grid must show finished+cached: {text}"
        );
        assert!(text.contains("cache 50%"), "{text}");
        assert!(
            text.contains("\x1b["),
            "frames after the first move the cursor"
        );
        assert!(text.contains("done"), "{text}");
    }

    #[test]
    fn prom_snapshot_is_atomic_and_scrapeable() {
        let dir = std::env::temp_dir().join(format!("getm-prom-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("sweep.prom");
        let mut sink = PromSink::at(&path);
        for e in sample_events() {
            sink.record(1000, &e);
        }
        let text = std::fs::read_to_string(&path).expect("snapshot exists");
        assert!(text.contains("getm_sweep_cells_total 2\n"), "{text}");
        assert!(text.contains("getm_sweep_cells_done 2\n"), "{text}");
        assert!(text.contains("getm_sweep_cache_hits 1\n"), "{text}");
        assert!(text.contains("getm_sweep_finished 1\n"), "{text}");
        assert!(
            text.contains("# TYPE getm_sweep_cells_per_sec gauge"),
            "{text}"
        );
        // No temp file left behind: the rename completed.
        assert!(!dir.join("sweep.prom.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tally_tracks_the_lifecycle() {
        let mut t = Tally::default();
        for e in sample_events() {
            t.apply(&e);
        }
        assert_eq!(
            (t.total, t.done, t.computed, t.cache_hits, t.failures),
            (2, 2, 1, 1, 0)
        );
        assert!(t.finished);
    }
}
