//! Cycle-accurate event tracing.
//!
//! Every architectural model in the workspace can narrate what it is doing
//! as a stream of typed [`SimEvent`]s, each stamped with where and when it
//! happened ([`Stamp`]). Events flow through a [`Recorder`] handle into a
//! ring-buffered [`EventBus`]; the handle is a branch on an `Option` when
//! tracing is off, so instrumented hot paths cost nothing measurable in
//! normal runs (the event-constructing closure is never evaluated).
//!
//! Two exporters turn a captured bus into something a human can read:
//!
//! * [`export_chrome_trace`] — Chrome trace-event JSON, loadable in
//!   Perfetto or `chrome://tracing`, with one track per warp and one per
//!   memory partition.
//! * [`export_flame_summary`] — a plain-text, flamegraph-style (folded
//!   stack) cycle attribution plus event/abort-cause tallies.
//!
//! ```
//! use sim_core::trace::{Recorder, SimEvent, Stamp};
//!
//! let rec = Recorder::recording(1024);
//! rec.emit(|| (Stamp::warp(10, 0, 3), SimEvent::TxBegin));
//! assert_eq!(rec.bus().unwrap().borrow().len(), 1);
//!
//! let off = Recorder::off();
//! off.emit(|| unreachable!("disabled recorders never build events"));
//! ```

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::{self, Write};
use std::rc::Rc;

/// Why a transaction (or a single lane's access) was aborted.
///
/// This is the abort taxonomy the paper's Table IV reasons about, extended
/// with the engine-level causes the protocols add on top of the
/// validation-unit checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbortCause {
    /// A transactional load hit a granule with a newer write timestamp
    /// (write-after-read hazard detected eagerly).
    War,
    /// An access lost the lock check against a concurrent owner
    /// (write-after-write / read-after-write conflict).
    LockConflict,
    /// The stall buffer had no room to park the request, so it aborted
    /// instead of queueing.
    StallFull,
    /// The losing timestamp came from the approximate (Bloom / max-register)
    /// metadata rather than the precise table.
    Approx,
    /// Two lanes of the same warp conflicted with each other at issue.
    IntraWarp,
    /// Value-based or hazard validation failed at commit (lazy systems).
    Validation,
    /// A pre-validation broadcast doomed the transaction before commit
    /// (EAPG early abort), or it was already marked doomed on reply.
    EarlyAbort,
}

impl AbortCause {
    /// Every cause, in display order.
    pub const ALL: [AbortCause; 7] = [
        AbortCause::War,
        AbortCause::LockConflict,
        AbortCause::StallFull,
        AbortCause::Approx,
        AbortCause::IntraWarp,
        AbortCause::Validation,
        AbortCause::EarlyAbort,
    ];

    /// A short fixed label for tables and trace names.
    pub fn label(self) -> &'static str {
        match self {
            AbortCause::War => "war",
            AbortCause::LockConflict => "lock-conflict",
            AbortCause::StallFull => "stall-full",
            AbortCause::Approx => "approx",
            AbortCause::IntraWarp => "intra-warp",
            AbortCause::Validation => "validation",
            AbortCause::EarlyAbort => "early-abort",
        }
    }
}

impl fmt::Display for AbortCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where and when an event happened.
///
/// Not every coordinate applies to every event (a crossbar flit has no
/// lane); inapplicable fields hold [`Stamp::NONE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Simulated cycle.
    pub cycle: u64,
    /// SIMT core index, or [`Stamp::NONE`].
    pub core: u32,
    /// Global warp id, or [`Stamp::NONE`].
    pub warp: u32,
    /// Lane within the warp, or [`Stamp::NONE`].
    pub lane: u32,
    /// Memory partition index, or [`Stamp::NONE`].
    pub partition: u32,
}

impl Stamp {
    /// Marker for a coordinate that does not apply to an event.
    pub const NONE: u32 = u32::MAX;

    /// A stamp locating an event on a warp of a core.
    pub fn warp(cycle: u64, core: u32, warp: u32) -> Self {
        Stamp {
            cycle,
            core,
            warp,
            lane: Stamp::NONE,
            partition: Stamp::NONE,
        }
    }

    /// A stamp carrying only the cycle — for GPU-wide events (watchdog
    /// stage changes) that belong to no core, warp, or partition.
    pub fn global(cycle: u64) -> Self {
        Stamp {
            cycle,
            core: Stamp::NONE,
            warp: Stamp::NONE,
            lane: Stamp::NONE,
            partition: Stamp::NONE,
        }
    }

    /// A stamp locating an event on a memory partition.
    pub fn partition(cycle: u64, partition: u32) -> Self {
        Stamp {
            cycle,
            core: Stamp::NONE,
            warp: Stamp::NONE,
            lane: Stamp::NONE,
            partition,
        }
    }

    /// Narrows this stamp to one lane.
    pub fn with_lane(mut self, lane: u32) -> Self {
        self.lane = lane;
        self
    }

    /// Adds the partition coordinate (e.g. a warp event served by one).
    pub fn with_partition(mut self, partition: u32) -> Self {
        self.partition = partition;
        self
    }

    /// Adds the warp coordinate to a partition-side stamp.
    pub fn with_warp(mut self, core: u32, warp: u32) -> Self {
        self.core = core;
        self.warp = warp;
        self
    }
}

/// A typed simulator event. See the module docs for the exporters that
/// consume these.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A warp entered a transactional region.
    TxBegin,
    /// A warp's transactional region committed (all surviving lanes).
    TxCommit,
    /// Lanes of a warp aborted for `cause`; `lanes` counts how many.
    TxAbort {
        /// Why the abort happened.
        cause: AbortCause,
        /// Number of lanes aborted by this event.
        lanes: u32,
    },
    /// A request was parked in a validation-unit stall buffer.
    StallPark,
    /// A parked request was woken by a release.
    StallWake,
    /// A granule's metadata lock was acquired (reservation placed).
    LockAcquire,
    /// A committing warp released `granules` metadata locks.
    LockRelease {
        /// Number of granules released.
        granules: u32,
    },
    /// A packet won a crossbar port.
    Flit {
        /// Payload size in bytes.
        bytes: u64,
        /// Traffic accounting category (e.g. `"tm-access"`).
        category: &'static str,
    },
    /// A memory access was serviced by the LLC or DRAM.
    MemAccess {
        /// True if the access missed the LLC and went to DRAM.
        dram: bool,
    },
    /// A warp went to sleep for `delay` cycles of randomized backoff.
    BackoffSleep {
        /// Cycles until the warp becomes schedulable again.
        delay: u64,
    },
    /// A gauge sample (queue depth, occupancy) on a named probe.
    Probe {
        /// Probe name (e.g. `"cu-backlog"`).
        name: &'static str,
        /// Sampled value.
        value: f64,
    },
    /// The forward-progress watchdog changed degradation stage (GPU-wide;
    /// the stamp carries only the cycle).
    Watchdog {
        /// The stage the machine entered.
        stage: WatchdogStage,
    },
}

/// Degradation stages the forward-progress watchdog steps through when a
/// run stops committing (see `gputm`'s engine watchdog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WatchdogStage {
    /// Backoff windows were widened for every warp (first escalation).
    Escalated,
    /// Serialization fallback: one starving warp gets priority, the rest
    /// are throttled (the software analogue of serial-irrevocable HTM).
    Serialized,
    /// A priority commit landed and the machine stepped back toward
    /// normal concurrent execution.
    Recovered,
}

impl WatchdogStage {
    /// A short fixed label for trace names and tallies.
    pub fn label(self) -> &'static str {
        match self {
            WatchdogStage::Escalated => "escalated",
            WatchdogStage::Serialized => "serialized",
            WatchdogStage::Recovered => "recovered",
        }
    }
}

impl fmt::Display for WatchdogStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Anything that can absorb a stream of stamped events.
pub trait TraceSink {
    /// Records one event.
    fn record(&mut self, stamp: Stamp, event: SimEvent);
}

/// A bounded ring buffer of stamped events.
///
/// When the buffer is full the *oldest* events are dropped (and counted),
/// so a capture always holds the tail of the run — usually the interesting
/// part when diagnosing where time went.
#[derive(Debug, Clone, PartialEq)]
pub struct EventBus {
    capacity: usize,
    events: VecDeque<(Stamp, SimEvent)>,
    dropped: u64,
}

impl EventBus {
    /// A bus holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event bus needs room for at least one event");
        EventBus {
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates buffered events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(Stamp, SimEvent)> + '_ {
        self.events.iter()
    }

    /// Serializes the buffered events as deterministic text, one event per
    /// line — the canonical byte representation golden tests compare.
    pub fn serialize_text(&self) -> String {
        let mut out = String::new();
        for (s, e) in &self.events {
            let coord = |v: u32| -> String {
                if v == Stamp::NONE {
                    "-".to_string()
                } else {
                    v.to_string()
                }
            };
            out.push_str(&format!(
                "{} c{} w{} l{} p{} {:?}\n",
                s.cycle,
                coord(s.core),
                coord(s.warp),
                coord(s.lane),
                coord(s.partition),
                e
            ));
        }
        out
    }
}

impl TraceSink for EventBus {
    fn record(&mut self, stamp: Stamp, event: SimEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((stamp, event));
    }
}

/// The gate every instrumented hot path branches on.
///
/// A recorder is either off (the default — `emit` is a branch on a `None`
/// and the closure is never evaluated) or holds a shared handle to an
/// [`EventBus`]. Cloning is cheap and clones share the same bus, so one
/// recorder can be threaded through cores, partitions and crossbars.
#[derive(Clone, Default)]
pub struct Recorder {
    bus: Option<Rc<RefCell<EventBus>>>,
}

impl Recorder {
    /// A disabled recorder: `emit` does nothing.
    pub fn off() -> Self {
        Recorder { bus: None }
    }

    /// A recorder writing into a fresh bus of the given capacity.
    pub fn recording(capacity: usize) -> Self {
        Recorder {
            bus: Some(Rc::new(RefCell::new(EventBus::new(capacity)))),
        }
    }

    /// A recorder sharing an existing bus.
    pub fn to_bus(bus: Rc<RefCell<EventBus>>) -> Self {
        Recorder { bus: Some(bus) }
    }

    /// True when events are being captured.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.bus.is_some()
    }

    /// Records the event built by `f` — but only when tracing is on. The
    /// closure is never evaluated on the disabled path, which is what keeps
    /// instrumentation free in normal runs.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> (Stamp, SimEvent)) {
        if let Some(bus) = &self.bus {
            let (stamp, event) = f();
            bus.borrow_mut().record(stamp, event);
        }
    }

    /// The shared bus, if recording.
    pub fn bus(&self) -> Option<Rc<RefCell<EventBus>>> {
        self.bus.clone()
    }
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Recorder({})",
            if self.is_on() { "recording" } else { "off" }
        )
    }
}

/// Escapes `s` for the inside of a JSON string literal: quotes,
/// backslashes and control characters. The one JSON string escaper of
/// the workspace (the Chrome trace export and the campaign telemetry
/// JSONL both use it).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Synthetic process id for a core's warp tracks (pid 0 is reserved).
fn core_pid(core: u32) -> u64 {
    1 + core as u64
}

/// Synthetic process id for a memory partition's track.
fn partition_pid(partition: u32) -> u64 {
    1000 + partition as u64
}

/// Synthetic process id for the GPU-wide watchdog track.
const WATCHDOG_PID: u64 = 999;

/// Writes a captured bus as Chrome trace-event JSON.
///
/// The layout Perfetto shows: one process per SIMT core with one thread
/// (track) per warp carrying the transaction begin/commit/abort spans and
/// backoff sleeps, and one process per memory partition whose tracks carry
/// stall-buffer parks/wakes, lock traffic, flits and memory accesses, plus
/// counter tracks for every [`SimEvent::Probe`] gauge. Timestamps are raw
/// cycles (the `displayTimeUnit` is nominal).
pub fn export_chrome_trace(bus: &EventBus, w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    let mut named: BTreeMap<(u64, Option<u64>), String> = BTreeMap::new();
    let mut lines: Vec<String> = Vec::new();
    // In-flight transaction spans per (core, warp): Perfetto wants balanced
    // B/E pairs per tid; an abort closes the span just like a commit.
    let mut open_tx: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for (s, e) in bus.iter() {
        let ts = s.cycle;
        match e {
            SimEvent::TxBegin => {
                let (pid, tid) = (core_pid(s.core), s.warp as u64);
                named.insert((pid, None), format!("core {}", s.core));
                named.insert((pid, Some(tid)), format!("warp {}", s.warp));
                open_tx.insert((s.core, s.warp), ts);
                lines.push(format!(
                    "{{\"name\":\"tx\",\"cat\":\"tm\",\"ph\":\"B\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}}}"
                ));
            }
            SimEvent::TxCommit | SimEvent::TxAbort { .. } => {
                let (pid, tid) = (core_pid(s.core), s.warp as u64);
                named.insert((pid, None), format!("core {}", s.core));
                named.insert((pid, Some(tid)), format!("warp {}", s.warp));
                if open_tx.remove(&(s.core, s.warp)).is_some() {
                    lines.push(format!(
                        "{{\"ph\":\"E\",\"cat\":\"tm\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}}}"
                    ));
                }
                if let SimEvent::TxAbort { cause, lanes } = e {
                    lines.push(format!(
                        "{{\"name\":\"abort:{}\",\"cat\":\"tm\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"lanes\":{lanes}}}}}",
                        cause.label()
                    ));
                }
            }
            SimEvent::BackoffSleep { delay } => {
                let (pid, tid) = (core_pid(s.core), s.warp as u64);
                named.insert((pid, None), format!("core {}", s.core));
                named.insert((pid, Some(tid)), format!("warp {}", s.warp));
                lines.push(format!(
                    "{{\"name\":\"backoff\",\"cat\":\"simt\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{delay},\"pid\":{pid},\"tid\":{tid}}}"
                ));
            }
            SimEvent::StallPark
            | SimEvent::StallWake
            | SimEvent::LockAcquire
            | SimEvent::LockRelease { .. }
            | SimEvent::MemAccess { .. }
            | SimEvent::Flit { .. } => {
                let pid = partition_pid(s.partition);
                named.insert((pid, None), format!("partition {}", s.partition));
                let (name, cat, args) = match e {
                    SimEvent::StallPark => ("stall-park", "vu", String::new()),
                    SimEvent::StallWake => ("stall-wake", "vu", String::new()),
                    SimEvent::LockAcquire => ("lock-acquire", "vu", String::new()),
                    SimEvent::LockRelease { granules } => {
                        ("lock-release", "vu", format!("\"granules\":{granules}"))
                    }
                    SimEvent::MemAccess { dram } => {
                        (if *dram { "dram" } else { "llc" }, "mem", String::new())
                    }
                    SimEvent::Flit { bytes, category } => (
                        "flit",
                        "xbar",
                        format!(
                            "\"bytes\":{bytes},\"category\":\"{}\"",
                            json_escape(category)
                        ),
                    ),
                    _ => unreachable!(),
                };
                let args = if args.is_empty() {
                    String::new()
                } else {
                    format!(",\"args\":{{{args}}}")
                };
                lines.push(format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{pid},\"tid\":0{args}}}"
                ));
            }
            SimEvent::Watchdog { stage } => {
                let pid = WATCHDOG_PID;
                named.insert((pid, None), "watchdog".to_string());
                lines.push(format!(
                    "{{\"name\":\"watchdog:{}\",\"cat\":\"wd\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{ts},\"pid\":{pid},\"tid\":0}}",
                    stage.label()
                ));
            }
            SimEvent::Probe { name, value } => {
                let pid = if s.partition != Stamp::NONE {
                    named.insert(
                        (partition_pid(s.partition), None),
                        format!("partition {}", s.partition),
                    );
                    partition_pid(s.partition)
                } else {
                    named.insert((core_pid(s.core), None), format!("core {}", s.core));
                    core_pid(s.core)
                };
                lines.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"probe\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"args\":{{\"value\":{value}}}}}",
                    json_escape(name)
                ));
            }
        }
    }
    // Metadata first so viewers label tracks before data arrives.
    for ((pid, tid), name) in &named {
        let line = match tid {
            None => format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
                json_escape(name)
            ),
            Some(tid) => format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                json_escape(name)
            ),
        };
        if !first {
            writeln!(w, ",")?;
        }
        first = false;
        write!(w, "{line}")?;
    }
    for line in &lines {
        if !first {
            writeln!(w, ",")?;
        }
        first = false;
        write!(w, "{line}")?;
    }
    writeln!(w)?;
    writeln!(w, "]}}")?;
    Ok(())
}

/// Writes a plain-text, flamegraph-style cycle attribution of a captured
/// bus: folded-stack lines (`core;warp;state cycles`) a flamegraph tool can
/// fold directly, followed by event and abort-cause tallies.
pub fn export_flame_summary(bus: &EventBus, w: &mut impl Write) -> io::Result<()> {
    // Attribute tx cycles per warp from begin->commit/abort span pairs.
    let mut open: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut folded: BTreeMap<(u32, u32, &'static str), u64> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut causes: BTreeMap<AbortCause, u64> = BTreeMap::new();
    for (s, e) in bus.iter() {
        let kind = match e {
            SimEvent::TxBegin => "tx-begin",
            SimEvent::TxCommit => "tx-commit",
            SimEvent::TxAbort { .. } => "tx-abort",
            SimEvent::StallPark => "stall-park",
            SimEvent::StallWake => "stall-wake",
            SimEvent::LockAcquire => "lock-acquire",
            SimEvent::LockRelease { .. } => "lock-release",
            SimEvent::Flit { .. } => "flit",
            SimEvent::MemAccess { dram: true } => "mem-dram",
            SimEvent::MemAccess { dram: false } => "mem-llc",
            SimEvent::BackoffSleep { .. } => "backoff-sleep",
            SimEvent::Probe { .. } => "probe",
            SimEvent::Watchdog { .. } => "watchdog",
        };
        *counts.entry(kind.to_string()).or_insert(0) += 1;
        match e {
            SimEvent::TxBegin => {
                open.insert((s.core, s.warp), s.cycle);
            }
            SimEvent::TxCommit => {
                if let Some(t0) = open.remove(&(s.core, s.warp)) {
                    *folded.entry((s.core, s.warp, "tx-committed")).or_insert(0) += s.cycle - t0;
                }
            }
            SimEvent::TxAbort { cause, .. } => {
                *causes.entry(*cause).or_insert(0) += 1;
                if let Some(t0) = open.remove(&(s.core, s.warp)) {
                    *folded.entry((s.core, s.warp, "tx-aborted")).or_insert(0) += s.cycle - t0;
                }
            }
            SimEvent::BackoffSleep { delay } => {
                *folded.entry((s.core, s.warp, "backoff")).or_insert(0) += delay;
            }
            _ => {}
        }
    }
    writeln!(w, "# folded stacks (core;warp;state cycles)")?;
    for ((core, warp, state), cycles) in &folded {
        writeln!(w, "core{core};warp{warp};{state} {cycles}")?;
    }
    writeln!(w)?;
    writeln!(w, "# event counts")?;
    for (kind, n) in &counts {
        writeln!(w, "{kind:<14} {n}")?;
    }
    if !causes.is_empty() {
        writeln!(w)?;
        writeln!(w, "# abort causes")?;
        for (cause, n) in &causes {
            writeln!(w, "{:<14} {n}", cause.label())?;
        }
    }
    if bus.dropped() > 0 {
        writeln!(w)?;
        writeln!(
            w,
            "# NOTE: ring full, oldest {} events dropped",
            bus.dropped()
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_never_evaluates_the_closure() {
        let rec = Recorder::off();
        rec.emit(|| panic!("must not run"));
        assert!(!rec.is_on());
        assert!(rec.bus().is_none());
    }

    #[test]
    fn recording_captures_in_order_and_clones_share_the_bus() {
        let rec = Recorder::recording(16);
        let clone = rec.clone();
        rec.emit(|| (Stamp::warp(1, 0, 2), SimEvent::TxBegin));
        clone.emit(|| (Stamp::warp(5, 0, 2), SimEvent::TxCommit));
        let bus = rec.bus().unwrap();
        let bus = bus.borrow();
        assert_eq!(bus.len(), 2);
        let cycles: Vec<u64> = bus.iter().map(|(s, _)| s.cycle).collect();
        assert_eq!(cycles, vec![1, 5]);
    }

    #[test]
    fn json_escape_round_trips() {
        // The inverse for the escapes json_escape writes: \" \\ \uXXXX.
        fn unescape(e: &str) -> String {
            let mut out = String::new();
            let mut it = e.chars();
            while let Some(c) = it.next() {
                if c != '\\' {
                    out.push(c);
                    continue;
                }
                match it.next().unwrap() {
                    'u' => {
                        let hex: String = it.by_ref().take(4).collect();
                        let code = u32::from_str_radix(&hex, 16).unwrap();
                        out.push(char::from_u32(code).unwrap());
                    }
                    c => out.push(c),
                }
            }
            out
        }
        for s in ["", "plain", "a\"b\\c\nd\u{7}", "tab\there", "é ✓ \u{1f600}"] {
            let e = json_escape(s);
            assert!(e.chars().all(|c| c >= ' '), "{e:?}");
            assert_eq!(unescape(&e), s, "{e:?}");
        }
        assert_eq!(json_escape("q\"\\\n"), "q\\\"\\\\\\u000a");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut bus = EventBus::new(2);
        bus.record(Stamp::warp(1, 0, 0), SimEvent::TxBegin);
        bus.record(Stamp::warp(2, 0, 0), SimEvent::TxCommit);
        bus.record(Stamp::warp(3, 0, 0), SimEvent::TxBegin);
        assert_eq!(bus.len(), 2);
        assert_eq!(bus.dropped(), 1);
        assert_eq!(bus.iter().next().unwrap().0.cycle, 2);
    }

    #[test]
    fn serialize_text_is_deterministic_and_marks_missing_coords() {
        let mut bus = EventBus::new(8);
        bus.record(Stamp::partition(7, 3), SimEvent::StallPark);
        let text = bus.serialize_text();
        assert_eq!(text, "7 c- w- l- p3 StallPark\n");
    }

    #[test]
    fn chrome_export_is_valid_json_with_tracks() {
        let mut bus = EventBus::new(64);
        bus.record(Stamp::warp(10, 1, 4), SimEvent::TxBegin);
        bus.record(
            Stamp::warp(20, 1, 4),
            SimEvent::TxAbort {
                cause: AbortCause::War,
                lanes: 3,
            },
        );
        bus.record(
            Stamp::partition(15, 2),
            SimEvent::Flit {
                bytes: 64,
                category: "tm-access",
            },
        );
        bus.record(
            Stamp::partition(16, 2),
            SimEvent::Probe {
                name: "cu-backlog",
                value: 3.5,
            },
        );
        let mut out = Vec::new();
        export_chrome_trace(&bus, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"name\":\"warp 4\""));
        assert!(text.contains("\"name\":\"partition 2\""));
        assert!(text.contains("abort:war"));
        assert!(text.contains("\"ph\":\"C\""));
        // Balanced braces / brackets are a cheap structural sanity check;
        // the CI smoke test runs the output through jq for the real one.
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "unbalanced JSON objects"
        );
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn watchdog_events_export_to_their_own_track() {
        let mut bus = EventBus::new(8);
        bus.record(
            Stamp::global(500),
            SimEvent::Watchdog {
                stage: WatchdogStage::Escalated,
            },
        );
        bus.record(
            Stamp::global(900),
            SimEvent::Watchdog {
                stage: WatchdogStage::Serialized,
            },
        );
        let mut out = Vec::new();
        export_chrome_trace(&bus, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("watchdog:escalated"), "{text}");
        assert!(text.contains("watchdog:serialized"), "{text}");
        assert!(text.contains("\"name\":\"watchdog\""), "{text}");

        let mut out = Vec::new();
        export_flame_summary(&bus, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("watchdog"), "{text}");
    }

    #[test]
    fn flame_summary_attributes_cycles() {
        let mut bus = EventBus::new(64);
        bus.record(Stamp::warp(100, 0, 1), SimEvent::TxBegin);
        bus.record(Stamp::warp(180, 0, 1), SimEvent::TxCommit);
        bus.record(Stamp::warp(200, 0, 1), SimEvent::TxBegin);
        bus.record(
            Stamp::warp(250, 0, 1),
            SimEvent::TxAbort {
                cause: AbortCause::LockConflict,
                lanes: 1,
            },
        );
        bus.record(Stamp::warp(251, 0, 1), SimEvent::BackoffSleep { delay: 32 });
        let mut out = Vec::new();
        export_flame_summary(&bus, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("core0;warp1;tx-committed 80"));
        assert!(text.contains("core0;warp1;tx-aborted 50"));
        assert!(text.contains("core0;warp1;backoff 32"));
        assert!(text.contains("lock-conflict  1"));
    }
}
