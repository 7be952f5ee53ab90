//! The cycle-level execution engine.
//!
//! The engine owns the architectural state (cores, crossbars, memory
//! partitions, the committed memory image) and drives one workload to
//! completion under a selected TM system. Protocol *decisions* live in the
//! `getm`, `warptm`, and `fglock` crates; the engine supplies timing
//! (crossbar bandwidth/latency, LLC/DRAM service, validation-unit
//! serialization) and moves messages.
//!
//! Per simulated cycle:
//!
//! 1. up-crossbar deliveries are processed at their memory partitions
//!    (FIFO per partition), scheduling replies onto the down crossbar;
//! 2. down-crossbar deliveries are processed at their cores, unblocking
//!    warps, recording abort causes, and advancing commit state machines;
//! 3. every core issues at most one warp instruction, chosen by its
//!    greedy-then-oldest scheduler;
//! 4. the cycles of warps waiting at `TxBegin` behind the concurrency
//!    throttle are counted, and gauge probes are sampled. A warp in a
//!    transactional region books its own exec/wait cycles, at the events
//!    that can change which of the two a cycle is, so this phase does not
//!    visit it.
//!
//! The four phases run in order on the calling thread, with direct
//! effects: a message sent in one phase is in the crossbar before the next
//! handler runs.
//!
//! Everything is deterministic for a given `GpuConfig::seed`.

mod core_side;
mod partition_side;
mod watchdog;

use crate::config::{GpuConfig, TmSystem};
use crate::exec::ExecMode;
use crate::metrics::Metrics;
use fglock::{AtomicOp, AtomicUnit};
use getm::vu::GetmConfig;
use getm::{AccessRequest, CommitEntry, CommitUnit, ValidationUnit};
use gpu_mem::{
    Addr, Crossbar, Delivery, DramChannel, Geometry, Granule, LineAddr, MemImage, SetAssocCache,
};
use gpu_simt::stack::{lanes_of, LaneMask};
use gpu_simt::{Backoff, GtoScheduler, LaneList, Op, ThreadStatus, Warp};
use sim_core::history::HistoryRecorder;
use sim_core::trace::{Recorder, SimEvent, Stamp, WatchdogStage};
use sim_core::{CancelToken, Cycle, DetRng, LivelockReport, SimError, TokenSlab};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use warptm::{TcdTable, ValidationJob, WarptmValidator};
use watchdog::{WatchdogState, WdMode};
use workloads::{SyncMode, Workload};

/// Messages travelling core -> partition.
#[derive(Debug)]
pub(crate) enum UpMsg {
    /// GETM eager conflict check.
    GetmAccess(AccessRequest),
    /// GETM commit/abort log (no reply — off the critical path). The
    /// second vector tags each entry with the history-attempt id of the
    /// committing lane (aligned with the entries; `history::NO_TXN` for
    /// abort cleanup). It is empty when history recording is off; the
    /// protocol itself never looks at it.
    GetmLog(Vec<CommitEntry>, Vec<u32>),
    /// WarpTM transactional load: value fetch plus TCD last-write query.
    TxLoadWtm {
        /// Representative address.
        addr: Addr,
        /// Correlation token.
        token: u64,
    },
    /// Non-transactional load (L1 miss) — also used by FGLock data reads.
    PlainLoad {
        /// Target address.
        addr: Addr,
        /// Correlation token.
        token: u64,
    },
    /// Fire-and-forget store. The value was already applied at issue
    /// (store-buffer semantics); the message carries the address so the
    /// partition can charge LLC bandwidth.
    PlainStore {
        /// Target address.
        addr: Addr,
    },
    /// Atomic executed at the partition.
    Atomic {
        /// The operation.
        op: AtomicOp,
        /// Correlation token.
        token: u64,
    },
    /// WarpTM validation job (first round trip of a commit).
    Validate(ValidationJob),
    /// WarpTM commit/abort command (second round trip). On commit, the
    /// mask carries lanes that failed at *some* partition so their limbo
    /// writes are dropped everywhere.
    CommitCmd {
        /// Token of the validated job.
        token: u64,
        /// Commit (true) or abort every lane (false).
        commit: bool,
        /// Union of failed-lane masks across partitions.
        failed_lanes: u64,
    },
    /// WarpTM-EL single-trip commit: write log, applied then acked.
    ElWriteLog {
        /// Correlation token.
        token: u64,
        /// The writes.
        writes: Vec<(Addr, u64)>,
    },
}

/// Messages travelling partition -> core.
///
/// Loads carry the per-lane values captured *at partition processing time*
/// (aligned with the pending context's lane list), so a reply in flight
/// cannot observe writes that are logically later than the access.
#[derive(Debug)]
pub(crate) enum DownMsg {
    /// GETM access reply (success or abort) plus per-lane load values.
    GetmReply(getm::AccessReply, Vec<u64>),
    /// Load values (with the TCD last-write stamp for WarpTM tx loads).
    LoadReply {
        token: u64,
        values: Vec<u64>,
        last_write: Option<Cycle>,
    },
    /// Atomic result.
    AtomicReply { token: u64, old: u64 },
    /// WarpTM validation verdict: the lanes that failed at this partition.
    Verdict { token: u64, failed_lanes: u64 },
    /// WarpTM commit acknowledgement.
    CommitAck { token: u64 },
    /// EAPG write-set broadcast.
    Broadcast { writes: Vec<Granule> },
}

/// What a pending token is waiting for.
#[derive(Debug)]
pub(crate) enum Pending {
    /// A transactional or plain load/store access: which lanes it serves.
    Access {
        core: usize,
        warp: usize,
        /// `(lane, word address)` pairs served by this request.
        lanes: Vec<(u32, Addr)>,
        is_store: bool,
        is_tx: bool,
        /// Issue time (round-trip latency statistics).
        issued: Cycle,
        /// Memory versions observed when the partition served the access,
        /// aligned with `lanes`. Populated only while history recording is
        /// on; living inside the pending context (rather than a side map
        /// keyed by token) means dropping the context on any path —
        /// success, abort, doom — can never leak a version list.
        versions: Vec<u32>,
    },
    /// An atomic op for a single lane.
    AtomicOp { core: usize, warp: usize, lane: u32 },
}

/// A WarpTM commit attempt in flight.
#[derive(Debug)]
pub(crate) struct CommitCtx {
    pub core: usize,
    pub warp: usize,
    /// Lanes being committed through validation.
    pub lanes: Vec<u32>,
    pub pending_verdicts: u32,
    pub pending_acks: u32,
    /// Union of failed-lane masks reported so far.
    pub failed_lanes: u64,
    /// Partitions involved.
    pub parts: Vec<usize>,
}

/// Extra per-warp state the engine tracks beside `gpu_simt::Warp`.
pub(crate) struct WarpSlot {
    pub warp: Warp,
    /// Lanes whose reads so far all predate the transaction start (TCD).
    pub tcd_clean: LaneMask,
    /// Per-lane transaction start cycle (TCD reference point).
    pub tx_begin: Vec<Cycle>,
    /// Lanes an EAPG broadcast doomed (abort at next reply).
    pub doomed: LaneMask,
    /// Per-lane count of in-flight (non-blocking) transactional stores.
    pub pending_stores: Vec<u32>,
    /// Token of the WarpTM commit in flight, if any. Written only through
    /// [`WarpSlot::set_committing`].
    pub committing: Option<u64>,
    /// Observed max timestamp during the open region (GETM commit rule).
    pub obs_max_ts: u64,
    /// This warp's private backoff RNG.
    pub rng: DetRng,
    /// Global warp id.
    pub gwid: gpu_simt::GlobalWarpId,
    /// Who read and who wrote each granule this commit round (the
    /// intra-warp conflict check).
    pub granules: GranuleTable,
    /// Start of the warp's open exec/wait interval: its transactional
    /// cycles before this one are booked in [`EngineStats`].
    pub tx_since: Cycle,
}

/// One warp's intra-warp conflict table for the current commit round:
/// each granule an in-transaction lane has accessed maps to the mask of
/// lanes that read it and the mask of lanes that wrote it. A lane's bits
/// go in when its access survives the check, and the whole table is
/// cleared when the round closes, when every lane still in a transaction
/// has empty logs again. The table keeps its storage across rounds.
///
/// It answers the same question as asking each sibling's logs
/// ([`gpu_simt::TxLogs::wrote_granule`], [`gpu_simt::TxLogs::read_granule`])
/// with one lookup instead of one per sibling. An aborted lane's bits stay
/// until the round closes; the caller masks them out with its live lanes,
/// as an aborted lane's logs were skipped.
#[derive(Default)]
pub(crate) struct GranuleTable(
    HashMap<u64, (LaneMask, LaneMask), BuildHasherDefault<GranuleHasher>>,
);

impl GranuleTable {
    /// Whether lane `l`'s access to `g` conflicts with a `live` sibling's
    /// earlier access: a sibling wrote `g`, or the access is a store and a
    /// sibling read `g`.
    pub(crate) fn conflicts(&self, g: Granule, l: u32, is_store: bool, live: LaneMask) -> bool {
        let Some(&(readers, writers)) = self.0.get(&g.raw()) else {
            return false;
        };
        let touched = if is_store { writers | readers } else { writers };
        touched & live & !(1 << l) != 0
    }

    /// Records lane `l`'s access to `g`.
    pub(crate) fn record(&mut self, g: Granule, l: u32, is_store: bool) {
        let (readers, writers) = self.0.entry(g.raw()).or_default();
        if is_store {
            *writers |= 1 << l;
        } else {
            *readers |= 1 << l;
        }
    }

    /// Forgets every access (the round closed).
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

/// Multiplicative hashing for granule keys (the `FxHash` step): the table
/// is probed once per lane access, where SipHash would cost more than the
/// probe. Only lookups are observable, never iteration order, so the
/// choice of hash cannot change a simulated bit.
#[derive(Default)]
struct GranuleHasher(u64);

impl Hasher for GranuleHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl WarpSlot {
    /// The transactional `(exec, wait)` cycles from `tx_since` up to
    /// `now`. While its region is open or its commit is in flight, a warp
    /// waits in a cycle iff it sleeps through it with no response
    /// outstanding (abort backoff), and executes otherwise. Those inputs
    /// have not changed since `tx_since`: each is written only through
    /// the helpers below, which book the interval first.
    fn open_tx_cycles(&self, now: Cycle) -> (u64, u64) {
        if !self.warp.in_tx() && self.committing.is_none() {
            return (0, 0);
        }
        let wait = if self.warp.outstanding == 0 {
            self.warp.sleep_until.min(now).since(self.tx_since)
        } else {
            0
        };
        (now.since(self.tx_since) - wait, wait)
    }

    /// Whether a ready lane has `TxBegin` staged.
    fn wants_tx_begin(&self) -> bool {
        lanes_of(self.warp.lanes_in(ThreadStatus::Ready))
            .any(|l| self.warp.threads[l as usize].staged_op == Some(Op::TxBegin))
    }

    /// Books the open interval into `stats` and starts the next at `now`.
    fn book_tx_cycles(&mut self, now: Cycle, stats: &mut EngineStats) {
        let (exec, wait) = self.open_tx_cycles(now);
        stats.tx_exec_cycles += exec;
        stats.tx_wait_cycles += wait;
        self.tx_since = now;
    }

    /// Opens the transactional region for `group`.
    pub(crate) fn begin_region(&mut self, group: LaneMask, now: Cycle, stats: &mut EngineStats) {
        self.book_tx_cycles(now, stats);
        self.warp.tx_stack.begin(group);
    }

    /// Closes the commit round on the SIMT stack, returning the lanes to
    /// restart; none means the region closed.
    pub(crate) fn finish_tx_round(&mut self, now: Cycle, stats: &mut EngineStats) -> LaneMask {
        self.book_tx_cycles(now, stats);
        self.warp.tx_stack.finish_round()
    }

    /// Marks a commit in flight (`Some(token)`) or its end (`None`).
    pub(crate) fn set_committing(
        &mut self,
        token: Option<u64>,
        now: Cycle,
        stats: &mut EngineStats,
    ) {
        self.book_tx_cycles(now, stats);
        self.committing = token;
    }

    /// Sets the cycle the warp may next issue at.
    pub(crate) fn set_sleep_until(&mut self, until: Cycle, now: Cycle, stats: &mut EngineStats) {
        self.book_tx_cycles(now, stats);
        self.warp.sleep_until = until;
    }

    /// One more response outstanding.
    pub(crate) fn add_outstanding(&mut self, now: Cycle, stats: &mut EngineStats) {
        self.book_tx_cycles(now, stats);
        self.warp.outstanding += 1;
    }

    /// One outstanding response arrived.
    pub(crate) fn retire_outstanding(&mut self, now: Cycle, stats: &mut EngineStats) {
        self.book_tx_cycles(now, stats);
        self.warp.outstanding -= 1;
    }

    /// Lane `l`'s attempt aborts: the lane parks `Aborted` until the round
    /// closes, and its history attempt ends. The caller updates the SIMT
    /// stack itself (`abort_lane` mid-region, `fail_commit_lanes` at the
    /// commit point) and books the abort with `Engine::book_aborts`.
    pub(crate) fn abort_attempt(&mut self, l: u32, hist: &HistoryRecorder, now: u64) {
        self.warp.set_status(l, ThreadStatus::Aborted);
        hist.abort(self.gwid.0, l, now);
    }

    /// Lane `l`'s attempt commits: its speculative state dies (so it no
    /// longer triggers intra-warp conflicts for lanes retrying in later
    /// rounds), the commit is counted, and its history attempt ends.
    pub(crate) fn commit_attempt(
        &mut self,
        l: u32,
        stats: &mut EngineStats,
        hist: &HistoryRecorder,
        now: u64,
    ) {
        let t = &mut self.warp.threads[l as usize];
        t.logs.clear();
        t.in_tx = false;
        stats.commits += 1;
        hist.commit(self.gwid.0, l, now);
    }
}

/// One SIMT core.
pub(crate) struct CoreState {
    pub warps: Vec<Option<WarpSlot>>,
    /// Bit `w` is set iff `warps[w]` holds a warp: the one record of which
    /// slots are occupied. The per-cycle walks visit only these bits.
    pub occupied: u64,
    pub sched: GtoScheduler,
    pub l1: SetAssocCache,
    /// Slots whose warp holds a transactional-concurrency token: bit `w`
    /// is set from the warp's `TxBegin` until its region closes, so these
    /// are exactly the warps with an open region (a commit in flight
    /// keeps its region open). The token count is its popcount. Cleared
    /// only through [`CoreState::release_token`].
    pub token_holders: u64,
    /// Warps (as per-lane program vectors) waiting for a free slot.
    pub pending_warps: VecDeque<Vec<gpu_simt::BoxedProgram>>,
    /// A superset of the slots that can issue: the readiness pass walks
    /// only `occupied & awake`. The pass drops a slot it finds stalled,
    /// committing or held by the throttle, and whatever can make that
    /// warp issuable again puts it back: a reply, verdict or ack for it, a
    /// broadcast to its core, the watchdog, a completed rollover, the end
    /// of its sleep, or (for a throttled slot) a token given back.
    pub awake: u64,
    /// Slots the pass dropped while they slept: each rejoins `awake` once
    /// the clock reaches its `sleep_until`.
    pub sleepers: u64,
    /// No sleeper wakes before this cycle ([`NEVER`] without sleepers).
    pub next_wake: Cycle,
    /// Slots the pass found held at `TxBegin` by the throttle. Each holds
    /// a warp whose region is closed, with no commit in flight and no
    /// token, whose leader lane stages `TxBegin`, on a core at its limit.
    /// Such a warp waits in every cycle, and the per-cycle walks skip it.
    /// It rejoins `awake` when the core gives a token back, or when
    /// [`CoreState::wake`] or [`CoreState::wake_all`] names it.
    pub throttled: u64,
}

/// A wake cycle that never comes.
const NEVER: Cycle = Cycle(u64::MAX);

impl CoreState {
    /// The occupied slots of `mask`, in ascending slot order.
    pub(crate) fn slots_in(&self, mask: u64) -> impl Iterator<Item = &WarpSlot> {
        lanes_of(mask & self.occupied).filter_map(|w| self.warps[w as usize].as_ref())
    }

    /// The occupied slots, in ascending slot order.
    pub(crate) fn occupied_slots(&self) -> impl Iterator<Item = &WarpSlot> {
        self.slots_in(self.occupied)
    }

    /// [`CoreState::occupied_slots`], mutably.
    pub(crate) fn occupied_slots_mut(&mut self) -> impl Iterator<Item = &mut WarpSlot> {
        self.warps.iter_mut().flatten()
    }

    /// Puts slot `w` back in the readiness pass.
    pub(crate) fn wake(&mut self, w: usize) {
        self.awake |= 1 << w;
        self.throttled &= !(1 << w);
    }

    /// Puts every occupied slot back in the readiness pass.
    pub(crate) fn wake_all(&mut self) {
        self.awake = self.occupied;
        self.sleepers = 0;
        self.next_wake = NEVER;
        self.throttled = 0;
    }

    /// Takes slot `w`, held at `TxBegin` by the throttle, out of the
    /// readiness pass until the core gives a token back.
    pub(crate) fn hold_at_throttle(&mut self, w: usize) {
        self.awake &= !(1 << w);
        self.throttled |= 1 << w;
    }

    /// Tokens held.
    pub(crate) fn tx_tokens(&self) -> u32 {
        self.token_holders.count_ones()
    }

    /// Whether the core holds every token `limit` allows.
    pub(crate) fn at_limit(&self, limit: Option<u32>) -> bool {
        limit.is_some_and(|limit| self.tx_tokens() >= limit)
    }

    /// Gives a transactional-concurrency token back: every warp the
    /// throttle held may now take it.
    pub(crate) fn release_token(&mut self, w: usize) {
        self.token_holders &= !(1 << w);
        self.awake |= self.throttled;
        self.throttled = 0;
    }

    /// Drops slot `w` from the readiness pass; a warp asleep until a
    /// later cycle joins the sleepers.
    pub(crate) fn park(&mut self, w: usize, sleeping_until: Option<Cycle>) {
        self.awake &= !(1 << w);
        if let Some(wake) = sleeping_until {
            self.sleepers |= 1 << w;
            self.next_wake = self.next_wake.min(wake);
        }
    }

    /// Moves every sleeper whose sleep has ended by `now` back into
    /// `awake`. A no-op before `next_wake`.
    pub(crate) fn wake_sleepers(&mut self, now: Cycle) {
        if now < self.next_wake {
            return;
        }
        let mut next = NEVER;
        for w in lanes_of(self.sleepers) {
            match &self.warps[w as usize] {
                Some(s) if now < s.warp.sleep_until => next = next.min(s.warp.sleep_until),
                _ => {
                    self.sleepers &= !(1 << w);
                    self.awake |= 1 << w;
                }
            }
        }
        self.next_wake = next;
    }
}

/// One memory partition: LLC bank plus the TM units.
pub(crate) struct Partition {
    pub llc: SetAssocCache,
    pub vu: ValidationUnit,
    pub cu: CommitUnit,
    pub wtm: WarptmValidator,
    pub tcd: TcdTable,
    pub atomic: AtomicUnit,
    /// Validation-unit serialization point.
    pub vu_free: Cycle,
    /// Commit-unit serialization point (half-rate clock: 2 cycles/region).
    pub cu_free: Cycle,
    /// DRAM accesses performed (LLC misses).
    pub dram_accesses: u64,
    /// Per-LLC-sub-bank busy horizon ([`crate::config::MemModel::Hbm`]
    /// only; a single entry that never advances under `FermiFixed`).
    pub bank_free: Vec<Cycle>,
    /// The partition's DRAM channel timing (`Hbm` only; the fixed Fermi
    /// model charges `dram.latency` without it).
    pub dram: DramChannel,
}

/// Aggregated engine statistics (folded into [`Metrics`] at the end).
#[derive(Debug, Default)]
pub(crate) struct EngineStats {
    pub commits: u64,
    pub aborts: u64,
    /// Round-trip latency of transactional accesses (issue -> reply).
    pub access_rt: sim_core::RatioStat,
    /// VU queue delay observed by arriving requests (vu_free - now).
    pub vu_queue_delay: sim_core::RatioStat,
    /// Extra data-access latency charged to replies (LLC/DRAM component).
    pub data_latency: sim_core::RatioStat,
    /// Commit rounds per transactional region.
    pub rounds_per_region: sim_core::RatioStat,
    pub silent_commits: u64,
    pub tx_exec_cycles: u64,
    pub tx_wait_cycles: u64,
    pub max_stall_total: u64,
    pub eapg_broadcasts: u64,
    pub rollovers: u64,
    /// Distribution of VU metadata access latency (Fig. 13's percentiles).
    pub meta_latency: sim_core::LogHistogram,
    /// Lanes aborted by intra-warp conflict detection at issue.
    pub aborts_intra_warp: u64,
    /// Lanes aborted by commit-time validation (lazy systems).
    pub aborts_validation: u64,
    /// Lanes aborted early by an EAPG broadcast.
    pub eapg_early_aborts: u64,
}

/// The engine itself.
pub struct Engine {
    pub(crate) cfg: GpuConfig,
    pub(crate) system: TmSystem,
    pub(crate) geom: Geometry,
    pub(crate) now: Cycle,
    /// Committed memory image, keyed by 8-byte-aligned byte address.
    pub(crate) mem: MemImage,
    pub(crate) cores: Vec<CoreState>,
    pub(crate) parts: Vec<Partition>,
    pub(crate) up: Crossbar<UpMsg>,
    pub(crate) down: Crossbar<DownMsg>,
    pub(crate) pending: TokenSlab<Pending>,
    pub(crate) commits_in_flight: TokenSlab<CommitCtx>,
    pub(crate) stats: EngineStats,
    /// Event-trace gate: off by default (a branch on `None` per emit site),
    /// shared with both crossbars when attached.
    pub(crate) rec: Recorder,
    /// Transaction-history gate for the serializability checker, following
    /// the same zero-cost-when-off discipline as `rec`.
    pub(crate) hist: HistoryRecorder,
    /// A logical clock hit `ts_limit`: new transactions are held while the
    /// machine quiesces, then every clock and metadata table resets.
    pub(crate) rollover_pending: bool,
    /// Forward-progress watchdog (inactive for FGLock and disabled configs).
    pub(crate) wd: WatchdogState,
    /// Cooperative cancellation flag, polled every few thousand cycles.
    pub(crate) cancel: Option<CancelToken>,
    /// When set (the default), cycles in which provably nothing can happen
    /// — every warp asleep or unissuable, both crossbars quiet — are elided
    /// by jumping the clock to the next scheduled event. Purely a simulator
    /// speedup: metrics and traces are bit-identical either way (the A/B
    /// test suite pins this); off is the reference path it compares
    /// against.
    pub(crate) idle_skip: bool,
    // --- reusable scratch, hoisted out of the per-cycle hot loop ---
    /// Drain buffer for up-crossbar deliveries.
    pub(crate) up_buf: Vec<Delivery<UpMsg>>,
    /// Drain buffer for down-crossbar deliveries.
    pub(crate) down_buf: Vec<Delivery<DownMsg>>,
    /// Intra-warp conflict survivor scratch (`issue_tx_access`).
    pub(crate) survivors_buf: Vec<(u32, Addr, u64)>,
    /// Granule-coalescing scratch: groups of `(lane, addr)` per granule.
    pub(crate) group_buf: Vec<(Granule, LaneList)>,
    /// Recycled lane-list vectors (flow into `Pending::Access`, return
    /// here when the reply retires the context).
    pub(crate) lane_pool: Vec<LaneList>,
    /// Recycled load-value vectors (flow into `DownMsg` replies, return
    /// here when the core consumes them).
    pub(crate) value_pool: Vec<Vec<u64>>,
    /// Recycled commit-entry vectors (flow into `UpMsg::GetmLog`, return
    /// here after the partition applies them).
    pub(crate) entry_pool: Vec<Vec<CommitEntry>>,
    /// Recycled history-attempt-id vectors riding along `GetmLog`.
    pub(crate) attempt_pool: Vec<Vec<u32>>,
    /// Commit write-log dedup scratch: `(word address, value)` in log order.
    pub(crate) word_buf: Vec<(u64, u64)>,
    /// Validation-job line dedup scratch (`wtm_validate`).
    pub(crate) line_buf: Vec<LineAddr>,
}

impl Engine {
    /// Builds an engine for `workload` under `system`.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures, and returns
    /// [`SimError::MisalignedAddress`] if an initial-memory address is not
    /// 8-byte aligned.
    pub fn new(
        workload: &dyn Workload,
        system: TmSystem,
        cfg: &GpuConfig,
    ) -> Result<Engine, SimError> {
        cfg.validate()?;
        let geom = Geometry::new(cfg.line_bytes, cfg.granule_bytes, cfg.partitions)
            .with_interleave(cfg.interleave);
        let root_rng = DetRng::seeded(cfg.seed);

        let mut mem = MemImage::new();
        for (a, v) in workload.initial_memory() {
            check_aligned("initial memory", a)?;
            mem.set(a.0, v);
        }

        // Partition the grid into warps, round-robin across cores.
        let mode = if system.is_tm() {
            SyncMode::Tm
        } else {
            SyncMode::FgLock
        };
        let width = cfg.warp_width as usize;
        let threads = workload.thread_count();
        let n_warps = threads.div_ceil(width);
        let mut per_core: Vec<VecDeque<Vec<gpu_simt::BoxedProgram>>> =
            (0..cfg.cores).map(|_| VecDeque::new()).collect();
        for w in 0..n_warps {
            let lo = w * width;
            let hi = ((w + 1) * width).min(threads);
            let programs: Vec<gpu_simt::BoxedProgram> =
                (lo..hi).map(|tid| workload.program(tid, mode)).collect();
            per_core[w % cfg.cores as usize].push_back(programs);
        }

        let mut cores = Vec::with_capacity(cfg.cores as usize);
        for (c, mut queue) in per_core.into_iter().enumerate() {
            let mut warps: Vec<Option<WarpSlot>> = Vec::new();
            let mut occupied = 0;
            for w in 0..cfg.warps_per_core as usize {
                let slot = queue
                    .pop_front()
                    .map(|progs| make_slot(progs, c, w, cfg, &root_rng));
                occupied |= u64::from(slot.is_some()) << w;
                warps.push(slot);
            }
            cores.push(CoreState {
                warps,
                occupied,
                sched: GtoScheduler::default(),
                l1: SetAssocCache::new(cfg.l1),
                token_holders: 0,
                pending_warps: queue,
                awake: occupied,
                sleepers: 0,
                next_wake: NEVER,
                throttled: 0,
            });
        }
        let parts = (0..cfg.partitions as usize)
            .map(|p| {
                let mut vu_rng = root_rng.fork(0x9A57 + p as u64);
                Partition {
                    llc: SetAssocCache::new(cfg.llc_bank),
                    vu: ValidationUnit::new(GetmConfig { ..cfg.getm }, &mut vu_rng),
                    cu: CommitUnit::new(),
                    wtm: WarptmValidator::new(geom),
                    tcd: TcdTable::new(cfg.tcd_entries),
                    atomic: AtomicUnit::new(),
                    vu_free: Cycle::ZERO,
                    cu_free: Cycle::ZERO,
                    dram_accesses: 0,
                    bank_free: vec![Cycle::ZERO; cfg.llc_banks as usize],
                    dram: DramChannel::new(cfg.dram),
                }
            })
            .collect();

        Ok(Engine {
            cfg: cfg.clone(),
            system,
            geom,
            now: Cycle::ZERO,
            mem,
            cores,
            parts,
            up: Crossbar::new(cfg.xbar, cfg.partitions as usize),
            down: Crossbar::new(cfg.xbar, cfg.cores as usize),
            pending: TokenSlab::new(),
            commits_in_flight: TokenSlab::new(),
            stats: EngineStats::default(),
            rec: Recorder::off(),
            hist: HistoryRecorder::off(),
            rollover_pending: false,
            wd: WatchdogState::new(&cfg.watchdog, system.is_tm()),
            cancel: None,
            idle_skip: true,
            up_buf: Vec::new(),
            down_buf: Vec::new(),
            survivors_buf: Vec::new(),
            group_buf: Vec::new(),
            lane_pool: Vec::new(),
            value_pool: Vec::new(),
            entry_pool: Vec::new(),
            attempt_pool: Vec::new(),
            word_buf: Vec::new(),
            line_buf: Vec::new(),
        })
    }

    /// Does nothing: the engine always runs on the calling thread. Kept
    /// so callers written against the sharded engine still compile.
    pub fn set_exec(&mut self, _exec: ExecMode) {}

    /// Enables or disables idle skip-ahead (on by default). Exposed so the
    /// A/B equality tests and the engine benchmark can run both paths in
    /// one binary.
    pub fn set_idle_skip(&mut self, on: bool) {
        self.idle_skip = on;
    }

    /// Does nothing: there are no shards to profile, so
    /// [`Metrics::host_profile`] is always empty. Kept so callers written
    /// against the sharded engine still compile.
    pub fn set_host_profiling(&mut self, _on: bool) {}

    /// Number of in-flight request contexts the engine is tracking
    /// (pending accesses plus commit attempts). Zero after a drained run —
    /// the leak-regression tests pin that down.
    pub fn outstanding_tokens(&self) -> usize {
        self.pending.len() + self.commits_in_flight.len()
    }

    /// Attaches an event recorder to the engine and both crossbars. Events
    /// are only constructed while the recorder is on; a run with the
    /// default (off) recorder takes exactly the instrumented branches but
    /// never evaluates an event closure.
    pub fn attach_recorder(&mut self, rec: Recorder) {
        self.up.attach_recorder(rec.clone(), true);
        self.down.attach_recorder(rec.clone(), false);
        self.rec = rec;
    }

    /// Attaches a cooperative cancellation token. The engine polls it
    /// every few thousand simulated cycles and returns
    /// [`SimError::Interrupted`] once it is cancelled — the hook the sweep
    /// executor's wall-clock watchdog uses to reclaim a runaway cell.
    pub fn attach_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Attaches a transaction-history recorder. Every transactional
    /// attempt, observed read (with its memory version), applied write,
    /// and commit/abort decision of the run lands in the recorder's
    /// [`sim_core::History`] for offline serializability and opacity
    /// checking. Like tracing, recording is observational: it never
    /// changes what the simulation does.
    pub fn attach_history(&mut self, hist: HistoryRecorder) {
        self.hist = hist;
    }

    /// Detaches the history recorder (leaving recording off). If the
    /// caller holds no other clone, `HistoryRecorder::take` then yields
    /// the recorded history.
    pub fn detach_history(&mut self) -> HistoryRecorder {
        std::mem::take(&mut self.hist)
    }

    /// The committed memory image (for the verifier's sequential-oracle
    /// comparison).
    pub fn memory_image(&self) -> &MemImage {
        &self.mem
    }

    /// Runs the simulation to completion and returns the metrics.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleLimitExceeded`] if the run does not drain within
    /// the configured budget, [`SimError::Livelock`] if the forward-progress
    /// watchdog exhausts its degradation ladder without restoring commit
    /// progress, [`SimError::Interrupted`] if an attached [`CancelToken`]
    /// fires, [`SimError::ProtocolViolation`] if a reply cannot be
    /// routed to any outstanding request (an engine/protocol-model bug, not
    /// modelled behaviour), or [`SimError::MisalignedAddress`] if a memory
    /// op names an address that is not 8-byte aligned.
    pub fn run(&mut self) -> Result<Metrics, SimError> {
        while !self.drained() {
            self.tick()?;
        }
        self.wd.finalize(self.stats.commits);
        Ok(self.collect_metrics())
    }

    /// Advances the clock once: by one cycle, or over an idle span.
    fn tick(&mut self) -> Result<(), SimError> {
        let now = self.now.raw();
        if now >= self.cfg.max_cycles {
            return Err(SimError::CycleLimitExceeded {
                limit: self.cfg.max_cycles,
            });
        }
        if now >= self.wd.next_check {
            self.watchdog_tick()?;
        }
        // Poll the cancel flag on a coarse cycle mask: one atomic load
        // per 8192 cycles keeps the cost unmeasurable.
        if now & 0x1FFF == 0 {
            if let Some(tok) = &self.cancel {
                if tok.is_cancelled() {
                    return Err(SimError::Interrupted { cycle: now });
                }
            }
        }
        if self.try_idle_skip() {
            return Ok(());
        }
        self.step()
    }

    /// One cycle. See the module docs for the phase structure.
    fn step(&mut self) -> Result<(), SimError> {
        if self.rollover_pending {
            self.try_complete_rollover();
        }
        let now = self.now;
        // Phase 1: up deliveries -> partitions. The drain buffers are owned
        // by the engine and reused every cycle; they are taken out while
        // handlers borrow the engine state mutably (a handler can inject
        // new packets, never consume arrivals).
        let mut up_buf = std::mem::take(&mut self.up_buf);
        self.up.drain_due(now, &mut up_buf);
        for d in up_buf.drain(..) {
            self.handle_up(d.dst, d.payload)?;
        }
        self.up_buf = up_buf;

        // Phases 2 and 3: down deliveries -> cores, then issue.
        let mut down_buf = std::mem::take(&mut self.down_buf);
        self.down.drain_due(now, &mut down_buf);
        for d in down_buf.drain(..) {
            self.handle_down(d.dst, d.payload)?;
        }
        for c in 0..self.cores.len() {
            self.issue_core(c)?;
        }
        self.down_buf = down_buf;

        // Phase 4: statistics sampling.
        self.sample_stats(1);
        self.now += 1;
        Ok(())
    }

    /// Attempts to elide a run of cycles in which provably nothing happens.
    ///
    /// A cycle is skippable when no warp can issue (each is asleep, waiting
    /// on in-flight replies, held at `TxBegin` by the throttle, or wedged
    /// with no ready lane) and no crossbar packet arrives. The machine's next state change is then bounded by
    /// the earliest of: a sleeping warp's wake cycle, a crossbar arrival,
    /// the watchdog's next window check, the cancel-poll cadence boundary,
    /// or the cycle budget — so the clock can jump straight there.
    ///
    /// The walk below visits only the slots the throttle does not hold: a
    /// held warp stays held across the span, because only a token given
    /// back frees it, and that takes a reply or an issuing warp, neither
    /// of which an idle span has.
    ///
    /// Everything observable is re-synthesized so the jump is invisible:
    /// `sample_stats` counts the span's throttle wait cycles once, gauge
    /// probes are emitted at every 64-cycle boundary inside the span with
    /// the values they would have had there, and a warp in a region needs
    /// nothing, since it books its exec/wait cycles at its next event.
    /// The A/B tests run every workload both ways and require bit-identical
    /// metrics and byte-identical traces.
    ///
    /// Returns `true` if the clock advanced (the caller re-enters the run
    /// loop for watchdog/cancel checks at the new time).
    fn try_idle_skip(&mut self) -> bool {
        if !self.idle_skip || self.rollover_pending {
            return false;
        }
        let now = self.now;
        // Earliest future event; start from the hard caps that must not be
        // jumped over even if no machine event precedes them.
        let mut target = self
            .cfg
            .max_cycles
            .min(self.wd.next_check)
            .min((now.raw() | 0x1FFF) + 1);
        for core in &self.cores {
            // A throttled warp stays held across the span: only a token
            // given back frees it, and that takes a reply or an issuing
            // warp, neither of which an idle span has.
            for slot in core.slots_in(!core.throttled) {
                let warp = &slot.warp;
                if warp.all_finished() {
                    // Retirement (and a possible refill from the pending
                    // queue) happens on the next issue — not skippable.
                    return false;
                }
                match warp.sleeping_until(now) {
                    // Asleep: nothing changes before the wake cycle. Cap
                    // the hop there so the warp's exec/wait classification
                    // stays constant across the whole skipped span.
                    Some(wake) => target = target.min(wake.raw()),
                    // Awake with a ready lane: it can issue this cycle.
                    None if warp.any_ready() => return false,
                    // Awake but no ready lane: blocked on replies (bounded
                    // by the crossbar arrival below) or wedged; either way
                    // the warp does nothing until an external event.
                    None => {}
                }
            }
        }
        if let Some(arrive) = self.up.next_arrival() {
            target = target.min(arrive.raw());
        }
        if let Some(arrive) = self.down.next_arrival() {
            target = target.min(arrive.raw());
        }
        let span = target.saturating_sub(now.raw());
        if span == 0 {
            return false;
        }
        self.sample_stats(span);
        self.now = Cycle(target);
        true
    }

    /// One forward-progress check, run once per watchdog window.
    ///
    /// The degradation ladder: commit progress resets everything; a starved
    /// window (no commits while transactional work is pending) first widens
    /// every live warp's backoff cap, then hands commit priority to the
    /// most-aborted warp while holding everyone else at `TxBegin`
    /// (serialization fallback), and finally — if even a serialized machine
    /// cannot commit — declares livelock with a diagnostic report.
    fn watchdog_tick(&mut self) -> Result<(), SimError> {
        // The window's verdict can wake the priority warp (`wake_warp`);
        // let every warp's readiness be looked at afresh.
        self.wake_all_cores();
        let now = self.now.raw();
        self.wd.next_check = now + self.wd.window;
        let commits = self.stats.commits;
        let aborts = self.stats.aborts;
        let progressed = commits > self.wd.commits_seen;
        let aborting = aborts > self.wd.aborts_seen;
        let committed_delta = commits - self.wd.commits_seen;
        self.wd.commits_seen = commits;
        self.wd.aborts_seen = aborts;

        if progressed {
            self.wd.last_progress_cycle = now;
            if self.wd.mode == WdMode::Serialized {
                self.wd.serialized_commits += committed_delta;
                self.leave_serialized(now);
            }
            self.wd.starved_windows = 0;
            self.wd.abort_addrs.clear();
            return Ok(());
        }

        // Starvation needs transactional work to be starving: either the
        // machine is actively aborting, or some warp sits in an open region
        // (possibly asleep in an escalated backoff window). A quiet
        // non-transactional phase is neither and must not trip anything.
        let tx_pending = self.cores.iter().any(|core| {
            core.occupied_slots()
                .any(|s| s.warp.tx_stack.is_open() || s.committing.is_some())
        });
        if !aborting && !tx_pending {
            if self.wd.mode == WdMode::Serialized {
                self.leave_serialized(now);
            }
            self.wd.starved_windows = 0;
            return Ok(());
        }

        self.wd.starved_windows += 1;
        let sw = self.wd.starved_windows;

        if sw >= self.wd.escalate_after {
            self.escalate_backoff();
            if sw == self.wd.escalate_after {
                self.rec.emit(|| {
                    (
                        Stamp::global(now),
                        SimEvent::Watchdog {
                            stage: WatchdogStage::Escalated,
                        },
                    )
                });
            }
        }
        if self.wd.fallback_enabled() && sw >= self.wd.serialize_after {
            if self.wd.mode != WdMode::Serialized {
                self.wd.mode = WdMode::Serialized;
                self.wd.priority = self.pick_priority(None);
                self.rec.emit(|| {
                    (
                        Stamp::global(now),
                        SimEvent::Watchdog {
                            stage: WatchdogStage::Serialized,
                        },
                    )
                });
            } else {
                // Still starved while serialized: the priority warp itself
                // is stuck. Rotate priority so every starving warp gets a
                // solo window before livelock is declared.
                self.wd.priority = self.pick_priority(self.wd.priority);
            }
            if let Some(p) = self.wd.priority {
                self.wake_warp(p);
            }
        }
        if sw >= self.wd.livelock_after {
            return Err(SimError::Livelock(Box::new(self.livelock_report(now))));
        }
        Ok(())
    }

    /// Exits serialization fallback (progress returned or tx work drained).
    fn leave_serialized(&mut self, now: u64) {
        self.wd.mode = WdMode::Normal;
        self.wd.priority = None;
        self.rec.emit(|| {
            (
                Stamp::global(now),
                SimEvent::Watchdog {
                    stage: WatchdogStage::Recovered,
                },
            )
        });
    }

    /// Widens every live warp's backoff cap by one doubling.
    fn escalate_backoff(&mut self) {
        for core in &mut self.cores {
            for slot in core.occupied_slots_mut() {
                if !slot.warp.all_finished() {
                    slot.warp.backoff.escalate();
                }
            }
        }
        self.wd.escalations += 1;
    }

    /// Picks the warp to grant commit priority: among warps with
    /// transactional work outstanding, the one with the most lifetime
    /// aborts (ties broken by lowest global warp id). With `after` set,
    /// rotates instead: the next candidate by global warp id, wrapping.
    fn pick_priority(&self, after: Option<u64>) -> Option<u64> {
        let mut candidates: Vec<(u64, u64)> = Vec::new();
        for core in &self.cores {
            for slot in core.occupied_slots() {
                if slot.warp.all_finished() {
                    continue;
                }
                candidates.push((slot.gwid.0 as u64, slot.warp.backoff.lifetime_aborts()));
            }
        }
        candidates.sort_by_key(|&(gwid, _)| gwid);
        if let Some(prev) = after {
            let next = candidates
                .iter()
                .find(|&&(gwid, _)| gwid > prev)
                .or_else(|| candidates.first());
            return next.map(|&(gwid, _)| gwid);
        }
        candidates
            .iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|&(gwid, _)| gwid)
    }

    /// Puts every slot of every core back in the readiness pass.
    fn wake_all_cores(&mut self) {
        for core in &mut self.cores {
            core.wake_all();
        }
    }

    /// Clears a warp's backoff sleep so it can retry immediately. Only
    /// `watchdog_tick` calls this, and it has woken every core.
    fn wake_warp(&mut self, gwid: u64) {
        let now = self.now;
        for core in &mut self.cores {
            for slot in core.occupied_slots_mut() {
                if slot.gwid.0 as u64 == gwid {
                    let until = slot.warp.sleep_until.min(now);
                    slot.set_sleep_until(until, now, &mut self.stats);
                    return;
                }
            }
        }
    }

    /// Builds the diagnostic report for a declared livelock.
    fn livelock_report(&self, now: u64) -> LivelockReport {
        let mut starving: Vec<u64> = Vec::new();
        for core in &self.cores {
            for slot in core.occupied_slots() {
                if slot.warp.tx_stack.is_open() || slot.committing.is_some() {
                    starving.push(slot.gwid.0 as u64);
                }
            }
        }
        starving.sort_unstable();
        starving.truncate(64);
        LivelockReport {
            detected_cycle: now,
            last_progress_cycle: self.wd.last_progress_cycle,
            commits: self.stats.commits,
            aborts: self.stats.aborts,
            window: self.wd.window,
            hot_addrs: self.wd.hot_addrs(8),
            starving_warps: starving,
        }
    }

    /// Completes a pending timestamp rollover once the machine quiesces:
    /// no open transactional regions, no in-flight messages. Models the
    /// paper's stall-the-world protocol (Sec. V-B1): a stall message
    /// circulates the VU ring, cores ack quiesce, every metadata table and
    /// stall buffer flushes, and logical time restarts near zero.
    fn try_complete_rollover(&mut self) {
        let quiesced = self.pending.is_empty()
            && self.commits_in_flight.is_empty()
            && self.up.in_flight() == 0
            && self.down.in_flight() == 0
            && self.cores.iter().all(|c| {
                c.occupied_slots()
                    .all(|s| !s.warp.tx_stack.is_open() && s.committing.is_none())
            });
        if !quiesced {
            return;
        }
        for p in &mut self.parts {
            let stalled = p.vu.flush();
            debug_assert!(stalled.is_empty(), "quiesced machine has no stalled reqs");
        }
        // Two ring traversals (stall + resume) stall the whole machine.
        let ring = 2 * self.cfg.partitions as u64;
        let now = self.now;
        for core in &mut self.cores {
            for slot in core.occupied_slots_mut() {
                // Restart logical time at small, distinct per-warp values
                // (see make_slot) so queueing still has ties to break.
                slot.warp.warpts = (slot.gwid.0 as u64) & 0x3F;
                let until = slot.warp.sleep_until.max(now + ring);
                slot.set_sleep_until(until, now, &mut self.stats);
            }
        }
        self.stats.rollovers += 1;
        self.rollover_pending = false;
        self.wake_all_cores();
    }

    fn drained(&self) -> bool {
        self.cores
            .iter()
            .all(|c| c.occupied == 0 && c.pending_warps.is_empty())
            && self.up.in_flight() == 0
            && self.down.in_flight() == 0
            && self.pending.is_empty()
            && self.commits_in_flight.is_empty()
    }

    /// Reads the committed value of a word.
    pub(crate) fn read_mem(&self, a: Addr) -> u64 {
        self.mem.get(a.0)
    }

    /// A read-only view of the final memory (for invariant checks).
    pub fn memory_reader(&self) -> impl Fn(Addr) -> u64 + '_ {
        move |a| self.read_mem(a)
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// A human-readable snapshot of simulation state, for diagnosing
    /// livelocks when a run exceeds its cycle budget.
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "t={} live_warps={} pending={} commits_in_flight={} up={} down={}",
            self.now,
            self.cores
                .iter()
                .map(|c| c.occupied.count_ones() as usize + c.pending_warps.len())
                .sum::<usize>(),
            self.pending.len(),
            self.commits_in_flight.len(),
            self.up.in_flight(),
            self.down.in_flight(),
        );
        for (c, core) in self.cores.iter().enumerate() {
            for (w, slot) in core.warps.iter().enumerate() {
                let Some(slot) = slot else { continue };
                if slot.warp.all_finished() {
                    continue;
                }
                let statuses: Vec<String> = slot
                    .warp
                    .threads
                    .iter()
                    .enumerate()
                    .map(|(l, t)| {
                        format!("{:?}/{:?}", slot.warp.lane_status(l as u32), t.staged_op)
                    })
                    .collect();
                let _ = writeln!(
                    s,
                    "core{c} warp{w}: out={} sleep={} tx_open={} committing={:?} warpts={} lanes=[{}]",
                    slot.warp.outstanding,
                    slot.warp.sleep_until,
                    slot.warp.tx_stack.is_open(),
                    slot.committing,
                    slot.warp.warpts,
                    statuses.join(", "),
                );
            }
            let _ = writeln!(
                s,
                "core{c}: tx_tokens={} pending_warps={} occupied={:#x} awake={:#x} \
                 sleepers={:#x} throttled={:#x} next_wake={}",
                core.tx_tokens(),
                core.pending_warps.len(),
                core.occupied,
                core.awake,
                core.sleepers,
                core.throttled,
                if core.next_wake == NEVER {
                    "never".to_string()
                } else {
                    core.next_wake.to_string()
                },
            );
        }
        for (p, part) in self.parts.iter().enumerate() {
            let _ = writeln!(
                s,
                "part{p}: stalled={} vu_free={} cu_free={}",
                part.vu.stalled_requests(),
                part.vu_free,
                part.cu_free
            );
        }
        s
    }

    /// Accrues the throttle's wait cycles and the gauge probes for the
    /// `span` cycles starting at `now`. Each cycle calls this with
    /// `span == 1`; idle skip-ahead calls it once for a whole elided span,
    /// which is equivalent *because* the skip conditions guarantee every
    /// term below is constant across the span (no warp wakes, issues, or
    /// retires, and no message arrives inside it). The exec/wait cycles
    /// of warps in a region or a commit are not sampled: the warp books
    /// them itself whenever their class can change (see
    /// [`WarpSlot::open_tx_cycles`]).
    fn sample_stats(&mut self, span: u64) {
        let now = self.now;
        for core in &self.cores {
            // A warp held at TxBegin waits.
            self.stats.tx_wait_cycles += u64::from(core.throttled.count_ones()) * span;
            // So does one outside a region that the readiness pass has not
            // held (not visited since, or its TxBegin lane is not the
            // leader), but only a core at its limit can hold a warp there.
            if !core.at_limit(self.cfg.tx_concurrency) {
                continue;
            }
            for slot in core.slots_in(!core.throttled & !core.token_holders) {
                if slot.wants_tx_begin() {
                    self.stats.tx_wait_cycles += span;
                }
            }
        }
        // Fig. 15: max *total* stall occupancy across all partitions.
        let total: u64 = self
            .parts
            .iter()
            .map(|p| p.vu.stalled_requests() as u64)
            .sum();
        if total > self.stats.max_stall_total {
            self.stats.max_stall_total = total;
        }
        // Gauge probes every 64 cycles (counter tracks in the Perfetto
        // export). The whole block is skipped when tracing is off. Backlog
        // gauges count down as wall-clock approaches the unit's busy-until
        // cycle, so each boundary inside the span gets the value it would
        // have had, not a stale snapshot from the span's start.
        if self.rec.is_on() {
            let mut m = now.raw().next_multiple_of(64);
            while m < now.raw() + span {
                for (p, part) in self.parts.iter().enumerate() {
                    let vu_backlog = part.vu_free.raw().saturating_sub(m) as f64;
                    let cu_backlog = part.cu_free.raw().saturating_sub(m) as f64;
                    let stalled = part.vu.stalled_requests() as f64;
                    let up_backlog = self.up.port_backlog(p, Cycle(m)) as f64;
                    for (name, value) in [
                        ("vu-backlog", vu_backlog),
                        ("cu-backlog", cu_backlog),
                        ("stall-occupancy", stalled),
                        ("up-xbar-backlog", up_backlog),
                    ] {
                        self.rec.emit(|| {
                            (
                                Stamp::partition(m, p as u32),
                                SimEvent::Probe { name, value },
                            )
                        });
                    }
                }
                m += 64;
            }
        }
    }

    /// The transactional `(exec, wait)` cycles up to `now`: those booked
    /// so far plus every warp's open interval.
    fn tx_cycles(&self) -> (u64, u64) {
        let mut exec = self.stats.tx_exec_cycles;
        let mut wait = self.stats.tx_wait_cycles;
        for core in &self.cores {
            for slot in core.occupied_slots() {
                let (e, w) = slot.open_tx_cycles(self.now);
                exec += e;
                wait += w;
            }
        }
        (exec, wait)
    }

    fn collect_metrics(&self) -> Metrics {
        let (tx_exec_cycles, tx_wait_cycles) = self.tx_cycles();
        let mut m = Metrics {
            cycles: self.now.raw(),
            commits: self.stats.commits,
            aborts: self.stats.aborts,
            silent_commits: self.stats.silent_commits,
            tx_exec_cycles,
            tx_wait_cycles,
            xbar_bytes: self.up.total_bytes() + self.down.total_bytes(),
            eapg_broadcasts: self.stats.eapg_broadcasts,
            rollovers: self.stats.rollovers,
            mean_access_rt: self.stats.access_rt.mean(),
            mean_rounds_per_region: self.stats.rounds_per_region.mean(),
            mean_vu_queue_delay: self.stats.vu_queue_delay.mean(),
            mean_data_latency: self.stats.data_latency.mean(),
            max_stall_occupancy: self.stats.max_stall_total,
            degraded: self.wd.degraded(),
            watchdog_escalations: self.wd.escalations,
            serialized_commits: self.wd.serialized_commits,
            ..Metrics::default()
        };
        for (k, v) in self.up.categories() {
            *m.xbar_by_category.entry(k).or_insert(0) += v;
        }
        for (k, v) in self.down.categories() {
            *m.xbar_by_category.entry(k).or_insert(0) += v;
        }
        // Weighted mean of metadata access latency across partitions.
        let (mut wsum, mut wn) = (0.0, 0u64);
        let mut stall_ratio = sim_core::RatioStat::new();
        for p in &self.parts {
            let n = p.vu.stats().successes + p.vu.stats().aborts + p.vu.stats().queued;
            wsum += p.vu.mean_access_cycles() * n as f64;
            wn += n;
            m.stall_full_aborts += p.vu.stats().stall_full_aborts;
            m.stall_queued += p.vu.stats().queued;
            m.getm_aborts_load += p.vu.stats().aborts_load;
            m.getm_aborts_store += p.vu.stats().aborts_store;
            m.getm_aborts_approx += p.vu.stats().aborts_approx;
            m.getm_max_cause_ts = m.getm_max_cause_ts.max(p.vu.stats().max_cause_ts);
            m.metadata_overflow_peak = m.metadata_overflow_peak.max(p.vu.max_overflow());
            if p.vu.mean_waiters_per_addr() > 0.0 {
                stall_ratio.observe(p.vu.mean_waiters_per_addr());
            }
            let cas = p.atomic.stats();
            m.atomics += cas.cas_success + cas.cas_fail + cas.adds;
            m.cas_failures += cas.cas_fail;
        }
        m.mean_metadata_access_cycles = (wn > 0).then(|| wsum / wn as f64);
        m.mean_stall_waiters_per_addr = (stall_ratio.count() > 0).then(|| stall_ratio.mean());
        m.metadata_latency = self.stats.meta_latency.clone();
        m.aborts_intra_warp = self.stats.aborts_intra_warp;
        m.aborts_validation = self.stats.aborts_validation;
        m.eapg_early_aborts = self.stats.eapg_early_aborts;
        let (mut l1h, mut l1m, mut llch, mut llcm) = (0, 0, 0, 0);
        for c in &self.cores {
            l1h += c.l1.hits();
            l1m += c.l1.misses();
            m.l1_sector_misses += c.l1.sector_misses();
        }
        let mut part_accesses = Vec::with_capacity(self.parts.len());
        for p in &self.parts {
            llch += p.llc.hits();
            llcm += p.llc.misses();
            m.llc_sector_misses += p.llc.sector_misses();
            m.dram_accesses += p.dram_accesses;
            m.dram_queue_stalls += p.dram.queue_stalls();
            part_accesses.push(p.llc.hits() + p.llc.misses() + p.llc.sector_misses());
        }
        // Sector misses waited on a downstream fill, so they count
        // against both hit rates (zero for unsectored configs, keeping
        // the Fermi numbers bit-identical).
        m.l1_hit_rate = ratio(l1h, l1m + m.l1_sector_misses);
        m.llc_hit_rate = ratio(llch, llcm + m.llc_sector_misses);
        m.partition_imbalance = gpu_mem::partition_imbalance(&part_accesses);
        self.warn_on_partition_camping(m.partition_imbalance);
        m
    }

    /// One-time warning when the modulo interleave is camping: a run
    /// whose per-partition LLC traffic is more than 10x imbalanced is
    /// almost certainly striding across partitions (DESIGN.md §16), and
    /// `Interleave::XorHash` would spread it. Logged once per process so
    /// a sweep with hundreds of camped cells stays readable.
    fn warn_on_partition_camping(&self, imbalance: Option<f64>) {
        static WARNED: std::sync::Once = std::sync::Once::new();
        let Some(imb) = imbalance else { return };
        if self.geom.interleave() != gpu_mem::Interleave::Modulo || imb <= 10.0 {
            return;
        }
        WARNED.call_once(|| {
            eprintln!(
                "warning: per-partition access imbalance {imb:.0}x under the modulo \
                 interleave (likely power-of-two stride camping; consider \
                 Interleave::XorHash). Further occurrences are not reported."
            );
        });
    }
}

/// Rejects a byte address that is not 8-byte aligned: the memory image
/// holds whole 64-bit words, so such an address would alias its
/// neighbouring word.
pub(crate) fn check_aligned(what: &'static str, a: Addr) -> Result<(), SimError> {
    if a.0.is_multiple_of(8) {
        Ok(())
    } else {
        Err(SimError::MisalignedAddress { what, addr: a.0 })
    }
}

fn ratio(h: u64, miss: u64) -> f64 {
    if h + miss == 0 {
        0.0
    } else {
        h as f64 / (h + miss) as f64
    }
}

fn make_slot(
    programs: Vec<gpu_simt::BoxedProgram>,
    core: usize,
    warp_index: usize,
    cfg: &GpuConfig,
    root_rng: &DetRng,
) -> WarpSlot {
    let width = programs.len();
    let gwid = gpu_simt::GlobalWarpId::new(
        gpu_simt::CoreId(core as u32),
        gpu_simt::WarpIndex(warp_index as u32),
        cfg.warps_per_core,
    );
    let mut warp = Warp::new(programs);
    warp.backoff = Backoff::paper_default();
    // Initialize each warp's logical clock to a distinct value. Logical
    // timestamps are arbitrary, so any initialization is consistent; with
    // all warps tied at zero, every granule conflict degenerates into
    // abort-based elimination (ties can never queue in the stall buffer),
    // whereas distinct clocks let logically-later requests queue behind
    // the owner exactly as the protocol intends.
    warp.warpts = gwid.0 as u64;
    WarpSlot {
        warp,
        tcd_clean: LaneMask::MAX,
        tx_begin: vec![Cycle::ZERO; width],
        doomed: 0,
        pending_stores: vec![0; width],
        committing: None,
        obs_max_ts: 0,
        rng: root_rng.fork(0xAB0F ^ (gwid.0 as u64) << 8),
        gwid,
        granules: GranuleTable::default(),
        tx_since: Cycle::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_simt::stack::full_mask;
    use workloads::suite::{Benchmark, Scale};

    /// `try_idle_skip` refuses to move the clock when the flag is off, and
    /// refuses on a freshly built engine even when it is on: at cycle zero
    /// every warp is awake with work ready, so there is no idle span to
    /// jump.
    #[test]
    fn idle_skip_bails_when_disabled_or_work_is_ready() {
        let cfg = GpuConfig::tiny_test();
        let w = Benchmark::Atm.build(Scale::Fast);
        let mut e = Engine::new(w.as_ref(), TmSystem::Getm, &cfg).expect("engine builds");
        e.set_idle_skip(false);
        assert!(!e.try_idle_skip(), "disabled skip must never fire");
        assert_eq!(e.now, Cycle::ZERO);
        e.set_idle_skip(true);
        assert!(
            !e.try_idle_skip(),
            "skip must not fire while warps have ready work"
        );
        assert_eq!(e.now, Cycle::ZERO);
    }

    /// Steps a full 64-slot core one cycle at a time and checks, after
    /// every cycle, that its `occupied` mask has exactly the bits of its
    /// occupied slots and that no core holds queued warps beside a free
    /// slot. The run goes through every phase of a slot's life:
    /// all 64 slots full with 36 warps queued, refills from the queue as
    /// warps retire, and then slots emptying until the core drains.
    #[test]
    fn occupancy_masks_track_the_slots_every_cycle() {
        let mut cfg = GpuConfig::tiny_test();
        cfg.cores = 1;
        cfg.warps_per_core = 64;
        cfg.warp_width = 1;
        let w = workloads::atm::Atm::new(64, 100, 2, 5);
        for system in TmSystem::ALL {
            let mut e = Engine::new(&w, system, &cfg).expect("engine builds");
            e.set_idle_skip(false);
            let core = &e.cores[0];
            assert_eq!((core.occupied, core.pending_warps.len()), (u64::MAX, 36));
            while !e.drained() {
                e.tick().expect("cycle runs");
                let core = &e.cores[0];
                let slots = (0..64).filter(|&w| core.warps[w].is_some());
                let want = slots.fold(0u64, |m, w| m | 1 << w);
                assert_eq!(core.occupied, want, "{system} at {}", e.now);
                // A slot empties only once its core's queue is empty, and
                // nothing refills the queue: idle skip need not check for
                // a queued warp waiting on a free slot.
                for core in &e.cores {
                    let full = full_mask(core.warps.len() as u32);
                    assert!(
                        core.pending_warps.is_empty() || core.occupied == full,
                        "{system} at {}: queued warps beside a free slot",
                        e.now
                    );
                }
            }
        }
    }

    /// The per-warp exec/wait walk that sampled every occupied slot at the
    /// end of each cycle, kept as the reference for the event booking:
    /// the `(exec, wait)` cycles of the `span` cycles from `at`, in the
    /// engine's state at the end of the tick that covered them.
    fn walked_tx_cycles(e: &Engine, at: Cycle, span: u64) -> (u64, u64) {
        let (mut exec, mut wait) = (0, 0);
        for core in &e.cores {
            let throttling = core.at_limit(e.cfg.tx_concurrency);
            for slot in core.occupied_slots() {
                if slot.warp.in_tx() || slot.committing.is_some() {
                    if at < slot.warp.sleep_until && slot.warp.outstanding == 0 {
                        wait += span;
                    } else {
                        exec += span;
                    }
                } else if throttling && slot.warp.any_ready() && slot.wants_tx_begin() {
                    wait += span;
                }
            }
        }
        (exec, wait)
    }

    /// Why throttled slot `s` of `core` breaks the rule that it holds a
    /// warp with its region closed, no commit in flight and no token, its
    /// leader lane staging `TxBegin`, on a core at its limit; `None` if it
    /// keeps it.
    fn throttle_breach(core: &CoreState, s: u32, limit: Option<u32>) -> Option<&'static str> {
        let Some(slot) = core.warps[s as usize].as_ref() else {
            return Some("the slot is empty");
        };
        let warp = &slot.warp;
        let leader = lanes_of(warp.lanes_in(ThreadStatus::Ready)).next();
        if warp.tx_stack.is_open() {
            Some("its region is open")
        } else if slot.committing.is_some() {
            Some("its commit is in flight")
        } else if core.token_holders & (1 << s) != 0 {
            Some("it holds a token")
        } else if leader.is_none_or(|l| warp.threads[l as usize].staged_op != Some(Op::TxBegin)) {
            Some("its leader lane does not stage TxBegin")
        } else if !core.at_limit(limit) {
            Some("its core is below the limit")
        } else {
            None
        }
    }

    /// Runs `w` under `system` on `cfg` and checks after every tick that
    /// - each occupied slot with a ready lane and no commit in flight is
    ///   awake, a sleeper whose core wakes no later than it does, or
    ///   throttled;
    /// - every throttled slot keeps the throttle's rule
    ///   ([`throttle_breach`]);
    /// - the booked exec/wait cycles, open intervals included, equal what
    ///   the per-warp walk ([`walked_tx_cycles`]) has summed so far.
    ///
    /// Returns the number of ticks that ended with a throttled slot.
    fn assert_engine_invariants(w: &dyn Workload, system: TmSystem, cfg: &GpuConfig) -> u64 {
        let mut e = Engine::new(w, system, cfg).expect("engine builds");
        let mut walked = (0, 0);
        let mut held_ticks = 0;
        while !e.drained() {
            let at = e.now;
            e.tick()
                .unwrap_or_else(|err| panic!("{} under {system}: {err}", w.name()));
            let (exec, wait) = walked_tx_cycles(&e, at, e.now - at);
            walked = (walked.0 + exec, walked.1 + wait);
            assert_eq!(
                e.tx_cycles(),
                walked,
                "{} under {system} at {}: booked (exec, wait) cycles differ from the walk's",
                w.name(),
                e.now
            );
            held_ticks += u64::from(e.cores.iter().any(|core| core.throttled != 0));
            for (c, core) in e.cores.iter().enumerate() {
                for s in lanes_of(core.throttled) {
                    if let Some(why) = throttle_breach(core, s, cfg.tx_concurrency) {
                        panic!(
                            "{} under {system} at {}: core {c} slot {s} is throttled, but {why}",
                            w.name(),
                            e.now
                        );
                    }
                }
                for s in lanes_of(core.occupied) {
                    let slot = core.warps[s as usize].as_ref().expect("occupied");
                    if !slot.warp.any_ready() || slot.committing.is_some() {
                        continue;
                    }
                    let bit = 1 << s;
                    let covered = core.awake & bit != 0
                        || core.throttled & bit != 0
                        || (core.sleepers & bit != 0 && core.next_wake <= slot.warp.sleep_until);
                    assert!(
                        covered,
                        "{} under {system} at {}: core {c} slot {s} can issue \
                         but is neither awake, a due sleeper nor throttled",
                        w.name(),
                        e.now
                    );
                }
            }
        }
        held_ticks
    }

    /// The readiness pass walks only awake slots, so a warp that can issue
    /// must never be missing from `awake` unless the throttle holds it;
    /// and the exec/wait cycles booked at warp events must be the ones a
    /// walk over every warp in every cycle sums
    /// ([`assert_engine_invariants`]). Every benchmark runs under every
    /// system, FGLock included, on the unthrottled and the throttled tiny
    /// machines, and so does a livelock-shaped workload under a watchdog
    /// tight enough to serialize the machine and wake the priority warp
    /// out of its backoff.
    #[test]
    fn awake_masks_cover_every_issuable_warp_every_cycle() {
        // The tiny machine as is (its 4 warps a core never reach the
        // inherited limit of 8) and at limits of 1 and 2, where warps
        // queue at TxBegin behind the throttle.
        let tiny = GpuConfig::tiny_test();
        let machines = [
            tiny.clone(),
            tiny.clone().with_concurrency(Some(1)),
            tiny.with_concurrency(Some(2)),
        ];
        for cfg in machines {
            for b in Benchmark::ALL {
                let w = b.build(Scale::Fast);
                for system in TmSystem::ALL {
                    assert_engine_invariants(w.as_ref(), system, &cfg);
                }
            }
        }
        let mut cfg = GpuConfig::tiny_test();
        cfg.watchdog = crate::config::WatchdogConfig {
            enabled: true,
            window: 50,
            escalate_after: 1,
            serialize_after: 2,
            livelock_after: 100_000,
        };
        let crossfire =
            workloads::fuzz::Fuzz::new(workloads::fuzz::FuzzShape::Livelock, 16, 3, 0xD06);
        for system in TmSystem::ALL {
            assert_engine_invariants(&crossfire, system, &cfg);
        }
    }

    /// One warp on one core, lane `l` running `scripts[l]` (no initial
    /// memory, no invariant): a harness for pinning intra-warp decisions.
    struct Scripted(Vec<Vec<Op>>);

    impl Workload for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn initial_memory(&self) -> Vec<(Addr, u64)> {
            Vec::new()
        }
        fn thread_count(&self) -> usize {
            self.0.len()
        }
        fn program(&self, tid: usize, _mode: SyncMode) -> gpu_simt::BoxedProgram {
            Box::new(gpu_simt::program::ScriptProgram::new(self.0[tid].clone()))
        }
        fn check(&self, _mem: &dyn Fn(Addr) -> u64) -> Result<(), String> {
            Ok(())
        }
    }

    /// Runs `scripts` as one warp under each transactional system and
    /// checks that every lane commits once and that exactly `want` lane
    /// attempts abort on an intra-warp conflict.
    fn assert_intra_warp_aborts(case: &str, scripts: Vec<Vec<Op>>, want: u64) {
        let mut cfg = GpuConfig::tiny_test();
        cfg.cores = 1;
        cfg.warps_per_core = 1;
        let lanes = scripts.len() as u64;
        let w = Scripted(scripts);
        for system in [
            TmSystem::Getm,
            TmSystem::WarpTmLL,
            TmSystem::Eapg,
            TmSystem::WarpTmEL,
        ] {
            let mut e = Engine::new(&w, system, &cfg).expect("engine builds");
            let m = e
                .run()
                .unwrap_or_else(|err| panic!("{case} under {system}: {err}"));
            assert_eq!(m.commits, lanes, "{case} under {system}: commits");
            assert_eq!(
                m.aborts_intra_warp, want,
                "{case} under {system}: intra-warp aborts"
            );
        }
    }

    // Two words of one 32-byte granule, and a word of another.
    const A: Addr = Addr(0x1000);
    const A2: Addr = Addr(0x1008);
    const B: Addr = Addr(0x2000);

    /// Lane 0's read issues first (the leader's op kind goes first), so
    /// lane 1's store to the same granule is the later accessor and aborts.
    #[test]
    fn intra_warp_read_then_write_aborts_the_writer() {
        use Op::*;
        let scripts = vec![
            vec![TxBegin, TxLoad(A), TxCommit],
            vec![TxBegin, TxStore(A2, 1), TxCommit],
        ];
        assert_intra_warp_aborts("read then write", scripts, 1);
    }

    /// Lane 0's store issues first, so lane 1's read of the granule aborts.
    #[test]
    fn intra_warp_write_then_read_aborts_the_reader() {
        use Op::*;
        let scripts = vec![
            vec![TxBegin, TxStore(A, 1), TxCommit],
            vec![TxBegin, TxLoad(A2), TxCommit],
        ];
        assert_intra_warp_aborts("write then read", scripts, 1);
    }

    /// Reads never conflict with reads, in one group or across two.
    #[test]
    fn intra_warp_read_read_does_not_abort() {
        use Op::*;
        let scripts = vec![
            vec![TxBegin, TxLoad(A), TxCommit],
            vec![TxBegin, TxLoad(A), TxCommit],
            vec![TxBegin, Compute(1), TxLoad(A2), TxCommit],
        ];
        assert_intra_warp_aborts("read-read", scripts, 0);
    }

    /// Lane 1 writes `A`, then aborts on `B` (lane 0 read it first). Its
    /// write of `A` stays in its log, but an aborted lane is dead for the
    /// round, so lane 2's later read of `A` survives: one abort, not two.
    #[test]
    fn intra_warp_aborted_lanes_write_does_not_kill_a_later_reader() {
        use Op::*;
        let scripts = vec![
            vec![TxBegin, TxLoad(B), TxCommit],
            vec![TxBegin, TxStore(A, 1), TxStore(B, 2), TxCommit],
            vec![TxBegin, Compute(1), TxLoad(A2), TxCommit],
        ];
        assert_intra_warp_aborts("aborted writer", scripts, 1);
    }

    /// Lane 1 aborts on lane 0's store in the first round; lane 0 commits.
    /// Lane 1's retry reads and writes the same granule in the next round
    /// and is not killed by the committed lane's old accesses.
    #[test]
    fn intra_warp_retry_is_not_killed_by_a_committed_lanes_accesses() {
        use Op::*;
        let scripts = vec![
            vec![TxBegin, TxLoad(A2), TxStore(A, 1), TxCommit],
            vec![TxBegin, Compute(1), TxLoad(A), TxStore(A2, 2), TxCommit],
        ];
        assert_intra_warp_aborts("retry after commit", scripts, 1);
    }

    /// A throttled warp's own reply takes it off the throttled mask. At a
    /// limit of 1, warp 0 holds the token through a long compute. Warp 1
    /// issues lane 0's load, and the throttle then holds it on lane 1's
    /// `TxBegin`. When the load returns, lane 0 leads again with a
    /// compute op, which issues: had the reply left the throttled bit
    /// set, the warp would sit in the mask with a leader that does not
    /// stage `TxBegin`.
    #[test]
    fn a_reply_takes_its_warp_off_the_throttled_mask() {
        use Op::*;
        let mut cfg = GpuConfig::tiny_test().with_concurrency(Some(1));
        cfg.cores = 1;
        cfg.warps_per_core = 2;
        cfg.warp_width = 2;
        let w = Scripted(vec![
            vec![TxBegin, Compute(500), TxCommit],
            vec![TxBegin, Compute(500), TxCommit],
            vec![Load(B), Compute(1), TxBegin, TxCommit],
            vec![TxBegin, TxCommit],
        ]);
        for system in [TmSystem::Getm, TmSystem::WarpTmLL] {
            let held = assert_engine_invariants(&w, system, &cfg);
            assert!(held > 0, "{system}: the throttle never held warp 1");
        }
    }
}
