//! Shard-capable execution contexts.
//!
//! The engine's per-cycle work splits into a *core side* (issue, reply
//! handling, commit sequences) and a *partition side* (VU/CU/LLC service).
//! Both sides historically ran as `&mut Engine` methods; sharded execution
//! needs each side to run over a *slice* of the machine — a contiguous run
//! of cores or partitions — with everything engine-global either borrowed
//! read-only, snapshotted, or buffered for deterministic replay at the
//! cycle barrier.
//!
//! [`CoreCtx`] and [`PartCtx`] are those slices. Their fields are named
//! exactly like the `Engine` fields the method bodies already use
//! (`self.cores`, `self.stats`, `self.wd`, ...), so the 2000-odd lines of
//! protocol code in `core_side.rs` / `partition_side.rs` moved onto them
//! nearly verbatim — the A/B and golden-trace suites pin that the move is
//! behaviour-preserving. A lead-thread phase builds one context spanning
//! the whole machine with *direct* effect sinks; a parallel phase builds one
//! context per shard with *deferred* sinks whose buffered effects the lead
//! thread replays in canonical (shard, program) order.
//!
//! Soundness of the slicing rests on [`SliceView`]: an indexed window into
//! the engine's `cores`/`parts`/memory-bank vectors that keeps *global*
//! indices (so `self.cores[c]` still means core `c`) but asserts — in
//! release builds too — that every access lands inside the shard's range.
//! Disjoint ranges can therefore alias the same underlying vector from
//! different threads without ever touching the same element.

use super::{CommitCtx, CoreState, EngineStats, Partition, Pending, UpMsg};
use crate::config::{GpuConfig, TmSystem};
use getm::CommitEntry;
use gpu_mem::{Addr, BankedMem, Crossbar, Geometry, MemImage};
use gpu_simt::LaneList;
use sim_core::history::HistoryRecorder;
use sim_core::trace::Recorder;
use sim_core::{Cycle, TokenSlab};
use std::marker::PhantomData;

use super::DownMsg;
use super::Engine;
use super::WdMode;

/// Token value used by deferred sinks in place of a real slab token; the
/// replay pass patches it with the token minted at insertion time.
pub(crate) const PLACEHOLDER_TOKEN: u64 = u64::MAX;

// ======================= sliced state views ==========================

/// A window `[lo, hi)` into a slice of `T`, indexed by *global* position.
///
/// Every access asserts (unconditionally — the assert is the soundness
/// guard, not a debugging aid) that the index lies inside the window, so
/// two views over disjoint windows of the same slice can be sent to
/// different threads: neither can reach the other's elements, making the
/// aliased base pointer safe.
pub(crate) struct SliceView<'e, T> {
    ptr: *mut T,
    lo: usize,
    hi: usize,
    _life: PhantomData<&'e mut [T]>,
}

// SAFETY: a view only ever dereferences elements in its own `[lo, hi)`
// window (asserted on every access), and `split` hands out views with
// pairwise-disjoint windows; distinct views therefore never alias.
unsafe impl<T: Send> Send for SliceView<'_, T> {}

impl<'e, T> SliceView<'e, T> {
    /// A view spanning the entire slice (lead-thread phases).
    pub fn whole(s: &'e mut [T]) -> Self {
        let hi = s.len();
        SliceView {
            ptr: s.as_mut_ptr(),
            lo: 0,
            hi,
            _life: PhantomData,
        }
    }

    /// Splits `s` into one view per `(lo, hi)` bound. Bounds must be
    /// ordered and pairwise disjoint (adjacent is fine, overlap is not);
    /// empty windows are allowed.
    pub fn split(s: &'e mut [T], bounds: &[(usize, usize)]) -> Vec<Self> {
        let len = s.len();
        let ptr = s.as_mut_ptr();
        let mut prev_hi = 0usize;
        bounds
            .iter()
            .map(|&(lo, hi)| {
                assert!(
                    lo >= prev_hi && lo <= hi && hi <= len,
                    "shard bounds [{lo}, {hi}) overlap or exceed len {len}"
                );
                prev_hi = hi;
                SliceView {
                    ptr,
                    lo,
                    hi,
                    _life: PhantomData,
                }
            })
            .collect()
    }

    /// The window's lower bound (inclusive, global index).
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// The window's upper bound (exclusive, global index).
    pub fn hi(&self) -> usize {
        self.hi
    }

    #[inline]
    fn check(&self, i: usize) {
        assert!(
            i >= self.lo && i < self.hi,
            "index {i} outside this shard's window [{}, {})",
            self.lo,
            self.hi
        );
    }
}

impl<T> std::ops::Index<usize> for SliceView<'_, T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        self.check(i);
        // SAFETY: `i` is inside this view's window (checked above); windows
        // of co-existing views are disjoint, and the `'e` borrow keeps the
        // backing slice alive and un-reallocated.
        unsafe { &*self.ptr.add(i) }
    }
}

impl<T> std::ops::IndexMut<usize> for SliceView<'_, T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        self.check(i);
        // SAFETY: as above, plus `&mut self` makes this the only live
        // reference derived from this view.
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// The core-side window into `Engine::cores`.
pub(crate) type CoresView<'e> = SliceView<'e, CoreState>;
/// The partition-side window into `Engine::parts`.
pub(crate) type PartsView<'e> = SliceView<'e, Partition>;

/// A shard's view of the banked committed memory: global addresses, routed
/// to the owning partition's bank, with the window assert rejecting any
/// address another shard owns.
pub(crate) struct MemTap<'e> {
    geom: Geometry,
    banks: SliceView<'e, MemImage>,
}

impl<'e> MemTap<'e> {
    pub fn new(geom: Geometry, banks: SliceView<'e, MemImage>) -> Self {
        MemTap { geom, banks }
    }

    #[inline]
    pub fn get(&self, addr: u64) -> u64 {
        self.banks[self.geom.partition_of(Addr(addr)) as usize].get(addr)
    }

    #[inline]
    pub fn set(&mut self, addr: u64, value: u64) {
        self.banks[self.geom.partition_of(Addr(addr)) as usize].set(addr, value);
    }
}

/// Partition-side access to the pending-token slab. Serial execution holds
/// it mutably (history capture writes version lists into contexts); sharded
/// partition phases — which only run with history off — share it read-only
/// across shards.
pub(crate) enum PendingTap<'e> {
    Mut(&'e mut TokenSlab<Pending>),
    Shared(&'e TokenSlab<Pending>),
}

impl PendingTap<'_> {
    #[inline]
    pub fn get(&self, token: u64) -> Option<&Pending> {
        match self {
            PendingTap::Mut(s) => s.get(token),
            PendingTap::Shared(s) => s.get(token),
        }
    }

    #[inline]
    pub fn get_mut(&mut self, token: u64) -> Option<&mut Pending> {
        match self {
            PendingTap::Mut(s) => s.get_mut(token),
            PendingTap::Shared(_) => {
                unreachable!("pending contexts are read-only during sharded partition phases")
            }
        }
    }
}

/// A snapshot of the watchdog state the core side reads mid-cycle, plus a
/// buffer for the abort-address notes it writes. The snapshot is safe
/// because the watchdog only changes state at window ticks *between*
/// cycles; the buffer drains into the real watchdog at the phase barrier
/// (its hot-address tally is a commutative count, so buffering is exact).
pub(crate) struct WdView<'e> {
    pub mode: WdMode,
    pub priority: Option<u64>,
    pub window: u64,
    alert: bool,
    abort_addrs: &'e mut Vec<u64>,
}

impl<'e> WdView<'e> {
    pub fn new(
        mode: WdMode,
        priority: Option<u64>,
        window: u64,
        alert: bool,
        abort_addrs: &'e mut Vec<u64>,
    ) -> Self {
        WdView {
            mode,
            priority,
            window,
            alert,
            abort_addrs,
        }
    }

    #[inline]
    pub fn alert(&self) -> bool {
        self.alert
    }

    #[inline]
    pub fn note_abort_addr(&mut self, addr: u64) {
        self.abort_addrs.push(addr);
    }
}

// ======================= deferred effects ============================

/// Which freshly-minted token a deferred up-send needs patched in before
/// injection (deferred sinks can't mint real slab tokens).
#[derive(Debug, Clone, Copy)]
pub(crate) enum TokenPatch {
    /// Message carries a token that was real at build time (or none).
    None,
    /// Patch with the token of the most recent pending-context insert.
    Pending,
    /// Patch with the token of the most recent commit-context insert.
    Commit,
}

/// One engine-global side effect a sharded core phase buffered for replay.
///
/// Replay happens on the lead thread in shard order, and shards own
/// contiguous ascending core ranges, so the concatenated buffers replay in
/// exactly the order serial execution would have performed the effects —
/// which makes slab token minting, crossbar sequencing, and store ordering
/// bit-identical to a one-shard run.
pub(crate) enum FxOp {
    /// `pending.insert(..)`.
    InsertPending(Pending),
    /// `commits_in_flight.insert(..)` plus marking the warp committing.
    InsertCommit {
        core: usize,
        warp: usize,
        ctx: CommitCtx,
    },
    /// `up.send(..)`, with the token patch to apply first.
    SendUp {
        part: usize,
        bytes: u64,
        msg: UpMsg,
        cat: &'static str,
        patch: TokenPatch,
    },
    /// A committed-memory store (plain stores apply at issue).
    MemSet { addr: u64, value: u64 },
    /// An L1-hit plain load's value fill: the values are read from the
    /// committed image *at replay*, which reproduces serial same-cycle
    /// ordering against stores issued by lower-numbered cores.
    Fill {
        core: usize,
        warp: usize,
        lanes: Vec<(u32, Addr)>,
    },
}

/// Where core-side engine-global effects go: straight into the engine
/// (lead-thread phases) or into a shard's replay buffer.
pub(crate) enum FxSink<'e> {
    Direct {
        pending: &'e mut TokenSlab<Pending>,
        commits: &'e mut TokenSlab<CommitCtx>,
        up: &'e mut Crossbar<UpMsg>,
        mem: &'e mut BankedMem,
    },
    Deferred {
        ops: &'e mut Vec<FxOp>,
    },
}

/// One buffered partition-side down-crossbar send. `idx` is the global
/// drain index of the delivery being handled and `k` the send's ordinal
/// within that handler, so sorting by `(idx, k)` recovers the exact serial
/// injection sequence.
pub(crate) struct DownSend {
    pub idx: u32,
    pub k: u32,
    pub at: Cycle,
    pub dst: usize,
    pub bytes: u64,
    pub msg: DownMsg,
    pub cat: &'static str,
}

/// Where partition-side reply sends go.
pub(crate) enum DownSink<'e> {
    Direct(&'e mut Crossbar<DownMsg>),
    Buffer {
        buf: &'e mut Vec<DownSend>,
        idx: u32,
        k: u32,
    },
}

// ========================= the contexts ==============================

/// The core-side execution context: a shard's window over the cores plus
/// everything issue/reply/commit code touches. Field names mirror the
/// `Engine` fields the method bodies were written against.
pub(crate) struct CoreCtx<'e> {
    pub cfg: &'e GpuConfig,
    pub system: TmSystem,
    pub geom: Geometry,
    pub now: Cycle,
    pub cores: CoresView<'e>,
    pub stats: &'e mut EngineStats,
    pub rec: Recorder,
    pub hist: HistoryRecorder,
    pub wd: WdView<'e>,
    /// Snapshot of the engine flag; may be set by `finish_round`. Merged
    /// back (OR) at the barrier. Parallel issue only runs on cycles where
    /// the timestamp high-water guard proves no warp can cross `ts_limit`,
    /// so the flag is constant across shards on those cycles.
    pub rollover_pending: bool,
    /// Warps retired by this context (merged into `live_warps` subtraction
    /// at the barrier; the engine counter itself is not sliceable).
    pub retired: usize,
    /// Highest warp timestamp this context wrote (feeds the engine-level
    /// rollover guard's high-water mark).
    pub ts_high_water: u64,
    pub sink: FxSink<'e>,
    pub ready_buf: &'e mut Vec<bool>,
    pub survivors_buf: &'e mut Vec<(u32, Addr, u64)>,
    pub group_buf: &'e mut Vec<(gpu_mem::Granule, LaneList)>,
    pub lane_pool: &'e mut Vec<LaneList>,
    pub value_pool: &'e mut Vec<Vec<u64>>,
    pub entry_pool: &'e mut Vec<Vec<CommitEntry>>,
    pub attempt_pool: &'e mut Vec<Vec<u32>>,
    pub word_buf: &'e mut Vec<(u64, u64)>,
}

/// The non-borrowed outcome of a core-side context, applied to the engine
/// once the context is dropped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CtxOut {
    pub rollover_pending: bool,
    pub retired: usize,
    pub ts_high_water: u64,
}

impl CoreCtx<'_> {
    /// The exclusive upper bound of this context's core window (for a
    /// whole-machine context, the core count).
    pub fn n_cores(&self) -> usize {
        self.cores.hi()
    }

    /// Captures the scalar outcome for the engine-side merge.
    pub fn out(&self) -> CtxOut {
        CtxOut {
            rollover_pending: self.rollover_pending,
            retired: self.retired,
            ts_high_water: self.ts_high_water,
        }
    }

    /// Inserts a pending context, returning its token (a placeholder under
    /// a deferred sink — sends referencing it use [`TokenPatch::Pending`]).
    pub fn insert_pending(&mut self, p: Pending) -> u64 {
        match &mut self.sink {
            FxSink::Direct { pending, .. } => pending.insert(p),
            FxSink::Deferred { ops } => {
                ops.push(FxOp::InsertPending(p));
                PLACEHOLDER_TOKEN
            }
        }
    }

    /// Inserts an in-flight commit context and marks the warp committing,
    /// returning the token (placeholder under a deferred sink; the warp's
    /// `committing` mark is set to the placeholder now — so same-cycle
    /// readiness checks see it — and patched to the real token at replay).
    pub fn insert_commit(&mut self, c: usize, w: usize, ctx: CommitCtx) -> u64 {
        let token = match &mut self.sink {
            FxSink::Direct { commits, .. } => commits.insert(ctx),
            FxSink::Deferred { ops } => {
                ops.push(FxOp::InsertCommit {
                    core: c,
                    warp: w,
                    ctx,
                });
                PLACEHOLDER_TOKEN
            }
        };
        self.cores[c].warps[w].as_mut().expect("warp").committing = Some(token);
        token
    }

    /// Sends a message on the up crossbar (at the current cycle).
    pub fn send_up(
        &mut self,
        part: usize,
        bytes: u64,
        msg: UpMsg,
        cat: &'static str,
        patch: TokenPatch,
    ) {
        let now = self.now;
        match &mut self.sink {
            FxSink::Direct { up, .. } => {
                up.send(now, part, bytes, msg, cat);
            }
            FxSink::Deferred { ops } => ops.push(FxOp::SendUp {
                part,
                bytes,
                msg,
                cat,
                patch,
            }),
        }
    }

    /// Writes a word of committed memory (deferred under a buffered sink).
    pub fn store_word(&mut self, addr: u64, value: u64) {
        match &mut self.sink {
            FxSink::Direct { mem, .. } => mem.set(addr, value),
            FxSink::Deferred { ops } => ops.push(FxOp::MemSet { addr, value }),
        }
    }

    /// Direct access to the pending slab. Reply handlers run exclusively
    /// on the lead thread (phase 2 is serial), so a deferred sink here is
    /// an engine bug.
    pub fn pending_direct(&mut self) -> &mut TokenSlab<Pending> {
        match &mut self.sink {
            FxSink::Direct { pending, .. } => pending,
            FxSink::Deferred { .. } => unreachable!("reply handlers run with a direct sink"),
        }
    }

    /// Direct access to the in-flight commit slab (reply handlers only).
    pub fn commits_direct(&mut self) -> &mut TokenSlab<CommitCtx> {
        match &mut self.sink {
            FxSink::Direct { commits, .. } => commits,
            FxSink::Deferred { .. } => unreachable!("reply handlers run with a direct sink"),
        }
    }
}

/// The partition-side execution context: a shard's window over the
/// partitions and their memory banks. Field names mirror `Engine`.
pub(crate) struct PartCtx<'e> {
    pub cfg: &'e GpuConfig,
    pub system: TmSystem,
    pub geom: Geometry,
    pub now: Cycle,
    pub n_cores: usize,
    pub parts: PartsView<'e>,
    pub mem: MemTap<'e>,
    pub pending: PendingTap<'e>,
    pub commits_in_flight: &'e TokenSlab<CommitCtx>,
    /// Core state, for history attribution only (`None` during sharded
    /// phases, which require history recording off — every use is gated on
    /// `hist.is_on()`).
    pub cores: Option<&'e [CoreState]>,
    pub stats: &'e mut EngineStats,
    pub rec: Recorder,
    pub hist: HistoryRecorder,
    pub down: DownSink<'e>,
    pub value_pool: &'e mut Vec<Vec<u64>>,
    pub entry_pool: &'e mut Vec<Vec<CommitEntry>>,
    pub attempt_pool: &'e mut Vec<Vec<u32>>,
    pub word_buf: &'e mut Vec<(u64, u64)>,
    pub line_buf: &'e mut Vec<gpu_mem::LineAddr>,
}

impl PartCtx<'_> {
    /// Tags subsequent buffered down-sends with the global drain index of
    /// the delivery about to be handled (no-op under a direct sink).
    pub fn set_delivery_index(&mut self, index: u32) {
        if let DownSink::Buffer { idx, k, .. } = &mut self.down {
            *idx = index;
            *k = 0;
        }
    }
}

// =================== engine-side construction & replay ===================

impl Engine {
    /// A core-side context spanning the whole machine with direct sinks —
    /// every phase that runs on the lead thread.
    pub(crate) fn core_ctx(&mut self) -> CoreCtx<'_> {
        CoreCtx {
            cfg: &self.cfg,
            system: self.system,
            geom: self.geom,
            now: self.now,
            cores: SliceView::whole(&mut self.cores),
            stats: &mut self.stats,
            rec: self.rec.clone(),
            hist: self.hist.clone(),
            wd: WdView::new(
                self.wd.mode,
                self.wd.priority,
                self.wd.window,
                self.wd.alert(),
                &mut self.wd_addr_buf,
            ),
            rollover_pending: self.rollover_pending,
            retired: 0,
            ts_high_water: 0,
            sink: FxSink::Direct {
                pending: &mut self.pending,
                commits: &mut self.commits_in_flight,
                up: &mut self.up,
                mem: &mut self.mem,
            },
            ready_buf: &mut self.ready_buf,
            survivors_buf: &mut self.survivors_buf,
            group_buf: &mut self.group_buf,
            lane_pool: &mut self.lane_pool,
            value_pool: &mut self.value_pool,
            entry_pool: &mut self.entry_pool,
            attempt_pool: &mut self.attempt_pool,
            word_buf: &mut self.word_buf,
        }
    }

    /// A partition-side context spanning the whole machine with a direct
    /// down-crossbar sink (phase 1 on the lead thread).
    pub(crate) fn part_ctx(&mut self) -> PartCtx<'_> {
        PartCtx {
            cfg: &self.cfg,
            system: self.system,
            geom: self.geom,
            now: self.now,
            n_cores: self.cores.len(),
            parts: SliceView::whole(&mut self.parts),
            mem: MemTap::new(self.geom, SliceView::whole(self.mem.banks_mut())),
            pending: PendingTap::Mut(&mut self.pending),
            commits_in_flight: &self.commits_in_flight,
            cores: Some(&self.cores),
            stats: &mut self.stats,
            rec: self.rec.clone(),
            hist: self.hist.clone(),
            down: DownSink::Direct(&mut self.down),
            value_pool: &mut self.value_pool,
            entry_pool: &mut self.entry_pool,
            attempt_pool: &mut self.attempt_pool,
            word_buf: &mut self.word_buf,
            line_buf: &mut self.line_buf,
        }
    }

    /// Applies a core-side context's scalar outcome and drains the
    /// watchdog abort-address notes buffered through its [`WdView`].
    pub(crate) fn apply_ctx_out(&mut self, out: CtxOut) {
        self.rollover_pending |= out.rollover_pending;
        self.live_warps -= out.retired;
        self.ts_high_water = self.ts_high_water.max(out.ts_high_water);
        if !self.wd_addr_buf.is_empty() {
            let mut buf = std::mem::take(&mut self.wd_addr_buf);
            for a in buf.drain(..) {
                self.wd.note_abort_addr(a);
            }
            self.wd_addr_buf = buf;
        }
    }

    /// Replays one shard's buffered core-side effects, in order. Tokens
    /// minted here patch into the sends that reference them; because
    /// shards replay in ascending core order and each shard buffered its
    /// effects in program order, the token sequence — a pure function of
    /// the slab's insert/remove history — matches serial execution
    /// exactly.
    pub(crate) fn replay_fx(&mut self, ops: &mut Vec<FxOp>) {
        let now = self.now;
        let mut last_pending = PLACEHOLDER_TOKEN;
        let mut last_commit = PLACEHOLDER_TOKEN;
        for op in ops.drain(..) {
            match op {
                FxOp::InsertPending(p) => {
                    last_pending = self.pending.insert(p);
                }
                FxOp::InsertCommit { core, warp, ctx } => {
                    let token = self.commits_in_flight.insert(ctx);
                    self.cores[core].warps[warp]
                        .as_mut()
                        .expect("committing warp is alive at replay")
                        .committing = Some(token);
                    last_commit = token;
                }
                FxOp::SendUp {
                    part,
                    bytes,
                    mut msg,
                    cat,
                    patch,
                } => {
                    match patch {
                        TokenPatch::None => {}
                        TokenPatch::Pending => patch_token(&mut msg, last_pending),
                        TokenPatch::Commit => patch_token(&mut msg, last_commit),
                    }
                    self.up.send(now, part, bytes, msg, cat);
                }
                FxOp::MemSet { addr, value } => self.mem.set(addr, value),
                FxOp::Fill { core, warp, lanes } => {
                    let mut lanes = lanes;
                    {
                        let slot = self.cores[core].warps[warp]
                            .as_mut()
                            .expect("loading warp is alive at replay");
                        for &(l, a) in &lanes {
                            let v = self.mem.get(a.0);
                            slot.warp.threads[l as usize].pending_result =
                                gpu_simt::OpResult::Value(v);
                        }
                    }
                    lanes.clear();
                    self.lane_pool.push(lanes);
                }
            }
        }
    }
}

/// Overwrites the correlation token of a deferred message with the real
/// token minted at replay.
fn patch_token(msg: &mut UpMsg, token: u64) {
    debug_assert_ne!(token, PLACEHOLDER_TOKEN, "patched send precedes its insert");
    match msg {
        UpMsg::GetmAccess(req) => req.token = token,
        UpMsg::TxLoadWtm { token: t, .. }
        | UpMsg::PlainLoad { token: t, .. }
        | UpMsg::Atomic { token: t, .. }
        | UpMsg::ElWriteLog { token: t, .. } => *t = token,
        UpMsg::Validate(job) => job.token = token,
        UpMsg::GetmLog(..) | UpMsg::PlainStore { .. } | UpMsg::CommitCmd { .. } => {
            unreachable!("message kind never carries a deferred token")
        }
    }
}
