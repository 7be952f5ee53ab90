//! Borrow-splitting execution contexts.
//!
//! The engine's per-cycle work splits into a *core side* (issue, reply
//! handling, commit sequences) and a *partition side* (VU/CU/LLC service).
//! Each side runs on a context that borrows exactly the engine fields it
//! touches, so the core side can mutate the cores while it sends on the
//! up crossbar and the partition side can mutate the partitions while it
//! reads the pending-token slab.
//!
//! [`CoreCtx`] and [`PartCtx`] are those contexts. Their fields are named
//! exactly like the `Engine` fields the method bodies use (`self.cores`,
//! `self.stats`, `self.wd`, ...), so the protocol code in `core_side.rs` /
//! `partition_side.rs` reads as if it were written against the engine.

use super::watchdog::WatchdogState;
use super::{CommitCtx, CoreState, DownMsg, Engine, EngineStats, Partition, Pending, UpMsg};
use crate::config::{GpuConfig, TmSystem};
use getm::CommitEntry;
use gpu_mem::{Addr, BankedMem, Crossbar, Geometry};
use gpu_simt::LaneList;
use sim_core::history::HistoryRecorder;
use sim_core::trace::Recorder;
use sim_core::{Cycle, TokenSlab};

/// The core-side execution context: the cores plus everything
/// issue/reply/commit code touches.
pub(crate) struct CoreCtx<'e> {
    pub cfg: &'e GpuConfig,
    pub system: TmSystem,
    pub geom: Geometry,
    pub now: Cycle,
    pub cores: &'e mut [CoreState],
    pub stats: &'e mut EngineStats,
    pub rec: Recorder,
    pub hist: HistoryRecorder,
    pub wd: &'e mut WatchdogState,
    /// Set by `finish_round` when a logical clock reaches `ts_limit`.
    pub rollover_pending: &'e mut bool,
    /// Decremented as warps retire.
    pub live_warps: &'e mut usize,
    pub pending: &'e mut TokenSlab<Pending>,
    pub commits_in_flight: &'e mut TokenSlab<CommitCtx>,
    pub up: &'e mut Crossbar<UpMsg>,
    pub mem: &'e mut BankedMem,
    pub ready_buf: &'e mut Vec<bool>,
    pub survivors_buf: &'e mut Vec<(u32, Addr, u64)>,
    pub group_buf: &'e mut Vec<(gpu_mem::Granule, LaneList)>,
    pub lane_pool: &'e mut Vec<LaneList>,
    pub value_pool: &'e mut Vec<Vec<u64>>,
    pub entry_pool: &'e mut Vec<Vec<CommitEntry>>,
    pub attempt_pool: &'e mut Vec<Vec<u32>>,
    pub word_buf: &'e mut Vec<(u64, u64)>,
}

impl CoreCtx<'_> {
    /// Inserts an in-flight commit context and marks the warp committing,
    /// returning the token.
    pub fn insert_commit(&mut self, c: usize, w: usize, ctx: CommitCtx) -> u64 {
        let token = self.commits_in_flight.insert(ctx);
        self.cores[c].warps[w].as_mut().expect("warp").committing = Some(token);
        token
    }

    /// Sends a message on the up crossbar (at the current cycle).
    pub fn send_up(&mut self, part: usize, bytes: u64, msg: UpMsg, cat: &'static str) {
        self.up.send(self.now, part, bytes, msg, cat);
    }
}

/// The partition-side execution context: the partitions and the committed
/// memory, plus read access to the core side for history attribution.
pub(crate) struct PartCtx<'e> {
    pub cfg: &'e GpuConfig,
    pub system: TmSystem,
    pub geom: Geometry,
    pub now: Cycle,
    pub parts: &'e mut [Partition],
    pub mem: &'e mut BankedMem,
    pub pending: &'e mut TokenSlab<Pending>,
    pub commits_in_flight: &'e TokenSlab<CommitCtx>,
    /// Core state, for history attribution only (every use is gated on
    /// `hist.is_on()`).
    pub cores: &'e [CoreState],
    pub stats: &'e mut EngineStats,
    pub rec: Recorder,
    pub hist: HistoryRecorder,
    pub down: &'e mut Crossbar<DownMsg>,
    pub value_pool: &'e mut Vec<Vec<u64>>,
    pub entry_pool: &'e mut Vec<Vec<CommitEntry>>,
    pub attempt_pool: &'e mut Vec<Vec<u32>>,
    pub word_buf: &'e mut Vec<(u64, u64)>,
    pub line_buf: &'e mut Vec<gpu_mem::LineAddr>,
}

impl Engine {
    /// The core-side context (reply and issue phases).
    pub(crate) fn core_ctx(&mut self) -> CoreCtx<'_> {
        CoreCtx {
            cfg: &self.cfg,
            system: self.system,
            geom: self.geom,
            now: self.now,
            cores: &mut self.cores,
            stats: &mut self.stats,
            rec: self.rec.clone(),
            hist: self.hist.clone(),
            wd: &mut self.wd,
            rollover_pending: &mut self.rollover_pending,
            live_warps: &mut self.live_warps,
            pending: &mut self.pending,
            commits_in_flight: &mut self.commits_in_flight,
            up: &mut self.up,
            mem: &mut self.mem,
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

    /// The partition-side context (up-delivery phase).
    pub(crate) fn part_ctx(&mut self) -> PartCtx<'_> {
        PartCtx {
            cfg: &self.cfg,
            system: self.system,
            geom: self.geom,
            now: self.now,
            parts: &mut self.parts,
            mem: &mut self.mem,
            pending: &mut self.pending,
            commits_in_flight: &self.commits_in_flight,
            cores: &self.cores,
            stats: &mut self.stats,
            rec: self.rec.clone(),
            hist: self.hist.clone(),
            down: &mut self.down,
            value_pool: &mut self.value_pool,
            entry_pool: &mut self.entry_pool,
            attempt_pool: &mut self.attempt_pool,
            word_buf: &mut self.word_buf,
            line_buf: &mut self.line_buf,
        }
    }
}
