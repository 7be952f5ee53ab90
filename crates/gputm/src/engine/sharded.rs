//! The lockstep execution loop behind [`Engine::run`].
//!
//! Cores and memory partitions are split into contiguous index ranges —
//! shards — that advance in cycle lockstep on a pool of host threads. All
//! cross-shard traffic is buffered during a phase and applied by the lead
//! thread at the phase barrier in *canonical order* (ascending global
//! delivery index for partition replies, ascending core order for issue
//! effects), which makes every observable — metrics, traces, final memory,
//! watchdog decisions — bit-identical at any thread count.
//! `tests/determinism.rs` pins that equality.
//!
//! Every run goes through this loop. A run has one shard when the mode is
//! [`crate::ExecMode::Serial`] or when an observer needs serial program
//! order (event tracing, history recording, WarpTM-EL; see
//! [`Engine::shard_count`]). One shard spawns no worker thread, skips the
//! scratch-pool top-up, and takes the lead-thread branch of every phase:
//! that *is* the serial reference execution.
//!
//! A cycle has four phases:
//!
//! 1. **Partition phase** (parallel by partition): up-crossbar deliveries
//!    are drained once on the lead, tagged with their global drain index,
//!    and routed to the shard owning the destination partition. Handlers
//!    mutate only their own partitions and memory banks; replies are
//!    buffered as [`DownSend`]s and injected at the barrier sorted by
//!    `(delivery index, send ordinal)` — the exact serial sequence. Cycles
//!    with only a few deliveries, and one-shard runs, skip the fan-out and
//!    run this phase on the lead (both paths are exact, so adaptivity is
//!    free).
//! 2. **Reply phase** (lead): down-crossbar deliveries run on the lead
//!    with a direct whole-machine context. Reply handlers consume slab
//!    tokens and recycle buffers — global mutations that are cheap (a few
//!    deliveries per cycle) but order-sensitive.
//! 3. **Issue phase** (parallel by core): each shard issues its cores with
//!    a *deferred* effect sink; slab inserts, up-sends, and committed-memory
//!    stores replay on the lead in ascending core order, reproducing the
//!    serial token and injection sequence. One-shard runs issue on the lead
//!    with a direct sink, and near a timestamp rollover every run does (see
//!    [`Engine::ts_guard_forces_serial`]).
//! 4. **Sampling** (lead): per-warp statistics accrue on the lead.
//!
//! Per-shard statistics accumulate in shard-local [`EngineStats`] blocks
//! and fold into the engine's block before every observation point
//! (watchdog ticks, finalization) — every constituent is a sum, max, or
//! mean of exactly-representable integers, so folding is order-exact.

use super::ctx::{
    CoreCtx, CtxOut, DownSend, DownSink, FxOp, FxSink, MemTap, PartCtx, PendingTap, SliceView,
    WdView,
};
use super::pool::WorkerPool;
use super::profiler::HostProfiler;
use super::{Engine, EngineStats, UpMsg};
use crate::metrics::Metrics;
use getm::CommitEntry;
use gpu_mem::{Addr, Delivery};
use gpu_simt::LaneList;
use sim_core::history::HistoryRecorder;
use sim_core::trace::Recorder;
use sim_core::SimError;

/// Below this many same-cycle up deliveries the partition phase stays on
/// the lead thread: the fan-out costs more than the handlers.
const UP_PAR_THRESHOLD: usize = 8;

/// Safety margin for the timestamp-rollover guard: the largest amount any
/// warp's logical clock can grow in one cycle is a small constant (commit
/// advances it by 1 past the observed max; an abort restart by at most 8),
/// so staying this far under `ts_limit` proves a parallel issue phase can
/// never arm a rollover mid-cycle.
const TS_GUARD_MARGIN: u64 = 1 << 16;

/// Scratch-pool replenish targets per shard (vectors are recycled through
/// the engine's reservoir pools on the lead; each cycle tops shard pools up
/// to these levels and returns the excess).
const POOL_TARGET_LANES: usize = 8;
const POOL_TARGET_VALUES: usize = 8;
const POOL_TARGET_ENTRIES: usize = 4;

/// How cores and partitions map onto shards.
struct ShardPlan {
    /// `[lo, hi)` core range per shard (contiguous, ascending, may be empty).
    core_bounds: Vec<(usize, usize)>,
    /// `[lo, hi)` partition range per shard.
    part_bounds: Vec<(usize, usize)>,
    /// Owning shard of each partition.
    shard_of_part: Vec<usize>,
}

impl ShardPlan {
    fn new(threads: usize, n_cores: usize, n_parts: usize) -> ShardPlan {
        let core_bounds = ranges(n_cores, threads);
        let part_bounds = ranges(n_parts, threads);
        let mut shard_of_part = vec![0usize; n_parts];
        for (s, &(lo, hi)) in part_bounds.iter().enumerate() {
            shard_of_part[lo..hi].fill(s);
        }
        ShardPlan {
            core_bounds,
            part_bounds,
            shard_of_part,
        }
    }
}

/// Splits `n` items into `k` contiguous ranges differing in size by at most
/// one (earlier ranges take the remainder; trailing ranges may be empty
/// when `k > n`).
fn ranges(n: usize, k: usize) -> Vec<(usize, usize)> {
    let chunk = n / k;
    let rem = n % k;
    let mut lo = 0;
    (0..k)
        .map(|i| {
            let hi = lo + chunk + usize::from(i < rem);
            let r = (lo, hi);
            lo = hi;
            r
        })
        .collect()
}

/// Per-shard mutable state: buffered effects, shard-local statistics, and
/// the scratch vectors the execution contexts reuse across cycles.
#[derive(Default)]
struct ShardState {
    /// Shard-local statistics, folded into the engine block lazily.
    stats: EngineStats,
    /// Deferred core-side effects (issue phase), replayed in shard order.
    fx: Vec<FxOp>,
    /// Up deliveries routed to this shard, tagged with global drain index.
    up_deliv: Vec<(u32, Delivery<UpMsg>)>,
    /// Buffered partition-side replies, merged and sorted at the barrier.
    down_sends: Vec<DownSend>,
    /// Watchdog abort-address notes (commutative tally — order-free).
    wd_addrs: Vec<u64>,
    /// First error this shard hit, with the global index it happened at.
    err: Option<(u32, SimError)>,
    /// Issue-phase scalar outcome, merged at the barrier.
    out: Option<CtxOut>,
    /// Work nanoseconds this shard's job measured in the current parallel
    /// phase window (profiling only; taken by the lead at the barrier).
    win_work_ns: u64,
    // Context scratch (mirrors the engine-level reservoir fields).
    ready_buf: Vec<bool>,
    survivors_buf: Vec<(u32, Addr, u64)>,
    group_buf: Vec<(gpu_mem::Granule, LaneList)>,
    lane_pool: Vec<LaneList>,
    value_pool: Vec<Vec<u64>>,
    entry_pool: Vec<Vec<CommitEntry>>,
    attempt_pool: Vec<Vec<u32>>,
    word_buf: Vec<(u64, u64)>,
    line_buf: Vec<gpu_mem::LineAddr>,
}

/// Takes the lowest-index error recorded by any shard in the last phase —
/// the one serial execution would have hit first.
fn take_first_err(shards: &mut [ShardState]) -> Option<SimError> {
    let mut best: Option<(u32, SimError)> = None;
    for s in shards.iter_mut() {
        if let Some((idx, e)) = s.err.take() {
            if best.as_ref().is_none_or(|(b, _)| idx < *b) {
                best = Some((idx, e));
            }
        }
    }
    best.map(|(_, e)| e)
}

/// Moves recycled vectors between a reservoir and a shard pool until the
/// shard holds `target` (excess drains back so totals stay bounded).
fn replenish<T>(reservoir: &mut Vec<T>, pool: &mut Vec<T>, target: usize) {
    while pool.len() > target {
        reservoir.push(pool.pop().expect("len checked"));
    }
    while pool.len() < target {
        let Some(v) = reservoir.pop() else { break };
        pool.push(v);
    }
}

impl Engine {
    /// Runs the lockstep loop on `threads` shards to completion: the
    /// watchdog cadence, cancel-poll mask, idle skip-ahead, and cycle
    /// budget are the same at every shard count.
    pub(crate) fn run_shards(&mut self, threads: usize) -> Result<Metrics, SimError> {
        let plan = ShardPlan::new(threads, self.cores.len(), self.parts.len());
        let pool = WorkerPool::new(threads);
        let mut shards: Vec<ShardState> = (0..threads).map(|_| ShardState::default()).collect();
        let mut merge_buf: Vec<DownSend> = Vec::new();
        // One shard has no barriers to attribute: the profiler stays inert.
        let mut prof = HostProfiler::new(threads, self.host_profiling && threads > 1);
        while !self.drained() {
            let now = self.now.raw();
            if now >= self.cfg.max_cycles {
                return Err(SimError::CycleLimitExceeded {
                    limit: self.cfg.max_cycles,
                });
            }
            if now >= self.wd.next_check {
                // The watchdog reads commit/abort totals: fold the shard
                // blocks first so it sees every shard's counts.
                self.fold_shard_stats(&mut shards);
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
                continue;
            }
            self.step_shards(&pool, &plan, &mut shards, &mut merge_buf, &mut prof)?;
        }
        self.fold_shard_stats(&mut shards);
        self.wd.finalize(self.stats.commits);
        let mut metrics = self.collect_metrics();
        metrics.host_profile = prof.into_profile();
        Ok(metrics)
    }

    fn fold_shard_stats(&mut self, shards: &mut [ShardState]) {
        for s in shards.iter_mut() {
            let block = std::mem::take(&mut s.stats);
            self.stats.merge(&block);
        }
    }

    /// Whether the issue phase must run on the lead this cycle: a rollover
    /// is already pending (new `TxBegin`s hold, and lower-core arming must
    /// be visible to higher cores within the cycle), or some warp's clock
    /// is close enough to `ts_limit` that a parallel cycle could arm one.
    fn ts_guard_forces_serial(&self) -> bool {
        self.rollover_pending || self.ts_high_water + TS_GUARD_MARGIN >= self.cfg.ts_limit
    }

    /// One cycle. See the module docs for the phase structure.
    fn step_shards(
        &mut self,
        pool: &WorkerPool,
        plan: &ShardPlan,
        shards: &mut [ShardState],
        merge_buf: &mut Vec<DownSend>,
        prof: &mut HostProfiler,
    ) -> Result<(), SimError> {
        let prof_on = prof.is_on();
        let parallel = shards.len() > 1;
        if self.rollover_pending {
            self.try_complete_rollover();
        }
        let now = self.now;
        for (shard, &(plo, phi)) in shards.iter_mut().zip(&plan.part_bounds) {
            if !parallel || (plo == phi && shard.lane_pool.is_empty()) {
                continue;
            }
            replenish(&mut self.lane_pool, &mut shard.lane_pool, POOL_TARGET_LANES);
            replenish(
                &mut self.value_pool,
                &mut shard.value_pool,
                POOL_TARGET_VALUES,
            );
            replenish(
                &mut self.entry_pool,
                &mut shard.entry_pool,
                POOL_TARGET_ENTRIES,
            );
            replenish(
                &mut self.attempt_pool,
                &mut shard.attempt_pool,
                POOL_TARGET_ENTRIES,
            );
        }

        // ---- Phase 1: up deliveries -> partitions. The drain buffers are
        // owned by the engine and reused every cycle; they are taken out
        // while handlers borrow the engine state mutably (a handler can
        // inject new packets, never consume arrivals). ----
        let mut up_buf = std::mem::take(&mut self.up_buf);
        self.up.drain_due(now, &mut up_buf);
        if parallel && up_buf.len() >= UP_PAR_THRESHOLD {
            for (i, d) in up_buf.drain(..).enumerate() {
                let s = plan.shard_of_part[d.dst];
                shards[s].up_deliv.push((i as u32, d));
            }
            self.up_buf = up_buf;
            let t_window;
            {
                let part_views = SliceView::split(&mut self.parts, &plan.part_bounds);
                let bank_views = SliceView::split(self.mem.banks_mut(), &plan.part_bounds);
                let cfg = &self.cfg;
                let system = self.system;
                let geom = self.geom;
                let n_cores = self.cores.len();
                let pending = &self.pending;
                let commits_in_flight = &self.commits_in_flight;
                let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
                for (shard, (pv, bv)) in shards
                    .iter_mut()
                    .zip(part_views.into_iter().zip(bank_views))
                {
                    if shard.up_deliv.is_empty() {
                        continue;
                    }
                    jobs.push(Box::new(move || {
                        let t_work = prof_on.then(std::time::Instant::now);
                        let mut ctx = PartCtx {
                            cfg,
                            system,
                            geom,
                            now,
                            n_cores,
                            parts: pv,
                            mem: MemTap::new(geom, bv),
                            pending: PendingTap::Shared(pending),
                            commits_in_flight,
                            cores: None,
                            stats: &mut shard.stats,
                            rec: Recorder::off(),
                            hist: HistoryRecorder::off(),
                            down: DownSink::Buffer {
                                buf: &mut shard.down_sends,
                                idx: 0,
                                k: 0,
                            },
                            value_pool: &mut shard.value_pool,
                            entry_pool: &mut shard.entry_pool,
                            attempt_pool: &mut shard.attempt_pool,
                            word_buf: &mut shard.word_buf,
                            line_buf: &mut shard.line_buf,
                        };
                        for (idx, d) in shard.up_deliv.drain(..) {
                            ctx.set_delivery_index(idx);
                            if let Err(e) = ctx.handle_up(d.dst, d.payload) {
                                shard.err = Some((idx, e));
                                break;
                            }
                        }
                        drop(ctx);
                        if let Some(t) = t_work {
                            shard.win_work_ns = t.elapsed().as_nanos() as u64;
                        }
                    }));
                }
                t_window = prof_on.then(std::time::Instant::now);
                pool.run(jobs);
            }
            let window_ns = t_window.map(|t| t.elapsed().as_nanos() as u64);
            if let Some(e) = take_first_err(shards) {
                return Err(e);
            }
            // Barrier: inject buffered replies in the serial sequence.
            for shard in shards.iter_mut() {
                merge_buf.append(&mut shard.down_sends);
            }
            merge_buf.sort_unstable_by_key(|s| (s.idx, s.k));
            for s in merge_buf.drain(..) {
                self.down.send(s.at, s.dst, s.bytes, s.msg, s.cat);
            }
            if let (Some(t0), Some(window_ns)) = (t_window, window_ns) {
                let merge_ns = (t0.elapsed().as_nanos() as u64).saturating_sub(window_ns);
                prof.record_window(
                    shards
                        .iter_mut()
                        .map(|s| std::mem::take(&mut s.win_work_ns)),
                    window_ns,
                    merge_ns,
                );
            }
        } else {
            {
                let mut ctx = self.part_ctx();
                for d in up_buf.drain(..) {
                    ctx.handle_up(d.dst, d.payload)?;
                }
            }
            self.up_buf = up_buf;
        }

        // ---- Phase 2: down deliveries -> cores (lead), and phase 3 on the
        // lead for one shard or when the rollover guard demands it. ----
        let lead_issue = !parallel || self.ts_guard_forces_serial();
        let mut down_buf = std::mem::take(&mut self.down_buf);
        self.down.drain_due(now, &mut down_buf);
        let out = {
            let mut ctx = self.core_ctx();
            for d in down_buf.drain(..) {
                ctx.handle_down(d.dst, d.payload)?;
            }
            if lead_issue {
                for c in 0..ctx.n_cores() {
                    ctx.issue_core(c)?;
                }
            }
            ctx.out()
        };
        self.apply_ctx_out(out);
        self.down_buf = down_buf;

        // ---- Phase 3: issue (parallel by core). ----
        if !lead_issue {
            let t_window;
            {
                let core_views = SliceView::split(&mut self.cores, &plan.core_bounds);
                let cfg = &self.cfg;
                let system = self.system;
                let geom = self.geom;
                let rollover_pending = self.rollover_pending;
                let (wd_mode, wd_priority, wd_window, wd_alert) = (
                    self.wd.mode,
                    self.wd.priority,
                    self.wd.window,
                    self.wd.alert(),
                );
                let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
                for (shard, cv) in shards.iter_mut().zip(core_views) {
                    let (lo, hi) = (cv.lo(), cv.hi());
                    if lo == hi {
                        continue;
                    }
                    jobs.push(Box::new(move || {
                        let t_work = prof_on.then(std::time::Instant::now);
                        let mut ctx = CoreCtx {
                            cfg,
                            system,
                            geom,
                            now,
                            cores: cv,
                            stats: &mut shard.stats,
                            rec: Recorder::off(),
                            hist: HistoryRecorder::off(),
                            wd: WdView::new(
                                wd_mode,
                                wd_priority,
                                wd_window,
                                wd_alert,
                                &mut shard.wd_addrs,
                            ),
                            rollover_pending,
                            retired: 0,
                            ts_high_water: 0,
                            sink: FxSink::Deferred { ops: &mut shard.fx },
                            ready_buf: &mut shard.ready_buf,
                            survivors_buf: &mut shard.survivors_buf,
                            group_buf: &mut shard.group_buf,
                            lane_pool: &mut shard.lane_pool,
                            value_pool: &mut shard.value_pool,
                            entry_pool: &mut shard.entry_pool,
                            attempt_pool: &mut shard.attempt_pool,
                            word_buf: &mut shard.word_buf,
                        };
                        for c in lo..hi {
                            if let Err(e) = ctx.issue_core(c) {
                                shard.err = Some((c as u32, e));
                                break;
                            }
                        }
                        shard.out = Some(ctx.out());
                        if let Some(t) = t_work {
                            shard.win_work_ns = t.elapsed().as_nanos() as u64;
                        }
                    }));
                }
                t_window = prof_on.then(std::time::Instant::now);
                pool.run(jobs);
            }
            let window_ns = t_window.map(|t| t.elapsed().as_nanos() as u64);
            if let Some(e) = take_first_err(shards) {
                return Err(e);
            }
            // Barrier: merge outcomes and replay buffered effects in shard
            // (= ascending core) order — the serial program order.
            for shard in shards.iter_mut() {
                if let Some(out) = shard.out.take() {
                    self.rollover_pending |= out.rollover_pending;
                    self.live_warps -= out.retired;
                    self.ts_high_water = self.ts_high_water.max(out.ts_high_water);
                }
                for a in shard.wd_addrs.drain(..) {
                    self.wd.note_abort_addr(a);
                }
                self.replay_fx(&mut shard.fx);
            }
            if let (Some(t0), Some(window_ns)) = (t_window, window_ns) {
                let merge_ns = (t0.elapsed().as_nanos() as u64).saturating_sub(window_ns);
                prof.record_window(
                    shards
                        .iter_mut()
                        .map(|s| std::mem::take(&mut s.win_work_ns)),
                    window_ns,
                    merge_ns,
                );
            }
        }

        // ---- Phase 4: statistics sampling. ----
        self.sample_stats(1);
        self.now += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_contiguously_with_remainder_up_front() {
        assert_eq!(ranges(10, 4), vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        assert_eq!(ranges(2, 4), vec![(0, 1), (1, 2), (2, 2), (2, 2)]);
        assert_eq!(ranges(8, 2), vec![(0, 4), (4, 8)]);
        let r = ranges(56, 8);
        assert_eq!(r.first(), Some(&(0, 7)));
        assert_eq!(r.last(), Some(&(49, 56)));
        assert!(r.windows(2).all(|w| w[0].1 == w[1].0));
    }

    #[test]
    fn first_error_wins_by_global_index() {
        let mut shards: Vec<ShardState> = (0..3).map(|_| ShardState::default()).collect();
        shards[2].err = Some((5, SimError::Interrupted { cycle: 5 }));
        shards[0].err = Some((9, SimError::Interrupted { cycle: 9 }));
        let got = take_first_err(&mut shards).expect("one error survives");
        assert!(matches!(got, SimError::Interrupted { cycle: 5 }));
        assert!(shards.iter().all(|s| s.err.is_none()));
    }

    #[test]
    fn replenish_moves_between_reservoir_and_pool() {
        let mut reservoir: Vec<Vec<u32>> = (0..10).map(|_| Vec::new()).collect();
        let mut pool: Vec<Vec<u32>> = Vec::new();
        replenish(&mut reservoir, &mut pool, 4);
        assert_eq!(pool.len(), 4);
        assert_eq!(reservoir.len(), 6);
        for _ in 0..8 {
            pool.push(Vec::new());
        }
        replenish(&mut reservoir, &mut pool, 4);
        assert_eq!(pool.len(), 4);
        assert_eq!(reservoir.len(), 14);
    }
}
