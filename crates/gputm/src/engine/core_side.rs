//! Core-side execution: warp scheduling, instruction issue, transactional
//! access handling per TM system, reply processing, and the per-protocol
//! warp commit sequences.

use super::{CommitCtx, DownMsg, Engine, Pending, UpMsg};
use crate::config::TmSystem;
use fglock::AtomicOp;
use getm::{AccessKind as GetmKind, AccessRequest, CommitEntry, ReplyKind};
use gpu_mem::{Addr, Granule};
use gpu_simt::program::OpKind as K;
use gpu_simt::stack::{lanes_of, LaneMask};
use gpu_simt::{coalesce_by_granule, LaneList, Op, OpResult, ThreadStatus};
use sim_core::history::NO_TXN;
use sim_core::trace::{AbortCause, SimEvent, Stamp};
use sim_core::SimError;
use warptm::eapg::{self, EapgDecision};
use warptm::ValidationJob;

/// [`super::check_aligned`] for the address of a memory op; other ops
/// pass.
fn check_op_aligned(op: Op) -> Result<(), SimError> {
    let (what, a) = match op {
        Op::TxLoad(a) => ("TxLoad", a),
        Op::TxStore(a, _) => ("TxStore", a),
        Op::Load(a) => ("Load", a),
        Op::Store(a, _) => ("Store", a),
        Op::AtomicCas { addr, .. } => ("AtomicCas", addr),
        Op::AtomicAdd { addr, .. } => ("AtomicAdd", addr),
        _ => return Ok(()),
    };
    super::check_aligned(what, a)
}

impl Engine {
    // ===================== issue =====================

    /// Retires finished warps, refilling their slots, and issues one
    /// instruction on core `c`.
    ///
    /// # Errors
    ///
    /// [`SimError::ProtocolViolation`] if a scheduled lane's staged op does
    /// not match its op-kind group (a program/engine bug, not modelled
    /// behaviour), and [`SimError::MisalignedAddress`] if an issuing memory
    /// op names an address that is not 8-byte aligned.
    pub(crate) fn issue_core(&mut self, c: usize) -> Result<(), SimError> {
        // Compute readiness, including the TxBegin throttle.
        let now = self.now;
        let limit = self.cfg.tx_concurrency;
        // Serialization fallback: while the watchdog has the machine
        // serialized, only the priority warp may open new regions.
        let serialized = self.wd.mode == super::WdMode::Serialized;
        let priority = self.wd.priority;
        let mut ready = 0u64;
        self.cores[c].wake_sleepers(now);
        // Only awake slots can issue, so only they are walked. A warp
        // finishes only by issuing, and an issuing warp stays awake, so
        // every finished warp is still walked here and retired.
        let walk = self.cores[c].occupied & self.cores[c].awake;
        for w in lanes_of(walk) {
            let w = w as usize;
            let core = &mut self.cores[c];
            // Retire a finished warp and refill its slot from the pending
            // queue. A refill depends only on its own slot and the queue,
            // so retiring here, slot by slot, is the same as a separate
            // pass in front of this one.
            if core.warps[w]
                .as_ref()
                .is_some_and(|s| s.warp.all_finished())
            {
                core.warps[w] = core.pending_warps.pop_front().map(|progs| {
                    let rng = sim_core::DetRng::seeded(self.cfg.seed ^ 0x517A);
                    super::make_slot(progs, c, w, &self.cfg, &rng)
                });
                if core.warps[w].is_none() {
                    core.occupied &= !(1 << w);
                }
            }
            let tokens = core.tx_tokens();
            let Some(slot) = core.warps[w].as_mut() else {
                continue;
            };
            if slot.warp.status(now) != gpu_simt::WarpStatus::Ready || slot.committing.is_some() {
                let sleeping_until = slot.warp.sleeping_until(now);
                core.park(w, sleeping_until);
                continue;
            }
            // Peek the leader op to apply the concurrency throttle. A lane
            // staging TxBegin while the warp's region is still open is not
            // issuable: lanes drift through non-transactional ops with
            // divergent memory latencies, so early arrivals must wait for
            // the open region to drain before opening the next one.
            let region_open = slot.warp.tx_stack.is_open();
            let ready_lanes = slot.warp.lanes_in(ThreadStatus::Ready);
            let threads = &mut slot.warp.threads;
            let leader = lanes_of(ready_lanes).find_map(|l| {
                let op = threads[l as usize].fetch_op();
                if region_open && op == Op::TxBegin {
                    return None;
                }
                Some(op)
            });
            let Some(op) = leader else { continue };
            if op == Op::TxBegin {
                if self.rollover_pending {
                    continue; // hold new transactions during rollover
                }
                if serialized && priority != Some(slot.gwid.0 as u64) {
                    continue; // serialization fallback: one warp at a time
                }
                // The region is closed (the leader could not stage TxBegin
                // otherwise), so the warp holds no token.
                if limit.is_some_and(|limit| tokens >= limit) {
                    // Throttled: out of the pass until a token comes back.
                    core.hold_at_throttle(w);
                    continue;
                }
            }
            ready |= 1 << w;
        }

        if let Some(w) = self.cores[c].sched.pick(ready) {
            self.issue_warp(c, w)?;
        }
        Ok(())
    }

    fn issue_warp(&mut self, c: usize, w: usize) -> Result<(), SimError> {
        let (kind, group) = {
            let slot = self.cores[c].warps[w].as_mut().expect("scheduled warp");
            let ready = slot.warp.lanes_in(ThreadStatus::Ready);
            let threads = &mut slot.warp.threads;
            // Mirror the readiness scan: TxBegin lanes are not issuable
            // while the region is open, so the leader is the first ready
            // lane that actually can go.
            let region_open = slot.warp.tx_stack.is_open();
            let kind = lanes_of(ready)
                .find_map(|l| {
                    let op = threads[l as usize].fetch_op();
                    if region_open && op == Op::TxBegin {
                        return None;
                    }
                    Some(op.kind())
                })
                .expect("ready warp has an issuable lane");
            // Group: every ready lane whose next op has the same kind. Each
            // op joins a group once, when it issues, so its address is
            // checked here and nowhere downstream.
            let mut group: LaneMask = 0;
            for l in lanes_of(ready) {
                let op = threads[l as usize].fetch_op();
                if op.kind() == kind {
                    check_op_aligned(op)?;
                    group |= 1 << l;
                }
            }
            (kind, group)
        };
        match kind {
            K::Compute => self.issue_compute(c, w, group),
            K::TxBegin => self.issue_tx_begin(c, w, group),
            K::TxLoad => self.issue_tx_access(c, w, group, false)?,
            K::TxStore => self.issue_tx_access(c, w, group, true)?,
            K::TxCommit => {
                let slot = self.cores[c].warps[w].as_mut().expect("warp");
                for l in lanes_of(group) {
                    // A lane with store verdicts still in flight cannot be
                    // *guaranteed* to commit yet; it keeps its TxCommit
                    // staged and re-tries when the verdicts drain.
                    if slot.pending_stores[l as usize] > 0 {
                        continue;
                    }
                    slot.warp.tx_stack.lane_at_commit(l);
                    slot.warp.set_status(l, ThreadStatus::AtCommit);
                    slot.warp.threads[l as usize].consume_op();
                }
                self.maybe_warp_commit(c, w);
            }
            K::Load => self.issue_plain_load(c, w, group)?,
            K::Store => self.issue_plain_store(c, w, group)?,
            K::Atomic => self.issue_atomic(c, w, group)?,
            K::Done => {
                let slot = self.cores[c].warps[w].as_mut().expect("warp");
                for l in lanes_of(group) {
                    slot.warp.set_status(l, ThreadStatus::Finished);
                    slot.warp.threads[l as usize].consume_op();
                }
            }
        }
        Ok(())
    }

    fn issue_compute(&mut self, c: usize, w: usize, group: LaneMask) {
        let slot = self.cores[c].warps[w].as_mut().expect("warp");
        let mut cycles = 1u32;
        for l in lanes_of(group) {
            if let Some(Op::Compute(n)) = slot.warp.threads[l as usize].staged_op {
                cycles = cycles.max(n);
            }
            slot.warp.threads[l as usize].consume_op();
        }
        slot.set_sleep_until(self.now + cycles as u64, self.now, &mut self.stats);
    }

    fn issue_tx_begin(&mut self, c: usize, w: usize, group: LaneMask) {
        let now = self.now;
        let gwid = {
            let core = &mut self.cores[c];
            let slot = core.warps[w].as_mut().expect("warp");
            assert!(
                !slot.warp.tx_stack.is_open(),
                "TxBegin while a region is open"
            );
            core.token_holders |= 1 << w;
            slot.begin_region(group, now, &mut self.stats);
            slot.tcd_clean |= group;
            slot.doomed &= !group;
            for l in lanes_of(group) {
                let t = &mut slot.warp.threads[l as usize];
                t.consume_op();
                t.in_tx = true;
                t.logs.clear();
                slot.tx_begin[l as usize] = now;
                self.hist.begin(c, slot.gwid.0, l, now.raw());
            }
            slot.obs_max_ts = 0;
            slot.warp.abort_cause_ts = 0;
            slot.gwid.0
        };
        self.rec
            .emit(|| (Stamp::warp(now.raw(), c as u32, gwid), SimEvent::TxBegin));
    }

    /// Transactional loads and stores: intra-warp conflict check, logging,
    /// and protocol-specific routing.
    fn issue_tx_access(
        &mut self,
        c: usize,
        w: usize,
        group: LaneMask,
        is_store: bool,
    ) -> Result<(), SimError> {
        let geom = self.geom;
        // Phase 1: intra-warp conflict detection + logging (core-local).
        // The survivor list is engine-owned scratch, taken out for the call
        // because the routing helpers below need `&mut self` alongside it.
        let mut survivors = std::mem::take(&mut self.survivors_buf);
        survivors.clear();
        let gwid = {
            let slot = self.cores[c].warps[w].as_mut().expect("warp");
            for l in lanes_of(group) {
                let (addr, value) = match slot.warp.threads[l as usize].staged_op {
                    Some(Op::TxLoad(a)) => (a, 0),
                    Some(Op::TxStore(a, v)) => (a, v),
                    _ => {
                        return Err(SimError::ProtocolViolation {
                            what: "staged op is not a transactional access at issue",
                            token: slot.gwid.0 as u64,
                            cycle: self.now.raw(),
                        })
                    }
                };
                let g = geom.granule_of(addr);
                // First-accessor-wins: only *live* lanes (still executing
                // or parked at this round's commit point) kill the current
                // accessor. Aborted lanes are dead for this round — their
                // reads never commit and their reservations unwind at the
                // round boundary — so counting them would let two lanes
                // mutually kill each other forever.
                let live = !slot.warp.lanes_in(ThreadStatus::Aborted);
                let conflict = slot.granules.conflicts(g, l, is_store, live);
                let t = &mut slot.warp.threads[l as usize];
                t.consume_op();
                if conflict {
                    slot.warp.tx_stack.abort_lane(l);
                    slot.abort_attempt(l, &self.hist, self.now.raw());
                    continue;
                }
                // A lane outside a transaction has no say in conflicts:
                // its logs are cleared before it next opens one.
                if t.in_tx {
                    slot.granules.record(g, l, is_store);
                }
                if is_store {
                    t.logs.record_write(addr, value, &geom);
                } else {
                    t.logs.record_read(addr, 0);
                }
                survivors.push((l, addr, value));
            }
            slot.gwid.0
        };
        let aborted = group.count_ones() - survivors.len() as u32;
        self.book_aborts(c, gwid, AbortCause::IntraWarp, aborted);

        // Phase 2: protocol routing.
        match self.system {
            TmSystem::Getm => self.getm_send_accesses(c, w, &survivors, is_store),
            TmSystem::WarpTmLL | TmSystem::Eapg => {
                if is_store {
                    // Stores are core-local until commit.
                } else {
                    self.wtm_send_loads(c, w, &survivors);
                }
            }
            TmSystem::WarpTmEL => {
                if is_store {
                    // Idealized eager check: validate the read log against
                    // committed memory instantly; a stale log aborts now.
                    let lanes = survivors.iter().fold(0, |m, s| m | 1 << s.0);
                    self.el_validate_lanes(c, w, lanes);
                } else {
                    self.wtm_send_loads(c, w, &survivors);
                }
            }
            TmSystem::FgLock => unreachable!("tx ops in lock mode"),
        }
        self.survivors_buf = survivors;
        if aborted > 0 {
            self.maybe_warp_commit(c, w);
        }
        Ok(())
    }

    /// GETM: one eager-check request per distinct granule.
    fn getm_send_accesses(
        &mut self,
        c: usize,
        w: usize,
        survivors: &[(u32, Addr, u64)],
        is_store: bool,
    ) {
        let (wid, warpts) = {
            let slot = self.cores[c].warps[w].as_ref().expect("warp");
            (slot.gwid, slot.warp.warpts)
        };
        let kind = if is_store {
            GetmKind::Store
        } else {
            GetmKind::Load
        };
        let mut by_granule = std::mem::take(&mut self.group_buf);
        coalesce_by_granule(
            survivors.iter().map(|&(l, a, _)| (l, a)),
            &self.geom,
            &mut by_granule,
            &mut self.lane_pool,
        );
        for (granule, lanes) in by_granule.drain(..) {
            self.request_granule(c, w, lanes, is_store, true, |addr, token| {
                UpMsg::GetmAccess(AccessRequest {
                    granule,
                    addr,
                    wid,
                    warpts,
                    kind,
                    token,
                })
            });
        }
        self.group_buf = by_granule;
    }

    /// WarpTM / EL: loads fetch values (and TCD stamps) from the LLC.
    fn wtm_send_loads(&mut self, c: usize, w: usize, survivors: &[(u32, Addr, u64)]) {
        let mut by_granule = std::mem::take(&mut self.group_buf);
        coalesce_by_granule(
            survivors.iter().map(|&(l, a, _)| (l, a)),
            &self.geom,
            &mut by_granule,
            &mut self.lane_pool,
        );
        for (_, lanes) in by_granule.drain(..) {
            self.request_granule(c, w, lanes, false, true, |addr, token| UpMsg::TxLoadWtm {
                addr,
                token,
            });
        }
        self.group_buf = by_granule;
    }

    /// Sends one request for `lanes` (all in one granule) of warp `w` on
    /// core `c` to the granule's partition. Loads block their lanes until
    /// the reply; a GETM store returns no value, so its lanes keep
    /// executing and only count one more verdict in flight (a conflict
    /// aborts them when the reply lands, and the commit point waits for
    /// every verdict). `msg` builds the message from the lanes'
    /// representative address and the pending access's token.
    fn request_granule(
        &mut self,
        c: usize,
        w: usize,
        lanes: LaneList,
        is_store: bool,
        is_tx: bool,
        msg: impl FnOnce(Addr, u64) -> UpMsg,
    ) {
        let slot = self.cores[c].warps[w].as_mut().expect("warp");
        for &(l, _) in &lanes {
            if is_store {
                slot.pending_stores[l as usize] += 1;
            } else {
                slot.warp.set_status(l, ThreadStatus::Blocked);
            }
        }
        slot.add_outstanding(self.now, &mut self.stats);
        let addr = lanes[0].1;
        let part = self.geom.partition_of_granule(self.geom.granule_of(addr)) as usize;
        let token = self.pending.insert(Pending::Access {
            core: c,
            warp: w,
            lanes,
            is_store,
            is_tx,
            issued: self.now,
            versions: Vec::new(),
        });
        let category = if is_tx { "tm-access" } else { "load" };
        self.send_up(
            part,
            getm::msg::ACCESS_REQUEST_BYTES,
            msg(addr, token),
            category,
        );
    }

    fn issue_plain_load(&mut self, c: usize, w: usize, group: LaneMask) -> Result<(), SimError> {
        let geom = self.geom;
        let use_l1 = self.system.is_tm();
        let mut by_granule = std::mem::take(&mut self.group_buf);
        {
            let slot = self.cores[c].warps[w].as_mut().expect("warp");
            let threads = &mut slot.warp.threads;
            if lanes_of(group).any(|l| !matches!(threads[l as usize].staged_op, Some(Op::Load(_))))
            {
                return Err(SimError::ProtocolViolation {
                    what: "staged op is not a plain load at issue",
                    token: slot.gwid.0 as u64,
                    cycle: self.now.raw(),
                });
            }
            let loads = lanes_of(group).map(|l| {
                let t = &mut threads[l as usize];
                let Some(Op::Load(a)) = t.staged_op else {
                    unreachable!("checked above")
                };
                t.consume_op();
                (l, a)
            });
            coalesce_by_granule(loads, &geom, &mut by_granule, &mut self.lane_pool);
        }
        let now = self.now;
        for (g, mut lanes) in by_granule.drain(..) {
            let line = geom.line_of_granule(g);
            // On a sectored (Volta-class) L1, a tag hit with the sector
            // absent is a sector miss and still goes to the partition.
            let sector = match self.cfg.l1.sector_bytes {
                Some(s) => ((lanes[0].1 .0 % self.cfg.line_bytes) / s) as u32,
                None => 0,
            };
            if use_l1
                && self.cores[c]
                    .l1
                    .access_at(line, sector, gpu_mem::AccessKind::Read)
                    .is_hit()
            {
                // L1 hit: values available next cycle, read from the
                // committed image now.
                let slot = self.cores[c].warps[w].as_mut().expect("warp");
                slot.set_sleep_until(slot.warp.sleep_until.max(now + 1), now, &mut self.stats);
                for &(l, a) in &lanes {
                    let v = self.mem.get(a.0);
                    let t = &mut slot.warp.threads[l as usize];
                    t.pending_result = OpResult::Value(v);
                }
                lanes.clear();
                self.lane_pool.push(lanes);
                continue;
            }
            self.request_granule(c, w, lanes, false, false, |addr, token| UpMsg::PlainLoad {
                addr,
                token,
            });
        }
        self.group_buf = by_granule;
        Ok(())
    }

    /// Plain stores apply to the memory image immediately (GPU stores are
    /// fire-and-forget through a store buffer); the message only charges
    /// crossbar and LLC bandwidth.
    fn issue_plain_store(&mut self, c: usize, w: usize, group: LaneMask) -> Result<(), SimError> {
        let geom = self.geom;
        let now = self.now;
        let mut sends: Vec<(usize, Addr, u64, u32)> = Vec::new();
        let gwid = {
            let slot = self.cores[c].warps[w].as_mut().expect("warp");
            for l in lanes_of(group) {
                let Some(Op::Store(a, v)) = slot.warp.threads[l as usize].staged_op else {
                    return Err(SimError::ProtocolViolation {
                        what: "staged op is not a plain store at issue",
                        token: slot.gwid.0 as u64,
                        cycle: self.now.raw(),
                    });
                };
                slot.warp.threads[l as usize].consume_op();
                let part = geom.partition_of(a) as usize;
                sends.push((part, a, v, l));
            }
            slot.set_sleep_until(slot.warp.sleep_until.max(now + 1), now, &mut self.stats);
            slot.gwid.0
        };
        for (part, a, v, l) in sends {
            self.mem.set(a.0, v);
            self.hist.singleton_write(c, gwid, l, a.0, v, now.raw());
            if self.system.is_tm() {
                self.cores[c].l1.invalidate(geom.line_of(a));
            }
            self.send_up(part, 16, UpMsg::PlainStore { addr: a }, "store");
        }
        Ok(())
    }

    fn issue_atomic(&mut self, c: usize, w: usize, group: LaneMask) -> Result<(), SimError> {
        let geom = self.geom;
        for l in lanes_of(group) {
            let op = {
                let slot = self.cores[c].warps[w].as_mut().expect("warp");
                let staged = slot.warp.threads[l as usize].staged_op;
                slot.warp.threads[l as usize].consume_op();
                slot.warp.set_status(l, ThreadStatus::Blocked);
                slot.add_outstanding(self.now, &mut self.stats);
                match staged {
                    Some(Op::AtomicCas { addr, expect, new }) => {
                        AtomicOp::Cas { addr, expect, new }
                    }
                    Some(Op::AtomicAdd { addr, delta }) => AtomicOp::Add { addr, delta },
                    _ => {
                        return Err(SimError::ProtocolViolation {
                            what: "staged op is not an atomic at issue",
                            token: slot.gwid.0 as u64,
                            cycle: self.now.raw(),
                        })
                    }
                }
            };
            let token = self.pending.insert(Pending::AtomicOp {
                core: c,
                warp: w,
                lane: l,
            });
            let part = geom.partition_of(op.addr()) as usize;
            self.send_up(part, 16, UpMsg::Atomic { op, token }, "atomic");
        }
        Ok(())
    }

    // ===================== replies =====================

    /// Handles one down-crossbar delivery at core `c`.
    pub(crate) fn handle_down(&mut self, c: usize, msg: DownMsg) -> Result<(), SimError> {
        match msg {
            DownMsg::GetmReply(reply, values) => self.on_getm_reply(reply, values),
            DownMsg::LoadReply {
                token,
                values,
                last_write,
            } => self.on_load_reply(token, values, last_write),
            DownMsg::AtomicReply { token, old } => self.on_atomic_reply(token, old),
            DownMsg::Verdict {
                token,
                failed_lanes,
            } => self.on_verdict(token, failed_lanes),
            DownMsg::CommitAck { token } => self.on_commit_ack(token),
            DownMsg::Broadcast { writes } => {
                self.on_broadcast(c, &writes);
                Ok(())
            }
        }
    }

    fn on_getm_reply(
        &mut self,
        reply: getm::AccessReply,
        values: Vec<u64>,
    ) -> Result<(), SimError> {
        // Feature-gated engine mutation for the verifier's own tests: treat
        // every GETM *load* conflict as if eager detection had passed, so
        // lanes observe values their logical timestamps forbid. Store
        // aborts are left intact (faking them would desynchronize the VU
        // reservation counts, a different bug than the one under test).
        #[cfg(feature = "sabotage")]
        let reply = {
            let mut reply = reply;
            if self.cfg.sabotage == crate::config::Sabotage::GetmIgnoreLoadAborts
                && matches!(reply.kind, ReplyKind::Abort { .. })
                && matches!(
                    self.pending.get(reply.token),
                    Some(Pending::Access {
                        is_store: false,
                        ..
                    })
                )
            {
                reply.kind = ReplyKind::Success;
            }
            reply
        };
        let Some(Pending::Access {
            core,
            warp,
            lanes,
            is_store,
            issued,
            versions,
            ..
        }) = self.pending.remove(reply.token)
        else {
            return Err(SimError::ProtocolViolation {
                what: "GETM access reply routed to unknown token",
                token: reply.token,
                cycle: self.now.raw(),
            });
        };
        self.stats.access_rt.observe(self.now.since(issued) as f64);
        let geom = self.geom;
        let now = self.now.raw();
        self.cores[core].wake(warp);
        let Some(slot) = self.cores[core].warps[warp].as_mut() else {
            return Err(SimError::ProtocolViolation {
                what: "GETM access reply routed to a retired warp",
                token: reply.token,
                cycle: now,
            });
        };
        slot.retire_outstanding(self.now, &mut self.stats);
        let gwid = slot.gwid.0;
        if is_store {
            for &(l, _) in &lanes {
                slot.pending_stores[l as usize] = slot.pending_stores[l as usize].saturating_sub(1);
            }
        }
        match reply.kind {
            ReplyKind::Success => {
                slot.obs_max_ts = slot
                    .obs_max_ts
                    .max(reply.observed_wts)
                    .max(reply.observed_rts);
                if !is_store {
                    for (i, &(l, a)) in lanes.iter().enumerate() {
                        if slot.warp.lane_status(l) != ThreadStatus::Blocked {
                            // The lane aborted (another access's verdict or
                            // an intra-warp conflict) while this load was
                            // in flight; drop the value.
                            continue;
                        }
                        slot.warp.set_status(l, ThreadStatus::Ready);
                        let t = &mut slot.warp.threads[l as usize];
                        // Read-own-writes forwarding beats the LLC value.
                        let fwd = t.logs.forwarded_value(a);
                        let v = fwd.or_else(|| values.get(i).copied()).unwrap_or(0);
                        t.logs.update_read_value(a, v);
                        t.pending_result = OpResult::Value(v);
                        // Forwarded reads never touched shared memory; only
                        // LLC-served values constrain serializability.
                        // `versions` is non-empty exactly when the partition
                        // captured versions (history recording on).
                        if fwd.is_none() {
                            if let Some(&ver) = versions.get(i) {
                                self.hist.read_observed(slot.gwid.0, l, a.0, v, ver);
                            }
                        }
                    }
                }
            }
            ReplyKind::Abort { cause_ts, cause } => {
                slot.warp.abort_cause_ts = slot.warp.abort_cause_ts.max(cause_ts);
                let mut aborted = 0;
                // Hot-spot attribution for the livelock report, tallied
                // only while the watchdog is alert (zero cost otherwise).
                let wd_alert = self.wd.alert();
                for &(l, a) in &lanes {
                    let li = l as usize;
                    if is_store {
                        // The reservation was never taken: unwind the log.
                        slot.warp.threads[li].logs.remove_last_write(a, &geom);
                    }
                    // The lane may already have aborted for another reason.
                    if slot.warp.lane_status(l) == ThreadStatus::Aborted {
                        continue;
                    }
                    slot.warp.tx_stack.abort_lane(l);
                    slot.abort_attempt(l, &self.hist, now);
                    aborted += 1;
                    if wd_alert {
                        self.wd.note_abort_addr(a.0);
                    }
                }
                self.book_aborts(core, gwid, cause, aborted);
            }
        }
        self.recycle_reply_buffers(lanes, values);
        self.maybe_warp_commit(core, warp);
        Ok(())
    }

    /// Returns a retired pending context's lane list and its reply's value
    /// vector to the engine's pools for reuse by later accesses.
    fn recycle_reply_buffers(&mut self, mut lanes: Vec<(u32, Addr)>, mut values: Vec<u64>) {
        lanes.clear();
        self.lane_pool.push(lanes);
        values.clear();
        self.value_pool.push(values);
    }

    fn on_load_reply(
        &mut self,
        token: u64,
        values: Vec<u64>,
        last_write: Option<sim_core::Cycle>,
    ) -> Result<(), SimError> {
        let Some(Pending::Access {
            core,
            warp,
            lanes,
            is_tx,
            issued,
            versions,
            ..
        }) = self.pending.remove(token)
        else {
            return Err(SimError::ProtocolViolation {
                what: "load reply routed to unknown token",
                token,
                cycle: self.now.raw(),
            });
        };
        if is_tx {
            self.stats.access_rt.observe(self.now.since(issued) as f64);
        }
        let el = self.system == TmSystem::WarpTmEL;
        let mut el_lanes: LaneMask = 0;
        let mut doomed_aborts = 0u32;
        self.cores[core].wake(warp);
        let gwid = {
            let Some(slot) = self.cores[core].warps[warp].as_mut() else {
                return Err(SimError::ProtocolViolation {
                    what: "load reply routed to a retired warp",
                    token,
                    cycle: self.now.raw(),
                });
            };
            slot.retire_outstanding(self.now, &mut self.stats);
            for (i, &(l, a)) in lanes.iter().enumerate() {
                let li = l as usize;
                let bit = 1 << l;
                if is_tx && slot.doomed & bit != 0 {
                    // EAPG marked this lane doomed while the load was in
                    // flight: abort instead of delivering.
                    slot.doomed &= !bit;
                    slot.warp.tx_stack.abort_lane(l);
                    slot.abort_attempt(l, &self.hist, self.now.raw());
                    doomed_aborts += 1;
                    continue;
                }
                let t = &mut slot.warp.threads[li];
                let fwd = t.logs.forwarded_value(a);
                let v = fwd.or_else(|| values.get(i).copied()).unwrap_or(0);
                if is_tx {
                    if fwd.is_none() {
                        if let Some(&ver) = versions.get(i) {
                            self.hist.read_observed(slot.gwid.0, l, a.0, v, ver);
                        }
                    }
                    t.logs.update_read_value(a, v);
                    if let Some(lw) = last_write {
                        // Cycle 0 means "never written" — the TCD table
                        // starts zeroed, and nothing commits at cycle 0.
                        if lw.raw() > 0 && lw >= slot.tx_begin[li] {
                            slot.tcd_clean &= !bit;
                        }
                    }
                }
                slot.warp.threads[li].pending_result = OpResult::Value(v);
                slot.warp.set_status(l, ThreadStatus::Ready);
                if el && is_tx {
                    el_lanes |= bit;
                }
            }
            slot.gwid.0
        };
        self.book_aborts(core, gwid, AbortCause::EarlyAbort, doomed_aborts);
        if el_lanes != 0 {
            // Idealized per-access validation on the fresh read log.
            self.el_validate_lanes(core, warp, el_lanes);
        }
        self.recycle_reply_buffers(lanes, values);
        if doomed_aborts > 0 {
            self.maybe_warp_commit(core, warp);
        }
        Ok(())
    }

    fn on_atomic_reply(&mut self, token: u64, old: u64) -> Result<(), SimError> {
        let Some(Pending::AtomicOp { core, warp, lane }) = self.pending.remove(token) else {
            return Err(SimError::ProtocolViolation {
                what: "atomic reply routed to unknown token",
                token,
                cycle: self.now.raw(),
            });
        };
        self.cores[core].wake(warp);
        let Some(slot) = self.cores[core].warps[warp].as_mut() else {
            return Err(SimError::ProtocolViolation {
                what: "atomic reply routed to a retired warp",
                token,
                cycle: self.now.raw(),
            });
        };
        slot.retire_outstanding(self.now, &mut self.stats);
        slot.warp.threads[lane as usize].pending_result = OpResult::Value(old);
        slot.warp.set_status(lane, ThreadStatus::Ready);
        // Lanes drift through non-transactional ops, so this atomic can be
        // the last in-flight access holding up a sibling region's commit.
        self.maybe_warp_commit(core, warp);
        Ok(())
    }

    /// WarpTM-EL idealized validation: compare the lanes' read logs against
    /// the committed image, aborting stale lanes at zero cost.
    fn el_validate_lanes(&mut self, c: usize, w: usize, lanes: LaneMask) {
        let mut aborted = 0u32;
        let gwid = {
            let mem = &self.mem;
            let slot = self.cores[c].warps[w].as_mut().expect("warp alive");
            for l in lanes_of(lanes) {
                let t = &slot.warp.threads[l as usize];
                if slot.warp.lane_status(l) == ThreadStatus::Aborted || !t.in_tx {
                    continue;
                }
                let valid = t
                    .logs
                    .reads()
                    .iter()
                    .all(|e| e.forwarded || mem.get(e.addr.0) == e.value);
                if !valid {
                    slot.warp.tx_stack.abort_lane(l);
                    slot.abort_attempt(l, &self.hist, self.now.raw());
                    aborted += 1;
                }
            }
            slot.gwid.0
        };
        self.book_aborts(c, gwid, AbortCause::Validation, aborted);
        if aborted > 0 {
            self.maybe_warp_commit(c, w);
        }
    }

    /// EAPG broadcast reception: abort running transactions that overlap
    /// the committed write set; mark blocked lanes doomed.
    fn on_broadcast(&mut self, c: usize, writes: &[Granule]) {
        // A broadcast changes warps across the core (it aborts ready lanes
        // and dooms blocked ones), so the whole core is looked at afresh.
        self.cores[c].wake_all();
        let mut to_check: Vec<usize> = Vec::new();
        let now = self.now.raw();
        for w in 0..self.cores[c].warps.len() {
            let mut aborted = 0u32;
            let gwid = {
                let Some(slot) = self.cores[c].warps[w].as_mut() else {
                    continue;
                };
                if !slot.warp.tx_stack.is_open() || slot.committing.is_some() {
                    continue;
                }
                let ready = slot.warp.lanes_in(ThreadStatus::Ready);
                let blocked = slot.warp.lanes_in(ThreadStatus::Blocked);
                for l in lanes_of(ready | blocked) {
                    let t = &slot.warp.threads[l as usize];
                    if !t.in_tx
                        || eapg::on_broadcast(&t.logs, writes, &self.geom)
                            != EapgDecision::EarlyAbort
                    {
                        continue;
                    }
                    if ready & (1 << l) != 0 {
                        slot.warp.tx_stack.abort_lane(l);
                        slot.abort_attempt(l, &self.hist, now);
                        aborted += 1;
                    } else {
                        slot.doomed |= 1 << l;
                    }
                }
                slot.gwid.0
            };
            self.book_aborts(c, gwid, AbortCause::EarlyAbort, aborted);
            if aborted > 0 {
                to_check.push(w);
            }
        }
        for w in to_check {
            self.maybe_warp_commit(c, w);
        }
    }

    // ===================== commit sequences =====================

    pub(crate) fn maybe_warp_commit(&mut self, c: usize, w: usize) {
        let ready = {
            let Some(slot) = self.cores[c].warps[w].as_ref() else {
                return;
            };
            slot.warp.tx_stack.is_open()
                && slot.warp.tx_stack.warp_at_commit_point()
                && slot.committing.is_none()
                // Aborted lanes may still have replies in flight: a store
                // landing after the cleanup log would leak its reservation,
                // and a stale load reply could be mistaken for a retried
                // lane's new request. Drain everything first.
                && slot.warp.outstanding == 0
        };
        if !ready {
            return;
        }
        match self.system {
            TmSystem::Getm => self.commit_getm(c, w),
            TmSystem::WarpTmLL | TmSystem::Eapg => self.commit_wtm(c, w),
            TmSystem::WarpTmEL => self.commit_el(c, w),
            TmSystem::FgLock => unreachable!("no transactions in lock mode"),
        }
    }

    /// GETM: guaranteed commit. Serialize the write/cleanup logs, ship them
    /// to the commit units, and continue immediately.
    fn commit_getm(&mut self, c: usize, w: usize) {
        let geom = self.geom;
        let parts = self.cfg.partitions as usize;
        // Entry/id vectors are pooled: they travel inside `UpMsg::GetmLog`
        // and come back to the pool once the partition applies the log.
        let mut per_part: Vec<Vec<CommitEntry>> = (0..parts)
            .map(|_| self.entry_pool.pop().unwrap_or_default())
            .collect();
        // Parallel to `per_part`: the history-attempt id behind each entry,
        // so the partition can attribute the write when it applies. Filled
        // only while recording (the protocol never reads it).
        let mut per_part_ids: Vec<Vec<u32>> = (0..parts)
            .map(|_| self.attempt_pool.pop().unwrap_or_default())
            .collect();
        let recording = self.hist.is_on();
        {
            let slot = self.cores[c].warps[w].as_mut().expect("warp");
            let commit_mask = slot.warp.tx_stack.commit_mask();
            let retry_mask = slot.warp.tx_stack.retry_mask();
            let now = self.now.raw();
            for l in 0..slot.warp.threads.len() {
                let bit = 1u64 << l;
                // Snapshot the attempt id before the commit hook closes it;
                // the write log applies at the partitions later.
                let attempt = if recording && commit_mask & bit != 0 {
                    self.hist.current_txn(slot.gwid.0, l as u32)
                } else {
                    NO_TXN
                };
                let logs = &slot.warp.threads[l].logs;
                if commit_mask & bit != 0 {
                    for (addr, v, writes) in logs.merged_writes(&mut self.word_buf) {
                        let g = geom.granule_of(addr);
                        let p = geom.partition_of_granule(g) as usize;
                        per_part[p].push(CommitEntry {
                            granule: g,
                            addr,
                            data: Some(v),
                            writes,
                        });
                        if recording {
                            per_part_ids[p].push(attempt);
                        }
                    }
                    slot.commit_attempt(l as u32, &mut self.stats, &self.hist, now);
                } else if retry_mask & bit != 0 {
                    // Abort cleanup: address + count per reserved granule.
                    for (g, n) in logs.write_counts() {
                        let p = geom.partition_of_granule(g) as usize;
                        per_part[p].push(CommitEntry {
                            granule: g,
                            addr: geom.granule_base(g),
                            data: None,
                            writes: n,
                        });
                        if recording {
                            per_part_ids[p].push(NO_TXN);
                        }
                    }
                }
            }
        }
        for (p, entries) in per_part.into_iter().enumerate() {
            if entries.is_empty() {
                self.entry_pool.push(entries);
                continue;
            }
            let bytes = CommitEntry::batch_bytes(&entries);
            let ids = std::mem::take(&mut per_part_ids[p]);
            self.send_up(p, bytes, UpMsg::GetmLog(entries, ids), "commit");
        }
        for ids in per_part_ids {
            if ids.capacity() > 0 && ids.is_empty() {
                self.attempt_pool.push(ids);
            }
        }
        self.finish_round(c, w, true);
    }

    /// WarpTM-LL / EAPG: TCD silent commits, then the two-round-trip
    /// validation/commit sequence for the rest.
    fn commit_wtm(&mut self, c: usize, w: usize) {
        let geom = self.geom;
        let mut validate_lanes: Vec<u32> = Vec::new();
        {
            let slot = self.cores[c].warps[w].as_mut().expect("warp");
            let commit_mask = slot.warp.tx_stack.commit_mask();
            for l in 0..slot.warp.threads.len() {
                if commit_mask & (1 << l) == 0 {
                    continue;
                }
                let read_only = slot.warp.threads[l].logs.is_read_only();
                if read_only && slot.tcd_clean & (1 << l) != 0 {
                    slot.commit_attempt(l as u32, &mut self.stats, &self.hist, self.now.raw());
                    self.stats.silent_commits += 1;
                } else {
                    validate_lanes.push(l as u32);
                }
            }
        }
        if validate_lanes.is_empty() {
            self.finish_round(c, w, true);
            return;
        }
        // Merge the surviving lanes' logs into one coalesced transaction;
        // entries stay tagged with their lane so validation can fail
        // threads individually. The routing token is minted only if a job
        // actually ships (see below); until then the jobs carry the
        // default placeholder.
        let parts = self.cfg.partitions as usize;
        let gwid = self.cores[c].warps[w].as_ref().expect("warp").gwid;
        let mut jobs: Vec<ValidationJob> = (0..parts)
            .map(|_| ValidationJob {
                wid: gwid,
                ..ValidationJob::default()
            })
            .collect();
        {
            let slot = self.cores[c].warps[w].as_mut().expect("warp");
            for &l in &validate_lanes {
                let t = &mut slot.warp.threads[l as usize];
                for e in t.logs.reads() {
                    // Only reads that were *forwarded* from the lane's own
                    // earlier write skip validation; a read that preceded
                    // the write observed committed memory and must still
                    // validate (otherwise a racing commit is lost).
                    if e.forwarded {
                        continue;
                    }
                    let p = geom.partition_of(e.addr) as usize;
                    jobs[p].reads.push(warptm::LaneEntry {
                        lane: l,
                        addr: e.addr,
                        value: e.value,
                    });
                }
                for (addr, value, _) in t.logs.merged_writes(&mut self.word_buf) {
                    let p = geom.partition_of(addr) as usize;
                    jobs[p].writes.push(warptm::LaneEntry {
                        lane: l,
                        addr,
                        value,
                    });
                }
                // The merged job carries everything validation needs; the
                // lane's speculative state must stop shadowing later
                // rounds (a failed commit rolls the lane back anyway).
                t.logs.clear();
                t.in_tx = false;
            }
        }
        let involved: Vec<usize> = jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.entries() > 0)
            .map(|(p, _)| p)
            .collect();
        if involved.is_empty() {
            // Nothing to validate (pure forwarded reads): commit directly.
            let slot = self.cores[c].warps[w].as_mut().expect("warp");
            for &l in &validate_lanes {
                slot.commit_attempt(l, &mut self.stats, &self.hist, self.now.raw());
            }
            self.finish_round(c, w, true);
            return;
        }
        let token = self.insert_commit(
            c,
            w,
            CommitCtx {
                core: c,
                warp: w,
                lanes: validate_lanes,
                pending_verdicts: involved.len() as u32,
                pending_acks: 0,
                failed_lanes: 0,
                parts: involved.clone(),
            },
        );
        for p in involved {
            let mut job = std::mem::take(&mut jobs[p]);
            job.token = token;
            let bytes = job.entries() as u64 * gpu_simt::log::LOG_ENTRY_BYTES;
            self.send_up(p, bytes.max(8), UpMsg::Validate(job), "validation");
        }
    }

    /// WarpTM-EL: instant final validation, then a single write round trip.
    fn commit_el(&mut self, c: usize, w: usize) {
        let geom = self.geom;
        // Final instant validation of every lane at the commit point.
        let commit_mask = {
            let slot = self.cores[c].warps[w].as_ref().expect("warp");
            slot.warp.tx_stack.commit_mask()
        };
        let mut failed_mask = 0u64;
        let gwid = {
            let mem = &self.mem;
            let slot = self.cores[c].warps[w].as_mut().expect("warp");
            for l in 0..slot.warp.threads.len() {
                if commit_mask & (1 << l) == 0 {
                    continue;
                }
                let t = &slot.warp.threads[l];
                let valid = t
                    .logs
                    .reads()
                    .iter()
                    .all(|e| e.forwarded || mem.get(e.addr.0) == e.value);
                if !valid {
                    failed_mask |= 1 << l;
                }
            }
            if failed_mask != 0 {
                slot.warp.tx_stack.fail_commit_lanes(failed_mask);
                for l in 0..slot.warp.threads.len() as u32 {
                    if failed_mask & (1 << l) != 0 {
                        slot.abort_attempt(l, &self.hist, self.now.raw());
                    }
                }
            }
            slot.gwid.0
        };
        self.book_aborts(c, gwid, AbortCause::Validation, failed_mask.count_ones());
        let survivors = commit_mask & !failed_mask;
        // Apply survivor writes atomically now; the round trip is timing.
        let parts = self.cfg.partitions as usize;
        let mut per_part: Vec<Vec<(Addr, u64)>> = vec![Vec::new(); parts];
        let mut committed_lanes: Vec<u32> = Vec::new();
        {
            let slot = self.cores[c].warps[w].as_mut().expect("warp");
            for l in 0..slot.warp.threads.len() {
                if survivors & (1 << l) == 0 {
                    continue;
                }
                committed_lanes.push(l as u32);
                let attempt = self.hist.current_txn(gwid, l as u32);
                let t = &mut slot.warp.threads[l];
                for (addr, v, _) in t.logs.merged_writes(&mut self.word_buf) {
                    per_part[geom.partition_of(addr) as usize].push((addr, v));
                    self.hist.write_applied(attempt, addr.0, v, self.now.raw());
                }
                t.logs.clear();
                t.in_tx = false;
            }
        }
        for writes in &per_part {
            for &(a, v) in writes {
                self.mem.set(a.0, v);
            }
        }
        let involved: Vec<usize> = per_part
            .iter()
            .enumerate()
            .filter(|(_, ws)| !ws.is_empty())
            .map(|(p, _)| p)
            .collect();
        if involved.is_empty() {
            // Read-only survivors commit with no traffic.
            let slot = self.cores[c].warps[w].as_mut().expect("warp");
            for &l in &committed_lanes {
                slot.commit_attempt(l, &mut self.stats, &self.hist, self.now.raw());
            }
            self.finish_round(c, w, true);
            return;
        }
        let token = self.insert_commit(
            c,
            w,
            CommitCtx {
                core: c,
                warp: w,
                lanes: committed_lanes,
                pending_verdicts: 0,
                pending_acks: involved.len() as u32,
                failed_lanes: 0,
                parts: involved.clone(),
            },
        );
        for p in involved {
            let writes = std::mem::take(&mut per_part[p]);
            let bytes = (writes.len() as u64 * gpu_simt::log::LOG_ENTRY_BYTES).max(8);
            self.send_up(p, bytes, UpMsg::ElWriteLog { token, writes }, "commit");
        }
    }

    fn on_verdict(&mut self, token: u64, failed_lanes: u64) -> Result<(), SimError> {
        let (core, warp, lanes, failed, parts) = {
            let Some(ctx) = self.commits_in_flight.get_mut(token) else {
                return Err(SimError::ProtocolViolation {
                    what: "validation verdict for unknown commit",
                    token,
                    cycle: self.now.raw(),
                });
            };
            ctx.failed_lanes |= failed_lanes;
            ctx.pending_verdicts -= 1;
            if ctx.pending_verdicts != 0 {
                return Ok(());
            }
            (
                ctx.core,
                ctx.warp,
                ctx.lanes.clone(),
                ctx.failed_lanes,
                ctx.parts.clone(),
            )
        };
        self.cores[core].wake(warp);
        let now = self.now;
        // Abort the failed lanes individually; the survivors commit.
        let failing: Vec<u32> = lanes
            .iter()
            .copied()
            .filter(|&l| failed & (1 << l) != 0)
            .collect();
        let surviving: Vec<u32> = lanes
            .iter()
            .copied()
            .filter(|&l| failed & (1 << l) == 0)
            .collect();
        if !failing.is_empty() {
            let Some(slot) = self.cores[core].warps[warp].as_mut() else {
                return Err(SimError::ProtocolViolation {
                    what: "validation verdict for a retired warp",
                    token,
                    cycle: now.raw(),
                });
            };
            let mut mask = 0u64;
            for &l in &failing {
                mask |= 1 << l;
            }
            slot.warp.tx_stack.fail_commit_lanes(mask);
            for &l in &failing {
                slot.abort_attempt(l, &self.hist, now.raw());
            }
            let gwid = slot.gwid.0;
            self.book_aborts(core, gwid, AbortCause::Validation, failing.len() as u32);
        }
        if surviving.is_empty() {
            // Whole warp transaction failed: abort at every partition and
            // restart without waiting for acknowledgements.
            for &p in &parts {
                self.send_up(
                    p,
                    8,
                    UpMsg::CommitCmd {
                        token,
                        commit: false,
                        failed_lanes: failed,
                    },
                    "commit",
                );
            }
            self.commits_in_flight.remove(token);
            let Some(slot) = self.cores[core].warps[warp].as_mut() else {
                return Err(SimError::ProtocolViolation {
                    what: "failed commit verdict for a retired warp",
                    token,
                    cycle: now.raw(),
                });
            };
            slot.set_committing(None, now, &mut self.stats);
            self.finish_round(core, warp, false);
        } else {
            for &p in &parts {
                self.send_up(
                    p,
                    8,
                    UpMsg::CommitCmd {
                        token,
                        commit: true,
                        failed_lanes: failed,
                    },
                    "commit",
                );
            }
            let Some(ctx) = self.commits_in_flight.get_mut(token) else {
                return Err(SimError::ProtocolViolation {
                    what: "commit context vanished while issuing commit commands",
                    token,
                    cycle: now.raw(),
                });
            };
            ctx.pending_acks = parts.len() as u32;
            ctx.lanes = surviving;
        }
        Ok(())
    }

    fn on_commit_ack(&mut self, token: u64) -> Result<(), SimError> {
        let done = {
            let Some(ctx) = self.commits_in_flight.get_mut(token) else {
                return Err(SimError::ProtocolViolation {
                    what: "commit acknowledgement for unknown commit",
                    token,
                    cycle: self.now.raw(),
                });
            };
            ctx.pending_acks -= 1;
            ctx.pending_acks == 0
        };
        if !done {
            return Ok(());
        }
        let Some(ctx) = self.commits_in_flight.remove(token) else {
            return Err(SimError::ProtocolViolation {
                what: "commit context vanished between acknowledgements",
                token,
                cycle: self.now.raw(),
            });
        };
        self.cores[ctx.core].wake(ctx.warp);
        {
            let Some(slot) = self.cores[ctx.core].warps[ctx.warp].as_mut() else {
                return Err(SimError::ProtocolViolation {
                    what: "commit acknowledgement for a retired warp",
                    token,
                    cycle: self.now.raw(),
                });
            };
            slot.set_committing(None, self.now, &mut self.stats);
            for &l in &ctx.lanes {
                slot.commit_attempt(l, &mut self.stats, &self.hist, self.now.raw());
            }
        }
        self.finish_round(ctx.core, ctx.warp, true);
        Ok(())
    }

    /// Closes one commit round: restart aborted lanes (with backoff and —
    /// for GETM — a `warpts` advance) or close the region entirely.
    fn finish_round(&mut self, c: usize, w: usize, committed: bool) {
        let now = self.now;
        let is_getm = self.system == TmSystem::Getm;
        let slot = self.cores[c].warps[w].as_mut().expect("warp");
        let rounds = slot.warp.tx_stack.rounds();
        let restart = slot.finish_tx_round(now, &mut self.stats);
        if restart == 0 {
            self.stats.rounds_per_region.observe(rounds as f64 + 1.0);
        }
        if restart != 0 {
            if is_getm {
                // Restart logically after the newest conflicting timestamp,
                // with a small warp-dependent skip: every loser of a
                // conflict restarts at cause+1, so without the skip the
                // retries re-tie their clocks and must eliminate each other
                // one abort per round. Skipping ahead is always consistent
                // (logical time is arbitrary); it only trades a little
                // clock space for tie-free retries that can queue.
                let cause = slot.warp.abort_cause_ts;
                let skip = 1 + (slot.gwid.0 as u64 & 7);
                slot.warp.warpts = slot.warp.warpts.max(cause + skip);
                slot.warp.abort_cause_ts = 0;
                if slot.warp.warpts >= self.cfg.ts_limit {
                    self.rollover_pending = true;
                }
            }
            slot.warp.backoff.note_abort();
            let mut delay = slot.warp.backoff.next_delay(&mut slot.rng);
            // Serialization fallback: non-priority warps park for a full
            // watchdog window so the priority warp retries alone. (The rng
            // draw above happens either way, keeping replay deterministic.)
            if self.wd.mode == super::WdMode::Serialized
                && self.wd.priority != Some(slot.gwid.0 as u64)
            {
                delay = delay.max(self.wd.window);
            }
            let until = slot.warp.sleep_until.max(now + 1 + delay);
            slot.set_sleep_until(until, now, &mut self.stats);
            let gwid = slot.gwid.0;
            self.rec.emit(|| {
                (
                    Stamp::warp(now.raw(), c as u32, gwid),
                    SimEvent::BackoffSleep { delay },
                )
            });
            slot.doomed &= !restart;
            slot.tcd_clean |= restart;
            for l in lanes_of(restart) {
                let t = &mut slot.warp.threads[l as usize];
                t.rollback();
                t.in_tx = true;
                slot.warp.set_status(l, ThreadStatus::Ready);
                slot.tx_begin[l as usize] = now;
                // The runtime re-enters the region without re-issuing
                // TxBegin, so the retry attempt opens here.
                self.hist.begin(c, gwid, l, now.raw());
            }
        } else {
            // Region closed.
            if committed {
                let gwid = slot.gwid.0;
                self.rec
                    .emit(|| (Stamp::warp(now.raw(), c as u32, gwid), SimEvent::TxCommit));
            }
            if is_getm && committed {
                slot.warp.warpts = slot.warp.warpts.max(slot.obs_max_ts) + 1;
            }
            if is_getm && slot.warp.warpts >= self.cfg.ts_limit {
                self.rollover_pending = true;
            }
            slot.warp.backoff.reset();
            for l in lanes_of(slot.warp.lanes_in(ThreadStatus::AtCommit)) {
                slot.warp.set_status(l, ThreadStatus::Ready);
            }
            for t in slot.warp.threads.iter_mut() {
                if t.in_tx {
                    t.in_tx = false;
                    t.logs.clear();
                }
            }
        }
        // Committed lanes cleared their logs, restarted lanes rolled theirs
        // back, and a closed region cleared the rest: nothing in the table
        // can speak for the next round.
        debug_assert!(
            slot.warp
                .threads
                .iter()
                .all(|t| !t.in_tx || t.logs.is_empty()),
            "a lane enters the next round with a non-empty log"
        );
        slot.granules.clear();
        if restart == 0 {
            self.cores[c].release_token(w);
        }
    }

    /// Books `lanes` lane aborts of warp `gwid` on core `c` under `cause`:
    /// the abort total, the engine's per-cause tally, and one `TxAbort`
    /// trace event. A no-op for zero lanes. GETM's eager-check causes have
    /// no engine tally: the VU counts them per request.
    fn book_aborts(&mut self, c: usize, gwid: u32, cause: AbortCause, lanes: u32) {
        if lanes == 0 {
            return;
        }
        let n = lanes as u64;
        self.stats.aborts += n;
        match cause {
            AbortCause::IntraWarp => self.stats.aborts_intra_warp += n,
            AbortCause::Validation => self.stats.aborts_validation += n,
            AbortCause::EarlyAbort => self.stats.eapg_early_aborts += n,
            AbortCause::War
            | AbortCause::LockConflict
            | AbortCause::StallFull
            | AbortCause::Approx => {}
        }
        let now = self.now.raw();
        self.rec.emit(|| {
            (
                Stamp::warp(now, c as u32, gwid),
                SimEvent::TxAbort { cause, lanes },
            )
        });
    }

    /// Inserts an in-flight commit context and marks the warp committing,
    /// returning the token.
    fn insert_commit(&mut self, c: usize, w: usize, ctx: CommitCtx) -> u64 {
        let token = self.commits_in_flight.insert(ctx);
        self.cores[c].warps[w]
            .as_mut()
            .expect("warp")
            .set_committing(Some(token), self.now, &mut self.stats);
        token
    }

    /// Sends a message on the up crossbar (at the current cycle).
    fn send_up(&mut self, part: usize, bytes: u64, msg: UpMsg, cat: &'static str) {
        self.up.send(self.now, part, bytes, msg, cat);
    }
}
