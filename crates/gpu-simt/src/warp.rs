//! Warp and thread execution state.
//!
//! A [`Warp`] bundles up to 32 (configurable) thread slots that execute in
//! lockstep, the transactional SIMT stack, the warp's logical timestamp
//! (`warpts`, used by GETM), and its backoff state. The cycle-level engine
//! in the `gputm` facade drives these structures; this module owns the
//! invariants of the per-thread state machine.
//!
//! Lane statuses live in one bitmask per [`ThreadStatus`], so the engine's
//! per-cycle questions ("any lane ready?", "all finished?") are one word
//! compare each, and lane loops walk only the set bits of a mask.

use crate::backoff::Backoff;
use crate::log::TxLogs;
use crate::program::{BoxedProgram, Op, OpResult};
use crate::stack::{full_mask, LaneMask, TxStack};
use sim_core::Cycle;

/// The execution status of one thread slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadStatus {
    /// May fetch and issue its next op.
    Ready,
    /// Waiting for a memory or protocol response.
    Blocked,
    /// Reached `TxCommit`; waits for the rest of the warp.
    AtCommit,
    /// Aborted; waits for the warp commit point, then retries.
    Aborted,
    /// The program returned [`Op::Done`].
    Finished,
}

impl ThreadStatus {
    /// Every status, in declaration (and mask-index) order.
    pub const ALL: [ThreadStatus; 5] = [
        ThreadStatus::Ready,
        ThreadStatus::Blocked,
        ThreadStatus::AtCommit,
        ThreadStatus::Aborted,
        ThreadStatus::Finished,
    ];
}

/// One thread slot of a warp. Its status lives in the warp's lane masks
/// ([`Warp::lane_status`]).
pub struct ThreadSlot {
    program: BoxedProgram,
    /// Result to feed the program on its next fetch.
    pub pending_result: OpResult,
    /// An op that was fetched but could not issue yet (kept until issued).
    pub staged_op: Option<Op>,
    /// The thread's transaction logs.
    pub logs: TxLogs,
    /// Whether the thread is inside a transaction.
    pub in_tx: bool,
}

impl std::fmt::Debug for ThreadSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadSlot")
            .field("in_tx", &self.in_tx)
            .field("staged_op", &self.staged_op)
            .finish()
    }
}

impl ThreadSlot {
    /// Wraps a program in a fresh slot.
    pub fn new(program: BoxedProgram) -> Self {
        ThreadSlot {
            program,
            pending_result: OpResult::None,
            staged_op: None,
            logs: TxLogs::new(),
            in_tx: false,
        }
    }

    /// Fetches the thread's next op, consuming the pending result. If an op
    /// is already staged (fetched but not yet issued), returns it instead.
    pub fn fetch_op(&mut self) -> Op {
        if let Some(op) = self.staged_op {
            return op;
        }
        let prev = std::mem::replace(&mut self.pending_result, OpResult::None);
        let op = self.program.next(prev);
        self.staged_op = Some(op);
        op
    }

    /// Marks the staged op as issued.
    pub fn consume_op(&mut self) {
        self.staged_op = None;
    }

    /// Rewinds the program to the transaction start and clears speculative
    /// state (logs, staged op) for a retry.
    pub fn rollback(&mut self) {
        self.program.rollback();
        self.logs.clear();
        self.staged_op = None;
        self.pending_result = OpResult::None;
    }
}

/// Warp-level status, derived from thread states plus timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpStatus {
    /// At least one thread can issue.
    Ready,
    /// Every unfinished thread is blocked / at commit / aborted, or the
    /// warp is sleeping until a future cycle.
    Stalled,
    /// All threads finished.
    Finished,
}

/// A warp: lockstep threads plus transactional state.
pub struct Warp {
    /// Thread slots (index = lane).
    pub threads: Vec<ThreadSlot>,
    /// One lane mask per [`ThreadStatus`] (indexed by the status): each
    /// lane's bit is set in exactly one of them.
    masks: [LaneMask; 5],
    /// Every lane of the warp (the low `width` bits).
    full: LaneMask,
    /// The transactional SIMT stack.
    pub tx_stack: TxStack,
    /// GETM logical timestamp for this warp's transactions.
    pub warpts: u64,
    /// Backoff state for aborted transactions.
    pub backoff: Backoff,
    /// The warp may not issue before this cycle (compute latency, backoff).
    pub sleep_until: Cycle,
    /// Outstanding memory/protocol responses the warp is waiting for.
    pub outstanding: u32,
    /// Highest conflicting timestamp reported by aborts in the current
    /// round (GETM advances `warpts` past it on restart).
    pub abort_cause_ts: u64,
}

impl std::fmt::Debug for Warp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Warp")
            .field("threads", &self.threads.len())
            .field("warpts", &self.warpts)
            .field("outstanding", &self.outstanding)
            .field("tx_open", &self.tx_stack.is_open())
            .finish()
    }
}

impl Warp {
    /// Builds a warp from per-lane programs.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty or wider than 64 lanes.
    pub fn new(programs: Vec<BoxedProgram>) -> Self {
        assert!(
            !programs.is_empty() && programs.len() <= 64,
            "a warp has 1..=64 lanes"
        );
        let full = full_mask(programs.len() as u32);
        let mut masks = [0; 5];
        masks[ThreadStatus::Ready as usize] = full;
        Warp {
            threads: programs.into_iter().map(ThreadSlot::new).collect(),
            masks,
            full,
            tx_stack: TxStack::new(),
            warpts: 0,
            backoff: Backoff::paper_default(),
            sleep_until: Cycle::ZERO,
            outstanding: 0,
            abort_cause_ts: 0,
        }
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.threads.len()
    }

    /// Lane `l`'s status.
    pub fn lane_status(&self, l: u32) -> ThreadStatus {
        let bit = 1 << l;
        ThreadStatus::ALL
            .into_iter()
            .find(|&s| self.masks[s as usize] & bit != 0)
            .expect("every lane has a status")
    }

    /// Moves lane `l` to `status`.
    pub fn set_status(&mut self, l: u32, status: ThreadStatus) {
        let bit = 1 << l;
        debug_assert!(self.full & bit != 0, "lane {l} is outside the warp");
        for m in &mut self.masks {
            *m &= !bit;
        }
        self.masks[status as usize] |= bit;
    }

    /// The lanes currently in `status`.
    pub fn lanes_in(&self, status: ThreadStatus) -> LaneMask {
        self.masks[status as usize]
    }

    /// Whether every thread has finished.
    pub fn all_finished(&self) -> bool {
        self.lanes_in(ThreadStatus::Finished) == self.full
    }

    /// Whether any thread is in [`ThreadStatus::Ready`].
    pub fn any_ready(&self) -> bool {
        self.lanes_in(ThreadStatus::Ready) != 0
    }

    /// The warp status at cycle `now`.
    ///
    /// A warp with outstanding memory responses can still issue for its
    /// *ready* lanes — divergent lanes on the other side of a branch (or a
    /// spin loop) proceed independently, exactly as the SIMT divergence
    /// stack allows. Only sleep (compute/backoff) and having no ready lane
    /// stall the whole warp.
    pub fn status(&self, now: Cycle) -> WarpStatus {
        if self.all_finished() {
            WarpStatus::Finished
        } else if now < self.sleep_until || !self.any_ready() {
            WarpStatus::Stalled
        } else {
            WarpStatus::Ready
        }
    }

    /// Whether the warp has an open transaction region.
    pub fn in_tx(&self) -> bool {
        self.tx_stack.is_open()
    }

    /// If the warp is asleep at `now` (compute latency or backoff), the
    /// cycle it wakes at. `None` for an awake warp. The engine's idle
    /// skip-ahead uses this as a hop bound: nothing about a sleeping warp
    /// changes before `sleep_until`, so cycles up to (exclusive) that point
    /// can be elided wholesale.
    pub fn sleeping_until(&self, now: Cycle) -> Option<Cycle> {
        (now < self.sleep_until).then_some(self.sleep_until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ScriptProgram;
    use gpu_mem::Addr;

    fn warp_of(scripts: Vec<Vec<Op>>) -> Warp {
        Warp::new(
            scripts
                .into_iter()
                .map(|ops| Box::new(ScriptProgram::new(ops)) as BoxedProgram)
                .collect(),
        )
    }

    #[test]
    fn fetch_and_consume() {
        let mut w = warp_of(vec![vec![Op::Compute(2), Op::Load(Addr(8))]]);
        let t = &mut w.threads[0];
        assert_eq!(t.fetch_op(), Op::Compute(2));
        // Fetch again without consuming: same staged op.
        assert_eq!(t.fetch_op(), Op::Compute(2));
        t.consume_op();
        assert_eq!(t.fetch_op(), Op::Load(Addr(8)));
    }

    #[test]
    fn status_transitions() {
        let mut w = warp_of(vec![vec![Op::Compute(1)]]);
        assert_eq!(w.status(Cycle(0)), WarpStatus::Ready);
        w.sleep_until = Cycle(10);
        assert_eq!(w.status(Cycle(5)), WarpStatus::Stalled);
        assert_eq!(w.status(Cycle(10)), WarpStatus::Ready);
        // Outstanding responses do not stall ready lanes (divergence).
        w.outstanding = 1;
        assert_eq!(w.status(Cycle(10)), WarpStatus::Ready);
        w.outstanding = 0;
        w.set_status(0, ThreadStatus::Finished);
        assert_eq!(w.status(Cycle(10)), WarpStatus::Finished);
        assert!(w.all_finished());
    }

    #[test]
    fn rollback_clears_speculative_state() {
        let g = gpu_mem::Geometry::new(128, 32, 6);
        let mut w = warp_of(vec![vec![
            Op::TxBegin,
            Op::TxStore(Addr(0), 1),
            Op::TxCommit,
        ]]);
        let t = &mut w.threads[0];
        assert_eq!(t.fetch_op(), Op::TxBegin);
        t.consume_op();
        assert_eq!(t.fetch_op(), Op::TxStore(Addr(0), 1));
        t.consume_op();
        t.logs.record_write(Addr(0), 1, &g);
        t.rollback();
        assert!(t.logs.is_empty());
        assert_eq!(t.staged_op, None);
        // Program rewound to just after TxBegin.
        assert_eq!(t.fetch_op(), Op::TxStore(Addr(0), 1));
    }

    fn warp_of_width(n: usize) -> Warp {
        warp_of(vec![vec![Op::Done]; n])
    }

    /// Checks every mask query against a per-lane recount of `model`.
    fn assert_agrees(w: &Warp, model: &[ThreadStatus]) {
        for s in ThreadStatus::ALL {
            let recount = model
                .iter()
                .enumerate()
                .filter(|&(_, &m)| m == s)
                .fold(0u64, |acc, (l, _)| acc | 1 << l);
            assert_eq!(w.lanes_in(s), recount, "{s:?} mask, width {}", w.width());
        }
        for (l, &m) in model.iter().enumerate() {
            assert_eq!(w.lane_status(l as u32), m, "lane {l}");
        }
        let all_finished = model.iter().all(|&m| m == ThreadStatus::Finished);
        let any_ready = model.contains(&ThreadStatus::Ready);
        assert_eq!(w.all_finished(), all_finished);
        assert_eq!(w.any_ready(), any_ready);
        assert_eq!(
            w.lanes_in(ThreadStatus::Ready) & w.lanes_in(ThreadStatus::Finished),
            0,
            "a lane is both ready and finished"
        );
        let expected = if all_finished {
            WarpStatus::Finished
        } else if any_ready {
            WarpStatus::Ready
        } else {
            WarpStatus::Stalled
        };
        assert_eq!(w.status(Cycle(0)), expected);
    }

    #[test]
    fn lane_masks_agree_with_a_per_lane_recount() {
        for width in [1usize, 3, 32, 64] {
            let mut w = warp_of_width(width);
            let mut model = vec![ThreadStatus::Ready; width];
            assert_agrees(&w, &model);
            // Every transition, on the first, a middle and the last lane.
            for l in [0, width / 2, width - 1] {
                for from in ThreadStatus::ALL {
                    for to in ThreadStatus::ALL {
                        for s in [from, to] {
                            w.set_status(l as u32, s);
                            model[l] = s;
                            assert_agrees(&w, &model);
                        }
                    }
                }
            }
            // A deterministic random walk over all lanes.
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            for _ in 0..400 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let l = (x % width as u64) as usize;
                let s = ThreadStatus::ALL[(x >> 32) as usize % 5];
                w.set_status(l as u32, s);
                model[l] = s;
                assert_agrees(&w, &model);
            }
        }
    }

    #[test]
    fn full_warps_finish_without_overflow() {
        for width in [1usize, 3, 32, 64] {
            let mut w = warp_of_width(width);
            for l in 0..width as u32 {
                assert!(!w.all_finished(), "width {width}: lane {l} still ready");
                w.set_status(l, ThreadStatus::Finished);
            }
            assert!(w.all_finished(), "width {width}");
            assert!(!w.any_ready());
            assert_eq!(w.status(Cycle(0)), WarpStatus::Finished);
        }
        let w = warp_of_width(64);
        assert_eq!(w.lanes_in(ThreadStatus::Ready), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn empty_warp_rejected() {
        let _ = Warp::new(vec![]);
    }
}
