//! The thread-program abstraction.
//!
//! Workloads are expressed as one [`ThreadProgram`] per simulated thread: a
//! resumable state machine that yields one [`Op`] at a time and receives the
//! result of the previous op. This keeps workloads *operational* — a
//! hashtable insert really chases chain pointers it loaded, a Barnes-Hut
//! insert really descends the tree it built — so value-based validation and
//! data-dependent contention are exercised for real.
//!
//! Transactional semantics seen by a program:
//!
//! * Ops between [`Op::TxBegin`] and [`Op::TxCommit`] form one transaction.
//! * On abort, the runtime calls [`ThreadProgram::rollback`] and re-executes
//!   from the `TxBegin`; the program must rewind any internal state it
//!   mutated since the transaction began.
//! * Transactional loads observe the thread's own earlier transactional
//!   stores (read-own-writes), provided by the runtime's redo log.

use gpu_mem::Addr;

/// One operation issued by a thread. Every address is the 8-byte-aligned
/// byte address of a 64-bit word; the simulator refuses a misaligned one
/// at issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Begin a transaction.
    TxBegin,
    /// Transactional load; the next `next()` call receives the value.
    TxLoad(Addr),
    /// Transactional store of a 64-bit word.
    TxStore(Addr, u64),
    /// Commit the current transaction.
    TxCommit,
    /// Non-transactional load.
    Load(Addr),
    /// Non-transactional store.
    Store(Addr, u64),
    /// Atomic compare-and-swap executed at the LLC partition; yields the
    /// old value (swap happened iff old value equals `expect`).
    AtomicCas {
        /// Target word's byte address (8-byte aligned).
        addr: Addr,
        /// Expected old value.
        expect: u64,
        /// Replacement value.
        new: u64,
    },
    /// Atomic add executed at the LLC partition; yields the old value.
    AtomicAdd {
        /// Target word's byte address (8-byte aligned).
        addr: Addr,
        /// Addend.
        delta: u64,
    },
    /// Busy computation for the given number of cycles.
    Compute(u32),
    /// The thread has finished all its work.
    Done,
}

impl Op {
    /// Whether this op is a transactional memory access.
    pub fn is_tx_access(&self) -> bool {
        matches!(self, Op::TxLoad(_) | Op::TxStore(..))
    }

    /// Whether this op goes to the memory system at all.
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Op::TxLoad(_)
                | Op::TxStore(..)
                | Op::Load(_)
                | Op::Store(..)
                | Op::AtomicCas { .. }
                | Op::AtomicAdd { .. }
        )
    }

    /// A coarse kind tag used by the warp-step grouper: ops of the same
    /// kind issue together in lockstep.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::TxBegin => OpKind::TxBegin,
            Op::TxLoad(_) => OpKind::TxLoad,
            Op::TxStore(..) => OpKind::TxStore,
            Op::TxCommit => OpKind::TxCommit,
            Op::Load(_) => OpKind::Load,
            Op::Store(..) => OpKind::Store,
            Op::AtomicCas { .. } | Op::AtomicAdd { .. } => OpKind::Atomic,
            Op::Compute(_) => OpKind::Compute,
            Op::Done => OpKind::Done,
        }
    }
}

/// Coarse op classification for lockstep grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum OpKind {
    TxBegin,
    TxLoad,
    TxStore,
    TxCommit,
    Load,
    Store,
    Atomic,
    Compute,
    Done,
}

/// The result delivered to a program before it yields its next op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResult {
    /// First call, or the previous op carried no result (stores, compute,
    /// begin/commit).
    None,
    /// The value produced by a load / CAS / atomic.
    Value(u64),
}

impl OpResult {
    /// Extracts the value.
    ///
    /// # Panics
    ///
    /// Panics if there is no value — a workload bug.
    pub fn value(self) -> u64 {
        match self {
            OpResult::Value(v) => v,
            OpResult::None => panic!("expected a value result"),
        }
    }
}

/// A resumable per-thread program.
pub trait ThreadProgram {
    /// Yields the next op, given the result of the previous one.
    fn next(&mut self, prev: OpResult) -> Op;

    /// Rewinds to the most recent `TxBegin` after an abort. The runtime
    /// re-issues `TxBegin` implicitly; the next `next()` call after
    /// `rollback` must yield the first op *inside* the transaction.
    fn rollback(&mut self);
}

/// A boxed program, the form the simulator stores per thread.
pub type BoxedProgram = Box<dyn ThreadProgram + Send>;

/// A trivial program that yields a fixed op sequence and rewinds to the most
/// recent `TxBegin` on rollback. Useful for tests and microbenchmarks.
#[derive(Debug, Clone)]
pub struct ScriptProgram {
    ops: Vec<Op>,
    pc: usize,
    tx_start: Option<usize>,
}

impl ScriptProgram {
    /// Creates a program from a literal op list. `Op::Done` is implicit at
    /// the end.
    pub fn new(ops: Vec<Op>) -> Self {
        ScriptProgram {
            ops,
            pc: 0,
            tx_start: None,
        }
    }
}

impl ThreadProgram for ScriptProgram {
    fn next(&mut self, _prev: OpResult) -> Op {
        let op = self.ops.get(self.pc).copied().unwrap_or(Op::Done);
        if matches!(op, Op::TxBegin) {
            // Remember the op *after* TxBegin as the rollback target.
            self.tx_start = Some(self.pc + 1);
        }
        if self.pc < self.ops.len() {
            self.pc += 1;
        }
        op
    }

    fn rollback(&mut self) {
        self.pc = self.tx_start.expect("rollback outside a transaction");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification() {
        assert!(Op::TxLoad(Addr(0)).is_tx_access());
        assert!(Op::TxStore(Addr(0), 1).is_tx_access());
        assert!(!Op::Load(Addr(0)).is_tx_access());
        assert!(Op::Load(Addr(0)).is_memory());
        assert!(Op::AtomicAdd {
            addr: Addr(0),
            delta: 1
        }
        .is_memory());
        assert!(!Op::Compute(3).is_memory());
        assert_eq!(Op::TxBegin.kind(), OpKind::TxBegin);
        assert_eq!(
            Op::AtomicCas {
                addr: Addr(0),
                expect: 0,
                new: 1
            }
            .kind(),
            OpKind::Atomic
        );
    }

    #[test]
    fn op_result_value() {
        assert_eq!(OpResult::Value(9).value(), 9);
    }

    #[test]
    #[should_panic(expected = "expected a value")]
    fn op_result_none_panics() {
        OpResult::None.value();
    }

    #[test]
    fn script_program_runs_to_done() {
        let mut p = ScriptProgram::new(vec![Op::Compute(1), Op::Load(Addr(8))]);
        assert_eq!(p.next(OpResult::None), Op::Compute(1));
        assert_eq!(p.next(OpResult::None), Op::Load(Addr(8)));
        assert_eq!(p.next(OpResult::Value(0)), Op::Done);
        assert_eq!(p.next(OpResult::None), Op::Done); // stays done
    }

    #[test]
    fn script_program_rollback_to_tx_start() {
        let mut p = ScriptProgram::new(vec![
            Op::TxBegin,
            Op::TxLoad(Addr(0)),
            Op::TxStore(Addr(0), 1),
            Op::TxCommit,
        ]);
        assert_eq!(p.next(OpResult::None), Op::TxBegin);
        assert_eq!(p.next(OpResult::None), Op::TxLoad(Addr(0)));
        p.rollback();
        // After rollback the first op inside the transaction repeats.
        assert_eq!(p.next(OpResult::None), Op::TxLoad(Addr(0)));
        assert_eq!(p.next(OpResult::Value(5)), Op::TxStore(Addr(0), 1));
        assert_eq!(p.next(OpResult::None), Op::TxCommit);
        assert_eq!(p.next(OpResult::None), Op::Done);
    }
}
