//! A sequential reference interpreter for thread programs.
//!
//! Executes each thread's program to completion, one thread at a time,
//! against a flat memory image. Transactions trivially succeed (there is no
//! concurrency) but read-own-writes forwarding and abort/rollback can be
//! exercised on demand, so this doubles as (a) a validity check that each
//! workload's program logic establishes the checker's invariants, and (b) a
//! serializability oracle for the full simulator's final states.

use crate::{SyncMode, Workload};
use gpu_mem::{Addr, MemImage};
use gpu_simt::{Op, OpResult, ThreadProgram};

/// Runs one program to completion against `mem`, applying transactional
/// writes at commit (redo-log semantics) and forwarding read-own-writes.
///
/// Returns the number of ops executed.
///
/// # Panics
///
/// Panics if the program exceeds `max_ops` operations (runaway loop) or
/// misuses the transactional interface.
pub fn run_program_sequential(
    prog: &mut dyn ThreadProgram,
    mem: &mut MemImage,
    max_ops: usize,
) -> usize {
    let mut prev = OpResult::None;
    let mut redo: Vec<(Addr, u64)> = Vec::new();
    let mut in_tx = false;
    for count in 0..max_ops {
        match prog.next(prev) {
            Op::Done => return count,
            Op::TxBegin => {
                assert!(!in_tx, "nested TxBegin");
                in_tx = true;
                redo.clear();
                prev = OpResult::None;
            }
            Op::TxCommit => {
                assert!(in_tx, "TxCommit outside transaction");
                for &(a, v) in &redo {
                    mem.set(a.0, v);
                }
                redo.clear();
                in_tx = false;
                prev = OpResult::None;
            }
            Op::TxLoad(a) => {
                assert!(in_tx, "TxLoad outside transaction");
                let fwd = redo.iter().rev().find(|&&(ra, _)| ra == a).map(|&(_, v)| v);
                prev = OpResult::Value(fwd.unwrap_or_else(|| mem.get(a.0)));
            }
            Op::TxStore(a, v) => {
                assert!(in_tx, "TxStore outside transaction");
                redo.push((a, v));
                prev = OpResult::None;
            }
            Op::Load(a) => prev = OpResult::Value(mem.get(a.0)),
            Op::Store(a, v) => {
                mem.set(a.0, v);
                prev = OpResult::None;
            }
            Op::AtomicCas { addr, expect, new } => {
                let old = mem.get(addr.0);
                if old == expect {
                    mem.set(addr.0, new);
                }
                prev = OpResult::Value(old);
            }
            Op::AtomicAdd { addr, delta } => {
                let old = mem.get(addr.0);
                mem.set(addr.0, old.wrapping_add(delta));
                prev = OpResult::Value(old);
            }
            Op::Compute(_) => prev = OpResult::None,
        }
    }
    panic!("program exceeded {max_ops} ops — runaway loop?");
}

/// Runs every thread of `workload` sequentially under `mode` and applies
/// the workload's checker to the final memory.
///
/// # Panics
///
/// Panics if the checker rejects the final state — the workload's program
/// logic and checker disagree, which is a workload bug.
pub fn run_workload_sequential(workload: &dyn Workload, mode: SyncMode) -> MemImage {
    let mut mem =
        MemImage::from_pairs(workload.initial_memory().into_iter().map(|(a, v)| (a.0, v)));
    for tid in 0..workload.thread_count() {
        let mut prog = workload.program(tid, mode);
        run_program_sequential(prog.as_mut(), &mut mem, 5_000_000);
    }
    if let Err(e) = workload.check(&|a| mem.get(a.0)) {
        panic!("{} sequential run failed its checker: {e}", workload.name());
    }
    mem
}

/// Like [`run_workload_sequential`] but interleaves threads round-robin,
/// one *transaction or lock-protected critical section* at a time, to shake
/// out order dependence in program logic. (Still serial: critical sections
/// never overlap.)
pub fn run_workload_round_robin(workload: &dyn Workload, mode: SyncMode) -> MemImage {
    struct Slot {
        prog: gpu_simt::BoxedProgram,
        prev: OpResult,
        done: bool,
    }
    let mut mem =
        MemImage::from_pairs(workload.initial_memory().into_iter().map(|(a, v)| (a.0, v)));
    let mut slots: Vec<Slot> = (0..workload.thread_count())
        .map(|tid| Slot {
            prog: workload.program(tid, mode),
            prev: OpResult::None,
            done: false,
        })
        .collect();
    let mut remaining = slots.len();
    let mut guard = 0usize;
    while remaining > 0 {
        guard += 1;
        assert!(guard < 100_000_000, "round-robin runaway");
        for slot in slots.iter_mut().filter(|s| !s.done) {
            // Run until this thread completes one transaction (or a chunk
            // of non-transactional ops), then yield.
            let mut redo: Vec<(Addr, u64)> = Vec::new();
            let mut in_tx = false;
            let mut ops_this_turn = 0;
            loop {
                ops_this_turn += 1;
                assert!(ops_this_turn < 5_000_000, "thread turn runaway");
                let op = slot.prog.next(slot.prev);
                match op {
                    Op::Done => {
                        slot.done = true;
                        remaining -= 1;
                        break;
                    }
                    Op::TxBegin => {
                        in_tx = true;
                        redo.clear();
                        slot.prev = OpResult::None;
                    }
                    Op::TxCommit => {
                        for &(a, v) in &redo {
                            mem.set(a.0, v);
                        }
                        redo.clear();
                        slot.prev = OpResult::None;
                        break; // yield after each transaction
                    }
                    Op::TxLoad(a) => {
                        let fwd = redo.iter().rev().find(|&&(ra, _)| ra == a).map(|&(_, v)| v);
                        slot.prev = OpResult::Value(fwd.unwrap_or_else(|| mem.get(a.0)));
                    }
                    Op::TxStore(a, v) => {
                        redo.push((a, v));
                        slot.prev = OpResult::None;
                    }
                    Op::Load(a) => slot.prev = OpResult::Value(mem.get(a.0)),
                    Op::Store(a, v) => {
                        mem.set(a.0, v);
                        slot.prev = OpResult::None;
                        // Yield at lock releases (stores outside tx).
                        if !in_tx {
                            break;
                        }
                    }
                    Op::AtomicCas { addr, expect, new } => {
                        let old = mem.get(addr.0);
                        if old == expect {
                            mem.set(addr.0, new);
                        }
                        slot.prev = OpResult::Value(old);
                        // Yield after every atomic so spin-lock contenders
                        // interleave with the lock holder instead of
                        // spinning through an entire turn.
                        break;
                    }
                    Op::AtomicAdd { addr, delta } => {
                        let old = mem.get(addr.0);
                        mem.set(addr.0, old.wrapping_add(delta));
                        slot.prev = OpResult::Value(old);
                        break;
                    }
                    Op::Compute(_) => slot.prev = OpResult::None,
                }
            }
        }
    }
    if let Err(e) = workload.check(&|a| mem.get(a.0)) {
        panic!(
            "{} round-robin run failed its checker: {e}",
            workload.name()
        );
    }
    mem
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_simt::program::ScriptProgram;

    #[test]
    fn sequential_interpreter_applies_tx_at_commit() {
        let mut mem = MemImage::default();
        let mut p = ScriptProgram::new(vec![
            Op::TxBegin,
            Op::TxStore(Addr(8), 42),
            Op::TxLoad(Addr(8)), // must forward 42
            Op::TxCommit,
        ]);
        let n = run_program_sequential(&mut p, &mut mem, 100);
        assert_eq!(n, 4);
        assert_eq!(mem.get(8), 42);
    }

    #[test]
    fn cas_semantics() {
        let mut mem = MemImage::default();
        let mut p = ScriptProgram::new(vec![
            Op::AtomicCas {
                addr: Addr(0),
                expect: 0,
                new: 7,
            },
            Op::AtomicCas {
                addr: Addr(0),
                expect: 0,
                new: 9,
            },
        ]);
        run_program_sequential(&mut p, &mut mem, 100);
        assert_eq!(mem.get(0), 7, "second CAS must fail");
    }

    #[test]
    #[should_panic(expected = "runaway")]
    fn runaway_detection() {
        // A program that never finishes.
        struct Forever;
        impl ThreadProgram for Forever {
            fn next(&mut self, _prev: OpResult) -> Op {
                Op::Compute(1)
            }
            fn rollback(&mut self) {}
        }
        let mut mem = MemImage::default();
        run_program_sequential(&mut Forever, &mut mem, 1000);
    }
}
