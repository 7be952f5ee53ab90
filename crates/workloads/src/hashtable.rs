//! Hashtable population (HT-H / HT-M / HT-L).
//!
//! Each thread inserts one pre-allocated node at the head of a chained
//! hashtable bucket. The three paper variants differ only in table size
//! relative to the insert count, which sets the contention level: HT-H's
//! small table makes concurrent same-bucket inserts common, HT-L's large
//! table makes them rare.
//!
//! Memory layout (8-byte words):
//!
//! * `buckets[i]`  — head pointer of bucket `i` (0 = empty),
//! * `node[tid]`   — 32-byte node per thread: `key` at word 0, `next` at
//!   word 1,
//! * `locks[i]`    — the per-bucket spin lock used by the FGLock variant.
//!
//! Checker: every key is reachable exactly once, chains are cycle-free, and
//! the total node count equals the thread count.

use crate::txprog::{MemSpan, TxProgram};
use crate::{Region, SyncMode, Workload};
use fglock::{LockAcquirer, LockPhase};
use gpu_mem::Addr;
use gpu_simt::{BoxedProgram, Op, OpResult, ThreadProgram};
use sim_core::DetRng;
use std::collections::HashSet;

const BUCKETS: Region = Region::new(0x1000_0000, 8);
const LOCKS: Region = Region::new(0x2000_0000, 8);
const NODES: Region = Region::new(0x3000_0000, 32);

/// The hashtable benchmark family.
#[derive(Debug, Clone)]
pub struct HashTable {
    name: String,
    buckets: u64,
    inserts: usize,
    /// Cycles of hash computation preceding each insert.
    compute: u32,
    seed: u64,
}

impl HashTable {
    /// A table with `buckets` buckets populated by `inserts` threads.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(name: &str, buckets: u64, inserts: usize, seed: u64) -> Self {
        assert!(buckets > 0 && inserts > 0);
        HashTable {
            name: name.to_owned(),
            buckets,
            inserts,
            compute: 6,
            seed,
        }
    }

    /// HT-H: inserts outnumber buckets ~4x (high contention).
    pub fn ht_h(inserts: usize, seed: u64) -> Self {
        HashTable::new("HT-H", (inserts as u64 / 4).max(1), inserts, seed)
    }

    /// HT-M: buckets ~2.5x inserts (medium contention, paper's 10x table).
    pub fn ht_m(inserts: usize, seed: u64) -> Self {
        HashTable::new("HT-M", inserts as u64 * 5 / 2, inserts, seed)
    }

    /// HT-L: buckets ~25x inserts (low contention, paper's 100x table).
    pub fn ht_l(inserts: usize, seed: u64) -> Self {
        HashTable::new("HT-L", inserts as u64 * 25, inserts, seed)
    }

    fn key_of(&self, tid: usize) -> u64 {
        // Distinct, nonzero keys.
        DetRng::seeded(self.seed).fork(tid as u64).next_u64() | 1
    }

    fn bucket_of(&self, key: u64) -> u64 {
        // Multiplicative hash.
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 17) % self.buckets
    }

    /// This benchmark as a backend-neutral [`TxProgram`]. The TM variant
    /// touches only the bucket heads and the node pool (the lock words
    /// exist solely for the FGLock variant).
    pub fn tx_program(&self) -> TxProgram {
        TxProgram::new(
            Box::new(self.clone()),
            vec![
                MemSpan::of_region(BUCKETS, self.buckets),
                MemSpan::of_region(NODES, self.inserts as u64),
            ],
        )
    }
}

impl Workload for HashTable {
    fn name(&self) -> &str {
        &self.name
    }

    fn initial_memory(&self) -> Vec<(Addr, u64)> {
        // Pre-set each thread's node key; buckets and locks start zeroed.
        (0..self.inserts)
            .map(|tid| (NODES.field(tid as u64, 0), self.key_of(tid)))
            .collect()
    }

    fn thread_count(&self) -> usize {
        self.inserts
    }

    fn program(&self, tid: usize, mode: SyncMode) -> BoxedProgram {
        let key = self.key_of(tid);
        let bucket = self.bucket_of(key);
        match mode {
            SyncMode::Tm => Box::new(TmInsert {
                bucket,
                node: tid as u64,
                compute: self.compute,
                step: 0,
            }),
            SyncMode::FgLock => Box::new(LockInsert {
                bucket,
                node: tid as u64,
                compute: self.compute,
                acquirer: LockAcquirer::new_salted(vec![LOCKS.at(bucket)], tid as u64),
                step: 0,
            }),
        }
    }

    fn check(&self, mem: &dyn Fn(Addr) -> u64) -> Result<(), String> {
        let mut seen_nodes = HashSet::new();
        let mut seen_keys = HashSet::new();
        for b in 0..self.buckets {
            let mut p = mem(BUCKETS.at(b));
            let mut hops = 0;
            while p != 0 {
                hops += 1;
                if hops > self.inserts {
                    return Err(format!("cycle detected in bucket {b}"));
                }
                let node_idx = NODES.index_of(Addr(p));
                if node_idx as usize >= self.inserts {
                    return Err(format!("bucket {b} points outside the node pool"));
                }
                if !seen_nodes.insert(node_idx) {
                    return Err(format!("node {node_idx} linked twice"));
                }
                let key = mem(Addr(p));
                if self.bucket_of(key) != b {
                    return Err(format!("key {key:#x} filed in wrong bucket {b}"));
                }
                if !seen_keys.insert(key) {
                    return Err(format!("key {key:#x} present twice"));
                }
                p = mem(Addr(p + 8)); // next pointer
            }
        }
        if seen_nodes.len() != self.inserts {
            return Err(format!(
                "{} of {} inserts reachable",
                seen_nodes.len(),
                self.inserts
            ));
        }
        Ok(())
    }
}

/// TM variant: `tx { head = load bucket; node.next = head; bucket = node }`.
#[derive(Debug)]
struct TmInsert {
    bucket: u64,
    node: u64,
    compute: u32,
    step: u8,
}

impl ThreadProgram for TmInsert {
    fn next(&mut self, prev: OpResult) -> Op {
        let op = match self.step {
            0 => Op::Compute(self.compute),
            1 => Op::TxBegin,
            2 => Op::TxLoad(BUCKETS.at(self.bucket)),
            3 => {
                // prev = current head; link our node in front of it.
                Op::TxStore(NODES.field(self.node, 1), prev.value())
            }
            4 => Op::TxStore(BUCKETS.at(self.bucket), NODES.at(self.node).0),
            5 => Op::TxCommit,
            _ => return Op::Done,
        };
        self.step += 1;
        op
    }

    fn rollback(&mut self) {
        self.step = 2; // first op inside the transaction
    }
}

/// FGLock variant: same body under the bucket's spin lock.
#[derive(Debug)]
struct LockInsert {
    bucket: u64,
    node: u64,
    compute: u32,
    acquirer: LockAcquirer,
    step: u8,
}

impl ThreadProgram for LockInsert {
    fn next(&mut self, prev: OpResult) -> Op {
        loop {
            match self.step {
                0 => {
                    self.step = 1;
                    return Op::Compute(self.compute);
                }
                1 => match self.acquirer.step(prev) {
                    LockPhase::Issue(op) => return op,
                    LockPhase::Acquired => {
                        self.step = 2;
                        continue;
                    }
                    LockPhase::Released => unreachable!("not releasing yet"),
                },
                2 => {
                    self.step = 3;
                    return Op::Load(BUCKETS.at(self.bucket));
                }
                3 => {
                    self.step = 4;
                    return Op::Store(NODES.field(self.node, 1), prev.value());
                }
                4 => {
                    self.step = 5;
                    return Op::Store(BUCKETS.at(self.bucket), NODES.at(self.node).0);
                }
                5 => {
                    self.acquirer.begin_release();
                    self.step = 6;
                    continue;
                }
                6 => match self.acquirer.step(prev) {
                    LockPhase::Issue(op) => return op,
                    LockPhase::Released => {
                        self.step = 7;
                        continue;
                    }
                    LockPhase::Acquired => unreachable!("already releasing"),
                },
                _ => return Op::Done,
            }
        }
    }

    fn rollback(&mut self) {
        unreachable!("lock programs never run transactions");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_workload_round_robin, run_workload_sequential};

    #[test]
    fn tm_sequential_establishes_invariants() {
        let w = HashTable::ht_h(64, 7);
        run_workload_sequential(&w, SyncMode::Tm);
    }

    #[test]
    fn lock_sequential_establishes_invariants() {
        let w = HashTable::ht_h(64, 7);
        run_workload_sequential(&w, SyncMode::FgLock);
    }

    #[test]
    fn tm_round_robin_interleaving() {
        let w = HashTable::ht_m(48, 3);
        run_workload_round_robin(&w, SyncMode::Tm);
    }

    #[test]
    fn lock_round_robin_interleaving() {
        let w = HashTable::ht_l(48, 3);
        run_workload_round_robin(&w, SyncMode::FgLock);
    }

    #[test]
    fn contention_levels_ordered() {
        let h = HashTable::ht_h(1000, 1);
        let m = HashTable::ht_m(1000, 1);
        let l = HashTable::ht_l(1000, 1);
        assert!(h.buckets < m.buckets && m.buckets < l.buckets);
    }

    #[test]
    fn keys_are_distinct() {
        let w = HashTable::ht_h(256, 9);
        let keys: HashSet<u64> = (0..256).map(|t| w.key_of(t)).collect();
        assert_eq!(keys.len(), 256);
    }

    #[test]
    fn checker_rejects_missing_insert() {
        let w = HashTable::ht_h(16, 5);
        // Run all but one thread.
        let mut mem =
            gpu_mem::MemImage::from_pairs(w.initial_memory().into_iter().map(|(a, v)| (a.0, v)));
        for tid in 0..w.thread_count() - 1 {
            let mut p = w.program(tid, SyncMode::Tm);
            crate::testutil::run_program_sequential(p.as_mut(), &mut mem, 100_000);
        }
        assert!(w.check(&|a| mem.get(a.0)).is_err());
    }

    #[test]
    fn checker_rejects_clobbered_head() {
        let w = HashTable::ht_h(16, 5);
        let mut mem = crate::testutil::run_workload_sequential(&w, SyncMode::Tm);
        // Simulate a lost insert: clear one bucket that has a chain.
        let busy = (0..16u64)
            .find(|&b| mem.get(BUCKETS.at(b).0) != 0)
            .expect("some bucket is populated");
        mem.set(BUCKETS.at(busy).0, 0);
        assert!(w.check(&|a| mem.get(a.0)).is_err());
    }
}
