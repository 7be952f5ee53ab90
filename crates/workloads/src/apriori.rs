//! Apriori data mining (AP): candidate-itemset support counting.
//!
//! Threads scan their share of the transaction database (modelled as
//! computation) and bump the support counters of the candidate itemsets
//! they find. The counter set is small and accesses are heavily skewed
//! toward a few hot candidates, producing the extreme contention the paper
//! reports for AP (thousands of aborts per 1K commits under GETM), while
//! transactions remain a small slice of total runtime.
//!
//! The hand-optimized lock variant uses a single `atomicAdd` per counter
//! bump, as real fine-grained GPU code would.
//!
//! Checker: the counter total equals the number of increments issued.

use crate::{Region, SyncMode, Workload};
use gpu_mem::Addr;
use gpu_simt::{BoxedProgram, Op, OpResult, ThreadProgram};
use sim_core::DetRng;

// One 32-byte candidate record per counter (itemset id, support count,
// links in the real hash tree) — one TM metadata granule per candidate.
const COUNTERS: Region = Region::new(0xC000_0000, 32);

/// Cycles of database scanning between counter updates.
const SCAN_COMPUTE: u32 = 30_000;

/// The Apriori benchmark.
#[derive(Debug, Clone)]
pub struct Apriori {
    counters: u64,
    threads: usize,
    updates_per_thread: usize,
    /// Number of "hot" counters that absorb most updates.
    hot: u64,
    /// Probability an update hits the hot set.
    hot_fraction: f64,
    seed: u64,
}

impl Apriori {
    /// `threads` threads each issue `updates_per_thread` counter bumps over
    /// `counters` candidates.
    ///
    /// # Panics
    ///
    /// Panics on degenerate sizes.
    pub fn new(counters: u64, threads: usize, updates_per_thread: usize, seed: u64) -> Self {
        assert!(counters >= 2 && threads >= 1 && updates_per_thread >= 1);
        Apriori {
            counters,
            threads,
            updates_per_thread,
            // The hot set is at most 4 counters and always leaves at least
            // one cold counter.
            hot: (counters / 2).clamp(1, 4),
            hot_fraction: 0.4,
            seed,
        }
    }

    /// The counter thread `tid` bumps on update `k`.
    fn target(&self, tid: usize, k: usize) -> u64 {
        let mut rng = DetRng::seeded(self.seed ^ 0xA9)
            .fork(tid as u64)
            .fork(k as u64);
        if rng.chance(self.hot_fraction) {
            rng.below(self.hot)
        } else {
            self.hot + rng.below(self.counters - self.hot)
        }
    }

    /// Total increments the run will perform.
    pub fn total_updates(&self) -> u64 {
        self.threads as u64 * self.updates_per_thread as u64
    }
}

impl Workload for Apriori {
    fn name(&self) -> &str {
        "AP"
    }

    fn initial_memory(&self) -> Vec<(Addr, u64)> {
        Vec::new() // counters start at zero
    }

    fn thread_count(&self) -> usize {
        self.threads
    }

    fn program(&self, tid: usize, mode: SyncMode) -> BoxedProgram {
        let targets: Vec<u64> = (0..self.updates_per_thread)
            .map(|k| self.target(tid, k))
            .collect();
        match mode {
            SyncMode::Tm => Box::new(TmCount {
                targets,
                k: 0,
                step: 0,
                seed_hint: tid as u64,
            }),
            SyncMode::FgLock => Box::new(AtomicCount {
                targets,
                k: 0,
                step: 0,
                seed_hint: tid as u64,
            }),
        }
    }

    fn check(&self, mem: &dyn Fn(Addr) -> u64) -> Result<(), String> {
        let total: u64 = (0..self.counters).map(|c| mem(COUNTERS.at(c))).sum();
        if total != self.total_updates() {
            return Err(format!(
                "support counts lost: {total} != {}",
                self.total_updates()
            ));
        }
        Ok(())
    }
}

/// TM variant: `tx { c = load counter; store counter c+1 }`.
#[derive(Debug)]
struct TmCount {
    targets: Vec<u64>,
    k: usize,
    step: u8,
    /// Per-thread jitter seed for the scan length.
    seed_hint: u64,
}

impl TmCount {
    fn scan_jitter(&self) -> u32 {
        let mut z = (self.targets.len() as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.seed_hint.wrapping_add(self.k as u64));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        ((z ^ (z >> 27)) % 60_000) as u32
    }
}

impl ThreadProgram for TmCount {
    fn next(&mut self, prev: OpResult) -> Op {
        if self.k >= self.targets.len() {
            return Op::Done;
        }
        let c = self.targets[self.k];
        let op = match self.step {
            // Scan lengths vary per thread and update: record batches are
            // uneven, so counter bumps spread out in time instead of
            // arriving in one synchronized burst.
            0 => Op::Compute(SCAN_COMPUTE + self.scan_jitter()),
            1 => Op::TxBegin,
            2 => Op::TxLoad(COUNTERS.at(c)),
            3 => Op::TxStore(COUNTERS.at(c), prev.value() + 1),
            4 => Op::TxCommit,
            _ => {
                self.k += 1;
                self.step = 0;
                return self.next(OpResult::None);
            }
        };
        self.step += 1;
        op
    }

    fn rollback(&mut self) {
        self.step = 2;
    }
}

/// Hand-optimized non-TM variant: one `atomicAdd` per bump.
#[derive(Debug)]
struct AtomicCount {
    targets: Vec<u64>,
    k: usize,
    step: u8,
    /// Per-thread jitter seed mirroring the TM variant's scan lengths.
    seed_hint: u64,
}

impl ThreadProgram for AtomicCount {
    fn next(&mut self, _prev: OpResult) -> Op {
        if self.k >= self.targets.len() {
            return Op::Done;
        }
        let c = self.targets[self.k];
        let op = match self.step {
            0 => {
                let mut z = (self.targets.len() as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(self.seed_hint.wrapping_add(self.k as u64));
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                Op::Compute(SCAN_COMPUTE + ((z ^ (z >> 27)) % 60_000) as u32)
            }
            1 => Op::AtomicAdd {
                addr: COUNTERS.at(c),
                delta: 1,
            },
            _ => {
                self.k += 1;
                self.step = 0;
                return self.next(OpResult::None);
            }
        };
        self.step += 1;
        op
    }

    fn rollback(&mut self) {
        unreachable!("atomic programs never run transactions");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_workload_round_robin, run_workload_sequential};

    #[test]
    fn tm_counts_everything() {
        run_workload_sequential(&Apriori::new(16, 24, 3, 4), SyncMode::Tm);
    }

    #[test]
    fn atomic_counts_everything() {
        run_workload_sequential(&Apriori::new(16, 24, 3, 4), SyncMode::FgLock);
    }

    #[test]
    fn round_robin_interleavings() {
        run_workload_round_robin(&Apriori::new(8, 12, 2, 1), SyncMode::Tm);
        run_workload_round_robin(&Apriori::new(8, 12, 2, 1), SyncMode::FgLock);
    }

    #[test]
    fn updates_are_skewed_to_hot_set() {
        let w = Apriori::new(64, 100, 10, 2);
        let hot_hits = (0..100)
            .flat_map(|t| (0..10).map(move |k| (t, k)))
            .filter(|&(t, k)| w.target(t, k) < w.hot)
            .count();
        // ~40% should land in the hot set.
        assert!(hot_hits > 280 && hot_hits < 520, "hot hits = {hot_hits}");
    }

    #[test]
    fn checker_detects_lost_increment() {
        let w = Apriori::new(8, 6, 2, 3);
        let mut mem = run_workload_sequential(&w, SyncMode::Tm);
        let v = mem.get(COUNTERS.at(0).0);
        mem.set(COUNTERS.at(0).0, v + 1);
        assert!(w.check(&|a| mem.get(a.0)).is_err());
    }
}
