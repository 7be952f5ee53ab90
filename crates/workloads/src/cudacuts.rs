//! CudaCuts (CC): push-relabel image segmentation on a pixel grid.
//!
//! Each thread owns one pixel and repeatedly pushes excess flow to its
//! right and down neighbours. A push is a short read-modify-write of two
//! pixels wrapped in a transaction (or protected by the two pixel locks),
//! separated by substantial non-transactional relabeling computation — so
//! transactions are a small fraction of runtime and contention is confined
//! to grid neighbours, matching the paper's characterization.
//!
//! Checker: total excess is conserved.

use crate::{Region, SyncMode, Workload};

use gpu_mem::Addr;
use gpu_simt::{BoxedProgram, Op, OpResult, ThreadProgram};

// One 32-byte record per pixel (excess + height + capacities in the real
// kernel), which also means one TM metadata granule per pixel.
const EXCESS: Region = Region::new(0xA000_0000, 32);

/// Initial excess at every pixel.
pub const INITIAL_EXCESS: u64 = 1 << 16;

/// Cycles of relabeling computation between pushes.
const RELABEL_COMPUTE: u32 = 1_500;

/// The CudaCuts benchmark.
#[derive(Debug, Clone)]
pub struct CudaCuts {
    width: u64,
    height: u64,
    iterations: usize,
}

impl CudaCuts {
    /// A `width x height` pixel grid relaxed for `iterations` push rounds.
    ///
    /// # Panics
    ///
    /// Panics if the grid is degenerate.
    pub fn new(width: u64, height: u64, iterations: usize) -> Self {
        assert!(width >= 2 && height >= 2 && iterations >= 1);
        CudaCuts {
            width,
            height,
            iterations,
        }
    }

    fn pixels(&self) -> u64 {
        self.width * self.height
    }

    /// Right and down neighbours of pixel `p`, if in bounds.
    fn neighbours(&self, p: u64) -> Vec<u64> {
        let (r, c) = (p / self.width, p % self.width);
        let mut n = Vec::with_capacity(2);
        if c + 1 < self.width {
            n.push(p + 1);
        }
        if r + 1 < self.height {
            n.push(p + self.width);
        }
        n
    }
}

impl Workload for CudaCuts {
    fn name(&self) -> &str {
        "CC"
    }

    fn initial_memory(&self) -> Vec<(Addr, u64)> {
        (0..self.pixels())
            .map(|p| (EXCESS.at(p), INITIAL_EXCESS))
            .collect()
    }

    fn thread_count(&self) -> usize {
        self.pixels() as usize
    }

    fn program(&self, tid: usize, mode: SyncMode) -> BoxedProgram {
        let pushes: Vec<u64> = (0..self.iterations)
            .flat_map(|_| self.neighbours(tid as u64))
            .collect();
        match mode {
            SyncMode::Tm => Box::new(TmPush {
                pixel: tid as u64,
                pushes,
                k: 0,
                step: 0,
                excess_p: 0,
            }),
            SyncMode::FgLock => Box::new(LockPush {
                pixel: tid as u64,
                pushes,
                k: 0,
                step: 0,
                excess_p: 0,
            }),
        }
    }

    fn check(&self, mem: &dyn Fn(Addr) -> u64) -> Result<(), String> {
        let expected = self.pixels() * INITIAL_EXCESS;
        let total: u64 = (0..self.pixels()).map(|p| mem(EXCESS.at(p))).sum();
        if total != expected {
            return Err(format!("excess not conserved: {total} != {expected}"));
        }
        Ok(())
    }
}

/// The push amount: a quarter of the source's excess.
fn push_amount(excess: u64) -> u64 {
    excess / 4
}

#[derive(Debug)]
struct TmPush {
    pixel: u64,
    pushes: Vec<u64>,
    k: usize,
    step: u8,
    excess_p: u64,
}

impl ThreadProgram for TmPush {
    fn next(&mut self, prev: OpResult) -> Op {
        if self.k >= self.pushes.len() {
            return Op::Done;
        }
        let q = self.pushes[self.k];
        let op = match self.step {
            0 => Op::Compute(RELABEL_COMPUTE),
            1 => Op::TxBegin,
            2 => Op::TxLoad(EXCESS.at(self.pixel)),
            3 => {
                self.excess_p = prev.value();
                Op::TxLoad(EXCESS.at(q))
            }
            4 => {
                let d = push_amount(self.excess_p);
                let q_new = prev.value() + d;
                let p_new = self.excess_p - d;
                self.excess_p = q_new;
                Op::TxStore(EXCESS.at(self.pixel), p_new)
            }
            5 => Op::TxStore(EXCESS.at(q), self.excess_p),
            6 => Op::TxCommit,
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

/// Hand-optimized non-TM variant, as real CudaCuts kernels do it: deduct
/// from the source with a CAS loop (safe against concurrent pushes out of
/// the same pixel), then credit the destination with one `atomicAdd` —
/// conservation holds without any locks.
#[derive(Debug)]
struct LockPush {
    pixel: u64,
    pushes: Vec<u64>,
    k: usize,
    step: u8,
    excess_p: u64,
}

impl ThreadProgram for LockPush {
    fn next(&mut self, prev: OpResult) -> Op {
        loop {
            if self.k >= self.pushes.len() {
                return Op::Done;
            }
            let q = self.pushes[self.k];
            match self.step {
                0 => {
                    self.step = 1;
                    return Op::Compute(RELABEL_COMPUTE);
                }
                1 => {
                    self.step = 2;
                    return Op::Load(EXCESS.at(self.pixel));
                }
                2 => {
                    // CAS-deduct the push amount from our pixel.
                    self.excess_p = prev.value();
                    let d = push_amount(self.excess_p);
                    self.step = 3;
                    return Op::AtomicCas {
                        addr: EXCESS.at(self.pixel),
                        expect: self.excess_p,
                        new: self.excess_p - d,
                    };
                }
                3 => {
                    let observed = prev.value();
                    if observed != self.excess_p {
                        // A concurrent push changed our excess: recompute.
                        self.excess_p = observed;
                        let d = push_amount(self.excess_p);
                        return Op::AtomicCas {
                            addr: EXCESS.at(self.pixel),
                            expect: self.excess_p,
                            new: self.excess_p - d,
                        };
                    }
                    // Deducted: credit the neighbour.
                    let d = push_amount(self.excess_p);
                    self.step = 4;
                    return Op::AtomicAdd {
                        addr: EXCESS.at(q),
                        delta: d,
                    };
                }
                _ => {
                    self.k += 1;
                    self.step = 0;
                    continue;
                }
            }
        }
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
    fn tm_conserves_excess() {
        run_workload_sequential(&CudaCuts::new(4, 3, 2), SyncMode::Tm);
    }

    #[test]
    fn lock_conserves_excess() {
        run_workload_sequential(&CudaCuts::new(4, 3, 2), SyncMode::FgLock);
    }

    #[test]
    fn round_robin_interleavings() {
        run_workload_round_robin(&CudaCuts::new(3, 3, 2), SyncMode::Tm);
        run_workload_round_robin(&CudaCuts::new(3, 3, 2), SyncMode::FgLock);
    }

    #[test]
    fn neighbour_structure() {
        let cc = CudaCuts::new(3, 2, 1);
        assert_eq!(cc.neighbours(0), vec![1, 3]); // corner: right + down
        assert_eq!(cc.neighbours(2), vec![5]); // right edge: down only
        assert_eq!(cc.neighbours(5), Vec::<u64>::new()); // bottom-right
        assert_eq!(cc.thread_count(), 6);
    }

    #[test]
    fn checker_detects_leak() {
        let w = CudaCuts::new(3, 3, 1);
        let mut mem = run_workload_sequential(&w, SyncMode::Tm);
        let v = mem.get(EXCESS.at(0).0);
        mem.set(EXCESS.at(0).0, v - 1);
        assert!(w.check(&|a| mem.get(a.0)).is_err());
    }
}
