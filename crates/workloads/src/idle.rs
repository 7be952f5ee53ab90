//! Synthetic idle-heavy workload for timing and testing the engine loop itself.
//!
//! Every thread spins on a compute timer and then bumps a private counter
//! transactionally, so the machine is almost always parked on known wake
//! cycles — the shape the engine's idle skip-ahead exists for. Real
//! benchmarks exercise the contended path; this one isolates the
//! sparse/idle path that dominates low-occupancy sweep cells.

use crate::{SyncMode, Workload};
use gpu_mem::Addr;
use gpu_simt::program::ScriptProgram;
use gpu_simt::{BoxedProgram, Op};

/// Private-slot spin/commit loop (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct IdleHeavy {
    /// Threads launched (each owns one counter word).
    pub threads: usize,
    /// Transactional increments per thread.
    pub rounds: u64,
    /// Compute-timer cycles between increments.
    pub spin: u32,
}

impl IdleHeavy {
    /// The counter word of thread `tid`.
    pub fn slot(tid: usize) -> Addr {
        Addr(0x1000 + tid as u64 * 8)
    }
}

impl Workload for IdleHeavy {
    fn name(&self) -> &str {
        "IDLE"
    }

    fn initial_memory(&self) -> Vec<(Addr, u64)> {
        Vec::new()
    }

    fn thread_count(&self) -> usize {
        self.threads
    }

    fn program(&self, tid: usize, _mode: SyncMode) -> BoxedProgram {
        let slot = Self::slot(tid);
        let mut ops = Vec::with_capacity(self.rounds as usize * 5);
        for round in 0..self.rounds {
            ops.push(Op::Compute(self.spin));
            ops.push(Op::TxBegin);
            ops.push(Op::TxLoad(slot));
            ops.push(Op::TxStore(slot, round + 1));
            ops.push(Op::TxCommit);
        }
        Box::new(ScriptProgram::new(ops))
    }

    fn check(&self, mem: &dyn Fn(Addr) -> u64) -> Result<(), String> {
        for tid in 0..self.threads {
            let got = mem(Self::slot(tid));
            if got != self.rounds {
                return Err(format!(
                    "thread {tid}: slot holds {got}, want {}",
                    self.rounds
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_workload_sequential;

    #[test]
    fn idle_heavy_passes_its_checker() {
        let w = IdleHeavy {
            threads: 8,
            rounds: 3,
            spin: 200,
        };
        run_workload_sequential(&w, SyncMode::Tm);
    }
}
