//! ATM: parallel funds transfers (the paper's bank-account benchmark and
//! its Fig. 1 running example).
//!
//! Each thread performs a number of transfers between two random accounts:
//! read both balances, subtract from the source, add to the destination.
//! The FGLock variant takes both account locks in ascending order, exactly
//! as Fig. 1 does.
//!
//! Checker: the total balance across all accounts is conserved and no
//! balance exceeds the total (sanity against lost/duplicated updates).

use crate::txprog::{MemSpan, TxProgram};
use crate::{Region, SyncMode, Workload};
use fglock::{LockAcquirer, LockPhase};
use gpu_mem::Addr;
use gpu_simt::{BoxedProgram, Op, OpResult, ThreadProgram};
use sim_core::DetRng;

const ACCOUNTS: Region = Region::new(0x4000_0000, 8);
const LOCKS: Region = Region::new(0x5000_0000, 8);

/// Initial balance of each account.
pub const INITIAL_BALANCE: u64 = 1000;

/// The ATM benchmark.
#[derive(Debug, Clone)]
pub struct Atm {
    accounts: u64,
    threads: usize,
    transfers_per_thread: usize,
    compute: u32,
    seed: u64,
}

impl Atm {
    /// Creates an ATM run over `accounts` accounts with `threads` threads
    /// each performing `transfers_per_thread` transfers.
    ///
    /// # Panics
    ///
    /// Panics unless there are at least two accounts and one thread.
    pub fn new(accounts: u64, threads: usize, transfers_per_thread: usize, seed: u64) -> Self {
        assert!(accounts >= 2 && threads >= 1 && transfers_per_thread >= 1);
        Atm {
            accounts,
            threads,
            transfers_per_thread,
            compute: 4,
            seed,
        }
    }

    /// The (src, dst, amount) of thread `tid`'s transfer `k`.
    fn transfer(&self, tid: usize, k: usize) -> (u64, u64, u64) {
        let mut rng = DetRng::seeded(self.seed)
            .fork(tid as u64)
            .fork(k as u64 + 1);
        let src = rng.below(self.accounts);
        let mut dst = rng.below(self.accounts);
        if dst == src {
            dst = (dst + 1) % self.accounts;
        }
        let amount = 1 + rng.below(10);
        (src, dst, amount)
    }

    /// This benchmark as a backend-neutral [`TxProgram`]. The TM variant
    /// touches only the account balances (locks belong to FGLock).
    pub fn tx_program(&self) -> TxProgram {
        TxProgram::new(
            Box::new(self.clone()),
            vec![MemSpan::of_region(ACCOUNTS, self.accounts)],
        )
    }
}

impl Workload for Atm {
    fn name(&self) -> &str {
        "ATM"
    }

    fn initial_memory(&self) -> Vec<(Addr, u64)> {
        (0..self.accounts)
            .map(|i| (ACCOUNTS.at(i), INITIAL_BALANCE))
            .collect()
    }

    fn thread_count(&self) -> usize {
        self.threads
    }

    fn program(&self, tid: usize, mode: SyncMode) -> BoxedProgram {
        let transfers: Vec<(u64, u64, u64)> = (0..self.transfers_per_thread)
            .map(|k| self.transfer(tid, k))
            .collect();
        match mode {
            SyncMode::Tm => Box::new(TmTransfers {
                transfers,
                compute: self.compute,
                txn: 0,
                step: 0,
                src_balance: 0,
            }),
            SyncMode::FgLock => Box::new(LockTransfers {
                transfers,
                compute: self.compute,
                txn: 0,
                step: 0,
                src_balance: 0,
                acquirer: None,
                salt: tid as u64,
            }),
        }
    }

    fn check(&self, mem: &dyn Fn(Addr) -> u64) -> Result<(), String> {
        let expected = self.accounts * INITIAL_BALANCE;
        let mut total: u64 = 0;
        for i in 0..self.accounts {
            let b = mem(ACCOUNTS.at(i));
            if b > expected {
                return Err(format!(
                    "account {i} balance {b} exceeds the total money supply"
                ));
            }
            total += b;
        }
        if total != expected {
            return Err(format!("money not conserved: {total} != {expected}"));
        }
        Ok(())
    }
}

/// TM transfers: `tx { s = load src; d = load dst; store src s-a;
/// store dst d+a }`.
#[derive(Debug)]
struct TmTransfers {
    transfers: Vec<(u64, u64, u64)>,
    compute: u32,
    txn: usize,
    step: u8,
    src_balance: u64,
}

impl ThreadProgram for TmTransfers {
    fn next(&mut self, prev: OpResult) -> Op {
        if self.txn >= self.transfers.len() {
            return Op::Done;
        }
        let (src, dst, amount) = self.transfers[self.txn];
        let op = match self.step {
            0 => Op::Compute(self.compute),
            1 => Op::TxBegin,
            2 => Op::TxLoad(ACCOUNTS.at(src)),
            3 => {
                self.src_balance = prev.value();
                Op::TxLoad(ACCOUNTS.at(dst))
            }
            4 => {
                let dst_balance = prev.value();
                // Transfers never overdraw: clamp the amount.
                let amt = amount.min(self.src_balance);
                let src_new = self.src_balance - amt;
                // Stash dst's new value for the next step.
                self.src_balance = dst_balance + amt;
                Op::TxStore(ACCOUNTS.at(src), src_new)
            }
            5 => Op::TxStore(ACCOUNTS.at(dst), self.src_balance),
            6 => Op::TxCommit,
            _ => {
                self.txn += 1;
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

/// FGLock transfers: both account locks in ascending order (Fig. 1).
#[derive(Debug)]
struct LockTransfers {
    transfers: Vec<(u64, u64, u64)>,
    compute: u32,
    txn: usize,
    step: u8,
    src_balance: u64,
    acquirer: Option<LockAcquirer>,
    /// Thread id, salting the lock backoff.
    salt: u64,
}

impl ThreadProgram for LockTransfers {
    fn next(&mut self, prev: OpResult) -> Op {
        loop {
            if self.txn >= self.transfers.len() {
                return Op::Done;
            }
            let (src, dst, amount) = self.transfers[self.txn];
            match self.step {
                0 => {
                    self.acquirer = Some(LockAcquirer::new_salted(
                        vec![LOCKS.at(src), LOCKS.at(dst)],
                        self.salt,
                    ));
                    self.step = 1;
                    return Op::Compute(self.compute);
                }
                1 => match self.acquirer.as_mut().expect("set in step 0").step(prev) {
                    LockPhase::Issue(op) => return op,
                    LockPhase::Acquired => {
                        self.step = 2;
                        continue;
                    }
                    LockPhase::Released => unreachable!(),
                },
                2 => {
                    self.step = 3;
                    return Op::Load(ACCOUNTS.at(src));
                }
                3 => {
                    self.src_balance = prev.value();
                    self.step = 4;
                    return Op::Load(ACCOUNTS.at(dst));
                }
                4 => {
                    let dst_balance = prev.value();
                    let amt = amount.min(self.src_balance);
                    let src_new = self.src_balance - amt;
                    self.src_balance = dst_balance + amt;
                    self.step = 5;
                    return Op::Store(ACCOUNTS.at(src), src_new);
                }
                5 => {
                    self.step = 6;
                    return Op::Store(ACCOUNTS.at(dst), self.src_balance);
                }
                6 => {
                    self.acquirer
                        .as_mut()
                        .expect("still acquiring")
                        .begin_release();
                    self.step = 7;
                    continue;
                }
                7 => match self.acquirer.as_mut().expect("releasing").step(prev) {
                    LockPhase::Issue(op) => return op,
                    LockPhase::Released => {
                        self.txn += 1;
                        self.step = 0;
                        continue;
                    }
                    LockPhase::Acquired => unreachable!(),
                },
                _ => unreachable!("invalid step"),
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
    fn tm_conserves_money() {
        let w = Atm::new(64, 32, 3, 11);
        run_workload_sequential(&w, SyncMode::Tm);
    }

    #[test]
    fn lock_conserves_money() {
        let w = Atm::new(64, 32, 3, 11);
        run_workload_sequential(&w, SyncMode::FgLock);
    }

    #[test]
    fn round_robin_interleavings() {
        let w = Atm::new(16, 24, 2, 5);
        run_workload_round_robin(&w, SyncMode::Tm);
        run_workload_round_robin(&w, SyncMode::FgLock);
    }

    #[test]
    fn src_and_dst_always_differ() {
        let w = Atm::new(8, 50, 4, 2);
        for tid in 0..50 {
            for k in 0..4 {
                let (s, d, a) = w.transfer(tid, k);
                assert_ne!(s, d);
                assert!((1..=10).contains(&a));
            }
        }
    }

    #[test]
    fn checker_detects_lost_update() {
        let w = Atm::new(16, 8, 2, 3);
        let mut mem = run_workload_sequential(&w, SyncMode::Tm);
        let a0 = mem.get(ACCOUNTS.at(0).0);
        mem.set(ACCOUNTS.at(0).0, a0 + 1);
        assert!(w.check(&|a| mem.get(a.0)).is_err());
    }
}
