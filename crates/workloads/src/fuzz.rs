//! Randomized transaction-history workloads for the verification oracle.
//!
//! Unlike the paper benchmarks (which model real GPU kernels), these
//! workloads exist to stress the *protocols*: each [`FuzzShape`] encodes an
//! adversarial access pattern — a single white-hot cell, overlapping lock
//! sets that trigger GETM's timestamp-ordered lock stealing, transactional
//! readers aliasing non-transactional atomic writers, or a wide scatter of
//! low-contention cells. Plans are generated deterministically from a seed,
//! so a failing case replays exactly.
//!
//! Every generated plan is *checkable two ways*: the workload's own
//! [`Workload::check`] verifies final-state arithmetic (delta sums on
//! read-modify-write cells, membership on blind-store cells, last-writer
//! on private cells), and the full history can be certified for
//! serializability and opacity via `gputm`'s verified runs (`RunOptions::verify`).
//!
//! Mixed tx/non-tx aliasing is deliberately one-sided: transactions that
//! read atomically-updated cells are read-only observers. The modeled
//! hardware (like the paper's) leaves concurrent non-transactional *writes*
//! to transactional working sets unordered, so a plan mixing them would be
//! genuinely — and uninterestingly — non-serializable.

use crate::txprog::{MemSpan, TxProgram};
use crate::{Region, SyncMode, Workload};
use fglock::{LockAcquirer, LockPhase};
use gpu_mem::Addr;
use gpu_simt::{BoxedProgram, Op, OpResult, ThreadProgram};
use sim_core::DetRng;
use std::collections::HashMap;

/// Cells mutated only inside transactions (read-modify-write traffic).
const RMW: Region = Region::new(0x7000_0000, 8);
/// Cells mutated only by non-transactional atomics; transactions may read
/// them in read-only observer transactions.
const ATOMIC: Region = Region::new(0x7100_0000, 8);
/// Cells blind-stored from inside transactions (no read before write).
const STORE: Region = Region::new(0x7200_0000, 8);
/// One private cell per thread, written with plain stores.
const PRIV: Region = Region::new(0x7300_0000, 8);
/// Lock words for the FGLock variant, one per data cell.
const LOCK_SHIFT: u64 = 0x0800_0000;

/// Initial value of RMW cell `i` is `RMW_INIT + i` (nonzero, so reads of
/// untouched memory exercise the checker's INITIAL-version path).
const RMW_INIT: u64 = 1_000;
const ATOMIC_INIT: u64 = 5_000;
const STORE_INIT: u64 = 9_000;

/// The adversarial access pattern a [`Fuzz`] plan is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuzzShape {
    /// Every transaction hammers one or two cells: maximal conflict rate,
    /// deep abort/retry and stall-buffer chains.
    SingleCell,
    /// Long transactions with heavily overlapping read/write sets over a
    /// four-cell table: the pattern that drives GETM's timestamp-ordered
    /// lock stealing hardest.
    LockSteal,
    /// Transactions, read-only observer transactions over atomically
    /// updated cells, plain stores, and atomics interleaved through the
    /// same partitions.
    MixedAliasing,
    /// Many cells, low contention, mixed op types: volume rather than
    /// conflicts.
    Scatter,
    /// Designed near-livelock: every transaction read-modify-writes the
    /// same two cells, with the access *order* flipped by thread parity
    /// (AB vs. BA crossfire). This is the canonical mutual-kill pattern —
    /// the workload the forward-progress watchdog exists for.
    Livelock,
}

impl FuzzShape {
    /// All shapes, in definition order.
    pub const ALL: [FuzzShape; 5] = [
        FuzzShape::SingleCell,
        FuzzShape::LockSteal,
        FuzzShape::MixedAliasing,
        FuzzShape::Scatter,
        FuzzShape::Livelock,
    ];

    /// A short name, used in workload labels and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            FuzzShape::SingleCell => "single-cell",
            FuzzShape::LockSteal => "lock-steal",
            FuzzShape::MixedAliasing => "mixed-aliasing",
            FuzzShape::Scatter => "scatter",
            FuzzShape::Livelock => "livelock",
        }
    }
}

impl std::fmt::Display for FuzzShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for FuzzShape {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FuzzShape::ALL
            .into_iter()
            .find(|sh| sh.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| {
                let names: Vec<_> = FuzzShape::ALL.iter().map(|s| s.name()).collect();
                format!(
                    "unknown fuzz shape {s:?} (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

/// One micro-operation of a compiled plan.
///
/// `StoreDelta` always immediately follows a `Load` of the same address;
/// the state machines use the load's result (the previous op's value) to
/// compute the stored value, which is how the plan expresses genuine
/// read-modify-write dataflow that `gpu_simt::ScriptProgram` cannot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Micro {
    Load(Addr),
    /// Store `loaded + delta` to `addr` (the preceding micro is its load).
    StoreDelta {
        addr: Addr,
        delta: u64,
    },
    Store {
        addr: Addr,
        value: u64,
    },
}

/// One step of a thread's plan.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Step {
    /// A transaction over the listed micro-ops.
    Tx(Vec<Micro>),
    /// A non-transactional atomic add.
    AtomicAdd { addr: Addr, delta: u64 },
    /// A plain (non-transactional) store.
    PlainStore { addr: Addr, value: u64 },
    /// A plain load (result discarded; mixed-traffic noise).
    PlainLoad(Addr),
    /// Busy work.
    Compute(u32),
}

/// A deterministic adversarial workload for the verification oracle.
#[derive(Debug, Clone)]
pub struct Fuzz {
    shape: FuzzShape,
    threads: usize,
    txns_per_thread: usize,
    seed: u64,
    name: String,
}

impl Fuzz {
    /// A fuzz workload: `threads` threads each running `txns_per_thread`
    /// transactions drawn from `shape`'s distribution under `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless there is at least one thread and one transaction.
    pub fn new(shape: FuzzShape, threads: usize, txns_per_thread: usize, seed: u64) -> Self {
        assert!(threads >= 1 && txns_per_thread >= 1);
        Fuzz {
            shape,
            threads,
            txns_per_thread,
            seed,
            name: format!("fuzz-{}", shape.name()),
        }
    }

    /// The shape this plan was drawn from.
    pub fn shape(&self) -> FuzzShape {
        self.shape
    }

    /// This plan as a backend-neutral [`TxProgram`]: the RMW/atomic/store
    /// regions the shape uses plus one private cell per thread.
    pub fn tx_program(&self) -> TxProgram {
        let mut spans = vec![MemSpan::of_region(RMW, self.rmw_cells())];
        if self.atomic_cells() > 0 {
            spans.push(MemSpan::of_region(ATOMIC, self.atomic_cells()));
        }
        if self.store_cells() > 0 {
            spans.push(MemSpan::of_region(STORE, self.store_cells()));
        }
        spans.push(MemSpan::of_region(PRIV, self.threads as u64));
        TxProgram::new(Box::new(self.clone()), spans)
    }

    fn rmw_cells(&self) -> u64 {
        match self.shape {
            FuzzShape::SingleCell => 2,
            FuzzShape::LockSteal => 4,
            FuzzShape::MixedAliasing => 4,
            FuzzShape::Scatter => (self.threads as u64 / 2).max(16),
            FuzzShape::Livelock => 2,
        }
    }

    fn atomic_cells(&self) -> u64 {
        match self.shape {
            FuzzShape::MixedAliasing => 4,
            _ => 0,
        }
    }

    fn store_cells(&self) -> u64 {
        match self.shape {
            FuzzShape::MixedAliasing => 4,
            FuzzShape::Scatter => 8,
            _ => 0,
        }
    }

    /// A tagged, plan-unique blind-store value (never collides with any
    /// cell's initial value).
    fn store_tag(tid: usize, t: usize) -> u64 {
        0x1000_0000 | ((tid as u64) << 12) | t as u64
    }

    /// Thread `tid`'s full deterministic plan.
    ///
    /// The engine executes warps in SIMT lockstep: a warp-level
    /// transaction region opens and closes for all lanes together, so
    /// every thread's plan must have the *same control-flow structure*
    /// (step kinds, transaction lengths, op kinds). Structural choices
    /// therefore come from a thread-independent stream (`srng`, forked per
    /// step index) while addresses, deltas, and values come from a
    /// per-thread stream (`drng`) — exactly how a data-dependent GPU
    /// kernel diverges.
    fn plan(&self, tid: usize) -> Vec<Step> {
        let root = DetRng::seeded(self.seed ^ 0xF0_55).fork(self.shape as u64);
        let mut steps = Vec::new();
        for t in 0..self.txns_per_thread {
            let mut srng = root.fork(1).fork(t as u64);
            let mut drng = root.fork(2).fork(tid as u64).fork(t as u64);
            match self.shape {
                FuzzShape::SingleCell => {
                    // 80% of traffic on cell 0; one or two RMWs per txn.
                    let mut ops = Vec::new();
                    for _ in 0..1 + srng.below(2) {
                        let c = if drng.below(10) < 8 { 0 } else { 1 };
                        let a = RMW.at(c);
                        ops.push(Micro::Load(a));
                        ops.push(Micro::StoreDelta {
                            addr: a,
                            delta: 1 + drng.below(8),
                        });
                    }
                    steps.push(Step::Tx(ops));
                }
                FuzzShape::LockSteal => {
                    // Read all four cells in a random rotation, then RMW
                    // two distinct ones: long hold times, full overlap.
                    let n = self.rmw_cells();
                    let rot = drng.below(n);
                    let mut ops: Vec<Micro> =
                        (0..n).map(|k| Micro::Load(RMW.at((rot + k) % n))).collect();
                    let w1 = drng.below(n);
                    let w2 = (w1 + 1 + drng.below(n - 1)) % n;
                    for c in [w1, w2] {
                        let a = RMW.at(c);
                        ops.push(Micro::Load(a));
                        ops.push(Micro::StoreDelta {
                            addr: a,
                            delta: 1 + drng.below(4),
                        });
                    }
                    steps.push(Step::Tx(ops));
                }
                FuzzShape::MixedAliasing => {
                    match srng.below(4) {
                        // A read-only observer transaction over one
                        // atomically updated cell.
                        0 => steps.push(Step::Tx(vec![Micro::Load(
                            ATOMIC.at(drng.below(self.atomic_cells())),
                        )])),
                        // A plain RMW transaction, sometimes blind-storing.
                        _ => {
                            let mut ops = Vec::new();
                            for _ in 0..1 + srng.below(2) {
                                let a = RMW.at(drng.below(self.rmw_cells()));
                                ops.push(Micro::Load(a));
                                ops.push(Micro::StoreDelta {
                                    addr: a,
                                    delta: 1 + drng.below(6),
                                });
                            }
                            if srng.below(2) == 0 {
                                ops.push(Micro::Store {
                                    addr: STORE.at(drng.below(self.store_cells())),
                                    value: Self::store_tag(tid, t),
                                });
                            }
                            steps.push(Step::Tx(ops));
                        }
                    }
                    // Non-transactional traffic between transactions.
                    if srng.below(2) == 0 {
                        steps.push(Step::AtomicAdd {
                            addr: ATOMIC.at(drng.below(self.atomic_cells())),
                            delta: 1 + drng.below(5),
                        });
                    }
                    if srng.below(3) == 0 {
                        steps.push(Step::PlainLoad(RMW.at(drng.below(self.rmw_cells()))));
                    }
                }
                FuzzShape::Scatter => {
                    let n = self.rmw_cells();
                    let mut ops = Vec::new();
                    let c1 = drng.below(n);
                    let mut cells = vec![c1];
                    if srng.below(2) == 0 {
                        cells.push((c1 + 1 + drng.below(n - 1)) % n);
                    }
                    for c in cells {
                        let a = RMW.at(c);
                        ops.push(Micro::Load(a));
                        ops.push(Micro::StoreDelta {
                            addr: a,
                            delta: 1 + drng.below(16),
                        });
                    }
                    if srng.below(3) == 0 {
                        ops.push(Micro::Store {
                            addr: STORE.at(drng.below(self.store_cells())),
                            value: Self::store_tag(tid, t),
                        });
                    }
                    steps.push(Step::Tx(ops));
                }
                FuzzShape::Livelock => {
                    // Both cells, every transaction, access order flipped
                    // by thread parity: even threads RMW A then B, odd
                    // threads B then A. Every pair of opposite-parity
                    // transactions conflicts twice per attempt, in both
                    // directions — maximal mutual-kill pressure. The
                    // structure (LDLD) is parity-independent, so plans stay
                    // warp-uniform; only addresses and deltas diverge.
                    let n = self.rmw_cells();
                    let flip = tid as u64 % 2;
                    let mut ops = Vec::new();
                    for k in 0..n {
                        let a = RMW.at((k + flip * (n - 1)) % n);
                        ops.push(Micro::Load(a));
                        ops.push(Micro::StoreDelta {
                            addr: a,
                            delta: 1 + drng.below(4),
                        });
                    }
                    steps.push(Step::Tx(ops));
                }
            }
            if srng.below(3) == 0 {
                steps.push(Step::Compute(1 + srng.next_u32() % 4));
            }
        }
        // Every thread signs off in its private cell with a plain store.
        steps.push(Step::PlainStore {
            addr: PRIV.at(tid as u64),
            value: 0xC0DE_0000 | tid as u64,
        });
        steps
    }
}

impl Workload for Fuzz {
    fn name(&self) -> &str {
        &self.name
    }

    fn initial_memory(&self) -> Vec<(Addr, u64)> {
        let mut mem = Vec::new();
        for i in 0..self.rmw_cells() {
            mem.push((RMW.at(i), RMW_INIT + i));
        }
        for i in 0..self.atomic_cells() {
            mem.push((ATOMIC.at(i), ATOMIC_INIT + i));
        }
        for i in 0..self.store_cells() {
            mem.push((STORE.at(i), STORE_INIT + i));
        }
        for t in 0..self.threads as u64 {
            mem.push((PRIV.at(t), 0));
        }
        mem
    }

    fn thread_count(&self) -> usize {
        self.threads
    }

    fn program(&self, tid: usize, mode: SyncMode) -> BoxedProgram {
        let steps = self.plan(tid);
        match mode {
            SyncMode::Tm => Box::new(TmFuzzThread {
                steps,
                i: 0,
                j: 0,
                begun: false,
            }),
            SyncMode::FgLock => Box::new(LockFuzzThread {
                steps,
                i: 0,
                j: 0,
                acquirer: None,
                salt: tid as u64,
            }),
        }
    }

    fn check(&self, mem: &dyn Fn(Addr) -> u64) -> Result<(), String> {
        // Replay every thread's plan symbolically: each planned
        // transaction commits exactly once, each atomic applies exactly
        // once, so delta sums and store sets are exact.
        let mut rmw_sum: HashMap<u64, u64> = HashMap::new();
        let mut atomic_sum: HashMap<u64, u64> = HashMap::new();
        let mut stored: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut priv_last: HashMap<u64, u64> = HashMap::new();
        for tid in 0..self.threads {
            for step in self.plan(tid) {
                match step {
                    Step::Tx(ops) => {
                        for op in ops {
                            match op {
                                Micro::StoreDelta { addr, delta } => {
                                    *rmw_sum.entry(addr.0).or_default() += delta;
                                }
                                Micro::Store { addr, value } => {
                                    stored.entry(addr.0).or_default().push(value);
                                }
                                Micro::Load(_) => {}
                            }
                        }
                    }
                    Step::AtomicAdd { addr, delta } => {
                        *atomic_sum.entry(addr.0).or_default() += delta;
                    }
                    Step::PlainStore { addr, value } => {
                        priv_last.insert(addr.0, value);
                    }
                    Step::PlainLoad(_) | Step::Compute(_) => {}
                }
            }
        }
        for i in 0..self.rmw_cells() {
            let a = RMW.at(i);
            let expect = RMW_INIT + i + rmw_sum.get(&a.0).copied().unwrap_or(0);
            let got = mem(a);
            if got != expect {
                return Err(format!("rmw cell {i}: {got} != expected {expect}"));
            }
        }
        for i in 0..self.atomic_cells() {
            let a = ATOMIC.at(i);
            let expect = ATOMIC_INIT + i + atomic_sum.get(&a.0).copied().unwrap_or(0);
            let got = mem(a);
            if got != expect {
                return Err(format!("atomic cell {i}: {got} != expected {expect}"));
            }
        }
        for i in 0..self.store_cells() {
            let a = STORE.at(i);
            let got = mem(a);
            match stored.get(&a.0) {
                Some(vals) if !vals.contains(&got) => {
                    return Err(format!("store cell {i}: {got:#x} is no planned value"));
                }
                None if got != STORE_INIT + i => {
                    return Err(format!("store cell {i} mutated with no planned store"));
                }
                _ => {}
            }
        }
        for (addr, value) in priv_last {
            let got = mem(Addr(addr));
            if got != value {
                return Err(format!("private cell {addr:#x}: {got:#x} != {value:#x}"));
            }
        }
        Ok(())
    }
}

/// TM-mode interpreter: wraps each [`Step::Tx`] in `TxBegin`/`TxCommit`
/// and replays the micro-ops, recomputing `StoreDelta` values from the
/// immediately preceding load on every (re-)execution.
#[derive(Debug)]
struct TmFuzzThread {
    steps: Vec<Step>,
    /// Current step.
    i: usize,
    /// Micro-op index within a `Step::Tx`; `steps[i].ops.len()` means the
    /// commit is next.
    j: usize,
    /// Whether `TxBegin` has been issued for the current transaction.
    begun: bool,
}

impl ThreadProgram for TmFuzzThread {
    fn next(&mut self, prev: OpResult) -> Op {
        loop {
            let Some(step) = self.steps.get(self.i) else {
                return Op::Done;
            };
            match step {
                Step::Tx(ops) => {
                    if !self.begun {
                        self.begun = true;
                        return Op::TxBegin;
                    }
                    if self.j == ops.len() {
                        // Issue the commit but only advance on the *next*
                        // call: a failed commit rolls back into this same
                        // transaction.
                        self.j += 1;
                        return Op::TxCommit;
                    }
                    if self.j > ops.len() {
                        self.i += 1;
                        self.j = 0;
                        self.begun = false;
                        continue;
                    }
                    let op = match ops[self.j] {
                        Micro::Load(a) => Op::TxLoad(a),
                        Micro::StoreDelta { addr, delta } => {
                            Op::TxStore(addr, prev.value().wrapping_add(delta))
                        }
                        Micro::Store { addr, value } => Op::TxStore(addr, value),
                    };
                    self.j += 1;
                    return op;
                }
                Step::AtomicAdd { addr, delta } => {
                    self.i += 1;
                    return Op::AtomicAdd {
                        addr: *addr,
                        delta: *delta,
                    };
                }
                Step::PlainStore { addr, value } => {
                    self.i += 1;
                    return Op::Store(*addr, *value);
                }
                Step::PlainLoad(a) => {
                    self.i += 1;
                    return Op::Load(*a);
                }
                Step::Compute(n) => {
                    self.i += 1;
                    return Op::Compute(*n);
                }
            }
        }
    }

    fn rollback(&mut self) {
        // Restart the current transaction from its first micro-op (the
        // runtime re-enters transactional mode; `begun` stays true because
        // `TxBegin` is not re-issued after an abort-and-retry).
        self.j = 0;
    }
}

/// FGLock-mode interpreter: each planned transaction takes the locks of
/// its write-set cells in ascending address order, runs the micro-ops as
/// plain loads/stores, and releases.
#[derive(Debug)]
struct LockFuzzThread {
    steps: Vec<Step>,
    i: usize,
    /// `0` = acquiring, `1..=ops.len()` = running op `j-1`'s successor,
    /// `ops.len()+1` = releasing.
    j: usize,
    acquirer: Option<LockAcquirer>,
    salt: u64,
}

impl ThreadProgram for LockFuzzThread {
    fn next(&mut self, prev: OpResult) -> Op {
        loop {
            let Some(step) = self.steps.get(self.i) else {
                return Op::Done;
            };
            match step {
                Step::Tx(ops) => {
                    if self.j == 0 {
                        if self.acquirer.is_none() {
                            let locks: Vec<Addr> = ops
                                .iter()
                                .filter_map(|m| match m {
                                    Micro::StoreDelta { addr, .. } | Micro::Store { addr, .. } => {
                                        Some(Addr(addr.0 + LOCK_SHIFT))
                                    }
                                    Micro::Load(_) => None,
                                })
                                .collect();
                            if locks.is_empty() {
                                // A read-only observer: no locks needed.
                                self.j = 1;
                                continue;
                            }
                            self.acquirer = Some(LockAcquirer::new_salted(locks, self.salt));
                        }
                        match self.acquirer.as_mut().expect("just set").step(prev) {
                            LockPhase::Issue(op) => return op,
                            LockPhase::Acquired => {
                                self.j = 1;
                                continue;
                            }
                            LockPhase::Released => unreachable!(),
                        }
                    }
                    if self.j <= ops.len() {
                        let op = match ops[self.j - 1] {
                            Micro::Load(a) => Op::Load(a),
                            Micro::StoreDelta { addr, delta } => {
                                Op::Store(addr, prev.value().wrapping_add(delta))
                            }
                            Micro::Store { addr, value } => Op::Store(addr, value),
                        };
                        self.j += 1;
                        return op;
                    }
                    match self.acquirer.take() {
                        // A lock-free observer transaction: just advance.
                        None => {
                            self.i += 1;
                            self.j = 0;
                            continue;
                        }
                        Some(mut acq) => {
                            if acq.is_held() {
                                acq.begin_release();
                            }
                            match acq.step(prev) {
                                LockPhase::Issue(op) => {
                                    self.acquirer = Some(acq);
                                    return op;
                                }
                                LockPhase::Released => {
                                    self.i += 1;
                                    self.j = 0;
                                    continue;
                                }
                                LockPhase::Acquired => unreachable!(),
                            }
                        }
                    }
                }
                Step::AtomicAdd { addr, delta } => {
                    self.i += 1;
                    return Op::AtomicAdd {
                        addr: *addr,
                        delta: *delta,
                    };
                }
                Step::PlainStore { addr, value } => {
                    self.i += 1;
                    return Op::Store(*addr, *value);
                }
                Step::PlainLoad(a) => {
                    self.i += 1;
                    return Op::Load(*a);
                }
                Step::Compute(n) => {
                    self.i += 1;
                    return Op::Compute(*n);
                }
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
    fn plans_are_deterministic() {
        let a = Fuzz::new(FuzzShape::LockSteal, 8, 4, 7);
        let b = Fuzz::new(FuzzShape::LockSteal, 8, 4, 7);
        for tid in 0..8 {
            assert_eq!(a.plan(tid), b.plan(tid));
        }
        let c = Fuzz::new(FuzzShape::LockSteal, 8, 4, 8);
        assert!((0..8).any(|tid| a.plan(tid) != c.plan(tid)));
    }

    #[test]
    fn store_delta_always_follows_its_load() {
        for shape in FuzzShape::ALL {
            let w = Fuzz::new(shape, 16, 6, 3);
            for tid in 0..16 {
                for step in w.plan(tid) {
                    let Step::Tx(ops) = step else { continue };
                    for (k, op) in ops.iter().enumerate() {
                        if let Micro::StoreDelta { addr, .. } = op {
                            assert_eq!(
                                ops.get(k.wrapping_sub(1)),
                                Some(&Micro::Load(*addr)),
                                "dangling StoreDelta in {shape}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// SIMT lockstep requires every thread's plan to share one control-flow
    /// structure (step kinds, tx lengths, op kinds); only addresses and
    /// values may diverge.
    #[test]
    fn plans_are_structurally_warp_uniform() {
        fn structure(steps: &[Step]) -> Vec<String> {
            steps
                .iter()
                .map(|s| match s {
                    Step::Tx(ops) => format!(
                        "tx:{}",
                        ops.iter()
                            .map(|m| match m {
                                Micro::Load(_) => 'L',
                                Micro::StoreDelta { .. } => 'D',
                                Micro::Store { .. } => 'S',
                            })
                            .collect::<String>()
                    ),
                    Step::AtomicAdd { .. } => "atomic".into(),
                    Step::PlainStore { .. } => "pstore".into(),
                    Step::PlainLoad(_) => "pload".into(),
                    Step::Compute(n) => format!("compute:{n}"),
                })
                .collect()
        }
        for shape in FuzzShape::ALL {
            let w = Fuzz::new(shape, 32, 5, 13);
            let reference = structure(&w.plan(0));
            for tid in 1..32 {
                assert_eq!(structure(&w.plan(tid)), reference, "{shape} tid {tid}");
            }
        }
    }

    #[test]
    fn every_shape_passes_sequentially() {
        for shape in FuzzShape::ALL {
            let w = Fuzz::new(shape, 12, 3, 5);
            run_workload_sequential(&w, SyncMode::Tm);
            run_workload_sequential(&w, SyncMode::FgLock);
        }
    }

    #[test]
    fn every_shape_passes_round_robin() {
        for shape in FuzzShape::ALL {
            let w = Fuzz::new(shape, 8, 2, 9);
            run_workload_round_robin(&w, SyncMode::Tm);
            run_workload_round_robin(&w, SyncMode::FgLock);
        }
    }

    #[test]
    fn checker_detects_a_lost_delta() {
        let w = Fuzz::new(FuzzShape::SingleCell, 8, 2, 1);
        let mut mem = run_workload_sequential(&w, SyncMode::Tm);
        let v = mem.get(RMW.at(0).0);
        mem.set(RMW.at(0).0, v - 1);
        assert!(w.check(&|a| mem.get(a.0)).is_err());
    }

    #[test]
    fn shape_names_round_trip() {
        for shape in FuzzShape::ALL {
            assert_eq!(shape.name().parse::<FuzzShape>(), Ok(shape));
        }
        assert!("nope".parse::<FuzzShape>().is_err());
    }
}
