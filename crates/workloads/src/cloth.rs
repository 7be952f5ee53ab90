//! Cloth physics (CL / CLto): spring-constraint relaxation over the edges
//! of a particle grid.
//!
//! Each thread owns a batch of edges; relaxing an edge moves "mass" between
//! its two endpoint particles (the real kernel moves positions along the
//! spring direction — what matters architecturally is the read-modify-write
//! of two shared particles per edge). Edges sharing a particle contend.
//!
//! The `CLto` variant is the paper's transaction-optimized version: the
//! expensive force computation is hoisted *out* of the transaction, so the
//! transaction holds its footprint for far fewer cycles.
//!
//! Checker: the total "mass" across particles is conserved (each relaxation
//! is a balanced transfer).

use crate::{Region, SyncMode, Workload};
use fglock::{LockAcquirer, LockPhase};
use gpu_mem::Addr;
use gpu_simt::{BoxedProgram, Op, OpResult, ThreadProgram};

const PARTICLES: Region = Region::new(0x6000_0000, 8);
const LOCKS: Region = Region::new(0x7000_0000, 8);

/// Initial per-particle "mass".
pub const INITIAL_MASS: u64 = 1 << 20;

/// The cloth benchmark; `optimized` selects CLto.
#[derive(Debug, Clone)]
pub struct Cloth {
    rows: u64,
    cols: u64,
    iterations: usize,
    optimized: bool,
}

impl Cloth {
    /// A cloth grid of `rows x cols` particles relaxed for `iterations`
    /// sweeps. `optimized` selects the CLto variant.
    ///
    /// # Panics
    ///
    /// Panics if the grid is degenerate.
    pub fn new(rows: u64, cols: u64, iterations: usize, optimized: bool) -> Self {
        assert!(rows >= 2 && cols >= 2 && iterations >= 1);
        Cloth {
            rows,
            cols,
            iterations,
            optimized,
        }
    }

    /// CL: force computation inside the transaction.
    pub fn cl(rows: u64, cols: u64, iterations: usize) -> Self {
        Cloth::new(rows, cols, iterations, false)
    }

    /// CLto: force computation hoisted out of the transaction.
    pub fn clto(rows: u64, cols: u64, iterations: usize) -> Self {
        Cloth::new(rows, cols, iterations, true)
    }

    fn particles(&self) -> u64 {
        self.rows * self.cols
    }

    /// Edges in the interior rows: right then down per column, only down
    /// at the last column.
    fn edges_per_row(&self) -> u64 {
        2 * self.cols - 1
    }

    /// Edge `i` of [`Cloth::edges`], in closed form.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`Workload::thread_count`].
    pub fn edge(&self, i: u64) -> (u64, u64) {
        assert!(i < self.thread_count() as u64, "edge {i} out of range");
        let row = i / self.edges_per_row();
        if row + 1 < self.rows {
            let k = i % self.edges_per_row();
            let p = row * self.cols + k / 2;
            if k.is_multiple_of(2) && k / 2 + 1 < self.cols {
                (p, p + 1)
            } else {
                (p, p + self.cols)
            }
        } else {
            // The last row holds only its `cols - 1` right edges.
            let p = row * self.cols + i % self.edges_per_row();
            (p, p + 1)
        }
    }

    /// Structural edges: right and down neighbours of each particle, in
    /// row-major particle order. Thread `i` relaxes edge `i`.
    pub fn edges(&self) -> Vec<(u64, u64)> {
        let mut e = Vec::new();
        for r in 0..self.rows {
            for c in 0..self.cols {
                let p = r * self.cols + c;
                if c + 1 < self.cols {
                    e.push((p, p + 1));
                }
                if r + 1 < self.rows {
                    e.push((p, p + self.cols));
                }
            }
        }
        e
    }
}

impl Workload for Cloth {
    fn name(&self) -> &str {
        if self.optimized {
            "CLto"
        } else {
            "CL"
        }
    }

    fn initial_memory(&self) -> Vec<(Addr, u64)> {
        (0..self.particles())
            .map(|i| (PARTICLES.at(i), INITIAL_MASS))
            .collect()
    }

    fn thread_count(&self) -> usize {
        ((self.rows - 1) * self.edges_per_row() + self.cols - 1) as usize
    }

    fn program(&self, tid: usize, mode: SyncMode) -> BoxedProgram {
        let (a, b) = self.edge(tid as u64);
        match mode {
            SyncMode::Tm => Box::new(TmEdge {
                a,
                b,
                iterations: self.iterations,
                optimized: self.optimized,
                iter: 0,
                step: 0,
                mass_a: 0,
                pending_store_a: None,
            }),
            SyncMode::FgLock => Box::new(LockEdge {
                a,
                b,
                iterations: self.iterations,
                iter: 0,
                step: 0,
                mass_a: 0,
                acquirer: None,
            }),
        }
    }

    fn check(&self, mem: &dyn Fn(Addr) -> u64) -> Result<(), String> {
        let expected = self.particles() * INITIAL_MASS;
        let total: u64 = (0..self.particles()).map(|i| mem(PARTICLES.at(i))).sum();
        if total != expected {
            return Err(format!("mass not conserved: {total} != {expected}"));
        }
        Ok(())
    }
}

/// The relaxation step: move an eighth of the imbalance from the heavier
/// endpoint to the lighter one.
fn relax(ma: u64, mb: u64) -> (u64, u64) {
    if ma >= mb {
        let d = (ma - mb) / 8;
        (ma - d, mb + d)
    } else {
        let d = (mb - ma) / 8;
        (ma + d, mb - d)
    }
}

/// Cycles of force computation per edge relaxation.
const FORCE_COMPUTE: u32 = 24;

#[derive(Debug)]
struct TmEdge {
    a: u64,
    b: u64,
    iterations: usize,
    optimized: bool,
    iter: usize,
    step: u8,
    mass_a: u64,
    /// CL only: the source's new mass staged while the in-transaction
    /// force computation runs.
    pending_store_a: Option<u64>,
}

impl ThreadProgram for TmEdge {
    fn next(&mut self, prev: OpResult) -> Op {
        if self.iter >= self.iterations {
            return Op::Done;
        }
        // CLto hoists the force computation before the transaction; CL pays
        // for it inside, holding its footprint longer.
        let op = match (self.step, self.optimized) {
            (0, true) => Op::Compute(FORCE_COMPUTE),
            (0, false) => Op::Compute(2),
            (1, _) => Op::TxBegin,
            (2, _) => Op::TxLoad(PARTICLES.at(self.a)),
            (3, _) => {
                self.mass_a = prev.value();
                Op::TxLoad(PARTICLES.at(self.b))
            }
            (4, true) => {
                let (na, _) = relax(self.mass_a, prev.value());
                self.mass_a = relax_partner(self.mass_a, prev.value());
                Op::TxStore(PARTICLES.at(self.a), na)
            }
            (4, false) => {
                // CL: the force computation happens inside the transaction,
                // so the stores are staged and a Compute op issues first.
                let mb = prev.value();
                let (na, nb) = relax(self.mass_a, mb);
                self.mass_a = nb;
                self.pending_store_a = Some(na);
                Op::Compute(FORCE_COMPUTE)
            }
            (5, true) => Op::TxStore(PARTICLES.at(self.b), self.mass_a),
            (5, false) => Op::TxStore(
                PARTICLES.at(self.a),
                self.pending_store_a.take().expect("staged at step 4"),
            ),
            (6, true) => Op::TxCommit,
            (6, false) => Op::TxStore(PARTICLES.at(self.b), self.mass_a),
            (7, false) => Op::TxCommit,
            _ => {
                self.iter += 1;
                self.step = 0;
                return self.next(OpResult::None);
            }
        };
        self.step += 1;
        op
    }

    fn rollback(&mut self) {
        self.step = 2;
        self.pending_store_a = None;
    }
}

/// New mass of the partner endpoint after relaxation.
fn relax_partner(ma: u64, mb: u64) -> u64 {
    relax(ma, mb).1
}

#[derive(Debug)]
struct LockEdge {
    a: u64,
    b: u64,
    iterations: usize,
    iter: usize,
    step: u8,
    mass_a: u64,
    acquirer: Option<LockAcquirer>,
}

impl ThreadProgram for LockEdge {
    fn next(&mut self, prev: OpResult) -> Op {
        loop {
            if self.iter >= self.iterations {
                return Op::Done;
            }
            match self.step {
                0 => {
                    self.acquirer = Some(LockAcquirer::new_salted(
                        vec![LOCKS.at(self.a), LOCKS.at(self.b)],
                        self.a * 131 + self.b,
                    ));
                    self.step = 1;
                    return Op::Compute(FORCE_COMPUTE);
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
                    return Op::Load(PARTICLES.at(self.a));
                }
                3 => {
                    self.mass_a = prev.value();
                    self.step = 4;
                    return Op::Load(PARTICLES.at(self.b));
                }
                4 => {
                    let (na, nb) = relax(self.mass_a, prev.value());
                    self.mass_a = nb;
                    self.step = 5;
                    return Op::Store(PARTICLES.at(self.a), na);
                }
                5 => {
                    self.step = 6;
                    return Op::Store(PARTICLES.at(self.b), self.mass_a);
                }
                6 => {
                    self.acquirer.as_mut().expect("held").begin_release();
                    self.step = 7;
                    continue;
                }
                7 => match self.acquirer.as_mut().expect("releasing").step(prev) {
                    LockPhase::Issue(op) => return op,
                    LockPhase::Released => {
                        self.iter += 1;
                        self.step = 0;
                        continue;
                    }
                    LockPhase::Acquired => unreachable!(),
                },
                _ => unreachable!(),
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
    fn cl_tm_conserves_mass() {
        run_workload_sequential(&Cloth::cl(4, 5, 2), SyncMode::Tm);
    }

    #[test]
    fn clto_tm_conserves_mass() {
        run_workload_sequential(&Cloth::clto(4, 5, 2), SyncMode::Tm);
    }

    #[test]
    fn lock_conserves_mass() {
        run_workload_sequential(&Cloth::cl(4, 5, 2), SyncMode::FgLock);
    }

    #[test]
    fn round_robin_interleavings() {
        run_workload_round_robin(&Cloth::cl(3, 4, 2), SyncMode::Tm);
        run_workload_round_robin(&Cloth::clto(3, 4, 2), SyncMode::Tm);
        run_workload_round_robin(&Cloth::cl(3, 4, 2), SyncMode::FgLock);
    }

    #[test]
    fn edge_structure() {
        let c = Cloth::cl(3, 3, 1);
        let edges = c.edges();
        // 3x3 grid: 6 horizontal + 6 vertical edges.
        assert_eq!(edges.len(), 12);
        assert_eq!(c.thread_count(), 12);
        // Every edge touches adjacent particles.
        for (a, b) in edges {
            assert!(b == a + 1 || b == a + 3);
        }
    }

    #[test]
    fn closed_form_edges_match_the_edge_list() {
        for (rows, cols) in [(2, 2), (2, 5), (5, 2), (7, 3), (80, 80), (175, 175)] {
            let c = Cloth::cl(rows, cols, 1);
            let edges = c.edges();
            assert_eq!(c.thread_count(), edges.len(), "{rows}x{cols}");
            for (i, &e) in edges.iter().enumerate() {
                assert_eq!(c.edge(i as u64), e, "{rows}x{cols} edge {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_past_the_end_panics() {
        let c = Cloth::cl(3, 3, 1);
        c.edge(c.thread_count() as u64);
    }

    #[test]
    fn relax_is_balanced() {
        for (ma, mb) in [(100u64, 50u64), (50, 100), (77, 77), (0, 64)] {
            let (na, nb) = relax(ma, mb);
            assert_eq!(na + nb, ma + mb);
            // Relaxation shrinks the imbalance.
            assert!(na.abs_diff(nb) <= ma.abs_diff(mb));
        }
    }

    #[test]
    fn names() {
        assert_eq!(Cloth::cl(2, 2, 1).name(), "CL");
        assert_eq!(Cloth::clto(2, 2, 1).name(), "CLto");
    }
}
