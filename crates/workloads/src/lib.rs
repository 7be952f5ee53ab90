//! # workloads
//!
//! The nine TM benchmarks of the GETM evaluation (paper Table III), each
//! re-implemented as per-thread program state machines with both a
//! transactional and a fine-grained-lock variant, plus a correctness
//! checker over the final memory image:
//!
//! | name  | description                                  | module        |
//! |-------|----------------------------------------------|---------------|
//! | HT-H  | populate a small (high-contention) hashtable | [`hashtable`] |
//! | HT-M  | populate a medium hashtable                  | [`hashtable`] |
//! | HT-L  | populate a large (low-contention) hashtable  | [`hashtable`] |
//! | ATM   | parallel funds transfers                     | [`atm`]       |
//! | CL    | cloth physics edge relaxation                | [`cloth`]     |
//! | CLto  | transaction-optimized cloth                  | [`cloth`]     |
//! | BH    | Barnes-Hut octree build                      | [`barneshut`] |
//! | CC    | CudaCuts push-relabel image segmentation     | [`cudacuts`]  |
//! | AP    | Apriori itemset support counting             | [`apriori`]   |
//!
//! The workloads are *operational*: hash inserts chase the chain pointers
//! they load, the octree build descends the tree it is constructing, and
//! every checker verifies a real invariant (conservation, insert-once,
//! structural integrity) over the final committed memory.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apriori;
pub mod atm;
pub mod barneshut;
pub mod cloth;
pub mod cudacuts;
pub mod fuzz;
pub mod hashtable;
pub mod suite;
pub mod testutil;
pub mod txprog;

pub use txprog::{MemSpan, TxProgram};

use gpu_mem::Addr;
use gpu_simt::BoxedProgram;

/// How threads synchronize their shared-memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Critical sections expressed as transactions.
    Tm,
    /// Critical sections protected by fine-grained spin locks.
    FgLock,
}

/// A benchmark: initial memory, one program per thread, and a final-state
/// checker.
pub trait Workload {
    /// Short name matching the paper ("HT-H", "ATM", ...).
    fn name(&self) -> &str;

    /// Initial memory contents as `(word address, value)` pairs; unlisted
    /// words are zero.
    fn initial_memory(&self) -> Vec<(Addr, u64)>;

    /// Number of threads the kernel launches.
    fn thread_count(&self) -> usize;

    /// The program thread `tid` runs under `mode`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `tid >= thread_count()`.
    fn program(&self, tid: usize, mode: SyncMode) -> BoxedProgram;

    /// Verifies the invariants of the final memory image.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    fn check(&self, mem: &dyn Fn(Addr) -> u64) -> Result<(), String>;
}

/// A fixed-stride region of the flat address space, used by workloads to
/// lay out their arrays. Words are 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First byte address of the region.
    pub base: u64,
    /// Stride between consecutive elements, in bytes.
    pub stride: u64,
}

impl Region {
    /// Creates a region.
    pub const fn new(base: u64, stride: u64) -> Self {
        Region { base, stride }
    }

    /// Address of element `i`.
    #[inline]
    pub fn at(&self, i: u64) -> Addr {
        Addr(self.base + i * self.stride)
    }

    /// Address of field `f` (word offset) of element `i`.
    #[inline]
    pub fn field(&self, i: u64, f: u64) -> Addr {
        Addr(self.base + i * self.stride + f * 8)
    }

    /// Inverse of [`Region::at`] for addresses inside the region.
    #[inline]
    pub fn index_of(&self, a: Addr) -> u64 {
        (a.0 - self.base) / self.stride
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_addressing() {
        let r = Region::new(0x1000, 32);
        assert_eq!(r.at(0), Addr(0x1000));
        assert_eq!(r.at(2), Addr(0x1040));
        assert_eq!(r.field(1, 3), Addr(0x1000 + 32 + 24));
        assert_eq!(r.index_of(Addr(0x1040)), 2);
    }
}
