//! Backend-neutral transactional programs.
//!
//! A [`TxProgram`] packages the one canonical definition of a benchmark —
//! its per-thread resumable op streams ([`gpu_simt::ThreadProgram`]), the
//! initial memory image, and the final-state checker — together with a
//! declared memory *footprint*: the word spans the program may touch. The
//! cycle-level simulator derives its SIMT streams from the same per-thread
//! programs (via [`Workload::program`]), while host-threaded executors such
//! as the TL2 STM backend use the footprint to lay the address space out as
//! dense versioned storage. One definition, any executor.
//!
//! The footprint is a contract, not a hint: executors that depend on it
//! (TL2) treat an access outside every declared span as a program error,
//! which doubles as a cheap bounds oracle for the workload definitions
//! themselves.

use crate::{SyncMode, Workload};
use gpu_mem::Addr;
use gpu_simt::BoxedProgram;

/// A contiguous, word-aligned span of the flat address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSpan {
    /// First byte address (8-byte aligned).
    pub base: u64,
    /// Length in 8-byte words.
    pub words: u64,
}

impl MemSpan {
    /// A span of `words` words starting at byte address `base`.
    pub const fn new(base: u64, words: u64) -> Self {
        MemSpan { base, words }
    }

    /// A span covering elements `0..elems` of `region` (stride-padded:
    /// every word of every element is included).
    pub const fn of_region(region: crate::Region, elems: u64) -> Self {
        MemSpan {
            base: region.base,
            words: elems * region.stride / 8,
        }
    }

    /// One-past-the-end byte address.
    pub fn end(&self) -> u64 {
        self.base + self.words * 8
    }

    /// Whether byte address `addr` falls inside the span.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// A backend-neutral transactional program: one benchmark definition that
/// any executor — the cycle-level GPU simulator or a host-threaded STM —
/// can run and check.
///
/// Constructed via [`TxProgram::new`] or the `tx_program()` methods on the
/// first-wave workloads ([`crate::hashtable::HashTable`],
/// [`crate::atm::Atm`], [`crate::fuzz::Fuzz`]).
pub struct TxProgram {
    workload: Box<dyn Workload + Send + Sync>,
    footprint: Vec<MemSpan>,
}

impl std::fmt::Debug for TxProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxProgram")
            .field("name", &self.workload.name())
            .field("threads", &self.workload.thread_count())
            .field("footprint", &self.footprint)
            .finish()
    }
}

impl TxProgram {
    /// Wraps `workload` with its declared memory footprint.
    ///
    /// # Panics
    ///
    /// Panics if a span is empty or not word-aligned, or if spans overlap
    /// — workload-definition bugs, not runtime conditions. An initial
    /// word outside every span is the executor's to reject (TL2 does, as
    /// it lays the words out), so the image is not built here.
    pub fn new(workload: Box<dyn Workload + Send + Sync>, footprint: Vec<MemSpan>) -> Self {
        let mut spans = footprint.clone();
        spans.sort_by_key(|s| s.base);
        for s in &spans {
            assert!(s.words > 0, "empty footprint span at {:#x}", s.base);
            assert!(s.base % 8 == 0, "unaligned footprint span at {:#x}", s.base);
        }
        for w in spans.windows(2) {
            assert!(
                w[0].end() <= w[1].base,
                "overlapping footprint spans at {:#x} and {:#x}",
                w[0].base,
                w[1].base
            );
        }
        TxProgram {
            workload,
            footprint: spans,
        }
    }

    /// The benchmark's name ("HT-H", "ATM", "fuzz-single-cell", ...).
    pub fn name(&self) -> &str {
        self.workload.name()
    }

    /// Number of logical threads the program launches.
    pub fn thread_count(&self) -> usize {
        self.workload.thread_count()
    }

    /// Initial memory contents as `(8-byte-aligned byte address, value)`
    /// pairs.
    pub fn initial_memory(&self) -> Vec<(Addr, u64)> {
        self.workload.initial_memory()
    }

    /// The declared footprint, sorted by base address and non-overlapping.
    pub fn footprint(&self) -> &[MemSpan] {
        &self.footprint
    }

    /// Total footprint size in words.
    pub fn footprint_words(&self) -> u64 {
        self.footprint.iter().map(|s| s.words).sum()
    }

    /// The transactional op stream of logical thread `tid` — the same
    /// stream the simulator's TM mode executes.
    ///
    /// # Panics
    ///
    /// May panic if `tid >= thread_count()`.
    pub fn thread(&self, tid: usize) -> BoxedProgram {
        self.workload.program(tid, SyncMode::Tm)
    }

    /// Verifies the benchmark's invariants over a final memory image.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn check(&self, mem: &dyn Fn(Addr) -> u64) -> Result<(), String> {
        self.workload.check(mem)
    }

    /// The underlying workload, for executors that consume the
    /// [`Workload`] interface directly (the simulator backend).
    pub fn workload(&self) -> &dyn Workload {
        self.workload.as_ref()
    }

    /// Unwraps into the owned workload, discarding the footprint. Used by
    /// suite construction paths that only need the SIMT-stream view.
    pub fn into_workload(self) -> Box<dyn Workload + Send + Sync> {
        self.workload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atm::Atm;
    use crate::fuzz::{Fuzz, FuzzShape};
    use crate::hashtable::HashTable;
    use crate::testutil;

    #[test]
    fn span_arithmetic() {
        let s = MemSpan::new(0x100, 4);
        assert_eq!(s.end(), 0x120);
        assert!(s.contains(0x100) && s.contains(0x11f) && !s.contains(0x120));
        let r = crate::Region::new(0x1000, 32);
        let s = MemSpan::of_region(r, 3);
        assert_eq!(s.words, 12);
        assert!(s.contains(r.field(2, 3).0));
    }

    #[test]
    fn first_wave_programs_cover_their_initial_memory() {
        let progs: Vec<TxProgram> = vec![
            HashTable::ht_h(32, 7).tx_program(),
            Atm::new(16, 8, 2, 3).tx_program(),
            Fuzz::new(FuzzShape::MixedAliasing, 8, 3, 5).tx_program(),
        ];
        for p in &progs {
            assert!(p.thread_count() > 0);
            assert!(p.footprint_words() > 0);
            for (addr, _) in p.initial_memory() {
                assert!(
                    p.footprint().iter().any(|s| s.contains(addr.0)),
                    "{}: initial word {:#x} outside the footprint",
                    p.name(),
                    addr.0
                );
            }
        }
    }

    /// Every first-wave program runs to completion and passes its checker
    /// when driven purely through the [`TxProgram`] interface (thread
    /// streams + initial memory + checker) — no [`Workload`] calls.
    #[test]
    fn first_wave_programs_run_sequentially_via_the_ir() {
        let progs: Vec<TxProgram> = vec![
            HashTable::ht_h(24, 9).tx_program(),
            Atm::new(8, 12, 2, 4).tx_program(),
            Fuzz::new(FuzzShape::SingleCell, 6, 2, 1).tx_program(),
            Fuzz::new(FuzzShape::LockSteal, 6, 2, 2).tx_program(),
            Fuzz::new(FuzzShape::MixedAliasing, 6, 2, 3).tx_program(),
            Fuzz::new(FuzzShape::Scatter, 6, 2, 4).tx_program(),
            Fuzz::new(FuzzShape::Livelock, 6, 2, 5).tx_program(),
        ];
        for p in &progs {
            let mut mem = gpu_mem::MemImage::from_pairs(
                p.initial_memory().into_iter().map(|(a, v)| (a.0, v)),
            );
            for tid in 0..p.thread_count() {
                let mut prog = p.thread(tid);
                testutil::run_program_sequential(prog.as_mut(), &mut mem, 1_000_000);
            }
            p.check(&|a| mem.get(a.0)).expect("sequential run passes");
        }
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_spans_are_rejected() {
        let w = Atm::new(4, 2, 1, 1);
        let base = 0x4000_0000;
        TxProgram::new(
            Box::new(w),
            vec![MemSpan::new(base, 4), MemSpan::new(base + 8, 4)],
        );
    }
}
