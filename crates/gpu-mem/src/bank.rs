//! Partition-banked committed memory.
//!
//! Each bank holds exactly the words whose [`Geometry::partition_of`]
//! routing lands on it, the same interleaving every other component (LLC
//! banks, metadata tables, crossbar destinations) already uses.
//!
//! Semantics are identical to a single [`MemImage`]: every word reads as
//! zero until written, and routing is a pure function of the address, so
//! banking is invisible to any caller that only gets and sets words.

use crate::addr::{Addr, Geometry};
use crate::image::MemImage;

/// A committed memory image split into one [`MemImage`] per partition.
#[derive(Debug, Clone)]
pub struct BankedMem {
    geom: Geometry,
    banks: Vec<MemImage>,
}

impl BankedMem {
    /// An all-zero image with one bank per partition of `geom`.
    pub fn new(geom: Geometry) -> Self {
        let banks = (0..geom.partitions()).map(|_| MemImage::new()).collect();
        BankedMem { geom, banks }
    }

    /// An image pre-populated from `(word address, value)` pairs.
    pub fn from_pairs(geom: Geometry, pairs: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut img = BankedMem::new(geom);
        for (a, v) in pairs {
            img.set(a, v);
        }
        img
    }

    /// The geometry that owns the address-to-bank routing.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// The bank (= partition) that owns word `addr`.
    #[inline]
    pub fn bank_of(&self, addr: u64) -> usize {
        self.geom.partition_of(Addr(addr)) as usize
    }

    /// The committed value of word `addr` (zero until written).
    #[inline]
    pub fn get(&self, addr: u64) -> u64 {
        self.banks[self.geom.partition_of(Addr(addr)) as usize].get(addr)
    }

    /// Writes word `addr`.
    #[inline]
    pub fn set(&mut self, addr: u64, value: u64) {
        self.banks[self.geom.partition_of(Addr(addr)) as usize].set(addr, value);
    }

    /// All banks, partition order.
    pub fn banks(&self) -> &[MemImage] {
        &self.banks
    }

    /// Flattens the banks back into one [`MemImage`] (for the verifier's
    /// final-state comparison and debugging dumps).
    pub fn merged(&self) -> MemImage {
        let mut out = MemImage::new();
        for bank in &self.banks {
            for (a, v) in bank.iter_nonzero() {
                out.set(a, v);
            }
        }
        out
    }

    /// Iterates `(word address, value)` over every nonzero word. Unlike
    /// [`MemImage::iter_nonzero`] the order interleaves banks, so callers
    /// needing ascending address order should go through [`Self::merged`].
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.banks.iter().flat_map(|b| b.iter_nonzero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::new(128, 32, 3)
    }

    #[test]
    fn banked_matches_flat_semantics() {
        let mut banked = BankedMem::new(geom());
        let mut flat = MemImage::new();
        for a in (0..4096u64).step_by(7) {
            banked.set(a, a + 1);
            flat.set(a, a + 1);
        }
        for a in 0..4096u64 {
            assert_eq!(banked.get(a), flat.get(a), "word {a}");
        }
        let merged = banked.merged();
        let got: Vec<_> = merged.iter_nonzero().collect();
        let want: Vec<_> = flat.iter_nonzero().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn words_land_in_their_partitions_bank() {
        let g = geom();
        let mut banked = BankedMem::new(g);
        for a in (0..2048u64).step_by(13) {
            banked.set(a, 1);
        }
        for (i, bank) in banked.banks().iter().enumerate() {
            for (a, _) in bank.iter_nonzero() {
                assert_eq!(g.partition_of(Addr(a)) as usize, i);
            }
        }
    }

    #[test]
    fn from_pairs_and_iter_cover_all_banks() {
        let g = geom();
        let banked = BankedMem::from_pairs(g, [(0u64, 1u64), (128, 2), (256, 3), (384, 4)]);
        assert_eq!(banked.geometry(), g);
        assert_eq!(banked.bank_of(128), 1);
        let mut got: Vec<_> = banked.iter_nonzero().collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1), (128, 2), (256, 3), (384, 4)]);
    }
}
