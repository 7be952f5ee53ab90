//! The committed memory image: 64-bit words in 32 KiB pages.
//!
//! The simulator's architectural memory was originally a
//! `HashMap<u64, u64>` keyed by address — one hash and one heap node per
//! touched word, on a path the engine hits several times per simulated
//! cycle (load value capture, store application, validation re-reads).
//! `MemImage` replaces it with zero-filled pages of 4096 words.
//!
//! Every address is an 8-byte-aligned byte address, the same [`Addr`]
//! value the rest of the simulator routes by: word `addr` is slot
//! `(addr >> 3) % 4096` of page `addr >> 15`, so a page covers 32 KiB of
//! address space with no dead slots. Alignment is the caller's contract
//! (the engine rejects misaligned addresses before they reach the image),
//! so [`MemImage::get`] and [`MemImage::set`] only `debug_assert!` it.
//!
//! Semantics match the map-with-default it replaces: every word reads as
//! zero until written, and writing zero is indistinguishable from never
//! having written (no occupancy tracking — the engine's
//! `get(...).unwrap_or(0)` idiom never distinguished them either).
//!
//! All pages live in one ordered map, so iteration
//! ([`MemImage::iter_nonzero`]) is in ascending address order and
//! everything downstream (the verifier's divergence reports in particular)
//! is deterministic by construction, never at the mercy of hash iteration
//! order.
//!
//! [`Addr`]: crate::Addr

use std::collections::BTreeMap;

/// Bytes per word, as a shift: byte address `>> WORD_SHIFT` is the word
/// index.
const WORD_SHIFT: u32 = 3;
/// Words per page, as a shift (4096 words = 32 KiB per page).
const PAGE_WORD_SHIFT: u32 = 12;
const PAGE_WORDS: usize = 1 << PAGE_WORD_SHIFT;
/// Byte address `>> PAGE_SHIFT` is the page number.
const PAGE_SHIFT: u32 = WORD_SHIFT + PAGE_WORD_SHIFT;

type Page = Box<[u64; PAGE_WORDS]>;

fn blank_page() -> Page {
    // `vec![0; N].into_boxed_slice()` keeps the 32 KiB allocation off the
    // stack; the conversion to a fixed-size boxed array is free.
    vec![0u64; PAGE_WORDS]
        .into_boxed_slice()
        .try_into()
        .expect("length matches")
}

/// Splits 8-byte-aligned byte address `addr` into (page number, slot).
#[inline]
fn locate(addr: u64) -> (u64, usize) {
    debug_assert!(addr.is_multiple_of(8), "misaligned word address {addr:#x}");
    let slot = (addr >> WORD_SHIFT) as usize & (PAGE_WORDS - 1);
    (addr >> PAGE_SHIFT, slot)
}

/// A page-granular image of simulated memory, keyed by 8-byte-aligned
/// byte address.
#[derive(Debug, Default, Clone)]
pub struct MemImage {
    pages: BTreeMap<u64, Page>,
}

impl MemImage {
    /// An all-zero image.
    pub fn new() -> Self {
        MemImage::default()
    }

    /// An image pre-populated from `(byte address, value)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut img = MemImage::new();
        for (a, v) in pairs {
            img.set(a, v);
        }
        img
    }

    /// The committed value of the word at `addr` (zero until written).
    #[inline]
    pub fn get(&self, addr: u64) -> u64 {
        let (page, slot) = locate(addr);
        self.pages.get(&page).map_or(0, |p| p[slot])
    }

    /// Writes the word at `addr`.
    #[inline]
    pub fn set(&mut self, addr: u64, value: u64) {
        let (page, slot) = locate(addr);
        self.pages.entry(page).or_insert_with(blank_page)[slot] = value;
    }

    /// Number of materialized 32 KiB pages (capacity gauge for tests and
    /// dumps).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Iterates `(byte address, value)` over every nonzero word, in
    /// ascending address order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.pages.iter().flat_map(|(&n, p)| {
            p.iter().enumerate().filter_map(move |(slot, &v)| {
                (v != 0).then_some(((n << PAGE_SHIFT) | (slot as u64) << WORD_SHIFT, v))
            })
        })
    }
}

impl FromIterator<(u64, u64)> for MemImage {
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> Self {
        MemImage::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes per page.
    const PAGE: u64 = 32 * 1024;

    #[test]
    fn unwritten_words_read_zero() {
        let img = MemImage::new();
        assert_eq!(img.get(0), 0);
        assert_eq!(img.get(!7), 0); // the highest word
        assert_eq!(img.page_count(), 0);
    }

    #[test]
    fn writes_round_trip_within_and_across_pages() {
        let mut img = MemImage::new();
        img.set(0, 7);
        img.set(PAGE - 8, 8);
        img.set(PAGE, 9); // next page
        assert_eq!(img.get(0), 7);
        assert_eq!(img.get(PAGE - 8), 8);
        assert_eq!(img.get(PAGE), 9);
        assert_eq!(img.get(8), 0);
        assert_eq!(img.page_count(), 2);
        img.set(0, 1);
        assert_eq!(img.get(0), 1);
    }

    #[test]
    fn adjacent_words_are_distinct() {
        let img = MemImage::from_pairs([(0, 1), (8, 2), (16, 3)]);
        assert_eq!((img.get(0), img.get(8), img.get(16)), (1, 2, 3));
        assert_eq!(img.page_count(), 1);
    }

    #[test]
    fn a_page_spans_32_kib() {
        let mut img = MemImage::new();
        img.set(0, 1);
        img.set(32_760, 2);
        assert_eq!(img.page_count(), 1, "0 and 32,760 share a page");
        img.set(32_768, 3);
        assert_eq!(img.page_count(), 2, "32,768 starts the next page");
        assert_eq!((img.get(0), img.get(32_760), img.get(32_768)), (1, 2, 3));
    }

    #[test]
    fn iteration_is_ascending_and_skips_zeros() {
        // Pages on both sides of 2^31 and far beyond it: one ordered map
        // covers the whole address space.
        let high = 1u64 << 31;
        let far = 1u64 << 40;
        let img = MemImage::from_pairs([
            (far, 50),
            (high + PAGE, 6),
            (high, 5),
            (9000, 3),
            (16, 1),
            (56, 0),
            (PAGE, 2),
            (high - 8, 4),
        ]);
        let got: Vec<_> = img.iter_nonzero().collect();
        assert_eq!(
            got,
            vec![
                (16, 1),
                (9000, 3),
                (PAGE, 2),
                (high - 8, 4),
                (high, 5),
                (high + PAGE, 6),
                (far, 50)
            ]
        );
    }

    #[test]
    fn from_iterator_collects() {
        let img: MemImage = [(8u64, 10u64), (16, 20)].into_iter().collect();
        assert_eq!(img.get(8), 10);
        assert_eq!(img.get(16), 20);
    }
}
