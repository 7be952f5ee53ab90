//! # tm-structs
//!
//! Hardware-inspired data structures used by the GETM validation and commit
//! units (HPCA 2018, Sec. V), modelled at the fidelity the paper's
//! evaluation needs:
//!
//! * [`h3`] — the H3 universal hash family used to index both the cuckoo
//!   table and the recency Bloom filter.
//! * [`cuckoo`] — the precise metadata table: a 4-way cuckoo hash table with
//!   a small fully associative stash and an unbounded overflow list, which
//!   reports the number of (validation-unit) cycles each operation took.
//! * [`bloom`] — the recency Bloom filter that approximately tracks `wts`
//!   and `rts` for addresses evicted from the precise table, with
//!   *overestimate-only* error.
//! * [`stall`] — the stall buffer that queues requests which passed the
//!   timestamp check but found their target line reserved by another
//!   transaction.
//! * [`coalesce`] — the commit-time write-coalescing buffer.
//!
//! All structures are deterministic given a seed and count the "hardware"
//! cycles they consume so the timing model can charge them faithfully.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bloom;
pub mod coalesce;
pub mod cuckoo;
pub mod h3;
pub mod stall;

pub use bloom::RecencyBloom;
pub use coalesce::{CoalescedWrite, CoalescingBuffer};
pub use cuckoo::{CuckooConfig, CuckooTable, LockState};
pub use h3::H3Family;
pub use stall::{StallBuffer, StallConfig, StallError};
