//! # getm
//!
//! The GETM protocol — GPU hardware transactional memory with **eager
//! conflict detection and lazy version management**, as proposed by Ren &
//! Lis (HPCA 2018).
//!
//! GETM replaces the two-round-trip, value-based commit validation of prior
//! GPU TMs with per-access conflict checks against distributed logical
//! timestamps, so that a transaction reaching its commit point is
//! guaranteed to succeed and its commit can stream to the LLC *off the
//! critical path*.
//!
//! The crate provides the memory-partition-side units as pure, cycle-aware
//! state machines:
//!
//! * [`meta`] — the per-granule metadata record (`wts`, `rts`, `#writes`,
//!   `owner`) of the paper's Table I.
//! * [`vu`] — the validation unit: the Fig. 6 flowchart over a precise
//!   cuckoo metadata table, an approximate recency Bloom filter, and the
//!   stall buffer.
//! * [`cu`] — the commit unit: write-log coalescing, LLC writes, and lock
//!   release.
//! * [`msg`] — the request/reply vocabulary exchanged with SIMT cores.
//!
//! Logical-timestamp rollover (Sec. V-B1) spans the whole machine — it
//! quiesces every core and flushes every unit — so the `gputm` engine
//! runs it, using [`ValidationUnit::flush`] for the per-partition reset.
//!
//! The units are deliberately independent of the interconnect: the `gputm`
//! facade moves messages and charges crossbar/LLC timing, while everything
//! decided *at* the partition is decided here. This makes the protocol
//! directly unit-testable — see the Fig. 7 walkthrough test in
//! `tests/walkthrough.rs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cu;
pub mod meta;
pub mod msg;
pub mod vu;

pub use cu::CommitUnit;
pub use meta::TxMetadata;
pub use msg::{AccessKind, AccessReply, AccessRequest, CommitEntry, ReplyKind};
pub use vu::{ApproxMode, GetmConfig, ValidationUnit, VuStats};
