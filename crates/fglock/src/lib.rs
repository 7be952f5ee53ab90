//! # fglock
//!
//! The fine-grained-lock execution mode used as the paper's non-TM
//! baseline. Workloads express their critical sections with per-location
//! spin locks acquired via `atomicCAS` at the LLC, following the SIMT-safe
//! pattern of the paper's Fig. 1: locks are acquired in a global order to
//! avoid deadlock, a failed inner acquisition releases everything and
//! retries, and the retry loop is driven by a flag rather than control-flow
//! divergence (which could deadlock a lockstep warp).
//!
//! * [`LockAcquirer`] — the per-thread acquire/release state machine that
//!   workload programs embed.
//! * [`AtomicUnit`] — the partition-side unit that executes atomics against
//!   the committed memory image.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod acquire;
pub mod atomic;

pub use acquire::{LockAcquirer, LockPhase};
pub use atomic::{AtomicOp, AtomicUnit};
