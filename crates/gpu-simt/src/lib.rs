//! # gpu-simt
//!
//! The SIMT execution substrate: thread programs, warps, the transactional
//! SIMT stack, the greedy-then-oldest warp scheduler, the memory-access
//! coalescer, per-thread transaction logs, and probabilistic backoff.
//!
//! The components here are protocol-agnostic mechanisms: the GETM and
//! WarpTM crates layer their conflict-detection policies on top, and the
//! `gputm` facade drives everything cycle by cycle.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backoff;
pub mod coalesce;
pub mod ids;
pub mod log;
pub mod program;
pub mod scheduler;
pub mod stack;
pub mod warp;

pub use backoff::Backoff;
pub use coalesce::{coalesce_by_granule, LaneList};
pub use ids::{CoreId, GlobalWarpId, LaneId, WarpIndex};
pub use log::{LogEntry, TxLogs};
pub use program::{BoxedProgram, Op, OpResult, ThreadProgram};
pub use scheduler::GtoScheduler;
pub use stack::TxStack;
pub use warp::{ThreadSlot, ThreadStatus, Warp, WarpStatus};
