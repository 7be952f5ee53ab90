//! # sim-core
//!
//! The simulation kernel shared by every component of the GETM
//! reproduction: cycle bookkeeping, deterministic random number generation,
//! statistics counters, a timing-event wheel, and the error type used across
//! the workspace.
//!
//! Nothing in this crate knows about GPUs or transactional memory; it is the
//! substrate the architectural models are built on.
//!
//! ```
//! use sim_core::{Cycle, EventWheel};
//!
//! let mut wheel: EventWheel<&'static str> = EventWheel::new();
//! wheel.schedule(Cycle(5), "hello");
//! assert!(wheel.pop_due(Cycle(4)).is_none());
//! assert_eq!(wheel.pop_due(Cycle(5)), Some("hello"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cancel;
pub mod cycle;
pub mod error;
pub mod events;
pub mod hash;
pub mod history;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod trace;

pub use cancel::CancelToken;
pub use cycle::Cycle;
pub use error::{LivelockReport, SimError};
pub use events::EventWheel;
pub use hash::StableHasher;
pub use history::{History, HistoryRecorder};
pub use rng::DetRng;
pub use slab::TokenSlab;
pub use stats::{Counter, LogHistogram, MaxTracker, RatioStat, TimeSeries};
pub use trace::{AbortCause, EventBus, Recorder, SimEvent, Stamp, TraceSink, WatchdogStage};
