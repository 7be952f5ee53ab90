//! # gputm
//!
//! The top-level simulator facade for the GETM reproduction: assemble a
//! simulated GPU (SIMT cores, crossbars, LLC partitions), pick a
//! transactional-memory system, run one of the paper's workloads, and read
//! back the metrics every figure and table of the evaluation is built from.
//!
//! ```no_run
//! use gputm::prelude::*;
//!
//! let cfg = GpuConfig::fermi_15core();
//! let workload = Benchmark::HtH.build(Scale::Fast);
//! let metrics = Sim::new(&cfg)
//!     .system(TmSystem::Getm)
//!     .run(workload.as_ref())
//!     .unwrap();
//! println!("cycles = {}", metrics.cycles);
//! ```
//!
//! Whole experiment grids run through the [`sweep`] module, which executes
//! cells in parallel (bit-identically to serial execution) and caches
//! finished results on disk.
//!
//! Modules:
//!
//! * [`backend`] — the backend-agnostic execution API
//!   ([`backend::TmBackend`]): the simulator and the host-threaded TL2
//!   STM running the same [`workloads::TxProgram`] definitions.
//! * [`config`] — machine configuration (Table II presets) and the
//!   [`config::TmSystem`] selector.
//! * [`engine`] — the cycle-level engine that moves messages between cores
//!   and memory partitions and drives each TM protocol.
//! * [`exec`] — the former host-thread execution mode
//!   ([`exec::ExecMode`]), kept for source compatibility; the engine
//!   always runs on the calling thread.
//! * [`metrics`] — everything measured during a run.
//! * [`runner`] — the [`runner::Sim`] builder and the unified
//!   [`runner::RunOptions`] execution API (tracing, verification,
//!   cancellation) with invariant checking.
//! * [`verify`] — the serializability/opacity oracle behind verified runs.
//! * [`sweep`] — parallel grid execution with deterministic result caching,
//!   fault isolation, and a journal that makes a killed sweep resumable.
//! * [`telemetry`] — the host-level campaign event stream (JSONL, live
//!   dashboard, Prometheus snapshot) emitted by the sweep executor.
//! * [`silicon`] — the analytical SRAM area/power model behind Table V.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod config;
pub mod engine;
pub mod exec;
pub mod metrics;
pub mod runner;
pub mod silicon;
pub mod sweep;
pub mod telemetry;
pub mod verify;

pub use backend::{
    BackendError, BackendOptions, BackendOutcome, SimBackend, Tl2Backend, TmBackend,
};
pub use config::{GpuConfig, Sabotage, TmSystem, WatchdogConfig};
pub use exec::ExecMode;
pub use metrics::{HostProfile, Metrics, ShardProfile};
pub use runner::{RunOptions, RunOutcome, Sim};
pub use verify::{Checker, Verdict, VerifiedRun};

/// Common imports for examples and benchmarks.
pub mod prelude {
    pub use crate::backend::{
        BackendError, BackendOptions, BackendOutcome, SimBackend, Tl2Backend, TmBackend,
    };
    pub use crate::config::{GpuConfig, Sabotage, TmSystem, WatchdogConfig};
    pub use crate::exec::ExecMode;
    pub use crate::metrics::{HostProfile, Metrics, ShardProfile};
    pub use crate::runner::{RunOptions, RunOutcome, Sim};
    pub use crate::sweep::{
        run_sweep_report, CellFailure, CellSpec, ExperimentSpec, FailureKind, FailurePolicy,
        ResultCache, SweepOptions, SweepOutcome, SweepReport,
    };
    pub use crate::telemetry::{CampaignEvent, Telemetry, TelemetrySink};
    pub use crate::verify::{Checker, Verdict, VerifiedRun, Violation, ViolationKind};
    pub use sim_core::SimError;
    pub use tl2::{Tl2Counters, Tl2Error, Tl2Options, Tl2Run, Tl2Sabotage};
    pub use workloads::suite::{Benchmark, Scale};
    pub use workloads::{MemSpan, SyncMode, TxProgram, Workload};
}
