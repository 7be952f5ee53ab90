//! # tl2
//!
//! A host-threaded software transactional memory executor implementing the
//! TL2 algorithm (Dice, Shalev, Shavit: *Transactional Locking II*): a
//! global version clock, per-stripe versioned write-locks, eager per-read
//! validation against the transaction's read-version snapshot, a redo-log
//! write set with read-own-writes forwarding, commit-time read-set
//! revalidation under sorted try-locks, and bounded-backoff retry.
//!
//! Unlike every simulated system in this repository, TL2 runs the
//! transactional programs on **real OS threads** with genuinely
//! nondeterministic interleavings. It executes the same backend-neutral
//! [`TxProgram`](workloads::TxProgram) definitions the cycle-level GPU
//! simulator derives its SIMT streams from, and can record every attempt's
//! read/write sets with observed versions into the
//! [`sim_core::history::History`] format, so the offline
//! serializability/opacity oracle (`gputm::verify`) certifies real
//! concurrent executions end-to-end.
//!
//! TL2's eager read validation makes it *opaque* — aborted attempts still
//! observe consistent snapshots — so recorded histories are expected to
//! pass the oracle with opacity required, something none of the simulated
//! GPU TM systems promises.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod exec;
mod mem;

pub use exec::run;
use sim_core::history::History;
use std::time::Duration;

/// A deliberate protocol fault, compiled in only with the `sabotage`
/// feature (mirroring `gputm`'s sabotage discipline). Used to prove the
/// verification oracle catches real violations on real threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tl2Sabotage {
    /// No fault: the correct TL2 commit protocol.
    #[default]
    None,
    /// Skip the commit-time read-set revalidation entirely. Two
    /// transactions that read the same cell and both reach commit then
    /// both apply — the classic lost update.
    SkipReadValidation,
}

/// Execution options for one TL2 run.
#[derive(Debug, Clone)]
pub struct Tl2Options {
    /// Worker OS threads executing the program's logical threads (each
    /// worker claims logical threads from a shared queue and runs one to
    /// completion at a time).
    pub threads: usize,
    /// Seed for the per-thread backoff jitter (interleavings stay
    /// nondeterministic regardless).
    pub seed: u64,
    /// Record every attempt into a [`History`] for offline certification.
    pub record_history: bool,
    /// Per-transaction abort bound before the run is declared livelocked.
    pub max_retries: u64,
    /// Number of versioned-lock stripes (rounded up to a power of two);
    /// `0` sizes automatically from the footprint.
    pub stripes: usize,
    /// Deliberate protocol fault selector. Without the `sabotage` feature
    /// this field is inert: the correct protocol always runs.
    pub sabotage: Tl2Sabotage,
}

impl Default for Tl2Options {
    fn default() -> Self {
        Tl2Options {
            threads: 4,
            seed: 0x712,
            record_history: false,
            max_retries: 1_000_000,
            stripes: 0,
            sabotage: Tl2Sabotage::None,
        }
    }
}

impl Tl2Options {
    /// Sets the worker thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the backoff jitter seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables history recording.
    #[must_use]
    pub fn record_history(mut self, on: bool) -> Self {
        self.record_history = on;
        self
    }

    /// Selects a deliberate protocol fault (inert without the `sabotage`
    /// feature).
    #[must_use]
    pub fn sabotage(mut self, s: Tl2Sabotage) -> Self {
        self.sabotage = s;
        self
    }
}

/// Counters aggregated over one TL2 run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tl2Counters {
    /// Committed transactions.
    pub commits: u64,
    /// Of which read-only (no write locks, no validation needed).
    pub read_only_commits: u64,
    /// Aborted attempts, total.
    pub aborts: u64,
    /// Aborts raised by per-read validation (stale or locked stripe).
    pub read_aborts: u64,
    /// Aborts raised by commit-time write-lock acquisition.
    pub lock_aborts: u64,
    /// Aborts raised by commit-time read-set revalidation.
    pub validation_aborts: u64,
    /// Transactional reads served from shared memory (forwarded
    /// read-own-writes excluded).
    pub reads: u64,
    /// Transactional writes buffered.
    pub writes: u64,
    /// Non-transactional atomics applied.
    pub atomics: u64,
    /// CAS attempts that failed their expectation.
    pub cas_failures: u64,
    /// Global event ticks consumed (a wall-clock-free event count usable
    /// as a cycle proxy in histories).
    pub ticks: u64,
    /// Final value of the global version clock.
    pub clock: u64,
    /// Deepest retry chain any single transaction needed.
    pub max_retry_depth: u64,
}

/// What one TL2 run produced.
#[derive(Debug)]
pub struct Tl2Run {
    /// Aggregate counters.
    pub counters: Tl2Counters,
    /// The recorded history, when [`Tl2Options::record_history`] was set.
    pub history: Option<History>,
    /// Final memory as `(8-byte-aligned byte address, value)` pairs (zero
    /// words omitted).
    pub final_mem: Vec<(u64, u64)>,
    /// Host wall time of the parallel section.
    pub wall: Duration,
}

impl Tl2Run {
    /// The final memory as a [`gpu_mem::MemImage`] (the checker's format).
    pub fn final_image(&self) -> gpu_mem::MemImage {
        gpu_mem::MemImage::from_pairs(self.final_mem.iter().copied())
    }
}

/// Why a TL2 run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tl2Error {
    /// The options were rejected.
    InvalidOptions {
        /// Which option.
        what: &'static str,
        /// Why.
        detail: String,
    },
    /// A program accessed an address outside the declared footprint.
    OutOfFootprint {
        /// Logical thread.
        tid: usize,
        /// The stray byte address.
        addr: u64,
    },
    /// An initial-memory word lies outside the declared footprint.
    InitialOutOfFootprint {
        /// The stray byte address.
        addr: u64,
    },
    /// A program misused the transactional interface (nested begin, plain
    /// op inside a transaction, `Done` mid-transaction, ...).
    Program {
        /// Logical thread.
        tid: usize,
        /// What it did.
        what: String,
    },
    /// One transaction exceeded [`Tl2Options::max_retries`] aborts.
    Livelock {
        /// Logical thread.
        tid: usize,
        /// Attempts consumed.
        attempts: u64,
    },
    /// The merged history failed structural validation — an executor bug,
    /// never a workload condition.
    History(String),
}

impl std::fmt::Display for Tl2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tl2Error::InvalidOptions { what, detail } => {
                write!(f, "invalid TL2 option {what}: {detail}")
            }
            Tl2Error::OutOfFootprint { tid, addr } => {
                write!(f, "thread {tid} accessed {addr:#x} outside the footprint")
            }
            Tl2Error::InitialOutOfFootprint { addr } => {
                write!(f, "initial memory at {addr:#x} outside the footprint")
            }
            Tl2Error::Program { tid, what } => write!(f, "thread {tid}: {what}"),
            Tl2Error::Livelock { tid, attempts } => {
                write!(f, "thread {tid} livelocked after {attempts} attempts")
            }
            Tl2Error::History(detail) => write!(f, "inconsistent recorded history: {detail}"),
        }
    }
}

impl std::error::Error for Tl2Error {}
