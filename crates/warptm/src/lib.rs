//! # warptm
//!
//! The prior-art baselines GETM is evaluated against:
//!
//! * **WarpTM-LL** ([`validator`]) — lazy version management plus lazy,
//!   value-based conflict detection: at commit time the transaction's read
//!   and write logs travel to validation/commit units at each LLC
//!   partition, observed read values are compared against the current
//!   committed state, and the commit completes only after a second round
//!   trip (commit command + acknowledgement).
//! * **TCD** ([`tcd`]) — the temporal-conflict-detection filter that lets
//!   read-only transactions whose reads all predate the transaction's start
//!   commit silently, without value validation.
//! * **WarpTM-EL** — the idealized eager-lazy variant of the paper's
//!   Sec. III study: validation runs instantly (zero latency and traffic)
//!   at every access; only the engine-side policy differs, so it reuses
//!   [`validator`] for its single commit round trip.
//! * **EAPG** ([`eapg`]) — the idealized early-abort / pause-and-go
//!   baseline: committing write sets are broadcast to all cores, which
//!   abort conflicting running transactions early. Only the early aborts
//!   are modelled; no transaction ever pauses.
//!
//! As with the `getm` crate, these are pure partition/core-side state
//! machines; the `gputm` engine supplies interconnect timing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod eapg;
pub mod tcd;
pub mod validator;

pub use tcd::TcdTable;
pub use validator::{LaneEntry, ValidationJob, Verdict, WarptmValidator};
