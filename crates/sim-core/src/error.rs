//! The workspace-wide error type.

use std::error::Error;
use std::fmt;

/// Diagnosis of a run the forward-progress watchdog gave up on.
///
/// Returned inside [`SimError::Livelock`] when a simulation makes no
/// commit progress for long enough that even the degradation ladder
/// (backoff escalation, serialized commits) could not restart it. Unlike
/// the bare [`SimError::CycleLimitExceeded`], the report says *where* the
/// contention was: the hottest addresses by abort count and the warps that
/// were starving when the watchdog fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LivelockReport {
    /// Cycle at which the watchdog declared livelock.
    pub detected_cycle: u64,
    /// Cycle of the last observed commit (0 if nothing ever committed).
    pub last_progress_cycle: u64,
    /// Commits observed over the whole run before detection.
    pub commits: u64,
    /// Aborts observed over the whole run before detection.
    pub aborts: u64,
    /// The watchdog's progress window, in cycles.
    pub window: u64,
    /// Hottest conflict addresses, `(address, abort count)`, most-aborted
    /// first (capped to a small top-N by the producer).
    pub hot_addrs: Vec<(u64, u64)>,
    /// Global warp ids that held an open, uncommitted transaction region
    /// when the watchdog fired.
    pub starving_warps: Vec<u64>,
}

impl fmt::Display for LivelockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "livelock at cycle {} (last progress {}; {} commits, {} aborts; \
             {} starving warp(s); window {})",
            self.detected_cycle,
            self.last_progress_cycle,
            self.commits,
            self.aborts,
            self.starving_warps.len(),
            self.window
        )?;
        if let Some((addr, n)) = self.hot_addrs.first() {
            write!(f, "; hottest addr {addr:#x} with {n} abort(s)")?;
        }
        Ok(())
    }
}

/// Errors surfaced by simulator construction and execution.
///
/// Most simulator-internal conditions (aborted transactions, full queues)
/// are modelled behaviour, not errors; `SimError` covers genuine misuse of
/// the API or configurations the models cannot represent.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A configuration parameter is outside the supported range.
    InvalidConfig {
        /// Which parameter was rejected.
        what: &'static str,
        /// Human-readable detail of the rejection.
        detail: String,
    },
    /// The simulation exceeded its cycle budget without finishing, which
    /// usually indicates livelock in a protocol under test.
    CycleLimitExceeded {
        /// The budget that was exhausted.
        limit: u64,
    },
    /// A workload asked for resources the simulated machine does not have.
    ResourceExhausted {
        /// Which resource ran out.
        what: &'static str,
    },
    /// A protocol message arrived for a request the engine has no record
    /// of — a reply routed to an unknown token, an acknowledgement for a
    /// commit that was never in flight, and so on. These always indicate an
    /// engine or protocol-model bug rather than modelled behaviour; the
    /// verifier surfaces them as verdicts instead of crashing the process.
    ProtocolViolation {
        /// Which routing step failed.
        what: &'static str,
        /// The correlation token that could not be routed.
        token: u64,
        /// The cycle at which the violation was detected.
        cycle: u64,
    },
    /// The forward-progress watchdog observed no commits for long enough
    /// to declare the run livelocked, even after graceful degradation.
    /// Carries a full diagnosis (boxed: the report is much larger than the
    /// other variants).
    Livelock(Box<LivelockReport>),
    /// The run was cancelled from outside (a sweep-level watchdog or
    /// shutdown request raised the engine's cancel token).
    Interrupted {
        /// The cycle at which the engine noticed the cancellation.
        cycle: u64,
    },
    /// A workload named a word by a byte address that is not 8-byte
    /// aligned. Words are 64 bits wide and the memory image holds whole
    /// words, so such an address would alias its neighbouring word.
    MisalignedAddress {
        /// Where the address came from: `"initial memory"` or the op
        /// (`"TxLoad"`, `"AtomicCas"`, ...).
        what: &'static str,
        /// The offending byte address.
        addr: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { what, detail } => {
                write!(f, "invalid configuration for {what}: {detail}")
            }
            SimError::CycleLimitExceeded { limit } => {
                write!(f, "simulation exceeded cycle limit of {limit}")
            }
            SimError::ResourceExhausted { what } => {
                write!(f, "simulated resource exhausted: {what}")
            }
            SimError::ProtocolViolation { what, token, cycle } => {
                write!(
                    f,
                    "protocol violation at cycle {cycle}: {what} (token {token})"
                )
            }
            SimError::Livelock(report) => write!(f, "{report}"),
            SimError::Interrupted { cycle } => {
                write!(f, "simulation interrupted at cycle {cycle}")
            }
            SimError::MisalignedAddress { what, addr } => {
                write!(f, "{what} names misaligned word address {addr:#x}")
            }
        }
    }
}

impl Error for SimError {}

impl SimError {
    /// Convenience constructor for [`SimError::InvalidConfig`].
    pub fn invalid_config(what: &'static str, detail: impl Into<String>) -> Self {
        SimError::InvalidConfig {
            what,
            detail: detail.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SimError::invalid_config("warps_per_core", "must be nonzero");
        assert_eq!(
            e.to_string(),
            "invalid configuration for warps_per_core: must be nonzero"
        );
        assert_eq!(
            SimError::CycleLimitExceeded { limit: 10 }.to_string(),
            "simulation exceeded cycle limit of 10"
        );
        assert_eq!(
            SimError::ResourceExhausted {
                what: "stall buffer"
            }
            .to_string(),
            "simulated resource exhausted: stall buffer"
        );
        assert_eq!(
            SimError::ProtocolViolation {
                what: "load reply routed to unknown token",
                token: 42,
                cycle: 7
            }
            .to_string(),
            "protocol violation at cycle 7: load reply routed to unknown token (token 42)"
        );
    }

    #[test]
    fn livelock_display_names_the_hot_spot() {
        let report = LivelockReport {
            detected_cycle: 5000,
            last_progress_cycle: 1000,
            commits: 3,
            aborts: 912,
            window: 2000,
            hot_addrs: vec![(0x7000_0000, 450), (0x7000_0008, 400)],
            starving_warps: vec![0, 1, 5],
        };
        let msg = SimError::Livelock(Box::new(report)).to_string();
        assert!(msg.contains("livelock at cycle 5000"), "{msg}");
        assert!(msg.contains("3 starving warp(s)"), "{msg}");
        assert!(msg.contains("0x70000000"), "{msg}");
    }

    #[test]
    fn interrupted_display() {
        assert_eq!(
            SimError::Interrupted { cycle: 99 }.to_string(),
            "simulation interrupted at cycle 99"
        );
    }

    #[test]
    fn misaligned_display() {
        assert_eq!(
            SimError::MisalignedAddress {
                what: "TxLoad",
                addr: 0x1004
            }
            .to_string(),
            "TxLoad names misaligned word address 0x1004"
        );
    }

    #[test]
    fn is_error_and_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<SimError>();
    }
}
