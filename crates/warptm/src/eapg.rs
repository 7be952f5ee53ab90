//! The idealized EAPG (early-abort / pause-and-go) baseline.
//!
//! EAPG extends WarpTM with commit-time broadcasts: when a transaction's
//! writes are applied at an LLC partition, the written set is broadcast to
//! every SIMT core, which compares it against the footprints of its running
//! transactions. A running transaction that has already observed (read) a
//! broadcast granule is doomed and aborts early, saving the useless trip
//! through validation. EAPG's other half — pausing a transaction that is
//! *about to* access a granule being committed — is not modelled: the
//! engine simulates only the early aborts.
//!
//! Following the paper's evaluation setup, the mechanism is idealized: each
//! broadcast is a 64-bit flit per core (charged as traffic by the engine),
//! and the conflict comparison itself is free. [`EapgFilter`] implements
//! the core-side comparison.

use gpu_mem::{Geometry, Granule};
use gpu_simt::log::TxLogs;

/// The decision EAPG takes for one running transaction on receipt of a
/// commit broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EapgDecision {
    /// No overlap: the transaction keeps running.
    Unaffected,
    /// The transaction already read or wrote a broadcast granule: it is
    /// doomed and should abort now, without queueing for validation.
    EarlyAbort,
}

/// Core-side broadcast filter.
#[derive(Debug, Clone)]
pub struct EapgFilter {
    geom: Geometry,
    early_aborts: u64,
    broadcasts_seen: u64,
}

impl EapgFilter {
    /// Creates a filter for one core.
    pub fn new(geom: Geometry) -> Self {
        EapgFilter {
            geom,
            early_aborts: 0,
            broadcasts_seen: 0,
        }
    }

    /// Evaluates a running transaction's logs against a broadcast write
    /// set, recording the decision in the filter's counters.
    pub fn on_broadcast(&mut self, logs: &TxLogs, written: &[Granule]) -> EapgDecision {
        self.broadcasts_seen += 1;
        let overlap = written
            .iter()
            .any(|&g| logs.read_granule(g, &self.geom) || logs.wrote_granule(g));
        if overlap {
            self.early_aborts += 1;
            EapgDecision::EarlyAbort
        } else {
            EapgDecision::Unaffected
        }
    }

    /// Early aborts triggered by this filter.
    pub fn early_aborts(&self) -> u64 {
        self.early_aborts
    }

    /// Broadcast evaluations performed.
    pub fn broadcasts_seen(&self) -> u64 {
        self.broadcasts_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_mem::Addr;

    fn geom() -> Geometry {
        Geometry::new(128, 32, 6)
    }

    #[test]
    fn overlap_with_read_set_aborts() {
        let g = geom();
        let mut f = EapgFilter::new(g);
        let mut logs = TxLogs::new();
        logs.record_read(Addr(8), 1); // granule 0
        assert_eq!(
            f.on_broadcast(&logs, &[Granule(0)]),
            EapgDecision::EarlyAbort
        );
        assert_eq!(f.early_aborts(), 1);
    }

    #[test]
    fn overlap_with_write_set_aborts() {
        let g = geom();
        let mut f = EapgFilter::new(g);
        let mut logs = TxLogs::new();
        logs.record_write(Addr(40), 1, &g); // granule 1
        assert_eq!(
            f.on_broadcast(&logs, &[Granule(1)]),
            EapgDecision::EarlyAbort
        );
    }

    #[test]
    fn disjoint_broadcast_is_harmless() {
        let g = geom();
        let mut f = EapgFilter::new(g);
        let mut logs = TxLogs::new();
        logs.record_read(Addr(8), 1);
        assert_eq!(
            f.on_broadcast(&logs, &[Granule(7), Granule(9)]),
            EapgDecision::Unaffected
        );
        assert_eq!(f.early_aborts(), 0);
        assert_eq!(f.broadcasts_seen(), 1);
    }

    #[test]
    fn empty_logs_never_abort() {
        let mut f = EapgFilter::new(geom());
        let logs = TxLogs::new();
        assert_eq!(
            f.on_broadcast(&logs, &[Granule(0), Granule(1)]),
            EapgDecision::Unaffected
        );
    }
}
