//! Per-thread transaction logs.
//!
//! Every transactional thread keeps a redo log in the core's local memory:
//! loads record the observed value (needed by WarpTM's value-based
//! validation), stores record the new value. GETM only *transmits* the
//! write log at commit, but still records reads to drive intra-warp
//! conflict detection, exactly as the paper describes (Sec. V-A). The
//! engine runs that check at issue: the first lane to touch a granule
//! wins, and a later lane conflicts if either access writes it
//! ([`TxLogs::wrote_granule`], [`TxLogs::read_granule`]).

use gpu_mem::{Addr, Geometry, Granule};
use std::collections::HashMap;

/// One log entry: a word address and the associated value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// Word address.
    pub addr: Addr,
    /// Observed (read log) or written (write log) value.
    pub value: u64,
    /// Read log only: this read was satisfied by the transaction's *own*
    /// earlier write (read-own-writes forwarding). Forwarded reads observe
    /// speculative data by design and are excluded from value validation;
    /// reads that *preceded* the own write still validate against memory.
    pub forwarded: bool,
}

/// The read and write logs of one thread's open transaction.
#[derive(Debug, Clone, Default)]
pub struct TxLogs {
    reads: Vec<LogEntry>,
    writes: Vec<LogEntry>,
    /// Per-granule write counts (for the `#writes` bookkeeping GETM sends
    /// at commit/abort).
    write_counts: HashMap<u64, u32>,
}

/// Bytes on the wire per log entry when a log is transmitted: an address
/// plus a 64-bit value (WarpTM sends both logs at commit; GETM only the
/// write log).
pub const LOG_ENTRY_BYTES: u64 = 16;

impl TxLogs {
    /// Fresh, empty logs.
    pub fn new() -> Self {
        TxLogs::default()
    }

    /// Records a transactional load of `addr` observing `value`. The
    /// forwarding flag is derived from whether this transaction has
    /// already written `addr` at record time.
    pub fn record_read(&mut self, addr: Addr, value: u64) {
        let forwarded = self.forwarded_value(addr).is_some();
        self.reads.push(LogEntry {
            addr,
            value,
            forwarded,
        });
    }

    /// Fills in the value of the most recent read of `addr` — the engine
    /// records a placeholder at issue (for intra-warp conflict checks) and
    /// patches the observed value when the memory reply arrives.
    pub fn update_read_value(&mut self, addr: Addr, value: u64) {
        if let Some(e) = self.reads.iter_mut().rev().find(|e| e.addr == addr) {
            e.value = value;
        }
    }

    /// Records a transactional store, tracking the per-granule write count.
    pub fn record_write(&mut self, addr: Addr, value: u64, geom: &Geometry) {
        self.writes.push(LogEntry {
            addr,
            value,
            forwarded: false,
        });
        *self
            .write_counts
            .entry(geom.granule_of(addr).raw())
            .or_insert(0) += 1;
    }

    /// Removes the most recent write to `addr` — used when an eager
    /// conflict check rejects a store that was optimistically logged at
    /// issue time (the reservation was never taken, so the cleanup log
    /// must not release it).
    ///
    /// Returns whether an entry was removed.
    pub fn remove_last_write(&mut self, addr: Addr, geom: &Geometry) -> bool {
        let Some(pos) = self.writes.iter().rposition(|e| e.addr == addr) else {
            return false;
        };
        self.writes.remove(pos);
        let g = geom.granule_of(addr).raw();
        if let Some(c) = self.write_counts.get_mut(&g) {
            *c -= 1;
            if *c == 0 {
                self.write_counts.remove(&g);
            }
        }
        true
    }

    /// Latest value this transaction wrote to `addr`, if any
    /// (read-own-writes forwarding).
    pub fn forwarded_value(&self, addr: Addr) -> Option<u64> {
        self.writes
            .iter()
            .rev()
            .find(|e| e.addr == addr)
            .map(|e| e.value)
    }

    /// Whether this transaction has written `addr`'s granule.
    pub fn wrote_granule(&self, g: Granule) -> bool {
        self.write_counts.contains_key(&g.raw())
    }

    /// Whether this transaction has read anything in granule `g`.
    pub fn read_granule(&self, g: Granule, geom: &Geometry) -> bool {
        self.reads.iter().any(|e| geom.granule_of(e.addr) == g)
    }

    /// The read log.
    pub fn reads(&self) -> &[LogEntry] {
        &self.reads
    }

    /// The write log.
    pub fn writes(&self) -> &[LogEntry] {
        &self.writes
    }

    /// Whether the transaction performed no writes (candidate for WarpTM's
    /// TCD silent commit).
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }

    /// Iterates `(granule, #writes)` pairs in unspecified order.
    pub fn write_counts(&self) -> impl Iterator<Item = (Granule, u32)> + '_ {
        self.write_counts.iter().map(|(&g, &c)| (Granule(g), c))
    }

    /// Clears both logs (after commit, abort cleanup, or retry).
    pub fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.write_counts.clear();
    }

    /// Whether both logs are empty.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::new(128, 32, 6)
    }

    #[test]
    fn read_own_writes() {
        let g = geom();
        let mut l = TxLogs::new();
        assert_eq!(l.forwarded_value(Addr(8)), None);
        l.record_write(Addr(8), 1, &g);
        l.record_write(Addr(8), 2, &g);
        assert_eq!(l.forwarded_value(Addr(8)), Some(2));
        assert_eq!(l.forwarded_value(Addr(16)), None);
    }

    #[test]
    fn write_counts_per_granule() {
        let g = geom();
        let mut l = TxLogs::new();
        l.record_write(Addr(0), 1, &g); // granule 0
        l.record_write(Addr(8), 2, &g); // granule 0
        l.record_write(Addr(32), 3, &g); // granule 1
        let counts: HashMap<u64, u32> = l.write_counts().map(|(g, c)| (g.raw(), c)).collect();
        assert_eq!(counts[&0], 2);
        assert_eq!(counts[&1], 1);
        assert!(l.wrote_granule(Granule(0)));
        assert!(!l.wrote_granule(Granule(2)));
    }

    #[test]
    fn remove_last_write_unwinds_counts() {
        let g = geom();
        let mut l = TxLogs::new();
        l.record_write(Addr(0), 1, &g);
        l.record_write(Addr(0), 2, &g);
        assert!(l.remove_last_write(Addr(0), &g));
        assert_eq!(l.forwarded_value(Addr(0)), Some(1));
        assert!(l.wrote_granule(Granule(0)));
        assert!(l.remove_last_write(Addr(0), &g));
        assert!(!l.wrote_granule(Granule(0)));
        assert!(!l.remove_last_write(Addr(0), &g));
    }

    #[test]
    fn update_read_value_patches_latest() {
        let mut l = TxLogs::new();
        l.record_read(Addr(0), 0);
        l.record_read(Addr(8), 0);
        l.record_read(Addr(0), 0);
        l.update_read_value(Addr(0), 42);
        // Only the most recent entry for the address is patched.
        assert_eq!(l.reads()[2].value, 42);
        assert_eq!(l.reads()[0].value, 0);
        assert_eq!(l.reads()[1].value, 0);
        // Patching an unknown address is a no-op.
        l.update_read_value(Addr(64), 1);
        assert_eq!(l.reads().len(), 3);
    }

    #[test]
    fn read_only_detection() {
        let g = geom();
        let mut l = TxLogs::new();
        l.record_read(Addr(0), 7);
        assert!(l.is_read_only());
        assert!(l.read_granule(Granule(0), &g));
        assert!(!l.read_granule(Granule(1), &g));
        l.record_write(Addr(0), 8, &g);
        assert!(!l.is_read_only());
    }

    #[test]
    fn clear_resets() {
        let g = geom();
        let mut l = TxLogs::new();
        l.record_read(Addr(0), 1);
        l.record_write(Addr(8), 2, &g);
        assert!(!l.is_empty());
        l.clear();
        assert!(l.is_empty());
        assert!(l.is_read_only());
    }
}
