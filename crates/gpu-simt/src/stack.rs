//! The transactional SIMT stack.
//!
//! Fung et al.'s mechanism (reused by both WarpTM and GETM) extends the
//! branch-divergence stack with *Transaction* and *Retry* entry types: the
//! Transaction entry's mask tracks lanes currently executing the
//! transaction; the Retry entry below it collects lanes that aborted and
//! must re-execute once the whole warp reaches the commit point.
//!
//! This module models exactly that pair of entries per open transactional
//! region (our workloads do not nest transactions, matching the paper).

/// A 64-lane-wide active mask (warps are at most 64 wide).
pub type LaneMask = u64;

/// Builds a mask with the lowest `n` lanes set.
pub fn full_mask(n: u32) -> LaneMask {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// The lanes set in `mask`, in ascending lane order.
///
/// ```
/// assert_eq!(gpu_simt::stack::lanes_of(0b1010_0001).collect::<Vec<_>>(), vec![0, 5, 7]);
/// ```
pub fn lanes_of(mut mask: LaneMask) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros();
            mask &= mask - 1;
            l
        })
    })
}

/// The per-warp transactional stack state.
///
/// Life cycle per transactional region:
///
/// 1. [`TxStack::begin`] with the mask of lanes entering the transaction.
/// 2. Lanes abort via [`TxStack::abort_lane`] (moved to the retry mask) or
///    arrive at the commit point via [`TxStack::lane_at_commit`].
/// 3. When [`TxStack::warp_at_commit_point`] is true, the runtime commits
///    the surviving lanes and calls [`TxStack::finish_round`]: if any lanes
///    are waiting to retry, they become the new active mask and the
///    transaction restarts; otherwise the region is over.
#[derive(Debug, Clone, Default)]
pub struct TxStack {
    /// Lanes currently executing the transaction body.
    active: LaneMask,
    /// Lanes that aborted and await the warp-level restart.
    retry: LaneMask,
    /// Lanes that reached the commit point and await the rest of the warp.
    at_commit: LaneMask,
    /// Whether a transactional region is open.
    open: bool,
    /// How many times the current region has restarted (for stats/backoff).
    rounds: u32,
    /// Restart rounds accumulated across every region this warp ever ran.
    lifetime_rounds: u64,
}

impl TxStack {
    /// A stack with no open transaction.
    pub fn new() -> Self {
        TxStack::default()
    }

    /// Opens a transactional region for `mask` lanes.
    ///
    /// # Panics
    ///
    /// Panics if a region is already open or the mask is empty.
    pub fn begin(&mut self, mask: LaneMask) {
        assert!(!self.open, "nested transactions are not supported");
        assert!(mask != 0, "cannot begin a transaction with no lanes");
        self.active = mask;
        self.retry = 0;
        self.at_commit = 0;
        self.open = true;
        self.rounds = 0;
    }

    /// Whether a transactional region is open.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Lanes currently executing.
    pub fn active(&self) -> LaneMask {
        self.active
    }

    /// Lanes waiting to retry.
    pub fn retry_mask(&self) -> LaneMask {
        self.retry
    }

    /// Lanes parked at the commit point.
    pub fn commit_mask(&self) -> LaneMask {
        self.at_commit
    }

    /// Restart count of the current region.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Restart rounds accumulated across all regions (never reset) — the
    /// SIMT-stack retry-pressure gauge the trace layer reads.
    pub fn lifetime_rounds(&self) -> u64 {
        self.lifetime_rounds
    }

    /// Marks `lane` aborted: it stops executing and waits for the warp-level
    /// restart.
    ///
    /// # Panics
    ///
    /// Panics if the lane is not currently active.
    pub fn abort_lane(&mut self, lane: u32) {
        let bit = 1u64 << lane;
        assert!(self.active & bit != 0, "aborting a non-active lane");
        self.active &= !bit;
        self.retry |= bit;
    }

    /// Marks `lane` as having reached its commit point successfully.
    ///
    /// # Panics
    ///
    /// Panics if the lane is not currently active.
    pub fn lane_at_commit(&mut self, lane: u32) {
        let bit = 1u64 << lane;
        assert!(self.active & bit != 0, "committing a non-active lane");
        self.active &= !bit;
        self.at_commit |= bit;
    }

    /// True when no lane is still executing the body: every lane either
    /// aborted or reached the commit point, so the warp-level commit can
    /// proceed.
    pub fn warp_at_commit_point(&self) -> bool {
        self.open && self.active == 0
    }

    /// Moves lanes parked at the commit point back into the retry mask —
    /// used when a warp-level commit *fails* (WarpTM's lazy validation can
    /// reject a transaction after all its lanes reached the commit point;
    /// GETM never needs this, commits are guaranteed).
    ///
    /// # Panics
    ///
    /// Panics if any lane in `mask` is not parked at the commit point.
    pub fn fail_commit_lanes(&mut self, mask: LaneMask) {
        assert_eq!(self.at_commit & mask, mask, "lane not at commit point");
        self.at_commit &= !mask;
        self.retry |= mask;
    }

    /// Completes a commit round. Lanes in the commit mask leave the region;
    /// lanes in the retry mask become active again. Returns the mask of
    /// lanes that restart (zero means the region closed).
    ///
    /// # Panics
    ///
    /// Panics if called while some lanes are still executing.
    pub fn finish_round(&mut self) -> LaneMask {
        assert!(self.warp_at_commit_point(), "warp not at commit point");
        self.at_commit = 0;
        let restart = self.retry;
        self.retry = 0;
        if restart == 0 {
            self.open = false;
        } else {
            self.active = restart;
            self.rounds += 1;
            self.lifetime_rounds += 1;
        }
        restart
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mask_widths() {
        assert_eq!(full_mask(0), 0);
        assert_eq!(full_mask(1), 1);
        assert_eq!(full_mask(32), 0xFFFF_FFFF);
        assert_eq!(full_mask(64), u64::MAX);
        assert_eq!(full_mask(65), u64::MAX);
    }

    #[test]
    fn all_commit_closes_region() {
        let mut s = TxStack::new();
        s.begin(0b111);
        assert!(s.is_open());
        s.lane_at_commit(0);
        s.lane_at_commit(1);
        assert!(!s.warp_at_commit_point());
        s.lane_at_commit(2);
        assert!(s.warp_at_commit_point());
        assert_eq!(s.finish_round(), 0);
        assert!(!s.is_open());
    }

    #[test]
    fn aborted_lanes_retry() {
        let mut s = TxStack::new();
        s.begin(0b11);
        s.abort_lane(0);
        s.lane_at_commit(1);
        assert!(s.warp_at_commit_point());
        let restart = s.finish_round();
        assert_eq!(restart, 0b01);
        assert!(s.is_open());
        assert_eq!(s.active(), 0b01);
        assert_eq!(s.rounds(), 1);
        // Second round: the retried lane commits.
        s.lane_at_commit(0);
        assert_eq!(s.finish_round(), 0);
        assert!(!s.is_open());
    }

    #[test]
    fn multiple_retry_rounds() {
        let mut s = TxStack::new();
        s.begin(0b1);
        for round in 1..=3 {
            s.abort_lane(0);
            assert!(s.warp_at_commit_point());
            assert_eq!(s.finish_round(), 0b1);
            assert_eq!(s.rounds(), round);
        }
        s.lane_at_commit(0);
        assert_eq!(s.finish_round(), 0);
        assert_eq!(s.lifetime_rounds(), 3);
        // A fresh region resets per-region rounds but not the lifetime sum.
        s.begin(0b1);
        assert_eq!(s.rounds(), 0);
        assert_eq!(s.lifetime_rounds(), 3);
    }

    #[test]
    #[should_panic(expected = "nested")]
    fn nested_begin_panics() {
        let mut s = TxStack::new();
        s.begin(1);
        s.begin(1);
    }

    #[test]
    #[should_panic(expected = "non-active")]
    fn abort_inactive_lane_panics() {
        let mut s = TxStack::new();
        s.begin(0b1);
        s.abort_lane(1);
    }

    #[test]
    #[should_panic(expected = "not at commit point")]
    fn early_finish_panics() {
        let mut s = TxStack::new();
        s.begin(0b11);
        s.lane_at_commit(0);
        s.finish_round();
    }

    #[test]
    fn failed_commit_lanes_retry() {
        let mut s = TxStack::new();
        s.begin(0b11);
        s.lane_at_commit(0);
        s.lane_at_commit(1);
        // Warp-level validation failed: both lanes go back to retry.
        s.fail_commit_lanes(0b11);
        assert!(s.warp_at_commit_point());
        assert_eq!(s.finish_round(), 0b11);
        assert_eq!(s.active(), 0b11);
    }

    #[test]
    #[should_panic(expected = "not at commit point")]
    fn fail_commit_requires_parked_lane() {
        let mut s = TxStack::new();
        s.begin(0b11);
        s.lane_at_commit(0);
        s.fail_commit_lanes(0b10); // lane 1 never parked
    }

    #[test]
    fn mixed_commit_and_abort_masks() {
        let mut s = TxStack::new();
        s.begin(0b1111);
        s.abort_lane(1);
        s.abort_lane(3);
        s.lane_at_commit(0);
        s.lane_at_commit(2);
        assert_eq!(s.commit_mask(), 0b0101);
        assert_eq!(s.retry_mask(), 0b1010);
        assert_eq!(s.finish_round(), 0b1010);
        assert_eq!(s.active(), 0b1010);
    }
}
