//! Everything a run measures.
//!
//! One [`Metrics`] value summarizes a simulation; the benchmark harness
//! combines metrics from multiple runs into the paper's figures and
//! tables. Field docs note which experiment consumes each number.

use sim_core::LogHistogram;
use std::collections::BTreeMap;

/// One shard's host wall-time attribution. The engine runs on one thread
/// and never fills it; the type stays so code written against the sharded
/// engine still compiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardProfile {
    /// Nanoseconds of simulation work.
    pub work_ns: u64,
    /// Nanoseconds waiting at barriers.
    pub barrier_ns: u64,
    /// Nanoseconds merging cross-shard effects.
    pub merge_ns: u64,
}

impl ShardProfile {
    /// Total attributed nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.work_ns + self.barrier_ns + self.merge_ns
    }
}

/// Host-side shard profile of a run: always empty, since the engine runs
/// on one thread (see [`ShardProfile`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostProfile {
    /// Attribution per shard (always empty).
    pub shards: Vec<ShardProfile>,
    /// Parallel-phase windows sampled (always zero).
    pub windows: u64,
}

/// Measurements from one simulated kernel execution.
///
/// `PartialEq` compares every field (floats bitwise-as-written), which is
/// what the sweep harness's determinism guarantees are stated in terms of:
/// serial, parallel, and cache-recalled metrics for the same
/// [`crate::sweep::CellSpec`] compare equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Total simulated core cycles until the kernel drained (Figs. 4, 11,
    /// 14, 17 — "total exec time").
    pub cycles: u64,
    /// Committed transactions (thread granularity).
    pub commits: u64,
    /// Aborted transaction attempts (Table IV: aborts per 1K commits).
    pub aborts: u64,
    /// Transactions committed silently via the TCD filter (WarpTM only).
    pub silent_commits: u64,
    /// Warp-cycles with an open transactional region actively executing
    /// (Figs. 3, 4, 10 — "tx exec").
    pub tx_exec_cycles: u64,
    /// Warp-cycles waiting: throttled at `TxBegin` or sleeping in abort
    /// backoff (Figs. 3, 4, 10 — "tx wait").
    pub tx_wait_cycles: u64,
    /// Total bytes crossing the two crossbars (Fig. 12).
    pub xbar_bytes: u64,
    /// Crossbar bytes by traffic category.
    pub xbar_by_category: BTreeMap<&'static str, u64>,
    /// Mean validation-unit metadata access latency, cycles (Fig. 13).
    /// `None` when the system has no validation units (non-GETM runs) —
    /// distinguishing "not measured" from a true zero.
    pub mean_metadata_access_cycles: Option<f64>,
    /// Full distribution of validation-unit metadata access latency in
    /// log-2 buckets (Fig. 13's p50/p95/p99 companion). Empty for systems
    /// without validation units.
    pub metadata_latency: LogHistogram,
    /// Maximum total stall-buffer occupancy across the GPU (Fig. 15).
    pub max_stall_occupancy: u64,
    /// Mean queued requests per stalled address (Fig. 16). `None` when no
    /// address ever had a waiter (or the system has no stall buffers).
    pub mean_stall_waiters_per_addr: Option<f64>,
    /// GETM stall-buffer-full aborts.
    pub stall_full_aborts: u64,
    /// GETM requests that were parked in stall buffers.
    pub stall_queued: u64,
    /// GETM aborts triggered at loads (WAR).
    pub getm_aborts_load: u64,
    /// GETM aborts triggered at stores (WAW/RAW).
    pub getm_aborts_store: u64,
    /// GETM aborts whose metadata came from the approximate table.
    pub getm_aborts_approx: u64,
    /// Lanes aborted by intra-warp conflict detection at issue.
    pub aborts_intra_warp: u64,
    /// Lanes aborted by value/hazard validation at commit (lazy systems).
    pub aborts_validation: u64,
    /// Largest conflicting timestamp reported by any GETM abort.
    pub getm_max_cause_ts: u64,
    /// GETM precise-table overflow high-water mark (expected 0).
    pub metadata_overflow_peak: usize,
    /// Lanes EAPG aborted early after a broadcast hit their footprint.
    pub eapg_early_aborts: u64,
    /// EAPG broadcast messages delivered.
    pub eapg_broadcasts: u64,
    /// L1 data cache hit rate across cores. Sector misses count against
    /// it (they wait on a downstream fill like any miss).
    pub l1_hit_rate: f64,
    /// LLC hit rate across partitions (sector misses count against it).
    pub llc_hit_rate: f64,
    /// L1 sector misses across cores: tag present, sector not yet
    /// filled. Zero for unsectored (Fermi-tier) configurations.
    pub l1_sector_misses: u64,
    /// LLC sector misses across partitions (zero when unsectored).
    pub llc_sector_misses: u64,
    /// DRAM accesses across partitions (LLC line and sector fills).
    pub dram_accesses: u64,
    /// DRAM requests that waited for an outstanding-queue slot
    /// ([`crate::config::MemModel::Hbm`] only; the fixed-latency Fermi
    /// model has no queue to stall in).
    pub dram_queue_stalls: u64,
    /// Max/min per-partition LLC traffic imbalance — the partition
    /// camping gauge. `None` when too little traffic to judge.
    pub partition_imbalance: Option<f64>,
    /// Atomic operations executed (FGLock mode).
    pub atomics: u64,
    /// CAS operations that failed (lock contention indicator).
    pub cas_failures: u64,
    /// Timestamp rollovers performed (expected 0 at 48-bit).
    pub rollovers: u64,
    /// Mean round-trip latency of transactional accesses, cycles.
    pub mean_access_rt: f64,
    /// Mean commit rounds (1 + warp-level retries) per region.
    pub mean_rounds_per_region: f64,
    /// Mean validation-unit queue delay seen by arriving requests.
    pub mean_vu_queue_delay: f64,
    /// Mean LLC/DRAM latency component added to replies.
    pub mean_data_latency: f64,
    /// Workload invariant check outcome (`None` = not run).
    pub check: Option<Result<(), String>>,
    /// The forward-progress watchdog intervened (escalated backoff caps or
    /// serialized commits): the run completed, but its timing reflects
    /// degraded execution rather than the steady-state protocol.
    pub degraded: bool,
    /// Backoff-cap escalation sweeps the watchdog performed.
    pub watchdog_escalations: u64,
    /// Commits that landed while the machine was in serialization fallback.
    pub serialized_commits: u64,
    /// Host-side shard profile: always empty (see [`HostProfile`]).
    pub host_profile: HostProfile,
}

impl Metrics {
    /// Aborts per 1000 commits (Table IV). Zero if nothing committed.
    pub fn aborts_per_1k_commits(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.aborts as f64 * 1000.0 / self.commits as f64
        }
    }

    /// Sum of transactional exec and wait cycles (Fig. 10's bar height).
    pub fn total_tx_cycles(&self) -> u64 {
        self.tx_exec_cycles + self.tx_wait_cycles
    }

    /// The abort tally attributed to one cause — the Table IV companion
    /// breakdown. Causes are counted where they are detected, so WAR and
    /// lock-conflict are VU reply counts (per request, possibly covering
    /// several lanes) while intra-warp/validation/early-abort are counts
    /// of aborted lanes, booked at the engine's one abort site and equal
    /// to the lanes of the run's `TxAbort` trace events for that cause
    /// (an EAPG lane doomed by several broadcasts counts once, when it
    /// aborts); `approx` overlaps WAR/lock-conflict (it marks which table
    /// the losing timestamp came from).
    pub fn aborts_by_cause(&self, cause: sim_core::AbortCause) -> u64 {
        use sim_core::AbortCause as C;
        match cause {
            C::War => self.getm_aborts_load,
            C::LockConflict => self.getm_aborts_store,
            C::StallFull => self.stall_full_aborts,
            C::Approx => self.getm_aborts_approx,
            C::IntraWarp => self.aborts_intra_warp,
            C::Validation => self.aborts_validation,
            C::EarlyAbort => self.eapg_early_aborts,
        }
    }

    /// Whether the run's final memory satisfied the workload invariants.
    ///
    /// # Panics
    ///
    /// Panics if the check was never executed or failed — callers in the
    /// harness want a loud failure, not a silently wrong figure.
    pub fn assert_correct(&self) {
        match &self.check {
            Some(Ok(())) => {}
            Some(Err(e)) => panic!("workload invariants violated: {e}"),
            None => panic!("workload invariants were never checked"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_rate() {
        let m = Metrics {
            commits: 2000,
            aborts: 500,
            ..Metrics::default()
        };
        assert_eq!(m.aborts_per_1k_commits(), 250.0);
        assert_eq!(Metrics::default().aborts_per_1k_commits(), 0.0);
    }

    #[test]
    fn abort_cause_breakdown_covers_every_cause() {
        let m = Metrics {
            getm_aborts_load: 1,
            getm_aborts_store: 2,
            stall_full_aborts: 3,
            getm_aborts_approx: 4,
            aborts_intra_warp: 5,
            aborts_validation: 6,
            eapg_early_aborts: 7,
            ..Metrics::default()
        };
        let tallies: Vec<u64> = sim_core::AbortCause::ALL
            .iter()
            .map(|&c| m.aborts_by_cause(c))
            .collect();
        assert_eq!(tallies, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn tx_cycle_total() {
        let m = Metrics {
            tx_exec_cycles: 10,
            tx_wait_cycles: 5,
            ..Metrics::default()
        };
        assert_eq!(m.total_tx_cycles(), 15);
    }

    #[test]
    #[should_panic(expected = "never checked")]
    fn assert_correct_requires_check() {
        Metrics::default().assert_correct();
    }

    #[test]
    #[should_panic(expected = "invariants violated")]
    fn assert_correct_propagates_failure() {
        let m = Metrics {
            check: Some(Err("boom".into())),
            ..Metrics::default()
        };
        m.assert_correct();
    }

    #[test]
    fn assert_correct_passes() {
        let m = Metrics {
            check: Some(Ok(())),
            ..Metrics::default()
        };
        m.assert_correct();
    }
}
