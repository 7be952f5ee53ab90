//! Sample statistics and the metric tables.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of every metric's
//! name, unit, direction and bound: the run printout, the result line and
//! the repository's `BENCHMARK.json` (see `spec.rs`) are all rendered from
//! them.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which an end-to-end metric may get
    /// worse before it counts as a regression. `None` for per-layer
    /// metrics, which are diagnostic and never gate.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload from untraced runs.
///
/// Every workload reports every metric, so each is defined for all four;
/// what "a pass" and "work" mean per workload is in the README. The host
/// this was written on (two shared vCPUs) changes speed by 10-15 % between
/// runs and by up to 1.6x for minutes at a time, and `sweep-tiny`'s peak
/// memory depends on which two cells its threads happen to run together,
/// so every bound is the widest allowed.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("throughput", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Per-layer metrics, reported by every workload from traced runs (zero
/// where the workload does not exercise the layer). Host time is given as
/// shares of the traced loop and as rates, simulated behaviour as counts
/// summed over one pass of distinct cells.
pub const PER_LAYER: &[MetricSpec] = &[
    // workloads: input generation inside set-up.
    layer("workloads.build_ms", "ms", Lower),
    // Self time of each layer's spans, as a share of the timed loop.
    layer("self.harness_pct", "%", Lower),
    layer("self.engine_new_pct", "%", Lower),
    layer("self.engine_run_pct", "%", Lower),
    layer("self.engine_check_pct", "%", Lower),
    layer("self.tl2_execute_pct", "%", Lower),
    layer("self.verify_check_pct", "%", Lower),
    layer("self.sweep_cold_pct", "%", Lower),
    layer("self.sweep_warm_pct", "%", Lower),
    // gputm::engine host speed per protocol.
    layer("engine.cycles_per_ms.GETM", "1/ms", Higher),
    layer("engine.cycles_per_ms.WarpTM", "1/ms", Higher),
    // gputm::engine::sharded (volta-hbm's untimed reference pass).
    layer("shard.speedup_x2", "x", Higher),
    layer("shard.work_pct", "%", Higher),
    layer("shard.barrier_pct", "%", Lower),
    layer("shard.merge_pct", "%", Lower),
    layer("shard.windows", "count", Lower),
    // The simulated result.
    layer("sim.cycles", "cycles", Lower),
    layer("sim.getm_speedup_vs_warptm", "x", Higher),
    // getm + tm-structs.
    layer("getm.aborts_war", "count", Lower),
    layer("getm.aborts_lock", "count", Lower),
    layer("getm.aborts_stall_full", "count", Lower),
    layer("getm.aborts_approx", "count", Lower),
    layer("getm.metadata_access_mean_cycles", "cycles", Lower),
    layer("getm.metadata_access_p99_cycles", "cycles", Lower),
    layer("getm.vu_queue_delay_mean", "cycles", Lower),
    layer("getm.stall_queued", "count", Lower),
    layer("getm.stall_max_occupancy", "count", Lower),
    layer("getm.stall_waiters_per_addr", "count", Lower),
    layer("getm.metadata_overflow_peak", "count", Lower),
    layer("getm.rollovers", "count", Lower),
    // warptm.
    layer("warptm.aborts_validation", "count", Lower),
    layer("warptm.silent_commits", "count", Higher),
    // gpu-simt.
    layer("tx.commits", "count", Higher),
    layer("tx.aborts", "count", Lower),
    layer("tx.aborts_per_1k.GETM", "per_1k", Lower),
    layer("tx.aborts_per_1k.WarpTM", "per_1k", Lower),
    layer("tx.commit_ratio.GETM", "ratio", Higher),
    layer("tx.commit_ratio.WarpTM", "ratio", Higher),
    layer("simt.tx_exec_cycles", "cycles", Lower),
    layer("simt.tx_wait_cycles", "cycles", Lower),
    layer("simt.rounds_per_region.GETM", "count", Lower),
    layer("simt.aborts_intra_warp", "count", Lower),
    // gpu-mem.
    layer("xbar.bytes", "B", Lower),
    layer("xbar.bytes_per_commit", "B", Lower),
    layer("mem.l1_hit_rate", "%", Higher),
    layer("mem.llc_hit_rate", "%", Higher),
    layer("mem.l1_sector_misses", "count", Lower),
    layer("mem.llc_sector_misses", "count", Lower),
    layer("mem.dram_accesses", "count", Lower),
    layer("mem.dram_queue_stalls", "count", Lower),
    layer("mem.partition_imbalance", "x", Lower),
    layer("mem.access_rt_mean", "cycles", Lower),
    layer("mem.data_latency_mean", "cycles", Lower),
    // Forward-progress watchdog: a degraded run is no speed-up.
    layer("watchdog.degraded_cells", "count", Lower),
    layer("watchdog.serialized_commits", "count", Lower),
    // sim-core::history + gputm::verify.
    layer("verify.attempts_per_ms", "1/ms", Higher),
    layer("verify.attempts", "count", Lower),
    layer("verify.versions", "count", Lower),
    layer("tl2.record_overhead_pct", "%", Lower),
    // tl2 through gputm::backend.
    layer("tl2.commits_per_ms", "1/ms", Higher),
    layer("tl2.commits", "count", Higher),
    layer("tl2.aborts", "count", Lower),
    layer("tl2.validation_aborts", "count", Lower),
    layer("tl2.commit_ratio", "ratio", Higher),
    // gputm::sweep.
    layer("sweep.cold_cells_per_s", "1/s", Higher),
    layer("sweep.warm_cells_per_s", "1/s", Higher),
    layer("cache.stores_per_ms", "1/ms", Higher),
    layer("cache.loads_per_ms", "1/ms", Higher),
    layer("journal.records_per_ms", "1/ms", Higher),
    // The span recorder itself.
    layer("trace.spans", "count", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The three quartiles of `xs` by the "exclusive" method (Python's
/// `statistics.quantiles(xs, n=4)`); the middle one is the median. A
/// single sample is all three quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n == 1 {
        return [d[0]; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative for tiny samples, where the method extrapolates.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    })
}

pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// Percentiles considered for a tail figure, in tenths of a percent,
/// highest first.
const TAIL_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of [`TAIL_PERMILLE`] with at least ten samples
/// beyond its nearest rank, with its value; `None` below twenty samples,
/// where not even the median has ten beyond it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    let rank = |pm: usize| (pm * n).div_ceil(1000);
    let pm = TAIL_PERMILLE.into_iter().find(|&pm| n - rank(pm) >= 10)?;
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    Some((pm as f64 / 10.0, d[rank(pm).max(1) - 1]))
}

/// One line describing a sample: median, quartiles, tail and count.
pub fn describe(xs: &[f64], scale: f64, unit: &str) -> String {
    let [q1, q2, q3] = quartiles(xs).map(|v| v * scale);
    let mut s = format!(
        "median {q2:.4} {unit} (q1 {q1:.4}, q3 {q3:.4}, n {})",
        xs.len()
    );
    if let Some((p, v)) = tail(xs) {
        s.push_str(&format!(", p{p} {:.4}", v * scale));
    }
    s
}

/// `a / b`, or 0 when there is nothing to divide by (a layer the workload
/// does not exercise).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Geometric mean; 0 for an empty sample.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// How far `b` lies from `a`, as a share of `a`.
pub fn rel_change(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (b - a).abs() / a.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50.0, 10.0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
    }

    #[test]
    fn helpers_handle_empty_and_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(rel_change(0.0, 0.0), 0.0);
        assert!((rel_change(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((rel_change(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(rel_change(0.0, 1.0).is_infinite());
    }

    #[test]
    fn tables_are_well_formed() {
        let ok_char = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(
                m.name.len() <= 64 && m.name.chars().all(ok_char),
                "{}",
                m.name
            );
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m.unit.len() <= 16, "{}", m.unit);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = find("setup_s").expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
    }
}
