//! Diagnostic: detailed metric dump for one benchmark under every system.
//!
//! ```text
//! cargo run -p bench --release --bin diag [BENCH] [--paper-scale]
//! ```

use bench::{cli, Harness};
use gputm::prelude::*;

fn main() {
    let args = cli::Args::parse();
    let bench: Benchmark = args
        .positional
        .first()
        .map(|name| {
            name.parse::<Benchmark>().unwrap_or_else(|e| {
                cli::exit_usage(&e.to_string(), "usage: diag [BENCH] [common flags]")
            })
        })
        .unwrap_or(Benchmark::HtH);
    let harness = Harness::new(args.scale, args.sweep_options());
    let cfg = GpuConfig::fermi_15core();

    // Prefetch the five optimal-concurrency cells in one parallel sweep.
    let spec = ExperimentSpec::from_cells(
        TmSystem::ALL
            .iter()
            .map(|&s| {
                let c = cfg
                    .clone()
                    .with_concurrency(bench::optimal_concurrency(s, bench));
                CellSpec::new(bench, args.scale, s, c)
            })
            .collect(),
    );
    harness.prefetch(&spec);

    println!("benchmark {bench} ({:?})", args.scale);
    println!(
        "{:<10} {:>9} {:>8} {:>8} {:>8} {:>9} {:>9} {:>8} {:>7} {:>7} {:>7}",
        "system",
        "cycles",
        "commits",
        "aborts",
        "silent",
        "tx_exec",
        "tx_wait",
        "xbarKB",
        "mdacc",
        "stallmx",
        "l2hit"
    );
    for system in TmSystem::ALL {
        let m = harness.run_optimal(bench, system, &cfg);
        let mdacc = match m.mean_metadata_access_cycles {
            Some(v) => format!("{v:.2}"),
            None => "-".into(),
        };
        println!(
            "{:<10} {:>9} {:>8} {:>8} {:>8} {:>9} {:>9} {:>8} {:>7} {:>7} {:>6.2}",
            system.label(),
            m.cycles,
            m.commits,
            m.aborts,
            m.silent_commits,
            m.tx_exec_cycles,
            m.tx_wait_cycles,
            m.xbar_bytes / 1024,
            mdacc,
            m.max_stall_occupancy,
            m.llc_hit_rate,
        );
        if m.metadata_latency.count() > 0 {
            println!(
                "    metadata latency p50={} p95={} p99={} max={} (n={})",
                m.metadata_latency.p50(),
                m.metadata_latency.p95(),
                m.metadata_latency.p99(),
                m.metadata_latency.max().unwrap_or(0),
                m.metadata_latency.count()
            );
        }
        for (k, v) in &m.xbar_by_category {
            print!("    {k}={v} ");
        }
        println!();
        println!(
            "    access_rt={:.1} rounds/region={:.2} queued={} overflow_peak={} vu_qdelay={:.1} data_lat={:.1}",
            m.mean_access_rt, m.mean_rounds_per_region, m.stall_queued, m.metadata_overflow_peak,
            m.mean_vu_queue_delay, m.mean_data_latency
        );
        if m.getm_aborts_load + m.getm_aborts_store > 0 {
            println!(
                "    getm aborts: load={} store={} approx={} max_cause={}",
                m.getm_aborts_load, m.getm_aborts_store, m.getm_aborts_approx, m.getm_max_cause_ts
            );
        }
        if m.degraded {
            println!(
                "    watchdog: DEGRADED run (backoff escalations={}, serialized commits={}) \
                 — timing reflects the forward-progress fallback, not free-running execution",
                m.watchdog_escalations, m.serialized_commits
            );
        }
    }
}
