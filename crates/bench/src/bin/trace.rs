//! Standalone tracer: run one benchmark under one system with event
//! tracing on, and dump every view of the capture.
//!
//! ```text
//! cargo run -p bench --release --bin trace -- [BENCH] [SYSTEM] \
//!     [--trace PATH] [--probe METRIC] [--paper-scale]
//! ```
//!
//! `BENCH` defaults to HT-H and `SYSTEM` to GETM. Without `--trace` the
//! Chrome JSON goes to `target/trace.json`. The flamegraph-style text
//! summary and the probe time series (all four probes unless `--probe`
//! narrows it) print to stdout.

use bench::traceview;
use gputm::prelude::*;
use std::path::PathBuf;

const TRACE_USAGE: &str =
    "usage: trace [BENCH] [SYSTEM] [--trace PATH] [--probe METRIC] [common flags]";

fn parse_system(name: &str) -> TmSystem {
    TmSystem::ALL
        .into_iter()
        .find(|s| s.label().eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            let known: Vec<&str> = TmSystem::ALL.iter().map(|s| s.label()).collect();
            let e = format!("unknown system {name:?} (known: {})", known.join(", "));
            bench::cli::exit_usage(&e, TRACE_USAGE)
        })
}

fn main() {
    let args = bench::cli::Args::parse();
    let bench: Benchmark = args
        .positional
        .first()
        .map(|name| {
            name.parse::<Benchmark>()
                .unwrap_or_else(|e| bench::cli::exit_usage(&e.to_string(), TRACE_USAGE))
        })
        .unwrap_or(Benchmark::HtH);
    let system = args
        .positional
        .get(1)
        .map(|s| parse_system(s))
        .unwrap_or(TmSystem::Getm);
    let path = args
        .trace
        .clone()
        .unwrap_or_else(|| PathBuf::from("target").join("trace.json"));

    let cfg = GpuConfig::fermi_15core().with_concurrency(bench::optimal_concurrency(system, bench));
    let cell = CellSpec::new(bench, args.scale, system, cfg);
    eprintln!("trace: running {} with tracing on...", cell.label());
    let (bus, metrics) = traceview::capture(&cell, 1 << 22);

    traceview::write_chrome(&bus, &cell, &path);
    println!(
        "{}: {} cycles, {} commits, {} aborts",
        cell.label(),
        metrics.cycles,
        metrics.commits,
        metrics.aborts
    );
    if metrics.metadata_latency.count() > 0 {
        println!(
            "metadata latency p50={} p95={} p99={} max={} cycles (n={})",
            metrics.metadata_latency.p50(),
            metrics.metadata_latency.p95(),
            metrics.metadata_latency.p99(),
            metrics.metadata_latency.max().unwrap_or(0),
            metrics.metadata_latency.count()
        );
    }

    let mut flame = Vec::new();
    traceview::write_flame(&bus, &mut flame).expect("in-memory export cannot fail");
    println!("\n{}", String::from_utf8_lossy(&flame));

    match &args.probe {
        Some(p) => traceview::print_probe(&bus, p),
        None => {
            for p in traceview::PROBES {
                traceview::print_probe(&bus, p);
            }
        }
    }
}
