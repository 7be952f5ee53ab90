//! Wall-clock gate for the engine hot loop.
//!
//! Each row runs a workload with the engine walking every cycle and with
//! idle skip-ahead, interleaved in one process — walk, skip, walk, skip
//! and so on for [`PAIRS`] pairs — asserts every pair's metrics are
//! identical, and reports the skip path's speedup as the median of the
//! per-pair walk/skip ratios. Pairing the two paths back to back means a
//! slow spell on a shared host slows both halves of a pair, and the
//! median drops the pairs it hit unevenly.
//!
//! The committed baseline (`crates/bench/BENCH_engine.json`) stores the
//! speedups this machine class is expected to reach. Rows gate on
//! *ratios* against the recorded baseline, which are stable across host
//! speeds:
//!
//! ```text
//! cargo run -p bench --release --bin enginebench                  # print
//! cargo run -p bench --release --bin enginebench -- --write FILE  # rebase
//! cargo run -p bench --release --bin enginebench -- --check FILE  # gate
//! ```
//!
//! `--check` fails (exit 1) if any speedup drops below 80% of the
//! baseline's. The slack absorbs scheduler noise on shared CI hosts; a
//! genuine regression collapses the ratio far below any plausible jitter.

use bench::cli::exit_usage;
use bench::idle::IdleHeavy;
use gputm::config::{GpuConfig, TmSystem};
use gputm::engine::Engine;
use gputm::metrics::Metrics;
use std::time::Instant;
use workloads::suite::{Benchmark, Scale};
use workloads::Workload;

/// Walk/skip pairs per row. Odd, so the median is one pair's ratio.
const PAIRS: usize = 11;

/// One run's wall-clock in ms, plus the metrics it produced.
fn time_run(w: &dyn Workload, cfg: &GpuConfig, idle_skip: bool) -> (Metrics, f64) {
    let mut e = Engine::new(w, TmSystem::Getm, cfg).expect("engine builds");
    e.set_idle_skip(idle_skip);
    let t0 = Instant::now();
    let m = e.run().expect("run completes");
    (m, t0.elapsed().as_secs_f64() * 1e3)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

struct Row {
    name: &'static str,
    walk_ms: f64,
    skip_ms: f64,
    speedup: f64,
}

/// Times [`PAIRS`] walk/skip pairs of `w`; the row holds the median walk
/// and skip times and the median of the pairs' ratios.
fn measure(name: &'static str, w: &dyn Workload, cfg: &GpuConfig) -> Row {
    let (mut walk, mut skip, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        let (m_walk, walk_ms) = time_run(w, cfg, false);
        let (m_skip, skip_ms) = time_run(w, cfg, true);
        assert_eq!(
            m_walk, m_skip,
            "{name}: loop paths disagree on metrics — refusing to benchmark a broken engine"
        );
        walk.push(walk_ms);
        skip.push(skip_ms);
        ratio.push(walk_ms / skip_ms);
    }
    Row {
        name,
        walk_ms: median(walk),
        skip_ms: median(skip),
        speedup: median(ratio),
    }
}

fn render(rows: &[Row]) -> String {
    let mut s = String::from("{\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"walk_ms\": {:.3}, \"skip_ms\": {:.3}, \"speedup\": {:.3}}}{}\n",
            r.name,
            r.walk_ms,
            r.skip_ms,
            r.speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Pulls `"speedup": <num>` out of the baseline row named `name`. The
/// baseline is written only by `--write` above, so a two-key scan is all
/// the parsing it needs.
fn baseline_speedup(json: &str, name: &str) -> Option<f64> {
    let row = json
        .split('{')
        .find(|s| s.contains(&format!("\"name\": \"{name}\"")))?;
    let tail = row.split("\"speedup\":").nth(1)?;
    tail.trim().split([',', '}']).next()?.trim().parse().ok()
}

const USAGE: &str = "usage: enginebench [--write FILE | --check FILE]";

/// What to do with the measured rows.
enum Mode {
    Print,
    Write(String),
    Check(String),
}

fn main() {
    // Parse the flags before measuring: a bad command line exits at once,
    // with nothing on stdout.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match args.first().map(String::as_str) {
        None => Mode::Print,
        Some(flag @ ("--write" | "--check")) => {
            let path = args
                .get(1)
                .cloned()
                .unwrap_or_else(|| exit_usage(&format!("{flag} needs a FILE"), USAGE));
            if flag == "--write" {
                Mode::Write(path)
            } else {
                Mode::Check(path)
            }
        }
        Some(other) => exit_usage(&format!("unknown flag {other:?}"), USAGE),
    };
    let cfg = GpuConfig::tiny_test();
    let atm = Benchmark::Atm.build(Scale::Fast);
    let idle = IdleHeavy {
        threads: 32,
        rounds: 40,
        spin: 5000,
    };
    // 150 transactions a thread: over 100 ms a run on either path, so
    // timer and scheduler jitter stay small against the ratio.
    let fz = workloads::fuzz::Fuzz::new(workloads::fuzz::FuzzShape::SingleCell, 32, 150, 7);
    let rows = vec![
        measure("atm-contended", atm.as_ref(), &cfg),
        measure("fuzz-singlecell", &fz, &cfg),
        measure("idle-sparse", &idle, &cfg),
    ];
    for r in &rows {
        println!(
            "{:<16} walk {:>9.3} ms   skip {:>9.3} ms   speedup {:>6.2}x",
            r.name, r.walk_ms, r.skip_ms, r.speedup
        );
    }

    match mode {
        Mode::Print => {}
        Mode::Write(path) => {
            std::fs::write(&path, render(&rows)).expect("write baseline");
            println!("baseline written to {path}");
        }
        Mode::Check(path) => {
            let json = std::fs::read_to_string(&path).expect("read baseline");
            let mut failed = false;
            for r in &rows {
                let base = baseline_speedup(&json, r.name)
                    .unwrap_or_else(|| panic!("baseline {path} has no row named {}", r.name));
                let floor = base * 0.8;
                let ok = r.speedup >= floor;
                println!(
                    "{:<16} baseline {:>6.2}x   floor {:>6.2}x   now {:>6.2}x   {}",
                    r.name,
                    base,
                    floor,
                    r.speedup,
                    if ok { "ok" } else { "REGRESSED" }
                );
                failed |= !ok;
            }
            if failed {
                eprintln!("engine loop speedup regressed below 80% of baseline");
                std::process::exit(1);
            }
        }
    }
}
