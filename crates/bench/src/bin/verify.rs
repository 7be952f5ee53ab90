//! Certification harness: run every subject with the transaction-history
//! recorder attached and the serializability/opacity oracle applied, on
//! each selected simulated TM system and — whenever the subject is a
//! backend-neutral [`TxProgram`] — on the host-threaded TL2 STM, printing
//! one row per run.
//!
//! ```text
//! cargo run -p bench --release --bin verify -- [BENCH|SHAPE ...] \
//!     [--fuzz] [--seed N] [--threads N] [--all-systems] [--system NAME] \
//!     [--tiny] [--gpu fermi|volta] [--trace PATH] [--paper-scale]
//! ```
//!
//! Subjects are the positional benchmark or fuzz-shape names, else the
//! whole benchmark suite; `--fuzz` adds every adversarial fuzz shape,
//! seeded by `--seed` (default 61527). The grid flags are `sweep`'s:
//! `--system` picks a simulated system (repeatable, default GETM),
//! `--all-systems` runs the paper's whole lineup, and `--tiny`/`--gpu`
//! pick the simulated machine. Benchmarks run at their optimal
//! transactional concurrency ([`bench::optimal_concurrency`]), fuzz shapes
//! at the preset's limit. `--threads` sets TL2's worker count (default 8).
//!
//! Row format: status, subject, backend, commits, aborts, aborts per 1K
//! commits, throughput with its unit, and the verdict summary; a failed
//! workload invariant adds a line below its row. The simulator's
//! throughput is commits per simulated kilocycle, TL2's commits per host
//! millisecond: compare abort rates and verdicts across backends, not
//! throughput. On the first failing row `--trace PATH` exports its
//! minimized counterexample as a Chrome/Perfetto trace. Exit status is
//! nonzero if any row fails.

use bench::cli::{exit_usage, USAGE};
use bench::grid::{GridArgs, GRID_USAGE};
use gputm::prelude::*;
use gputm::verify::export_counterexample;
use std::process::ExitCode;
use workloads::fuzz::{Fuzz, FuzzShape};

const VERIFY_USAGE: &str = "\
usage: verify [BENCH|SHAPE ...] [--fuzz] [--seed N] [--threads N]
              [grid flags] [common flags]
  --fuzz             add every adversarial fuzz shape to the subjects
  --seed N           fuzz-shape and TL2 seed (default 61527)
  --threads N        TL2 worker threads (default 8)";

/// One workload to certify, built once and run on every backend.
struct Subject {
    label: String,
    /// The suite benchmark, whose simulated rows run at its optimal
    /// concurrency; `None` for a fuzz shape, which runs at the preset's.
    bench: Option<Benchmark>,
    body: Body,
}

enum Body {
    /// Runs on the simulator and on TL2.
    Program(TxProgram),
    /// Not expressed as a [`TxProgram`] yet: simulator rows only.
    Workload(Box<dyn Workload>),
}

impl Subject {
    fn bench(b: Benchmark, scale: Scale) -> Self {
        Subject {
            label: b.name().to_string(),
            bench: Some(b),
            body: match b.tx_program(scale) {
                Some(p) => Body::Program(p),
                None => Body::Workload(b.build(scale)),
            },
        }
    }

    fn fuzz(shape: FuzzShape, tiny: bool, seed: u64) -> Self {
        let threads = if tiny { 24 } else { 96 };
        Subject {
            label: format!("fuzz/{shape}#{seed:x}"),
            bench: None,
            body: Body::Program(Fuzz::new(shape, threads, 3, seed).tx_program()),
        }
    }

    fn workload(&self) -> &dyn Workload {
        match &self.body {
            Body::Program(p) => p.workload(),
            Body::Workload(w) => w.as_ref(),
        }
    }

    fn program(&self) -> Option<&TxProgram> {
        match &self.body {
            Body::Program(p) => Some(p),
            Body::Workload(_) => None,
        }
    }
}

/// One certified run, whatever its backend.
struct Row {
    metrics: Metrics,
    verdict: Verdict,
    /// Throughput and its unit.
    throughput: (f64, &'static str),
}

fn sim_row(subject: &Subject, system: TmSystem, base: &GpuConfig) -> Result<Row, SimError> {
    let cfg = match subject.bench {
        Some(b) => base
            .clone()
            .with_concurrency(bench::optimal_concurrency(system, b)),
        None => base.clone(),
    };
    let out = Sim::new(&cfg)
        .system(system)
        .run_with(subject.workload(), &RunOptions::default().verify(true))?;
    // A run the engine stopped on a protocol violation has no metrics;
    // its failing verdict says why.
    let metrics = out.metrics.unwrap_or_default();
    let per_kcyc = metrics.commits as f64 * 1000.0 / metrics.cycles.max(1) as f64;
    Ok(Row {
        metrics,
        verdict: out.verdict.expect("verified runs always carry a verdict"),
        throughput: (per_kcyc, "c/kcyc"),
    })
}

fn tl2_row(prog: &TxProgram, tl2: &Tl2Backend, opts: &BackendOptions) -> Result<Row, BackendError> {
    let out = tl2.execute(prog, opts)?;
    let verdict = out
        .verdict(prog, tl2.guarantees_opacity())
        .expect("recording runs always carry a history");
    let per_ms = out.metrics.commits as f64 / out.wall.as_secs_f64().max(1e-9) / 1000.0;
    Ok(Row {
        metrics: out.metrics,
        verdict,
        throughput: (per_ms, "c/ms  "),
    })
}

fn main() -> ExitCode {
    let usage = format!("{VERIFY_USAGE}\n\n{GRID_USAGE}\n\n{USAGE}");
    // Strip verify's own flags, then the grid flags, and hand the rest to
    // the shared parser.
    let mut fuzz = false;
    let mut seed = 61_527u64;
    let mut threads = 8usize;
    let mut rest: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| exit_usage(&format!("{flag} needs a value"), &usage))
        };
        match arg.as_str() {
            "--fuzz" => fuzz = true,
            "--seed" => {
                let v = value("--seed");
                seed = v.parse().unwrap_or_else(|_| {
                    exit_usage(&format!("--seed needs an integer, got {v:?}"), &usage)
                });
            }
            "--threads" => {
                let v = value("--threads");
                threads = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| {
                        exit_usage(
                            &format!("--threads needs a positive integer, got {v:?}"),
                            &usage,
                        )
                    });
            }
            _ => rest.push(arg),
        }
    }
    let (grid, rest) = GridArgs::strip_from(rest).unwrap_or_else(|e| exit_usage(&e, &usage));
    let args = bench::cli::Args::parse_from(rest).unwrap_or_else(|e| exit_usage(&e, &usage));

    let mut subjects: Vec<Subject> = Vec::new();
    for name in &args.positional {
        if let Ok(b) = name.parse::<Benchmark>() {
            subjects.push(Subject::bench(b, args.scale));
        } else if let Ok(s) = name.parse::<FuzzShape>() {
            subjects.push(Subject::fuzz(s, grid.tiny, seed));
        } else {
            exit_usage(&format!("unknown benchmark or fuzz shape {name:?}"), &usage);
        }
    }
    if args.positional.is_empty() {
        subjects.extend(Benchmark::ALL.map(|b| Subject::bench(b, args.scale)));
    }
    if fuzz {
        subjects.extend(FuzzShape::ALL.map(|s| Subject::fuzz(s, grid.tiny, seed)));
    }

    let systems = grid.systems();
    let base = grid.base_config();
    let tl2 = Tl2Backend::new();
    let tl2_opts = BackendOptions::default()
        .record_history(true)
        .threads(threads)
        .seed(seed);
    let (mut rows, mut failures, mut trace) = (0usize, 0usize, args.trace);
    let mut report = |label: &str, backend: &str, row: Result<Row, String>| {
        rows += 1;
        let row = match row {
            Ok(row) => row,
            Err(e) => {
                failures += 1;
                println!("FAIL {label:<16} {backend:<18} run failed: {e}");
                return;
            }
        };
        let m = &row.metrics;
        let invariant = m.check.clone().unwrap_or(Ok(()));
        let failed = !row.verdict.ok() || invariant.is_err();
        failures += usize::from(failed);
        let (thr, unit) = row.throughput;
        println!(
            "{} {label:<16} {backend:<18} {:>8} commits {:>8} aborts {:>7.1} ab/1k {thr:>9.2} {unit} {}",
            if failed { "FAIL" } else { "ok  " },
            m.commits,
            m.aborts,
            m.aborts_per_1k_commits(),
            row.verdict.summary(),
        );
        if let Err(e) = invariant {
            println!("     {label:<16} workload invariant FAILED: {e}");
        }
        if let (Some(path), Some(v)) = (&trace, row.verdict.violations.first()) {
            let mut out = Vec::new();
            export_counterexample(v, &mut out).expect("in-memory export cannot fail");
            std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            eprintln!("verify: counterexample trace written to {}", path.display());
            trace = None;
        }
    };
    for subject in &subjects {
        for &system in &systems {
            let row = sim_row(subject, system, &base).map_err(|e| e.to_string());
            report(&subject.label, &format!("{system} (sim)"), row);
        }
        if let Some(prog) = subject.program() {
            let row = tl2_row(prog, &tl2, &tl2_opts).map_err(|e| e.to_string());
            report(&subject.label, &tl2.name(), row);
        }
    }

    if failures > 0 {
        eprintln!("verify: {failures} of {rows} row(s) FAILED certification");
        ExitCode::FAILURE
    } else {
        println!("verify: all {rows} row(s) certified");
        ExitCode::SUCCESS
    }
}
