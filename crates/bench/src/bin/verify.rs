//! Certification harness: run workloads with the transaction-history
//! recorder attached and the serializability/opacity oracle applied,
//! printing one verdict row per workload x system.
//!
//! ```text
//! cargo run -p bench --release --bin verify -- [BENCH|SHAPE ...] \
//!     [--all-systems] [--system NAME] [--tiny] [--fuzz] [--seed N] \
//!     [--trace PATH] [--paper-scale]
//! ```
//!
//! With no positionals the whole benchmark suite runs; `--fuzz` adds the
//! adversarial fuzz shapes; positionals filter by benchmark or shape
//! name. `--system` picks one system (repeatable), `--all-systems` runs
//! every system in the paper's lineup. `--tiny` certifies on the small
//! test machine instead of the 15-core Fermi (what CI's verify-smoke
//! uses). On the first violation `--trace PATH` exports the minimized
//! counterexample as a Chrome/Perfetto trace. Exit status is nonzero if
//! any cell fails certification.

use bench::cli::exit_usage;
use gputm::prelude::*;
use gputm::verify::export_counterexample;
use std::path::Path;
use std::process::ExitCode;
use workloads::fuzz::{Fuzz, FuzzShape};

const VERIFY_USAGE: &str = "\
usage: verify [BENCH|SHAPE ...] [--all-systems] [--system NAME] [--tiny]
              [--fuzz] [--seed N] [common flags]";

/// The full usage text: verify's own flags, then the common ones.
fn usage() -> String {
    format!("{VERIFY_USAGE}\n\n{}", bench::cli::USAGE)
}

/// One workload to certify: either a suite benchmark (run through
/// [`CellSpec`]) or a fuzz shape (run through [`Sim`] directly).
enum Subject {
    Bench(Benchmark),
    Fuzz(FuzzShape, u64),
}

impl Subject {
    fn label(&self) -> String {
        match self {
            Subject::Bench(b) => b.name().to_string(),
            Subject::Fuzz(s, seed) => format!("fuzz/{s}#{seed:x}"),
        }
    }

    fn run(
        &self,
        system: TmSystem,
        scale: workloads::suite::Scale,
        tiny: bool,
    ) -> Result<VerifiedRun, SimError> {
        let base = if tiny {
            GpuConfig::tiny_test()
        } else {
            GpuConfig::fermi_15core()
        };
        match self {
            Subject::Bench(b) => {
                let cfg = base.with_concurrency(bench::optimal_concurrency(system, *b));
                CellSpec::new(*b, scale, system, cfg).run_verified()
            }
            Subject::Fuzz(shape, seed) => {
                let threads = if tiny { 24 } else { 96 };
                let w = Fuzz::new(*shape, threads, 3, *seed);
                let out = Sim::new(&base)
                    .system(system)
                    .run_with(&w, &RunOptions::default().verify(true))?;
                Ok(VerifiedRun {
                    metrics: out.metrics,
                    verdict: out.verdict.expect("verified runs always carry a verdict"),
                })
            }
        }
    }
}

fn main() -> ExitCode {
    // Strip the verify-specific flags, hand the rest to the shared parser.
    let mut all_systems = false;
    let mut tiny = false;
    let mut fuzz = false;
    let mut seed = 0xF0_57u64;
    let mut systems: Vec<TmSystem> = Vec::new();
    let mut rest: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all-systems" => all_systems = true,
            "--tiny" => tiny = true,
            "--fuzz" => fuzz = true,
            "--system" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| exit_usage("--system needs a value", &usage()));
                let system = v.parse::<TmSystem>();
                systems.push(system.unwrap_or_else(|e| exit_usage(&e.to_string(), &usage())));
            }
            "--seed" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| exit_usage("--seed needs a value", &usage()));
                seed = v.parse().unwrap_or_else(|e| {
                    exit_usage(&format!("--seed needs an integer: {e}"), &usage())
                });
            }
            other => rest.push(other.to_string()),
        }
    }
    let args = bench::cli::Args::parse_from(rest).unwrap_or_else(|e| exit_usage(&e, &usage()));

    if all_systems {
        systems = TmSystem::ALL.to_vec();
    } else if systems.is_empty() {
        systems = vec![TmSystem::Getm];
    }

    let mut subjects: Vec<Subject> = Vec::new();
    let explicit = !args.positional.is_empty();
    for name in &args.positional {
        if let Ok(b) = name.parse::<Benchmark>() {
            subjects.push(Subject::Bench(b));
        } else if let Ok(s) = name.parse::<FuzzShape>() {
            subjects.push(Subject::Fuzz(s, seed));
        } else {
            exit_usage(
                &format!("unknown benchmark or fuzz shape {name:?}"),
                &usage(),
            );
        }
    }
    if !explicit {
        subjects.extend(Benchmark::ALL.into_iter().map(Subject::Bench));
    }
    if fuzz {
        subjects.extend(FuzzShape::ALL.into_iter().map(|s| Subject::Fuzz(s, seed)));
    }

    let mut failures = 0usize;
    let mut exported = false;
    for subject in &subjects {
        for &system in &systems {
            let run = subject
                .run(system, args.scale, tiny)
                .unwrap_or_else(|e| panic!("{} under {system}: {e}", subject.label()));
            let status = if run.verdict.ok() { "ok  " } else { "FAIL" };
            println!(
                "{status} {:<14} {:<9} {}",
                subject.label(),
                system.label(),
                run.verdict.summary()
            );
            if !run.verdict.ok() {
                failures += 1;
                if let (Some(path), false) = (&args.trace, exported) {
                    write_counterexample(&run, path);
                    exported = true;
                }
            }
        }
    }

    if failures > 0 {
        eprintln!("verify: {failures} cell(s) FAILED certification");
        ExitCode::FAILURE
    } else {
        println!(
            "verify: all {} cell(s) certified",
            subjects.len() * systems.len()
        );
        ExitCode::SUCCESS
    }
}

fn write_counterexample(run: &VerifiedRun, path: &Path) {
    let v = run
        .verdict
        .violations
        .first()
        .expect("failed verdict has a violation");
    let mut out = Vec::new();
    export_counterexample(v, &mut out).expect("in-memory export cannot fail");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    eprintln!("verify: counterexample trace written to {}", path.display());
}
