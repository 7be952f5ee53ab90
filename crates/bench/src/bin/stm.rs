//! STM-vs-HTM comparison harness: run the same backend-neutral
//! transactional programs on the cycle-level GPU simulator (hardware-TM
//! models) and on the host-threaded TL2 software TM, printing one
//! throughput/abort-rate row per program x backend, every row certified by
//! the serializability/opacity oracle.
//!
//! ```text
//! cargo run -p bench --release --bin stm -- [BENCH|SHAPE ...] \
//!     [--threads N] [--fuzz] [--seed N] [--tiny] [--gpu fermi|volta] \
//!     [--system NAME] [--all-systems]
//! ```
//!
//! With no positionals the first-wave suite programs (HT-H, ATM) run;
//! positionals filter by benchmark or fuzz-shape name and `--fuzz` adds
//! the adversarial fuzz shapes. `--tiny` substitutes small instances (what
//! CI's stm-smoke uses). `--threads` sets the TL2 worker count.
//! `--system` picks the simulated system(s) to compare against (default
//! GETM) and `--gpu volta` swaps the simulated machine for the
//! Volta-class memory tier (sectored L1, hashed banked LLC, HBM timing). Exit status is nonzero if any row fails certification or its
//! workload invariant check.
//!
//! Apples-to-apples caveat: the simulator's throughput column is
//! commits-per-simulated-kilocycle on a modelled GPU; TL2's is
//! commits-per-wall-millisecond on the host. The comparable columns are
//! the abort rates and the oracle verdicts, which is the point — same
//! programs, eager-HTM vs lazy-STM conflict detection, one oracle.

use bench::cli::exit_usage;
use gputm::prelude::*;
use std::process::ExitCode;
use workloads::atm::Atm;
use workloads::fuzz::{Fuzz, FuzzShape};
use workloads::hashtable::HashTable;

const STM_USAGE: &str = "\
usage: stm [BENCH|SHAPE ...] [--threads N] [--fuzz] [--seed N] [--tiny]
           [--gpu fermi|volta] [--system NAME] [--all-systems]";

/// One program to run on every backend.
struct Subject {
    label: String,
    prog: TxProgram,
}

fn bench_subject(b: Benchmark, tiny: bool, seed: u64) -> Subject {
    let prog = if tiny {
        match b {
            Benchmark::HtH => HashTable::new("HT-H", 384, 384, seed).tx_program(),
            Benchmark::HtM => HashTable::new("HT-M", 3_840, 384, seed).tx_program(),
            Benchmark::HtL => HashTable::new("HT-L", 38_400, 384, seed).tx_program(),
            Benchmark::Atm => Atm::new(4_096, 384, 2, seed).tx_program(),
            other => not_a_program(other),
        }
    } else {
        b.tx_program(Scale::Fast)
            .unwrap_or_else(|| not_a_program(b))
    };
    Subject {
        label: b.name().to_string(),
        prog,
    }
}

fn not_a_program(b: Benchmark) -> ! {
    exit_usage(
        &format!("{b} is not expressible as a TxProgram yet"),
        STM_USAGE,
    )
}

fn fuzz_subject(shape: FuzzShape, tiny: bool, seed: u64) -> Subject {
    let threads = if tiny { 24 } else { 96 };
    Subject {
        label: format!("fuzz/{shape}#{seed:x}"),
        prog: Fuzz::new(shape, threads, 3, seed).tx_program(),
    }
}

struct Row {
    failed: bool,
}

fn run_row(subject: &Subject, backend: &dyn TmBackend, opts: &BackendOptions) -> Row {
    let out = backend
        .execute(&subject.prog, opts)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", subject.label, backend.name()));
    let verdict = out
        .verdict(&subject.prog, backend.guarantees_opacity())
        .expect("recording runs always carry a history");
    let check = out.check(&subject.prog);
    let m = &out.metrics;
    // Simulated backends report commits per simulated kilocycle; TL2
    // reports commits per host millisecond. Labelled so rows can't be
    // misread as one unit.
    let (thr, unit) = if backend.name().contains("sim") {
        (m.commits as f64 * 1000.0 / m.cycles.max(1) as f64, "c/kcyc")
    } else {
        (
            m.commits as f64 / out.wall.as_secs_f64().max(1e-9) / 1000.0,
            "c/ms  ",
        )
    };
    let failed = !verdict.ok() || check.is_err();
    let status = if failed { "FAIL" } else { "ok  " };
    println!(
        "{status} {:<16} {:<18} {:>8} commits {:>8} aborts {:>7.1} ab/1k {:>9.2} {unit} {}",
        subject.label,
        backend.name(),
        m.commits,
        m.aborts,
        m.aborts_per_1k_commits(),
        thr,
        verdict.summary(),
    );
    if let Err(e) = check {
        println!("     {:<16} workload invariant FAILED: {e}", subject.label);
    }
    Row { failed }
}

fn main() -> ExitCode {
    let mut threads = 8usize;
    let mut fuzz = false;
    let mut tiny = false;
    let mut seed = 0x57_11u64;
    let mut systems: Vec<TmSystem> = Vec::new();
    let mut all_systems = false;
    let mut volta = false;
    let mut positional: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| exit_usage(&format!("{flag} needs a value"), STM_USAGE))
        };
        match arg.as_str() {
            "--threads" => {
                let v = value("--threads");
                threads = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| {
                        exit_usage(
                            &format!("--threads needs a positive integer, got {v:?}"),
                            STM_USAGE,
                        )
                    });
            }
            "--fuzz" => fuzz = true,
            "--tiny" => tiny = true,
            "--seed" => {
                seed = value("--seed").parse().unwrap_or_else(|e| {
                    exit_usage(&format!("--seed needs an integer: {e}"), STM_USAGE)
                });
            }
            "--system" => {
                let system = value("--system").parse::<TmSystem>();
                systems.push(system.unwrap_or_else(|e| exit_usage(&e.to_string(), STM_USAGE)));
            }
            "--all-systems" => all_systems = true,
            "--gpu" => {
                volta = match value("--gpu").to_ascii_lowercase().as_str() {
                    "fermi" => false,
                    "volta" => true,
                    other => exit_usage(
                        &format!("unknown gpu {other:?} (known: fermi, volta)"),
                        STM_USAGE,
                    ),
                };
            }
            other if other.starts_with("--") => {
                exit_usage(&format!("unknown flag {other:?}"), STM_USAGE)
            }
            other => positional.push(other.to_string()),
        }
    }
    if all_systems {
        systems = TmSystem::ALL.to_vec();
    } else if systems.is_empty() {
        systems = vec![TmSystem::Getm];
    }

    let mut subjects: Vec<Subject> = Vec::new();
    for name in &positional {
        if let Ok(b) = name.parse::<Benchmark>() {
            subjects.push(bench_subject(b, tiny, seed));
        } else if let Ok(s) = name.parse::<FuzzShape>() {
            subjects.push(fuzz_subject(s, tiny, seed));
        } else {
            exit_usage(
                &format!("unknown benchmark or fuzz shape {name:?}"),
                STM_USAGE,
            );
        }
    }
    if positional.is_empty() {
        subjects.push(bench_subject(Benchmark::HtH, tiny, seed));
        subjects.push(bench_subject(Benchmark::Atm, tiny, seed));
    }
    if fuzz {
        subjects.extend(
            FuzzShape::ALL
                .into_iter()
                .map(|s| fuzz_subject(s, tiny, seed)),
        );
    }

    let cfg = match (tiny, volta) {
        (true, false) => GpuConfig::tiny_test(),
        (true, true) => GpuConfig::tiny_volta(),
        (false, false) => GpuConfig::fermi_15core(),
        (false, true) => GpuConfig::volta_80core(),
    };
    let mut backends: Vec<Box<dyn TmBackend>> = systems
        .iter()
        .map(|&s| Box::new(SimBackend::new(cfg.clone(), s)) as Box<dyn TmBackend>)
        .collect();
    backends.push(Box::new(Tl2Backend::new()));

    let opts = BackendOptions::default()
        .record_history(true)
        .threads(threads)
        .seed(seed);

    let mut failures = 0usize;
    let mut rows = 0usize;
    for subject in &subjects {
        for backend in &backends {
            if run_row(subject, backend.as_ref(), &opts).failed {
                failures += 1;
            }
            rows += 1;
        }
    }

    if failures > 0 {
        eprintln!("stm: {failures} of {rows} row(s) FAILED certification");
        ExitCode::FAILURE
    } else {
        println!("stm: all {rows} row(s) certified");
        ExitCode::SUCCESS
    }
}
