//! Reproduces one figure or table of the paper's evaluation, or all of
//! them; see `bench::figures` for the experiment definitions and
//! `bench::cli` for the shared flags.
//!
//! ```text
//! cargo run -p bench --release --bin fig -- <id> [--paper-scale] [--jobs N] ...
//! cargo run -p bench --release --bin fig -- all [--paper-scale] [--jobs N] ...
//! ```
//!
//! `all` runs the union of every figure's cells as one deduplicated,
//! disk-cached sweep, then prints each figure under a `####` banner; a
//! rerun with a warm cache simulates nothing.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = bench::cli::Args::parse();
    let figs = match args.positional.as_slice() {
        [id] => bench::figures::select(id),
        _ => Err("expected exactly one figure id".to_string()),
    };
    match figs {
        Ok(figs) => {
            bench::figures::run(figs, &bench::Harness::from_args(args));
            ExitCode::SUCCESS
        }
        Err(e) => {
            let ids: Vec<&str> = bench::figures::ALL.iter().map(|f| f.id).collect();
            let usage = format!("usage: fig <{}|all> [common flags]", ids.join("|"));
            bench::cli::exit_usage(&e, &usage)
        }
    }
}
