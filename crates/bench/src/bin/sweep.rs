//! Generic crash-safe sweep driver: run an arbitrary benchmarks x systems
//! grid with the fault-isolated executor and print one deterministic row
//! per completed cell.
//!
//! ```text
//! cargo run -p bench --release --bin sweep -- [BENCH ...] \
//!     [--system NAME]... [--all-systems] [--tiny] [common flags]
//! ```
//!
//! With no positionals the whole benchmark suite runs under GETM; `--tiny`
//! sweeps the small test machine instead of the 15-core Fermi. All the
//! shared flags apply — notably `--failures collect-all` to survive
//! poisoned cells, `--cell-timeout S` to bound runaway ones, and
//! `--resume` to continue a killed sweep from its journal (completed
//! cells are recalled from the result cache; the final stdout is
//! byte-identical to an uninterrupted run's). Row format:
//!
//! ```text
//! label  cycles  commits  aborts  degraded
//! ```
//!
//! Rows go to stdout in spec order; progress and failures go to stderr.
//! Exit status is nonzero if any cell failed or was skipped.

use bench::cli::{exit_usage, USAGE};
use bench::grid::{render_report, GridArgs, GRID_USAGE};
use gputm::sweep::run_sweep_report;
use std::process::ExitCode;

fn main() -> ExitCode {
    // Strip the grid flags, hand the rest to the shared parser.
    let usage = format!("{GRID_USAGE}\n\n{USAGE}");
    let (grid, rest) =
        GridArgs::strip_from(std::env::args().skip(1)).unwrap_or_else(|e| exit_usage(&e, &usage));
    let args = bench::cli::Args::parse_from(rest).unwrap_or_else(|e| exit_usage(&e, &usage));
    let spec = grid
        .build_spec(&args)
        .unwrap_or_else(|e| exit_usage(&e, &usage));

    let report = run_sweep_report(&spec, &args.sweep_options());
    render_report(&report, spec.len())
}
