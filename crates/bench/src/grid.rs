//! Grid selection for the `sweep` and `verify` binaries, and report
//! rendering for `sweep`.
//!
//! The grid vocabulary — positional benchmark names, `--system NAME`
//! (repeatable), `--all-systems`, `--tiny`, `--gpu` — is parsed here and
//! nowhere else. It turns into a system list and a base machine, which
//! `sweep` crosses into an [`ExperimentSpec`] and `verify` runs subject by
//! subject. A finished [`SweepReport`] renders as one deterministic stdout
//! row per completed cell, so a serial, a parallel and a resumed run of
//! the same grid print byte-identical stdout.

use gputm::config::{GpuConfig, TmSystem};
use gputm::sweep::{ExperimentSpec, SweepReport};
use std::process::ExitCode;
use workloads::suite::Benchmark;

/// Which machine generation the base config models (`--gpu`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GpuModel {
    /// Paper-faithful Table II machine: unsectored caches, modulo
    /// interleave, fixed-latency GDDR5 (the default).
    #[default]
    Fermi,
    /// Volta-class memory tier: sectored streaming L1, xor-hashed banked
    /// LLC, HBM pseudo-channel timing (DESIGN.md §16).
    Volta,
}

/// Grid-selection flags: which benchmarks, systems, and base machine.
#[derive(Debug, Clone, Default)]
pub struct GridArgs {
    /// Run the small test machine instead of the 15-core Fermi.
    pub tiny: bool,
    /// Run every TM system (overrides `systems`).
    pub all_systems: bool,
    /// Explicitly selected systems (default: GETM alone).
    pub systems: Vec<TmSystem>,
    /// Machine generation for the base config (`--gpu fermi|volta`).
    pub gpu: GpuModel,
}

impl GridArgs {
    /// Strips the grid flags out of `args`, returning the parsed
    /// selection and the remaining arguments (for [`crate::cli::Args`]).
    ///
    /// # Errors
    ///
    /// Describes an unknown `--system` value or a missing flag value.
    pub fn strip_from(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(Self, Vec<String>), String> {
        let mut out = GridArgs::default();
        let mut rest = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--tiny" => out.tiny = true,
                "--all-systems" => out.all_systems = true,
                "--system" => {
                    let v = it.next().ok_or("--system needs a value")?;
                    out.systems.push(v.parse().map_err(|e| format!("{e}"))?);
                }
                "--gpu" => {
                    let v = it.next().ok_or("--gpu needs a value")?;
                    out.gpu = match v.to_ascii_lowercase().as_str() {
                        "fermi" => GpuModel::Fermi,
                        "volta" => GpuModel::Volta,
                        other => {
                            return Err(format!("unknown gpu {other:?} (known: fermi, volta)"))
                        }
                    };
                }
                other => rest.push(other.to_string()),
            }
        }
        Ok((out, rest))
    }

    /// The selected systems: every one with `--all-systems`, else the
    /// `--system` picks, else GETM alone.
    pub fn systems(&self) -> Vec<TmSystem> {
        if self.all_systems {
            TmSystem::ALL.to_vec()
        } else if self.systems.is_empty() {
            vec![TmSystem::Getm]
        } else {
            self.systems.clone()
        }
    }

    /// The base machine `--tiny` and `--gpu` select.
    pub fn base_config(&self) -> GpuConfig {
        match (self.tiny, self.gpu) {
            (true, GpuModel::Fermi) => GpuConfig::tiny_test(),
            (true, GpuModel::Volta) => GpuConfig::tiny_volta(),
            (false, GpuModel::Fermi) => GpuConfig::fermi_15core(),
            (false, GpuModel::Volta) => GpuConfig::volta_80core(),
        }
    }

    /// Builds the experiment grid these flags plus the shared CLI
    /// arguments describe.
    ///
    /// # Errors
    ///
    /// Describes an unknown positional benchmark name.
    pub fn build_spec(&self, args: &crate::cli::Args) -> Result<ExperimentSpec, String> {
        let benchmarks: Vec<Benchmark> = if args.positional.is_empty() {
            Benchmark::ALL.to_vec()
        } else {
            args.positional
                .iter()
                .map(|name| name.parse().map_err(|e| format!("{e}")))
                .collect::<Result<_, _>>()?
        };
        Ok(ExperimentSpec::grid()
            .benchmarks(benchmarks)
            .systems(self.systems())
            .scale(args.scale)
            .base(self.base_config())
            .build())
    }
}

/// Renders a sweep report: the deterministic stdout table (one row per
/// completed cell, spec order), failure/skip lines on stderr, and the
/// process exit code.
pub fn render_report(report: &SweepReport, total: usize) -> ExitCode {
    println!(
        "{:<18} {:>12} {:>9} {:>9} {:>9}",
        "cell", "cycles", "commits", "aborts", "degraded"
    );
    for o in &report.outcomes {
        println!(
            "{:<18} {:>12} {:>9} {:>9} {:>9}",
            o.cell.label(),
            o.metrics.cycles,
            o.metrics.commits,
            o.metrics.aborts,
            o.metrics.degraded
        );
    }
    for f in &report.failures {
        eprintln!("sweep: FAILED {f}");
    }
    if report.skipped > 0 {
        eprintln!(
            "sweep: {} cell(s) skipped after the first failure",
            report.skipped
        );
    }
    if report.is_complete() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "sweep: {} of {} cell(s) did not complete",
            report.failures.len() + report.skipped,
            total
        );
        ExitCode::FAILURE
    }
}

/// The grid-selection usage text of `sweep` and `verify`.
pub const GRID_USAGE: &str = "\
grid selection:
  [BENCH ...]        benchmark names (default: the whole suite)
  --system NAME      a TM system to run (repeatable; default: GETM)
  --all-systems      run every TM system
  --tiny             run the small test machine, not the 15-core Fermi
  --gpu NAME         machine generation: fermi (default) or volta
                     (sectored L1 + hashed banked LLC + HBM timing)";

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn grid_flags_are_stripped_and_rest_passes_through() {
        let (g, rest) =
            GridArgs::strip_from(strs(&["--tiny", "HT-H", "--system", "getm", "--quiet"])).unwrap();
        assert!(g.tiny);
        assert_eq!(g.systems, vec![TmSystem::Getm]);
        assert_eq!(rest, strs(&["HT-H", "--quiet"]));
    }

    #[test]
    fn unknown_system_is_an_error() {
        assert!(GridArgs::strip_from(strs(&["--system", "zzz"]))
            .unwrap_err()
            .contains("unknown TM system"));
        assert!(GridArgs::strip_from(strs(&["--system"]))
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn spec_defaults_to_whole_suite_under_getm() {
        let (g, rest) = GridArgs::strip_from(strs(&["--tiny"])).unwrap();
        let args = crate::cli::Args::parse_from(rest).unwrap();
        let spec = g.build_spec(&args).unwrap();
        assert_eq!(spec.len(), Benchmark::ALL.len());
        assert!(spec.cells().iter().all(|c| c.system == TmSystem::Getm));
    }

    #[test]
    fn gpu_flag_selects_the_volta_presets() {
        let (g, rest) = GridArgs::strip_from(strs(&["--gpu", "volta", "ATM"])).unwrap();
        assert_eq!(g.gpu, GpuModel::Volta);
        assert_eq!(rest, strs(&["ATM"]));
        let args = crate::cli::Args::parse_from(rest).unwrap();
        let spec = g.build_spec(&args).unwrap();
        assert_eq!(
            format!("{:?}", spec.cells()[0].cfg),
            format!("{:?}", GpuConfig::volta_80core())
        );

        // --tiny composes: the tiny volta machine, not the tiny fermi one.
        let (g, rest) = GridArgs::strip_from(strs(&["--tiny", "--gpu", "volta", "ATM"])).unwrap();
        let args = crate::cli::Args::parse_from(rest).unwrap();
        let spec = g.build_spec(&args).unwrap();
        assert_eq!(
            format!("{:?}", spec.cells()[0].cfg),
            format!("{:?}", GpuConfig::tiny_volta())
        );

        assert!(GridArgs::strip_from(strs(&["--gpu", "pascal"]))
            .unwrap_err()
            .contains("unknown gpu"));
        assert!(GridArgs::strip_from(strs(&["--gpu"]))
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn fermi_and_volta_grids_have_distinct_cache_identities() {
        // The sweep cache keys hash the full config debug rendering, so
        // the two machine generations must never collide on disk.
        let build = |gpu: &str| {
            let (g, rest) = GridArgs::strip_from(strs(&["--tiny", "--gpu", gpu, "ATM"])).unwrap();
            let args = crate::cli::Args::parse_from(rest).unwrap();
            g.build_spec(&args).unwrap()
        };
        let (fermi, volta) = (build("fermi"), build("volta"));
        assert_ne!(
            gputm::sweep::sweep_digest(fermi.cells()),
            gputm::sweep::sweep_digest(volta.cells())
        );
        assert_ne!(fermi.cells()[0].cache_key(), volta.cells()[0].cache_key());
    }

    #[test]
    fn same_flags_build_identical_grids() {
        let build = || {
            let (g, rest) =
                GridArgs::strip_from(strs(&["--tiny", "ATM", "--system", "getm"])).unwrap();
            let args = crate::cli::Args::parse_from(rest).unwrap();
            g.build_spec(&args).unwrap()
        };
        let (a, b) = (build(), build());
        assert_eq!(
            gputm::sweep::sweep_digest(a.cells()),
            gputm::sweep::sweep_digest(b.cells())
        );
    }
}
