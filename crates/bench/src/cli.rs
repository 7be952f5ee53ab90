//! Command-line flags shared by every harness binary.
//!
//! `fig` and the grid binaries accept the same sweep-controlling flags,
//! parsed here once instead of ad hoc per binary:
//!
//! ```text
//! --paper-scale      use the paper's full benchmark sizes (default: fast)
//! --jobs N | -j N    worker threads for the sweep (default: all cores)
//! --serial           shorthand for --jobs 1
//! --threads N        shard each simulation across N host threads
//!                    (deterministic: metrics are bit-identical to
//!                    serial; default 1). Useful for a handful of big
//!                    cells; --jobs parallelism is better for grids.
//! --no-cache         don't read or write the on-disk result cache
//! --cache-dir PATH   result-cache location (default: $GETM_SWEEP_CACHE
//!                    or target/sweep-cache)
//! --quiet            suppress per-cell progress lines on stderr
//! --resume           honor the sweep journal: recall cells a killed run
//!                    completed, recompute only the rest (needs the cache)
//! --failures POLICY  fail-fast (default) | collect-all | retry:N
//! --cell-timeout S   cancel any cell running longer than S wall seconds
//! --trace PATH       re-run the figure's representative cell with event
//!                    tracing on and write a Chrome trace-event JSON file
//!                    (open in Perfetto / chrome://tracing)
//! --probe METRIC     with tracing, print the windowed time series of one
//!                    probe gauge (vu-backlog, cu-backlog,
//!                    stall-occupancy, up-xbar-backlog)
//! --telemetry PATH   stream campaign telemetry as JSON Lines to PATH and
//!                    keep a Prometheus-style snapshot at PATH.prom
//! --live             render a live in-place campaign dashboard on stderr
//!                    (implies --quiet: both share the terminal)
//! ```
//!
//! Remaining non-flag arguments are collected as positionals (`fig` takes
//! a figure id, `diag` a benchmark name).

use gputm::sweep::{FailurePolicy, ResultCache, SweepOptions};
use gputm::telemetry::{DashboardSink, JsonlSink, PromSink, Telemetry, TelemetrySink};
use std::path::PathBuf;
use std::time::Duration;
use workloads::suite::Scale;

/// Parsed common arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Benchmark sizing.
    pub scale: Scale,
    /// Sweep worker threads (0 = one per core).
    pub jobs: usize,
    /// Intra-cell shard threads (1 = serial engine loop).
    pub cell_threads: usize,
    /// Whether the on-disk result cache is enabled.
    pub cache: bool,
    /// Cache location override (`None` = default resolution).
    pub cache_dir: Option<PathBuf>,
    /// Per-cell progress lines on stderr.
    pub progress: bool,
    /// Honor the sweep journal of a killed run (requires the cache).
    pub resume: bool,
    /// What the sweep does with failing cells.
    pub failures: FailurePolicy,
    /// Wall-clock budget per cell, if any.
    pub cell_timeout: Option<Duration>,
    /// Write a Chrome trace-event JSON of the representative cell here.
    pub trace: Option<PathBuf>,
    /// Print the windowed time series of this probe gauge (implies a
    /// traced re-run, like [`Args::trace`]).
    pub probe: Option<String>,
    /// Stream campaign telemetry as JSON Lines to this file (plus a
    /// Prometheus-style snapshot next to it).
    pub telemetry: Option<PathBuf>,
    /// Render the live in-place campaign dashboard on stderr.
    pub live: bool,
    /// Non-flag arguments, in order.
    pub positional: Vec<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: Scale::Fast,
            jobs: 0,
            cell_threads: 1,
            cache: true,
            cache_dir: None,
            progress: true,
            resume: false,
            failures: FailurePolicy::FailFast,
            cell_timeout: None,
            trace: None,
            probe: None,
            telemetry: None,
            live: false,
            positional: Vec::new(),
        }
    }
}

impl Args {
    /// Parses the process's arguments.
    ///
    /// # Panics
    ///
    /// Exits with a usage message on unknown or malformed flags: every
    /// figure binary shares one flag vocabulary, and a typo silently
    /// ignored would run the wrong experiment.
    pub fn parse() -> Self {
        Args::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| panic!("{e}\n\n{USAGE}"))
    }

    /// Parses an explicit argument list (testable core of [`Args::parse`]).
    ///
    /// # Errors
    ///
    /// Describes the first unknown flag or missing/malformed flag value.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--paper-scale" => out.scale = Scale::Paper,
                "--serial" => out.jobs = 1,
                "--no-cache" => out.cache = false,
                "--quiet" => out.progress = false,
                "--resume" => out.resume = true,
                "--failures" => {
                    let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    out.failures = parse_failure_policy(&v)?;
                }
                "--cell-timeout" => {
                    let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    let secs = v.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("{arg} needs a positive number of seconds, got {v:?}")
                    })?;
                    out.cell_timeout = Some(Duration::from_secs(secs));
                }
                "--jobs" | "-j" => {
                    let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    out.jobs = v
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("{arg} needs a positive integer, got {v:?}"))?;
                }
                "--threads" => {
                    let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    out.cell_threads = v
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("{arg} needs a positive integer, got {v:?}"))?;
                }
                "--cache-dir" => {
                    let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    out.cache_dir = Some(PathBuf::from(v));
                }
                "--trace" => {
                    let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    out.trace = Some(PathBuf::from(v));
                }
                "--probe" => {
                    let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    out.probe = Some(v);
                }
                "--telemetry" => {
                    let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    out.telemetry = Some(PathBuf::from(v));
                }
                "--live" => out.live = true,
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown flag {flag:?}"));
                }
                _ => out.positional.push(arg),
            }
        }
        if out.resume && !out.cache {
            return Err("--resume needs the result cache (conflicts with --no-cache)".into());
        }
        Ok(out)
    }

    /// The telemetry hub these arguments describe: a JSONL stream plus a
    /// Prometheus snapshot for `--telemetry PATH`, the live dashboard for
    /// `--live`, off when neither flag was given.
    ///
    /// # Errors
    ///
    /// Describes a `--telemetry` file that could not be created.
    pub fn telemetry(&self) -> Result<Telemetry, String> {
        let mut sinks: Vec<Box<dyn TelemetrySink>> = Vec::new();
        if let Some(path) = &self.telemetry {
            let jsonl = JsonlSink::create(path)
                .map_err(|e| format!("--telemetry: cannot create {}: {e}", path.display()))?;
            sinks.push(Box::new(jsonl));
            let mut prom = path.clone().into_os_string();
            prom.push(".prom");
            sinks.push(Box::new(PromSink::at(PathBuf::from(prom))));
        }
        if self.live {
            sinks.push(Box::new(DashboardSink::to_stderr()));
        }
        Ok(if sinks.is_empty() {
            Telemetry::off()
        } else {
            Telemetry::to_sinks(sinks)
        })
    }

    /// The sweep options these arguments describe.
    ///
    /// # Panics
    ///
    /// Exits with a message when the `--telemetry` file cannot be
    /// created: telemetry silently lost is worse than no run at all.
    pub fn sweep_options(&self) -> SweepOptions {
        let mut opts = SweepOptions::new()
            .threads(self.jobs)
            // The dashboard repaints stderr in place; per-cell progress
            // lines would shred it, so --live wins over the default.
            .progress(self.progress && !self.live)
            .failure_policy(self.failures)
            .resume(self.resume)
            .telemetry(self.telemetry().unwrap_or_else(|e| panic!("{e}")))
            .cell_exec(gputm::ExecMode::from_threads(self.cell_threads));
        if let Some(limit) = self.cell_timeout {
            opts = opts.cell_timeout(limit);
        }
        if self.cache {
            opts = opts.cache(match &self.cache_dir {
                Some(dir) => ResultCache::new(dir.clone()),
                None => ResultCache::at_default_dir(),
            });
        }
        opts
    }
}

/// Parses `--failures` values: `fail-fast`, `collect-all`, or `retry:N`.
fn parse_failure_policy(v: &str) -> Result<FailurePolicy, String> {
    match v {
        "fail-fast" => Ok(FailurePolicy::FailFast),
        "collect-all" => Ok(FailurePolicy::CollectAll),
        _ => {
            let attempts = v
                .strip_prefix("retry:")
                .and_then(|n| n.parse::<u32>().ok())
                .filter(|&n| n > 0)
                .ok_or_else(|| {
                    format!("--failures takes fail-fast, collect-all, or retry:N, got {v:?}")
                })?;
            Ok(FailurePolicy::Retry { attempts })
        }
    }
}

/// The shared usage text.
pub const USAGE: &str = "\
common flags (all figure binaries):
  --paper-scale      use the paper's full benchmark sizes (default: fast)
  --jobs N | -j N    worker threads for the sweep (default: all cores)
  --serial           shorthand for --jobs 1
  --threads N        shard each simulation across N host threads
                     (deterministic; bit-identical to serial)
  --no-cache         don't read or write the on-disk result cache
  --cache-dir PATH   result-cache location (default: $GETM_SWEEP_CACHE
                     or target/sweep-cache)
  --quiet            suppress per-cell progress lines on stderr
  --resume           honor the sweep journal: recall cells a killed run
                     completed, recompute only the rest (needs the cache)
  --failures POLICY  fail-fast (default) | collect-all | retry:N
  --cell-timeout S   cancel any cell running longer than S wall seconds
  --trace PATH       write a Chrome trace-event JSON of the figure's
                     representative cell (open in Perfetto)
  --probe METRIC     print the windowed time series of one probe gauge
                     (vu-backlog, cu-backlog, stall-occupancy,
                     up-xbar-backlog)
  --telemetry PATH   stream campaign telemetry as JSON Lines to PATH and
                     keep a Prometheus-style snapshot at PATH.prom
  --live             render a live in-place campaign dashboard on stderr
                     (implies --quiet: both share the terminal)";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_parallel_cached_fast() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, Args::default());
        let opts = a.sweep_options();
        assert_eq!(opts.threads, 0);
        assert!(opts.result_cache.is_some());
        assert!(opts.progress);
    }

    #[test]
    fn flags_parse() {
        let a = parse(&[
            "--paper-scale",
            "-j",
            "4",
            "--no-cache",
            "--quiet",
            "HT-H",
            "--cache-dir",
            "/tmp/c",
        ])
        .unwrap();
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.jobs, 4);
        assert!(!a.cache);
        assert!(!a.progress);
        assert_eq!(a.positional, vec!["HT-H".to_string()]);
        assert_eq!(a.cache_dir.as_deref(), Some(std::path::Path::new("/tmp/c")));
        assert!(a.sweep_options().result_cache.is_none());
    }

    #[test]
    fn serial_means_one_job() {
        assert_eq!(parse(&["--serial"]).unwrap().jobs, 1);
    }

    #[test]
    fn threads_flag_shards_every_cell() {
        let a = parse(&["--threads", "4"]).unwrap();
        assert_eq!(a.cell_threads, 4);
        assert_eq!(
            a.sweep_options().cell_exec,
            gputm::ExecMode::Sharded { threads: 4 }
        );
        // One thread is the serial engine.
        let one = parse(&["--threads", "1"]).unwrap();
        assert_eq!(one.sweep_options().cell_exec, gputm::ExecMode::Serial);
        assert!(parse(&["--threads", "0"]).unwrap_err().contains("positive"));
    }

    #[test]
    fn trace_and_probe_parse() {
        let a = parse(&["--trace", "/tmp/t.json", "--probe", "vu-backlog"]).unwrap();
        assert_eq!(
            a.trace.as_deref(),
            Some(std::path::Path::new("/tmp/t.json"))
        );
        assert_eq!(a.probe.as_deref(), Some("vu-backlog"));
        assert!(parse(&["--trace"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--probe"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn cache_dir_overrides_default_location() {
        let a = parse(&["--cache-dir", "/tmp/xyz"]).unwrap();
        let opts = a.sweep_options();
        assert_eq!(
            opts.result_cache.unwrap().dir(),
            std::path::Path::new("/tmp/xyz")
        );
    }

    #[test]
    fn robustness_flags_parse() {
        let a = parse(&["--resume", "--failures", "retry:3", "--cell-timeout", "120"]).unwrap();
        assert!(a.resume);
        assert_eq!(a.failures, FailurePolicy::Retry { attempts: 3 });
        assert_eq!(a.cell_timeout, Some(Duration::from_secs(120)));
        let opts = a.sweep_options();
        assert!(opts.resume);
        assert_eq!(opts.failure_policy, FailurePolicy::Retry { attempts: 3 });
        assert_eq!(opts.cell_timeout, Some(Duration::from_secs(120)));

        assert_eq!(
            parse(&["--failures", "collect-all"]).unwrap().failures,
            FailurePolicy::CollectAll
        );
        assert_eq!(
            parse(&["--failures", "fail-fast"]).unwrap().failures,
            FailurePolicy::FailFast
        );
        assert!(parse(&["--failures", "retry:0"])
            .unwrap_err()
            .contains("retry:N"));
        assert!(parse(&["--failures", "shrug"])
            .unwrap_err()
            .contains("retry:N"));
        assert!(parse(&["--cell-timeout", "0"])
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&["--resume", "--no-cache"])
            .unwrap_err()
            .contains("--resume needs the result cache"));
    }

    #[test]
    fn telemetry_and_live_parse() {
        let dir = std::env::temp_dir().join(format!("getm-cli-tel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        let a = parse(&["--telemetry", path.to_str().unwrap(), "--live"]).unwrap();
        assert_eq!(a.telemetry.as_deref(), Some(path.as_path()));
        assert!(a.live);
        assert!(a.telemetry().unwrap().is_on());
        // The dashboard owns stderr: per-cell progress lines are forced off.
        let opts = a.sweep_options();
        assert!(!opts.progress);
        assert!(opts.telemetry.is_on());
        assert!(parse(&["--telemetry"])
            .unwrap_err()
            .contains("needs a value"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_off_by_default_and_unwritable_path_is_an_error() {
        let a = parse(&[]).unwrap();
        assert!(!a.telemetry().unwrap().is_on());
        assert!(!a.sweep_options().telemetry.is_on());
        let bad = parse(&["--telemetry", "/nonexistent-dir/zzz/out.jsonl"]).unwrap();
        assert!(bad.telemetry().unwrap_err().contains("cannot create"));
    }

    #[test]
    fn live_alone_builds_a_dashboard_hub() {
        let a = parse(&["--live"]).unwrap();
        assert!(a.live);
        assert!(a.telemetry.is_none());
        assert!(a.telemetry().unwrap().is_on());
    }

    #[test]
    fn bad_flags_are_errors() {
        assert!(parse(&["--jobs"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--jobs", "zero"]).unwrap_err().contains("positive"));
        assert!(parse(&["--jobs", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown flag"));
    }
}
