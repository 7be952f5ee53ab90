//! The repository benchmark: four workloads that measure the simulated GPU
//! and the simulator, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] \
//!     [--trace-file FILE] [--out FILE]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --agree A.jsonl B.jsonl
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --spec
//! ```
//!
//! Each workload is a closed loop of operations timed from outside, by
//! calling each layer's public functions. Untraced runs (`--trace 0`)
//! report the end-to-end metrics; traced runs (`--trace 1`) record spans
//! around the same calls and report the per-layer metrics. The last line
//! of standard output is the result as one JSON object.

mod cells;
mod inputs;
mod json;
mod run;
mod spec;
mod stats;
mod stm;
mod sweep;
mod trace;

use run::Ctx;
use stats::{END_TO_END, PER_LAYER};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> String {
    format!(
        "\
usage: getm-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                      [--trace-file FILE] [--out FILE]
       getm-benchmark --agree A.jsonl B.jsonl
       getm-benchmark --spec

  --workload NAME   fig11-fermi | volta-hbm | stm-certify | sweep-tiny
                    (repeatable; default: all four)
  --seed N          input seed (default {}, the suite's own inputs;
                    {} is held out for checking claims)
  --seconds S       how long each workload's closed loop runs (default {})
  --trace 0|1       1: record spans and report the per-layer metrics
  --trace-file FILE where a traced run writes its Chrome trace
                    (default benchmark/out/trace-<workload>.json)
  --out FILE        append each result as one JSON line
  --agree A B       exit 1 if an end-to-end median of A and B differs by
                    more than its bound on any workload
  --spec            print BENCHMARK.json",
        inputs::DEFAULT_SEED,
        inputs::HELD_OUT_SEED,
        spec::RUN_SECONDS
    )
}

/// Where runs keep scratch files and traces: inside the benchmark's own
/// directory of the checkout it was built from.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_file: Option<PathBuf>,
    out: Option<PathBuf>,
}

enum Command {
    Run(Args),
    Agree(PathBuf, PathBuf),
    Spec,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS,
        trace: false,
        trace_file: None,
        out: None,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let name = spec::WORKLOADS
                    .iter()
                    .map(|w| w.0)
                    .find(|n| *n == v)
                    .ok_or_else(|| format!("unknown workload {v:?}"))?;
                a.workloads.push(name);
            }
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|e| format!("--seed {v:?}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("--seconds needs 1..=3600, got {v:?}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace needs 0 or 1, got {v:?}")),
                }
            }
            "--trace-file" => a.trace_file = Some(value()?.into()),
            "--out" => a.out = Some(value()?.into()),
            "--agree" => {
                let (x, y) = (value()?, value()?);
                return Ok(Command::Agree(x.into(), y.into()));
            }
            "--spec" => return Ok(Command::Spec),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = spec::WORKLOADS.iter().map(|w| w.0).collect();
    }
    Ok(Command::Run(a))
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Err(e) => {
            eprintln!("{e}\n\n{}", usage());
            ExitCode::from(2)
        }
        Ok(Command::Spec) => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        Ok(Command::Agree(a, b)) => match agree(&a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("--agree: {e}");
                ExitCode::from(2)
            }
        },
        Ok(Command::Run(args)) => {
            settle_allocator();
            let mut correct = true;
            for (i, w) in args.workloads.iter().enumerate() {
                if i > 0 {
                    reset_peak_rss();
                }
                match run_workload(w, &args) {
                    Ok(ok) => correct &= ok,
                    Err(e) => {
                        eprintln!("{w}: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// Puts the allocator where a long-running process ends up anyway, before
/// anything is timed. glibc's malloc maps each large block afresh (page
/// faults on every touch) until the first large block is freed, then
/// raises its threshold to that block's size, up to 32 MiB. Left to the
/// workload, when that happens varies from process to process, and set-up
/// times split into two modes 1.5-2x apart; freeing one 30 MiB block
/// first settles it. Elsewhere this is one allocation and nothing more.
fn settle_allocator() {
    let block: Vec<u8> = Vec::with_capacity(30 << 20);
    drop(std::hint::black_box(block));
}

/// Runs one workload, prints its report and result line; true if every
/// operation passed its gates.
fn run_workload(name: &str, args: &Args) -> Result<bool, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "== {name} (seed {}, {} s, {}, {threads} host CPUs) ==",
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    let mut ctx = Ctx::new(args.seed, Duration::from_secs(args.seconds), args.trace);
    let scratch = Path::new(OUT_DIR).join(format!("sweep-{}", std::process::id()));
    match name {
        "fig11-fermi" => cells::run(&mut ctx, &cells::FIG11_FERMI),
        "volta-hbm" => cells::run(&mut ctx, &cells::VOLTA_HBM),
        "stm-certify" => stm::run(&mut ctx),
        "sweep-tiny" => {
            sweep::run(&mut ctx, &scratch);
            let _ = std::fs::remove_dir_all(&scratch);
        }
        other => unreachable!("workload {other} was validated by the parser"),
    }
    ctx.e2e.insert("peak_rss_mb", (peak_rss_mb()?, 1));
    if args.trace {
        span_layers(&mut ctx);
        let path = args
            .trace_file
            .clone()
            .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("trace-{name}.json")));
        write_trace(&path, &ctx.tracer.chrome_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "trace: {} spans in {}",
            ctx.tracer.spans().len(),
            path.display()
        );
    }

    for line in &ctx.notes {
        println!("{line}");
    }
    let rows: Vec<(&stats::MetricSpec, f64, Option<usize>)> = if args.trace {
        let value = |m: &stats::MetricSpec| ctx.layers.get(m.name).copied().unwrap_or(0.0);
        PER_LAYER.iter().map(|m| (m, value(m), None)).collect()
    } else {
        let value = |m: &stats::MetricSpec| ctx.e2e[m.name];
        END_TO_END
            .iter()
            .map(|m| (m, value(m).0, Some(value(m).1)))
            .collect()
    };
    let mut metrics = Vec::with_capacity(rows.len());
    for (m, v, n) in rows {
        assert!(
            v.is_finite(),
            "{} = {v}: every ratio guards its divisor",
            m.name
        );
        let n = n.map_or(String::new(), |n| format!(", n {n}"));
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", bound {:.0} %", b * 100.0));
        println!(
            "  {:<34} {:>16.6} {:<7} ({} is better{bound}{n})",
            m.name,
            v,
            m.unit,
            m.better.name()
        );
        metrics.push(format!(
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json::string(m.name),
            json::string(m.unit)
        ));
    }
    let failed = ctx.failures.len() as u64;
    let correct = failed == 0;
    for f in &ctx.failures {
        println!("FAILED {f}");
    }
    println!(
        "{} operations, {failed} failed (fail_frac {})",
        ctx.attempted,
        stats::ratio(failed as f64, ctx.attempted as f64)
    );
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        ctx.attempted.max(1),
        metrics.join(", ")
    );
    if let Some(out) = &args.out {
        let line = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"result\": {result}}}\n",
            json::string(name),
            args.seed,
            u8::from(args.trace)
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("appending to {}: {e}", out.display()))?;
    }
    println!("{result}");
    Ok(correct)
}

/// Span names whose self time is reported as a share of the timed loop;
/// everything else inside the loop is the harness's own.
const SELF_SHARES: [(&str, &str); 7] = [
    ("engine.new", "self.engine_new_pct"),
    ("engine.run", "self.engine_run_pct"),
    ("engine.check", "self.engine_check_pct"),
    ("tl2.execute", "self.tl2_execute_pct"),
    ("verify.check", "self.verify_check_pct"),
    ("sweep.cold", "self.sweep_cold_pct"),
    ("sweep.warm", "self.sweep_warm_pct"),
];

/// Per-layer self times from the spans, and the recorder's own cost.
fn span_layers(ctx: &mut Ctx) {
    let t = &ctx.tracer;
    let loop_ns = t.total_ns(run::LOOP) as f64;
    let by_name = t.self_ns_by_name(run::LOOP);
    let in_loop = (0..t.spans().len())
        .filter(|&i| t.within(i, run::LOOP))
        .count();
    let overhead = in_loop as f64 * trace::span_cost().as_nanos() as f64;
    let mut shares = Vec::new();
    for (span, metric) in SELF_SHARES {
        let own = by_name.get(span).copied().unwrap_or(0) as f64;
        shares.push((metric, 100.0 * stats::ratio(own, loop_ns)));
    }
    let spans = t.spans().len() as f64;
    let mut lines = vec![format!(
        "self time inside the timed loop ({:.1} ms):",
        loop_ns / 1e6
    )];
    for (name, ns) in &by_name {
        lines.push(format!("  {name:<24} {:>12.3} ms", *ns as f64 / 1e6));
    }
    let harness = 100.0 - shares.iter().map(|s| s.1).sum::<f64>();
    for (metric, v) in shares {
        ctx.layer(metric, v);
    }
    ctx.layer("self.harness_pct", harness);
    ctx.layer("trace.spans", spans);
    ctx.layer(
        "trace.overhead_pct",
        100.0 * stats::ratio(overhead, loop_ns),
    );
    lines.push(format!(
        "tracing overhead: {in_loop} spans in the loop x measured cost per span = {:.3} ms",
        overhead / 1e6
    ));
    ctx.notes.extend(lines);
}

fn write_trace(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Resets VmHWM, so each workload of a multi-workload run reports its own
/// peak; best effort.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Compares two sets of untraced results (as written by `--out`): true if
/// every end-to-end median agrees within its bound on every workload.
fn agree(a: &Path, b: &Path) -> Result<bool, String> {
    let (sa, sb) = (load_set(a)?, load_set(b)?);
    let mut ok = true;
    for (workload, _) in spec::WORKLOADS {
        let (Some(ra), Some(rb)) = (sa.get(workload), sb.get(workload)) else {
            if sa.contains_key(workload) || sb.contains_key(workload) {
                println!("{workload}: present in only one set");
                ok = false;
            }
            continue;
        };
        for m in END_TO_END {
            let (Some(xa), Some(xb)) = (ra.get(m.name), rb.get(m.name)) else {
                println!("{workload} {}: missing", m.name);
                ok = false;
                continue;
            };
            let (ma, mb) = (stats::median(xa), stats::median(xb));
            let change = stats::rel_change(ma, mb);
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let verdict = if change <= bound { "agree" } else { "DIFFER" };
            ok &= change <= bound;
            println!(
                "{workload:<12} {:<12} {ma:>14.6} {mb:>14.6} {:>+7.2} % (bound {:.0} %, n {}/{}) {verdict}",
                m.name,
                100.0 * (mb / ma - 1.0),
                bound * 100.0,
                xa.len(),
                xb.len()
            );
        }
    }
    Ok(ok)
}

type Set = std::collections::BTreeMap<String, std::collections::BTreeMap<String, Vec<f64>>>;

/// Untraced result lines of one file: workload → metric → values.
fn load_set(path: &Path) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = Set::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        if v.get("trace").and_then(json::Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), n + 1))?;
        let metrics = v.get("result").and_then(|r| r.get("metrics"));
        for (name, m) in metrics.map(json::Value::fields).unwrap_or_default() {
            if let Some(x) = m.get("value").and_then(json::Value::as_f64) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Command, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn run_arguments_parse() {
        let Ok(Command::Run(a)) = parse("--workload volta-hbm --seed 7 --seconds 20 --trace 1")
        else {
            panic!("expected a run");
        };
        assert_eq!(a.workloads, ["volta-hbm"]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
        let Ok(Command::Run(a)) = parse("") else {
            panic!("expected a run");
        };
        assert_eq!(a.workloads.len(), 4);
        assert_eq!(a.seed, 48879);
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--bogus",
            "--seed",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn agree_compares_medians_against_bounds() {
        let dir = Path::new(OUT_DIR).join(format!("agree-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let line = |wall: f64, trace: u8| {
            format!(
                "{{\"workload\": \"fig11-fermi\", \"seed\": 1, \"trace\": {trace}, \"result\": \
                 {{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {{\
                 \"setup_s\": {{\"value\": 0.01, \"unit\": \"s\"}}, \
                 \"wall_s\": {{\"value\": {wall}, \"unit\": \"s\"}}, \
                 \"throughput\": {{\"value\": 100, \"unit\": \"1/s\"}}, \
                 \"peak_rss_mb\": {{\"value\": 200, \"unit\": \"MB\"}}}}}}}}\n"
            )
        };
        let write = |name: &str, lines: &[String]| {
            let p = dir.join(name);
            std::fs::write(&p, lines.concat()).unwrap();
            p
        };
        let a = write("a", &[line(10.0, 0), line(10.4, 0), line(9.8, 0)]);
        let close = write("b", &[line(10.3, 0), line(10.1, 0), line(50.0, 1)]);
        let far = write("c", &[line(15.0, 0), line(16.0, 0)]);
        assert_eq!(agree(&a, &close), Ok(true), "traced lines are ignored");
        assert_eq!(agree(&a, &far), Ok(false));
        let torn = write("d", &["{\"workload\": ".to_string()]);
        assert!(agree(&a, &torn).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
