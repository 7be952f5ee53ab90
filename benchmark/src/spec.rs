//! The benchmark's description, rendered as the repository's
//! `BENCHMARK.json` (`--spec` prints it; a test keeps the file in step).

use crate::json::string;
use crate::stats::{MetricSpec, END_TO_END, PER_LAYER};

/// How to run the benchmark from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The directories holding the benchmark.
pub const PATHS: &[&str] = &["benchmark"];

/// Seconds each run measures for, unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 25;

/// The workloads and why each was chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "fig11-fermi",
        "Fig. 11 grid: 9 benchmarks x GETM/WarpTM on the Fermi preset, serial engine; \
         the cycle loop and protocol layers do the work, across contention and working-set size",
    ),
    (
        "volta-hbm",
        "HT-H, ATM, CC x GETM/WarpTM on the Volta preset, serial engine checked against an \
         untimed 2-thread sharded pass; the only workload on the HBM and sector memory paths",
    ),
    (
        "stm-certify",
        "Paper-size HT-H, HT-L, ATM and two fuzz shapes on TL2 with 2 threads, each run \
         certified by the opacity oracle; history and checker work, no simulation",
    ),
    (
        "sweep-tiny",
        "45 tiny cells through the sweep executor: a cold pass into a fresh cache, then 100 \
         warm passes that are all cache hits, so executor, cache and journal do the work",
    ),
];

fn list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| string(s)).collect();
    format!("[{}]", quoted.join(", "))
}

fn metric(m: &MetricSpec) -> String {
    let mut s = format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}",
        string(m.name),
        string(m.unit),
        string(m.better.name())
    );
    if let Some(b) = m.bound {
        s.push_str(&format!(", \"bound\": {b}"));
    }
    s.push('}');
    s
}

fn rows(items: impl Iterator<Item = String>) -> String {
    let items: Vec<String> = items.map(|i| format!("    {i}")).collect();
    format!("[\n{}\n  ]", items.join(",\n"))
}

pub fn benchmark_json() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("{{\"name\": {}, \"why\": {}}}", string(name), string(why)));
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        list(COMMAND),
        list(PATHS),
        rows(workloads),
        rows(END_TO_END.iter().map(metric)),
        rows(PER_LAYER.iter().map(metric)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn benchmark_json_is_rendered_from_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(text, benchmark_json(), "regenerate with --spec");
        let v = json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = v.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn workload_reasons_fit_on_one_line() {
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
    }
}
