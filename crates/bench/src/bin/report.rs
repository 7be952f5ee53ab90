//! Cross-run regression differ.
//!
//! Compares two runs of the same experiment campaign and renders a
//! pass/fail table, so "did anything drift since the last known-good
//! run" is one command instead of eyeballing JSON:
//!
//! ```text
//! cargo run -p bench --release --bin report -- OLD NEW
//! ```
//!
//! OLD and NEW are two sweep-cache directories. Every `<key>.metrics`
//! entry in OLD must exist in NEW and parse to identical metrics, with
//! **zero tolerance**: the simulator is deterministic, so any drift in a
//! simulated quantity is a real behavior change, not noise. Entries only
//! in NEW are informational; OLD entries in a stale cache format are
//! skipped with a note (they cannot be compared, but are not evidence of
//! regression). The engine loop's wall-clock baseline
//! (`BENCH_engine.json`) is gated by `enginebench --check` instead.
//!
//! Exit status: 0 when nothing regressed, 1 on any regression or missing
//! entry, 2 on usage or I/O errors.

use bench::cli::exit_usage;
use gputm::sweep::{parse_metrics, serialize_metrics};
use gputm::Metrics;
use std::collections::BTreeMap;
use std::path::Path;

const USAGE: &str = "usage: report OLD NEW  (two sweep-cache directories)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (old, new) = match (args.first(), args.get(1)) {
        (Some(a), Some(b)) if args.len() == 2 => (Path::new(a), Path::new(b)),
        _ => exit_usage("expected two arguments", USAGE),
    };
    let mut out = String::new();
    let verdict = compare_caches(old, new, &mut out);
    print!("{out}");
    match verdict {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("report: regression detected");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("report: {e}");
            std::process::exit(2);
        }
    }
}

/// The `key=value` lines of a serialized metrics entry (everything but
/// the format header).
fn deterministic_lines(m: &Metrics) -> BTreeMap<String, String> {
    serialize_metrics(m)
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Diffs two sweep-cache directories; `Ok(true)` means no drift.
///
/// # Errors
///
/// Unreadable directories (not unreadable entries — a stale-format OLD
/// entry is a skip, a corrupt NEW entry is a regression).
fn compare_caches(old_dir: &Path, new_dir: &Path, out: &mut String) -> Result<bool, String> {
    let keys = |dir: &Path| -> Result<Vec<String>, String> {
        let rd =
            std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let mut keys: Vec<String> = rd
            .filter_map(Result::ok)
            .filter_map(|e| {
                let p = e.path();
                (p.extension()? == "metrics").then(|| p.file_stem()?.to_str().map(String::from))?
            })
            .collect();
        keys.sort();
        Ok(keys)
    };
    let old_keys = keys(old_dir)?;
    let new_keys = keys(new_dir)?;
    let mut ok = true;
    let (mut matched, mut skipped) = (0usize, 0usize);
    for key in &old_keys {
        let old_text = std::fs::read_to_string(old_dir.join(format!("{key}.metrics")))
            .map_err(|e| format!("cannot read OLD entry {key}: {e}"))?;
        let Some(old_m) = parse_metrics(&old_text) else {
            skipped += 1;
            out.push_str(&format!("{key}  skipped (OLD entry in a stale format)\n"));
            continue;
        };
        let new_path = new_dir.join(format!("{key}.metrics"));
        let Ok(new_text) = std::fs::read_to_string(&new_path) else {
            ok = false;
            out.push_str(&format!("{key}  MISSING in NEW\n"));
            continue;
        };
        let Some(new_m) = parse_metrics(&new_text) else {
            ok = false;
            out.push_str(&format!("{key}  UNPARSEABLE in NEW (corrupt entry)\n"));
            continue;
        };
        let old_lines = deterministic_lines(&old_m);
        let new_lines = deterministic_lines(&new_m);
        if old_lines == new_lines {
            matched += 1;
            continue;
        }
        ok = false;
        out.push_str(&format!("{key}  DRIFTED:\n"));
        for (k, ov) in &old_lines {
            match new_lines.get(k) {
                Some(nv) if nv == ov => {}
                Some(nv) => out.push_str(&format!("  {k}: {ov} -> {nv}\n")),
                None => out.push_str(&format!("  {k}: {ov} -> (absent)\n")),
            }
        }
        for (k, nv) in &new_lines {
            if !old_lines.contains_key(k) {
                out.push_str(&format!("  {k}: (absent) -> {nv}\n"));
            }
        }
    }
    let only_new = new_keys.iter().filter(|k| !old_keys.contains(k)).count();
    out.push_str(&format!(
        "{matched} identical, {skipped} skipped, {} compared, {only_new} only in NEW\n",
        old_keys.len() - skipped
    ));
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gputm::sweep::ResultCache;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("getm-report-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn cache_self_compare_passes_and_drift_fails() {
        let old_dir = temp_dir("cache-old");
        let new_dir = temp_dir("cache-new");
        let old = ResultCache::new(&old_dir);
        let new = ResultCache::new(&new_dir);
        let m = Metrics {
            cycles: 1000,
            commits: 64,
            check: Some(Ok(())),
            ..Metrics::default()
        };
        old.store("aaaa", &m).unwrap();
        new.store("aaaa", &m).unwrap();

        let mut out = String::new();
        assert_eq!(compare_caches(&old_dir, &new_dir, &mut out), Ok(true));
        assert!(out.contains("1 identical"));

        // Zero tolerance: a single deterministic field off by one fails.
        let drifted = Metrics {
            commits: 65,
            ..m.clone()
        };
        new.store("aaaa", &drifted).unwrap();
        let mut out = String::new();
        assert_eq!(compare_caches(&old_dir, &new_dir, &mut out), Ok(false));
        assert!(out.contains("DRIFTED"), "{out}");
        assert!(out.contains("commits: 64 -> 65"), "{out}");

        std::fs::remove_dir_all(&old_dir).ok();
        std::fs::remove_dir_all(&new_dir).ok();
    }

    #[test]
    fn cache_missing_entry_fails_and_stale_format_skips() {
        let old_dir = temp_dir("miss-old");
        let new_dir = temp_dir("miss-new");
        let m = Metrics {
            check: Some(Ok(())),
            ..Metrics::default()
        };
        let old = ResultCache::new(&old_dir);
        old.store("gone", &m).unwrap();
        // A stale-format OLD entry is skipped, not failed.
        let stale = serialize_metrics(&m).replacen("v5", "v4", 1);
        std::fs::write(old_dir.join("stale.metrics"), stale).unwrap();
        std::fs::create_dir_all(&new_dir).unwrap();

        let mut out = String::new();
        assert_eq!(compare_caches(&old_dir, &new_dir, &mut out), Ok(false));
        assert!(out.contains("gone  MISSING in NEW"), "{out}");
        assert!(out.contains("stale format"), "{out}");

        std::fs::remove_dir_all(&old_dir).ok();
        std::fs::remove_dir_all(&new_dir).ok();
    }
}
