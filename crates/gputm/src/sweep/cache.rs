//! Content-addressed on-disk result cache.
//!
//! Every finished cell is stored under
//! `<dir>/<cache_key>.metrics` in a versioned line-oriented text format
//! (`field=value`, with floats written in Rust's shortest round-trip
//! notation so deserialized metrics are bit-identical to the originals).
//! Unparseable or version-mismatched files are treated as misses — the
//! cell simply re-runs — so the format can evolve without migrations.
//!
//! Writes go through a temp file and an atomic rename, so concurrent
//! sweeps (or a crash mid-write) can never leave a torn entry behind.

use crate::metrics::Metrics;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// First line of every cache file; bump on incompatible format changes.
/// v2 added optional means (`none` markers), the metadata-latency
/// histogram, and the intra-warp/validation abort tallies. v3 added the
/// watchdog fields (`degraded`, `watchdog_escalations`,
/// `serialized_commits`). v4 added the host-profile attribution lines
/// (`host_profile/*`, written by profiled sharded runs, which no longer
/// exist). v5 added the memory-tier fields (`l1_sector_misses`,
/// `llc_sector_misses`, `dram_accesses`, `dram_queue_stalls`,
/// `partition_imbalance`). v6 recounts `eapg_early_aborts` as aborted
/// lanes rather than broadcast hits.
const FORMAT: &str = "getm-metrics-v6";

/// An on-disk cache mapping [`super::CellSpec::cache_key`] to [`Metrics`].
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache { dir: dir.into() }
    }

    /// A cache at the default location: `$GETM_SWEEP_CACHE` if set, else
    /// `target/sweep-cache` under the current directory.
    pub fn at_default_dir() -> Self {
        let dir = std::env::var_os("GETM_SWEEP_CACHE")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target").join("sweep-cache"));
        ResultCache::new(dir)
    }

    /// Where entries live.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks up a key; any read or parse problem is a miss.
    ///
    /// Version-mismatched entries (old format, new code) are silent misses
    /// — that is the designed upgrade path. A *current-format* entry that
    /// still fails to parse means on-disk corruption (torn write from a
    /// pre-atomic writer, disk damage, manual edit); those are logged to
    /// stderr before being treated as misses, so an operator learns the
    /// cache is unhealthy instead of silently paying recompute time.
    pub fn load(&self, key: &str) -> Option<Metrics> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let parsed = parse_metrics(&text);
        if parsed.is_none() && text.lines().next() == Some(FORMAT) {
            eprintln!(
                "sweep cache: corrupt entry {} (current format, unparseable); recomputing",
                self.entry_path(key).display()
            );
        }
        parsed
    }

    /// Stores metrics under a key (atomic: temp file + rename).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; callers may treat a failed store as
    /// non-fatal (the sweep result itself is unaffected).
    pub fn store(&self, key: &str, metrics: &Metrics) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        static TMP_SALT: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".{key}.{}.{}.tmp",
            std::process::id(),
            TMP_SALT.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(serialize_metrics(metrics).as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.entry_path(key))
    }

    /// Number of entries currently on disk (diagnostics).
    pub fn entry_count(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "metrics"))
                    .count()
            })
            .unwrap_or(0)
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.metrics"))
    }
}

/// Interns a crossbar traffic-category name to the engine's `'static`
/// spelling. Unknown names (from newer engines) are leaked — a bounded,
/// tiny cost paid at most once per distinct category per process.
fn intern_category(name: &str) -> &'static str {
    const KNOWN: [&str; 12] = [
        "atomic",
        "commit",
        "commit-ack",
        "eapg-broadcast",
        "getm-reply",
        "load",
        "store",
        "tm-access",
        "tx-load",
        "validation",
        "verdict",
        "warp",
    ];
    match KNOWN.iter().find(|k| **k == name) {
        Some(k) => k,
        None => Box::leak(name.to_owned().into_boxed_str()),
    }
}

/// Escapes free text for a cache entry's line-framed `check` line:
/// backslashes and newlines only — the two characters that could break
/// framing.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Inverse of [`escape`]. A backslash [`escape`] could not have written
/// (before anything but `n` or `\`, or at the end) is kept as is.
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Renders metrics to the cache text format.
pub fn serialize_metrics(m: &Metrics) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str(FORMAT);
    s.push('\n');
    // u64 / usize fields.
    for (k, v) in [
        ("cycles", m.cycles),
        ("commits", m.commits),
        ("aborts", m.aborts),
        ("silent_commits", m.silent_commits),
        ("tx_exec_cycles", m.tx_exec_cycles),
        ("tx_wait_cycles", m.tx_wait_cycles),
        ("xbar_bytes", m.xbar_bytes),
        ("max_stall_occupancy", m.max_stall_occupancy),
        ("stall_full_aborts", m.stall_full_aborts),
        ("stall_queued", m.stall_queued),
        ("getm_aborts_load", m.getm_aborts_load),
        ("getm_aborts_store", m.getm_aborts_store),
        ("getm_aborts_approx", m.getm_aborts_approx),
        ("aborts_intra_warp", m.aborts_intra_warp),
        ("aborts_validation", m.aborts_validation),
        ("getm_max_cause_ts", m.getm_max_cause_ts),
        ("metadata_overflow_peak", m.metadata_overflow_peak as u64),
        ("eapg_early_aborts", m.eapg_early_aborts),
        ("eapg_broadcasts", m.eapg_broadcasts),
        ("atomics", m.atomics),
        ("cas_failures", m.cas_failures),
        ("rollovers", m.rollovers),
        ("watchdog_escalations", m.watchdog_escalations),
        ("serialized_commits", m.serialized_commits),
        ("l1_sector_misses", m.l1_sector_misses),
        ("llc_sector_misses", m.llc_sector_misses),
        ("dram_accesses", m.dram_accesses),
        ("dram_queue_stalls", m.dram_queue_stalls),
    ] {
        s.push_str(&format!("{k}={v}\n"));
    }
    s.push_str(&format!("degraded={}\n", m.degraded));
    // Optional f64 fields: `none` keeps "not measured" distinct from 0.0.
    for (k, v) in [
        ("mean_metadata_access_cycles", m.mean_metadata_access_cycles),
        ("mean_stall_waiters_per_addr", m.mean_stall_waiters_per_addr),
        ("partition_imbalance", m.partition_imbalance),
    ] {
        match v {
            Some(x) => s.push_str(&format!("{k}={x:?}\n")),
            None => s.push_str(&format!("{k}=none\n")),
        }
    }
    // f64 fields: `{:?}` is Rust's shortest exact round-trip rendering.
    for (k, v) in [
        ("l1_hit_rate", m.l1_hit_rate),
        ("llc_hit_rate", m.llc_hit_rate),
        ("mean_access_rt", m.mean_access_rt),
        ("mean_rounds_per_region", m.mean_rounds_per_region),
        ("mean_vu_queue_delay", m.mean_vu_queue_delay),
        ("mean_data_latency", m.mean_data_latency),
    ] {
        s.push_str(&format!("{k}={v:?}\n"));
    }
    // The latency histogram round-trips from (buckets, sum, max);
    // `from_parts` recomputes the count and trims trailing zeros.
    if m.metadata_latency.count() > 0 {
        let buckets: Vec<String> = m
            .metadata_latency
            .raw_buckets()
            .iter()
            .map(u64::to_string)
            .collect();
        s.push_str(&format!("metadata_latency/buckets={}\n", buckets.join(",")));
        s.push_str(&format!(
            "metadata_latency/sum={}\n",
            m.metadata_latency.sum()
        ));
        s.push_str(&format!(
            "metadata_latency/max={}\n",
            m.metadata_latency.max().unwrap_or(0)
        ));
    }
    for (cat, bytes) in &m.xbar_by_category {
        s.push_str(&format!("xbar_by_category/{cat}={bytes}\n"));
    }
    // `check` is always last: the parser treats it as an end-of-entry
    // marker, so truncation at any earlier line boundary is detected.
    match &m.check {
        None => s.push_str("check=none\n"),
        Some(Ok(())) => s.push_str("check=ok\n"),
        Some(Err(e)) => s.push_str(&format!("check=err:{}\n", escape(e))),
    }
    s
}

/// Parses the cache text format; `None` on any mismatch.
pub fn parse_metrics(text: &str) -> Option<Metrics> {
    let mut lines = text.lines();
    if lines.next() != Some(FORMAT) {
        return None;
    }
    let mut m = Metrics::default();
    let mut map: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut hist_buckets, mut hist_sum, mut hist_max) = (None, 0u64, 0u64);
    let mut saw_check = false;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (key, value) = line.split_once('=')?;
        if let Some(cat) = key.strip_prefix("xbar_by_category/") {
            map.insert(intern_category(cat), value.parse().ok()?);
            continue;
        }
        match key {
            "metadata_latency/buckets" => {
                hist_buckets = Some(
                    value
                        .split(',')
                        .map(|v| v.parse().ok())
                        .collect::<Option<Vec<u64>>>()?,
                );
                continue;
            }
            "metadata_latency/sum" => {
                hist_sum = value.parse().ok()?;
                continue;
            }
            "metadata_latency/max" => {
                hist_max = value.parse().ok()?;
                continue;
            }
            _ => {}
        }
        match key {
            "cycles" => m.cycles = value.parse().ok()?,
            "commits" => m.commits = value.parse().ok()?,
            "aborts" => m.aborts = value.parse().ok()?,
            "silent_commits" => m.silent_commits = value.parse().ok()?,
            "tx_exec_cycles" => m.tx_exec_cycles = value.parse().ok()?,
            "tx_wait_cycles" => m.tx_wait_cycles = value.parse().ok()?,
            "xbar_bytes" => m.xbar_bytes = value.parse().ok()?,
            "max_stall_occupancy" => m.max_stall_occupancy = value.parse().ok()?,
            "stall_full_aborts" => m.stall_full_aborts = value.parse().ok()?,
            "stall_queued" => m.stall_queued = value.parse().ok()?,
            "getm_aborts_load" => m.getm_aborts_load = value.parse().ok()?,
            "getm_aborts_store" => m.getm_aborts_store = value.parse().ok()?,
            "getm_aborts_approx" => m.getm_aborts_approx = value.parse().ok()?,
            "aborts_intra_warp" => m.aborts_intra_warp = value.parse().ok()?,
            "aborts_validation" => m.aborts_validation = value.parse().ok()?,
            "getm_max_cause_ts" => m.getm_max_cause_ts = value.parse().ok()?,
            "metadata_overflow_peak" => m.metadata_overflow_peak = value.parse().ok()?,
            "eapg_early_aborts" => m.eapg_early_aborts = value.parse().ok()?,
            "eapg_broadcasts" => m.eapg_broadcasts = value.parse().ok()?,
            "atomics" => m.atomics = value.parse().ok()?,
            "cas_failures" => m.cas_failures = value.parse().ok()?,
            "rollovers" => m.rollovers = value.parse().ok()?,
            "watchdog_escalations" => m.watchdog_escalations = value.parse().ok()?,
            "serialized_commits" => m.serialized_commits = value.parse().ok()?,
            "l1_sector_misses" => m.l1_sector_misses = value.parse().ok()?,
            "llc_sector_misses" => m.llc_sector_misses = value.parse().ok()?,
            "dram_accesses" => m.dram_accesses = value.parse().ok()?,
            "dram_queue_stalls" => m.dram_queue_stalls = value.parse().ok()?,
            "degraded" => m.degraded = value.parse().ok()?,
            "mean_metadata_access_cycles" => m.mean_metadata_access_cycles = parse_opt_f64(value)?,
            "mean_stall_waiters_per_addr" => m.mean_stall_waiters_per_addr = parse_opt_f64(value)?,
            "partition_imbalance" => m.partition_imbalance = parse_opt_f64(value)?,
            "l1_hit_rate" => m.l1_hit_rate = value.parse().ok()?,
            "llc_hit_rate" => m.llc_hit_rate = value.parse().ok()?,
            "mean_access_rt" => m.mean_access_rt = value.parse().ok()?,
            "mean_rounds_per_region" => m.mean_rounds_per_region = value.parse().ok()?,
            "mean_vu_queue_delay" => m.mean_vu_queue_delay = value.parse().ok()?,
            "mean_data_latency" => m.mean_data_latency = value.parse().ok()?,
            "check" => {
                saw_check = true;
                m.check = match value {
                    "none" => None,
                    "ok" => Some(Ok(())),
                    other => Some(Err(unescape(other.strip_prefix("err:")?))),
                }
            }
            // Unknown fields from a newer writer: ignore, don't reject —
            // the FORMAT line is what gates compatibility.
            _ => {}
        }
    }
    // The `check` line doubles as an end-of-entry marker: an entry cut at
    // a line boundary (losing only trailing lines) must not round-trip as
    // a half-filled Metrics.
    if !saw_check {
        return None;
    }
    m.xbar_by_category = map;
    if let Some(buckets) = hist_buckets {
        m.metadata_latency = sim_core::LogHistogram::from_parts(buckets, hist_sum, hist_max);
    }
    Some(m)
}

/// `none` → `Ok(None)`; otherwise the value must parse as an f64 (outer
/// `None` = corrupt line = cache miss).
fn parse_opt_f64(value: &str) -> Option<Option<f64>> {
    if value == "none" {
        Some(None)
    } else {
        Some(Some(value.parse().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> Metrics {
        let mut m = Metrics {
            cycles: 123_456,
            commits: 7_680,
            aborts: 321,
            silent_commits: 12,
            tx_exec_cycles: 99_000,
            tx_wait_cycles: 1_234,
            xbar_bytes: 5_555_555,
            mean_metadata_access_cycles: Some(1.0625),
            max_stall_occupancy: 7,
            mean_stall_waiters_per_addr: Some(1.000_000_1),
            stall_full_aborts: 2,
            stall_queued: 40,
            getm_aborts_load: 100,
            getm_aborts_store: 200,
            getm_aborts_approx: 3,
            aborts_intra_warp: 11,
            aborts_validation: 13,
            getm_max_cause_ts: 888,
            metadata_overflow_peak: 1,
            eapg_early_aborts: 4,
            eapg_broadcasts: 5,
            l1_hit_rate: 0.912_345_678_9,
            llc_hit_rate: 0.1,
            atomics: 6,
            cas_failures: 7,
            rollovers: 0,
            mean_access_rt: 210.5,
            mean_rounds_per_region: 1.5,
            mean_vu_queue_delay: 0.25,
            mean_data_latency: f64::MAX / 3.0, // exercises extreme floats
            check: Some(Ok(())),
            degraded: true,
            watchdog_escalations: 2,
            serialized_commits: 17,
            ..Metrics::default()
        };
        m.xbar_by_category.insert("commit", 1024);
        m.xbar_by_category.insert("tm-access", 2048);
        for v in [1, 1, 2, 3, 300, 70_000] {
            m.metadata_latency.observe(v);
        }
        m
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let m = sample_metrics();
        let parsed = parse_metrics(&serialize_metrics(&m)).expect("parse");
        assert_eq!(m, parsed);
    }

    #[test]
    fn failed_check_round_trips_with_newlines() {
        let m = Metrics {
            check: Some(Err("line one\nline \\two".into())),
            ..Metrics::default()
        };
        let parsed = parse_metrics(&serialize_metrics(&m)).expect("parse");
        assert_eq!(m, parsed);
    }

    #[test]
    fn escape_round_trips_and_frames() {
        for s in ["", "plain", "a\nb", "back\\slash", "\\n literal", "\n\\\n"] {
            let e = escape(s);
            assert!(!e.contains('\n'), "{e:?}");
            assert_eq!(unescape(&e), s, "{e:?}");
        }
        // The escaped form is what existing cache entries hold.
        assert_eq!(escape("a\\b\nc"), "a\\\\b\\nc");
        assert_eq!(unescape("a\\tb\\"), "a\\tb\\");
    }

    #[test]
    fn version_mismatch_is_a_miss() {
        let mut text = serialize_metrics(&Metrics::default());
        text = text.replacen("v6", "v0", 1);
        assert!(parse_metrics(&text).is_none());
    }

    #[test]
    fn garbage_is_a_miss() {
        assert!(parse_metrics("").is_none());
        assert!(parse_metrics("getm-metrics-v6\ncycles=abc\n").is_none());
        assert!(parse_metrics("getm-metrics-v6\nnot a line\n").is_none());
    }

    #[test]
    fn truncated_entry_is_a_logged_miss_not_a_wrong_answer() {
        // A torn write (e.g. from a crashed pre-atomic writer, or disk
        // corruption) can cut an entry mid-line. The parser must reject
        // the whole entry rather than return half-filled metrics, and the
        // cache must then recompute-and-overwrite cleanly.
        let dir = std::env::temp_dir().join(format!(
            "getm-cache-trunc-{}-{:p}",
            std::process::id(),
            &FORMAT
        ));
        let cache = ResultCache::new(&dir);
        let m = sample_metrics();
        let full = serialize_metrics(&m);
        // Cut in the middle of a `key=value` line: the tail line loses its
        // '=' or its digits, so split_once/parse fails.
        let cut = full.len() - 7;
        std::fs::create_dir_all(cache.dir()).unwrap();
        std::fs::write(cache.dir().join("0badc0de.metrics"), &full[..cut]).unwrap();

        assert!(
            parse_metrics(&full[..cut]).is_none(),
            "torn text must not parse"
        );
        // Truncation at a clean line boundary (whole trailing lines lost)
        // must also be rejected — `check` is the end-of-entry marker.
        let boundary = full[..full.len() - 1].rfind('\n').unwrap() + 1;
        assert!(full[..boundary].ends_with('\n'));
        assert!(
            parse_metrics(&full[..boundary]).is_none(),
            "line-boundary truncation must not parse"
        );
        assert!(
            cache.load("0badc0de").is_none(),
            "torn entry must be a miss"
        );
        cache.store("0badc0de", &m).expect("store");
        assert_eq!(cache.load("0badc0de"), Some(m));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn none_means_round_trip() {
        let m = Metrics::default();
        assert_eq!(m.mean_metadata_access_cycles, None);
        let text = serialize_metrics(&m);
        assert!(text.contains("mean_metadata_access_cycles=none"));
        assert_eq!(parse_metrics(&text), Some(m));
    }

    #[test]
    fn stale_version_entry_is_transparently_recomputed() {
        // A cache directory seeded with a previous-format entry must
        // behave as if the entry were absent: the store-after-miss path
        // overwrites it with a current-format entry.
        let dir = std::env::temp_dir().join(format!(
            "getm-cache-stale-{}-{:p}",
            std::process::id(),
            &FORMAT
        ));
        let cache = ResultCache::new(&dir);
        let m = sample_metrics();
        // Write a v5-era file directly under the key's path.
        let old = serialize_metrics(&m).replacen("v6", "v5", 1);
        std::fs::create_dir_all(cache.dir()).unwrap();
        std::fs::write(cache.dir().join("cafef00d.metrics"), old).unwrap();
        assert_eq!(cache.entry_count(), 1);

        // The stale entry reads as a miss...
        assert!(cache.load("cafef00d").is_none());
        // ...and re-storing (what the sweep does after recomputing the
        // cell) upgrades it in place.
        cache.store("cafef00d", &m).expect("store");
        assert_eq!(cache.load("cafef00d"), Some(m));
        assert_eq!(cache.entry_count(), 1);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_fields_are_tolerated() {
        let mut text = serialize_metrics(&sample_metrics());
        text.push_str("a_future_field=42\n");
        assert_eq!(parse_metrics(&text), Some(sample_metrics()));
    }

    #[test]
    fn store_and_load_through_the_filesystem() {
        let dir = std::env::temp_dir().join(format!(
            "getm-cache-test-{}-{:p}",
            std::process::id(),
            &FORMAT
        ));
        let cache = ResultCache::new(&dir);
        assert!(cache.load("deadbeef").is_none());
        assert_eq!(cache.entry_count(), 0);

        let m = sample_metrics();
        cache.store("deadbeef", &m).expect("store");
        assert_eq!(cache.load("deadbeef"), Some(m));
        assert_eq!(cache.entry_count(), 1);
        assert!(cache.dir().ends_with(dir.file_name().unwrap()));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interning_reuses_known_categories() {
        assert_eq!(intern_category("commit"), "commit");
        assert_eq!(intern_category("brand-new"), "brand-new");
    }
}
