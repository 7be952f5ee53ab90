//! Integration tests for campaign telemetry: the event stream a sweep
//! emits is coherent (one terminal event per cell, bracketed by campaign
//! start/finish), equivalent across repeated runs modulo timing fields,
//! and schema-valid JSONL on disk.

use gputm::config::{GpuConfig, TmSystem};
use gputm::sweep::{run_sweep_report, ExperimentSpec, ResultCache, SweepOptions};
use gputm::telemetry::{CampaignEvent, JsonlSink, MemorySink, Telemetry};
use std::path::PathBuf;
use workloads::suite::Benchmark;

fn small_spec() -> ExperimentSpec {
    ExperimentSpec::grid()
        .benchmarks([Benchmark::HtH])
        .systems([TmSystem::Getm, TmSystem::FgLock])
        .base(GpuConfig::tiny_test())
        .build()
}

/// A scratch directory that cleans up after itself (no tempfile crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("getm-tel-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Strips the wall-clock fields out of an event, leaving only the
/// deterministic payload two equivalent streams must agree on.
fn normalized(ev: &CampaignEvent) -> CampaignEvent {
    let mut e = ev.clone();
    match &mut e {
        CampaignEvent::CellFinished { elapsed_ms, .. } => *elapsed_ms = 0,
        CampaignEvent::Throughput {
            cells_per_sec,
            eta_ms,
            ..
        } => {
            *cells_per_sec = 0.0;
            *eta_ms = 0;
        }
        CampaignEvent::CampaignFinished { elapsed_ms, .. } => *elapsed_ms = 0,
        _ => {}
    }
    e
}

/// Runs the small grid on one sweep worker with a capture sink attached,
/// and returns (metrics, events).
fn run_captured() -> (Vec<gputm::Metrics>, Vec<CampaignEvent>) {
    let (sink, captured) = MemorySink::new();
    let opts = SweepOptions::new()
        .threads(1)
        .telemetry(Telemetry::to_sinks(vec![Box::new(sink)]));
    let report = run_sweep_report(&small_spec(), &opts);
    assert!(report.is_complete(), "sweep: {:?}", report.failures);
    let metrics = report.outcomes.into_iter().map(|o| o.metrics).collect();
    let events = captured
        .lock()
        .unwrap()
        .iter()
        .map(|(_, e)| e.clone())
        .collect();
    (metrics, events)
}

/// Two runs of the same grid produce identical metrics and equivalent
/// event sequences modulo timing fields.
#[test]
fn repeated_sweeps_emit_equivalent_streams() {
    let (first_metrics, first_events) = run_captured();
    let (second_metrics, second_events) = run_captured();

    assert_eq!(first_metrics, second_metrics, "determinism contract");
    assert_eq!(
        first_events.len(),
        second_events.len(),
        "event counts diverged:\n  first: {:?}\n  second: {:?}",
        first_events
            .iter()
            .map(CampaignEvent::kind)
            .collect::<Vec<_>>(),
        second_events
            .iter()
            .map(CampaignEvent::kind)
            .collect::<Vec<_>>(),
    );
    for (a, b) in first_events.iter().zip(&second_events) {
        assert_eq!(normalized(a), normalized(b));
    }
}

/// Stream coherence: bracketed by campaign start/finish, every cell
/// queued then started, and exactly one terminal event per cell. On one
/// sweep worker the cells run one after another, and the stream says so:
/// each cell starts only after the previous cell's terminal event.
#[test]
fn stream_is_coherent() {
    let (_, events) = run_captured();
    let total = small_spec().len();

    assert!(matches!(
        events.first(),
        Some(CampaignEvent::CampaignStarted { resumed: 0, .. })
    ));
    assert!(matches!(
        events.last(),
        Some(CampaignEvent::CampaignFinished {
            failed: 0,
            skipped: 0,
            ..
        })
    ));
    for idx in 0..total {
        let of_cell: Vec<_> = events
            .iter()
            .filter(|e| e.cell_idx() == Some(idx))
            .collect();
        assert!(matches!(
            of_cell.first(),
            Some(CampaignEvent::CellQueued { .. })
        ));
        assert_eq!(
            of_cell.iter().filter(|e| e.is_terminal()).count(),
            1,
            "cell {idx} must have exactly one terminal event"
        );
    }
    let position = |idx: usize, pick: fn(&CampaignEvent) -> bool| {
        events
            .iter()
            .position(|e| e.cell_idx() == Some(idx) && pick(e))
            .unwrap_or_else(|| panic!("cell {idx} lacks an event"))
    };
    for idx in 1..total {
        let started = position(idx, |e| matches!(e, CampaignEvent::CellStarted { .. }));
        let previous_done = position(idx - 1, CampaignEvent::is_terminal);
        assert!(
            previous_done < started,
            "cell {idx} started before cell {} finished",
            idx - 1
        );
    }
    // Throughput samples at every completion: deterministic event count.
    let samples = events
        .iter()
        .filter(|e| matches!(e, CampaignEvent::Throughput { .. }))
        .count();
    assert_eq!(samples, total);
}

/// A warm second run recalls every cell from the cache and says so.
#[test]
fn cache_hits_are_reported_as_such() {
    let tmp = TempDir::new("hits");
    let run = || {
        let (sink, captured) = MemorySink::new();
        let opts = SweepOptions::new()
            .threads(1)
            .cache(ResultCache::new(&tmp.0))
            .telemetry(Telemetry::to_sinks(vec![Box::new(sink)]));
        assert!(run_sweep_report(&small_spec(), &opts).is_complete());
        let events: Vec<CampaignEvent> = captured
            .lock()
            .unwrap()
            .iter()
            .map(|(_, e)| e.clone())
            .collect();
        events
    };
    let cold = run();
    let warm = run();
    let hits = |evs: &[CampaignEvent]| {
        evs.iter()
            .filter(|e| matches!(e, CampaignEvent::CellCacheHit { .. }))
            .count()
    };
    let total = small_spec().len();
    assert_eq!(hits(&cold), 0);
    assert_eq!(hits(&warm), total);
    // Cache hits skip the worker entirely: no started events either.
    assert!(!warm
        .iter()
        .any(|e| matches!(e, CampaignEvent::CellStarted { .. })));
    // The recalled cycles match what the cold run computed.
    let cycles_of = |evs: &[CampaignEvent], want: usize| {
        evs.iter().find_map(|e| match e {
            CampaignEvent::CellFinished { idx, cycles, .. } if *idx == want => Some(*cycles),
            CampaignEvent::CellCacheHit { idx, cycles, .. } if *idx == want => Some(*cycles),
            _ => None,
        })
    };
    for idx in 0..total {
        assert_eq!(cycles_of(&cold, idx), cycles_of(&warm, idx));
    }
}

/// The JSONL sink writes one schema-valid JSON object per line with
/// monotonically non-decreasing timestamps.
#[test]
fn jsonl_file_is_schema_valid() {
    let tmp = TempDir::new("jsonl");
    std::fs::create_dir_all(&tmp.0).unwrap();
    let path = tmp.0.join("campaign.telemetry.jsonl");
    let opts = SweepOptions::new()
        .threads(1)
        .telemetry(Telemetry::to_sinks(vec![Box::new(
            JsonlSink::create(&path).expect("create"),
        )]));
    assert!(run_sweep_report(&small_spec(), &opts).is_complete());

    let text = std::fs::read_to_string(&path).expect("read back");
    let mut last_t = 0u64;
    let mut kinds = Vec::new();
    for line in text.lines() {
        assert!(
            line.starts_with("{\"t_ms\":") && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
        let t: u64 = line["{\"t_ms\":".len()..]
            .split(',')
            .next()
            .unwrap()
            .parse()
            .expect("t_ms is a number");
        assert!(t >= last_t, "timestamps must be monotone");
        last_t = t;
        let ev = line
            .split("\"ev\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .expect("ev field present");
        kinds.push(ev.to_string());
    }
    assert_eq!(kinds.first().map(String::as_str), Some("campaign_started"));
    assert_eq!(kinds.last().map(String::as_str), Some("campaign_finished"));
    assert_eq!(
        kinds.iter().filter(|k| *k == "cell_finished").count(),
        small_spec().len()
    );
}
