//! Crash-safe resume, end to end: SIGKILL the `sweep` binary mid-campaign,
//! rerun it with `--resume`, and require stdout byte-identical to an
//! uninterrupted serial run's — with one worker thread or several.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BENCHES: [&str; 3] = ["HT-H", "ATM", "CC"];

/// A `sweep` of [`BENCHES`] into `cache`, plus `args`.
fn sweep_cmd(cache: &Path, args: &[&str]) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_sweep"));
    c.args(["--tiny", "--quiet", "--cache-dir"])
        .arg(cache)
        .args(BENCHES)
        .args(args);
    c
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("getm-resume-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// How many files in `dir` have extension `ext`.
fn entries(dir: &Path, ext: &str) -> usize {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == ext))
                .count()
        })
        .unwrap_or(0)
}

/// Spawns `cmd` and SIGKILLs it as soon as the first cell lands in
/// `cache`. Returns whether the kill ended it; a sweep that finished (or
/// wedged past the deadline) first is still valid for the callers.
fn kill_after_first_cell(mut cmd: Command, cache: &Path) -> bool {
    let mut child = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sweep");
    let deadline = Instant::now() + Duration::from_secs(300);
    while entries(cache, "metrics") < 1
        && child.try_wait().expect("try_wait").is_none()
        && Instant::now() <= deadline
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().ok();
    !child.wait().expect("wait").success()
}

/// Kills a sweep run on `workers` once its first cell is on disk,
/// resumes it on the same workers, and requires the resumed stdout to be
/// byte-identical to an uninterrupted serial run's.
fn killed_sweep_resumes_to_the_serial_bytes(tag: &str, workers: &[&str]) {
    // Reference: the uninterrupted serial campaign in its own cache
    // directory.
    let ref_dir = tmp_dir(&format!("{tag}-ref"));
    let reference = sweep_cmd(&ref_dir, &["--serial"])
        .output()
        .expect("run sweep");
    assert!(
        reference.status.success(),
        "reference sweep failed: {}",
        String::from_utf8_lossy(&reference.stderr)
    );

    // Victim: same campaign, fresh directory, SIGKILLed as soon as the
    // first cell lands on disk (mid-campaign by construction: three
    // cells, one completed, any other still running).
    let crash_dir = tmp_dir(&format!("{tag}-crash"));
    if kill_after_first_cell(sweep_cmd(&crash_dir, workers), &crash_dir) {
        // The kill left an unfinished campaign: its journal must survive
        // with fewer cells than the sweep has.
        assert_eq!(
            entries(&crash_dir, "journal"),
            1,
            "a killed campaign must leave its journal"
        );
        assert!(entries(&crash_dir, "metrics") < BENCHES.len());
    }

    // Resume: recomputes only what the kill destroyed; stdout must be
    // byte-identical to the uninterrupted reference.
    let resumed = sweep_cmd(&crash_dir, &[workers, &["--resume"]].concat())
        .output()
        .expect("resume sweep");
    assert!(
        resumed.status.success(),
        "resumed sweep failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&reference.stdout),
        String::from_utf8_lossy(&resumed.stdout),
        "resumed campaign must reproduce the uninterrupted output exactly"
    );
    // The completed campaign cleans up after itself.
    assert_eq!(
        entries(&crash_dir, "journal"),
        0,
        "a completed campaign must remove its journal"
    );

    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

#[test]
fn killed_sweep_resumes_byte_identically() {
    killed_sweep_resumes_to_the_serial_bytes("serial", &["--serial"]);
}

/// Two worker threads: the kill lands with the other worker mid-cell,
/// and the `--jobs 2 --resume` rerun still prints the serial bytes.
#[test]
fn killed_parallel_sweep_resumes_to_the_serial_bytes() {
    killed_sweep_resumes_to_the_serial_bytes("jobs2", &["--jobs", "2"]);
}

/// The `ev` field of a telemetry JSONL line.
fn ev_of(line: &str) -> Option<&str> {
    line.split("\"ev\":\"").nth(1)?.split('"').next()
}

/// The `idx` field of a telemetry JSONL line.
fn idx_of(line: &str) -> Option<usize> {
    line.split("\"idx\":")
        .nth(1)?
        .split([',', '}'])
        .next()?
        .parse()
        .ok()
}

/// Telemetry across a crash: the victim's JSONL is a valid prefix (only
/// the final line may be torn by the SIGKILL), and the `--resume` rerun
/// emits a coherent stream — exactly one terminal event per cell, with
/// the cells the crash completed recalled as cache hits.
#[test]
fn killed_campaign_telemetry_resumes_coherently() {
    let crash_dir = tmp_dir("tel-crash");
    std::fs::create_dir_all(&crash_dir).expect("mkdir");
    let crash_tel = crash_dir.join("crash.telemetry.jsonl");
    let resume_tel = crash_dir.join("resume.telemetry.jsonl");

    let killed = kill_after_first_cell(
        sweep_cmd(
            &crash_dir,
            &["--serial", "--telemetry", crash_tel.to_str().unwrap()],
        ),
        &crash_dir,
    );
    let recalled = entries(&crash_dir, "metrics");

    // The JSONL sink flushes per event, so the kill can tear at most the
    // final line: every line before it must be a complete JSON object.
    let crashed_text = std::fs::read_to_string(&crash_tel).expect("crash telemetry exists");
    let complete_lines = crashed_text.lines().count().saturating_sub(1);
    for line in crashed_text.lines().take(complete_lines) {
        assert!(
            line.starts_with("{\"t_ms\":") && line.ends_with('}'),
            "non-final line torn: {line}"
        );
        assert!(ev_of(line).is_some(), "line without ev: {line}");
    }

    // Resume with a fresh telemetry stream.
    let resumed = sweep_cmd(
        &crash_dir,
        &[
            "--serial",
            "--resume",
            "--telemetry",
            resume_tel.to_str().unwrap(),
        ],
    )
    .output()
    .expect("resume sweep");
    assert!(
        resumed.status.success(),
        "resumed sweep failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );

    let text = std::fs::read_to_string(&resume_tel).expect("resume telemetry exists");
    let lines: Vec<&str> = text.lines().collect();
    for line in &lines {
        assert!(
            line.starts_with("{\"t_ms\":") && line.ends_with('}'),
            "resumed stream must be fully valid: {line}"
        );
    }
    assert_eq!(ev_of(lines[0]), Some("campaign_started"));
    assert_eq!(ev_of(lines[lines.len() - 1]), Some("campaign_finished"));

    // Exactly one terminal event per cell, no failures.
    let mut terminals = vec![0usize; BENCHES.len()];
    let mut hits = 0usize;
    for line in &lines {
        match ev_of(line) {
            Some("cell_cache_hit") => {
                hits += 1;
                terminals[idx_of(line).expect("idx")] += 1;
            }
            Some("cell_finished") => terminals[idx_of(line).expect("idx")] += 1,
            Some("cell_failed") => panic!("no cell may fail in this campaign: {line}"),
            _ => {}
        }
    }
    assert_eq!(
        terminals,
        vec![1; BENCHES.len()],
        "one terminal event per cell"
    );
    // Every cell the crash got onto disk comes back as a cache hit.
    if killed {
        assert!(
            hits >= recalled.min(BENCHES.len()),
            "expected >= {recalled} cache-hit events, saw {hits}"
        );
    }

    std::fs::remove_dir_all(&crash_dir).ok();
}
