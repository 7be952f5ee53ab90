//! Bad command-line input exits cleanly: status 2, the error and the
//! usage text on stderr, and no panic message or backtrace.

use std::process::Command;

fn assert_usage_exit(bin: &str, args: &[&str], usage_marker: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr was {stderr}");
    assert!(
        stderr.contains(usage_marker),
        "{args:?}: no usage text on stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: panicked: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: wrote to stdout");
}

#[test]
fn sweep_rejects_an_unknown_flag() {
    let sweep = env!("CARGO_BIN_EXE_sweep");
    assert_usage_exit(sweep, &["--bogus"], "common flags");
    assert_usage_exit(sweep, &["--bogus"], "unknown flag \"--bogus\"");
}

#[test]
fn fig_rejects_an_unknown_flag_and_an_unknown_id() {
    let fig = env!("CARGO_BIN_EXE_fig");
    assert_usage_exit(fig, &["--bogus"], "common flags");
    assert_usage_exit(fig, &["fig99"], "usage: fig <");
}

#[test]
fn verify_rejects_zero_threads_and_an_unknown_gpu() {
    let verify = env!("CARGO_BIN_EXE_verify");
    assert_usage_exit(verify, &["--tiny", "--threads", "0"], "usage: verify");
    assert_usage_exit(verify, &["--tiny", "--threads", "0"], "positive integer");
    assert_usage_exit(verify, &["--gpu", "pascal"], "usage: verify");
    assert_usage_exit(verify, &["--gpu", "pascal"], "unknown gpu \"pascal\"");
}

#[test]
fn enginebench_rejects_bad_flags_before_measuring() {
    let bench = env!("CARGO_BIN_EXE_enginebench");
    assert_usage_exit(bench, &["--bogus"], "usage: enginebench");
    assert_usage_exit(bench, &["--check"], "--check needs a FILE");
}
