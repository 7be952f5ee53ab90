//! Golden-trace determinism: the event stream a traced cell produces is a
//! pure function of its [`CellSpec`] — byte-identical whether the cell
//! runs alone on the main thread or concurrently with a parallel sweep
//! hammering every worker core.
//!
//! This is the tracing companion to the sweep's serial-vs-parallel
//! metrics-equality test: if these streams ever diverge, some simulator
//! state leaked across runs (a global, an unseeded RNG, iteration over an
//! unordered map) and neither traces nor metrics can be trusted.

use gputm::config::{GpuConfig, TmSystem};
use gputm::sweep::{run_sweep_report, CellSpec, ExperimentSpec, SweepOptions};
use sim_core::Recorder;
use workloads::suite::{Benchmark, Scale};

fn traced_cell() -> CellSpec {
    CellSpec::new(
        Benchmark::Atm,
        Scale::Fast,
        TmSystem::Getm,
        GpuConfig::tiny_test(),
    )
}

/// Runs the cell with a fresh recorder and returns the serialized stream.
fn capture() -> (String, gputm::metrics::Metrics) {
    let rec = Recorder::recording(1 << 20);
    let metrics = traced_cell().run_traced(rec.clone()).expect("traced run");
    let bus = rec.bus().expect("recording recorder has a bus");
    let text = bus.borrow().serialize_text();
    assert_eq!(bus.borrow().dropped(), 0, "ring must not wrap in this test");
    (text, metrics)
}

#[test]
fn golden_trace_is_identical_across_serial_and_parallel_runs() {
    // Golden stream: serial, quiet machine.
    let (golden, golden_metrics) = capture();
    assert!(!golden.is_empty(), "the traced run must emit events");

    // Re-capture while a parallel sweep saturates the worker pool, and in
    // sibling threads racing each other — scheduling noise must not reach
    // the stream.
    let spec = ExperimentSpec::grid()
        .benchmarks([Benchmark::HtH])
        .systems([TmSystem::Getm, TmSystem::WarpTmLL, TmSystem::FgLock])
        .base(GpuConfig::tiny_test())
        .build();
    std::thread::scope(|scope| {
        let sweep = scope.spawn(|| run_sweep_report(&spec, &SweepOptions::new().threads(3)));
        let racers: Vec<_> = (0..2).map(|_| scope.spawn(capture)).collect();
        for r in racers {
            let (text, metrics) = r.join().expect("racer thread");
            assert_eq!(text, golden, "event stream diverged under contention");
            assert_eq!(metrics, golden_metrics);
        }
        let report = sweep.join().expect("sweep thread");
        assert!(
            report.is_complete(),
            "sweep must succeed: {:?}",
            report.failures
        );
    });

    // And the sweep path itself (untraced) still agrees with the traced
    // run's metrics: tracing is observational.
    let swept = traced_cell().run().expect("untraced run");
    assert_eq!(swept, golden_metrics);
}
