//! Idle skip-ahead edge cases.
//!
//! The engine may jump the clock over stretches where every warp is
//! parked, but the jump must be invisible: watchdog windows that straddle
//! the skipped region still run, probe gauges are still sampled at every
//! 64-cycle boundary, the cancel token is still polled on its cadence, and
//! the cycle budget still trips at the exact same point. Each test here
//! pins one of those seams with a workload that spends most of its life
//! idle.

use gpu_mem::Addr;
use gpu_simt::{BoxedProgram, Op, OpResult, ThreadProgram};
use gputm::config::{GpuConfig, TmSystem};
use gputm::engine::Engine;
use gputm::metrics::Metrics;
use sim_core::{CancelToken, Recorder, SimError};
use workloads::idle::IdleHeavy;
use workloads::{SyncMode, Workload};

/// A thread program that spins and commits forever: the run only ends
/// when something outside the machine stops it.
struct EndlessSpin {
    slot: Addr,
    spin: u32,
    phase: u8,
    round: u64,
}

impl ThreadProgram for EndlessSpin {
    fn next(&mut self, _prev: OpResult) -> Op {
        let op = match self.phase {
            0 => Op::Compute(self.spin),
            1 => Op::TxBegin,
            2 => Op::TxLoad(self.slot),
            3 => Op::TxStore(self.slot, self.round + 1),
            _ => Op::TxCommit,
        };
        if self.phase == 4 {
            self.phase = 0;
            self.round += 1;
        } else {
            self.phase += 1;
        }
        op
    }

    fn rollback(&mut self) {
        // Rewind to the first op inside the (private, never-aborting)
        // transaction.
        self.phase = 2;
    }
}

/// An [`IdleHeavy`]-shaped workload that never terminates.
struct Endless {
    threads: usize,
    spin: u32,
}

impl Workload for Endless {
    fn name(&self) -> &str {
        "ENDLESS"
    }

    fn initial_memory(&self) -> Vec<(Addr, u64)> {
        Vec::new()
    }

    fn thread_count(&self) -> usize {
        self.threads
    }

    fn program(&self, tid: usize, _mode: SyncMode) -> BoxedProgram {
        Box::new(EndlessSpin {
            slot: IdleHeavy::slot(tid),
            spin: self.spin,
            phase: 0,
            round: 0,
        })
    }

    fn check(&self, _mem: &dyn Fn(Addr) -> u64) -> Result<(), String> {
        Ok(())
    }
}

/// Runs `w` with the given loop path, returning metrics, trace, and the
/// workload's own invariant check.
fn run_path(
    w: &IdleHeavy,
    cfg: &GpuConfig,
    idle_skip: bool,
) -> (Metrics, String, Result<(), String>) {
    let rec = Recorder::recording(1 << 21);
    let mut e = Engine::new(w, TmSystem::Getm, cfg).expect("engine builds");
    e.set_idle_skip(idle_skip);
    e.attach_recorder(rec.clone());
    let m = e.run().expect("run completes");
    let check = w.check(&e.memory_reader());
    let text = rec
        .bus()
        .expect("recording recorder has a bus")
        .borrow()
        .serialize_text();
    (m, text, check)
}

/// Watchdog windows that start or end inside a skipped region must still
/// be accounted: an odd window length guarantees check cycles land at
/// unaligned points all over the skipped spans.
#[test]
fn watchdog_windows_straddle_skipped_regions() {
    let mut cfg = GpuConfig::tiny_test();
    cfg.watchdog.window = 1013;
    let w = IdleHeavy {
        threads: 32,
        rounds: 12,
        spin: 3000,
    };
    let (m_off, t_off, c_off) = run_path(&w, &cfg, false);
    let (m_on, t_on, c_on) = run_path(&w, &cfg, true);
    c_off.expect("legacy path satisfies the workload invariant");
    c_on.expect("skip path satisfies the workload invariant");
    assert_eq!(m_off, m_on, "watchdog accounting diverged across a skip");
    assert_eq!(t_off, t_on, "traces diverged with a straddling watchdog");
}

/// Probe gauges sample every 64 cycles while tracing. A skip over
/// thousands of idle cycles must synthesize exactly the samples the
/// cycle-by-cycle loop would have emitted.
#[test]
fn probe_gauges_are_synthesized_across_jumps() {
    let cfg = GpuConfig::tiny_test();
    let w = IdleHeavy {
        threads: 8,
        rounds: 6,
        spin: 5000,
    };
    let (m_off, t_off, _) = run_path(&w, &cfg, false);
    let (m_on, t_on, _) = run_path(&w, &cfg, true);
    assert_eq!(m_off, m_on);
    assert!(
        t_on.contains("vu-backlog"),
        "idle-heavy traced run must contain probe samples"
    );
    assert_eq!(t_off, t_on, "probe samples diverged across a jump");
}

/// The cancel token is polled every 8192 cycles. A skip must never jump
/// over a poll point, so cancellation is always noticed at a poll
/// boundary no matter how long the idle stretch it interrupts.
#[test]
fn cancellation_lands_on_a_poll_boundary_despite_skips() {
    let mut cfg = GpuConfig::tiny_test();
    cfg.max_cycles = u64::MAX;
    let w = Endless {
        threads: 32,
        spin: 40_000,
    };
    let mut e = Engine::new(&w, TmSystem::Getm, &cfg).expect("engine builds");
    e.set_idle_skip(true);
    let token = CancelToken::new();
    e.attach_cancel(token.clone());
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(30));
        token.cancel();
    });
    let err = e.run().expect_err("cancelled run must not complete");
    canceller.join().expect("canceller thread");
    match err {
        SimError::Interrupted { cycle } => {
            assert_eq!(
                cycle % 0x2000,
                0,
                "cancellation noticed off the poll cadence (cycle {cycle})"
            );
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
}

/// A cycle budget that lands mid-skip must still trip at exactly the
/// budget: the skip target is capped at `max_cycles`.
#[test]
fn cycle_limit_trips_identically_when_it_lands_mid_skip() {
    let mut cfg = GpuConfig::tiny_test();
    cfg.max_cycles = 12_345; // deliberately not a multiple of any cadence
    let w = IdleHeavy {
        threads: 32,
        rounds: 1000,
        spin: 7000,
    };
    let mut results = Vec::new();
    for idle_skip in [false, true] {
        let rec = Recorder::recording(1 << 21);
        let mut e = Engine::new(&w, TmSystem::Getm, &cfg).expect("engine builds");
        e.set_idle_skip(idle_skip);
        e.attach_recorder(rec.clone());
        let err = e.run().expect_err("budget must trip");
        assert_eq!(
            err,
            SimError::CycleLimitExceeded { limit: 12_345 },
            "idle_skip={idle_skip}"
        );
        results.push(
            rec.bus()
                .expect("recording recorder has a bus")
                .borrow()
                .serialize_text(),
        );
    }
    assert_eq!(
        results[0], results[1],
        "pre-limit traces diverged between loop paths"
    );
}
