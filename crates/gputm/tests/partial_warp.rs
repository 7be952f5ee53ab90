//! Masks at their edges: a partial last warp and a full 64-slot core.
//!
//! When the thread count is not a multiple of the warp width, the last
//! warp is partial, so its lane masks cover fewer lanes than the
//! machine's `warp_width`: it must still count as finished once its own
//! lanes are done, or the engine never retires it and never drains. A
//! core's occupied-slot mask has the same 64-bit edge.

use gputm::config::{GpuConfig, TmSystem};
use gputm::engine::Engine;
use workloads::atm::Atm;
use workloads::Workload;

/// Runs `w` on `cfg` under every system, with idle skip on and off: each
/// run drains, passes the workload's check and leaks no tokens, and the
/// two loop paths give identical metrics.
fn drains_under_every_system(cfg: &GpuConfig, w: &Atm) {
    for system in TmSystem::ALL {
        let mut runs = Vec::new();
        for skip in [true, false] {
            let mut e = Engine::new(w, system, cfg).expect("engine builds");
            e.set_idle_skip(skip);
            let m = e
                .run()
                .unwrap_or_else(|err| panic!("{system}: run failed: {err}"));
            if let Err(err) = w.check(&e.memory_reader()) {
                panic!("{system}: invariant violated: {err}");
            }
            assert_eq!(e.outstanding_tokens(), 0, "{system}: leaked tokens");
            if system.is_tm() {
                assert!(m.commits > 0, "{system}: committed nothing");
            }
            runs.push(m);
        }
        assert_eq!(runs[0], runs[1], "{system}: idle skip changed the metrics");
    }
}

#[test]
fn a_partial_last_warp_drains_under_every_system() {
    let cfg = GpuConfig::tiny_test();
    let w = Atm::new(64, 33, 2, 5);
    assert_eq!(w.thread_count(), 33);
    assert_ne!(w.thread_count() % cfg.warp_width as usize, 0);
    drains_under_every_system(&cfg, &w);
}

/// One core of 64 slots fed 100 one-lane warps: slot 63 fills, 36 warps
/// wait in the pending queue and refill slots as warps retire, and then
/// the slots empty one by one.
#[test]
fn a_full_64_slot_core_refills_and_drains_under_every_system() {
    let mut cfg = GpuConfig::tiny_test();
    cfg.cores = 1;
    cfg.warps_per_core = 64;
    cfg.warp_width = 1;
    let w = Atm::new(64, 100, 2, 5);
    assert_eq!(w.thread_count(), 100);
    drains_under_every_system(&cfg, &w);
}
