//! A grid whose thread count is not a multiple of the warp width.
//!
//! The last warp is partial, so its lane masks cover fewer lanes than the
//! machine's `warp_width`: it must still count as finished once its own
//! lanes are done, or the engine never retires it and never drains.

use gputm::config::{GpuConfig, TmSystem};
use gputm::engine::Engine;
use workloads::atm::Atm;
use workloads::Workload;

#[test]
fn a_partial_last_warp_drains_under_every_system() {
    let cfg = GpuConfig::tiny_test();
    let w = Atm::new(64, 33, 2, 5);
    assert_eq!(w.thread_count(), 33);
    assert_ne!(w.thread_count() % cfg.warp_width as usize, 0);
    for system in TmSystem::ALL {
        let mut e = Engine::new(&w, system, &cfg).expect("engine builds");
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
    }
}
