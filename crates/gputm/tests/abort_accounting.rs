//! Abort accounting: the trace and the abort counters tell the same story.
//!
//! Every lane abort the engine books emits one `TxAbort { cause, lanes }`
//! event and adds `lanes` to `Metrics::aborts` and, for the causes the
//! engine itself detects, to the matching per-cause counter. This test
//! runs every TM system on a contended and a capacity-bound workload with
//! a recorder that keeps every event, and checks that summing the trace
//! reproduces the counters: the total, the intra-warp and validation
//! tallies, and EAPG's early aborts (which count aborted lanes, not
//! broadcast hits).

use gputm::config::{GpuConfig, TmSystem};
use gputm::engine::Engine;
use sim_core::trace::{AbortCause, SimEvent};
use sim_core::Recorder;
use workloads::suite::{Benchmark, Scale};

#[test]
fn trace_abort_lanes_match_the_abort_counters() {
    let cfg = GpuConfig::tiny_test();
    for b in [Benchmark::HtH, Benchmark::Cl] {
        for system in TmSystem::ALL {
            let label = format!("{}/{}", b.name(), system.label());
            let w = b.build(Scale::Fast);
            let rec = Recorder::recording(usize::MAX);
            let mut e = Engine::new(w.as_ref(), system, &cfg).expect("engine builds");
            e.attach_recorder(rec.clone());
            let m = e.run().expect("cell completes");

            let bus = rec.bus().expect("recording recorder has a bus");
            let bus = bus.borrow();
            assert_eq!(bus.dropped(), 0, "{label}: the ring dropped events");
            // Lanes the trace attributes to `want` (`None`: to any cause).
            let traced = |want: Option<AbortCause>| -> u64 {
                bus.iter()
                    .filter_map(|(_, ev)| match *ev {
                        SimEvent::TxAbort { cause, lanes } if want.is_none_or(|w| w == cause) => {
                            Some(lanes as u64)
                        }
                        _ => None,
                    })
                    .sum()
            };
            assert_eq!(traced(None), m.aborts, "{label}: total aborts");
            assert_eq!(
                traced(Some(AbortCause::IntraWarp)),
                m.aborts_intra_warp,
                "{label}: intra-warp aborts"
            );
            assert_eq!(
                traced(Some(AbortCause::Validation)),
                m.aborts_validation,
                "{label}: validation aborts"
            );
            assert_eq!(
                traced(Some(AbortCause::EarlyAbort)),
                m.eapg_early_aborts,
                "{label}: EAPG early aborts"
            );
        }
    }
}
