//! The backend trait contract: [`SimBackend`] is observationally a thin
//! adapter (metrics bit-identical to driving [`Sim`] directly), and one
//! backend-neutral [`TxProgram`] definition runs unmodified on both the
//! simulator and the host-threaded TL2 STM, certified by the same oracle.

mod common;

use common::CounterStress;
use gputm::prelude::*;
use workloads::atm::Atm;
use workloads::fuzz::{Fuzz, FuzzShape};
use workloads::hashtable::HashTable;

fn small_programs(seed: u64) -> Vec<TxProgram> {
    vec![
        HashTable::new("HT-H", 256, 256, seed).tx_program(),
        Atm::new(2_048, 256, 2, seed).tx_program(),
    ]
}

/// `SimBackend::execute` must produce exactly the metrics a direct
/// `Sim::run_with` produces — the adapter adds an API, not a behavior,
/// and the TL2 thread count does not reach the simulator.
#[test]
fn sim_backend_metrics_match_direct_sim() {
    let cfg = GpuConfig::tiny_test();
    for system in [TmSystem::Getm, TmSystem::WarpTmLL, TmSystem::FgLock] {
        for prog in small_programs(0xA11CE) {
            for threads in [1usize, 4] {
                let backend = SimBackend::new(cfg.clone(), system);
                let bopts = BackendOptions::default().threads(threads);
                let via_backend = backend
                    .execute(&prog, &bopts)
                    .expect("sim backend run completes")
                    .metrics;

                let direct = Sim::new(&cfg)
                    .system(system)
                    .run_with(prog.workload(), &RunOptions::default())
                    .expect("direct sim run completes")
                    .metrics
                    .expect("completed runs carry metrics");

                assert_eq!(
                    via_backend,
                    direct,
                    "{} on {} with {threads} thread(s): backend metrics diverge from direct Sim",
                    prog.name(),
                    system.label()
                );
            }
        }
    }
}

/// The same `TxProgram` values — hashtable, bank, fuzz, counter — run on
/// both backends; each run passes its workload invariant check and is
/// certified by the oracle at the strictness the backend promises.
#[test]
fn one_definition_runs_on_both_backends() {
    let mut programs = small_programs(0xBEEF);
    programs.push(Fuzz::new(FuzzShape::MixedAliasing, 24, 3, 0xBEEF).tx_program());
    programs.push(CounterStress::new(16, 25, 64).tx_program());

    let backends: Vec<Box<dyn TmBackend>> = vec![
        Box::new(SimBackend::new(GpuConfig::tiny_test(), TmSystem::Getm)),
        Box::new(Tl2Backend::new()),
    ];
    let opts = BackendOptions::default().record_history(true).threads(4);

    for prog in &programs {
        for backend in &backends {
            let out = backend
                .execute(prog, &opts)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", prog.name(), backend.name()));
            out.check(prog)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", prog.name(), backend.name()));
            let verdict = out
                .verdict(prog, backend.guarantees_opacity())
                .expect("recording runs carry a history");
            assert!(
                verdict.ok(),
                "{} on {}: {}",
                prog.name(),
                backend.name(),
                verdict.summary()
            );
            assert!(
                out.metrics.commits > 0,
                "{} on {}: no commits recorded",
                prog.name(),
                backend.name()
            );
        }
    }
}

/// The contended counter is exact on TL2 across thread counts: every
/// lost update is a missed conflict, so equality with threads*rounds is
/// the sharpest possible linearization check.
#[test]
fn tl2_counter_stress_is_exact() {
    let stress = CounterStress::new(24, 50, 128);
    let prog = stress.tx_program();
    let backend = Tl2Backend::new();
    for threads in [2usize, 4, 8] {
        let opts = BackendOptions::default()
            .record_history(true)
            .threads(threads)
            .seed(0xC0_FFEE + threads as u64);
        let out = backend.execute(&prog, &opts).expect("TL2 run completes");
        out.check(&prog)
            .unwrap_or_else(|e| panic!("{threads} threads: {e}"));
        let verdict = out.verdict(&prog, true).expect("history recorded");
        assert!(verdict.ok(), "{threads} threads: {}", verdict.summary());
    }
}
