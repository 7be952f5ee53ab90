//! End-to-end smoke of the Volta-class memory tier: every TM system must
//! run to completion on the `tiny_volta` machine (sectored streaming L1,
//! xor-hashed banked LLC, HBM pseudo-channel timing), populate the
//! memory-tier counters the Fermi model cannot produce, and stay
//! bit-identical from run to run — the HBM engine state (bank/channel busy
//! horizons, bounded in-flight queue) must obey the same determinism
//! contract as the LLC tag arrays.

use gputm::prelude::*;

#[test]
fn every_system_completes_on_the_volta_tier() {
    let cfg = GpuConfig::tiny_volta();
    cfg.validate().expect("tiny_volta is a valid machine");
    for system in TmSystem::ALL {
        let w = Benchmark::HtM.build(Scale::Fast);
        let m = Sim::new(&cfg)
            .system(system)
            .run(w.as_ref())
            .unwrap_or_else(|e| panic!("HT-M under {system} on volta tier: {e}"));
        // FGLock is the non-transactional baseline: it locks instead of
        // committing, so only progress (cycles) is asserted for it.
        if system != TmSystem::FgLock {
            assert!(m.commits > 0, "{system}: no commits on the volta tier");
        }
        assert!(m.cycles > 0, "{system}: empty run on the volta tier");
        assert!(
            m.dram_accesses > 0,
            "{system}: volta runs must count DRAM accesses"
        );
        // The xor-hash interleave must keep partition pressure balanced
        // (the gauge is None only below its significance floor).
        if let Some(imb) = m.partition_imbalance {
            assert!(
                imb < 10.0,
                "{system}: xor-hash interleave left {imb:.1}x partition imbalance"
            );
        }
    }
}

#[test]
fn volta_tier_metrics_differ_from_fermi_on_the_same_workload() {
    // Same workload, same scale: the two memory models must actually
    // produce different timing (if they agreed, the tier would be dead
    // config). The volta tier also surfaces sector misses, which the
    // unsectored fermi arrays can never count.
    let w = Benchmark::HtH.build(Scale::Fast);
    let run = |cfg: &GpuConfig| {
        Sim::new(cfg)
            .system(TmSystem::Getm)
            .run(w.as_ref())
            .expect("run completes")
    };
    let fermi = run(&GpuConfig::tiny_test());
    let volta = run(&GpuConfig::tiny_volta());
    assert_ne!(
        fermi.cycles, volta.cycles,
        "fermi and volta tiers produced identical timing"
    );
    assert_eq!(
        fermi.l1_sector_misses + fermi.llc_sector_misses,
        0,
        "unsectored fermi arrays cannot have sector misses"
    );
    assert_eq!(
        fermi.dram_queue_stalls, 0,
        "the fixed-latency fermi model has no HBM queue"
    );
    // Both machines ran the same program to completion.
    assert_eq!(fermi.commits, volta.commits);
}

#[test]
fn volta_tier_is_bit_identical_run_to_run() {
    let cfg = GpuConfig::tiny_volta();
    let w = Benchmark::Atm.build(Scale::Fast);
    for system in [TmSystem::Getm, TmSystem::WarpTmLL, TmSystem::Eapg] {
        let run = || Sim::new(&cfg).system(system).run(w.as_ref()).expect("run");
        assert_eq!(run(), run(), "{system} volta tier diverged between runs");
    }
}

#[test]
fn volta_runs_certify_under_the_history_oracle() {
    // The memory tier changes timing only — a verified run on the volta
    // machine must still serialize. This guards against the HBM path
    // reordering value capture relative to commit application.
    let w = Benchmark::HtH.build(Scale::Fast);
    let out = Sim::new(&GpuConfig::tiny_volta())
        .system(TmSystem::Getm)
        .run_with(w.as_ref(), &RunOptions::default().verify(true))
        .expect("verified run completes");
    let verdict = out.verdict.expect("verify(true) always yields a verdict");
    assert!(
        verdict.ok(),
        "volta-tier GETM run failed certification: {}",
        verdict.summary()
    );
}

#[test]
fn memory_image_holds_one_page_per_touched_32_kib_region() {
    // The committed image indexes 64-bit words, 4096 to a page, in one
    // map: a run can materialize at most one page per 32 KiB region its
    // footprint touches, whatever the machine's partition count.
    let prog = Benchmark::HtH
        .tx_program(Scale::Fast)
        .expect("HT-H is a transactional program");
    let regions: std::collections::BTreeSet<u64> = prog
        .footprint()
        .iter()
        .flat_map(|s| s.base >> 15..=(s.end() - 1) >> 15)
        .collect();
    for cfg in [GpuConfig::fermi_15core(), GpuConfig::volta_80core()] {
        let mut e = gputm::engine::Engine::new(prog.workload(), TmSystem::Getm, &cfg)
            .expect("engine builds");
        e.run().expect("HT-H runs to completion");
        prog.check(&e.memory_reader())
            .expect("HT-H invariants hold");
        let pages = e.memory_image().page_count();
        assert!(
            pages <= regions.len(),
            "{} partitions: {pages} pages for {} touched 32 KiB regions",
            cfg.partitions,
            regions.len()
        );
    }
}
