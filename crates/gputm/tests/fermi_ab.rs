//! Fermi-preset A/B regression guard.
//!
//! The modern memory-model tier (sectored caches, hashed interleave, HBM
//! timing — DESIGN.md §16) is additive behind config: a
//! [`GpuConfig::fermi_15core`] run must stay **bit-identical** to the
//! tree that predates the tier. These fingerprints were captured from
//! that tree and committed; if a refactor of `gpu-mem` or the engine's
//! memory path shifts any of them, the Fermi model changed behaviour and
//! every published figure is in question.
//!
//! The fingerprint covers the headline metrics *and* an FNV-1a digest of
//! the full serialized event stream, so both timing and event ordering
//! are pinned. New metrics fields added by later PRs are deliberately
//! outside the fingerprint: the contract is that *pre-existing*
//! observables never move.
//!
//! A second table pins [`GpuConfig::volta_80core`] the same way, captured
//! before the engine tracked occupied warp slots in masks; no other
//! golden covers the preset. Its fast-scale grids do not fill a 64-slot
//! core, so `partial_warp.rs` covers that edge.
//!
//! Every cell runs twice, with idle skip-ahead on (the default) and off
//! (the reference loop that walks every cycle), and both runs must match
//! the one pinned row.
//!
//! To regenerate after an intentional model change (requires a ROADMAP
//! decision, not a casual rerun):
//!
//! ```text
//! FERMI_AB_PRINT=1 cargo test -p gputm --release --test fermi_ab -- --nocapture
//! ```

use gputm::config::{GpuConfig, TmSystem};
use gputm::engine::Engine;
use gputm::metrics::Metrics;
use sim_core::hash::{fnv1a_64, FNV_OFFSET};
use sim_core::Recorder;
use workloads::suite::{Benchmark, Scale};

/// Cells pinned by the guard: every TM system on a contended and a
/// mixed-contention benchmark, plus GETM across the rest of the suite's
/// `TxProgram`-independent benchmarks, all on the paper's 15-core Fermi.
fn cells() -> Vec<(Benchmark, TmSystem)> {
    let mut v = Vec::new();
    for system in TmSystem::ALL {
        v.push((Benchmark::Atm, system));
        v.push((Benchmark::HtH, system));
    }
    for b in [Benchmark::HtM, Benchmark::HtL, Benchmark::Cl, Benchmark::Bh] {
        v.push((b, TmSystem::Getm));
    }
    v
}

/// The committed fingerprints: `label => fingerprint` (see
/// [`fingerprint`]), captured on the pre-tier tree.
const GOLDEN: &[(&str, &str)] = &[
    ("ATM/FGLock", "cyc=22327 cmt=0 abt=0 sil=0 txe=0 txw=0 xbar=3001200 meta=ffffffffffffffff stallocc=0 stallq=0 abtl=0 abts=0 abta=0 abtiw=0 abtv=0 l1=0000000000000000 llc=3fb405c7850e946d atom=32120 cas=943 roll=0 rt=0000000000000000 rounds=0000000000000000 vu=0000000000000000 data=0000000000000000 deg=false trace=2c49a6310da220c7"),
    ("HT-H/FGLock", "cyc=9527 cmt=0 abt=0 sil=0 txe=0 txw=0 xbar=1014880 meta=ffffffffffffffff stallocc=0 stallq=0 abtl=0 abts=0 abta=0 abtiw=0 abtv=0 l1=0000000000000000 llc=3fedde4f0c0cabd5 atom=12529 cas=4849 roll=0 rt=0000000000000000 rounds=0000000000000000 vu=0000000000000000 data=0000000000000000 deg=false trace=e8aa497ff6f7e65f"),
    ("ATM/WarpTM", "cyc=29903 cmt=15360 abt=668 sil=0 txe=2918100 txw=1859602 xbar=2143216 meta=ffffffffffffffff stallocc=0 stallq=0 abtl=0 abts=0 abta=0 abtiw=12 abtv=656 l1=0000000000000000 llc=3fd4a2c08e9f764e atom=0 cas=0 roll=0 rt=4081bf1f8697ef11 rounds=3ffc911111111111 vu=0000000000000000 data=0000000000000000 deg=false trace=dbe24756da892232"),
    ("HT-H/WarpTM", "cyc=9671 cmt=7680 abt=4818 sil=0 txe=967613 txw=784863 xbar=1095008 meta=ffffffffffffffff stallocc=0 stallq=0 abtl=0 abts=0 abta=0 abtiw=97 abtv=4721 l1=0000000000000000 llc=3fee139b22dbd212 atom=0 cas=0 roll=0 rt=40779e398345a169 rounds=400ef77777777777 vu=0000000000000000 data=0000000000000000 deg=false trace=9d3207893954fe0b"),
    ("ATM/WarpTM-EL", "cyc=12426 cmt=15360 abt=157 sil=0 txe=1252285 txw=746356 xbar=1509264 meta=ffffffffffffffff stallocc=0 stallq=0 abtl=0 abts=0 abta=0 abtiw=12 abtv=145 l1=0000000000000000 llc=3fc81c7f1b3b53e0 atom=0 cas=0 roll=0 rt=408337d0b87eb76c rounds=3ff4800000000000 vu=0000000000000000 data=0000000000000000 deg=false trace=7c0bb02240e2faed"),
    ("HT-H/WarpTM-EL", "cyc=6067 cmt=7680 abt=1062 sil=0 txe=635016 txw=425929 xbar=543272 meta=ffffffffffffffff stallocc=0 stallq=0 abtl=0 abts=0 abta=0 abtiw=51 abtv=1011 l1=0000000000000000 llc=3fecce2108c92528 atom=0 cas=0 roll=0 rt=407d5a3435729806 rounds=4002000000000000 vu=0000000000000000 data=0000000000000000 deg=false trace=3dbec1bd8158d11f"),
    ("ATM/EAPG", "cyc=29485 cmt=15360 abt=884 sil=0 txe=2891757 txw=1924081 xbar=2639264 meta=ffffffffffffffff stallocc=0 stallq=0 abtl=0 abts=0 abta=0 abtiw=12 abtv=565 l1=0000000000000000 llc=3fd7172e53abf4b2 atom=0 cas=0 roll=0 rt=407f45e1b4117e52 rounds=3fff555555555555 vu=0000000000000000 data=0000000000000000 deg=false trace=c7eacc9165cb7f38"),
    ("HT-H/EAPG", "cyc=9998 cmt=7680 abt=5195 sil=0 txe=1005130 txw=818129 xbar=1578840 meta=ffffffffffffffff stallocc=0 stallq=0 abtl=0 abts=0 abta=0 abtiw=97 abtv=4288 l1=0000000000000000 llc=3fee132c8bfe4e50 atom=0 cas=0 roll=0 rt=4075c4420b38960b rounds=4011444444444444 vu=0000000000000000 data=0000000000000000 deg=false trace=06683becd2a6a537"),
    ("ATM/GETM", "cyc=42041 cmt=15360 abt=22726 sil=0 txe=3696646 txw=1412469 xbar=4717616 meta=4005247f0dd62433 stallocc=6 stallq=112 abtl=9175 abts=19118 abta=22968 abtiw=19 abtv=0 l1=0000000000000000 llc=3fd8420750998a0e atom=0 cas=0 roll=0 rt=4074f6731b21826c rounds=400e5dddddddddde vu=40239f90ed34bcb2 data=405e0f60179dd673 deg=false trace=859f3bbc400080aa"),
    ("HT-H/GETM", "cyc=12080 cmt=7680 abt=9746 sil=0 txe=942954 txw=377273 xbar=1702208 meta=3ffaaf261ddafe35 stallocc=19 stallq=655 abtl=4235 abts=6674 abta=3489 abtiw=101 abtv=0 l1=0000000000000000 llc=3fed4b7fb4faa28a atom=0 cas=0 roll=0 rt=4069714a51cd5a95 rounds=4010555555555555 vu=4038370799b7c424 data=403c45458a741c5b deg=false trace=53c52d12928b703b"),
    ("HT-M/GETM", "cyc=11596 cmt=7680 abt=8338 sil=0 txe=879674 txw=258220 xbar=1577200 meta=4001e353f094f9dd stallocc=5 stallq=90 abtl=3890 abts=6184 abta=8868 abtiw=4 abtv=0 l1=0000000000000000 llc=3fe6ed04016a78fc atom=0 cas=0 roll=0 rt=40727bfd6149dc87 rounds=4007ddddddddddde vu=4034a7d2fa2e6f39 data=404b398edf4f95a4 deg=false trace=cf11dc40bd7bbf08"),
    ("HT-L/GETM", "cyc=11792 cmt=7680 abt=9076 sil=0 txe=933293 txw=286335 xbar=1642304 meta=4002a4a9f7f13115 stallocc=1 stallq=10 abtl=4032 abts=7182 abta=10945 abtiw=0 abtv=0 l1=0000000000000000 llc=3fe0d5858f7a6730 atom=0 cas=0 roll=0 rt=407376da2718dd0a rounds=4007111111111111 vu=403376d51ad44798 data=4052c628e0e144b2 deg=false trace=f2848994510d8f14"),
    ("CL/GETM", "cyc=79156 cmt=12640 abt=176524 sil=0 txe=6616306 txw=10445324 xbar=6134272 meta=3ff0000000000000 stallocc=28 stallq=4170 abtl=9207 abts=28124 abta=0 abtiw=125625 abtv=0 l1=0000000000000000 llc=3fefe6279889b507 atom=0 cas=0 roll=0 rt=405b6a800ea9a2fd rounds=403c6aefcc26e2d6 vu=3fe0ec937bee334d data=4049fa7ac6a808dc deg=false trace=387e188f32f3ac83"),
    ("BH/GETM", "cyc=85467 cmt=7680 abt=104526 sil=0 txe=8117410 txw=6399169 xbar=3406912 meta=3ff73b3a09b9c78a stallocc=47 stallq=2020 abtl=14393 abts=5895 abta=1816 abtiw=38050 abtv=0 l1=0000000000000000 llc=3feab96427731040 atom=0 cas=0 roll=0 rt=406b17ca60d1c8c6 rounds=4036633333333333 vu=3ff91e1f761a76e8 data=4050b8333d5a8589 deg=false trace=66bb3705d9c5bb7c"),
];

/// An explicit-field fingerprint of one run. Floats are formatted with
/// full precision via their bit patterns so "bit-identical" means exactly
/// that.
fn fingerprint(m: &Metrics, trace: &str) -> String {
    let f = |x: f64| x.to_bits();
    let of = |x: Option<f64>| x.map(|v| v.to_bits()).unwrap_or(u64::MAX);
    format!(
        "cyc={} cmt={} abt={} sil={} txe={} txw={} xbar={} meta={:016x} \
         stallocc={} stallq={} abtl={} abts={} abta={} abtiw={} abtv={} \
         l1={:016x} llc={:016x} atom={} cas={} roll={} rt={:016x} \
         rounds={:016x} vu={:016x} data={:016x} deg={} trace={:016x}",
        m.cycles,
        m.commits,
        m.aborts,
        m.silent_commits,
        m.tx_exec_cycles,
        m.tx_wait_cycles,
        m.xbar_bytes,
        of(m.mean_metadata_access_cycles),
        m.max_stall_occupancy,
        m.stall_queued,
        m.getm_aborts_load,
        m.getm_aborts_store,
        m.getm_aborts_approx,
        m.aborts_intra_warp,
        m.aborts_validation,
        f(m.l1_hit_rate),
        f(m.llc_hit_rate),
        m.atomics,
        m.cas_failures,
        m.rollovers,
        f(m.mean_access_rt),
        f(m.mean_rounds_per_region),
        f(m.mean_vu_queue_delay),
        f(m.mean_data_latency),
        m.degraded,
        fnv1a_64(trace.as_bytes(), FNV_OFFSET),
    )
}

fn run_cell(cfg: &GpuConfig, b: Benchmark, system: TmSystem, idle_skip: bool) -> String {
    let w = b.build(Scale::Fast);
    let rec = Recorder::recording(1 << 16);
    let mut e = Engine::new(w.as_ref(), system, cfg).expect("engine builds");
    e.set_idle_skip(idle_skip);
    e.attach_recorder(rec.clone());
    let m = e.run().expect("cell completes");
    let trace = rec
        .bus()
        .expect("recording recorder has a bus")
        .borrow()
        .serialize_text();
    fingerprint(&m, &trace)
}

/// Runs every cell on `cfg` with idle skip-ahead on and off (the
/// reference loop) and compares both runs with `golden`, or prints the
/// skip-on table rows instead when `FERMI_AB_PRINT` is set.
fn check_golden(
    what: &str,
    cfg: &GpuConfig,
    cells: &[(Benchmark, TmSystem)],
    golden: &[(&str, &str)],
) {
    let print = std::env::var("FERMI_AB_PRINT").is_ok();
    let mut failures = Vec::new();
    for &(b, system) in cells {
        let label = format!("{}/{}", b.name(), system.label());
        if print {
            let actual = run_cell(cfg, b, system, true);
            println!("    (\"{label}\", \"{actual}\"),");
            continue;
        }
        let Some((_, want)) = golden.iter().find(|(l, _)| *l == label) else {
            failures.push(format!("{label}: no pinned fingerprint"));
            continue;
        };
        for (idle_skip, path) in [(true, "skip-ahead"), (false, "reference loop")] {
            let actual = run_cell(cfg, b, system, idle_skip);
            if *want != actual {
                failures.push(format!(
                    "{label} ({path}):\n  pinned  {want}\n  actual  {actual}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{what} drifted from its pinned fingerprints:\n{}",
        failures.join("\n")
    );
}

#[test]
fn fermi_15core_is_bit_identical_to_the_pretier_tree() {
    check_golden("fermi_15core", &GpuConfig::fermi_15core(), &cells(), GOLDEN);
}

/// Volta cells: the contended HT-H and ATM under the two systems the
/// `volta-hbm` benchmark compares.
const VOLTA_GOLDEN: &[(&str, &str)] = &[
    ("HT-H/GETM", "cyc=7181 cmt=7680 abt=21802 sil=0 txe=1154396 txw=177907 xbar=3102000 meta=3ffd498bb6d578e7 stallocc=169 stallq=3003 abtl=909 abts=26158 abta=11482 abtiw=189 abtv=0 l1=0000000000000000 llc=3fe8bee74051ef00 atom=0 cas=0 roll=0 rt=4066c22b7a774250 rounds=4021dbbbbbbbbbbc vu=403807ce57943b35 data=403e5c2752da6d82 deg=false trace=02de21bbbc3e06d5"),
    ("HT-H/WarpTM", "cyc=5467 cmt=7680 abt=12910 sil=0 txe=891647 txw=79078 xbar=2032176 meta=ffffffffffffffff stallocc=0 stallq=0 abtl=0 abts=0 abta=0 abtiw=148 abtv=12762 l1=0000000000000000 llc=3fea838e7ba30409 atom=0 cas=0 roll=0 rt=407266a32718f8a9 rounds=4016155555555555 vu=0000000000000000 data=0000000000000000 deg=false trace=37a570ad06ec03e8"),
    ("ATM/GETM", "cyc=22974 cmt=15360 abt=67036 sil=0 txe=4308307 txw=442508 xbar=11304624 meta=40088908753a7ac2 stallocc=32 stallq=805 abtl=996 abts=109001 abta=87702 abtiw=49 abtv=0 l1=0000000000000000 llc=3feb866c16de3124 atom=0 cas=0 roll=0 rt=40654aeae907a43e rounds=40242dddddddddde vu=40230bc3af788bff data=40501a788a66d22d deg=false trace=dadd1cfd06b0c59f"),
    ("ATM/WarpTM", "cyc=9681 cmt=15360 abt=1588 sil=0 txe=1836034 txw=13751 xbar=2491176 meta=ffffffffffffffff stallocc=0 stallq=0 abtl=0 abts=0 abta=0 abtiw=12 abtv=1576 l1=0000000000000000 llc=3fe30808377a7925 atom=0 cas=0 roll=0 rt=40779cbf68af8bdb rounds=4001666666666666 vu=0000000000000000 data=0000000000000000 deg=false trace=1e8db499e8aa9887"),
];

#[test]
fn volta_80core_is_bit_identical_to_its_pinned_fingerprints() {
    let cells: Vec<_> = [Benchmark::HtH, Benchmark::Atm]
        .into_iter()
        .flat_map(|b| [(b, TmSystem::Getm), (b, TmSystem::WarpTmLL)])
        .collect();
    check_golden(
        "volta_80core",
        &GpuConfig::volta_80core(),
        &cells,
        VOLTA_GOLDEN,
    );
}
