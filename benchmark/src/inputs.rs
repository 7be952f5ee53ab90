//! Seeded benchmark inputs.
//!
//! Mirrors the `Scale::Fast`/`Scale::Paper` sizes of
//! `workloads::suite::Benchmark::build` but takes the seed as an argument,
//! so the benchmark's `--seed` picks the inputs while the program under
//! test receives only the generated workloads. The seed also re-roots the
//! simulated machine's random streams (backoff, hashing). At
//! [`DEFAULT_SEED`] both are exactly the suite's: the same inputs the
//! figures and tests use.
//!
//! Cloth (CL, CLto) and CudaCuts (CC) take no seed and Barnes-Hut's bodies
//! do not depend on its seed (it only names the run): for these, at any
//! seed, only the machine's random streams vary.

use gputm::GpuConfig;
use workloads::apriori::Apriori;
use workloads::atm::Atm;
use workloads::barneshut::BarnesHut;
use workloads::cloth::Cloth;
use workloads::cudacuts::CudaCuts;
use workloads::fuzz::{Fuzz, FuzzShape};
use workloads::hashtable::HashTable;
use workloads::suite::{Benchmark, Scale};
use workloads::{TxProgram, Workload};

/// The suite's own input seed (0xBEEF).
pub const DEFAULT_SEED: u64 = 0xBEEF;

/// A seed kept out of every measurement made while writing the benchmark,
/// for checking claims on inputs nobody tuned against.
pub const HELD_OUT_SEED: u64 = 0x5EED_CAFE;

/// `cfg` with its random streams re-rooted at `seed`; the preset itself at
/// [`DEFAULT_SEED`].
pub fn machine(mut cfg: GpuConfig, seed: u64) -> GpuConfig {
    cfg.seed ^= seed ^ DEFAULT_SEED;
    cfg
}

/// `b` as a backend-neutral program, for the benchmarks expressed that way.
pub fn tx_program(b: Benchmark, scale: Scale, seed: u64) -> Option<TxProgram> {
    let fast = scale == Scale::Fast;
    Some(match b {
        Benchmark::HtH if fast => HashTable::new("HT-H", 7_680, 7_680, seed).tx_program(),
        Benchmark::HtH => HashTable::new("HT-H", 8_000, 8_192, seed).tx_program(),
        Benchmark::HtM if fast => HashTable::new("HT-M", 76_800, 7_680, seed).tx_program(),
        Benchmark::HtM => HashTable::new("HT-M", 80_000, 8_192, seed).tx_program(),
        Benchmark::HtL if fast => HashTable::new("HT-L", 768_000, 7_680, seed).tx_program(),
        Benchmark::HtL => HashTable::new("HT-L", 800_000, 8_192, seed).tx_program(),
        Benchmark::Atm if fast => Atm::new(500_000, 7_680, 2, seed).tx_program(),
        Benchmark::Atm => Atm::new(1_000_000, 15_360, 4, seed).tx_program(),
        _ => return None,
    })
}

/// `b`'s simulator workload at `scale`, drawn from `seed`.
pub fn workload(b: Benchmark, scale: Scale, seed: u64) -> Box<dyn Workload> {
    if let Some(p) = tx_program(b, scale, seed) {
        return p.into_workload();
    }
    let fast = scale == Scale::Fast;
    match b {
        Benchmark::Cl if fast => Box::new(Cloth::cl(80, 80, 1)),
        Benchmark::Cl => Box::new(Cloth::cl(175, 175, 1)),
        Benchmark::ClTo if fast => Box::new(Cloth::clto(80, 80, 1)),
        Benchmark::ClTo => Box::new(Cloth::clto(175, 175, 1)),
        Benchmark::Bh if fast => Box::new(BarnesHut::new(7_680, seed)),
        Benchmark::Bh => Box::new(BarnesHut::new(30_000, seed)),
        Benchmark::Cc if fast => Box::new(CudaCuts::new(112, 72, 1)),
        Benchmark::Cc => Box::new(CudaCuts::new(200, 150, 2)),
        Benchmark::Ap if fast => Box::new(Apriori::new(256, 3_840, 1, seed)),
        Benchmark::Ap => Box::new(Apriori::new(256, 4_000, 2, seed)),
        Benchmark::HtH | Benchmark::HtM | Benchmark::HtL | Benchmark::Atm => {
            unreachable!("{b} builds through tx_program")
        }
    }
}

/// An adversarial fuzz program: 128 threads of 16 transactions, enough
/// overlap between two host threads that TL2 retries.
pub fn fuzz_program(shape: FuzzShape, seed: u64) -> TxProgram {
    Fuzz::new(shape, 128, 16, seed).tx_program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gputm::sweep::CellSpec;
    use gputm::{Sim, TmSystem};

    #[test]
    fn default_seed_reproduces_the_suite() {
        let base = GpuConfig::tiny_test();
        let cfg = machine(base.clone(), DEFAULT_SEED);
        assert_eq!(cfg.seed, base.seed);
        for b in Benchmark::ALL {
            let ours = Sim::new(&cfg)
                .system(TmSystem::Getm)
                .run(workload(b, Scale::Fast, DEFAULT_SEED).as_ref())
                .expect("seeded cell runs");
            let suite = CellSpec::new(b, Scale::Fast, TmSystem::Getm, base.clone())
                .run()
                .expect("suite cell runs");
            assert_eq!(ours, suite, "{b}");
            assert_eq!(ours.check, Some(Ok(())), "{b}");
        }
    }

    #[test]
    fn sizes_mirror_the_suite_at_both_scales() {
        for scale in [Scale::Fast, Scale::Paper] {
            for b in Benchmark::ALL {
                let ours = workload(b, scale, DEFAULT_SEED);
                let suite = b.build(scale);
                assert_eq!(ours.name(), suite.name());
                assert_eq!(ours.thread_count(), suite.thread_count(), "{b} {scale:?}");
                assert_eq!(
                    ours.initial_memory(),
                    suite.initial_memory(),
                    "{b} {scale:?}"
                );
            }
        }
    }

    #[test]
    fn another_seed_gives_another_run() {
        let run = |seed| {
            Sim::new(&machine(GpuConfig::tiny_test(), seed))
                .run(workload(Benchmark::HtH, Scale::Fast, seed).as_ref())
                .expect("seeded cell runs")
        };
        let (a, b) = (run(DEFAULT_SEED), run(HELD_OUT_SEED));
        assert_eq!(a.commits, b.commits, "same sizes");
        assert_ne!(a, b, "different keys and random streams");
        let cl = |s| workload(Benchmark::Cl, Scale::Fast, s).initial_memory();
        assert_eq!(cl(DEFAULT_SEED), cl(HELD_OUT_SEED), "cloth is fixed");
    }
}
