//! Machine configuration: the simulated GPU's geometry and timing, plus
//! the transactional-memory system selector.
//!
//! The defaults follow the paper's Table II: a Fermi-class GPU with 15
//! SIMT cores of 48 x 32-wide warps, six memory partitions with 128 KB LLC
//! banks, two crossbars, and GDDR5-like latencies. The 56-core scalability
//! configuration (Sec. VI-B, Fig. 17) doubles the precise metadata table
//! and scales the LLC to 4 MB in eight banks.

use getm::vu::GetmConfig;
use gpu_mem::{CacheConfig, DramConfig, Interleave, XbarConfig};
use sim_core::SimError;
use tm_structs::{CuckooConfig, StallConfig};

/// How the engine times LLC-miss traffic (DESIGN.md §16).
///
/// The two models are *additive behind config*: every pre-existing
/// preset uses [`MemModel::FermiFixed`] and is bit-identical to the tree
/// that predates [`MemModel::Hbm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemModel {
    /// The paper's Fermi-class model: every LLC miss costs exactly
    /// `llc_service + dram.latency` cycles, with no occupancy tracking.
    #[default]
    FermiFixed,
    /// Modern-GPU model (Khairy et al.): per-partition HBM pseudo-channels
    /// with bandwidth occupancy and bounded outstanding-request queues,
    /// plus a banked-LLC service model ([`GpuConfig::llc_banks`]) where
    /// concurrent accesses to one bank queue behind each other.
    Hbm,
}

/// Which synchronization system executes the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TmSystem {
    /// GETM: eager conflict detection, lazy versioning (this paper).
    Getm,
    /// WarpTM: lazy value-based validation with TCD silent commits (best
    /// prior art, the paper's main baseline).
    WarpTmLL,
    /// The idealized eager-lazy WarpTM variant of the paper's Sec. III
    /// study (zero-latency per-access validation).
    WarpTmEL,
    /// Idealized EAPG: WarpTM plus commit-time conflict broadcasts.
    Eapg,
    /// Hand-optimized fine-grained locks (non-TM baseline).
    FgLock,
}

impl TmSystem {
    /// All systems, in the order the paper's figures present them.
    pub const ALL: [TmSystem; 5] = [
        TmSystem::FgLock,
        TmSystem::WarpTmLL,
        TmSystem::WarpTmEL,
        TmSystem::Eapg,
        TmSystem::Getm,
    ];

    /// Whether this system runs workloads in transactional mode.
    pub fn is_tm(self) -> bool {
        !matches!(self, TmSystem::FgLock)
    }

    /// Whether the system guarantees *opacity*: every transactional
    /// attempt — aborted ones included — observes a consistent snapshot.
    ///
    /// No TM system here makes that promise, each for its own reason.
    /// Value-based validation (WarpTM-LL, and EAPG which layers broadcasts
    /// over it) only checks at commit; even the idealized eager-lazy
    /// variant (WarpTM-EL) re-validates at the *next* access, so a commit
    /// landing between two reads is discovered one access too late. GETM
    /// comes closest — eager access-time locks squash most doomed attempts
    /// before a conflicting write can land — but its WAR aborts are
    /// *asynchronous*: when a logically-earlier writer invalidates a
    /// later reader's reservation, the doomed reader keeps issuing reads
    /// until the abort notification reaches its core, and those reads can
    /// observe logically-future state (the paper, like all GPU HTMs,
    /// relies on sandboxing doomed lanes rather than claiming opacity).
    /// The verifier therefore *waives* (but still counts, see
    /// [`crate::verify::Verdict::opacity_waived`]) torn aborted snapshots
    /// for every TM system; committed transactions are always held to full
    /// serializability.
    pub fn guarantees_opacity(self) -> bool {
        match self {
            TmSystem::Getm | TmSystem::WarpTmLL | TmSystem::WarpTmEL | TmSystem::Eapg => false,
            // No transactions at all: vacuously opaque.
            TmSystem::FgLock => true,
        }
    }

    /// Display label used by the benchmark harness.
    pub fn label(self) -> &'static str {
        match self {
            TmSystem::Getm => "GETM",
            TmSystem::WarpTmLL => "WarpTM",
            TmSystem::WarpTmEL => "WarpTM-EL",
            TmSystem::Eapg => "EAPG",
            TmSystem::FgLock => "FGLock",
        }
    }
}

impl std::fmt::Display for TmSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing an unknown TM-system name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTmSystem(pub String);

impl std::fmt::Display for UnknownTmSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = TmSystem::ALL.iter().map(|s| s.label()).collect();
        write!(
            f,
            "unknown TM system {:?} (expected one of {})",
            self.0,
            names.join(", ")
        )
    }
}

impl std::error::Error for UnknownTmSystem {}

impl std::str::FromStr for TmSystem {
    type Err = UnknownTmSystem;

    /// Case-insensitive parse of the harness labels ("GETM", "WarpTM",
    /// "WarpTM-EL", "EAPG", "FGLock"), so CLI surfaces round-trip
    /// [`TmSystem::label`] without their own lookup tables.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TmSystem::ALL
            .into_iter()
            .find(|sys| sys.label().eq_ignore_ascii_case(s))
            .ok_or_else(|| UnknownTmSystem(s.to_owned()))
    }
}

/// Deliberate protocol faults for exercising the verification oracle.
///
/// Every variant other than [`Sabotage::None`] is inert unless the crate is
/// built with the `sabotage` feature; release builds carry only the enum so
/// configurations hash and cache identically across feature sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sabotage {
    /// Faithful protocol execution.
    #[default]
    None,
    /// GETM cores treat load-conflict abort replies as successes, so a
    /// doomed transaction keeps running on stale data and commits.
    GetmIgnoreLoadAborts,
    /// WarpTM partitions forge logged read values to the current committed
    /// values during validation, so stale snapshots always pass and push
    /// their writes through commit (manufactured lost updates).
    WtmForgeReadValidation,
}

/// Forward-progress watchdog configuration.
///
/// The watchdog samples GPU-wide commit progress once per `window` cycles.
/// A window in which transactional warps were live but *nothing committed*
/// counts as starved; consecutive starved windows walk a degradation
/// ladder — widen every warp's backoff (cheap, often enough), then enter
/// *serialization fallback* (one starving warp is granted priority while
/// the rest are throttled, the software analogue of the serial-irrevocable
/// fallback hardware TMs use), and finally give up with a diagnostic
/// [`sim_core::LivelockReport`] instead of burning the whole
/// [`GpuConfig::max_cycles`] budget.
///
/// Healthy workloads commit every window, so an enabled watchdog never
/// fires on them and the simulation is bit-identical to one without it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Master switch; `false` restores the bare `max_cycles` bail.
    pub enabled: bool,
    /// Progress window in cycles.
    pub window: u64,
    /// Consecutive starved windows before backoff escalation.
    pub escalate_after: u32,
    /// Consecutive starved windows before serialization fallback. Set
    /// above `livelock_after` to disable the fallback entirely (the
    /// watchdog then reports livelock without trying to degrade).
    pub serialize_after: u32,
    /// Consecutive starved windows before declaring livelock.
    pub livelock_after: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            enabled: true,
            window: 250_000,
            escalate_after: 2,
            serialize_after: 4,
            livelock_after: 16,
        }
    }
}

impl WatchdogConfig {
    /// A disabled watchdog (bare `max_cycles` behaviour).
    pub fn disabled() -> Self {
        WatchdogConfig {
            enabled: false,
            ..WatchdogConfig::default()
        }
    }

    /// A watchdog that never serializes: starvation escalates backoff and
    /// then reports livelock directly. Used to *diagnose* pathological
    /// workloads rather than push them through.
    #[must_use]
    pub fn without_fallback(mut self) -> Self {
        self.serialize_after = self.livelock_after + 1;
        self
    }

    /// Whether serialization fallback can ever engage.
    pub fn fallback_enabled(&self) -> bool {
        self.serialize_after <= self.livelock_after
    }
}

/// Full machine + protocol configuration.
#[derive(Debug, Clone)]
pub struct GpuConfig {
    /// Number of SIMT cores.
    pub cores: u32,
    /// Resident warps per core.
    pub warps_per_core: u32,
    /// Threads per warp.
    pub warp_width: u32,
    /// Memory partitions (LLC banks).
    pub partitions: u32,
    /// LLC line size in bytes.
    pub line_bytes: u64,
    /// TM metadata granularity in bytes (Fig. 14 sweeps 16..128).
    pub granule_bytes: u64,
    /// Max warps per core with open transactions; `None` = unlimited.
    pub tx_concurrency: Option<u32>,
    /// Crossbar timing (each direction).
    pub xbar: XbarConfig,
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// LLC bank geometry (per partition).
    pub llc_bank: CacheConfig,
    /// LLC service latency in cycles (tag + data access, pipelined).
    pub llc_service: u64,
    /// Independent LLC sub-banks per partition. With 1 the LLC is the
    /// paper's single pipelined bank; more banks only matter under
    /// [`MemModel::Hbm`], where same-bank accesses queue behind each
    /// other and different banks proceed in parallel.
    pub llc_banks: u32,
    /// How line addresses interleave across partitions.
    pub interleave: Interleave,
    /// LLC-miss timing model (fixed Fermi latency vs occupied HBM).
    pub mem_model: MemModel,
    /// DRAM channel timing (per partition).
    pub dram: DramConfig,
    /// GETM validation-unit configuration (per partition).
    pub getm: GetmConfig,
    /// TCD table entries per partition (WarpTM).
    pub tcd_entries: usize,
    /// Logical-timestamp rollover threshold (48-bit by default).
    pub ts_limit: u64,
    /// Simulation cycle budget before a run is declared livelocked.
    pub max_cycles: u64,
    /// Forward-progress watchdog (starvation detection + degradation).
    pub watchdog: WatchdogConfig,
    /// Root seed for every random stream in the run.
    pub seed: u64,
    /// Fault-injection selector (a no-op without the `sabotage` feature).
    pub sabotage: Sabotage,
}

impl GpuConfig {
    /// The paper's baseline: a GTX 480-like GPU (Table II).
    pub fn fermi_15core() -> Self {
        GpuConfig {
            cores: 15,
            warps_per_core: 48,
            warp_width: 32,
            partitions: 6,
            line_bytes: 128,
            granule_bytes: 32,
            tx_concurrency: Some(8),
            xbar: XbarConfig::default(),
            l1: CacheConfig::paper_l1d(),
            llc_bank: CacheConfig::paper_llc_bank(),
            llc_service: 90,
            llc_banks: 1,
            interleave: Interleave::Modulo,
            mem_model: MemModel::FermiFixed,
            dram: DramConfig::default(),
            getm: GetmConfig::paper_default_per_partition(6),
            tcd_entries: 1024,
            ts_limit: 1 << 48,
            max_cycles: 200_000_000,
            watchdog: WatchdogConfig::default(),
            seed: 0x6E7A,
            sabotage: Sabotage::None,
        }
    }

    /// The 56-core scalability configuration: 4 MB LLC in eight banks,
    /// doubled precise metadata tables (Sec. VI-B).
    pub fn large_56core() -> Self {
        let mut cfg = GpuConfig::fermi_15core();
        cfg.cores = 56;
        cfg.partitions = 8;
        cfg.llc_bank = CacheConfig::unsectored(4 * 1024 * 1024 / 8, 128, 8);
        // GETM: double only the precise table; WarpTM doubles its recency
        // filter, which the engine scales via tcd_entries.
        cfg.getm = GetmConfig {
            cuckoo: CuckooConfig {
                total_entries: (8192 / 8 / 4) * 4,
                ..CuckooConfig::default()
            },
            bloom_entries_per_way: 1024 / 8 / 4,
            bloom_ways: 4,
            stall: StallConfig::default(),
            ..GetmConfig::default()
        };
        cfg.tcd_entries = 2048;
        cfg
    }

    /// A Volta-class GPU (GV100-like), the modern memory-model tier of
    /// DESIGN.md §16: 80 SIMT cores of 64 warps, 24 memory partitions
    /// behind a hashed interleave, a 128 KB sectored streaming L1, 6 MB
    /// of sectored banked LLC, and HBM2 timing with dual pseudo-channels
    /// per partition. Metadata structures scale with the partition count
    /// the same way the paper's do, so the protocol comparison stays
    /// apples-to-apples with [`GpuConfig::fermi_15core`] — only the
    /// memory system moves.
    pub fn volta_80core() -> Self {
        let mut cfg = GpuConfig::fermi_15core();
        cfg.cores = 80;
        cfg.warps_per_core = 64;
        cfg.partitions = 24;
        cfg.l1 = CacheConfig::volta_l1d();
        cfg.llc_bank = CacheConfig::volta_llc_bank();
        cfg.llc_banks = 4;
        cfg.interleave = Interleave::XorHash;
        cfg.mem_model = MemModel::Hbm;
        cfg.dram = DramConfig::hbm();
        // ~2 TB/s of NVLink-era crossbar across 24 ports.
        cfg.xbar = XbarConfig {
            latency: 5,
            port_bytes_per_cycle: 64,
        };
        cfg.getm = GetmConfig::paper_default_per_partition(24);
        cfg.tcd_entries = 4096;
        cfg
    }

    /// A tiny Volta-tier machine for unit tests and CI smoke: the
    /// [`GpuConfig::tiny_test`] core/warp scale with every modern
    /// memory-model knob on (sectored streaming L1, hashed interleave,
    /// banked LLC, HBM timing).
    pub fn tiny_volta() -> Self {
        let mut cfg = GpuConfig::tiny_test();
        cfg.l1 = CacheConfig {
            capacity_bytes: 8 * 1024,
            ..CacheConfig::volta_l1d()
        };
        cfg.llc_bank = CacheConfig {
            capacity_bytes: 32 * 1024,
            ..CacheConfig::volta_llc_bank()
        };
        cfg.llc_banks = 2;
        cfg.interleave = Interleave::XorHash;
        cfg.mem_model = MemModel::Hbm;
        cfg.dram = DramConfig::hbm();
        cfg
    }

    /// A small machine for unit tests: 2 cores, 4 warps, 2 partitions.
    pub fn tiny_test() -> Self {
        let mut cfg = GpuConfig::fermi_15core();
        cfg.cores = 2;
        cfg.warps_per_core = 4;
        cfg.warp_width = 4;
        cfg.partitions = 2;
        cfg.getm = GetmConfig::paper_default_per_partition(2);
        cfg.max_cycles = 20_000_000;
        cfg
    }

    /// Overrides the per-core transactional-concurrency throttle.
    pub fn with_concurrency(mut self, limit: Option<u32>) -> Self {
        self.tx_concurrency = limit;
        self
    }

    /// Overrides the metadata granularity (Fig. 14 bottom).
    pub fn with_granularity(mut self, bytes: u64) -> Self {
        self.granule_bytes = bytes;
        self
    }

    /// Overrides the GPU-wide precise-table entry budget (Fig. 14 top).
    pub fn with_metadata_entries(mut self, gpu_wide: usize) -> Self {
        self.getm.cuckoo.total_entries = ((gpu_wide / self.partitions as usize / 4).max(1)) * 4;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate geometry.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.cores == 0 {
            return Err(SimError::invalid_config("cores", "must be nonzero"));
        }
        // Both limits are the width of a mask: a warp's lanes and a core's
        // occupied slots are each tracked in one `u64`.
        if !(1..=64).contains(&self.warps_per_core) || !(1..=64).contains(&self.warp_width) {
            return Err(SimError::invalid_config(
                "warps",
                "warps_per_core and warp_width must each be in 1..=64",
            ));
        }
        if self.partitions == 0 {
            return Err(SimError::invalid_config("partitions", "must be nonzero"));
        }
        if !self.granule_bytes.is_power_of_two()
            || !self.line_bytes.is_power_of_two()
            || self.granule_bytes > self.line_bytes
        {
            return Err(SimError::invalid_config(
                "granularity",
                "granule and line must be powers of two with granule <= line",
            ));
        }
        // Cache geometry errors surface here as typed failures instead
        // of panicking inside SetAssocCache::new mid-sweep.
        for (what, cache) in [("l1 cache", &self.l1), ("llc bank", &self.llc_bank)] {
            if let Err(e) = cache.validate() {
                return Err(SimError::invalid_config(what, format!("{e}")));
            }
            if cache.line_bytes != self.line_bytes {
                return Err(SimError::invalid_config(
                    what,
                    format!(
                        "line size {} B disagrees with the machine's {} B lines",
                        cache.line_bytes, self.line_bytes
                    ),
                ));
            }
        }
        if self.llc_banks == 0 {
            return Err(SimError::invalid_config("llc_banks", "must be nonzero"));
        }
        if self.dram.pseudo_channels == 0 || self.dram.bytes_per_cycle == 0 {
            return Err(SimError::invalid_config(
                "dram",
                "pseudo_channels and bytes_per_cycle must be nonzero",
            ));
        }
        if self.tx_concurrency == Some(0) {
            return Err(SimError::invalid_config(
                "tx_concurrency",
                "use None for unlimited, not zero",
            ));
        }
        if self.watchdog.enabled {
            if self.watchdog.window == 0 {
                return Err(SimError::invalid_config(
                    "watchdog",
                    "window must be nonzero when the watchdog is enabled",
                ));
            }
            if self.watchdog.escalate_after == 0 || self.watchdog.livelock_after == 0 {
                return Err(SimError::invalid_config(
                    "watchdog",
                    "escalate_after and livelock_after must be nonzero",
                ));
            }
            if self.watchdog.escalate_after > self.watchdog.livelock_after {
                return Err(SimError::invalid_config(
                    "watchdog",
                    "escalate_after must not exceed livelock_after",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        GpuConfig::fermi_15core().validate().unwrap();
        GpuConfig::large_56core().validate().unwrap();
        GpuConfig::tiny_test().validate().unwrap();
        GpuConfig::volta_80core().validate().unwrap();
        GpuConfig::tiny_volta().validate().unwrap();
    }

    #[test]
    fn volta_preset_turns_every_modern_knob_on() {
        let v = GpuConfig::volta_80core();
        assert_eq!(v.cores, 80);
        assert_eq!(v.partitions, 24);
        assert_eq!(v.l1.sector_bytes, Some(32));
        assert!(v.l1.streaming, "Volta L1 is streaming/no-allocate");
        assert_eq!(v.llc_bank.sector_bytes, Some(32));
        assert_eq!(v.interleave, Interleave::XorHash);
        assert_eq!(v.mem_model, MemModel::Hbm);
        assert_eq!(v.dram.pseudo_channels, 2);
        assert!(v.llc_banks > 1);
        // 6 MB of LLC total, vs the paper's 768 KB.
        assert_eq!(v.llc_bank.capacity_bytes * v.partitions as u64, 6 << 20);
        // The Fermi preset keeps every knob off.
        let f = GpuConfig::fermi_15core();
        assert_eq!(f.l1.sector_bytes, None);
        assert!(!f.l1.streaming);
        assert_eq!(f.interleave, Interleave::Modulo);
        assert_eq!(f.mem_model, MemModel::FermiFixed);
        assert_eq!((f.llc_banks, f.dram.pseudo_channels), (1, 1));
    }

    #[test]
    fn bad_cache_geometry_is_a_typed_validate_error_not_a_panic() {
        // 8 lines / 3 ways: CacheConfig::sets() would silently truncate
        // and SetAssocCache::new would panic; validate() must catch it.
        let mut c = GpuConfig::tiny_test();
        c.llc_bank.ways = 3;
        let err = c.validate().expect_err("must reject");
        assert!(err.to_string().contains("llc bank"), "{err}");
        let mut c = GpuConfig::tiny_test();
        c.l1.capacity_bytes = 1000;
        assert!(c.validate().unwrap_err().to_string().contains("l1"));
        let mut c = GpuConfig::tiny_test();
        c.l1.line_bytes = 64; // disagrees with the machine's 128 B lines
        assert!(c.validate().is_err());
        let mut c = GpuConfig::tiny_test();
        c.llc_banks = 0;
        assert!(c.validate().is_err());
        let mut c = GpuConfig::tiny_test();
        c.dram.pseudo_channels = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn tm_system_names_round_trip_through_fromstr() {
        for sys in TmSystem::ALL {
            assert_eq!(sys.label().parse::<TmSystem>(), Ok(sys));
            assert_eq!(sys.to_string(), sys.label());
        }
        assert_eq!("getm".parse::<TmSystem>(), Ok(TmSystem::Getm));
        assert_eq!("warptm-el".parse::<TmSystem>(), Ok(TmSystem::WarpTmEL));
        let err = "htm".parse::<TmSystem>().unwrap_err();
        assert!(err.to_string().contains("htm"));
        assert!(err.to_string().contains("GETM"), "error lists valid names");
        assert!(err.to_string().contains("FGLock"));
    }

    #[test]
    fn paper_baseline_numbers() {
        let c = GpuConfig::fermi_15core();
        assert_eq!(c.cores, 15);
        assert_eq!(c.warps_per_core, 48);
        assert_eq!(c.partitions, 6);
        assert_eq!(c.granule_bytes, 32);
    }

    #[test]
    fn large_config_scales_llc_and_metadata() {
        let c = GpuConfig::large_56core();
        assert_eq!(c.cores, 56);
        assert_eq!(c.partitions, 8);
        assert_eq!(c.llc_bank.capacity_bytes * c.partitions as u64, 4 << 20);
        let small = GpuConfig::fermi_15core();
        assert!(
            c.getm.cuckoo.total_entries * 8 > small.getm.cuckoo.total_entries * 6,
            "precise table should double GPU-wide"
        );
    }

    #[test]
    fn builder_overrides() {
        let c = GpuConfig::fermi_15core()
            .with_concurrency(Some(2))
            .with_granularity(64)
            .with_metadata_entries(2048);
        assert_eq!(c.tx_concurrency, Some(2));
        assert_eq!(c.granule_bytes, 64);
        assert_eq!(c.getm.cuckoo.total_entries, 2048 / 6 / 4 * 4);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = GpuConfig::tiny_test();
        c.cores = 0;
        assert!(c.validate().is_err());
        let mut c = GpuConfig::tiny_test();
        c.granule_bytes = 256; // bigger than the 128-byte line
        assert!(c.validate().is_err());
        let mut c = GpuConfig::tiny_test();
        c.tx_concurrency = Some(0);
        assert!(c.validate().is_err());
        let mut c = GpuConfig::tiny_test();
        c.warp_width = 65;
        assert!(c.validate().is_err());
        let mut c = GpuConfig::tiny_test();
        c.warps_per_core = 65;
        assert!(c.validate().is_err());
    }

    #[test]
    fn watchdog_defaults_and_validation() {
        let d = WatchdogConfig::default();
        assert!(d.enabled && d.fallback_enabled());
        assert!(!WatchdogConfig::disabled().enabled);
        let no_fb = WatchdogConfig::default().without_fallback();
        assert!(!no_fb.fallback_enabled());
        // A disabled-fallback watchdog still validates.
        let mut c = GpuConfig::tiny_test();
        c.watchdog = no_fb;
        c.validate().unwrap();

        let mut c = GpuConfig::tiny_test();
        c.watchdog.window = 0;
        assert!(c.validate().is_err());
        let mut c = GpuConfig::tiny_test();
        c.watchdog.escalate_after = 0;
        assert!(c.validate().is_err());
        let mut c = GpuConfig::tiny_test();
        c.watchdog.escalate_after = c.watchdog.livelock_after + 1;
        assert!(c.validate().is_err());
        // Everything goes when the watchdog is off.
        let mut c = GpuConfig::tiny_test();
        c.watchdog = WatchdogConfig::disabled();
        c.watchdog.window = 0;
        c.validate().unwrap();
    }

    #[test]
    fn system_labels() {
        assert_eq!(TmSystem::Getm.label(), "GETM");
        assert_eq!(TmSystem::Getm.to_string(), "GETM");
        assert!(TmSystem::Getm.is_tm());
        assert!(!TmSystem::FgLock.is_tm());
        assert_eq!(TmSystem::ALL.len(), 5);
    }
}
