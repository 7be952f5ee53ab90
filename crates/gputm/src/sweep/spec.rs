//! Experiment descriptions: one cell, and grids of cells.

use crate::config::{GpuConfig, TmSystem};
use crate::metrics::Metrics;
use crate::runner::{RunOptions, Sim};
use sim_core::hash::StableHasher;
use sim_core::SimError;
use workloads::suite::{Benchmark, Scale};

/// One independent simulation: a benchmark at a scale, a TM system, and a
/// complete machine configuration (whose `seed` fixes every random
/// stream, making the cell a pure function).
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Which benchmark runs.
    pub benchmark: Benchmark,
    /// At which size.
    pub scale: Scale,
    /// Under which synchronization system.
    pub system: TmSystem,
    /// On which machine.
    pub cfg: GpuConfig,
}

impl CellSpec {
    /// A fully specified cell.
    pub fn new(benchmark: Benchmark, scale: Scale, system: TmSystem, cfg: GpuConfig) -> Self {
        CellSpec {
            benchmark,
            scale,
            system,
            cfg,
        }
    }

    /// A short human label for progress lines: `HT-H/GETM/c=4`.
    pub fn label(&self) -> String {
        let c = match self.cfg.tx_concurrency {
            Some(n) => n.to_string(),
            None => "NL".into(),
        };
        format!("{}/{}/c={c}", self.benchmark, self.system.label())
    }

    /// The content-addressed cache key: a stable 128-bit hex digest of
    /// the full cell description.
    ///
    /// The machine configuration is folded in through its `Debug`
    /// rendering, which covers every field of every nested config struct
    /// — any change to any parameter (including the seed) yields a new
    /// key, so a cache can never serve metrics for a different
    /// experiment. The key format is versioned: bumping `KEY_VERSION`
    /// invalidates every existing cache entry at once (used when the
    /// simulator's behaviour changes incompatibly).
    pub fn cache_key(&self) -> String {
        let mut h = StableHasher::new();
        h.write_str(KEY_VERSION);
        h.write_str(self.benchmark.name());
        h.write_str(self.scale.name());
        h.write_str(self.system.label());
        h.write_str(&format!("{:?}", self.cfg));
        h.finish_hex()
    }

    /// Builds the workload and runs the cell to completion on the serial
    /// engine.
    ///
    /// # Errors
    ///
    /// See [`Sim::run_with`].
    pub fn run(&self) -> Result<Metrics, SimError> {
        self.run_with(&RunOptions::default())
    }

    /// Like [`CellSpec::run`], under `opts`: a cancel
    /// token a watchdog can raise to interrupt a runaway cell, a trace
    /// recorder. A certified run is [`Sim::run_with`] under
    /// [`RunOptions::verify`], whose verdict this method does not return.
    ///
    /// # Errors
    ///
    /// [`SimError::Interrupted`] on cancellation, plus everything
    /// [`Sim::run_with`] can return.
    pub fn run_with(&self, opts: &RunOptions) -> Result<Metrics, SimError> {
        let workload = self.benchmark.build(self.scale);
        let out = Sim::new(&self.cfg)
            .system(self.system)
            .run_with(workload.as_ref(), opts)?;
        Ok(out.metrics.expect("unverified runs always carry metrics"))
    }

    /// Like [`CellSpec::run`], but with `recorder` capturing the cell's
    /// event stream. Cache lookups never serve traced runs — call this
    /// directly when a trace is wanted.
    ///
    /// # Errors
    ///
    /// See [`CellSpec::run`].
    pub fn run_traced(&self, recorder: sim_core::Recorder) -> Result<Metrics, SimError> {
        self.run_with(&RunOptions::default().trace(recorder))
    }
}

/// Bump to invalidate every on-disk cache entry (simulator behaviour
/// changes that alter metrics without changing any config field).
const KEY_VERSION: &str = "getm-cell-v1";

/// A sweep: an ordered list of cells, usually built with
/// [`ExperimentSpec::grid`].
#[derive(Debug, Clone, Default)]
pub struct ExperimentSpec {
    cells: Vec<CellSpec>,
}

impl ExperimentSpec {
    /// A spec from explicit cells (for irregular sweeps).
    pub fn from_cells(cells: Vec<CellSpec>) -> Self {
        ExperimentSpec { cells }
    }

    /// A cross-product grid builder.
    pub fn grid() -> GridBuilder {
        GridBuilder::default()
    }

    /// The cells, in execution/reporting order.
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the spec has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Appends another spec's cells.
    pub fn extend(&mut self, other: ExperimentSpec) {
        self.cells.extend(other.cells);
    }

    /// Drops cells whose [`CellSpec::cache_key`] repeats an earlier cell's,
    /// keeping first occurrences in order. Figure specs overlap heavily
    /// (the optimal-concurrency runs recur in most figures), so a union of
    /// specs should dedup before sweeping to avoid simulating a cell twice
    /// in one run.
    pub fn dedup(&mut self) {
        let mut seen = std::collections::HashSet::new();
        self.cells.retain(|c| seen.insert(c.cache_key()));
    }

    /// Adds one cell.
    pub fn push(&mut self, cell: CellSpec) {
        self.cells.push(cell);
    }
}

/// Builds the cross product benchmarks x systems x concurrency limits
/// over one base machine configuration.
///
/// Axis order in the output is row-major in declaration order:
/// benchmarks outermost, then systems, then concurrency limits — the
/// order the paper's tables read in.
pub struct GridBuilder {
    benchmarks: Vec<Benchmark>,
    systems: Vec<TmSystem>,
    concurrency: Option<Vec<Option<u32>>>,
    scale: Scale,
    base: GpuConfig,
}

impl Default for GridBuilder {
    fn default() -> Self {
        GridBuilder {
            benchmarks: Benchmark::ALL.to_vec(),
            systems: vec![TmSystem::Getm],
            concurrency: None,
            scale: Scale::Fast,
            base: GpuConfig::fermi_15core(),
        }
    }
}

impl GridBuilder {
    /// Restricts the benchmark axis (default: all nine).
    #[must_use]
    pub fn benchmarks(mut self, benchmarks: impl IntoIterator<Item = Benchmark>) -> Self {
        self.benchmarks = benchmarks.into_iter().collect();
        self
    }

    /// Sets the system axis (default: GETM only).
    #[must_use]
    pub fn systems(mut self, systems: impl IntoIterator<Item = TmSystem>) -> Self {
        self.systems = systems.into_iter().collect();
        self
    }

    /// Adds a transactional-concurrency axis (default: the base config's
    /// setting, untouched).
    #[must_use]
    pub fn concurrency_limits(mut self, limits: impl IntoIterator<Item = Option<u32>>) -> Self {
        self.concurrency = Some(limits.into_iter().collect());
        self
    }

    /// Sets the benchmark scale (default: [`Scale::Fast`]).
    #[must_use]
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the base machine configuration (default: the paper's 15-core
    /// Fermi).
    #[must_use]
    pub fn base(mut self, cfg: GpuConfig) -> Self {
        self.base = cfg;
        self
    }

    /// Materializes the grid.
    pub fn build(self) -> ExperimentSpec {
        let limits = self
            .concurrency
            .unwrap_or_else(|| vec![self.base.tx_concurrency]);
        let mut cells =
            Vec::with_capacity(self.benchmarks.len() * self.systems.len() * limits.len());
        for &b in &self.benchmarks {
            for &s in &self.systems {
                for &limit in &limits {
                    cells.push(CellSpec::new(
                        b,
                        self.scale,
                        s,
                        self.base.clone().with_concurrency(limit),
                    ));
                }
            }
        }
        ExperimentSpec { cells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_a_cross_product() {
        let spec = ExperimentSpec::grid()
            .benchmarks([Benchmark::HtH, Benchmark::Ap])
            .systems([TmSystem::Getm, TmSystem::WarpTmLL, TmSystem::FgLock])
            .concurrency_limits([Some(1), None])
            .build();
        assert_eq!(spec.len(), 2 * 3 * 2);
        // Row-major: benchmarks outermost.
        assert_eq!(spec.cells()[0].benchmark, Benchmark::HtH);
        assert_eq!(spec.cells()[0].cfg.tx_concurrency, Some(1));
        assert_eq!(spec.cells()[1].cfg.tx_concurrency, None);
        assert_eq!(spec.cells()[6].benchmark, Benchmark::Ap);
    }

    #[test]
    fn default_grid_covers_the_suite_under_getm() {
        let spec = ExperimentSpec::grid().build();
        assert_eq!(spec.len(), 9);
        assert!(spec.cells().iter().all(|c| c.system == TmSystem::Getm));
    }

    #[test]
    fn cache_key_is_stable_and_sensitive() {
        let cell = CellSpec::new(
            Benchmark::HtH,
            Scale::Fast,
            TmSystem::Getm,
            GpuConfig::tiny_test(),
        );
        assert_eq!(cell.cache_key(), cell.cache_key());
        assert_eq!(cell.cache_key().len(), 32);

        let mut other = cell.clone();
        other.system = TmSystem::WarpTmLL;
        assert_ne!(cell.cache_key(), other.cache_key());

        let mut reseeded = cell.clone();
        reseeded.cfg.seed ^= 1;
        assert_ne!(cell.cache_key(), reseeded.cache_key());

        let mut regranuled = cell.clone();
        regranuled.cfg.granule_bytes = 64;
        assert_ne!(cell.cache_key(), regranuled.cache_key());
    }

    #[test]
    fn labels_are_compact() {
        let cell = CellSpec::new(
            Benchmark::ClTo,
            Scale::Fast,
            TmSystem::Eapg,
            GpuConfig::tiny_test().with_concurrency(None),
        );
        assert_eq!(cell.label(), "CLto/EAPG/c=NL");
    }

    #[test]
    fn spec_extend_concatenates() {
        let mut a = ExperimentSpec::grid().benchmarks([Benchmark::HtH]).build();
        let b = ExperimentSpec::grid().benchmarks([Benchmark::Ap]).build();
        a.extend(b);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }

    #[test]
    fn dedup_keeps_first_occurrences() {
        let mut a = ExperimentSpec::grid()
            .benchmarks([Benchmark::HtH, Benchmark::Ap])
            .build();
        a.extend(ExperimentSpec::grid().benchmarks([Benchmark::Ap]).build());
        assert_eq!(a.len(), 3);
        a.dedup();
        assert_eq!(a.len(), 2);
        assert_eq!(a.cells()[0].benchmark, Benchmark::HtH);
        assert_eq!(a.cells()[1].benchmark, Benchmark::Ap);
    }
}
