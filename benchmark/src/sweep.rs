//! `sweep-tiny`: the sweep executor over the tiny test machine, 9
//! benchmarks × 5 systems. A cold pass fills a fresh result cache; the
//! warm passes after it are all cache hits, so the executor, the cache and
//! the journal are their only work.

use crate::cells;
use crate::inputs;
use crate::run::{Ctx, Samples};
use crate::stats::{self, ratio};
use crate::trace::Tracer;
use gputm::sweep::{sweep_digest, ExperimentSpec, ResultCache, SweepJournal, SweepOptions};
use gputm::{GpuConfig, Metrics, TmSystem};
use std::path::{Path, PathBuf};
use workloads::suite::{Benchmark, Scale};

/// Sweep worker threads: the host's two CPUs.
const THREADS: usize = 2;

/// Warm passes after each cold pass.
const WARM_PER_COLD: usize = 100;

/// Index of the cold pass in the op list; the warm passes follow it.
const COLD: usize = 0;

pub fn run(ctx: &mut Ctx, scratch: &Path) {
    let seed = ctx.seed;
    let mut build = Vec::new();
    let mut make = |t: &mut Tracer, id| {
        // Cells build their own inputs (Benchmark::build, fixed seeds);
        // the benchmark's seed reaches them through the machine's random
        // streams. Building the inputs here once times that layer.
        let (_, d) = t.span("workloads.build", id, |_| {
            Benchmark::ALL.map(|b| b.build(Scale::Fast))
        });
        build.push(d.as_secs_f64());
        let cfg = inputs::machine(GpuConfig::tiny_test(), seed);
        let (valid, _) = t.span("config.validate", id, |_| cfg.validate());
        valid.expect("the tiny test machine is valid");
        ExperimentSpec::grid()
            .benchmarks(Benchmark::ALL)
            .systems(TmSystem::ALL)
            .scale(Scale::Fast)
            .base(cfg)
            .build()
    };
    let spec = ctx.setup(&mut make);
    let cells = spec.len();

    let mut times = Samples::new(1 + WARM_PER_COLD);
    let mut first: Option<Vec<Metrics>> = None;
    let mut current: Vec<Metrics> = Vec::new();
    let mut dir = PathBuf::new();
    let mut rounds = 0;
    ctx.closed_loop(1 + WARM_PER_COLD, |ctx, i| {
        let cold = i == COLD;
        if cold {
            let _ = std::fs::remove_dir_all(&dir);
            rounds += 1;
            dir = scratch.join(format!("round-{rounds}"));
        }
        let opts = SweepOptions::new()
            .threads(THREADS)
            .cache(ResultCache::new(&dir));
        let id = ctx.cell();
        let name = if cold { "sweep.cold" } else { "sweep.warm" };
        let (report, d) = ctx
            .tracer
            .span(name, id, |_| gputm::sweep::run_sweep_report(&spec, &opts));
        times.push(i, d);
        let mut errs: Vec<String> = report.failures.iter().map(|f| f.to_string()).collect();
        if report.skipped > 0 {
            errs.push(format!("{} cells skipped", report.skipped));
        }
        let metrics: Vec<Metrics> = report.outcomes.iter().map(|o| o.metrics.clone()).collect();
        for o in &report.outcomes {
            if o.cached == cold {
                errs.push(format!("{} cached = {}", o.cell.label(), o.cached));
            }
            if let Some(Err(e)) = &o.metrics.check {
                errs.push(format!("{}: invariant check failed: {e}", o.cell.label()));
            }
        }
        // Cold passes must recompute the first round's results exactly;
        // warm passes must recall this round's exactly.
        let want = if cold { first.as_ref() } else { Some(&current) };
        if errs.is_empty() && want.is_some_and(|w| *w != metrics) {
            errs.push("metrics differ from the reference pass".into());
        }
        let label = if cold { "cold sweep" } else { "warm sweep" };
        if ctx.op(label, errs) && cold {
            first.get_or_insert_with(|| metrics.clone());
            current = metrics;
        }
    });
    ctx.repeat_setup(&mut make);
    ctx.layer("workloads.build_ms", stats::median(&build) * 1e3);

    let cold_s = times.median(COLD);
    let warm: Vec<f64> = times.0[1..].concat();
    let warm_s = stats::median(&warm);
    ctx.e2e.insert(
        "wall_s",
        (cold_s + WARM_PER_COLD as f64 * warm_s, times.count()),
    );
    ctx.e2e
        .insert("throughput", (ratio(cells as f64, warm_s), warm.len()));
    ctx.layer("sweep.cold_cells_per_s", ratio(cells as f64, cold_s));
    ctx.layer("sweep.warm_cells_per_s", ratio(cells as f64, warm_s));
    ctx.note(format!(
        "cold pass ({cells} cells): {}",
        stats::describe(&times.0[COLD], 1.0, "s")
    ));
    ctx.note(format!(
        "warm pass ({cells} cells): {}",
        stats::describe(&warm, 1e3, "ms")
    ));

    if ctx.tracer.is_on() {
        if let Some(reference) = &first {
            direct_io(ctx, &scratch.join("direct"), &spec, reference);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    if let Some(reference) = &first {
        let results: Vec<_> = spec
            .cells()
            .iter()
            .zip(reference)
            .map(|(c, m)| (c.benchmark, c.system, m))
            .collect();
        cells::simulated(ctx, &results);
    }
}

/// Times `ResultCache` store and load and `SweepJournal::record` per entry
/// by calling them directly, outside the timed loop.
fn direct_io(ctx: &mut Ctx, dir: &Path, spec: &ExperimentSpec, reference: &[Metrics]) {
    let cache = ResultCache::new(dir);
    let keys: Vec<String> = spec.cells().iter().map(|c| c.cache_key()).collect();
    let n = keys.len() as f64;
    let id = ctx.cell();
    let (stored, store) = ctx.tracer.span("cache.store", id, |_| {
        keys.iter()
            .zip(reference)
            .try_for_each(|(k, m)| cache.store(k, m))
    });
    let (loaded, load) = ctx.tracer.span("cache.load", id, |_| {
        keys.iter().map(|k| cache.load(k)).collect::<Vec<_>>()
    });
    let (journaled, record) = ctx.tracer.span("journal.record", id, |_| {
        let mut j = SweepJournal::open(dir, &sweep_digest(spec.cells()), false)?;
        keys.iter().try_for_each(|k| j.record(k))?;
        j.finish()
    });
    let mut errs = Vec::new();
    if let Err(e) = stored {
        errs.push(format!("cache store: {e}"));
    }
    if let Err(e) = journaled {
        errs.push(format!("journal: {e}"));
    }
    if loaded
        .iter()
        .zip(reference)
        .any(|(l, m)| l.as_ref() != Some(m))
    {
        errs.push("cache load did not return what was stored".into());
    }
    ctx.op("direct cache and journal I/O", errs);
    ctx.layer("cache.stores_per_ms", ratio(n, store.as_secs_f64() * 1e3));
    ctx.layer("cache.loads_per_ms", ratio(n, load.as_secs_f64() * 1e3));
    ctx.layer(
        "journal.records_per_ms",
        ratio(n, record.as_secs_f64() * 1e3),
    );
    let _ = std::fs::remove_dir_all(dir);
}
