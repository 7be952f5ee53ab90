//! The simulator workloads, `fig11-fermi` and `volta-hbm`: grids of cells
//! (benchmark × TM system), each cell one kernel launch on a machine whose
//! modelled caches start empty.
//!
//! Timed runs use the serial engine. A sharded engine advances its threads
//! in cycle lockstep, so on a host with as many CPUs as shards every
//! preemption stalls the whole run and its time measures the scheduler;
//! `volta-hbm` therefore runs its sharded pass untimed, as the reference
//! every timed serial run must reproduce bit for bit.

use crate::inputs;
use crate::run::{Ctx, Samples};
use crate::stats::{self, geomean, ratio};
use crate::trace::Tracer;
use gputm::engine::Engine;
use gputm::{ExecMode, GpuConfig, Metrics, TmSystem};
use sim_core::LogHistogram;
use std::time::Duration;
use workloads::suite::{Benchmark, Scale};
use workloads::Workload;

/// The paper's headline result: GETM 1.2x faster than WarpTM (Fig. 11
/// geomean).
const PAPER_SPEEDUP: f64 = 1.2;

/// GETM aborts about four times as often as WarpTM per commit (Table IV).
const PAPER_ABORT_RATIO: f64 = 4.0;

/// The two protocols Fig. 11 compares.
const SYSTEMS: [TmSystem; 2] = [TmSystem::Getm, TmSystem::WarpTmLL];

/// A grid workload.
pub struct Grid {
    pub machine: fn() -> GpuConfig,
    pub benchmarks: &'static [Benchmark],
    /// Host threads of the untimed reference pass. Serial: the reference
    /// is one warm-up cell and each cell's first timed run. Sharded: every
    /// cell runs once on the sharded engine before the timed loop.
    pub reference: ExecMode,
}

pub const FIG11_FERMI: Grid = Grid {
    machine: GpuConfig::fermi_15core,
    benchmarks: &Benchmark::ALL,
    reference: ExecMode::Serial,
};

pub const VOLTA_HBM: Grid = Grid {
    machine: GpuConfig::volta_80core,
    benchmarks: &[Benchmark::HtH, Benchmark::Atm, Benchmark::Cc],
    reference: ExecMode::Sharded { threads: 2 },
};

struct Cell {
    bench: Benchmark,
    system: TmSystem,
    workload: Box<dyn Workload>,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}/{}", self.bench, self.system.label())
    }
}

/// What one run of a cell took.
struct CellRun {
    metrics: Result<Metrics, String>,
    total: Duration,
    run: Duration,
}

/// `Engine::new`, `Engine::run` and `Workload::check`, each in its own
/// span inside a `cell` span.
fn run_cell(t: &mut Tracer, id: u64, cfg: &GpuConfig, cell: &Cell, exec: ExecMode) -> CellRun {
    let mut run = Duration::ZERO;
    let (metrics, total) = t.span("cell", id, |t| {
        let (engine, _) = t.span("engine.new", id, |_| {
            Engine::new(cell.workload.as_ref(), cell.system, cfg)
        });
        let mut engine = engine.map_err(|e| format!("engine: {e}"))?;
        engine.set_exec(exec);
        // Shard attribution rides along in traced runs only: it is
        // observational, but not free.
        engine.set_host_profiling(t.is_on() && exec.threads() > 1);
        let (m, d) = t.span("engine.run", id, |_| engine.run());
        run = d;
        let mut m = m.map_err(|e| format!("run: {e}"))?;
        let (check, _) = t.span("engine.check", id, |_| {
            cell.workload.check(&engine.memory_reader())
        });
        m.check = Some(check);
        Ok(m)
    });
    CellRun {
        metrics,
        total,
        run,
    }
}

/// The gates one cell run must pass: it completed, its final memory
/// satisfies the workload's invariants, and it matches the reference run
/// of the same cell bit for bit.
fn gates(run: &CellRun, reference: Option<&Metrics>) -> Vec<String> {
    let m = match &run.metrics {
        Ok(m) => m,
        Err(e) => return vec![e.clone()],
    };
    let mut errs = Vec::new();
    match &m.check {
        Some(Ok(())) => {}
        Some(Err(e)) => errs.push(format!("invariant check failed: {e}")),
        None => errs.push("invariant check not run".into()),
    }
    if let Some(r) = reference {
        if r != m {
            errs.push(format!(
                "metrics differ from the reference run (cycles {} vs {})",
                m.cycles, r.cycles
            ));
        }
    }
    errs
}

pub fn run(ctx: &mut Ctx, grid: &Grid) {
    let seed = ctx.seed;
    let cfg = inputs::machine((grid.machine)(), seed);
    let mut build = Vec::new();
    let mut make = |t: &mut Tracer, id| {
        let (cells, d) = t.span("workloads.build", id, |_| {
            grid.benchmarks
                .iter()
                .flat_map(|&bench| {
                    SYSTEMS.map(|system| Cell {
                        bench,
                        system,
                        workload: inputs::workload(bench, Scale::Fast, seed),
                    })
                })
                .collect::<Vec<_>>()
        });
        build.push(d.as_secs_f64());
        let (valid, _) = t.span("config.validate", id, |_| cfg.validate());
        valid.expect("the preset machines are valid");
        cells
    };
    let cells: Vec<Cell> = ctx.setup(&mut make);

    // The reference each timed run must reproduce: a sharded run of every
    // cell when the grid has a sharded reference, otherwise the first cell
    // once as an untimed warm-up and each cell's first timed run after that.
    let sharded = grid.reference.threads() > 1;
    let mut reference: Vec<Option<Metrics>> = vec![None; cells.len()];
    let mut sharded_run_s = 0.0;
    let mut profile = gputm::HostProfile::default();
    let warm_up = if sharded { cells.len() } else { 1 };
    for (i, cell) in cells.iter().enumerate().take(warm_up) {
        let id = ctx.cell();
        let r = ctx
            .tracer
            .span("reference", id, |t| {
                run_cell(t, id, &cfg, cell, grid.reference)
            })
            .0;
        sharded_run_s += r.run.as_secs_f64();
        if ctx.op(&format!("{} reference", cell.label()), gates(&r, None)) {
            let m = r.metrics.expect("a passing run has metrics");
            accumulate(&mut profile, &m.host_profile);
            reference[i] = Some(m);
        }
    }

    let mut totals = Samples::new(cells.len());
    let mut runs = Samples::new(cells.len());
    ctx.closed_loop(cells.len(), |ctx, i| {
        let id = ctx.cell();
        let r = run_cell(&mut ctx.tracer, id, &cfg, &cells[i], ExecMode::Serial);
        totals.push(i, r.total);
        runs.push(i, r.run);
        if ctx.op(&cells[i].label(), gates(&r, reference[i].as_ref())) {
            let m = r.metrics.expect("a passing run has metrics");
            reference[i].get_or_insert(m);
        }
    });
    ctx.repeat_setup(&mut make);
    ctx.layer("workloads.build_ms", stats::median(&build) * 1e3);

    // Simulated results come from the reference runs, one per cell; the
    // gates above proved every timed run identical to them.
    let results: Vec<(Benchmark, TmSystem, &Metrics)> = cells
        .iter()
        .zip(&reference)
        .filter_map(|(c, m)| Some((c.bench, c.system, m.as_ref()?)))
        .collect();
    let cycles: u64 = results.iter().map(|r| r.2.cycles).sum();
    let wall_s = totals.pass_s();
    ctx.e2e.insert("wall_s", (wall_s, totals.count()));
    ctx.e2e
        .insert("throughput", (ratio(cycles as f64, wall_s), totals.count()));
    for (i, cell) in cells.iter().enumerate() {
        let c = reference[i].as_ref().map_or(0, |m| m.cycles);
        let line = format!(
            "{:<12} {:>8} cycles  {}",
            cell.label(),
            c,
            stats::describe(&totals.0[i], 1e3, "ms")
        );
        ctx.note(line);
    }
    for system in SYSTEMS {
        let (mut c, mut s) = (0.0, 0.0);
        for (i, cell) in cells.iter().enumerate() {
            if cell.system == system {
                c += reference[i].as_ref().map_or(0, |m| m.cycles) as f64;
                s += runs.median(i);
            }
        }
        let name = match system {
            TmSystem::Getm => "engine.cycles_per_ms.GETM",
            _ => "engine.cycles_per_ms.WarpTM",
        };
        ctx.layer(name, ratio(c, s * 1e3));
    }
    if sharded {
        ctx.layer("shard.speedup_x2", ratio(runs.pass_s(), sharded_run_s));
        let total: u64 = profile.shards.iter().map(|s| s.total_ns()).sum();
        let share = |f: fn(&gputm::ShardProfile) -> u64| {
            100.0
                * ratio(
                    profile.shards.iter().map(f).sum::<u64>() as f64,
                    total as f64,
                )
        };
        ctx.layer("shard.work_pct", share(|s| s.work_ns));
        ctx.layer("shard.barrier_pct", share(|s| s.barrier_ns));
        ctx.layer("shard.merge_pct", share(|s| s.merge_ns));
        ctx.layer("shard.windows", profile.windows as f64);
    }
    simulated(ctx, &results);
}

fn accumulate(into: &mut gputm::HostProfile, p: &gputm::HostProfile) {
    if into.shards.len() < p.shards.len() {
        into.shards.resize(p.shards.len(), Default::default());
    }
    for (a, b) in into.shards.iter_mut().zip(&p.shards) {
        a.work_ns += b.work_ns;
        a.barrier_ns += b.barrier_ns;
        a.merge_ns += b.merge_ns;
    }
    into.windows += p.windows;
}

/// Per-layer counts of the simulated machine, summed over one pass of
/// distinct cells, and the headline result beside the paper's.
pub fn simulated(ctx: &mut Ctx, results: &[(Benchmark, TmSystem, &Metrics)]) {
    let all = || results.iter().map(|r| r.2);
    let of = |s: TmSystem| results.iter().filter(move |r| r.1 == s).map(|r| r.2);
    let sum = |f: fn(&Metrics) -> u64| all().map(f).sum::<u64>() as f64;
    let mean = |xs: Vec<f64>| ratio(xs.iter().sum(), xs.len() as f64);

    let speedups: Vec<f64> = results
        .iter()
        .filter(|r| r.1 == TmSystem::Getm)
        .filter_map(|g| {
            let w = results
                .iter()
                .find(|w| w.0 == g.0 && w.1 == TmSystem::WarpTmLL)?;
            Some(w.2.cycles as f64 / g.2.cycles as f64)
        })
        .collect();
    let speedup = geomean(&speedups);
    let cycles = sum(|m| m.cycles);
    ctx.layer("sim.cycles", cycles);
    ctx.layer("sim.getm_speedup_vs_warptm", speedup);
    ctx.note(format!(
        "sim_cycles {cycles} (simulated core cycles, one pass of distinct cells)"
    ));
    if !speedups.is_empty() {
        ctx.note(format!(
            "getm_speedup_vs_warptm {speedup:.3} (paper {PAPER_SPEEDUP:.2}, error {:+.1} %)",
            100.0 * (speedup / PAPER_SPEEDUP - 1.0)
        ));
    }

    ctx.layer("getm.aborts_war", sum(|m| m.getm_aborts_load));
    ctx.layer("getm.aborts_lock", sum(|m| m.getm_aborts_store));
    ctx.layer("getm.aborts_stall_full", sum(|m| m.stall_full_aborts));
    ctx.layer("getm.aborts_approx", sum(|m| m.getm_aborts_approx));
    let mut meta = LogHistogram::new();
    of(TmSystem::Getm).for_each(|m| meta.merge(&m.metadata_latency));
    ctx.layer("getm.metadata_access_mean_cycles", meta.mean());
    ctx.layer("getm.metadata_access_p99_cycles", meta.p99() as f64);
    ctx.layer(
        "getm.vu_queue_delay_mean",
        mean(of(TmSystem::Getm).map(|m| m.mean_vu_queue_delay).collect()),
    );
    ctx.layer("getm.stall_queued", sum(|m| m.stall_queued));
    ctx.layer(
        "getm.stall_max_occupancy",
        all().map(|m| m.max_stall_occupancy).max().unwrap_or(0) as f64,
    );
    ctx.layer(
        "getm.stall_waiters_per_addr",
        mean(
            all()
                .filter_map(|m| m.mean_stall_waiters_per_addr)
                .collect(),
        ),
    );
    ctx.layer(
        "getm.metadata_overflow_peak",
        all().map(|m| m.metadata_overflow_peak).max().unwrap_or(0) as f64,
    );
    ctx.layer("getm.rollovers", sum(|m| m.rollovers));

    let warptm = || of(TmSystem::WarpTmLL);
    ctx.layer(
        "warptm.aborts_validation",
        warptm().map(|m| m.aborts_validation).sum::<u64>() as f64,
    );
    ctx.layer(
        "warptm.silent_commits",
        warptm().map(|m| m.silent_commits).sum::<u64>() as f64,
    );

    let commits = sum(|m| m.commits);
    ctx.layer("tx.commits", commits);
    ctx.layer("tx.aborts", sum(|m| m.aborts));
    let mut per_1k_of = Vec::new();
    for (system, per_1k, commit_ratio) in [
        (
            TmSystem::Getm,
            "tx.aborts_per_1k.GETM",
            "tx.commit_ratio.GETM",
        ),
        (
            TmSystem::WarpTmLL,
            "tx.aborts_per_1k.WarpTM",
            "tx.commit_ratio.WarpTM",
        ),
    ] {
        let c = of(system).map(|m| m.commits).sum::<u64>() as f64;
        let a = of(system).map(|m| m.aborts).sum::<u64>() as f64;
        per_1k_of.push(1e3 * ratio(a, c));
        ctx.layer(per_1k, 1e3 * ratio(a, c));
        ctx.layer(commit_ratio, ratio(c, c + a));
        if c > 0.0 {
            ctx.note(format!(
                "{}: commit ratio {:.4} ({c} commits of {} attempts)",
                system.label(),
                ratio(c, c + a),
                c + a
            ));
        }
    }
    if let [getm, warptm] = per_1k_of[..] {
        if warptm > 0.0 {
            let r = getm / warptm;
            ctx.note(format!(
                "GETM/WarpTM aborts per 1k commits {r:.2}x over this grid \
                 (paper about {PAPER_ABORT_RATIO:.0}x per benchmark at its best concurrency, Table IV; \
                 error {:+.1} %)",
                100.0 * (r / PAPER_ABORT_RATIO - 1.0)
            ));
        }
    }
    ctx.layer("simt.tx_exec_cycles", sum(|m| m.tx_exec_cycles));
    ctx.layer("simt.tx_wait_cycles", sum(|m| m.tx_wait_cycles));
    ctx.layer(
        "simt.rounds_per_region.GETM",
        mean(
            of(TmSystem::Getm)
                .map(|m| m.mean_rounds_per_region)
                .collect(),
        ),
    );
    ctx.layer("simt.aborts_intra_warp", sum(|m| m.aborts_intra_warp));

    let bytes = sum(|m| m.xbar_bytes);
    ctx.layer("xbar.bytes", bytes);
    ctx.layer("xbar.bytes_per_commit", ratio(bytes, commits));
    ctx.layer(
        "mem.l1_hit_rate",
        100.0 * mean(all().map(|m| m.l1_hit_rate).collect()),
    );
    ctx.layer(
        "mem.llc_hit_rate",
        100.0 * mean(all().map(|m| m.llc_hit_rate).collect()),
    );
    ctx.layer("mem.l1_sector_misses", sum(|m| m.l1_sector_misses));
    ctx.layer("mem.llc_sector_misses", sum(|m| m.llc_sector_misses));
    ctx.layer("mem.dram_accesses", sum(|m| m.dram_accesses));
    ctx.layer("mem.dram_queue_stalls", sum(|m| m.dram_queue_stalls));
    ctx.layer(
        "mem.partition_imbalance",
        all()
            .filter_map(|m| m.partition_imbalance)
            .fold(0.0, f64::max),
    );
    ctx.layer(
        "mem.access_rt_mean",
        mean(all().map(|m| m.mean_access_rt).collect()),
    );
    ctx.layer(
        "mem.data_latency_mean",
        mean(all().map(|m| m.mean_data_latency).collect()),
    );

    ctx.layer(
        "watchdog.degraded_cells",
        all().filter(|m| m.degraded).count() as f64,
    );
    ctx.layer("watchdog.serialized_commits", sum(|m| m.serialized_commits));
}
