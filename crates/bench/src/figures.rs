//! Every figure and table of the evaluation, as data: an [`ExperimentSpec`]
//! naming the cells it needs, plus a render function that reads them back
//! from a [`Harness`] and prints the paper's rows.
//!
//! Splitting spec from render is what lets the harness run an entire
//! figure — or the union of all fourteen, for `fig all` — as one
//! parallel, disk-cached sweep before any formatting happens. The `fig`
//! binary is a thin wrapper over [`select`] and [`run`].

use crate::{banner, optimal_concurrency, print_header, print_row, Harness};
use getm::ApproxMode;
use gputm::config::{GpuConfig, TmSystem};
use gputm::sweep::{CellSpec, ExperimentSpec};
use workloads::suite::{Benchmark, Scale};

/// One reproduced figure or table.
pub struct Figure {
    /// Binary/figure identifier ("fig3", "table4", ...).
    pub id: &'static str,
    /// The cells the render reads (empty for analytical tables).
    pub spec: fn(Scale) -> ExperimentSpec,
    /// Prints the figure from a harness holding (or able to run) the cells.
    pub render: fn(&Harness),
}

/// All fourteen reproductions, in the order `fig all` prints them.
pub const ALL: [Figure; 14] = [
    Figure {
        id: "fig3",
        spec: fig3_spec,
        render: fig3,
    },
    Figure {
        id: "fig4",
        spec: fig4_spec,
        render: fig4,
    },
    Figure {
        id: "fig10",
        spec: fig10_spec,
        render: fig10,
    },
    Figure {
        id: "fig11",
        spec: fig11_spec,
        render: fig11,
    },
    Figure {
        id: "fig12",
        spec: fig12_spec,
        render: fig12,
    },
    Figure {
        id: "fig13",
        spec: getm_only_spec,
        render: fig13,
    },
    Figure {
        id: "fig14",
        spec: fig14_spec,
        render: fig14,
    },
    Figure {
        id: "fig15",
        spec: getm_only_spec,
        render: fig15,
    },
    Figure {
        id: "fig16",
        spec: getm_only_spec,
        render: fig16,
    },
    Figure {
        id: "fig17",
        spec: fig17_spec,
        render: fig17,
    },
    Figure {
        id: "table4",
        spec: table4_spec,
        render: table4,
    },
    Figure {
        id: "table5",
        spec: empty_spec,
        render: table5,
    },
    Figure {
        id: "ablation",
        spec: ablation_spec,
        render: ablation,
    },
    Figure {
        id: "volta",
        spec: volta_spec,
        render: volta,
    },
];

/// Looks a figure up by its identifier.
pub fn by_id(id: &str) -> Option<&'static Figure> {
    ALL.iter().find(|f| f.id == id)
}

/// The figures `fig <id>` runs: the one named `id`, or every figure for
/// `all`.
///
/// # Errors
///
/// Names an unknown id.
pub fn select(id: &str) -> Result<&'static [Figure], String> {
    if id == "all" {
        return Ok(&ALL);
    }
    by_id(id)
        .map(std::slice::from_ref)
        .ok_or_else(|| format!("unknown figure id {id:?}"))
}

/// Runs `figs` on `h`. One figure prefetches its cells in parallel,
/// renders, and honors `--trace`/`--probe`. Several figures prefetch the
/// deduplicated union of their cells as ONE sweep — overlapping cells
/// (Figs. 10-12 and 15-16 reuse the same optimal-concurrency runs)
/// simulate exactly once — and render each under a banner.
///
/// # Panics
///
/// Panics on a failed run (see [`Harness::prefetch`]).
pub fn run(figs: &[Figure], h: &Harness) {
    if let [f] = figs {
        let spec = (f.spec)(h.scale());
        h.prefetch(&spec);
        (f.render)(h);
        h.emit_trace_artifacts(&spec);
        return;
    }
    let mut union = ExperimentSpec::default();
    for f in figs {
        union.extend((f.spec)(h.scale()));
    }
    union.dedup();
    eprintln!("fig: {} distinct cells", union.len());
    h.prefetch(&union);
    for f in figs {
        println!("\n############ {} ############", f.id);
        (f.render)(h);
    }
}

/// The six concurrency limits the paper sweeps, with their display names.
const LIMITS: [(&str, Option<u32>); 6] = [
    ("1", Some(1)),
    ("2", Some(2)),
    ("4", Some(4)),
    ("8", Some(8)),
    ("16", Some(16)),
    ("NL", None),
];

/// Cells for every benchmark under each `system` at its Table IV optimal
/// concurrency, on `base`.
fn optimal_spec(scale: Scale, systems: &[TmSystem], base: &GpuConfig) -> ExperimentSpec {
    let mut spec = ExperimentSpec::default();
    for &system in systems {
        for b in Benchmark::ALL {
            let cfg = base
                .clone()
                .with_concurrency(optimal_concurrency(system, b));
            spec.push(CellSpec::new(b, scale, system, cfg));
        }
    }
    spec
}

fn empty_spec(_scale: Scale) -> ExperimentSpec {
    ExperimentSpec::default()
}

/// The GETM-only optimal runs shared by Figs. 13, 15, and 16.
fn getm_only_spec(scale: Scale) -> ExperimentSpec {
    optimal_spec(scale, &[TmSystem::Getm], &GpuConfig::fermi_15core())
}

// ---------------------------------------------------------------- Fig. 3

fn fig3_spec(scale: Scale) -> ExperimentSpec {
    ExperimentSpec::grid()
        .benchmarks([Benchmark::HtH])
        .systems([TmSystem::WarpTmLL, TmSystem::WarpTmEL])
        .concurrency_limits(LIMITS.map(|(_, l)| l))
        .scale(scale)
        .build()
}

/// Fig. 3: per-transaction exec / wait / total cycles of WarpTM-LL versus
/// the idealized eager-lazy variant (WarpTM-EL) as the per-core
/// transactional-concurrency limit grows, on the HT-H workload.
///
/// The paper's finding: with lazy validation, more concurrency means more
/// (and more expensive) retries, so per-transaction cycles climb steeply;
/// the eager variant stays flat and its wait time *falls* as extra warps
/// hide latency. Values are normalized to the highest data point, like
/// the paper's plot.
/// One fig. 3 series: system label, then per-limit exec / wait / total
/// cycles per committed transaction.
type Fig3Row = (&'static str, Vec<f64>, Vec<f64>, Vec<f64>);

fn fig3(h: &Harness) {
    let base = GpuConfig::fermi_15core();
    banner(
        "Fig. 3",
        "tx cycles vs concurrency limit, HT-H (normalized to max)",
    );

    let mut rows: Vec<Fig3Row> = Vec::new();
    for system in [TmSystem::WarpTmLL, TmSystem::WarpTmEL] {
        let mut exec = Vec::new();
        let mut wait = Vec::new();
        let mut total = Vec::new();
        for &(_, limit) in &LIMITS {
            let cfg = base.clone().with_concurrency(limit);
            let m = h.run(Benchmark::HtH, system, &cfg);
            let per_tx = |v: u64| v as f64 / m.commits.max(1) as f64;
            exec.push(per_tx(m.tx_exec_cycles));
            wait.push(per_tx(m.tx_wait_cycles));
            total.push(per_tx(m.total_tx_cycles()));
        }
        rows.push((system.label(), exec, wait, total));
    }

    for (metric, pick) in [
        ("tx exec cycles", 0usize),
        ("tx wait cycles", 1),
        ("total tx cycles", 2),
    ] {
        println!("\n-- {metric} (per committed tx, normalized to max) --");
        print!("{:<14}", "limit");
        for (name, _) in &LIMITS {
            print!(" {name:>8}");
        }
        println!();
        let max = rows
            .iter()
            .flat_map(|r| match pick {
                0 => r.1.iter(),
                1 => r.2.iter(),
                _ => r.3.iter(),
            })
            .fold(1e-9f64, |a, &b| a.max(b));
        for r in &rows {
            let series = match pick {
                0 => &r.1,
                1 => &r.2,
                _ => &r.3,
            };
            print!("{:<14}", r.0);
            for v in series {
                print!(" {:>8.3}", v / max);
            }
            println!();
        }
    }
    println!(
        "\nPaper shape: LL's exec and total climb with concurrency; EL stays \
         flat with wait falling, supporting much higher concurrency."
    );
}

// ---------------------------------------------------------------- Fig. 4

fn fig4_spec(scale: Scale) -> ExperimentSpec {
    optimal_spec(
        scale,
        &[TmSystem::WarpTmLL, TmSystem::WarpTmEL, TmSystem::FgLock],
        &GpuConfig::fermi_15core(),
    )
}

/// Fig. 4: WarpTM with lazy (LL) versus idealized eager (EL) conflict
/// detection, compared against hand-optimized fine-grained locks, at each
/// configuration's optimal concurrency.
///
/// Top panel: transaction-only cycles (exec + wait) normalized to
/// WarpTM-LL per benchmark. Bottom panel: total execution time normalized
/// to the FGLock baseline.
fn fig4(h: &Harness) {
    let base = GpuConfig::fermi_15core();
    banner(
        "Fig. 4",
        "WarpTM-LL vs WarpTM-EL vs FGLock (optimal concurrency)",
    );

    // Top: tx-only cycles normalized to WarpTM-LL.
    println!("\n-- transaction cycles (exec+wait) normalized to WarpTM-LL --");
    print_header("system", false);
    let ll: Vec<f64> = Benchmark::ALL
        .iter()
        .map(|&b| {
            h.run_optimal(b, TmSystem::WarpTmLL, &base)
                .total_tx_cycles() as f64
        })
        .collect();
    print_row("WarpTM-LL", &vec![1.0; Benchmark::ALL.len()], false);
    let el: Vec<f64> = Benchmark::ALL
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            h.run_optimal(b, TmSystem::WarpTmEL, &base)
                .total_tx_cycles() as f64
                / ll[i].max(1.0)
        })
        .collect();
    print_row("WarpTM-EL", &el, false);

    // Bottom: total execution time normalized to FGLock.
    println!("\n-- total execution time normalized to FGLock --");
    print_header("system", true);
    let fgl: Vec<f64> = Benchmark::ALL
        .iter()
        .map(|&b| h.run_optimal(b, TmSystem::FgLock, &base).cycles as f64)
        .collect();
    for system in [TmSystem::WarpTmLL, TmSystem::WarpTmEL] {
        let series: Vec<f64> = Benchmark::ALL
            .iter()
            .enumerate()
            .map(|(i, &b)| h.run_optimal(b, system, &base).cycles as f64 / fgl[i].max(1.0))
            .collect();
        print_row(system.label(), &series, true);
    }
    println!(
        "\nPaper shape: EL cuts transactional cycles well below LL on \
         contended benchmarks and narrows the gap to fine-grained locks."
    );
}

// --------------------------------------------------------------- Fig. 10

fn fig10_spec(scale: Scale) -> ExperimentSpec {
    optimal_spec(
        scale,
        &[TmSystem::WarpTmLL, TmSystem::Eapg, TmSystem::Getm],
        &GpuConfig::fermi_15core(),
    )
}

/// Fig. 10: transaction-only execution and wait time for WarpTM, idealized
/// EAPG, and GETM, normalized to WarpTM, at each system's optimal
/// concurrency.
fn fig10(h: &Harness) {
    let base = GpuConfig::fermi_15core();
    banner(
        "Fig. 10",
        "tx exec+wait normalized to WarpTM (optimal concurrency)",
    );

    let wtm: Vec<f64> = Benchmark::ALL
        .iter()
        .map(|&b| {
            h.run_optimal(b, TmSystem::WarpTmLL, &base)
                .total_tx_cycles() as f64
        })
        .collect();

    println!("\n{:<14} {:>8} {:>8}", "", "EXEC", "WAIT");
    print_header("system", true);
    for system in [TmSystem::WarpTmLL, TmSystem::Eapg, TmSystem::Getm] {
        let mut exec_w = Vec::new();
        let mut wait_w = Vec::new();
        let mut total = Vec::new();
        for (i, &b) in Benchmark::ALL.iter().enumerate() {
            let m = h.run_optimal(b, system, &base);
            let denom = wtm[i].max(1.0);
            exec_w.push(m.tx_exec_cycles as f64 / denom);
            wait_w.push(m.tx_wait_cycles as f64 / denom);
            total.push(m.total_tx_cycles() as f64 / denom);
        }
        print_row(&format!("{} total", system.label()), &total, true);
        print_row(&format!("{}  exec", system.label()), &exec_w, false);
        print_row(&format!("{}  wait", system.label()), &wait_w, false);
    }
    println!(
        "\nPaper shape: GETM reduces both exec and wait on most workloads; \
         EAPG tracks WarpTM or slightly worse."
    );
}

// --------------------------------------------------------------- Fig. 11

fn fig11_spec(scale: Scale) -> ExperimentSpec {
    optimal_spec(
        scale,
        &[
            TmSystem::FgLock,
            TmSystem::WarpTmLL,
            TmSystem::Eapg,
            TmSystem::Getm,
        ],
        &GpuConfig::fermi_15core(),
    )
}

/// Fig. 11: total execution time (transactional and non-transactional
/// parts) normalized to the fine-grained-lock baseline, for WarpTM,
/// idealized EAPG, and GETM at optimal concurrency.
fn fig11(h: &Harness) {
    let base = GpuConfig::fermi_15core();
    banner("Fig. 11", "total execution time normalized to FGLock");

    let fgl: Vec<f64> = Benchmark::ALL
        .iter()
        .map(|&b| h.run_optimal(b, TmSystem::FgLock, &base).cycles as f64)
        .collect();

    print_header("system", true);
    print_row("FGLock", &vec![1.0; Benchmark::ALL.len()], true);
    for system in [TmSystem::WarpTmLL, TmSystem::Eapg, TmSystem::Getm] {
        let series: Vec<f64> = Benchmark::ALL
            .iter()
            .enumerate()
            .map(|(i, &b)| h.run_optimal(b, system, &base).cycles as f64 / fgl[i].max(1.0))
            .collect();
        print_row(system.label(), &series, true);
    }
    println!(
        "\nPaper shape: GETM gmean ~1.2x faster than WarpTM and within ~7% \
         of FGLock; the largest wins are on high-contention workloads."
    );
}

// --------------------------------------------------------------- Fig. 12

fn fig12_spec(scale: Scale) -> ExperimentSpec {
    fig11_spec(scale) // same four systems at optimal concurrency
}

/// Fig. 12: total crossbar traffic normalized to WarpTM, at optimal
/// concurrency.
fn fig12(h: &Harness) {
    let base = GpuConfig::fermi_15core();
    banner("Fig. 12", "crossbar traffic normalized to WarpTM");

    let wtm: Vec<f64> = Benchmark::ALL
        .iter()
        .map(|&b| h.run_optimal(b, TmSystem::WarpTmLL, &base).xbar_bytes as f64)
        .collect();

    print_header("system", true);
    for system in [
        TmSystem::FgLock,
        TmSystem::WarpTmLL,
        TmSystem::Eapg,
        TmSystem::Getm,
    ] {
        let series: Vec<f64> = Benchmark::ALL
            .iter()
            .enumerate()
            .map(|(i, &b)| h.run_optimal(b, system, &base).xbar_bytes as f64 / wtm[i].max(1.0))
            .collect();
        print_row(system.label(), &series, true);
    }
    println!(
        "\nPaper shape: GETM costs somewhat more traffic than WarpTM (it \
         contacts the LLC for stores too, and aborts more), EAPG costs the \
         most (broadcasts)."
    );
}

// --------------------------------------------------------------- Fig. 13

/// Fig. 13: mean validation-unit cycles per metadata-table access under
/// GETM (>= 1.0; the cuckoo table plus stash keeps insertions cheap even
/// at high load factors), with the distribution tail (p50/p95/p99) from
/// the latency histogram.
fn fig13(h: &Harness) {
    let base = GpuConfig::fermi_15core();
    banner("Fig. 13", "mean GETM metadata access latency (cycles)");

    print_header("", false);
    print!("{:<14}", "GETM");
    let mut vals = Vec::new();
    let mut tail = sim_core::LogHistogram::default();
    for b in Benchmark::ALL {
        let m = h.run_optimal(b, TmSystem::Getm, &base);
        vals.extend(m.mean_metadata_access_cycles);
        print!(" {:>8}", fmt_opt(m.mean_metadata_access_cycles));
        tail.merge(&m.metadata_latency);
    }
    println!(
        " {:>8.2}",
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    );

    println!("\n-- latency distribution tail (log-2 buckets) --");
    print!("{:<14}", "percentile");
    for b in Benchmark::ALL {
        print!(" {:>8}", b.name());
    }
    println!(" {:>8}", "ALL");
    for (label, p) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
        print!("{label:<14}");
        for b in Benchmark::ALL {
            let m = h.run_optimal(b, TmSystem::Getm, &base);
            print!(" {:>8}", m.metadata_latency.percentile(p));
        }
        println!(" {:>8}", tail.percentile(p));
    }
    println!(
        "\nPaper shape: close to 1.0 everywhere — long insertion chains are \
         rare because unlocked entries evict to the approximate table."
    );
}

/// Renders an optional mean: two decimals, or `-` for "not measured".
fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.2}"),
        None => "-".into(),
    }
}

// --------------------------------------------------------------- Fig. 14

fn fig14_spec(scale: Scale) -> ExperimentSpec {
    let base = GpuConfig::fermi_15core();
    let mut spec = optimal_spec(scale, &[TmSystem::WarpTmLL], &base);
    for entries in [2048usize, 4096, 8192] {
        spec.extend(optimal_spec(
            scale,
            &[TmSystem::Getm],
            &base.clone().with_metadata_entries(entries),
        ));
    }
    for bytes in [16u64, 32, 64, 128] {
        spec.extend(optimal_spec(
            scale,
            &[TmSystem::Getm],
            &base.clone().with_granularity(bytes),
        ));
    }
    spec
}

/// Fig. 14: GETM sensitivity to metadata-table size (2K / 4K / 8K entries
/// GPU-wide, top panel) and to metadata granularity (16 / 32 / 64 / 128
/// bytes, bottom panel). Execution time is normalized to the WarpTM
/// baseline at its optimal concurrency.
fn fig14(h: &Harness) {
    let base = GpuConfig::fermi_15core();
    banner(
        "Fig. 14",
        "GETM sensitivity to metadata size and granularity",
    );

    let wtm: Vec<f64> = Benchmark::ALL
        .iter()
        .map(|&b| h.run_optimal(b, TmSystem::WarpTmLL, &base).cycles as f64)
        .collect();

    println!("\n-- metadata entries GPU-wide (normalized to WarpTM) --");
    print_header("entries", true);
    for entries in [2048usize, 4096, 8192] {
        let series: Vec<f64> = Benchmark::ALL
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let cfg = base.clone().with_metadata_entries(entries);
                h.run_optimal(b, TmSystem::Getm, &cfg).cycles as f64 / wtm[i].max(1.0)
            })
            .collect();
        print_row(&format!("GETM-{}K", entries / 1024), &series, true);
    }

    println!("\n-- metadata granularity in bytes (normalized to WarpTM) --");
    print_header("granularity", true);
    for bytes in [16u64, 32, 64, 128] {
        let series: Vec<f64> = Benchmark::ALL
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let cfg = base.clone().with_granularity(bytes);
                h.run_optimal(b, TmSystem::Getm, &cfg).cycles as f64 / wtm[i].max(1.0)
            })
            .collect();
        print_row(&format!("GETM-{bytes}B"), &series, true);
    }
    println!(
        "\nPaper shape: 2K entries hurts under abundant parallelism, 8K \
         barely beats 4K; finer granularity helps (less false sharing) \
         until table pressure bites."
    );
}

// --------------------------------------------------------------- Fig. 15

/// Fig. 15: maximum total stall-buffer occupancy across all partitions at
/// any instant (GETM).
fn fig15(h: &Harness) {
    let base = GpuConfig::fermi_15core();
    banner("Fig. 15", "max total stall-buffer occupancy (requests)");

    print!("{:<14}", "");
    for b in Benchmark::ALL {
        print!(" {:>8}", b.name());
    }
    println!();
    print!("{:<14}", "GETM");
    for b in Benchmark::ALL {
        let m = h.run_optimal(b, TmSystem::Getm, &base);
        print!(" {:>8}", m.max_stall_occupancy);
    }
    println!();
    println!(
        "\nPaper shape: small in absolute terms (never above 12 in the \
         paper's runs) — a few addresses with a few waiters suffice."
    );
}

// --------------------------------------------------------------- Fig. 16

/// Fig. 16: average number of requests concurrently queued per stalled
/// address in GETM's stall buffers.
fn fig16(h: &Harness) {
    let base = GpuConfig::fermi_15core();
    banner("Fig. 16", "mean queued requests per stalled address");

    print_header("", false);
    print!("{:<14}", "GETM");
    let mut vals = Vec::new();
    for b in Benchmark::ALL {
        let m = h.run_optimal(b, TmSystem::Getm, &base);
        vals.extend(m.mean_stall_waiters_per_addr);
        print!(" {:>8}", fmt_opt(m.mean_stall_waiters_per_addr));
    }
    println!(
        " {:>8.2}",
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    );
    println!("\nPaper shape: close to 1 — addresses rarely have multiple waiters.");
}

// --------------------------------------------------------------- Fig. 17

fn fig17_spec(scale: Scale) -> ExperimentSpec {
    let systems = [TmSystem::WarpTmLL, TmSystem::Eapg, TmSystem::Getm];
    let mut spec = optimal_spec(scale, &systems, &GpuConfig::fermi_15core());
    spec.extend(optimal_spec(scale, &systems, &GpuConfig::large_56core()));
    spec
}

/// Fig. 17: scalability — total execution time in the 15-core and 56-core
/// configurations, every system, normalized to 15-core WarpTM.
fn fig17(h: &Harness) {
    let small = GpuConfig::fermi_15core();
    let large = GpuConfig::large_56core();
    banner(
        "Fig. 17",
        "15-core vs 56-core, normalized to 15-core WarpTM",
    );

    let wtm15: Vec<f64> = Benchmark::ALL
        .iter()
        .map(|&b| h.run_optimal(b, TmSystem::WarpTmLL, &small).cycles as f64)
        .collect();

    print_header("config", true);
    for (tag, cfg) in [("", &small), ("-56Core", &large)] {
        for system in [TmSystem::WarpTmLL, TmSystem::Eapg, TmSystem::Getm] {
            let series: Vec<f64> = Benchmark::ALL
                .iter()
                .enumerate()
                .map(|(i, &b)| h.run_optimal(b, system, cfg).cycles as f64 / wtm15[i].max(1.0))
                .collect();
            print_row(&format!("{}{tag}", system.label()), &series, true);
        }
    }
    println!(
        "\nPaper shape: the 56-core trends mirror the 15-core setup — more \
         cores speed everything up, with GETM keeping its relative edge."
    );
}

// -------------------------------------------------------------- Table IV

const TABLE4_SYSTEMS: [TmSystem; 4] = [
    TmSystem::WarpTmLL,
    TmSystem::Eapg,
    TmSystem::WarpTmEL,
    TmSystem::Getm,
];

fn table4_spec(scale: Scale) -> ExperimentSpec {
    ExperimentSpec::grid()
        .systems(TABLE4_SYSTEMS)
        .concurrency_limits(LIMITS.map(|(_, l)| l))
        .scale(scale)
        .build()
}

/// The paper's Table IV: (concurrency, aborts/1K commits) per system, in
/// WTM / EAPG / WTM-EL / GETM order. `None` concurrency = unlimited.
fn table4_paper_row(bench: Benchmark) -> [(Option<u32>, u32); 4] {
    use Benchmark::*;
    match bench {
        HtH => [
            (Some(2), 119),
            (Some(2), 113),
            (Some(8), 122),
            (Some(8), 460),
        ],
        HtM => [(Some(8), 98), (Some(4), 84), (Some(8), 83), (Some(8), 172)],
        HtL => [(Some(8), 80), (Some(4), 78), (Some(8), 78), (Some(8), 207)],
        Atm => [(Some(4), 27), (Some(4), 26), (Some(4), 25), (Some(4), 114)],
        Cl => [(Some(2), 93), (Some(2), 91), (Some(4), 119), (Some(4), 205)],
        ClTo => [(Some(4), 110), (Some(2), 61), (Some(4), 72), (Some(4), 176)],
        Bh => [(None, 93), (Some(2), 86), (Some(2), 145), (Some(8), 865)],
        Cc => [(None, 6), (None, 5), (None, 1), (None, 38)],
        Ap => [
            (Some(1), 231),
            (Some(1), 237),
            (Some(1), 204),
            (Some(1), 9188),
        ],
    }
}

fn fmt_limit(l: Option<u32>) -> String {
    match l {
        Some(n) => n.to_string(),
        None => "inf".into(),
    }
}

/// Table IV: optimal transactional-concurrency setting (warps per core)
/// and abort rate (aborts per 1000 commits) for every benchmark and
/// system. The harness *finds* the optimum by sweeping 1/2/4/8/16/NL and
/// reports both the discovered optimum and the paper's.
fn table4(h: &Harness) {
    let base = GpuConfig::fermi_15core();
    banner(
        "Table IV",
        "optimal concurrency (swept) and aborts per 1K commits",
    );

    println!(
        "{:<8} | {:>22} | {:>22}",
        "bench", "best concurrency", "aborts / 1K commits"
    );
    print!("{:<8} |", "");
    for s in TABLE4_SYSTEMS {
        print!(" {:>9}", s.label().replace("WarpTM", "WTM"));
    }
    print!(" |");
    for s in TABLE4_SYSTEMS {
        print!(" {:>9}", s.label().replace("WarpTM", "WTM"));
    }
    println!();

    let mut best_limits: Vec<(Benchmark, Vec<Option<u32>>)> = Vec::new();
    for b in Benchmark::ALL {
        let mut best: Vec<(Option<u32>, u64, f64)> = Vec::new();
        for system in TABLE4_SYSTEMS {
            let mut found: Option<(Option<u32>, u64, f64)> = None;
            for (_, limit) in LIMITS {
                let cfg = base.clone().with_concurrency(limit);
                let m = h.run(b, system, &cfg);
                if found.is_none() || m.cycles < found.as_ref().expect("set").1 {
                    found = Some((limit, m.cycles, m.aborts_per_1k_commits()));
                }
            }
            best.push(found.expect("swept at least one limit"));
        }
        print!("{:<8} |", b.name());
        for (limit, _, _) in &best {
            print!(" {:>9}", fmt_limit(*limit));
        }
        print!(" |");
        for (_, _, rate) in &best {
            print!(" {:>9.0}", rate);
        }
        println!();
        print!("{:<8} |", " paper");
        let paper = table4_paper_row(b);
        for (limit, _) in paper {
            print!(" {:>9}", fmt_limit(limit));
        }
        print!(" |");
        for (_, rate) in paper {
            print!(" {:>9}", rate);
        }
        println!();
        best_limits.push((b, best.into_iter().map(|(l, _, _)| l).collect()));
    }
    println!(
        "\nPaper shape: GETM tolerates higher concurrency than WarpTM on \
         contended benchmarks and sustains higher abort rates profitably."
    );

    // Companion breakdown: where the aborts above came from, per 1K
    // commits, at each system's best concurrency. Causes are counted
    // where they are detected (see `Metrics::aborts_by_cause`); `approx`
    // overlaps war/lock-conflict rather than adding to the total.
    println!("\n-- abort causes per 1K commits (at best concurrency) --");
    print!("{:<8} {:<10}", "bench", "system");
    for cause in sim_core::AbortCause::ALL {
        print!(" {:>13}", cause.label());
    }
    println!();
    for (b, limits) in &best_limits {
        for (system, limit) in TABLE4_SYSTEMS.iter().zip(limits) {
            let cfg = base.clone().with_concurrency(*limit);
            let m = h.run(*b, *system, &cfg);
            let per_1k = |n: u64| n as f64 * 1000.0 / m.commits.max(1) as f64;
            print!(
                "{:<8} {:<10}",
                b.name(),
                system.label().replace("WarpTM", "WTM")
            );
            for cause in sim_core::AbortCause::ALL {
                print!(" {:>13.0}", per_1k(m.aborts_by_cause(cause)));
            }
            println!();
        }
    }
}

// --------------------------------------------------------------- Table V

/// Table V: silicon area and power of the TM hardware structures for
/// WarpTM, EAPG, and GETM, from the analytical SRAM model (the paper used
/// CACTI 6.5 at 32 nm; our model is a linear fit to its scaling laws —
/// absolute values are fit constants, the structure inventory and the
/// ratios are the reproduction target). Purely analytical: no cells.
fn table5(_h: &Harness) {
    use gputm::silicon::{eapg_inventory, getm_inventory, table5 as table5_rows, warptm_inventory};
    banner(
        "Table V",
        "TM hardware area and power (analytical SRAM model)",
    );

    for inv in [warptm_inventory(), eapg_inventory(), getm_inventory()] {
        println!("\n{}:", inv.name);
        println!(
            "  {:<32} {:>10} {:>12} {:>12}",
            "structure", "bytes", "area mm^2", "power mW"
        );
        for s in &inv.structures {
            println!(
                "  {:<32} {:>10} {:>12.3} {:>12.2}",
                s.name,
                s.total_bytes(),
                s.area_mm2(),
                s.power_mw()
            );
        }
        println!(
            "  {:<32} {:>10} {:>12.3} {:>12.2}",
            "TOTAL",
            "",
            inv.area_mm2(),
            inv.power_mw()
        );
    }

    let rows = table5_rows();
    let (wa, wp) = (rows[0].1, rows[0].2);
    let (ea, ep) = (rows[1].1, rows[1].2);
    let (ga, gp) = (rows[2].1, rows[2].2);
    println!("\nRatios vs GETM (paper: WarpTM 3.6x area / 2.2x power; EAPG 4.9x / 3.6x):");
    println!(
        "  WarpTM / GETM : {:.1}x area, {:.1}x power",
        wa / ga,
        wp / gp
    );
    println!(
        "  EAPG   / GETM : {:.1}x area, {:.1}x power",
        ea / ga,
        ep / gp
    );
}

// -------------------------------------------------------------- Ablation

const ABLATION_BENCHES: [Benchmark; 4] = [
    Benchmark::HtH,
    Benchmark::HtL,
    Benchmark::Atm,
    Benchmark::Ap,
];

/// The three GETM variants the ablation compares, on one benchmark's
/// optimal-concurrency config.
fn ablation_cfgs(bench: Benchmark) -> [GpuConfig; 3] {
    let limit = optimal_concurrency(TmSystem::Getm, bench);
    let full = GpuConfig::fermi_15core().with_concurrency(limit);
    let mut maxreg = full.clone();
    maxreg.getm.approx_mode = ApproxMode::MaxRegisters;
    let mut nostall = full.clone();
    nostall.getm.disable_stall_buffer = true;
    [full, maxreg, nostall]
}

fn ablation_spec(scale: Scale) -> ExperimentSpec {
    let mut spec = ExperimentSpec::default();
    for b in ABLATION_BENCHES {
        for cfg in ablation_cfgs(b) {
            spec.push(CellSpec::new(b, scale, TmSystem::Getm, cfg));
        }
    }
    spec
}

// ----------------------------------------------------------------- Volta

const VOLTA_SYSTEMS: [TmSystem; 2] = [TmSystem::WarpTmLL, TmSystem::Getm];

fn volta_spec(scale: Scale) -> ExperimentSpec {
    let mut spec = optimal_spec(scale, &VOLTA_SYSTEMS, &GpuConfig::fermi_15core());
    spec.extend(optimal_spec(
        scale,
        &VOLTA_SYSTEMS,
        &GpuConfig::volta_80core(),
    ));
    spec
}

/// Volta-scale re-run of the headline claims: GETM versus WarpTM on the
/// paper's Fermi-class Table II machine and on the Volta-class memory
/// tier (sectored streaming L1, xor-hashed banked LLC, HBM
/// pseudo-channel timing — DESIGN.md §16), each at optimal concurrency.
///
/// The question this answers: does eager conflict detection's advantage
/// survive a modern memory system, where miss latency is shorter, DRAM
/// bandwidth far higher, and the L1 no longer retains store data?
fn volta(h: &Harness) {
    let fermi = GpuConfig::fermi_15core();
    let volta = GpuConfig::volta_80core();
    banner(
        "Volta",
        "headline claims on the Fermi-class vs Volta-class machine",
    );

    // Per machine: total execution time normalized to that machine's
    // WarpTM (the paper's fig. 11 framing, re-asked per generation).
    for (tag, cfg) in [("fermi-15core", &fermi), ("volta-80core", &volta)] {
        println!("\n-- {tag}: total execution time normalized to WarpTM --");
        let wtm: Vec<f64> = Benchmark::ALL
            .iter()
            .map(|&b| h.run_optimal(b, TmSystem::WarpTmLL, cfg).cycles as f64)
            .collect();
        print_header("system", true);
        for system in VOLTA_SYSTEMS {
            let series: Vec<f64> = Benchmark::ALL
                .iter()
                .enumerate()
                .map(|(i, &b)| h.run_optimal(b, system, cfg).cycles as f64 / wtm[i].max(1.0))
                .collect();
            print_row(system.label(), &series, true);
        }
    }

    // GETM speedup from the machine generation itself (same workload,
    // fermi cycles / volta cycles).
    println!("\n-- GETM cycles: fermi / volta (machine-generation speedup) --");
    print_header("", true);
    let series: Vec<f64> = Benchmark::ALL
        .iter()
        .map(|&b| {
            let f = h.run_optimal(b, TmSystem::Getm, &fermi).cycles as f64;
            let v = h.run_optimal(b, TmSystem::Getm, &volta).cycles as f64;
            f / v.max(1.0)
        })
        .collect();
    print_row("GETM", &series, true);

    // Memory-tier health on the volta machine: the counters the fermi
    // model cannot produce (sector misses, HBM queue stalls, hash-
    // interleave balance).
    println!("\n-- volta memory tier (GETM at optimal concurrency) --");
    println!(
        "{:<10} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "bench", "l1-hit", "llc-hit", "l1-smiss", "llc-smiss", "dram-acc", "hbm-stall", "imbal"
    );
    for b in Benchmark::ALL {
        let m = h.run_optimal(b, TmSystem::Getm, &volta);
        println!(
            "{:<10} {:>8.3} {:>8.3} {:>10} {:>10} {:>10} {:>10} {:>8}",
            b.name(),
            m.l1_hit_rate,
            m.llc_hit_rate,
            m.l1_sector_misses,
            m.llc_sector_misses,
            m.dram_accesses,
            m.dram_queue_stalls,
            fmt_opt(m.partition_imbalance),
        );
    }
    println!(
        "\nExpected shape: both systems speed up on the Volta machine (more \
         cores, faster DRAM), and GETM keeps its relative edge — eager \
         detection's savings are in protocol round-trips, not DRAM cycles, \
         so a faster memory system does not erase them. The xor-hashed \
         interleave keeps partition imbalance near 1."
    );
}

/// Ablation study of GETM's two key validation-unit design choices, both
/// called out in the paper (Sec. V-B):
///
/// * **Recency Bloom filter vs. max registers** — the paper first tried a
///   single pair of registers holding the maximum evicted `wts`/`rts` and
///   found "version numbers increased very quickly and caused many
///   aborts"; the Bloom filter discriminates between evicted addresses.
/// * **Stall buffer vs. abort-on-lock** — queueing logically-younger
///   requests behind a write reservation avoids aborts that pure eager
///   conflict detection would pay.
fn ablation(h: &Harness) {
    banner(
        "Ablation",
        "GETM design choices (cycles and aborts/1K commits)",
    );

    println!(
        "{:<10} {:>22} {:>22} {:>22}",
        "bench", "GETM (full)", "max-registers", "no stall buffer"
    );
    for b in ABLATION_BENCHES {
        let [full, maxreg, nostall] = ablation_cfgs(b).map(|cfg| h.run(b, TmSystem::Getm, &cfg));
        println!(
            "{:<10} {:>12} ({:>6.0}) {:>13} ({:>6.0}) {:>13} ({:>6.0})",
            b.name(),
            full.cycles,
            full.aborts_per_1k_commits(),
            maxreg.cycles,
            maxreg.aborts_per_1k_commits(),
            nostall.cycles,
            nostall.aborts_per_1k_commits(),
        );
    }
    println!(
        "\nExpected: the max-register approximation inflates abort rates \
         (most visibly on large-footprint benchmarks where evictions are \
         constant), and removing the stall buffer converts queueing into \
         extra aborts under write contention."
    );
}
