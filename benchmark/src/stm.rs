//! `stm-certify`: seeded transactional programs on the host-threaded TL2
//! STM, every execution certified by the opacity oracle. The simulator
//! does no work here; TL2, history recording and the checker do it all.

use crate::inputs;
use crate::run::{Ctx, Samples};
use crate::stats::{self, ratio};
use crate::trace::Tracer;
use gputm::{BackendOptions, Tl2Backend, TmBackend};
use std::time::Duration;
use workloads::fuzz::FuzzShape;
use workloads::suite::{Benchmark, Scale};
use workloads::TxProgram;

/// TL2 worker threads: the host's two CPUs.
const THREADS: usize = 2;

/// Alternating plain and recording executions per program behind
/// `tl2.record_overhead_pct` (traced runs only).
const OVERHEAD_REPS: usize = 3;

struct Subject {
    label: &'static str,
    prog: TxProgram,
}

fn subjects(seed: u64) -> Vec<Subject> {
    let paper = |b| inputs::tx_program(b, Scale::Paper, seed).expect("first-wave benchmark");
    vec![
        Subject {
            label: "HT-H",
            prog: paper(Benchmark::HtH),
        },
        Subject {
            label: "HT-L",
            prog: paper(Benchmark::HtL),
        },
        Subject {
            label: "ATM",
            prog: paper(Benchmark::Atm),
        },
        Subject {
            label: "single-cell",
            prog: inputs::fuzz_program(FuzzShape::SingleCell, seed),
        },
        Subject {
            label: "lock-steal",
            prog: inputs::fuzz_program(FuzzShape::LockSteal, seed),
        },
    ]
}

/// Counts from one certified execution.
#[derive(Default)]
struct Certified {
    commits: u64,
    aborts: u64,
    validation_aborts: u64,
    attempts: u64,
    versions: u64,
    execute: Duration,
    check: Duration,
}

pub fn run(ctx: &mut Ctx) {
    let seed = ctx.seed;
    let mut build = Vec::new();
    let mut make = |t: &mut Tracer, id| {
        let (s, d) = t.span("workloads.build", id, |_| subjects(seed));
        build.push(d.as_secs_f64());
        s
    };
    let subjects = ctx.setup(&mut make);

    let backend = Tl2Backend::new();
    let opts = BackendOptions::default()
        .threads(THREADS)
        .seed(seed)
        .record_history(true);
    let strict = backend.guarantees_opacity();
    let certify = |ctx: &mut Ctx, id: u64, s: &Subject| {
        ctx.tracer.span("program", id, |t| {
            let (out, execute) = t.span("tl2.execute", id, |_| backend.execute(&s.prog, &opts));
            let out = out.map_err(|e| e.to_string())?;
            let (verdict, check) = t.span("verify.check", id, |_| out.verdict(&s.prog, strict));
            let verdict = verdict.ok_or("no history was recorded")?;
            if !verdict.ok() {
                return Err(format!("oracle: {}", verdict.summary()));
            }
            let (invariant, _) = t.span("tl2.check", id, |_| out.check(&s.prog));
            invariant.map_err(|e| format!("invariant check failed: {e}"))?;
            let m = &out.metrics;
            Ok(Certified {
                commits: m.commits,
                aborts: m.aborts,
                validation_aborts: m.aborts_validation,
                attempts: verdict.stats.attempts,
                versions: verdict.stats.versions,
                execute,
                check,
            })
        })
    };

    // Untimed warm-up: the first program once.
    let id = ctx.cell();
    let warm_up = ctx.tracer.begin("warmup", id);
    let first = certify(ctx, id, &subjects[0]).0;
    ctx.tracer.end(warm_up);
    ctx.op("warm-up", first.err().into_iter().collect());

    let mut totals = Samples::new(subjects.len());
    let mut certified = Samples::new(subjects.len());
    let mut attempts: Vec<Vec<f64>> = vec![Vec::new(); subjects.len()];
    let mut commits: Vec<Option<u64>> = vec![None; subjects.len()];
    let mut sum = Certified::default();
    ctx.closed_loop(subjects.len(), |ctx, i| {
        let id = ctx.cell();
        let (res, total) = certify(ctx, id, &subjects[i]);
        totals.push(i, total);
        let mut errs = Vec::new();
        match res {
            Err(e) => errs.push(e),
            Ok(c) => {
                // Every transaction commits exactly once, however the
                // threads interleave.
                let want = *commits[i].get_or_insert(c.commits);
                if c.commits != want {
                    errs.push(format!("{} commits, earlier runs {want}", c.commits));
                }
                certified.push(i, c.execute + c.check);
                attempts[i].push(c.attempts as f64);
                sum.commits += c.commits;
                sum.aborts += c.aborts;
                sum.validation_aborts += c.validation_aborts;
                sum.attempts += c.attempts;
                sum.versions += c.versions;
                sum.execute += c.execute;
                sum.check += c.check;
            }
        }
        ctx.op(subjects[i].label, errs);
    });
    ctx.repeat_setup(&mut make);
    ctx.layer("workloads.build_ms", stats::median(&build) * 1e3);

    // Certified attempts per second of one pass, from each program's
    // median run: robust to a run disturbed by the host.
    let pass_attempts: f64 = attempts
        .iter()
        .filter(|a| !a.is_empty())
        .map(|a| stats::median(a))
        .sum();
    ctx.e2e.insert("wall_s", (totals.pass_s(), totals.count()));
    ctx.e2e.insert(
        "throughput",
        (ratio(pass_attempts, certified.pass_s()), certified.count()),
    );
    for (i, s) in subjects.iter().enumerate() {
        let line = format!(
            "{:<12} {:>6} commits  {}",
            s.label,
            commits[i].unwrap_or(0),
            stats::describe(&totals.0[i], 1e3, "ms")
        );
        ctx.note(line);
    }
    let passes = certified.count() as f64 / subjects.len() as f64;
    let per_pass = |n: u64| ratio(n as f64, passes);
    let exec_ms = sum.execute.as_secs_f64() * 1e3;
    ctx.layer("tl2.commits_per_ms", ratio(sum.commits as f64, exec_ms));
    ctx.layer(
        "verify.attempts_per_ms",
        ratio(sum.attempts as f64, sum.check.as_secs_f64() * 1e3),
    );
    ctx.layer("verify.attempts", per_pass(sum.attempts));
    ctx.layer("verify.versions", per_pass(sum.versions));
    ctx.layer("tl2.commits", per_pass(sum.commits));
    ctx.layer("tl2.aborts", per_pass(sum.aborts));
    ctx.layer("tl2.validation_aborts", per_pass(sum.validation_aborts));
    ctx.layer(
        "tl2.commit_ratio",
        ratio(sum.commits as f64, (sum.commits + sum.aborts) as f64),
    );
    ctx.note(format!(
        "TL2: {:.0} commits and {:.1} aborts per pass; tl2_commits_per_s {:.0}",
        per_pass(sum.commits),
        per_pass(sum.aborts),
        ratio(sum.commits as f64, exec_ms / 1e3)
    ));

    if ctx.tracer.is_on() {
        // History recording's cost: the same programs executed with and
        // without it, alternating, outside the timed loop.
        let plain_opts = opts.clone().record_history(false);
        let (mut plain, mut recorded) = (Duration::ZERO, Duration::ZERO);
        for s in &subjects {
            for _ in 0..OVERHEAD_REPS {
                for (opts, into) in [(&plain_opts, &mut plain), (&opts, &mut recorded)] {
                    let id = ctx.cell();
                    let (out, d) = ctx.tracer.span("tl2.execute_overhead", id, |_| {
                        backend.execute(&s.prog, opts)
                    });
                    *into += d;
                    let errs = match out {
                        Err(e) => vec![e.to_string()],
                        Ok(out) => out.check(&s.prog).err().into_iter().collect(),
                    };
                    ctx.op(s.label, errs);
                }
            }
        }
        ctx.layer(
            "tl2.record_overhead_pct",
            100.0 * (ratio(recorded.as_secs_f64(), plain.as_secs_f64()) - 1.0),
        );
    }
}
