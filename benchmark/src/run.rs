//! What every workload shares: the closed loop, repeated set-up, the
//! correctness gates that feed `failed`, and the report it hands back.

use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups repeated after the timed loop; `setup_s` is the median of these
/// and the first. The first one pays for growing the heap (2-5x a repeat),
/// so it stands outside the median's middle.
const SETUP_REPS: usize = 41;

/// Name of the root span around the timed loop; per-layer self-time
/// shares are taken inside it.
pub const LOOP: &str = "loop";

/// One workload run in progress.
pub struct Ctx {
    pub seed: u64,
    pub budget: Duration,
    pub tracer: Tracer,
    next_cell: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Seconds of every set-up so far.
    setup_secs: Vec<f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// End-to-end values with the number of samples behind each.
    pub e2e: BTreeMap<&'static str, (f64, usize)>,
    pub layers: BTreeMap<&'static str, f64>,
}

impl Ctx {
    pub fn new(seed: u64, budget: Duration, trace: bool) -> Self {
        Ctx {
            seed,
            budget,
            tracer: Tracer::new(trace),
            next_cell: 0,
            attempted: 0,
            failures: Vec::new(),
            setup_secs: Vec::new(),
            notes: Vec::new(),
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
        }
    }

    /// A fresh cell id for the spans of one operation.
    pub fn cell(&mut self) -> u64 {
        self.next_cell += 1;
        self.next_cell
    }

    /// Counts one operation and the gates it failed; true if it passed.
    pub fn op(&mut self, label: &str, errors: Vec<String>) -> bool {
        self.attempted += 1;
        let ok = errors.is_empty();
        if !ok {
            self.failures
                .push(format!("{label}: {}", errors.join("; ")));
        }
        ok
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(stats::find(name).is_some(), "unknown metric {name}");
        self.layers.insert(name, value);
    }

    /// Runs the set-up once in its own root span and returns its result,
    /// the inputs of the timed loop.
    pub fn setup<T>(&mut self, f: &mut impl FnMut(&mut Tracer, u64) -> T) -> T {
        let id = self.cell();
        let (v, d) = self.tracer.span("setup", id, |t| f(t, id));
        self.setup_secs.push(d.as_secs_f64());
        v
    }

    /// After the timed loop: runs the set-up [`SETUP_REPS`] more times,
    /// dropping what they build, and sets `setup_s` to the median of all
    /// set-ups.
    pub fn repeat_setup<T>(&mut self, f: &mut impl FnMut(&mut Tracer, u64) -> T) {
        let first = self.setup_secs.len();
        for _ in 0..SETUP_REPS {
            self.setup(f);
        }
        let secs = &self.setup_secs;
        let line = format!(
            "setup_s: first {}, after the loop {}",
            stats::describe(&secs[..first], 1.0, "s"),
            stats::describe(&secs[first..], 1.0, "s")
        );
        let v = (stats::median(secs), secs.len());
        self.note(line);
        self.e2e.insert("setup_s", v);
    }

    /// Runs `n` operations in a closed loop inside one `loop` root span:
    /// each starts only after the previous one returned. Every operation
    /// runs once; the loop then goes round again until the budget is spent.
    pub fn closed_loop(&mut self, n: usize, mut op: impl FnMut(&mut Ctx, usize)) {
        let start = Instant::now();
        let id = self.cell();
        let root = self.tracer.begin(LOOP, id);
        let mut i = 0;
        while i < n || start.elapsed() < self.budget {
            op(self, i % n);
            i += 1;
        }
        self.tracer.end(root);
    }
}

/// Time samples in seconds, per operation of a workload's op list.
pub struct Samples(pub Vec<Vec<f64>>);

impl Samples {
    pub fn new(n: usize) -> Self {
        Samples(vec![Vec::new(); n])
    }

    pub fn push(&mut self, i: usize, d: Duration) {
        self.0[i].push(d.as_secs_f64());
    }

    /// Median seconds of operation `i` (0 if it never ran).
    pub fn median(&self, i: usize) -> f64 {
        if self.0[i].is_empty() {
            0.0
        } else {
            stats::median(&self.0[i])
        }
    }

    /// One pass of the op list: the sum of each operation's median.
    pub fn pass_s(&self) -> f64 {
        (0..self.0.len()).map(|i| self.median(i)).sum()
    }

    /// Samples taken, over all operations.
    pub fn count(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }
}
