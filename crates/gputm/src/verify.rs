//! Offline serializability and opacity checking over recorded histories.
//!
//! [`check_history`] takes the [`History`] a verified run recorded (see
//! [`crate::RunOptions::verify`]), the workload's initial memory image, and
//! the engine's final committed memory, and judges the run:
//!
//! 1. **Conflict-serializability of committed transactions.** The checker
//!    builds a version-tagged conflict graph — reads-from edges (writer of
//!    the observed version happens before the reader), version-order edges
//!    (per-address write chains), and anti-dependence edges (a reader of
//!    version *v* happens before the writer of the next version) — and
//!    extracts a serial witness by topological sort, breaking ties by
//!    commit-decision order. The witness is then *replayed* against a
//!    sequential memory oracle: every committed read must see exactly the
//!    value the witness prefix produces, and the replayed final state must
//!    equal the engine's committed memory.
//! 2. **ABA fallback.** Value-based systems (WarpTM) admit histories whose
//!    version graph is cyclic yet serializable because a cell returned to a
//!    previously-observed value. When the graph is cyclic the checker falls
//!    back to replaying in commit-decision order with full value checks; a
//!    clean replay certifies the run (flagged as [`Verdict::aba_fallback`]),
//!    a failing one yields a minimized cyclic counterexample.
//! 3. **Opacity of aborted and open attempts.** Every attempt that did not
//!    commit must still have observed a *consistent snapshot*: some prefix
//!    of the serial witness under which every one of its reads is current.
//!    The checker intersects the witness-position lifetime intervals of the
//!    observed versions (with a value-aware fallback for ABA) and reports
//!    any attempt whose reads admit no common snapshot.
//!
//! GETM serializes by logical timestamp, not commit order, so the witness
//! from the graph — not the commit sequence — is the primary certificate;
//! the commit sequence only breaks ties and drives the fallback.

use gpu_mem::MemImage;
use sim_core::history::{History, HistoryStats, TxnKind, TxnOutcome, TxnRecord, INITIAL_VERSION};
use sim_core::trace::{EventBus, SimEvent, Stamp, TraceSink};
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::io::{self, Write};

/// One operation of a counterexample transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// A recorded read: the value observed and the version that produced it
    /// ([`INITIAL_VERSION`] for the pre-run value).
    Read {
        /// Word address.
        addr: u64,
        /// Observed value.
        value: u64,
        /// Observed version id.
        version: u32,
    },
    /// A recorded committed write and the version it installed.
    Write {
        /// Word address.
        addr: u64,
        /// Written value.
        value: u64,
        /// Installed version id.
        version: u32,
    },
}

/// One transaction of a minimized counterexample.
#[derive(Debug, Clone)]
pub struct TraceTxn {
    /// History id of the attempt.
    pub id: u32,
    /// Actor kind (transaction, plain store, atomic).
    pub kind: TxnKind,
    /// Issuing core.
    pub core: usize,
    /// Global warp id.
    pub gwid: u32,
    /// Lane within the warp.
    pub lane: u32,
    /// Cycle the attempt began.
    pub begin_cycle: u64,
    /// How the attempt ended.
    pub outcome: TxnOutcome,
    /// The attempt's reads and writes, reads first.
    pub ops: Vec<TraceOp>,
}

impl TraceTxn {
    fn end_cycle(&self) -> u64 {
        match self.outcome {
            TxnOutcome::Committed { cycle, .. } | TxnOutcome::Aborted { cycle } => cycle,
            TxnOutcome::Open => self.begin_cycle + 1,
        }
    }
}

/// What the checker found wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// The engine raised a typed protocol violation mid-run (a reply routed
    /// to a token no request owns, and similar wire-level breakage).
    Protocol {
        /// What broke.
        what: String,
        /// The offending correlation token.
        token: u64,
        /// When it broke.
        cycle: u64,
    },
    /// The committed conflict graph is cyclic and no commit-order replay
    /// explains the observed values: the run is not serializable.
    NonSerializable {
        /// Length of the minimized dependency cycle.
        cycle_len: usize,
    },
    /// A committed read does not match the sequential oracle's value at the
    /// reader's witness position.
    ReadInconsistent {
        /// The reading attempt.
        txn: u32,
        /// Word address read.
        addr: u64,
        /// What the sequential oracle holds there.
        expected: u64,
        /// What the lane actually observed.
        observed: u64,
    },
    /// An aborted (or still-open) attempt observed reads that admit no
    /// consistent snapshot: opacity is broken.
    OpacityBroken {
        /// The doomed attempt.
        txn: u32,
    },
    /// A memory version was installed by an attempt that never committed.
    AbortedWriterVisible {
        /// The aborted/open writer.
        txn: u32,
        /// The address it dirtied.
        addr: u64,
    },
    /// The engine's final memory differs from the sequential oracle replay.
    FinalStateDiverged {
        /// Diverging word address.
        addr: u64,
        /// Engine's committed value.
        engine: u64,
        /// Oracle's replayed value.
        oracle: u64,
    },
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::Protocol { what, token, cycle } => {
                write!(
                    f,
                    "protocol violation at cycle {cycle}: {what} (token {token})"
                )
            }
            ViolationKind::NonSerializable { cycle_len } => {
                write!(
                    f,
                    "not serializable: {cycle_len}-transaction dependency cycle"
                )
            }
            ViolationKind::ReadInconsistent {
                txn,
                addr,
                expected,
                observed,
            } => write!(
                f,
                "txn {txn} read {observed} at {addr:#x} but the serial oracle holds {expected}"
            ),
            ViolationKind::OpacityBroken { txn } => {
                write!(
                    f,
                    "aborted txn {txn} observed no consistent snapshot (opacity)"
                )
            }
            ViolationKind::AbortedWriterVisible { txn, addr } => {
                write!(f, "aborted txn {txn} made its write to {addr:#x} visible")
            }
            ViolationKind::FinalStateDiverged {
                addr,
                engine,
                oracle,
            } => write!(
                f,
                "final state diverged at {addr:#x}: engine {engine}, oracle {oracle}"
            ),
        }
    }
}

/// A violation plus the minimized set of transactions that exhibit it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What went wrong.
    pub kind: ViolationKind,
    /// The smallest set of involved transactions the checker could isolate,
    /// in witness (or cycle) order.
    pub counterexample: Vec<TraceTxn>,
}

/// The checker's judgement of one run.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Aggregate history counts (attempts, commits, versions, ...).
    pub stats: HistoryStats,
    /// Length of the serial witness (committed transactions ordered).
    pub witness_len: usize,
    /// The conflict graph was cyclic but a commit-order value replay
    /// certified the run (an ABA history — possible under value-based
    /// validation, impossible under GETM's eager locking).
    pub aba_fallback: bool,
    /// Aborted/open attempts whose snapshots were checked for opacity.
    pub opacity_checked: u64,
    /// Torn aborted snapshots found but *waived* because the system never
    /// promised its doomed attempts a consistent view (see
    /// [`crate::config::TmSystem::guarantees_opacity`]). Always zero when
    /// the check ran with `require_opacity`.
    pub opacity_waived: u64,
    /// Everything found wrong; empty means the run is certified.
    pub violations: Vec<Violation>,
}

impl Verdict {
    /// Whether the run is certified serializable and opaque.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// A one-line human summary.
    pub fn summary(&self) -> String {
        if self.ok() {
            let grade = if self.opacity_waived == 0 {
                "serializable+opaque".to_string()
            } else {
                format!(
                    "serializable ({} torn aborted snapshot(s) waived)",
                    self.opacity_waived
                )
            };
            format!(
                "{grade}: {} committed, {} aborted, {} non-tx, {} versions{}",
                self.stats.committed,
                self.stats.aborted,
                self.stats.non_tx,
                self.stats.versions,
                if self.aba_fallback {
                    " (commit-order fallback)"
                } else {
                    ""
                }
            )
        } else {
            format!(
                "{} violation(s); first: {}",
                self.violations.len(),
                self.violations[0].kind
            )
        }
    }

    /// Panics with a readable report if the run was not certified.
    ///
    /// # Panics
    ///
    /// Panics when any violation was found.
    pub fn assert_ok(&self) {
        assert!(self.ok(), "verification failed: {}", self.summary());
    }
}

/// A verdict for a run the engine itself rejected with
/// [`sim_core::SimError::ProtocolViolation`].
pub fn protocol_verdict(what: &str, token: u64, cycle: u64, stats: HistoryStats) -> Verdict {
    Verdict {
        stats,
        witness_len: 0,
        aba_fallback: false,
        opacity_checked: 0,
        opacity_waived: 0,
        violations: vec![Violation {
            kind: ViolationKind::Protocol {
                what: what.to_string(),
                token,
                cycle,
            },
            counterexample: Vec::new(),
        }],
    }
}

/// The unified verification entry point: one builder for every history
/// source (simulator runs, the TL2 backend, hand-built histories in tests),
/// with strictness and counterexample export as orthogonal knobs.
///
/// The two mandatory inputs — the run's initial memory and its final
/// committed memory — are what distinguish *checking a history* from
/// merely parsing one: the oracle replays the serial witness from the
/// initial image and requires it to reproduce the final image exactly.
///
/// ```no_run
/// use gputm::verify::Checker;
/// # let history = sim_core::history::History::new();
/// # let initial = std::collections::HashMap::new();
/// # let final_mem = gpu_mem::MemImage::new();
/// let verdict = Checker::for_run(&initial, &final_mem)
///     .strict(true) // torn aborted snapshots are violations (opacity)
///     .export("counterexample.json")
///     .check(&history);
/// assert!(verdict.ok());
/// ```
#[derive(Debug, Clone)]
pub struct Checker<'a> {
    initial: &'a HashMap<u64, u64>,
    final_mem: &'a MemImage,
    strict: bool,
    export: Option<std::path::PathBuf>,
}

impl<'a> Checker<'a> {
    /// A checker for a run that started from `initial` memory (unlisted
    /// words are zero) and committed `final_mem`.
    pub fn for_run(initial: &'a HashMap<u64, u64>, final_mem: &'a MemImage) -> Self {
        Checker {
            initial,
            final_mem,
            strict: false,
            export: None,
        }
    }

    /// Strict mode: aborted/open attempts with torn snapshots are hard
    /// violations instead of waived findings. Use for systems that promise
    /// opacity (TL2, [`crate::config::TmSystem::guarantees_opacity`]).
    #[must_use]
    pub fn strict(mut self, on: bool) -> Self {
        self.strict = on;
        self
    }

    /// On a failing verdict, export the first violation's counterexample
    /// as a Chrome/Perfetto trace to `path` (best-effort: an I/O failure
    /// is reported to stderr, never masks the verdict).
    #[must_use]
    pub fn export(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.export = Some(path.into());
        self
    }

    /// Judges one recorded history. Serializability of committed
    /// transactions is always checked; [`Checker::strict`] controls the
    /// opacity of doomed attempts.
    pub fn check(&self, h: &History) -> Verdict {
        let verdict = run_check(h, self.initial, self.final_mem, self.strict);
        if let (Some(path), Some(v)) = (&self.export, verdict.violations.first()) {
            let result =
                std::fs::File::create(path).and_then(|mut f| export_counterexample(v, &mut f));
            if let Err(e) = result {
                eprintln!(
                    "warning: counterexample export to {} failed: {e}",
                    path.display()
                );
            }
        }
        verdict
    }
}

/// Checks one recorded history against the sequential oracle.
///
/// Thin wrapper over [`Checker`] for the common no-export case:
/// `initial_mem` is the workload's initial image (unlisted words are
/// zero), `final_mem` is the engine's committed memory after the run, and
/// `require_opacity` maps to [`Checker::strict`].
pub fn check_history(
    h: &History,
    initial_mem: &HashMap<u64, u64>,
    final_mem: &MemImage,
    require_opacity: bool,
) -> Verdict {
    Checker::for_run(initial_mem, final_mem)
        .strict(require_opacity)
        .check(h)
}

fn run_check(
    h: &History,
    initial_mem: &HashMap<u64, u64>,
    final_mem: &MemImage,
    require_opacity: bool,
) -> Verdict {
    let mut verdict = Verdict {
        stats: h.stats(),
        witness_len: 0,
        aba_fallback: false,
        opacity_checked: 0,
        opacity_waived: 0,
        violations: Vec::new(),
    };

    // Dense node space over committed transactions (tx and singleton alike).
    let nodes: Vec<u32> = (0..h.txns.len() as u32)
        .filter(|&id| h.txns[id as usize].committed())
        .collect();
    let index: HashMap<u32, usize> = nodes.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    verdict.witness_len = nodes.len();

    // No version may come from an attempt that never committed.
    for v in &h.versions {
        if !h.txns[v.writer as usize].committed() {
            verdict.violations.push(Violation {
                kind: ViolationKind::AbortedWriterVisible {
                    txn: v.writer,
                    addr: v.addr,
                },
                counterexample: vec![trace_txn(h, v.writer)],
            });
        }
    }
    if !verdict.violations.is_empty() {
        return verdict;
    }

    // Per-address version chains, in apply order. `h.versions` is already
    // globally apply-ordered, so per-address subsequences are the chains.
    let mut chains: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut chain_pos: Vec<usize> = vec![0; h.versions.len()];
    for (vi, v) in h.versions.iter().enumerate() {
        let chain = chains.entry(v.addr).or_default();
        chain_pos[vi] = chain.len();
        chain.push(vi as u32);
    }

    // Conflict-graph edges among committed transactions.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut indeg: Vec<usize> = vec![0; nodes.len()];
    let add_edge = |adj: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>, a: usize, b: usize| {
        if a != b {
            adj[a].push(b);
            indeg[b] += 1;
        }
    };
    // Version order: consecutive writers of each address chain.
    for chain in chains.values() {
        for w in chain.windows(2) {
            let a = index[&h.versions[w[0] as usize].writer];
            let b = index[&h.versions[w[1] as usize].writer];
            add_edge(&mut adj, &mut indeg, a, b);
        }
    }
    // Reads-from and anti-dependence edges of committed readers.
    for &id in &nodes {
        let r = index[&id];
        for read in &h.txns[id as usize].reads {
            let succ = if read.version == INITIAL_VERSION {
                // Reading the pre-run value: the reader precedes the first
                // writer of the address, if any.
                chains.get(&read.addr).map(|c| c[0])
            } else {
                let vi = read.version as usize;
                let w = index[&h.versions[vi].writer];
                add_edge(&mut adj, &mut indeg, w, r);
                chains[&read.addr].get(chain_pos[vi] + 1).copied()
            };
            if let Some(nv) = succ {
                let w_next = index[&h.versions[nv as usize].writer];
                add_edge(&mut adj, &mut indeg, r, w_next);
            }
        }
    }

    // Kahn toposort, ready set ordered by commit-decision sequence so the
    // witness is deterministic and as close to the engine's own order as
    // the dependencies allow.
    let seq_of = |n: usize| h.txns[nodes[n] as usize].commit_seq().unwrap_or(u64::MAX);
    let mut ready: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = indeg
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d == 0)
        .map(|(n, _)| std::cmp::Reverse((seq_of(n), n)))
        .collect();
    let mut witness: Vec<usize> = Vec::with_capacity(nodes.len());
    let mut indeg_work = indeg.clone();
    while let Some(std::cmp::Reverse((_, n))) = ready.pop() {
        witness.push(n);
        for &m in &adj[n] {
            indeg_work[m] -= 1;
            if indeg_work[m] == 0 {
                ready.push(std::cmp::Reverse((seq_of(m), m)));
            }
        }
    }

    let acyclic = witness.len() == nodes.len();
    if !acyclic {
        // Tier 2: commit-decision order with full value checks. A clean
        // replay certifies an ABA history; a dirty one is a real cycle.
        let mut by_seq: Vec<usize> = (0..nodes.len()).collect();
        by_seq.sort_by_key(|&n| seq_of(n));
        witness = by_seq;
        match replay(h, &nodes, &witness, initial_mem, final_mem) {
            Ok(()) => verdict.aba_fallback = true,
            Err(_) => {
                let cycle = shortest_cycle(&adj, &indeg);
                verdict.violations.push(Violation {
                    kind: ViolationKind::NonSerializable {
                        cycle_len: cycle.len(),
                    },
                    counterexample: cycle.iter().map(|&n| trace_txn(h, nodes[n])).collect(),
                });
                return verdict;
            }
        }
    } else if let Err(v) = replay(h, &nodes, &witness, initial_mem, final_mem) {
        // An acyclic graph whose witness replay fails means the recorded
        // values contradict the recorded versions — surface it as-is.
        verdict.violations.push(v);
        return verdict;
    }

    // Opacity of aborted/open attempts over the witness. The scan always
    // runs; whether a torn snapshot is a violation or merely *counted* is
    // the caller's call (`require_opacity`) — systems without an opacity
    // promise still get the diagnostic tally, and serializability above
    // holds either way.
    let n = witness.len();
    // Witness position of each committed txn, 1-based ("applied after the
    // first p transactions").
    let mut pos: HashMap<u32, usize> = HashMap::with_capacity(n);
    for (i, &nd) in witness.iter().enumerate() {
        pos.insert(nodes[nd], i + 1);
    }
    let initial_of = |addr: u64| initial_mem.get(&addr).copied().unwrap_or(0);
    // Lifetime interval of a version over snapshot points 0..=n.
    let interval_of = |addr: u64, version: u32| -> (usize, usize) {
        if version == INITIAL_VERSION {
            let hi = chains
                .get(&addr)
                .map(|c| pos[&h.versions[c[0] as usize].writer] - 1)
                .unwrap_or(n);
            (0, hi)
        } else {
            let vi = version as usize;
            let lo = pos[&h.versions[vi].writer];
            let hi = chains[&addr]
                .get(chain_pos[vi] + 1)
                .map(|&nv| pos[&h.versions[nv as usize].writer] - 1)
                .unwrap_or(n);
            (lo, hi)
        }
    };
    for id in 0..h.txns.len() as u32 {
        let t = &h.txns[id as usize];
        if t.kind != TxnKind::Tx || t.committed() || t.reads.is_empty() {
            continue;
        }
        verdict.opacity_checked += 1;
        let mut lo = 0usize;
        let mut hi = n;
        for read in &t.reads {
            let (l, u) = interval_of(read.addr, read.version);
            lo = lo.max(l);
            hi = hi.min(u);
        }
        if lo <= hi {
            continue;
        }
        // Value-aware fallback: a snapshot is also consistent if every read
        // value matches *some* version (or the initial value) alive there.
        let candidates: Vec<Vec<(usize, usize)>> = t
            .reads
            .iter()
            .map(|read| {
                let mut ivs: Vec<(usize, usize)> = Vec::new();
                if initial_of(read.addr) == read.value {
                    ivs.push(interval_of(read.addr, INITIAL_VERSION));
                }
                if let Some(chain) = chains.get(&read.addr) {
                    for &vi in chain {
                        if h.versions[vi as usize].value == read.value {
                            ivs.push(interval_of(read.addr, vi));
                        }
                    }
                }
                ivs.sort_unstable();
                ivs
            })
            .collect();
        if !intersect_all(&candidates, n) {
            if !require_opacity {
                verdict.opacity_waived += 1;
                continue;
            }
            let mut cex = vec![trace_txn(h, id)];
            for read in &t.reads {
                if read.version != INITIAL_VERSION {
                    let w = h.versions[read.version as usize].writer;
                    if !cex.iter().any(|t| t.id == w) {
                        cex.push(trace_txn(h, w));
                    }
                }
            }
            verdict.violations.push(Violation {
                kind: ViolationKind::OpacityBroken { txn: id },
                counterexample: cex,
            });
        }
    }

    verdict
}

/// Replays `witness` (dense node indices into `nodes`) against a sequential
/// memory oracle, checking every recorded read and the final state.
///
/// The oracle memory is a `BTreeMap` and the engine image is walked in
/// ascending address order, so when several words diverge the violation
/// always names the lowest address — independent of hasher seeding.
fn replay(
    h: &History,
    nodes: &[u32],
    witness: &[usize],
    initial_mem: &HashMap<u64, u64>,
    final_mem: &MemImage,
) -> Result<(), Violation> {
    let mut mem: BTreeMap<u64, u64> = initial_mem.iter().map(|(&a, &v)| (a, v)).collect();
    let mut last_writer: HashMap<u64, u32> = HashMap::new();
    for &nd in witness {
        let id = nodes[nd];
        let t = &h.txns[id as usize];
        for read in &t.reads {
            let expected = mem.get(&read.addr).copied().unwrap_or(0);
            if expected != read.value {
                let mut cex = vec![trace_txn(h, id)];
                if read.version != INITIAL_VERSION {
                    cex.push(trace_txn(h, h.versions[read.version as usize].writer));
                }
                if let Some(&w) = last_writer.get(&read.addr) {
                    if !cex.iter().any(|t| t.id == w) {
                        cex.push(trace_txn(h, w));
                    }
                }
                return Err(Violation {
                    kind: ViolationKind::ReadInconsistent {
                        txn: id,
                        addr: read.addr,
                        expected,
                        observed: read.value,
                    },
                    counterexample: cex,
                });
            }
        }
        for w in &t.writes {
            mem.insert(w.addr, w.value);
            last_writer.insert(w.addr, id);
        }
    }
    // The replayed image must match the engine's committed memory on the
    // union of touched addresses (unlisted words are zero on both sides).
    for (addr, v) in final_mem.iter_nonzero() {
        let o = mem.get(&addr).copied().unwrap_or(0);
        if o != v {
            return Err(diverged(h, &last_writer, addr, v, o));
        }
    }
    for (&addr, &o) in &mem {
        let v = final_mem.get(addr);
        if o != v {
            return Err(diverged(h, &last_writer, addr, v, o));
        }
    }
    Ok(())
}

fn diverged(
    h: &History,
    last_writer: &HashMap<u64, u32>,
    addr: u64,
    engine: u64,
    oracle: u64,
) -> Violation {
    Violation {
        kind: ViolationKind::FinalStateDiverged {
            addr,
            engine,
            oracle,
        },
        counterexample: last_writer
            .get(&addr)
            .map(|&w| vec![trace_txn(h, w)])
            .unwrap_or_default(),
    }
}

/// Intersects per-read candidate interval lists over snapshot points
/// `0..=n`; true if some point satisfies every read.
fn intersect_all(candidates: &[Vec<(usize, usize)>], n: usize) -> bool {
    let mut current: Vec<(usize, usize)> = vec![(0, n)];
    for ivs in candidates {
        let mut next: Vec<(usize, usize)> = Vec::new();
        for &(a, b) in &current {
            for &(c, d) in ivs {
                let lo = a.max(c);
                let hi = b.min(d);
                if lo <= hi {
                    next.push((lo, hi));
                }
            }
        }
        if next.is_empty() {
            return false;
        }
        next.sort_unstable();
        next.dedup();
        current = next;
    }
    true
}

/// Finds a short dependency cycle in a cyclic graph: start from the nodes
/// Kahn could not drain, locate one cycle by DFS, then minimize it with a
/// BFS from each of its members (bounded).
fn shortest_cycle(adj: &[Vec<usize>], indeg: &[usize]) -> Vec<usize> {
    let n = adj.len();
    // Peel the acyclic fringe from both ends so the walk below only sees
    // the cyclic core: nodes with no remaining predecessors (Kahn-style)
    // and, symmetrically, nodes with no remaining successors. Afterwards
    // every alive node has at least one alive successor.
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut outdeg: Vec<usize> = adj.iter().map(Vec::len).collect();
    for (u, vs) in adj.iter().enumerate() {
        for &v in vs {
            radj[v].push(u);
        }
    }
    let mut indeg = indeg.to_vec();
    let mut alive = vec![true; n];
    let mut stack: Vec<usize> = (0..n)
        .filter(|&i| indeg[i] == 0 || outdeg[i] == 0)
        .collect();
    while let Some(u) = stack.pop() {
        if !alive[u] {
            continue;
        }
        alive[u] = false;
        for &v in &adj[u] {
            if alive[v] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    stack.push(v);
                }
            }
        }
        for &v in &radj[u] {
            if alive[v] {
                outdeg[v] -= 1;
                if outdeg[v] == 0 {
                    stack.push(v);
                }
            }
        }
    }
    let start = (0..n).find(|&i| alive[i]).expect("graph is cyclic");
    // Any node alive after peeling lies on or upstream of a cycle within
    // the core; walk forward (always possible: every alive node keeps an
    // alive successor) until a repeat, which closes a cycle.
    let mut seen_at: HashMap<usize, usize> = HashMap::new();
    let mut path = vec![start];
    seen_at.insert(start, 0);
    let cycle: Vec<usize> = loop {
        let u = *path.last().expect("nonempty");
        let v = *adj[u]
            .iter()
            .find(|&&v| alive[v])
            .expect("core nodes keep a cyclic successor");
        if let Some(&i) = seen_at.get(&v) {
            break path[i..].to_vec();
        }
        seen_at.insert(v, path.len());
        path.push(v);
    };
    // Minimize: BFS from each cycle member (capped) for the shortest loop.
    let mut best = cycle.clone();
    for &s in cycle.iter().take(16) {
        if let Some(c) = bfs_cycle(adj, &alive, s) {
            if c.len() < best.len() {
                best = c;
            }
        }
    }
    best
}

/// Shortest cycle through `s` restricted to `alive` nodes, via BFS.
fn bfs_cycle(adj: &[Vec<usize>], alive: &[bool], s: usize) -> Option<Vec<usize>> {
    let mut prev: HashMap<usize, usize> = HashMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(s);
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if !alive[v] {
                continue;
            }
            if v == s {
                let mut path = vec![u];
                let mut x = u;
                while x != s {
                    x = prev[&x];
                    path.push(x);
                }
                path.reverse();
                return Some(path);
            }
            if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(v) {
                e.insert(u);
                queue.push_back(v);
            }
        }
    }
    None
}

fn trace_txn(h: &History, id: u32) -> TraceTxn {
    let t: &TxnRecord = &h.txns[id as usize];
    let mut ops: Vec<TraceOp> = t
        .reads
        .iter()
        .map(|r| TraceOp::Read {
            addr: r.addr,
            value: r.value,
            version: r.version,
        })
        .collect();
    ops.extend(t.writes.iter().map(|w| TraceOp::Write {
        addr: w.addr,
        value: w.value,
        version: w.version,
    }));
    TraceTxn {
        id,
        kind: t.kind,
        core: t.core,
        gwid: t.gwid,
        lane: t.lane,
        begin_cycle: t.begin_cycle,
        outcome: t.outcome,
        ops,
    }
}

/// Exports a violation's counterexample through the existing Chrome/Perfetto
/// trace path: one begin/commit-or-abort span per involved transaction on
/// its warp's track.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn export_counterexample(v: &Violation, w: &mut impl Write) -> io::Result<()> {
    let mut events: Vec<(Stamp, SimEvent)> = Vec::new();
    for t in &v.counterexample {
        let stamp = |cycle: u64| Stamp::warp(cycle, t.core as u32, t.gwid).with_lane(t.lane);
        events.push((stamp(t.begin_cycle), SimEvent::TxBegin));
        let end = match t.outcome {
            TxnOutcome::Committed { .. } => SimEvent::TxCommit,
            _ => SimEvent::TxAbort {
                cause: sim_core::trace::AbortCause::Validation,
                lanes: 1,
            },
        };
        events.push((stamp(t.end_cycle().max(t.begin_cycle + 1)), end));
    }
    events.sort_by_key(|(s, _)| s.cycle);
    let mut bus = EventBus::new(events.len().max(1));
    for (s, e) in events {
        bus.record(s, e);
    }
    sim_core::trace::export_chrome_trace(&bus, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::history::NO_TXN;

    fn empty_mem() -> HashMap<u64, u64> {
        HashMap::new()
    }

    fn mem_of(pairs: &[(u64, u64)]) -> HashMap<u64, u64> {
        pairs.iter().copied().collect()
    }

    fn img_of(pairs: &[(u64, u64)]) -> MemImage {
        pairs.iter().copied().collect()
    }

    /// writer installs 5 at 0x40; reader sees it; serial and opaque.
    #[test]
    fn serializable_history_passes() {
        let mut h = History::new();
        h.begin(0, 0, 0, 1);
        let w = h.current_txn(0, 0).unwrap();
        h.commit(0, 0, 5);
        h.write_applied(w, 0x40, 5, 6);
        h.begin(0, 1, 0, 7);
        h.read_observed(1, 0, 0x40, 5, 0);
        h.commit(1, 0, 9);
        let v = check_history(&h, &empty_mem(), &img_of(&[(0x40, 5)]), true);
        assert!(v.ok(), "{}", v.summary());
        assert_eq!(v.witness_len, 2);
        assert!(!v.aba_fallback);
    }

    /// Two transactions that each read the other's pre-state and both
    /// commit writes: the classic lost-update WW/anti cycle.
    #[test]
    fn lost_update_cycle_is_caught() {
        let mut h = History::new();
        // T0 and T1 both read the initial 0 at 0x40 ...
        h.begin(0, 0, 0, 1);
        h.begin(0, 1, 0, 1);
        let t0 = h.current_txn(0, 0).unwrap();
        let t1 = h.current_txn(1, 0).unwrap();
        h.read_observed(0, 0, 0x40, 0, INITIAL_VERSION);
        h.read_observed(1, 0, 0x40, 0, INITIAL_VERSION);
        // ... then both commit +1-style writes.
        h.commit(0, 0, 5);
        h.write_applied(t0, 0x40, 1, 6);
        h.commit(1, 0, 7);
        h.write_applied(t1, 0x40, 1, 8);
        let v = check_history(&h, &empty_mem(), &img_of(&[(0x40, 1)]), true);
        assert!(!v.ok());
        assert!(matches!(
            v.violations[0].kind,
            ViolationKind::NonSerializable { cycle_len: 2 }
        ));
        assert_eq!(v.violations[0].counterexample.len(), 2);
    }

    /// An ABA history: cyclic version graph, but the commit-order replay
    /// explains every value, so it is serializable with the fallback flag.
    #[test]
    fn aba_falls_back_to_commit_order() {
        let mut h = History::new();
        // T0 writes 7 (version 0). T1 writes 0 back (version 1). T2 read
        // the *initial* 0 before both, yet also committed a write to a
        // second cell after T1 — version-wise cyclic, value-wise fine.
        h.begin(0, 0, 0, 1);
        let t0 = h.current_txn(0, 0).unwrap();
        h.begin(0, 2, 0, 1);
        let _t2 = h.current_txn(2, 0).unwrap();
        h.read_observed(2, 0, 0x40, 0, INITIAL_VERSION); // anti: t2 -> t0
        h.commit(0, 0, 3);
        h.write_applied(t0, 0x40, 7, 4);
        h.begin(0, 1, 0, 5);
        let t1 = h.current_txn(1, 0).unwrap();
        h.commit(1, 0, 6);
        h.write_applied(t1, 0x40, 0, 7);
        // t2 now reads the ABA'd 0 from version 1: rf t1 -> t2, closing
        // t2 -> t0 -> t1 -> t2.
        h.read_observed(2, 0, 0x48, 0, INITIAL_VERSION);
        h.read_observed(2, 0, 0x40, 0, 1);
        h.commit(2, 0, 9);
        let v = check_history(&h, &empty_mem(), &img_of(&[(0x40, 0)]), true);
        // Commit order t0, t1, t2: t2's reads then see 0 at both cells —
        // consistent. (Its INITIAL-version read of 0x40 matches by value.)
        assert!(v.ok(), "{}", v.summary());
        assert!(v.aba_fallback);
    }

    /// An aborted attempt whose two reads can never coexist: it saw cell A
    /// after a paired update and cell B from before it.
    #[test]
    fn opacity_violation_is_caught() {
        let mut h = History::new();
        // Writer updates both cells together: (10,10) -> (11,11).
        h.begin(0, 0, 0, 1);
        let w = h.current_txn(0, 0).unwrap();
        h.commit(0, 0, 4);
        h.write_applied(w, 0x40, 11, 5);
        h.write_applied(w, 0x48, 11, 5);
        // Doomed reader saw 0x40 after the update but 0x48 from before.
        h.begin(0, 1, 0, 6);
        h.read_observed(1, 0, 0x40, 11, 0);
        h.read_observed(1, 0, 0x48, 10, INITIAL_VERSION);
        h.abort(1, 0, 8);
        let init = mem_of(&[(0x40, 10), (0x48, 10)]);
        let v = check_history(&h, &init, &img_of(&[(0x40, 11), (0x48, 11)]), true);
        assert!(!v.ok());
        assert!(matches!(
            v.violations[0].kind,
            ViolationKind::OpacityBroken { .. }
        ));
        assert!(!v.violations[0].counterexample.is_empty());
        // Without the opacity requirement the same torn snapshot is waived:
        // certified, but counted.
        let v = check_history(&h, &init, &img_of(&[(0x40, 11), (0x48, 11)]), false);
        assert!(v.ok());
        assert_eq!(v.opacity_waived, 1);
        assert!(v.summary().contains("waived"), "{}", v.summary());
    }

    /// The same doomed snapshot is fine when the reads are consistent.
    #[test]
    fn consistent_aborted_snapshot_is_opaque() {
        let mut h = History::new();
        h.begin(0, 0, 0, 1);
        let w = h.current_txn(0, 0).unwrap();
        h.commit(0, 0, 4);
        h.write_applied(w, 0x40, 11, 5);
        h.write_applied(w, 0x48, 11, 5);
        h.begin(0, 1, 0, 6);
        h.read_observed(1, 0, 0x40, 11, 0);
        h.read_observed(1, 0, 0x48, 11, 1);
        h.abort(1, 0, 8);
        let init = mem_of(&[(0x40, 10), (0x48, 10)]);
        let v = check_history(&h, &init, &img_of(&[(0x40, 11), (0x48, 11)]), true);
        assert!(v.ok(), "{}", v.summary());
        assert_eq!(v.opacity_checked, 1);
    }

    /// Final-state divergence (a write the history never saw) is caught.
    #[test]
    fn final_state_divergence_is_caught() {
        let mut h = History::new();
        h.begin(0, 0, 0, 1);
        let w = h.current_txn(0, 0).unwrap();
        h.commit(0, 0, 3);
        h.write_applied(w, 0x40, 5, 4);
        let v = check_history(&h, &empty_mem(), &img_of(&[(0x40, 6)]), true);
        assert!(!v.ok());
        assert!(matches!(
            v.violations[0].kind,
            ViolationKind::FinalStateDiverged {
                addr: 0x40,
                engine: 6,
                oracle: 5
            }
        ));
    }

    /// A write that reached memory from a never-committed attempt.
    #[test]
    fn aborted_writer_visibility_is_caught() {
        let mut h = History::new();
        h.begin(0, 0, 0, 1);
        let w = h.current_txn(0, 0).unwrap();
        h.write_applied(w, 0x40, 5, 2);
        h.abort(0, 0, 3);
        let v = check_history(&h, &empty_mem(), &img_of(&[(0x40, 5)]), true);
        assert!(!v.ok());
        assert!(matches!(
            v.violations[0].kind,
            ViolationKind::AbortedWriterVisible { addr: 0x40, .. }
        ));
    }

    #[test]
    fn counterexample_exports_as_chrome_json() {
        let mut h = History::new();
        h.begin(0, 0, 0, 1);
        h.begin(0, 1, 0, 1);
        let t0 = h.current_txn(0, 0).unwrap();
        let t1 = h.current_txn(1, 0).unwrap();
        h.read_observed(0, 0, 0x40, 0, INITIAL_VERSION);
        h.read_observed(1, 0, 0x40, 0, INITIAL_VERSION);
        h.commit(0, 0, 5);
        h.write_applied(t0, 0x40, 1, 6);
        h.commit(1, 0, 7);
        h.write_applied(t1, 0x40, 1, 8);
        let v = check_history(&h, &empty_mem(), &img_of(&[(0x40, 1)]), true);
        let mut out = Vec::new();
        export_counterexample(&v.violations[0], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("traceEvents"));
        assert!(text.ends_with("]}\n") || text.contains("]"));
    }

    #[test]
    fn protocol_verdicts_carry_the_fault() {
        let v = protocol_verdict("reply routed nowhere", 42, 100, HistoryStats::default());
        assert!(!v.ok());
        assert!(v.summary().contains("reply routed nowhere"));
        let _ = NO_TXN; // module sanity: sentinel stays exported
    }
}
