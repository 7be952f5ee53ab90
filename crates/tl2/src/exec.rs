//! The TL2 executor: shared versioned storage, the per-thread transaction
//! state machine, the commit protocol, and history assembly.
//!
//! ## Algorithm
//!
//! One global version clock orders all state changes. Every footprint word
//! maps to a *stripe* carrying a versioned lock word: bit 63 is the LOCKED
//! flag, the low bits hold the clock value at the last release. A
//! transaction snapshots the clock into `rv` at begin; every transactional
//! read is a seqlock over the stripe lock and must observe an unlocked
//! stripe with version `<= rv`, so even doomed attempts only ever see
//! consistent snapshots (opacity). Writes buffer into a redo log with
//! read-own-writes forwarding. Commit acquires the write-set stripes with
//! bounded try-locks in sorted order, draws a write version `wv` from the
//! clock, revalidates the read set against `rv`, applies, and releases the
//! stripes at `wv`. Any failure releases, rolls the program back, backs
//! off, and retries with a fresh snapshot.
//!
//! ## Commit order and the oracle
//!
//! When recording, the commit-decision sequence (`seq`) is drawn from the
//! *same* clock that issues write versions. This is load-bearing for
//! verification: the oracle breaks conflict-graph ties by `seq`, and
//! versions of independent addresses must not appear seq-ordered against
//! their clock order or an aborted reader's perfectly consistent snapshot
//! (all reads `<= rv`) could straddle a tie-break inversion and be flagged
//! as torn. One counter makes the tie-break agree with TL2's own notion of
//! logical time. The cost is that read-only commits bump the clock in
//! recording runs (they need a unique seq); plain benchmarking runs keep
//! the classic TL2 behavior of leaving the clock untouched.

use crate::mem::AddrMap;
use crate::{Tl2Counters, Tl2Error, Tl2Options, Tl2Run, Tl2Sabotage};
use gpu_simt::{Op, OpResult, ThreadProgram};
use sim_core::history::{
    History, ReadRec, TxnKind, TxnOutcome, TxnRecord, VersionRec, WriteRec, INITIAL_VERSION,
};
use sim_core::DetRng;
use std::collections::HashMap;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize};
use std::sync::Mutex;
use std::time::Instant;
use workloads::TxProgram;

/// Lock-word flag: the stripe is write-locked by a committing transaction.
const LOCKED: u64 = 1 << 63;
/// Seqlock re-read attempts before a transactional read gives up and
/// aborts the attempt (a locked stripe usually clears within a few spins).
const READ_SPIN: usize = 256;
/// Try-lock attempts per stripe at commit before declaring the write set
/// contended.
const LOCK_SPIN: usize = 256;

/// One installed version, accumulated in global apply order under the
/// version-log mutex. `(tid, serial)` identifies the writing attempt;
/// attempts get their dense global ids only after the run, once every
/// worker's records can be ordered.
struct LogEntry {
    addr: u64,
    value: u64,
    tid: usize,
    serial: u32,
    prev: u32,
    cycle: u64,
}

/// One attempt as recorded by the worker that ran it.
struct LocalTxn {
    tid: usize,
    serial: u32,
    kind: TxnKind,
    begin: u64,
    outcome: TxnOutcome,
    reads: Vec<ReadRec>,
    writes: Vec<WriteRec>,
}

/// In-flight state of one transactional attempt.
struct TxState {
    /// Clock snapshot at (re)begin.
    rv: u64,
    /// Begin tick, for history ordering.
    begin: u64,
    /// Observed reads, recorded for the oracle (empty when not recording).
    reads: Vec<ReadRec>,
    /// Stripes the read set touches, for commit revalidation.
    rstripes: Vec<usize>,
    /// Redo log: `(word index, byte address, value)` in program order.
    wset: Vec<(usize, u64, u64)>,
}

/// Why a commit attempt failed.
enum CommitFail {
    /// Could not acquire a write-set stripe.
    WriteLocked,
    /// A read-set stripe was locked by another committer.
    ReadLocked,
    /// A read-set stripe advanced past `rv`.
    ReadStale,
}

/// The storage and clocks every worker shares.
struct Shared<'a> {
    opts: &'a Tl2Options,
    map: AddrMap,
    /// Current value of every footprint word.
    values: Vec<AtomicU64>,
    /// History version id of every footprint word (recording only).
    hist: Vec<AtomicU32>,
    /// Versioned stripe locks.
    locks: Vec<AtomicU64>,
    stripe_mask: usize,
    /// The global version clock; also the commit-seq source (see module
    /// docs).
    clock: AtomicU64,
    /// Global event counter standing in for cycles in recorded histories.
    ticks: AtomicU64,
    /// Work queue: next logical thread to claim.
    next_tid: AtomicUsize,
    /// Versions in global apply order (recording only).
    vlog: Mutex<Vec<LogEntry>>,
    record: bool,
}

impl Shared<'_> {
    fn stripe(&self, word: usize) -> usize {
        word & self.stripe_mask
    }

    fn tick(&self) -> u64 {
        self.ticks.fetch_add(1, Relaxed)
    }

    /// Dense index of `addr`, or the footprint error.
    fn word(&self, addr: u64, tid: usize) -> Result<usize, Tl2Error> {
        self.map
            .index_of(addr)
            .ok_or(Tl2Error::OutOfFootprint { tid, addr })
    }

    /// Seqlock read of one word for a transaction with snapshot `rv`:
    /// `Some((value, history version))` iff the stripe was observed
    /// unlocked, unchanged across the data load, and at version `<= rv`.
    fn read_word(&self, word: usize, rv: u64) -> Option<(u64, u32)> {
        let lock = &self.locks[self.stripe(word)];
        for _ in 0..READ_SPIN {
            let l1 = lock.load(Acquire);
            if l1 & LOCKED != 0 {
                std::hint::spin_loop();
                continue;
            }
            let value = self.values[word].load(Relaxed);
            let version = if self.record {
                self.hist[word].load(Relaxed)
            } else {
                INITIAL_VERSION
            };
            fence(Acquire);
            if lock.load(Relaxed) != l1 {
                continue;
            }
            if l1 > rv {
                return None;
            }
            return Some((value, version));
        }
        None
    }

    /// Seqlock read with no snapshot constraint, for non-transactional
    /// loads: always returns the current committed value.
    fn plain_read(&self, word: usize) -> u64 {
        let lock = &self.locks[self.stripe(word)];
        loop {
            let l1 = lock.load(Acquire);
            if l1 & LOCKED != 0 {
                std::hint::spin_loop();
                continue;
            }
            let value = self.values[word].load(Relaxed);
            fence(Acquire);
            if lock.load(Relaxed) == l1 {
                return value;
            }
        }
    }

    /// Spins until stripe `s` is acquired; returns the pre-lock word.
    /// Only singletons use this unbounded form — they hold exactly one
    /// stripe and committers' critical sections are short and lock-ordered,
    /// so no cycle of waits can form.
    fn lock_stripe(&self, s: usize) -> u64 {
        loop {
            let l = self.locks[s].load(Relaxed);
            if l & LOCKED == 0
                && self.locks[s]
                    .compare_exchange_weak(l, l | LOCKED, Acquire, Relaxed)
                    .is_ok()
            {
                return l;
            }
            std::hint::spin_loop();
        }
    }

    /// Releases `held` stripes: at `wv` after a successful commit, or back
    /// to their saved pre-lock versions on abort.
    fn release(&self, held: &[(usize, u64)], wv: Option<u64>) {
        for &(s, old) in held {
            self.locks[s].store(wv.unwrap_or(old), Release);
        }
    }

    /// Applies `wset` to shared storage and, when recording, appends the
    /// versions to the global log under its mutex, drawing the commit seq
    /// inside the critical section so per-address log order, version order,
    /// and seq order all agree. Caller must hold every write-set stripe.
    fn apply(
        &self,
        wset: &[(usize, u64, u64)],
        tid: usize,
        serial: u32,
        cycle: u64,
    ) -> Vec<WriteRec> {
        if !self.record {
            for &(w, _, value) in wset {
                self.values[w].store(value, Relaxed);
            }
            return Vec::new();
        }
        let mut log = self.vlog.lock().unwrap();
        let mut wrecs = Vec::with_capacity(wset.len());
        for &(w, addr, value) in wset {
            let id = log.len() as u32;
            let prev = self.hist[w].load(Relaxed);
            log.push(LogEntry {
                addr,
                value,
                tid,
                serial,
                prev,
                cycle,
            });
            self.hist[w].store(id, Relaxed);
            self.values[w].store(value, Relaxed);
            wrecs.push(WriteRec {
                addr,
                value,
                version: id,
            });
        }
        wrecs
    }

    /// The full TL2 commit protocol for the current attempt. On success
    /// returns `(end tick, commit seq, applied write records)`; on failure
    /// every acquired stripe has been released at its old version and the
    /// caller aborts the attempt.
    fn try_commit(
        &self,
        t: &mut TxState,
        tid: usize,
        serial: u32,
    ) -> Result<(u64, u64, Vec<WriteRec>), CommitFail> {
        if t.wset.is_empty() {
            // Read-only fast path: every read already validated against
            // `rv`, so the attempt is serializable at its snapshot. The
            // clock bump only happens when a seq is needed for recording.
            let end = self.tick();
            let seq = if self.record {
                self.clock.fetch_add(1, AcqRel) + 1
            } else {
                0
            };
            return Ok((end, seq, Vec::new()));
        }

        let mut stripes: Vec<usize> = t.wset.iter().map(|&(w, _, _)| self.stripe(w)).collect();
        stripes.sort_unstable();
        stripes.dedup();
        let mut held: Vec<(usize, u64)> = Vec::with_capacity(stripes.len());
        'next_stripe: for &s in &stripes {
            for _ in 0..LOCK_SPIN {
                let l = self.locks[s].load(Relaxed);
                if l & LOCKED == 0
                    && self.locks[s]
                        .compare_exchange(l, l | LOCKED, Acquire, Relaxed)
                        .is_ok()
                {
                    held.push((s, l));
                    continue 'next_stripe;
                }
                std::hint::spin_loop();
            }
            self.release(&held, None);
            return Err(CommitFail::WriteLocked);
        }

        let wv = self.clock.fetch_add(1, AcqRel) + 1;

        // Read-set revalidation: every stripe the read set touched must
        // still be at a version `<= rv` (or be one of our own held write
        // locks, whose saved pre-lock version is checked instead). The
        // `rv + 1 == wv` shortcut skips this when provably nothing
        // committed since our snapshot.
        let skip_validation = self.sabotaged_skip() || t.rv + 1 == wv;
        if !skip_validation {
            t.rstripes.sort_unstable();
            t.rstripes.dedup();
            for &s in &t.rstripes {
                let l = self.locks[s].load(Acquire);
                let version = if l & LOCKED != 0 {
                    // `held` was filled in sorted stripe order.
                    match held.binary_search_by_key(&s, |&(hs, _)| hs) {
                        Ok(i) => held[i].1,
                        Err(_) => {
                            self.release(&held, None);
                            return Err(CommitFail::ReadLocked);
                        }
                    }
                } else {
                    l
                };
                if version > t.rv {
                    self.release(&held, None);
                    return Err(CommitFail::ReadStale);
                }
            }
        }

        let end = self.tick();
        let wrecs = self.apply(&t.wset, tid, serial, end);
        self.release(&held, Some(wv));
        Ok((end, wv, wrecs))
    }

    /// Whether the `SkipReadValidation` fault is both selected and
    /// compiled in.
    fn sabotaged_skip(&self) -> bool {
        #[cfg(feature = "sabotage")]
        {
            self.opts.sabotage == Tl2Sabotage::SkipReadValidation
        }
        #[cfg(not(feature = "sabotage"))]
        {
            false
        }
    }

    /// A non-transactional store: lock the stripe, bump the clock, apply,
    /// release at the new version. Recorded as a committed singleton.
    fn singleton_store(
        &self,
        word: usize,
        addr: u64,
        value: u64,
        tid: usize,
        serial: u32,
        out: &mut Vec<LocalTxn>,
    ) {
        let s = self.stripe(word);
        self.lock_stripe(s);
        let wv = self.clock.fetch_add(1, AcqRel) + 1;
        let begin = self.tick();
        let wrecs = self.apply(&[(word, addr, value)], tid, serial, begin);
        self.locks[s].store(wv, Release);
        if self.record {
            out.push(LocalTxn {
                tid,
                serial,
                kind: TxnKind::PlainStore,
                begin,
                outcome: TxnOutcome::Committed {
                    seq: wv,
                    cycle: begin,
                },
                reads: Vec::new(),
                writes: wrecs,
            });
        }
    }

    /// A non-transactional read-modify-write: lock the stripe, read,
    /// apply `f`'s result if any, release. Returns the old value.
    /// Recorded as a committed singleton with one read (and the write,
    /// when `f` produced one — a failed CAS writes nothing).
    fn singleton_rmw(
        &self,
        word: usize,
        addr: u64,
        f: impl FnOnce(u64) -> Option<u64>,
        tid: usize,
        serial: u32,
        out: &mut Vec<LocalTxn>,
    ) -> u64 {
        let s = self.stripe(word);
        let old_lock = self.lock_stripe(s);
        let old = self.values[word].load(Relaxed);
        let prev_version = if self.record {
            self.hist[word].load(Relaxed)
        } else {
            INITIAL_VERSION
        };
        let begin = self.tick();
        let (wrecs, lock_release) = match f(old) {
            Some(new) => {
                let wv = self.clock.fetch_add(1, AcqRel) + 1;
                (self.apply(&[(word, addr, new)], tid, serial, begin), wv)
            }
            // No write: restore the pre-lock word so the stripe version
            // is untouched, but still draw a seq for the recorded read.
            None => (Vec::new(), old_lock),
        };
        let seq = if wrecs.is_empty() && self.record {
            self.clock.fetch_add(1, AcqRel) + 1
        } else {
            lock_release
        };
        self.locks[s].store(lock_release, Release);
        if self.record {
            out.push(LocalTxn {
                tid,
                serial,
                kind: TxnKind::Atomic,
                begin,
                outcome: TxnOutcome::Committed { seq, cycle: begin },
                reads: vec![ReadRec {
                    addr,
                    value: old,
                    version: prev_version,
                }],
                writes: wrecs,
            });
        }
        old
    }
}

/// Exponential backoff with deterministic per-thread jitter. The RNG only
/// shapes pause lengths; scheduling stays genuinely nondeterministic.
fn backoff(rng: &mut DetRng, retries: u64) {
    let spins = rng.below(1 << retries.min(12)) + 1;
    for _ in 0..spins {
        std::hint::spin_loop();
    }
    if retries > 6 {
        std::thread::yield_now();
    }
}

/// Runs logical thread `tid`'s program to completion, retrying aborted
/// transactions per TL2, appending attempt records to `out`.
fn run_thread(
    sh: &Shared<'_>,
    prog: &mut dyn ThreadProgram,
    tid: usize,
    rng: &mut DetRng,
    out: &mut Vec<LocalTxn>,
    c: &mut Tl2Counters,
) -> Result<(), Tl2Error> {
    let mut serial: u32 = 0;
    let mut tx: Option<TxState> = None;
    let mut retries: u64 = 0;
    let mut prev = OpResult::None;

    macro_rules! next_serial {
        () => {{
            let s = serial;
            serial += 1;
            s
        }};
    }

    // Aborts the in-flight attempt: record it, rewind the program, back
    // off, and open a fresh attempt (the runtime re-issues TxBegin
    // implicitly, per the ThreadProgram contract).
    macro_rules! abort_retry {
        ($t:expr) => {{
            let t: &mut TxState = $t;
            c.aborts += 1;
            let end = sh.tick();
            if sh.record {
                out.push(LocalTxn {
                    tid,
                    serial: next_serial!(),
                    kind: TxnKind::Tx,
                    begin: t.begin,
                    outcome: TxnOutcome::Aborted { cycle: end },
                    reads: std::mem::take(&mut t.reads),
                    writes: Vec::new(),
                });
            }
            prog.rollback();
            retries += 1;
            c.max_retry_depth = c.max_retry_depth.max(retries);
            if retries > sh.opts.max_retries {
                return Err(Tl2Error::Livelock {
                    tid,
                    attempts: retries,
                });
            }
            backoff(rng, retries);
            *t = TxState {
                rv: sh.clock.load(Acquire),
                begin: sh.tick(),
                reads: Vec::new(),
                rstripes: Vec::new(),
                wset: Vec::new(),
            };
            prev = OpResult::None;
        }};
    }

    loop {
        let op = prog.next(std::mem::replace(&mut prev, OpResult::None));
        match op {
            Op::Done => {
                if tx.is_some() {
                    return Err(Tl2Error::Program {
                        tid,
                        what: "Done inside an open transaction".into(),
                    });
                }
                return Ok(());
            }
            Op::TxBegin => {
                if tx.is_some() {
                    return Err(Tl2Error::Program {
                        tid,
                        what: "nested TxBegin".into(),
                    });
                }
                retries = 0;
                tx = Some(TxState {
                    rv: sh.clock.load(Acquire),
                    begin: sh.tick(),
                    reads: Vec::new(),
                    rstripes: Vec::new(),
                    wset: Vec::new(),
                });
            }
            Op::TxLoad(a) => {
                let Some(t) = tx.as_mut() else {
                    return Err(Tl2Error::Program {
                        tid,
                        what: "TxLoad outside a transaction".into(),
                    });
                };
                // Read-own-writes: the latest buffered store wins and the
                // read never touches shared memory (and is not recorded,
                // matching the simulator's forwarding semantics).
                if let Some(&(_, _, v)) = t.wset.iter().rev().find(|&&(_, addr, _)| addr == a.0) {
                    prev = OpResult::Value(v);
                    continue;
                }
                let w = sh.word(a.0, tid)?;
                match sh.read_word(w, t.rv) {
                    Some((value, version)) => {
                        c.reads += 1;
                        if sh.record {
                            t.reads.push(ReadRec {
                                addr: a.0,
                                value,
                                version,
                            });
                        }
                        t.rstripes.push(sh.stripe(w));
                        prev = OpResult::Value(value);
                    }
                    None => {
                        c.read_aborts += 1;
                        abort_retry!(t);
                    }
                }
            }
            Op::TxStore(a, v) => {
                let Some(t) = tx.as_mut() else {
                    return Err(Tl2Error::Program {
                        tid,
                        what: "TxStore outside a transaction".into(),
                    });
                };
                let w = sh.word(a.0, tid)?;
                c.writes += 1;
                t.wset.push((w, a.0, v));
            }
            Op::TxCommit => {
                let Some(t) = tx.as_mut() else {
                    return Err(Tl2Error::Program {
                        tid,
                        what: "TxCommit outside a transaction".into(),
                    });
                };
                match sh.try_commit(t, tid, serial) {
                    Ok((end, seq, wrecs)) => {
                        c.commits += 1;
                        if t.wset.is_empty() {
                            c.read_only_commits += 1;
                        }
                        if sh.record {
                            out.push(LocalTxn {
                                tid,
                                serial: next_serial!(),
                                kind: TxnKind::Tx,
                                begin: t.begin,
                                outcome: TxnOutcome::Committed { seq, cycle: end },
                                reads: std::mem::take(&mut t.reads),
                                writes: wrecs,
                            });
                        }
                        tx = None;
                        retries = 0;
                    }
                    Err(cause) => {
                        match cause {
                            CommitFail::WriteLocked => c.lock_aborts += 1,
                            CommitFail::ReadLocked | CommitFail::ReadStale => {
                                c.validation_aborts += 1
                            }
                        }
                        abort_retry!(t);
                    }
                }
            }
            Op::Load(a) => {
                if tx.is_some() {
                    return Err(Tl2Error::Program {
                        tid,
                        what: "plain Load inside a transaction".into(),
                    });
                }
                let w = sh.word(a.0, tid)?;
                prev = OpResult::Value(sh.plain_read(w));
            }
            Op::Store(a, v) => {
                if tx.is_some() {
                    return Err(Tl2Error::Program {
                        tid,
                        what: "plain Store inside a transaction".into(),
                    });
                }
                let w = sh.word(a.0, tid)?;
                sh.singleton_store(w, a.0, v, tid, next_serial!(), out);
            }
            Op::AtomicAdd { addr, delta } => {
                if tx.is_some() {
                    return Err(Tl2Error::Program {
                        tid,
                        what: "AtomicAdd inside a transaction".into(),
                    });
                }
                let w = sh.word(addr.0, tid)?;
                c.atomics += 1;
                let old = sh.singleton_rmw(
                    w,
                    addr.0,
                    |v| Some(v.wrapping_add(delta)),
                    tid,
                    next_serial!(),
                    out,
                );
                prev = OpResult::Value(old);
            }
            Op::AtomicCas { addr, expect, new } => {
                if tx.is_some() {
                    return Err(Tl2Error::Program {
                        tid,
                        what: "AtomicCas inside a transaction".into(),
                    });
                }
                let w = sh.word(addr.0, tid)?;
                c.atomics += 1;
                let old = sh.singleton_rmw(
                    w,
                    addr.0,
                    |v| (v == expect).then_some(new),
                    tid,
                    next_serial!(),
                    out,
                );
                if old != expect {
                    c.cas_failures += 1;
                }
                prev = OpResult::Value(old);
            }
            Op::Compute(n) => {
                for _ in 0..n {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

/// A worker: claims logical threads from the shared queue and runs each to
/// completion.
fn worker(
    sh: &Shared<'_>,
    prog: &TxProgram,
    wk: usize,
) -> Result<(Vec<LocalTxn>, Tl2Counters), Tl2Error> {
    let mut rng = DetRng::seeded(sh.opts.seed).fork(wk as u64);
    let mut out = Vec::new();
    let mut c = Tl2Counters::default();
    loop {
        let tid = sh.next_tid.fetch_add(1, Relaxed);
        if tid >= prog.thread_count() {
            return Ok((out, c));
        }
        let mut p = prog.thread(tid);
        run_thread(sh, p.as_mut(), tid, &mut rng, &mut out, &mut c)?;
    }
}

/// Merges every worker's attempt records and the global version log into a
/// sealed [`History`]. Attempts are ordered by begin tick (ties broken by
/// thread and serial) and assigned dense global ids; version writers are
/// remapped from `(tid, serial)` to those ids.
fn assemble_history(all: Vec<LocalTxn>, log: Vec<LogEntry>) -> Result<History, Tl2Error> {
    let mut all = all;
    all.sort_by_key(|t| (t.begin, t.tid, t.serial));
    let mut gid: HashMap<(usize, u32), u32> = HashMap::with_capacity(all.len());
    for (i, t) in all.iter().enumerate() {
        gid.insert((t.tid, t.serial), i as u32);
    }
    let txns: Vec<TxnRecord> = all
        .into_iter()
        .map(|t| TxnRecord {
            kind: t.kind,
            core: 0,
            gwid: t.tid as u32,
            lane: 0,
            begin_cycle: t.begin,
            outcome: t.outcome,
            reads: t.reads,
            writes: t.writes,
        })
        .collect();
    let versions: Vec<VersionRec> = log
        .into_iter()
        .map(|e| {
            let writer = *gid.get(&(e.tid, e.serial)).ok_or_else(|| {
                Tl2Error::History(format!(
                    "version log entry for {:#x} has no attempt record (tid {}, serial {})",
                    e.addr, e.tid, e.serial
                ))
            })?;
            Ok(VersionRec {
                addr: e.addr,
                value: e.value,
                writer,
                prev: e.prev,
                cycle: e.cycle,
            })
        })
        .collect::<Result<_, Tl2Error>>()?;
    History::from_parts(txns, versions).map_err(Tl2Error::History)
}

/// Runs `prog` under TL2 with `opts`.
///
/// # Errors
///
/// [`Tl2Error`] on invalid options, footprint escapes, program misuse of
/// the transactional interface, livelock, or (a bug) inconsistent history.
pub fn run(prog: &TxProgram, opts: &Tl2Options) -> Result<Tl2Run, Tl2Error> {
    if opts.threads == 0 {
        return Err(Tl2Error::InvalidOptions {
            what: "threads",
            detail: "need at least one worker thread".into(),
        });
    }
    if opts.sabotage != Tl2Sabotage::None && !cfg!(feature = "sabotage") {
        return Err(Tl2Error::InvalidOptions {
            what: "sabotage",
            detail: "requested a protocol fault but the sabotage feature is not compiled in".into(),
        });
    }

    let map = AddrMap::new(prog.footprint());
    let total = map.total_words();
    let nstripes = if opts.stripes > 0 {
        opts.stripes.next_power_of_two()
    } else {
        total.clamp(1, 1 << 16).next_power_of_two()
    };

    let mut values: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
    for (addr, v) in prog.initial_memory() {
        let w = map
            .index_of(addr.0)
            .ok_or(Tl2Error::InitialOutOfFootprint { addr: addr.0 })?;
        *values[w].get_mut() = v;
    }
    let hist_len = if opts.record_history { total } else { 0 };
    let sh = Shared {
        opts,
        map,
        values,
        hist: (0..hist_len)
            .map(|_| AtomicU32::new(INITIAL_VERSION))
            .collect(),
        locks: (0..nstripes).map(|_| AtomicU64::new(0)).collect(),
        stripe_mask: nstripes - 1,
        clock: AtomicU64::new(0),
        ticks: AtomicU64::new(0),
        next_tid: AtomicUsize::new(0),
        vlog: Mutex::new(Vec::new()),
        record: opts.record_history,
    };

    let workers = opts.threads.min(prog.thread_count()).max(1);
    let started = Instant::now();
    let results: Vec<Result<(Vec<LocalTxn>, Tl2Counters), Tl2Error>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|wk| {
                    let sh = &sh;
                    scope.spawn(move || worker(sh, prog, wk))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
    let wall = started.elapsed();

    let mut counters = Tl2Counters::default();
    let mut all: Vec<LocalTxn> = Vec::new();
    for r in results {
        let (txns, c) = r?;
        all.extend(txns);
        counters.commits += c.commits;
        counters.read_only_commits += c.read_only_commits;
        counters.aborts += c.aborts;
        counters.read_aborts += c.read_aborts;
        counters.lock_aborts += c.lock_aborts;
        counters.validation_aborts += c.validation_aborts;
        counters.reads += c.reads;
        counters.writes += c.writes;
        counters.atomics += c.atomics;
        counters.cas_failures += c.cas_failures;
        counters.max_retry_depth = counters.max_retry_depth.max(c.max_retry_depth);
    }
    counters.ticks = sh.ticks.load(Relaxed);
    counters.clock = sh.clock.load(Relaxed);

    let history = if opts.record_history {
        Some(assemble_history(all, sh.vlog.into_inner().unwrap())?)
    } else {
        None
    };

    let final_mem: Vec<(u64, u64)> = sh
        .map
        .addrs()
        .zip(sh.values.iter())
        .filter_map(|(addr, v)| {
            let v = v.load(Relaxed);
            (v != 0).then_some((addr, v))
        })
        .collect();

    Ok(Tl2Run {
        counters,
        history,
        final_mem,
        wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::atm::Atm;
    use workloads::fuzz::{Fuzz, FuzzShape};
    use workloads::hashtable::HashTable;
    use workloads::MemSpan;

    fn opts(threads: usize) -> Tl2Options {
        Tl2Options::default().threads(threads).record_history(true)
    }

    #[test]
    fn hashtable_runs_correctly_on_threads() {
        let p = HashTable::ht_h(64, 11).tx_program();
        let run = run(&p, &opts(4)).expect("tl2 run succeeds");
        let img = run.final_image();
        p.check(&|a| img.get(a.0))
            .expect("hashtable invariants hold");
        assert!(run.counters.commits >= 64, "one commit per insert at least");
        let h = run.history.expect("history recorded");
        assert!(h.stats().committed >= 64);
    }

    #[test]
    fn atm_conserves_balance_on_threads() {
        let p = Atm::new(64, 32, 4, 7).tx_program();
        let run = run(&p, &opts(8)).expect("tl2 run succeeds");
        let img = run.final_image();
        p.check(&|a| img.get(a.0)).expect("balance conserved");
    }

    #[test]
    fn fuzz_shapes_complete_and_pass_their_checkers() {
        for (i, shape) in [
            FuzzShape::SingleCell,
            FuzzShape::LockSteal,
            FuzzShape::MixedAliasing,
            FuzzShape::Scatter,
            FuzzShape::Livelock,
        ]
        .into_iter()
        .enumerate()
        {
            let p = Fuzz::new(shape, 8, 3, 100 + i as u64).tx_program();
            let run = run(&p, &opts(4)).expect("tl2 run succeeds");
            let img = run.final_image();
            p.check(&|a| img.get(a.0))
                .unwrap_or_else(|e| panic!("{shape:?}: {e}"));
        }
    }

    #[test]
    fn rejects_zero_threads() {
        let p = Atm::new(8, 4, 1, 1).tx_program();
        let err = run(&p, &Tl2Options::default().threads(0)).unwrap_err();
        assert!(matches!(
            err,
            Tl2Error::InvalidOptions {
                what: "threads",
                ..
            }
        ));
    }

    #[test]
    fn rejects_an_initial_word_outside_the_footprint() {
        // A one-word span far below ATM's account table: every initial
        // balance is a stray word.
        let p = TxProgram::new(Box::new(Atm::new(8, 4, 1, 1)), vec![MemSpan::new(0x40, 1)]);
        let stray = p.initial_memory()[0].0 .0;
        let err = run(&p, &opts(2)).unwrap_err();
        assert!(matches!(err, Tl2Error::InitialOutOfFootprint { addr } if addr == stray));
    }

    #[test]
    fn single_thread_run_reports_no_aborts() {
        let p = HashTable::ht_h(32, 5).tx_program();
        let run = run(&p, &opts(1)).expect("tl2 run succeeds");
        assert_eq!(run.counters.aborts, 0, "no concurrency, no conflicts");
        assert_eq!(run.counters.commits as usize, 32);
    }

    #[cfg(not(feature = "sabotage"))]
    #[test]
    fn sabotage_request_without_feature_is_rejected() {
        let p = Atm::new(8, 4, 1, 1).tx_program();
        let err = run(
            &p,
            &Tl2Options::default().sabotage(Tl2Sabotage::SkipReadValidation),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            Tl2Error::InvalidOptions {
                what: "sabotage",
                ..
            }
        ));
    }
}
