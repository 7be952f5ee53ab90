//! The sweep ledger: the executor's result bookkeeping and its only
//! cache and journal I/O.
//!
//! The ledger computes every cell's cache key once, when it opens. It
//! then reads the whole grid from the result cache on the caller's
//! thread, in spec order, and books each hit before the executor
//! ([`super::exec`]) spawns a worker: workers get only the misses, and a
//! fully-warm sweep spawns none. A computed cell comes back to the ledger
//! as a result; the ledger opens the fsynced [`SweepJournal`] if this is
//! the campaign's first computed cell, stores the metrics in the cache
//! and journals the key. A cache hit writes nothing, so a warm sweep only
//! reads. Opening the journal before the first store keeps "a cache entry
//! this campaign computed is on disk only with its journal" true even if
//! the process is killed between the two.
//!
//! The ledger also keeps the per-cell slots in spec order, the campaign's
//! start, queue, terminal, throughput and finish telemetry, the per-cell
//! progress line, and the final [`SweepReport`]. It is the campaign's only
//! telemetry writer. A cell's attempts run on a worker thread, so each
//! attempt's start and retry reach the ledger as a [`Note`] through
//! [`Ledger::note`] over the executor's result channel — the same path,
//! and so the same order, as the cell's terminal result.
//!
//! Every cell reaches the ledger through [`Ledger::record`] at most once,
//! which is what makes "exactly one terminal event per cell" hold.

use super::journal::{keys_digest, SweepJournal};
use super::{CellFailure, CellSpec, SweepOptions, SweepOutcome, SweepReport};
use crate::metrics::Metrics;
use crate::telemetry::CampaignEvent;
use std::time::Instant;

/// One cell's terminal result.
pub(crate) type CellResult = Result<SweepOutcome, CellFailure>;

/// One attempt-level event of a cell, sent by the code that attempts it
/// ([`super::exec::run_cell`]) to the ledger through its caller.
#[derive(Debug)]
pub(crate) enum Note {
    /// Attempt `attempt` (1-based) is starting.
    Started { attempt: u32 },
    /// Attempt `attempt` failed with the rendered `error` and will be
    /// retried.
    Retried { attempt: u32, error: String },
}

/// Where the campaign's journal stands.
enum Journal {
    /// Not opened: no cell has been computed yet (and no journal was
    /// resumed).
    Closed,
    Open(SweepJournal),
    /// Opening failed (logged once); the sweep runs without crash resume.
    Unavailable,
}

/// The books of one sweep run (see the module docs).
pub(crate) struct Ledger<'a> {
    cells: &'a [CellSpec],
    opts: &'a SweepOptions,
    /// Each cell's cache key, computed once; empty without a cache.
    keys: Vec<String>,
    /// The journal's digest, derived from `keys`.
    digest: String,
    journal: Journal,
    slots: Vec<Option<CellResult>>,
    done: usize,
    cache_hits: usize,
    failed: usize,
    started: Instant,
}

impl<'a> Ledger<'a> {
    /// Computes the cells' keys, reopens the journal of a resumed
    /// campaign, announces the campaign (`workers` is reported in its
    /// start event), and books every cell the cache holds, so the caller
    /// hands out only the misses.
    pub(crate) fn open(cells: &'a [CellSpec], opts: &'a SweepOptions, workers: usize) -> Self {
        let keys: Vec<String> = match opts.result_cache {
            Some(_) => cells.iter().map(CellSpec::cache_key).collect(),
            None => Vec::new(),
        };
        let mut ledger = Ledger {
            cells,
            opts,
            digest: keys_digest(&keys),
            keys,
            journal: Journal::Closed,
            slots: std::iter::repeat_with(|| None).take(cells.len()).collect(),
            done: 0,
            cache_hits: 0,
            failed: 0,
            started: Instant::now(),
        };
        if opts.resume && ledger.journal_on_disk() {
            ledger.open_journal();
        }
        let resumed = match &ledger.journal {
            Journal::Open(j) => j.completed(),
            _ => 0,
        };
        let tel = &opts.telemetry;
        tel.emit(|| CampaignEvent::CampaignStarted {
            total: cells.len(),
            workers,
            resumed,
        });
        if tel.is_on() {
            for (idx, cell) in cells.iter().enumerate() {
                tel.emit(|| CampaignEvent::CellQueued {
                    idx,
                    label: cell.label(),
                });
            }
        }
        if let Journal::Open(j) = &ledger.journal {
            if opts.progress && resumed > 0 {
                let journaled = ledger.keys.iter().filter(|k| j.is_completed(k)).count();
                eprintln!(
                    "sweep: resuming {} — {journaled}/{} cells already complete",
                    j.path().display(),
                    cells.len()
                );
            }
        }
        ledger.serve_cached();
        ledger
    }

    /// Books every cell the cache holds as a hit, in spec order, timed
    /// by its load. A journaled cell missing from the cache (eviction,
    /// corrupt entry) is simply a miss: the journal is accounting, the
    /// cache is truth.
    fn serve_cached(&mut self) {
        let opts = self.opts;
        let Some(cache) = &opts.result_cache else {
            return;
        };
        for idx in 0..self.cells.len() {
            let start = Instant::now();
            if let Some(metrics) = cache.load(&self.keys[idx]) {
                let outcome = SweepOutcome {
                    cell: self.cells[idx].clone(),
                    metrics,
                    cached: true,
                    elapsed: start.elapsed(),
                };
                self.record(idx, Ok(outcome));
            }
        }
    }

    /// Whether cell `idx` has its terminal result.
    pub(crate) fn is_filled(&self, idx: usize) -> bool {
        self.slots[idx].is_some()
    }

    /// Emits cell `idx`'s attempt-level event: `CellStarted` or
    /// `CellRetried`.
    pub(crate) fn note(&self, idx: usize, note: Note) {
        let label = || self.cells[idx].label();
        self.opts.telemetry.emit(|| match note {
            Note::Started { attempt } => CampaignEvent::CellStarted {
                idx,
                label: label(),
                attempt,
            },
            Note::Retried { attempt, error } => CampaignEvent::CellRetried {
                idx,
                label: label(),
                attempt,
                error,
            },
        });
    }

    /// Records cell `idx`'s terminal result: for a computed success the
    /// cache entry and journal line, then the progress line, the cell's
    /// one terminal telemetry event, a throughput sample, and the slot.
    pub(crate) fn record(&mut self, idx: usize, result: CellResult) {
        debug_assert!(self.slots[idx].is_none(), "terminal results are unique");
        match &result {
            Ok(o) if o.cached => self.cache_hits += 1,
            Ok(o) => self.persist(idx, &o.metrics),
            Err(_) => self.failed += 1,
        }
        self.done += 1;
        if self.opts.progress {
            self.progress(&result);
        }
        let tel = &self.opts.telemetry;
        emit_terminal(tel, idx, &result);
        let (done, total) = (self.done, self.cells.len());
        let (cache_hits, failures) = (self.cache_hits, self.failed);
        let started = self.started;
        tel.emit(|| {
            let secs = started.elapsed().as_secs_f64();
            let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
            let eta_ms = if rate > 0.0 && total > done {
                ((total - done) as f64 / rate * 1000.0) as u64
            } else {
                0
            };
            CampaignEvent::Throughput {
                done,
                total,
                cache_hits,
                failures,
                cells_per_sec: rate,
                eta_ms,
            }
        });
        self.slots[idx] = Some(result);
    }

    /// Stores computed cell `idx` in the cache and journals it, opening
    /// the journal first if this is the campaign's first computed cell.
    /// Both are best-effort: a failed store costs a recomputation next
    /// run, a failed journal line only crash accounting.
    fn persist(&mut self, idx: usize, metrics: &Metrics) {
        let opts = self.opts;
        let Some(cache) = &opts.result_cache else {
            return;
        };
        if matches!(self.journal, Journal::Closed) {
            self.open_journal();
        }
        let (cell, key) = (&self.cells[idx], &self.keys[idx]);
        if let Err(e) = cache.store(key, metrics) {
            eprintln!("sweep: could not cache {}: {e}", cell.label());
        }
        if let Journal::Open(j) = &mut self.journal {
            if let Err(e) = j.record(key) {
                eprintln!("sweep: could not journal {}: {e}", cell.label());
            }
        }
    }

    /// Opens the journal next to the result cache, keeping its record
    /// only when resuming. An unopenable journal (another live campaign
    /// holds it, or a filesystem error) only costs crash accounting.
    fn open_journal(&mut self) {
        let Some(cache) = &self.opts.result_cache else {
            return;
        };
        self.journal = match SweepJournal::open(cache.dir(), &self.digest, self.opts.resume) {
            Ok(j) => Journal::Open(j),
            Err(e) => {
                eprintln!("sweep: journal unavailable ({e}); crash resume disabled");
                Journal::Unavailable
            }
        };
    }

    /// Whether a journal for this sweep exists next to the cache.
    fn journal_on_disk(&self) -> bool {
        self.opts
            .result_cache
            .as_ref()
            .is_some_and(|c| SweepJournal::path_in(c.dir(), &self.digest).exists())
    }

    /// One progress line per finished cell, on stderr.
    fn progress(&self, result: &CellResult) {
        let (done, total, t) = (self.done, self.cells.len(), self.started.elapsed());
        match result {
            Ok(o) if o.cached => eprintln!(
                "[{done:>3}/{total}] {:<18} cached            (t={:.1?})",
                o.cell.label(),
                t
            ),
            Ok(o) => eprintln!(
                "[{done:>3}/{total}] {:<18} {:>12} cycles in {:.2?} (t={:.1?})",
                o.cell.label(),
                o.metrics.cycles,
                o.elapsed,
                t
            ),
            Err(f) => eprintln!("[{done:>3}/{total}] FAILED: {f}"),
        }
    }

    /// Closes the books: slots become the report in spec order (unfilled
    /// ones count as skipped), a complete run removes its journal — the
    /// one it opened, or one an earlier run left for the same cells — so
    /// an existing journal always means "unfinished, resumable", and the
    /// finish event is emitted.
    pub(crate) fn into_report(mut self) -> SweepReport {
        let mut out = SweepReport::default();
        for slot in std::mem::take(&mut self.slots) {
            match slot {
                Some(Ok(o)) => out.outcomes.push(o),
                Some(Err(f)) => out.failures.push(f),
                None => out.skipped += 1,
            }
        }
        if out.is_complete() {
            // Opening takes the lock, so a live campaign's journal stays.
            if matches!(self.journal, Journal::Closed) && self.journal_on_disk() {
                self.open_journal();
            }
            if let Journal::Open(j) = std::mem::replace(&mut self.journal, Journal::Closed) {
                j.finish().ok();
            }
        }
        let tel = &self.opts.telemetry;
        tel.emit(|| CampaignEvent::CampaignFinished {
            done: out.outcomes.len(),
            failed: out.failures.len(),
            skipped: out.skipped,
            elapsed_ms: self.started.elapsed().as_millis() as u64,
        });
        tel.flush();
        out
    }
}

/// Emits the cell's single terminal telemetry event: cache-hit, finished
/// (plus a degraded annotation when the watchdog intervened), or failed.
fn emit_terminal(tel: &crate::telemetry::Telemetry, idx: usize, result: &CellResult) {
    match result {
        Ok(o) if o.cached => tel.emit(|| CampaignEvent::CellCacheHit {
            idx,
            label: o.cell.label(),
            cycles: o.metrics.cycles,
        }),
        Ok(o) => {
            tel.emit(|| CampaignEvent::CellFinished {
                idx,
                label: o.cell.label(),
                cycles: o.metrics.cycles,
                commits: o.metrics.commits,
                aborts: o.metrics.aborts,
                elapsed_ms: o.elapsed.as_millis() as u64,
            });
            if o.metrics.degraded {
                tel.emit(|| CampaignEvent::CellDegraded {
                    idx,
                    label: o.cell.label(),
                    escalations: o.metrics.watchdog_escalations,
                    serialized_commits: o.metrics.serialized_commits,
                });
            }
        }
        Err(f) => tel.emit(|| CampaignEvent::CellFailed {
            idx,
            label: f.cell.label(),
            kind: f.error.tag(),
            error: f.error.to_string(),
            attempts: f.attempts,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GpuConfig, TmSystem};
    use crate::metrics::Metrics;
    use crate::sweep::{sweep_digest, FailureKind, ResultCache};
    use crate::telemetry::{MemorySink, Telemetry};
    use std::time::Duration;
    use workloads::suite::{Benchmark, Scale};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("getm-ledger-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn five_cells() -> Vec<CellSpec> {
        Benchmark::ALL[..5]
            .iter()
            .map(|&b| CellSpec::new(b, Scale::Fast, TmSystem::Getm, GpuConfig::tiny_test()))
            .collect()
    }

    /// A success for `cells[idx]` whose metrics name the cell.
    fn outcome(cells: &[CellSpec], idx: usize, cached: bool, degraded: bool) -> SweepOutcome {
        let metrics = Metrics {
            cycles: 100 + idx as u64,
            degraded,
            ..Metrics::default()
        };
        SweepOutcome {
            cell: cells[idx].clone(),
            metrics,
            cached,
            elapsed: Duration::ZERO,
        }
    }

    /// The names of the files in `dir` (none if it does not exist).
    fn files_in(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }

    #[test]
    fn cache_hits_open_no_journal_until_a_computed_cell_lands() {
        let dir = tmp_dir("hits");
        let cells = five_cells();
        let digest = sweep_digest(&cells);
        let journal = format!("sweep-{digest}.journal");
        let lock = format!("{journal}.lock");
        let opts = SweepOptions::new().cache(ResultCache::new(&dir));

        let mut ledger = Ledger::open(&cells, &opts, 2);
        for idx in [2, 0, 1] {
            ledger.record(idx, Ok(outcome(&cells, idx, true, false)));
        }
        let names = files_in(&dir);
        assert!(
            !names.contains(&journal) && !names.contains(&lock),
            "cache hits must write no journal: {names:?}"
        );

        ledger.record(4, Ok(outcome(&cells, 4, false, false)));
        let names = files_in(&dir);
        assert!(
            names.contains(&journal) && names.contains(&lock),
            "a computed cell opens the journal: {names:?}"
        );
        let lines = std::fs::read_to_string(dir.join(&journal)).expect("journal on disk");
        assert_eq!(
            lines.lines().skip(1).collect::<Vec<_>>(),
            [cells[4].cache_key()]
        );

        ledger.record(3, Ok(outcome(&cells, 3, true, false)));
        assert!(ledger.into_report().is_complete());
        let names = files_in(&dir);
        assert!(
            !names.contains(&journal) && !names.contains(&lock),
            "a complete run removes its journal and lock: {names:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_ledger_keeps_one_set_of_books() {
        let dir = tmp_dir("books");
        let cells = five_cells();
        let (sink, captured) = MemorySink::new();
        let opts = SweepOptions::new()
            .cache(ResultCache::new(&dir))
            .telemetry(Telemetry::to_sinks(vec![Box::new(sink)]));
        let outcome =
            |idx: usize, cached: bool, degraded: bool| outcome(&cells, idx, cached, degraded);

        // Cells 0-3 are computed, failed, cached and degraded; cell 4 is
        // never filled. Results arrive out of spec order.
        let mut ledger = Ledger::open(&cells, &opts, 2);
        ledger.record(3, Ok(outcome(3, false, true)));
        ledger.record(
            1,
            Err(CellFailure {
                cell: cells[1].clone(),
                error: FailureKind::Panic("boom".into()),
                attempts: 1,
                elapsed: Duration::ZERO,
            }),
        );
        ledger.record(0, Ok(outcome(0, false, false)));
        ledger.record(2, Ok(outcome(2, true, false)));
        assert!(ledger.is_filled(2) && !ledger.is_filled(4));
        let journal = dir.join(format!("sweep-{}.journal", sweep_digest(&cells)));
        let lines = std::fs::read_to_string(journal).expect("journal on disk");
        let report = ledger.into_report();

        // Journal: the header, then one line per computed success in
        // arrival order; the cache hit (cell 2) writes none.
        let keys: Vec<&str> = lines.lines().skip(1).collect();
        let want: Vec<String> = [3, 0].iter().map(|&i| cells[i].cache_key()).collect();
        assert_eq!(keys, want);

        // Report: spec order, the unfilled slot skipped.
        let idx_of = |c: &CellSpec| cells.iter().position(|x| x.cache_key() == c.cache_key());
        let done: Vec<_> = report.outcomes.iter().map(|o| idx_of(&o.cell)).collect();
        assert_eq!(done, [Some(0), Some(2), Some(3)]);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(idx_of(&report.failures[0].cell), Some(1));
        assert_eq!(report.skipped, 1);

        let events: Vec<CampaignEvent> = captured.lock().unwrap().drain(..).map(|e| e.1).collect();
        assert!(matches!(
            events[0],
            CampaignEvent::CampaignStarted {
                total: 5,
                workers: 2,
                ..
            }
        ));
        assert!(matches!(
            events.last(),
            Some(CampaignEvent::CampaignFinished {
                done: 3,
                failed: 1,
                skipped: 1,
                ..
            })
        ));
        for idx in 0..5 {
            let terminals = events
                .iter()
                .filter(|e| e.is_terminal() && e.cell_idx() == Some(idx))
                .count();
            assert_eq!(terminals, usize::from(idx < 4), "cell {idx}");
        }
        // Each terminal is followed by its throughput sample (after the
        // degraded annotation, which directly follows its finish).
        let mut seen = (0, 0, 0);
        for (i, e) in events.iter().enumerate() {
            if !e.is_terminal() {
                continue;
            }
            seen.0 += 1;
            match e {
                CampaignEvent::CellCacheHit { .. } => seen.1 += 1,
                CampaignEvent::CellFailed { kind, .. } => {
                    assert_eq!(*kind, "panic");
                    seen.2 += 1;
                }
                _ => {}
            }
            let mut next = i + 1;
            if e.cell_idx() == Some(3) {
                assert!(
                    matches!(events[next], CampaignEvent::CellDegraded { idx: 3, .. }),
                    "{:?}",
                    events[next]
                );
                next += 1;
            }
            match &events[next] {
                CampaignEvent::Throughput {
                    done,
                    total,
                    cache_hits,
                    failures,
                    ..
                } => assert_eq!(
                    (*done, *cache_hits, *failures, *total),
                    (seen.0, seen.1, seen.2, 5)
                ),
                other => panic!("terminal not followed by throughput: {other:?}"),
            }
        }
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, CampaignEvent::CellDegraded { .. }))
                .count(),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
