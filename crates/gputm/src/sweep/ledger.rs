//! The sweep ledger: result bookkeeping shared by both sweep front ends.
//!
//! A grid runs either on the in-process executor ([`super::exec`]) or on
//! the distributed campaign coordinator (`crate::campaign`). Both hand out
//! unfinished cells in spec order, over different transports — threads
//! on a channel versus leases on a socket — and keep identical books; the
//! ledger is the one copy of them: per-cell slots in spec order, the
//! fsynced [`SweepJournal`] (including recalling a resumed campaign's
//! journaled cells from the cache before any work is handed out), the
//! campaign's start, queue, terminal, throughput and finish telemetry,
//! the per-cell progress line, and the final [`SweepReport`].
//!
//! The ledger is also the campaign's only telemetry writer. A cell's
//! attempts run wherever it is scheduled, so each attempt's start and
//! retry reach the ledger as a [`Note`] through [`Ledger::note`] — over
//! the executor's result channel, or as a campaign worker's `start` and
//! `retry` lines — on the same path, and so in the same order, as the
//! cell's terminal result.
//!
//! Every cell reaches the ledger through [`Ledger::record`] at most once,
//! which is what makes "exactly one terminal event per cell" hold no
//! matter how often a front end reassigned the cell.

use super::journal::{sweep_digest, SweepJournal};
use super::{CellFailure, CellSpec, SweepOptions, SweepOutcome, SweepReport};
use crate::telemetry::CampaignEvent;
use std::time::{Duration, Instant};

/// One cell's terminal result.
pub(crate) type CellResult = Result<SweepOutcome, CellFailure>;

/// One attempt-level event of a cell, sent by the code that attempts it
/// ([`super::exec::run_cell`]) to the ledger through its caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Note {
    /// Attempt `attempt` (1-based) is starting.
    Started { attempt: u32 },
    /// Attempt `attempt` failed with the rendered `error` and will be
    /// retried.
    Retried { attempt: u32, error: String },
}

/// The books of one sweep run (see the module docs).
pub(crate) struct Ledger<'a> {
    cells: &'a [CellSpec],
    opts: &'a SweepOptions,
    journal: Option<SweepJournal>,
    slots: Vec<Option<CellResult>>,
    done: usize,
    cache_hits: usize,
    failed: usize,
    started: Instant,
}

impl<'a> Ledger<'a> {
    /// Opens the journal, announces the campaign (`workers` is reported
    /// in its start event), and recalls every journaled cell from the
    /// cache, so a resumed run hands out only the remainder.
    pub(crate) fn open(cells: &'a [CellSpec], opts: &'a SweepOptions, workers: usize) -> Self {
        let journal = open_journal(cells, opts);
        let tel = &opts.telemetry;
        tel.emit(|| CampaignEvent::CampaignStarted {
            total: cells.len(),
            workers,
            resumed: journal.as_ref().map_or(0, SweepJournal::completed),
        });
        if tel.is_on() {
            for (idx, cell) in cells.iter().enumerate() {
                tel.emit(|| CampaignEvent::CellQueued {
                    idx,
                    label: cell.label(),
                });
            }
        }
        let mut ledger = Ledger {
            cells,
            opts,
            journal,
            slots: std::iter::repeat_with(|| None).take(cells.len()).collect(),
            done: 0,
            cache_hits: 0,
            failed: 0,
            started: Instant::now(),
        };
        ledger.recall();
        ledger
    }

    /// Serves journaled cells from the cache. A journaled key missing
    /// from the cache (eviction, corrupt entry) simply recomputes: the
    /// journal is accounting, the cache is truth.
    fn recall(&mut self) {
        let opts = self.opts;
        let (Some(j), Some(cache)) = (&self.journal, &opts.result_cache) else {
            return;
        };
        if j.completed() == 0 {
            return;
        }
        let recalled: Vec<(usize, String)> = self
            .cells
            .iter()
            .map(CellSpec::cache_key)
            .enumerate()
            .filter(|(_, key)| j.is_completed(key))
            .collect();
        if opts.progress {
            eprintln!(
                "sweep: resuming {} — {}/{} cells already complete",
                j.path().display(),
                recalled.len(),
                self.cells.len()
            );
        }
        for (idx, key) in recalled {
            if let Some(metrics) = cache.load(&key) {
                let outcome = SweepOutcome {
                    cell: self.cells[idx].clone(),
                    metrics,
                    cached: true,
                    elapsed: Duration::ZERO,
                };
                self.record(idx, Ok(outcome));
            }
        }
    }

    /// Whether cell `idx` has its terminal result.
    pub(crate) fn is_filled(&self, idx: usize) -> bool {
        self.slots[idx].is_some()
    }

    /// Whether every cell has its terminal result.
    pub(crate) fn all_filled(&self) -> bool {
        self.slots.iter().all(Option::is_some)
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

    /// Records cell `idx`'s terminal result: the progress line, the
    /// cell's one terminal telemetry event, a throughput sample, the
    /// journal line for a success, and the slot.
    pub(crate) fn record(&mut self, idx: usize, result: CellResult) {
        debug_assert!(self.slots[idx].is_none(), "terminal results are unique");
        self.done += 1;
        if self.opts.progress {
            self.progress(&result);
        }
        match &result {
            Ok(o) if o.cached => self.cache_hits += 1,
            Err(_) => self.failed += 1,
            _ => {}
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
        if result.is_ok() {
            if let Some(j) = self.journal.as_mut() {
                let cell = &self.cells[idx];
                if let Err(e) = j.record(&cell.cache_key()) {
                    eprintln!("sweep: could not journal {}: {e}", cell.label());
                }
            }
        }
        self.slots[idx] = Some(result);
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
    /// ones count as skipped), a complete run deletes its journal — an
    /// existing journal always means "unfinished, resumable" — and the
    /// finish event is emitted.
    pub(crate) fn into_report(self) -> SweepReport {
        let mut out = SweepReport::default();
        for slot in self.slots {
            match slot {
                Some(Ok(o)) => out.outcomes.push(o),
                Some(Err(f)) => out.failures.push(f),
                None => out.skipped += 1,
            }
        }
        if out.is_complete() {
            if let Some(j) = self.journal {
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

/// Opens the sweep journal next to the result cache. Journaling is
/// best-effort: a cache-less sweep has nothing durable to resume from,
/// and an unopenable journal only costs crash accounting.
fn open_journal(cells: &[CellSpec], opts: &SweepOptions) -> Option<SweepJournal> {
    let cache = opts.result_cache.as_ref()?;
    match SweepJournal::open(cache.dir(), &sweep_digest(cells), opts.resume) {
        Ok(j) => Some(j),
        Err(e) => {
            eprintln!("sweep: journal unavailable ({e}); crash resume disabled");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GpuConfig, TmSystem};
    use crate::metrics::Metrics;
    use crate::sweep::{FailureKind, ResultCache};
    use crate::telemetry::{MemorySink, Telemetry};
    use workloads::suite::{Benchmark, Scale};

    #[test]
    fn the_ledger_keeps_one_set_of_books() {
        let dir = std::env::temp_dir().join(format!("getm-ledger-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cells: Vec<CellSpec> = Benchmark::ALL[..5]
            .iter()
            .map(|&b| CellSpec::new(b, Scale::Fast, TmSystem::Getm, GpuConfig::tiny_test()))
            .collect();
        let (sink, captured) = MemorySink::new();
        let opts = SweepOptions::new()
            .cache(ResultCache::new(&dir))
            .telemetry(Telemetry::to_sinks(vec![Box::new(sink)]));
        let outcome = |idx: usize, cached: bool, degraded: bool| {
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
        };

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
        assert!(ledger.is_filled(2) && !ledger.is_filled(4) && !ledger.all_filled());
        let journal = ledger.journal.as_ref().expect("cache attached").path();
        let lines = std::fs::read_to_string(journal).expect("journal on disk");
        let report = ledger.into_report();

        // Journal: the header, then one line per success in arrival order.
        let keys: Vec<&str> = lines.lines().skip(1).collect();
        let want: Vec<String> = [3, 0, 2].iter().map(|&i| cells[i].cache_key()).collect();
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
