//! Crash-safe sweep journal: an append-only record of computed cells.
//!
//! The result cache makes finished cells cheap to recall, but it is
//! content-addressed and shared across every sweep that ever ran — it
//! cannot say whether *this* campaign finished. The journal closes that
//! gap: a sweep that computes a cell writes one small file next to the
//! cache (`sweep-<digest>.journal`, where the digest is a stable hash of
//! the cells' cache keys) and appends each computed cell's key, fsynced,
//! the moment the cell is stored. A cache hit is already durable in the
//! cache and writes nothing, so a fully-warm sweep never opens a journal.
//! A process killed mid-sweep therefore leaves a journal that names the
//! cells it computed; rerunning the sweep with `resume` on reports that
//! count and recomputes only what the cache lacks, byte-identical to an
//! uninterrupted run. A sweep that completes removes its digest's journal
//! — one it opened or one an earlier run left — so an existing journal
//! always means an unfinished campaign.
//!
//! The file format is one header line (`getm-sweep-journal-v1 <digest>`)
//! followed by one 32-hex-digit cache key per line. Reads tolerate a torn
//! trailing line (the crash window is after `write` and before `fsync`):
//! invalid lines are dropped and the file is compacted before appending
//! resumes, so a torn tail can never corrupt later appends.

use super::lock::LockFile;
use super::CellSpec;
use sim_core::hash::StableHasher;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

const HEADER: &str = "getm-sweep-journal-v1";

/// A stable 128-bit hex digest identifying a sweep: the hash of its
/// cells' cache keys, in order. Two sweeps over the same cells share a
/// journal; any change to any cell (or to the order) makes a new one.
pub fn sweep_digest(cells: &[CellSpec]) -> String {
    keys_digest(cells.iter().map(CellSpec::cache_key))
}

/// [`sweep_digest`] of cells whose cache keys are already computed.
pub(crate) fn keys_digest<K: AsRef<str>>(keys: impl IntoIterator<Item = K>) -> String {
    let mut h = StableHasher::new();
    h.write_str(HEADER);
    for key in keys {
        h.write_str(key.as_ref());
    }
    h.finish_hex()
}

/// The append-only completed-cell journal of one sweep campaign.
///
/// Opening a journal takes exclusive cross-process ownership of its
/// digest via a pid-stamped [`LockFile`] next to it — two concurrent
/// campaigns over the same cell list would interleave their appends and
/// corrupt both records. The lock is released when the journal is
/// dropped (or [`SweepJournal::finish`]ed); a SIGKILLed owner leaves a
/// stale lock that the next opener detects (dead pid) and takes over.
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    file: File,
    completed: HashSet<String>,
    /// Held for the journal's lifetime; dropping it releases ownership.
    _lock: LockFile,
}

impl SweepJournal {
    /// Opens (or creates) the journal for `digest` under `dir`.
    ///
    /// With `resume` set, previously journaled keys are kept and exposed
    /// through [`SweepJournal::completed`]; otherwise any existing journal
    /// is discarded and the campaign starts from an empty record (the
    /// cache still serves whatever it holds — the journal only tracks
    /// campaign progress).
    ///
    /// # Errors
    ///
    /// Filesystem errors creating the directory or the file, and
    /// [`std::io::ErrorKind::WouldBlock`] when another live process holds
    /// this digest's journal lock (a concurrent campaign over the same
    /// cells). Callers may treat a failed open as "no journal": the sweep
    /// itself is unaffected, only crash accounting is lost.
    pub fn open(dir: &Path, digest: &str, resume: bool) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = Self::path_in(dir, digest);
        let lock = LockFile::acquire(&dir.join(format!("sweep-{digest}.journal.lock")))?;
        let completed = if resume {
            read_completed(&path, digest)
        } else {
            HashSet::new()
        };
        // Rewrite-then-append: compacting first drops any torn trailing
        // line (or a stale/foreign file) so appends always start at a
        // clean line boundary. The rewrite goes through a temp file and a
        // rename, mirroring the cache's atomic store.
        let tmp = dir.join(format!(".sweep-{digest}.{}.tmp", std::process::id()));
        {
            let mut f = File::create(&tmp)?;
            writeln!(f, "{HEADER} {digest}")?;
            let mut keys: Vec<&String> = completed.iter().collect();
            keys.sort(); // deterministic file contents
            for key in keys {
                writeln!(f, "{key}")?;
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(SweepJournal {
            path,
            file,
            completed,
            _lock: lock,
        })
    }

    /// Where the journal for `digest` under `dir` lives.
    pub(crate) fn path_in(dir: &Path, digest: &str) -> PathBuf {
        dir.join(format!("sweep-{digest}.journal"))
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether `key` was journaled as completed (this run or, with
    /// resume, a previous one).
    pub fn is_completed(&self, key: &str) -> bool {
        self.completed.contains(key)
    }

    /// Number of completed cells on record.
    pub fn completed(&self) -> usize {
        self.completed.len()
    }

    /// Records one computed cell, durably (append + fsync).
    ///
    /// # Errors
    ///
    /// Filesystem errors; callers may log and carry on (the cell's result
    /// is already in the cache — only crash accounting degrades).
    pub fn record(&mut self, key: &str) -> std::io::Result<()> {
        if !self.completed.insert(key.to_string()) {
            return Ok(()); // already on record (a resumed cell the cache lost)
        }
        writeln!(self.file, "{key}")?;
        self.file.sync_data()
    }

    /// Deletes the journal: the campaign completed, nothing to resume.
    ///
    /// # Errors
    ///
    /// Filesystem errors removing the file.
    pub fn finish(self) -> std::io::Result<()> {
        std::fs::remove_file(&self.path)
    }
}

/// Reads the completed-key set from an existing journal, tolerating a
/// missing file, a foreign header, and a torn trailing line.
fn read_completed(path: &Path, digest: &str) -> HashSet<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return HashSet::new();
    };
    let header = format!("{HEADER} {digest}");
    let mut lines = text.lines();
    if lines.next() != Some(header.as_str()) {
        return HashSet::new();
    }
    lines
        .filter(|l| l.len() == 32 && l.bytes().all(|b| b.is_ascii_hexdigit()))
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GpuConfig, TmSystem};
    use workloads::suite::{Benchmark, Scale};

    fn cells() -> Vec<CellSpec> {
        [Benchmark::HtH, Benchmark::Atm]
            .into_iter()
            .map(|b| CellSpec::new(b, Scale::Fast, TmSystem::Getm, GpuConfig::tiny_test()))
            .collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("getm-journal-{tag}-{}", std::process::id()))
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let c = cells();
        assert_eq!(sweep_digest(&c), sweep_digest(&c));
        let mut rev = c.clone();
        rev.reverse();
        assert_ne!(sweep_digest(&c), sweep_digest(&rev));
        assert_ne!(sweep_digest(&c), sweep_digest(&c[..1]));
    }

    #[test]
    fn record_survives_reopen_with_resume() {
        let dir = tmp_dir("resume");
        let c = cells();
        let digest = sweep_digest(&c);
        let keys: Vec<String> = c.iter().map(CellSpec::cache_key).collect();

        let mut j = SweepJournal::open(&dir, &digest, false).unwrap();
        assert_eq!(j.completed(), 0);
        j.record(&keys[0]).unwrap();
        j.record(&keys[0]).unwrap(); // idempotent
        assert!(j.is_completed(&keys[0]));
        drop(j);

        let j = SweepJournal::open(&dir, &digest, true).unwrap();
        assert_eq!(j.completed(), 1);
        assert!(j.is_completed(&keys[0]));
        assert!(!j.is_completed(&keys[1]));
        drop(j); // release the journal lock before reopening the digest

        // Without resume, the same file starts the campaign over.
        let j = SweepJournal::open(&dir, &digest, false).unwrap();
        assert_eq!(j.completed(), 0);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_trailing_line_is_dropped() {
        let dir = tmp_dir("torn");
        let c = cells();
        let digest = sweep_digest(&c);
        let keys: Vec<String> = c.iter().map(CellSpec::cache_key).collect();

        let mut j = SweepJournal::open(&dir, &digest, false).unwrap();
        j.record(&keys[0]).unwrap();
        let path = j.path().to_path_buf();
        drop(j);

        // Simulate a crash mid-append: a second key cut short, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{}", &keys[1][..10]).unwrap();
        drop(f);

        let mut j = SweepJournal::open(&dir, &digest, true).unwrap();
        assert_eq!(j.completed(), 1, "the torn key must not count");
        // Appending after compaction lands on a clean line boundary.
        j.record(&keys[1]).unwrap();
        drop(j);
        let j = SweepJournal::open(&dir, &digest, true).unwrap();
        assert_eq!(j.completed(), 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_open_of_one_digest_is_refused_then_allowed() {
        let dir = tmp_dir("lock");
        let c = cells();
        let digest = sweep_digest(&c);

        let held = SweepJournal::open(&dir, &digest, false).unwrap();
        // A second campaign over the same digest (same live pid counts):
        // refused with WouldBlock, which the executor logs and survives.
        let err = SweepJournal::open(&dir, &digest, true)
            .expect_err("live-held journal must refuse a second owner");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        // A different digest is a different campaign: unaffected.
        let other = sweep_digest(&c[..1]);
        let _coexists = SweepJournal::open(&dir, &other, false).unwrap();
        drop(held);
        // Ownership released: the digest reopens cleanly.
        let reopened = SweepJournal::open(&dir, &digest, true).unwrap();
        assert_eq!(reopened.completed(), 0);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sigkilled_owner_leaves_a_stale_lock_that_is_taken_over() {
        let dir = tmp_dir("stale-lock");
        let c = cells();
        let digest = sweep_digest(&c);
        std::fs::create_dir_all(&dir).unwrap();
        // A crashed campaign: journal present, lock stamped with a pid
        // that no longer exists.
        std::fs::write(
            dir.join(format!("sweep-{digest}.journal.lock")),
            format!("{}\n", u32::MAX),
        )
        .unwrap();
        let keys: Vec<String> = c.iter().map(CellSpec::cache_key).collect();
        std::fs::write(
            dir.join(format!("sweep-{digest}.journal")),
            format!("{HEADER} {digest}\n{}\n", keys[0]),
        )
        .unwrap();

        let j = SweepJournal::open(&dir, &digest, true).expect("stale lock must not wedge");
        assert_eq!(j.completed(), 1, "the dead owner's record survives");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_or_missing_journal_reads_empty_and_finish_removes() {
        let dir = tmp_dir("foreign");
        let c = cells();
        let digest = sweep_digest(&c);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("sweep-{digest}.journal"));
        std::fs::write(&path, "some other file\nabc\n").unwrap();

        let j = SweepJournal::open(&dir, &digest, true).unwrap();
        assert_eq!(j.completed(), 0);
        assert!(j.path().exists());
        j.finish().unwrap();
        assert!(!path.exists());

        std::fs::remove_dir_all(&dir).ok();
    }
}
