//! Pid-stamped lock files: cross-process ownership of a sweep's journal.
//!
//! The result cache needs no lock — entries are content-addressed and
//! written atomically (temp file + rename), so two writers of the same
//! digest produce identical bytes and the last rename wins. The journal
//! is different: it is an append-only *per-sweep* file, and two `sweep`
//! processes appending to it would interleave their progress records and
//! corrupt both runs' crash accounting. [`LockFile`] closes that
//! hole: whoever holds `sweep-<digest>.journal.lock` owns the journal.
//!
//! Ownership is advisory and crash-tolerant. The lock file is created
//! with `O_EXCL` and stamped with the owner's pid; a contender that finds
//! an existing lock checks whether that pid is still alive (via `/proc`)
//! and takes over a dead owner's lock — a SIGKILLed sweep must not
//! wedge its digest forever. A *live* owner makes acquisition fail with
//! [`std::io::ErrorKind::WouldBlock`], which callers treat as
//! "someone else is running this sweep": logged, not fatal — the
//! contender simply runs without a journal (losing only crash resume).

use std::io::Write;
use std::path::{Path, PathBuf};

/// An exclusively held, pid-stamped lock file. Dropping the guard removes
/// the file; a crash leaves it behind for the next contender's staleness
/// check.
#[derive(Debug)]
pub struct LockFile {
    path: PathBuf,
}

impl LockFile {
    /// Acquires the lock at `path`, taking over stale (dead-owner or
    /// unreadable) locks.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::WouldBlock`] when a live process holds the
    /// lock (the error message names its pid); other kinds for real
    /// filesystem failures.
    pub fn acquire(path: &Path) -> std::io::Result<LockFile> {
        // Two contenders can both judge a lock stale and race remove +
        // create; O_EXCL arbitrates, the loser re-reads and sees a live
        // owner. A few rounds bound pathological interleavings.
        for _ in 0..4 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(path)
            {
                Ok(mut f) => {
                    // The pid stamp is the liveness probe for contenders;
                    // a torn stamp (crash mid-write) reads as stale, which
                    // is the safe direction.
                    writeln!(f, "{}", std::process::id())?;
                    f.sync_all()?;
                    return Ok(LockFile {
                        path: path.to_path_buf(),
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let owner = std::fs::read_to_string(path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match owner {
                        Some(pid) if pid_alive(pid) => {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::WouldBlock,
                                format!(
                                    "{} held by live pid {pid}",
                                    path.file_name().unwrap_or_default().to_string_lossy()
                                ),
                            ));
                        }
                        // Dead owner or garbage stamp: stale, take over.
                        _ => {
                            std::fs::remove_file(path).ok();
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            format!("{} is contended", path.display()),
        ))
    }

    /// Where the lock file lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for LockFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// Whether `pid` is a live process. Our own pid is trivially alive; other
/// pids are probed through `/proc`. On filesystems without `/proc`
/// (non-Linux), liveness is unknowable without libc, so locks are treated
/// as stale: the journal is crash accounting, and availability beats
/// strict exclusion for an accounting file.
fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    let proc_root = Path::new("/proc");
    proc_root.exists() && proc_root.join(pid.to_string()).exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("getm-lock-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("test.lock")
    }

    #[test]
    fn acquire_release_reacquire() {
        let path = tmp("cycle");
        std::fs::remove_file(&path).ok();
        let lock = LockFile::acquire(&path).expect("first acquire");
        assert!(path.exists());
        assert_eq!(lock.path(), path);
        drop(lock);
        assert!(!path.exists(), "drop must remove the lock");
        let _again = LockFile::acquire(&path).expect("reacquire after release");
    }

    #[test]
    fn live_owner_blocks_second_acquire() {
        let path = tmp("live");
        std::fs::remove_file(&path).ok();
        let _held = LockFile::acquire(&path).expect("acquire");
        let err = LockFile::acquire(&path).expect_err("self-held lock must block");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert!(err.to_string().contains("held by live pid"), "{err}");
    }

    #[test]
    fn dead_owner_lock_is_taken_over() {
        let path = tmp("stale");
        std::fs::remove_file(&path).ok();
        // u32::MAX exceeds every kernel's pid_max: a guaranteed-dead owner.
        std::fs::write(&path, format!("{}\n", u32::MAX)).unwrap();
        let lock = LockFile::acquire(&path).expect("stale lock must be taken over");
        let stamp = std::fs::read_to_string(lock.path()).unwrap();
        assert_eq!(stamp.trim(), std::process::id().to_string());
    }

    #[test]
    fn garbage_stamp_is_stale() {
        let path = tmp("garbage");
        std::fs::remove_file(&path).ok();
        std::fs::write(&path, "not a pid at all").unwrap();
        LockFile::acquire(&path).expect("unreadable stamp must read as stale");
    }
}
