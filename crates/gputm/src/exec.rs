//! Execution-mode selection for the engine.
//!
//! The simulated machine is always the same machine; [`ExecMode`] only
//! chooses how many *host* threads advance it. There is one cycle loop:
//! `Serial` runs it on one shard, on the calling thread.
//! `Sharded { threads }` carves the cores and memory partitions into
//! contiguous shards that execute each cycle's phases in parallel,
//! exchanging all cross-shard effects at per-cycle barriers in canonical
//! order — so metrics, traces, and verification
//! verdicts are bit-identical to `Serial` regardless of the thread count.
//! Because results never differ, the mode is excluded from sweep cache
//! digests: a cell computed serially satisfies a sharded request and vice
//! versa.

/// How many host threads advance the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// One shard on the calling thread: the reference execution.
    #[default]
    Serial,
    /// Cycle-lockstep sharded execution on `threads` host threads.
    /// `Sharded { threads: 1 }` is equivalent to `Serial`.
    Sharded {
        /// Host threads to use (the lead thread counts as one).
        threads: usize,
    },
}

impl ExecMode {
    /// The host thread count this mode asks for (1 for `Serial`).
    pub fn threads(&self) -> usize {
        match *self {
            ExecMode::Serial => 1,
            ExecMode::Sharded { threads } => threads.max(1),
        }
    }

    /// `Serial` for 0/1 threads, `Sharded` otherwise — the shape CLI
    /// `--threads N` flags want.
    pub fn from_threads(threads: usize) -> Self {
        if threads <= 1 {
            ExecMode::Serial
        } else {
            ExecMode::Sharded { threads }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_round_trips() {
        assert_eq!(ExecMode::default(), ExecMode::Serial);
        assert_eq!(ExecMode::Serial.threads(), 1);
        assert_eq!(ExecMode::from_threads(0), ExecMode::Serial);
        assert_eq!(ExecMode::from_threads(1), ExecMode::Serial);
        assert_eq!(ExecMode::from_threads(4), ExecMode::Sharded { threads: 4 });
        assert_eq!(ExecMode::Sharded { threads: 4 }.threads(), 4);
        assert_eq!(ExecMode::Sharded { threads: 0 }.threads(), 1);
    }
}
