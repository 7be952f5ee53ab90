//! The former host-thread execution mode.
//!
//! The engine runs every simulation on the calling thread (DESIGN.md §12).
//! [`ExecMode`] once chose how many host threads advanced it; it remains
//! only so code written against the sharded engine still compiles, and
//! [`crate::engine::Engine::set_exec`] ignores it.

/// How many host threads a caller asked for. The engine ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// One host thread.
    #[default]
    Serial,
    /// Formerly cycle-lockstep sharded execution on `threads` host
    /// threads; now the same run as `Serial`.
    Sharded {
        /// Host threads asked for.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_round_trips() {
        assert_eq!(ExecMode::default(), ExecMode::Serial);
        assert_eq!(ExecMode::Serial.threads(), 1);
        assert_eq!(ExecMode::Sharded { threads: 4 }.threads(), 4);
        assert_eq!(ExecMode::Sharded { threads: 0 }.threads(), 1);
    }
}
