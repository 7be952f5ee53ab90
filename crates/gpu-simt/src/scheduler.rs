//! The greedy-then-oldest (GTO) warp scheduler.
//!
//! GTO keeps issuing from the warp it issued from last as long as that warp
//! is ready; when it stalls, the scheduler falls back to the *oldest* ready
//! warp (lowest slot index, matching the baseline GPU's age order).

/// A GTO scheduler: all it remembers is the greedy warp.
///
/// ```
/// use gpu_simt::GtoScheduler;
///
/// let mut s = GtoScheduler::default();
/// // Warps 1 and 3 are ready; nothing issued yet, so the oldest wins.
/// assert_eq!(s.pick(0b1010), Some(1));
/// // Greedy: warp 1 keeps the slot while it stays ready.
/// assert_eq!(s.pick(0b1010), Some(1));
/// // Warp 1 stalls: fall back to the oldest ready warp.
/// assert_eq!(s.pick(0b1000), Some(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GtoScheduler {
    last: Option<usize>,
}

impl GtoScheduler {
    /// Picks the next warp to issue from, where bit `w` of `ready` is set
    /// if slot `w` can issue this cycle. Returns `None` when nothing is
    /// ready, leaving the greedy warp in place.
    pub fn pick(&mut self, ready: u64) -> Option<usize> {
        if let Some(last) = self.last {
            if ready >> last & 1 == 1 {
                return Some(last);
            }
        }
        if ready == 0 {
            return None;
        }
        let w = ready.trailing_zeros() as usize;
        self.last = Some(w);
        Some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oldest_first_when_idle() {
        let mut s = GtoScheduler::default();
        assert_eq!(s.pick(0b1110_0000), Some(5));
    }

    #[test]
    fn greedy_sticks_with_last() {
        let mut s = GtoScheduler::default();
        assert_eq!(s.pick(1 << 6), Some(6));
        // Even though warp 0 became ready, greedy prefers 6.
        assert_eq!(s.pick(0xFF), Some(6));
    }

    #[test]
    fn falls_back_to_oldest_on_stall() {
        let mut s = GtoScheduler::default();
        assert_eq!(s.pick(1 << 6), Some(6));
        assert_eq!(s.pick(1 << 2 | 1 << 4), Some(2));
        // New greedy warp is 2.
        assert_eq!(s.pick(1 << 2 | 1 << 4), Some(2));
    }

    #[test]
    fn none_when_nothing_ready() {
        let mut s = GtoScheduler::default();
        assert_eq!(s.pick(0), None);
    }

    #[test]
    fn top_slot_of_a_64_slot_core() {
        let mut s = GtoScheduler::default();
        assert_eq!(s.pick(1 << 63), Some(63));
        assert_eq!(s.pick(1 << 63 | 1), Some(63));
        assert_eq!(s.pick(1), Some(0));
    }

    #[test]
    fn empty_pick_is_stateless() {
        // The engine's idle skip-ahead elides cycles where no warp is ready
        // without consulting the scheduler. That is only sound because a
        // pick with nothing ready leaves the scheduler untouched: same
        // greedy warp, so skipping N such cycles is indistinguishable from
        // calling `pick` N times in them.
        let mut s = GtoScheduler::default();
        assert_eq!(s.pick(1 << 2), Some(2));
        for _ in 0..100 {
            assert_eq!(s.pick(0), None);
        }
        // Greedy state survived the dry spell: warp 2 beats the older 0.
        assert_eq!(s.pick(0b1111), Some(2));
    }
}
