//! DRAM channel timing.
//!
//! A memory partition that misses in its LLC bank forwards the request to
//! its DRAM channel. [`DramChannel`] models the channel as a
//! bandwidth-limited server with a fixed access latency and a bounded
//! outstanding-request queue (Table II: 6 channels, 32 queued requests
//! each, ~200-cycle access latency). A request that finds the queue full
//! waits for the earliest outstanding access to complete — back-pressure
//! modelled as admission delay, so every request is eventually served and
//! the caller never retries. Row-buffer state and FR-FCFS reordering are
//! abstracted away: for the TM protocol comparison, what matters is that
//! misses cost hundreds of cycles and that channels back up under load,
//! both of which this model captures.
//!
//! The engine times DRAM through this model under its HBM memory model;
//! the fixed-latency Fermi model charges `latency` alone and never
//! touches a channel.
//!
//! HBM stacks ([`DramConfig::hbm`]) differ from GDDR in three ways the
//! model keeps: much higher per-partition bandwidth, shorter access
//! latency, and **pseudo-channels** — each physical channel splits into
//! independent halves that serve requests concurrently, which is why HBM
//! sustains more outstanding traffic at the same queue depth.

use sim_core::Cycle;

/// DRAM channel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Fixed access latency (core cycles).
    pub latency: u64,
    /// Bytes per core cycle of channel bandwidth (per pseudo-channel).
    pub bytes_per_cycle: u64,
    /// Maximum queued requests before the channel back-pressures.
    pub queue_capacity: usize,
    /// Independent pseudo-channels sharing the queue (HBM2 splits each
    /// channel in two; GDDR-era parts have one).
    pub pseudo_channels: u32,
}

impl Default for DramConfig {
    fn default() -> Self {
        // 177 GB/s total over 6 channels at 1.4 GHz ~= 21 B/cyc per channel.
        DramConfig {
            latency: 200,
            bytes_per_cycle: 21,
            queue_capacity: 32,
            pseudo_channels: 1,
        }
    }
}

impl DramConfig {
    /// An HBM2-class stack slice: ~900 GB/s over 24 partitions at
    /// 1.4 GHz ~= 27 B/cyc per pseudo-channel, two pseudo-channels per
    /// partition, shorter access latency, deeper queue.
    pub fn hbm() -> Self {
        DramConfig {
            latency: 120,
            bytes_per_cycle: 27,
            queue_capacity: 64,
            pseudo_channels: 2,
        }
    }
}

/// One partition's DRAM channel.
///
/// ```
/// use gpu_mem::{DramChannel, DramConfig};
/// use sim_core::Cycle;
///
/// let mut d = DramChannel::new(DramConfig::default());
/// let done = d.request(Cycle(0), 128);
/// assert_eq!(done, Cycle(207)); // 7 cycles of service + 200 latency
/// ```
#[derive(Debug, Clone)]
pub struct DramChannel {
    cfg: DramConfig,
    /// Per-pseudo-channel busy horizon; requests pick the earliest.
    chan_free: Vec<Cycle>,
    /// Completion times of requests still outstanding (at most
    /// `queue_capacity`; completed ones are pruned on the next request).
    inflight: Vec<Cycle>,
    /// Requests that had to wait for an outstanding-queue slot.
    queue_stalls: u64,
}

impl DramChannel {
    /// Creates an idle channel.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.bytes_per_cycle > 0);
        assert!(cfg.pseudo_channels > 0);
        DramChannel {
            cfg,
            chan_free: vec![Cycle::ZERO; cfg.pseudo_channels as usize],
            inflight: Vec::new(),
            queue_stalls: 0,
        }
    }

    /// Charges a `bytes`-byte access issued at `now`, returning the cycle
    /// its data is back: admission delay if the outstanding queue is full,
    /// service on the least-loaded pseudo-channel, then the access latency.
    pub fn request(&mut self, now: Cycle, bytes: u64) -> Cycle {
        self.inflight.retain(|&c| c > now);
        let mut admit = now;
        if self.inflight.len() >= self.cfg.queue_capacity {
            // Queue full: the request waits until the earliest in-flight
            // access completes and frees a slot.
            let (i, &earliest) = self
                .inflight
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| **c)
                .expect("full queue is nonempty");
            self.inflight.swap_remove(i);
            admit = earliest;
            self.queue_stalls += 1;
        }
        let done = self.serve(admit, bytes) + self.cfg.latency;
        self.inflight.push(done);
        done
    }

    /// Occupies a pseudo-channel with `bytes` of off-critical-path traffic
    /// (victim writebacks): later requests queue behind it, but nothing
    /// waits on its completion and it takes no queue slot.
    pub fn occupy(&mut self, now: Cycle, bytes: u64) {
        self.serve(now, bytes);
    }

    /// Requests that found the outstanding queue full and waited for a
    /// slot.
    pub fn queue_stalls(&self) -> u64 {
        self.queue_stalls
    }

    /// Books `bytes` of service on the earliest-free pseudo-channel (first
    /// on ties, so the choice is deterministic), starting no earlier than
    /// `start`, and returns when the service ends.
    fn serve(&mut self, start: Cycle, bytes: u64) -> Cycle {
        let service = bytes.max(1).div_ceil(self.cfg.bytes_per_cycle);
        let mut pc = 0;
        for (i, &c) in self.chan_free.iter().enumerate().skip(1) {
            if c < self.chan_free[pc] {
                pc = i;
            }
        }
        let begin = self.chan_free[pc].max(start);
        self.chan_free[pc] = begin + service;
        self.chan_free[pc]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> DramChannel {
        DramChannel::new(DramConfig {
            latency: 200,
            bytes_per_cycle: 21,
            queue_capacity: 4,
            pseudo_channels: 1,
        })
    }

    #[test]
    fn single_access_latency() {
        let mut d = chan();
        // 128/21 -> 7 cycles service + 200 latency
        assert_eq!(d.request(Cycle(0), 128), Cycle(207));
        assert_eq!(d.queue_stalls(), 0);
    }

    #[test]
    fn back_to_back_serializes() {
        let mut d = chan();
        let a = d.request(Cycle(0), 128);
        let b = d.request(Cycle(0), 128);
        assert_eq!(b - a, 7); // second waits for the channel
    }

    #[test]
    fn idle_gap_resets_service_start() {
        let mut d = chan();
        d.request(Cycle(0), 21);
        assert_eq!(d.request(Cycle(1000), 21), Cycle(1201));
    }

    /// A full queue delays admission until the earliest outstanding
    /// access completes; each such request counts one queue stall.
    #[test]
    fn queue_capacity_backpressures() {
        let mut d = chan();
        let done: Vec<Cycle> = (0..4).map(|_| d.request(Cycle(0), 128)).collect();
        assert_eq!(done, vec![Cycle(207), Cycle(214), Cycle(221), Cycle(228)]);
        assert_eq!(d.queue_stalls(), 0);
        // The fifth is admitted when the first completes (207), then
        // serves for 7 cycles and waits out the latency.
        assert_eq!(d.request(Cycle(0), 128), Cycle(207 + 7 + 200));
        assert_eq!(d.queue_stalls(), 1);
        // Once outstanding accesses complete, requests flow undelayed.
        assert_eq!(d.request(Cycle(10_000), 128), Cycle(10_207));
        assert_eq!(d.queue_stalls(), 1);
    }

    /// Writeback occupancy delays later requests without holding a queue
    /// slot.
    #[test]
    fn occupy_takes_bandwidth_not_queue_slots() {
        let mut d = chan();
        for _ in 0..8 {
            d.occupy(Cycle(0), 21);
        }
        // Eight 1-cycle writebacks ahead of it, and no queue stall.
        assert_eq!(d.request(Cycle(0), 21), Cycle(8 + 1 + 200));
        assert_eq!(d.queue_stalls(), 0);
    }

    // ---- HBM pseudo-channels ----

    #[test]
    fn hbm_preset_is_faster_and_wider() {
        let hbm = DramConfig::hbm();
        let gddr = DramConfig::default();
        assert!(hbm.latency < gddr.latency);
        assert!(hbm.bytes_per_cycle * hbm.pseudo_channels as u64 > gddr.bytes_per_cycle);
        assert!(hbm.queue_capacity > gddr.queue_capacity);
        assert_eq!(hbm.pseudo_channels, 2);
        // The same burst of line fills drains sooner on HBM.
        let mut fast = DramChannel::new(hbm);
        let mut slow = DramChannel::new(gddr);
        let last = |d: &mut DramChannel| (0..16).map(|_| d.request(Cycle(0), 128)).last();
        assert!(last(&mut fast) < last(&mut slow));
    }

    #[test]
    fn pseudo_channels_serve_concurrently() {
        let mut two = DramChannel::new(DramConfig::hbm());
        // Two same-size requests at the same cycle: each takes its own
        // pseudo-channel, so both complete at the single-request time.
        let a = two.request(Cycle(0), 128);
        let b = two.request(Cycle(0), 128);
        assert_eq!(a, b, "pseudo-channels serve in parallel");
        // A third serializes behind whichever finishes first.
        let c = two.request(Cycle(0), 128);
        assert!(c > a);
    }

    #[test]
    fn hbm_queue_backpressure_with_pseudo_channels() {
        let mut d = DramChannel::new(DramConfig {
            queue_capacity: 4,
            ..DramConfig::hbm()
        });
        // 256 B at 27 B/cyc is 10 cycles of service: two per channel.
        let done: Vec<Cycle> = (0..4).map(|_| d.request(Cycle(0), 256)).collect();
        assert_eq!(done, vec![Cycle(130), Cycle(130), Cycle(140), Cycle(140)]);
        // Full: admitted at 130 on a channel free at 20.
        assert_eq!(d.request(Cycle(0), 256), Cycle(130 + 10 + 120));
        assert_eq!(d.queue_stalls(), 1);
        assert_eq!(d.request(Cycle(100_000), 256), Cycle(100_130));
        assert_eq!(d.queue_stalls(), 1);
    }
}
