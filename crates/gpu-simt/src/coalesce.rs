//! The memory-access coalescer.
//!
//! When a warp issues a memory instruction, the per-lane addresses are
//! grouped by metadata granule (for transactional accesses the validation
//! unit works at granule granularity) so that one request per distinct
//! granule crosses the interconnect, carrying the lanes it serves.
//!
//! The grouper runs on every memory issue, so in steady state it allocates
//! nothing: the group list is caller-owned scratch, and each group's lane
//! list comes from a pool of recycled vectors. A lane list travels inside
//! the request's pending context and goes back to the pool when the reply
//! retires it.

use gpu_mem::{Addr, Geometry, Granule};

/// The lanes one coalesced request serves: `(lane, word address)` pairs in
/// issue order. The first entry's address is the request's representative.
pub type LaneList = Vec<(u32, Addr)>;

/// Groups `(lane, addr)` accesses by granule, appending one
/// `(granule, lanes)` group per distinct granule to `groups` in
/// first-appearance order.
///
/// `groups` must be empty on entry (callers drain it after each use and
/// keep it for its capacity). Each new group takes its lane list from
/// `pool`, which holds cleared vectors; only an empty pool allocates.
///
/// ```
/// use gpu_simt::coalesce_by_granule;
/// use gpu_mem::{Addr, Geometry, Granule};
///
/// let geom = Geometry::new(128, 32, 6);
/// let (mut groups, mut pool) = (Vec::new(), Vec::new());
/// let lanes = [(0, Addr(0)), (1, Addr(8)), (2, Addr(64))];
/// coalesce_by_granule(lanes, &geom, &mut groups, &mut pool);
/// assert_eq!(groups.len(), 2); // granule 0 (bytes 0..32) and granule 2
/// assert_eq!(groups[0], (Granule(0), vec![(0, Addr(0)), (1, Addr(8))]));
/// assert_eq!(groups[1], (Granule(2), vec![(2, Addr(64))]));
/// ```
pub fn coalesce_by_granule(
    accesses: impl IntoIterator<Item = (u32, Addr)>,
    geom: &Geometry,
    groups: &mut Vec<(Granule, LaneList)>,
    pool: &mut Vec<LaneList>,
) {
    debug_assert!(groups.is_empty(), "coalescer scratch must be drained");
    for (lane, addr) in accesses {
        let g = geom.granule_of(addr);
        match groups.iter_mut().find(|(gg, _)| *gg == g) {
            Some((_, lanes)) => lanes.push((lane, addr)),
            None => {
                let mut lanes = pool.pop().unwrap_or_default();
                lanes.push((lane, addr));
                groups.push((g, lanes));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::new(128, 32, 6)
    }

    fn group(accesses: &[(u32, Addr)], geom: &Geometry) -> Vec<(Granule, LaneList)> {
        let mut groups = Vec::new();
        coalesce_by_granule(accesses.iter().copied(), geom, &mut groups, &mut Vec::new());
        groups
    }

    #[test]
    fn fully_coalesced_warp() {
        // 32 lanes touching consecutive words, 4 words per granule ->
        // 8 granules of 4 lanes each.
        let accesses: Vec<(u32, Addr)> = (0..32u32).map(|i| (i, Addr(i as u64 * 8))).collect();
        let groups = group(&accesses, &geom());
        assert_eq!(groups.len(), 8);
        assert!(groups.iter().all(|(_, lanes)| lanes.len() == 4));
    }

    #[test]
    fn fully_divergent_warp() {
        let accesses: Vec<(u32, Addr)> = (0..32u32).map(|i| (i, Addr(i as u64 * 4096))).collect();
        assert_eq!(group(&accesses, &geom()).len(), 32);
    }

    #[test]
    fn empty_input() {
        assert!(group(&[], &geom()).is_empty());
    }

    #[test]
    fn order_is_first_appearance() {
        let accesses = [(0, Addr(4096)), (1, Addr(0)), (2, Addr(4100))];
        let groups = group(&accesses, &geom());
        assert_eq!(
            groups[0],
            (Granule(128), vec![(0, Addr(4096)), (2, Addr(4100))])
        );
        assert_eq!(groups[1], (Granule(0), vec![(1, Addr(0))]));
    }

    #[test]
    fn granularity_affects_grouping() {
        let fine = Geometry::new(128, 16, 6);
        let coarse = Geometry::new(128, 128, 6);
        let accesses = [(0, Addr(0)), (1, Addr(16)), (2, Addr(64))];
        assert_eq!(group(&accesses, &fine).len(), 3);
        assert_eq!(group(&accesses, &coarse).len(), 1);
    }

    /// New groups reuse pooled lane vectors (no allocation while the pool
    /// lasts) and allocate only once it runs dry.
    #[test]
    fn lane_vectors_come_from_the_pool() {
        let mut pool: Vec<LaneList> = vec![Vec::with_capacity(32)];
        let pooled = pool[0].as_ptr();
        let mut groups = Vec::new();
        let accesses = [(0, Addr(0)), (1, Addr(4096)), (2, Addr(8))];
        coalesce_by_granule(accesses, &geom(), &mut groups, &mut pool);
        assert!(pool.is_empty(), "the pooled vector was taken");
        assert_eq!(groups[0].1.as_ptr(), pooled, "first group reuses it");
        assert_eq!(groups[0].1.capacity(), 32);
        assert_eq!(groups[1].1, vec![(1, Addr(4096))], "a dry pool allocates");
        // Recycling the lists the way the engine does makes the next
        // grouping allocation-free: every group reuses a recycled vector.
        let mut recycled = Vec::new();
        for (_, mut lanes) in groups.drain(..) {
            lanes.clear();
            recycled.push(lanes.as_ptr());
            pool.push(lanes);
        }
        coalesce_by_granule(accesses, &geom(), &mut groups, &mut pool);
        assert!(pool.is_empty());
        assert!(groups
            .iter()
            .all(|(_, lanes)| recycled.contains(&lanes.as_ptr())));
    }
}
