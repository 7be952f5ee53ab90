//! Barnes-Hut octree build (BH).
//!
//! Each thread inserts one body into a shared octree. The tree is a digital
//! trie over each body's 3-bit position digits: an insert descends until it
//! finds an empty child slot (place the body) or a slot occupied by another
//! body (split: allocate an internal node from the thread's private pool,
//! push the resident body one level down, and keep descending — repeatedly
//! if the two bodies share further digits).
//!
//! The transactional variant wraps the whole insert in one transaction, so
//! early inserts near the root contend heavily — the paper's motivation for
//! this benchmark. The lock variant follows the classic GPU octree build:
//! descend optimistically without locks, lock only the node whose child
//! slot will change, re-validate, build any split spine *privately* before
//! linking it, and release.
//!
//! Memory layout:
//!
//! * `nodes[i]` — 128-byte node, words 0..8 are the child slots. Node 0 is
//!   the root; node `1 + tid*MAX_DEPTH + k` is thread `tid`'s k-th pool
//!   node.
//! * child-slot encoding: `0` = empty, odd = body tag
//!   (`body_id*2 + 1`), even non-zero = byte address of a child node.
//! * `locks[i]` — per-node spin lock for the FGLock variant.
//!
//! Checker: every body reachable exactly once, tree is acyclic, every
//! interior pointer lands in the node pool.

use crate::{Region, SyncMode, Workload};

use gpu_mem::Addr;
use gpu_simt::{BoxedProgram, Op, OpResult, ThreadProgram};
use std::collections::HashSet;

const NODES: Region = Region::new(0x8000_0000, 128);
const LOCKS: Region = Region::new(0x9800_0000, 8);

/// Maximum descent depth (3 bits of position hash per level).
pub const MAX_DEPTH: u64 = 20;

/// The Barnes-Hut tree-build benchmark.
#[derive(Debug, Clone)]
pub struct BarnesHut {
    bodies: usize,
    /// Retained for API stability; the position hash is a fixed function
    /// of the body id (see `pos_hash`), so the seed only names the run.
    #[allow(dead_code)]
    seed: u64,
    compute: u32,
}

impl BarnesHut {
    /// A build over `bodies` bodies.
    ///
    /// # Panics
    ///
    /// Panics if `bodies` is zero.
    pub fn new(bodies: usize, seed: u64) -> Self {
        assert!(bodies > 0);
        BarnesHut {
            bodies,
            seed,
            compute: 10,
        }
    }

    /// The position hash of a body: its digit at level `l` is bits
    /// `3l..3l+3`. A fixed mixing constant (not the workload seed) keeps
    /// the hash recomputable from a body tag alone, which the split path
    /// needs when it relocates another thread's body.
    fn pos_hash(&self, body: u64) -> u64 {
        pos_hash(body)
    }

    fn digit(hash: u64, level: u64) -> u64 {
        (hash >> (3 * level)) & 7
    }

    /// First pool-node index for a thread.
    fn pool_base(tid: u64) -> u64 {
        1 + tid * MAX_DEPTH
    }
}

/// Tag for a body in a child slot.
fn body_tag(body: u64) -> u64 {
    body * 2 + 1
}

fn is_body(v: u64) -> bool {
    v & 1 == 1
}

fn body_of(v: u64) -> u64 {
    (v - 1) / 2
}

impl Workload for BarnesHut {
    fn name(&self) -> &str {
        "BH"
    }

    fn initial_memory(&self) -> Vec<(Addr, u64)> {
        Vec::new() // the tree starts empty
    }

    fn thread_count(&self) -> usize {
        self.bodies
    }

    fn program(&self, tid: usize, mode: SyncMode) -> BoxedProgram {
        let hash = self.pos_hash(tid as u64);
        // Stagger warps' first access: real launches ramp blocks onto the
        // cores over thousands of cycles, so the empty top of the tree is
        // built by a modest number of early arrivals, not by every thread
        // in the grid simultaneously.
        let stagger = ((tid as u32 / 32) % 128) * 120;
        match mode {
            SyncMode::Tm => Box::new(TmInsert {
                body: tid as u64,
                hash,
                compute: self.compute + stagger,
                node: 0,
                level: 0,
                next_alloc: 0,
                phase: Phase::Start,
            }),
            SyncMode::FgLock => Box::new(LockInsert {
                body: tid as u64,
                hash,
                compute: self.compute + stagger,
                node: 0,
                level: 0,
                next_alloc: 0,
                state: LockState::Start,
                seen: 0,
                fails: 0,
                pending: Vec::new(),
            }),
        }
    }

    fn check(&self, mem: &dyn Fn(Addr) -> u64) -> Result<(), String> {
        let mut found = HashSet::new();
        // Iterative DFS from the root.
        let mut stack = vec![(0u64, 0u64)]; // (node index, level)
        let mut visited_nodes = HashSet::new();
        while let Some((node, level)) = stack.pop() {
            if level > MAX_DEPTH + 1 {
                return Err("tree deeper than MAX_DEPTH".into());
            }
            if !visited_nodes.insert(node) {
                return Err(format!("node {node} reachable twice (cycle?)"));
            }
            for c in 0..8u64 {
                let v = mem(NODES.field(node, c));
                if v == 0 {
                    continue;
                }
                if is_body(v) {
                    let b = body_of(v);
                    if b >= self.bodies as u64 {
                        return Err(format!("unknown body {b}"));
                    }
                    if !found.insert(b) {
                        return Err(format!("body {b} present twice"));
                    }
                    // The body must sit on its digit path.
                    let d = Self::digit(self.pos_hash(b), level);
                    if d != c {
                        return Err(format!(
                            "body {b} filed under digit {c}, expected {d} at level {level}"
                        ));
                    }
                } else {
                    let idx = NODES.index_of(Addr(v));
                    stack.push((idx, level + 1));
                }
            }
        }
        if found.len() != self.bodies {
            return Err(format!("{} of {} bodies in tree", found.len(), self.bodies));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Start,
    Begun,
    /// Waiting for the load of `node.children[digit(level)]`.
    Loaded,
    /// Split step 2: store the resident body into the fresh node.
    SplitStoreResident {
        fresh: u64,
        resident: u64,
    },
    /// Finished placing the body; commit next.
    Commit,
    Done,
}

/// TM variant: the whole insert is one transaction.
#[derive(Debug)]
struct TmInsert {
    body: u64,
    hash: u64,
    compute: u32,
    node: u64,
    level: u64,
    /// Next pool slot (resets on rollback — speculative allocation).
    next_alloc: u64,
    phase: Phase,
}

impl ThreadProgram for TmInsert {
    fn next(&mut self, prev: OpResult) -> Op {
        loop {
            match self.phase {
                Phase::Start => {
                    self.phase = Phase::Begun;
                    return Op::Compute(self.compute);
                }
                Phase::Begun => {
                    self.phase = Phase::Loaded;
                    self.node = 0;
                    self.level = 0;
                    self.next_alloc = 0;
                    return Op::TxBegin;
                }
                Phase::Loaded => {
                    // `prev` holds the slot value if we already issued the
                    // load; the first time through we must issue it.
                    // We distinguish by issuing the load and handling the
                    // value on the next call.
                    self.phase = Phase::SplitStoreResident {
                        fresh: u64::MAX,
                        resident: 0,
                    };
                    let d = BarnesHut::digit(self.hash, self.level);
                    return Op::TxLoad(NODES.field(self.node, d));
                }
                Phase::SplitStoreResident { fresh, resident: _ } if fresh == u64::MAX => {
                    // The load result is in `prev`.
                    let v = prev.value();
                    let d = BarnesHut::digit(self.hash, self.level);
                    if v == 0 {
                        // Empty slot: place our body.
                        self.phase = Phase::Commit;
                        return Op::TxStore(NODES.field(self.node, d), body_tag(self.body));
                    }
                    if is_body(v) {
                        // Split: allocate a fresh node, link it, move the
                        // resident body down, then keep descending into it.
                        assert!(
                            self.level < MAX_DEPTH,
                            "BH hash prefix collision beyond MAX_DEPTH"
                        );
                        let fresh_idx = BarnesHut::pool_base(self.body) + self.next_alloc;
                        self.next_alloc += 1;
                        self.phase = Phase::SplitStoreResident {
                            fresh: fresh_idx,
                            resident: v,
                        };
                        return Op::TxStore(NODES.field(self.node, d), NODES.at(fresh_idx).0);
                    }
                    // Interior pointer: descend.
                    self.node = NODES.index_of(Addr(v));
                    self.level += 1;
                    self.phase = Phase::Loaded;
                    continue;
                }
                Phase::SplitStoreResident { fresh, resident } => {
                    // Place the resident body into the fresh node at its
                    // next-level digit, then descend into the fresh node.
                    let rd = BarnesHut::digit(pos_hash(body_of(resident)), self.level + 1);
                    self.node = fresh;
                    self.level += 1;
                    self.phase = Phase::Loaded;
                    return Op::TxStore(NODES.field(fresh, rd), resident);
                }
                Phase::Commit => {
                    self.phase = Phase::Done;
                    return Op::TxCommit;
                }
                Phase::Done => return Op::Done,
            }
        }
    }

    fn rollback(&mut self) {
        self.node = 0;
        self.level = 0;
        self.next_alloc = 0;
        self.phase = Phase::Loaded;
    }
}

/// The shared body-position hash, recomputable from a body id alone (the
/// split path relocates bodies inserted by other threads and must agree on
/// their digits).
fn pos_hash(body: u64) -> u64 {
    let mut z = body ^ 0x0b4c_1b5e_11d3_37aa;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockState {
    Start,
    /// Optimistic (unlocked) load of the current slot issued.
    Descending,
    /// Lock acquisition in progress; `seen` caches the optimistic value.
    Locking,
    /// Re-validating load under the lock.
    Revalidating,
    /// Issuing the private split-spine stores (queued in `pending`).
    BuildSpine,
    /// Unlocking after the insert completed.
    Releasing,
    Done,
}

/// FGLock variant: optimistic descent, lock-one-node insert.
#[derive(Debug)]
struct LockInsert {
    body: u64,
    hash: u64,
    compute: u32,
    node: u64,
    level: u64,
    next_alloc: u64,
    state: LockState,
    /// The slot value observed optimistically.
    seen: u64,
    /// Consecutive failed lock tries (drives the re-descend backoff).
    fails: u32,
    /// Queued spine stores, emitted front-to-back via `pop()` on the
    /// reversed vector.
    pending: Vec<(Addr, u64)>,
}

impl ThreadProgram for LockInsert {
    fn next(&mut self, prev: OpResult) -> Op {
        loop {
            let d = BarnesHut::digit(self.hash, self.level);
            match self.state {
                LockState::Start => {
                    self.state = LockState::Descending;
                    return Op::Compute(self.compute);
                }
                LockState::Descending => {
                    self.state = LockState::Locking;
                    self.seen = u64::MAX; // marks "load issued, result pending"
                    return Op::Load(NODES.field(self.node, d));
                }
                LockState::Locking => {
                    if self.seen == u64::MAX {
                        let v = prev.value();
                        if v != 0 && !is_body(v) {
                            // Interior: descend without locking.
                            self.node = NODES.index_of(Addr(v));
                            self.level += 1;
                            self.state = LockState::Descending;
                            continue;
                        }
                        // Empty or body: try the node's lock ONCE.
                        self.seen = v;
                        return Op::AtomicCas {
                            addr: LOCKS.at(self.node),
                            expect: 0,
                            new: 1,
                        };
                    }
                    if prev.value() == 0 {
                        // Lock acquired: re-validate the slot under it.
                        self.state = LockState::Revalidating;
                        return Op::Load(NODES.field(self.node, d));
                    }
                    // Busy: back off briefly and RE-DESCEND — by the time
                    // we look again the slot has usually become an interior
                    // pointer and we bypass the hot node entirely. Spinning
                    // on the lock would melt the partition's atomic unit.
                    self.fails = self.fails.saturating_add(1);
                    let window = 32u64 << self.fails.min(5);
                    let mut z = self
                        .body
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(self.fails as u64);
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    let delay = ((z ^ (z >> 27)) % window) as u32 + 1;
                    self.state = LockState::Descending;
                    return Op::Compute(delay);
                }
                LockState::Revalidating => {
                    let v = prev.value();
                    if v == 0 {
                        // Still empty: place the body, then unlock.
                        self.state = LockState::Releasing;
                        return Op::Store(NODES.field(self.node, d), body_tag(self.body));
                    }
                    if is_body(v) {
                        // Build the split spine privately, then link it.
                        self.build_spine(v);
                        self.state = LockState::BuildSpine;
                        continue;
                    }
                    // Someone linked an interior node meanwhile: unlock
                    // and descend into it.
                    let locked_node = self.node;
                    self.node = NODES.index_of(Addr(v));
                    self.level += 1;
                    self.state = LockState::Descending;
                    return Op::Store(LOCKS.at(locked_node), 0);
                }
                LockState::BuildSpine => {
                    // Spine stores were computed in build_spine and are
                    // emitted via the pending queue.
                    if let Some((a, val)) = self.pending.pop() {
                        return Op::Store(a, val);
                    }
                    self.state = LockState::Releasing;
                    continue;
                }
                LockState::Releasing => {
                    // Unlock the node we modified; the insert is done.
                    self.state = LockState::Done;
                    return Op::Store(LOCKS.at(self.node), 0);
                }
                LockState::Done => return Op::Done,
            }
        }
    }

    fn rollback(&mut self) {
        unreachable!("lock programs never run transactions");
    }
}

impl LockInsert {
    /// Builds the private spine of split nodes for a resident/our-body
    /// digit collision, queueing its stores (private-node writes first, the
    /// externally visible link last).
    fn build_spine(&mut self, resident: u64) {
        let res_hash = pos_hash(body_of(resident));
        let mut stores: Vec<(Addr, u64)> = Vec::new();
        let first_fresh = BarnesHut::pool_base(self.body) + self.next_alloc;
        let mut level = self.level + 1;
        let mut fresh = first_fresh;
        self.next_alloc += 1;
        loop {
            assert!(level <= MAX_DEPTH, "BH hash prefix collision too deep");
            let rd = BarnesHut::digit(res_hash, level);
            let md = BarnesHut::digit(self.hash, level);
            if rd != md {
                stores.push((NODES.field(fresh, rd), resident));
                stores.push((NODES.field(fresh, md), body_tag(self.body)));
                break;
            }
            // Shared digit: chain another private node.
            let deeper = BarnesHut::pool_base(self.body) + self.next_alloc;
            self.next_alloc += 1;
            stores.push((NODES.field(fresh, rd), NODES.at(deeper).0));
            fresh = deeper;
            level += 1;
        }
        // The externally visible link is issued last.
        let d = BarnesHut::digit(self.hash, self.level);
        stores.push((NODES.field(self.node, d), NODES.at(first_fresh).0));
        // `pending` is drained with pop(), so reverse to emit in order.
        stores.reverse();
        self.pending = stores;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_workload_round_robin, run_workload_sequential};

    #[test]
    fn tm_sequential_builds_valid_tree() {
        let w = BarnesHut::new(64, 33);
        run_workload_sequential(&w, SyncMode::Tm);
    }

    #[test]
    fn lock_sequential_builds_valid_tree() {
        let w = BarnesHut::new(64, 33);
        run_workload_sequential(&w, SyncMode::FgLock);
    }

    #[test]
    fn round_robin_interleavings() {
        let w = BarnesHut::new(48, 5);
        run_workload_round_robin(&w, SyncMode::Tm);
        run_workload_round_robin(&w, SyncMode::FgLock);
    }

    #[test]
    fn digits_cover_range() {
        let w = BarnesHut::new(4, 1);
        let h = w.pos_hash(2);
        for l in 0..MAX_DEPTH {
            assert!(BarnesHut::digit(h, l) < 8);
        }
    }

    #[test]
    fn checker_rejects_duplicate_body() {
        let w = BarnesHut::new(8, 9);
        let mut mem = run_workload_sequential(&w, SyncMode::Tm);
        // Duplicate a root body slot into an empty one; the checker must
        // flag it as a duplicate or as misfiled.
        let tag = (0..8u64)
            .map(|c| mem.get(NODES.field(0, c).0))
            .find(|&v| is_body(v));
        if let Some(tag) = tag {
            let empty = (0..8u64)
                .find(|&c| mem.get(NODES.field(0, c).0) == 0)
                .expect("root has an empty slot");
            mem.set(NODES.field(0, empty).0, tag);
            assert!(w.check(&|a| mem.get(a.0)).is_err());
        }
    }
}
