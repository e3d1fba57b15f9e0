//! Two-level cache hierarchy with per-level latencies.

use crate::cache::{AccessKind, Cache, CacheConfig, CacheStats};

/// Latency and geometry for a two-level hierarchy backed by DRAM.
#[derive(Clone, Copy, Debug)]
pub struct HierarchyConfig {
    pub l1: CacheConfig,
    pub l2: CacheConfig,
    /// Cycles for an L1 hit (load-to-use).
    pub l1_hit_cycles: u64,
    /// Additional cycles when the access hits in L2.
    pub l2_hit_cycles: u64,
    /// Additional cycles when the access goes to memory.
    pub dram_cycles: u64,
}

impl HierarchyConfig {
    /// A 2.2 GHz Opteron-class memory system (K8): 3-cycle L1, ~12-cycle L2,
    /// ~200-cycle DRAM round trip.
    pub fn opteron() -> Self {
        Self {
            l1: CacheConfig::opteron_l1d(),
            l2: CacheConfig::opteron_l2(),
            l1_hit_cycles: 3,
            l2_hit_cycles: 12,
            dram_cycles: 200,
        }
    }
}

/// Aggregate statistics for the hierarchy.
#[derive(Clone, Copy, Debug, Default)]
pub struct HierarchyStats {
    pub l1: CacheStats,
    pub l2: CacheStats,
    pub total_cycles: u64,
    pub accesses: u64,
}

impl HierarchyStats {
    /// Average cycles per access (0 if no accesses).
    pub fn avg_cycles(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.accesses as f64
        }
    }
}

/// An inclusive two-level data-cache hierarchy.
///
/// Misses in L1 consult L2; misses in L2 go to DRAM and fill both levels.
/// Latencies are additive along the miss path, matching how a blocking load
/// would see them.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    total_cycles: u64,
    accesses: u64,
}

impl MemoryHierarchy {
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            config,
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            total_cycles: 0,
            accesses: 0,
        }
    }

    pub fn opteron() -> Self {
        Self::new(HierarchyConfig::opteron())
    }

    pub fn config(&self) -> HierarchyConfig {
        self.config
    }

    /// Replay one memory reference; returns the cycles it costs.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> u64 {
        self.accesses += 1;
        let mut cycles = self.config.l1_hit_cycles;
        if !self.l1.access(addr, kind) {
            cycles += self.config.l2_hit_cycles;
            if !self.l2.access(addr, kind) {
                cycles += self.config.dram_cycles;
            }
        }
        self.total_cycles += cycles;
        cycles
    }

    /// Replay `count` references at `base + k·stride` for `k` in
    /// `0..count` (wrapping), exactly as a loop of [`access`] would, and
    /// return their cycles.
    ///
    /// The stream is walked line by line: each L1 line's first reference
    /// is replayed, and the same-line references that follow it are
    /// charged as bulk L1 hits.
    ///
    /// [`access`]: MemoryHierarchy::access
    pub fn access_strided(&mut self, base: u64, stride: u64, count: u64, kind: AccessKind) -> u64 {
        let line_bytes = self.config.l1.line_bytes as u64;
        walk_strided(
            self,
            line_bytes,
            (base, stride, count),
            |h, addr| h.access(addr, kind),
            MemoryHierarchy::repeat_hits,
        )
    }

    /// If `addr`'s line is the most recent in its L1 set, charge `n` more
    /// references to it as L1 hits and return their cycles. Such hits
    /// touch neither L2 nor any replacement state, so charging them in
    /// bulk is exactly replaying them. Otherwise charge nothing.
    pub(crate) fn repeat_hits(&mut self, addr: u64, n: u64) -> Option<u64> {
        if !self.l1.is_most_recent(addr) {
            return None;
        }
        self.l1.count_repeat_hits(n);
        self.accesses += n;
        let cycles = n * self.config.l1_hit_cycles;
        self.total_cycles += cycles;
        Some(cycles)
    }

    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1.stats(),
            l2: self.l2.stats(),
            total_cycles: self.total_cycles,
            accesses: self.accesses,
        }
    }

    pub fn reset(&mut self) {
        self.l1.invalidate_all();
        self.l2.invalidate_all();
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.total_cycles = 0;
        self.accesses = 0;
    }

    /// Whether the hierarchy is exactly as [`reset`](MemoryHierarchy::reset)
    /// leaves it: no valid line and every statistic zero. Two such
    /// hierarchies of one configuration are equal in every field, so a
    /// replay recorded from one can be installed whole on the other.
    pub fn is_reset(&self) -> bool {
        let zero = CacheStats::default();
        self.l1.is_empty()
            && self.l2.is_empty()
            && self.l1.stats() == zero
            && self.l2.stats() == zero
            && self.total_cycles == 0
            && self.accesses == 0
    }

    /// Timing-normalized state equality: true iff the two hierarchies return
    /// the same cycle count for — and evolve identically under — every
    /// possible future access sequence. Statistics counters are ignored;
    /// they record history, not future behavior.
    ///
    /// This is what makes replay memoization sound: if a hierarchy is in a
    /// state `replay_state_eq` to one it was in before, replaying the same
    /// address stream must cost the same cycles and land in an equivalent
    /// state, so the replay can be skipped and its recorded effect applied
    /// via [`apply_replay`](MemoryHierarchy::apply_replay).
    pub fn replay_state_eq(&self, other: &MemoryHierarchy) -> bool {
        self.l1.replacement_state_eq(&other.l1) && self.l2.replacement_state_eq(&other.l2)
    }

    /// Skip a replay whose outcome is already known: install the tag/LRU
    /// state of `exit` and advance the statistics counters by the
    /// `entry`→`exit` delta (instead of rewinding them to `exit`'s absolute
    /// values). Caller contract: `self.replay_state_eq(entry)` holds and
    /// `exit` was produced from `entry` by the access sequence being skipped.
    pub fn apply_replay(&mut self, entry: &MemoryHierarchy, exit: &MemoryHierarchy) {
        debug_assert!(self.replay_state_eq(entry), "memoized entry state mismatch");
        let own = self.stats();
        let e = entry.stats();
        let x = exit.stats();
        self.l1.clone_from(&exit.l1);
        self.l2.clone_from(&exit.l2);
        let delta = |mine: CacheStats, from: CacheStats, to: CacheStats| CacheStats {
            hits: mine.hits + (to.hits - from.hits),
            misses: mine.misses + (to.misses - from.misses),
            evictions: mine.evictions + (to.evictions - from.evictions),
        };
        self.l1.set_stats(delta(own.l1, e.l1, x.l1));
        self.l2.set_stats(delta(own.l2, e.l2, x.l2));
        self.total_cycles = own.total_cycles + (x.total_cycles - e.total_cycles);
        self.accesses = own.accesses + (x.accesses - e.accesses);
    }
}

/// The line walk behind both front ends' `access_strided`.
///
/// `stream` is `(base, stride, count)`. Each reference that starts a run on
/// an L1 line of `line_bytes` goes through `access`; the rest of the run
/// (the references that stay on that line) goes to `repeat` in one call,
/// which either charges them all and returns their cycles or declines —
/// then the walk continues one reference at a time.
pub(crate) fn walk_strided<H>(
    h: &mut H,
    line_bytes: u64,
    (base, stride, count): (u64, u64, u64),
    mut access: impl FnMut(&mut H, u64) -> u64,
    mut repeat: impl FnMut(&mut H, u64, u64) -> Option<u64>,
) -> u64 {
    let mut total = 0;
    let mut k = 0;
    while k < count {
        let addr = base.wrapping_add(k.wrapping_mul(stride));
        total += access(h, addr);
        k += 1;
        let left = count - k;
        // References after this one that stay on its line: at most
        // `line_bytes` of them, counted without a divide.
        let same = if stride == 0 {
            left
        } else {
            let mut room = (addr | (line_bytes - 1)) - addr;
            let mut same = 0;
            while same < left && room >= stride {
                room -= stride;
                same += 1;
            }
            same
        };
        if same > 0 {
            if let Some(cycles) = repeat(h, addr, same) {
                total += cycles;
                k += same;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig {
            l1: CacheConfig {
                size_bytes: 256,
                line_bytes: 32,
                associativity: 2,
            },
            l2: CacheConfig {
                size_bytes: 1024,
                line_bytes: 32,
                associativity: 4,
            },
            l1_hit_cycles: 1,
            l2_hit_cycles: 10,
            dram_cycles: 100,
        })
    }

    #[test]
    fn latency_additive_along_miss_path() {
        let mut h = tiny_hierarchy();
        // Cold: misses both levels.
        assert_eq!(h.access(0, AccessKind::Read), 111);
        // Warm in L1.
        assert_eq!(h.access(0, AccessKind::Read), 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = tiny_hierarchy();
        // L1 has 4 sets * 2 ways; three lines mapping to L1 set 0 with
        // stride l1_sets*line = 128 force an L1 eviction while all three
        // still fit in the larger L2.
        h.access(0, AccessKind::Read);
        h.access(128, AccessKind::Read);
        h.access(256, AccessKind::Read); // evicts line 0 from L1
        let c = h.access(0, AccessKind::Read); // L1 miss, L2 hit
        assert_eq!(c, 11);
    }

    #[test]
    fn stats_track_totals() {
        let mut h = tiny_hierarchy();
        h.access(0, AccessKind::Read);
        h.access(0, AccessKind::Write);
        let s = h.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.total_cycles, 112);
        assert!((s.avg_cycles() - 56.0).abs() < 1e-12);
    }

    #[test]
    fn access_strided_counts_every_reference() {
        let mut h = tiny_hierarchy();
        // Eight references on two lines: two cold misses, six repeat hits.
        assert_eq!(h.access_strided(0, 8, 8, AccessKind::Read), 2 * 111 + 6);
        assert_eq!(h.stats().accesses, 8);
        assert_eq!(h.stats().l1.hits, 6);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut h = tiny_hierarchy();
        h.access(0, AccessKind::Read);
        h.reset();
        assert_eq!(h.stats().accesses, 0);
        assert_eq!(h.access(0, AccessKind::Read), 111, "cold again");
    }

    #[test]
    fn is_reset_holds_exactly_in_the_reset_state() {
        let mut h = tiny_hierarchy();
        assert!(h.is_reset(), "a new hierarchy starts reset");
        h.access(0, AccessKind::Read);
        assert!(!h.is_reset());
        h.reset();
        assert!(h.is_reset());
    }

    #[test]
    fn apply_replay_is_indistinguishable_from_real_replay() {
        // An ascending scan whose footprint exactly fills L2: after the cold
        // pass the hierarchy state is periodic, so pass k's entry state is
        // replay-equivalent to pass k+1's.
        let scan = |h: &mut MemoryHierarchy| {
            let mut cycles = 0;
            for a in (0..1024u64).step_by(8) {
                cycles += h.access(a, AccessKind::Read);
            }
            cycles
        };
        let mut real = tiny_hierarchy();
        scan(&mut real); // cold pass
        let entry = real.clone();
        let recorded = scan(&mut real);
        let exit = real.clone();
        assert!(
            real.replay_state_eq(&entry),
            "steady state must be periodic for this test to exercise a hit"
        );
        assert!(!real.replay_state_eq(&tiny_hierarchy()));

        // Memoized path: skip the next pass. Real path: actually run it.
        let mut memo = exit.clone();
        memo.apply_replay(&entry, &exit);
        let replayed = scan(&mut real);
        assert_eq!(recorded, replayed, "periodic state implies periodic cost");
        assert!(memo.replay_state_eq(&real));
        let (m, r) = (memo.stats(), real.stats());
        assert_eq!(m.l1, r.l1);
        assert_eq!(m.l2, r.l2);
        assert_eq!(m.total_cycles, r.total_cycles);
        assert_eq!(m.accesses, r.accesses);

        // Future accesses cost the same from the memoized state.
        for a in [0u64, 8, 512, 4096, 64, 1024] {
            assert_eq!(
                memo.access(a, AccessKind::Read),
                real.access(a, AccessKind::Read)
            );
        }
    }

    #[test]
    fn streaming_large_footprint_costs_more_per_access_than_small() {
        // The Figure 9 mechanism in miniature: a working set inside L1 is
        // cheap per access; one far beyond L2 pays DRAM latency.
        let mut h = tiny_hierarchy();
        for _ in 0..4 {
            for a in (0..256u64).step_by(8) {
                h.access(a, AccessKind::Read);
            }
        }
        let small = h.stats().avg_cycles();

        let mut h = tiny_hierarchy();
        for _ in 0..4 {
            for a in (0..64 * 1024u64).step_by(8) {
                h.access(a, AccessKind::Read);
            }
        }
        let large = h.stats().avg_cycles();
        assert!(
            large > 2.0 * small,
            "large footprint ({large:.2} cyc) should cost >> small ({small:.2} cyc)"
        );
    }
}
