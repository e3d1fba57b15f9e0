//! Test-only reference model and the property tests that hold the cache to
//! it.
//!
//! [`ReferenceCache`] is the clock-stamped LRU the simulator used before its
//! sets became recency-ordered tag slices: every line carries a `last_use`
//! stamp, a hit restamps it, and a miss fills an invalid way or evicts the
//! smallest stamp. Its replacement-state equality sorts each set's valid
//! lines by stamp. [`Cache`] must agree with it access by access, and the
//! strided walks of both front ends must agree with their per-access loops.

use crate::cache::{AccessKind, Cache, CacheConfig, CacheStats};
use crate::hierarchy::{HierarchyConfig, MemoryHierarchy};
use crate::prefetch::PrefetchingHierarchy;
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    valid: bool,
    last_use: u64,
}

/// The clock-stamped LRU reference.
#[derive(Clone, Debug)]
struct ReferenceCache {
    sets: Vec<Vec<Line>>,
    clock: u64,
    stats: CacheStats,
    line_shift: u32,
}

impl ReferenceCache {
    fn new(config: CacheConfig) -> Self {
        let empty = Line {
            tag: 0,
            valid: false,
            last_use: 0,
        };
        Self {
            sets: vec![vec![empty; config.associativity]; config.num_sets()],
            clock: 0,
            stats: CacheStats::default(),
            line_shift: config.line_bytes.trailing_zeros(),
        }
    }

    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.line_shift;
        let num_sets = self.sets.len() as u64;
        ((block % num_sets) as usize, block / num_sets)
    }

    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let (idx, tag) = self.index_tag(addr);
        let set = &mut self.sets[idx];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_use = self.clock;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let victim = match set.iter().position(|l| !l.valid) {
            Some(pos) => pos,
            None => {
                self.stats.evictions += 1;
                (0..set.len())
                    .min_by_key(|&w| set[w].last_use)
                    .expect("associativity >= 1")
            }
        };
        set[victim] = Line {
            tag,
            valid: true,
            last_use: self.clock,
        };
        false
    }

    fn probe(&self, addr: u64) -> bool {
        let (idx, tag) = self.index_tag(addr);
        self.sets[idx].iter().any(|l| l.valid && l.tag == tag)
    }

    fn invalidate_all(&mut self) {
        for line in self.sets.iter_mut().flatten() {
            line.valid = false;
        }
    }

    /// Per set: the valid tags sorted by recency, compared as sequences.
    fn replacement_state_eq(&self, other: &ReferenceCache) -> bool {
        let canon = |set: &[Line]| {
            let mut v: Vec<(u64, u64)> = set
                .iter()
                .filter(|l| l.valid)
                .map(|l| (l.last_use, l.tag))
                .collect();
            v.sort_unstable();
            v.into_iter().map(|(_, tag)| tag).collect::<Vec<_>>()
        };
        self.sets
            .iter()
            .zip(&other.sets)
            .all(|(a, b)| canon(a) == canon(b))
    }
}

/// xorshift64: the address streams below are pure functions of the seed.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// A mixed stream over `span` bytes: mostly short runs of small strides
    /// (repeat hits and sequential lines), sometimes random jumps.
    fn addrs(&mut self, len: usize, span: u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(len);
        let mut a = self.below(span);
        while out.len() < len {
            match self.below(4) {
                0 => a = self.below(span),
                _ => a = (a + self.below(48)) % span,
            }
            out.push(a);
        }
        out
    }
}

/// Direct-mapped, 2-way, 16-way and a non-power-of-two set count (3 sets).
fn geometries() -> [CacheConfig; 4] {
    let c = |size_bytes, line_bytes, associativity| CacheConfig {
        size_bytes,
        line_bytes,
        associativity,
    };
    [c(512, 32, 1), c(512, 32, 2), c(2048, 16, 16), c(768, 64, 4)]
}

/// Hierarchies whose L1 has several sets, a single set (so a prefetch can
/// displace the line just used), or a single line, and one whose levels
/// have different line sizes.
fn hierarchies() -> [HierarchyConfig; 4] {
    let c = |size_bytes, line_bytes, associativity| CacheConfig {
        size_bytes,
        line_bytes,
        associativity,
    };
    let h = |l1, l2| HierarchyConfig {
        l1,
        l2,
        l1_hit_cycles: 3,
        l2_hit_cycles: 12,
        dram_cycles: 200,
    };
    [
        h(c(256, 32, 2), c(2048, 32, 4)),
        h(c(64, 32, 2), c(1024, 32, 16)),
        h(c(32, 32, 1), c(512, 32, 2)),
        h(c(256, 16, 2), c(1536, 64, 8)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_matches_the_clock_stamped_lru(seed in 0u64..u64::MAX) {
        let mut s = Stream::new(seed);
        for config in geometries() {
            let span = 4 * config.size_bytes as u64;
            let mut cache = Cache::new(config);
            let mut reference = ReferenceCache::new(config);
            for (k, addr) in s.addrs(3000, span).into_iter().enumerate() {
                let kind = if k % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
                prop_assert_eq!(cache.access(addr, kind), reference.access(addr));
                prop_assert_eq!(cache.stats(), reference.stats);
                let probe = s.below(span);
                prop_assert_eq!(cache.probe(probe), reference.probe(probe));
                if s.below(1000) == 0 {
                    cache.invalidate_all();
                    reference.invalidate_all();
                }
            }
        }
    }

    #[test]
    fn replacement_state_eq_agrees_with_the_reference(seed in 0u64..u64::MAX) {
        // Two caches fed different prefixes and then one shared suffix:
        // their states start apart and converge as the suffix refills each
        // set, so both verdicts occur.
        let mut s = Stream::new(seed);
        let mut verdicts = [0u32; 2];
        for config in geometries() {
            let span = 2 * config.size_bytes as u64;
            let (mut a, mut b) = (Cache::new(config), Cache::new(config));
            let (mut ra, mut rb) = (ReferenceCache::new(config), ReferenceCache::new(config));
            for addr in s.addrs(200, span) {
                a.access(addr, AccessKind::Read);
                ra.access(addr);
            }
            for addr in s.addrs(300, span) {
                b.access(addr, AccessKind::Read);
                rb.access(addr);
            }
            for addr in s.addrs(2000, span) {
                a.access(addr, AccessKind::Read);
                b.access(addr, AccessKind::Read);
                ra.access(addr);
                rb.access(addr);
                let eq = a.replacement_state_eq(&b);
                prop_assert_eq!(eq, ra.replacement_state_eq(&rb));
                verdicts[usize::from(eq)] += 1;
            }
        }
        prop_assert!(verdicts[0] > 0 && verdicts[1] > 0, "verdicts {verdicts:?}");
    }

    #[test]
    fn access_strided_matches_the_per_access_loop(seed in 0u64..u64::MAX) {
        let mut s = Stream::new(seed);
        for config in hierarchies() {
            let line = config.l1.line_bytes as u64;
            let span = 4 * config.l2.size_bytes as u64;
            let (mut plain, mut pf) = (
                MemoryHierarchy::new(config),
                PrefetchingHierarchy::new(config),
            );
            for _ in 0..40 {
                // Warm both copies of each front end with the same stream.
                let warm = s.below(60) as usize;
                for addr in s.addrs(warm, span) {
                    plain.access(addr, AccessKind::Read);
                    pf.access(addr, AccessKind::Read);
                }
                let stride = match s.below(8) {
                    0 => 0,
                    1 => 1 + s.below(line),
                    2 => line,
                    3 => line + 1 + s.below(3 * line),
                    4 => 24,
                    5 => 8,
                    _ => s.below(2 * line),
                };
                let count = match s.below(6) {
                    0 => 0,
                    1 => 1,
                    _ => s.below(300),
                };
                // Unaligned bases, including one near the top of the address
                // space so the stream wraps.
                let base = match s.below(10) {
                    0 => u64::MAX - s.below(2 * line),
                    _ => s.below(span),
                };
                let kind = if s.below(2) == 0 { AccessKind::Read } else { AccessKind::Write };
                let addr = |k: u64| base.wrapping_add(k.wrapping_mul(stride));

                let mut looped = plain.clone();
                let want: u64 = (0..count).map(|k| looped.access(addr(k), kind)).sum();
                prop_assert_eq!(plain.access_strided(base, stride, count, kind), want);
                let (a, b) = (plain.stats(), looped.stats());
                prop_assert_eq!((a.l1, a.l2, a.total_cycles, a.accesses),
                    (b.l1, b.l2, b.total_cycles, b.accesses));
                prop_assert!(plain.replay_state_eq(&looped));

                let mut looped = pf.clone();
                let want: u64 = (0..count).map(|k| looped.access(addr(k), kind)).sum();
                prop_assert_eq!(pf.access_strided(base, stride, count, kind), want);
                let (a, b) = (pf.inner().stats(), looped.inner().stats());
                prop_assert_eq!((a.l1, a.l2, a.total_cycles, a.accesses),
                    (b.l1, b.l2, b.total_cycles, b.accesses));
                let (a, b) = (pf.prefetch_stats(), looped.prefetch_stats());
                prop_assert_eq!((a.issued, a.triggers), (b.issued, b.triggers));
                prop_assert!(pf.replay_state_eq(&looped));
            }
        }
    }
}

#[test]
fn prefetch_into_a_one_line_l1_declines_the_bulk_hits() {
    // L1 holds one line, so the prefetch of line L+1 evicts line L and the
    // next same-line reference misses: the walk must replay it.
    let config = hierarchies()[2];
    let mut walked = PrefetchingHierarchy::new(config);
    let mut looped = walked.clone();
    let cycles = walked.access_strided(0, 8, 16, AccessKind::Read);
    let want: u64 = (0..16)
        .map(|k| looped.access(8 * k, AccessKind::Read))
        .sum();
    assert_eq!(cycles, want);
    assert!(walked.prefetch_stats().issued > 0);
    assert!(
        walked.inner().stats().l1.misses > 2,
        "prefetches displace the demand line"
    );
}
