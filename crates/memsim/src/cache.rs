//! A single level of set-associative, LRU, write-allocate cache.
//!
//! Each set keeps its tags in recency order, so a hit is a short scan plus a
//! shift and LRU needs no clock (DESIGN.md §18).

/// Whether an access reads or writes. Both allocate a line on miss
/// (write-allocate, the Opteron K8's policy for its write-back caches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a multiple of `line_bytes * associativity`.
    pub size_bytes: usize,
    /// Line (block) size in bytes. Must be a power of two.
    pub line_bytes: usize,
    /// Number of ways per set.
    pub associativity: usize,
}

impl CacheConfig {
    /// 64 KB, 64 B lines, 2-way: the Opteron K8 L1 data cache.
    pub fn opteron_l1d() -> Self {
        Self {
            size_bytes: 64 * 1024,
            line_bytes: 64,
            associativity: 2,
        }
    }

    /// 1 MB, 64 B lines, 16-way: the Opteron K8 L2.
    pub fn opteron_l2() -> Self {
        Self {
            size_bytes: 1024 * 1024,
            line_bytes: 64,
            associativity: 16,
        }
    }

    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.associativity)
    }

    fn validate(&self) {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.associativity >= 1, "associativity must be >= 1");
        assert!(
            self.size_bytes
                .is_multiple_of(self.line_bytes * self.associativity),
            "capacity must be a multiple of line_bytes * associativity"
        );
        assert!(self.num_sets() >= 1, "cache must contain at least one set");
        assert!(
            self.line_bytes > 1 || self.num_sets() > 1,
            "a single set of 1-byte lines is not supported"
        );
    }
}

/// Hit/miss counters for one cache level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl CacheStats {
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// The tag of an empty way. Real tags never reach it: a tag is the block
/// number with the set bits removed, and validation rejects the one
/// geometry (1-byte lines in a single set) whose tags span all of `u64`.
const EMPTY: u64 = u64::MAX;

/// A set-associative LRU cache over a 64-bit byte address space.
///
/// Only presence is tracked (no data): the simulators compute values
/// functionally and use the cache purely for timing.
///
/// Each set is a slice of `ways` tags in recency order: most recent first,
/// empty ways (`EMPTY`) at the tail. A hit moves its tag to the front and
/// a miss shifts the set down one way, dropping the least recent tag. That
/// order is all LRU ever consults, so this storage is already the canonical
/// replacement state, and replacement-state equality is a slice compare.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    ways: usize,
    /// `num_sets × ways` tags, set after set.
    tags: Vec<u64>,
    stats: CacheStats,
    line_shift: u32,
    /// Power-of-two set counts split block numbers with a mask and a shift;
    /// any other count falls back to `%` and `/` by `num_sets`.
    pow2_sets: bool,
    set_mask: u64,
    set_shift: u32,
    num_sets: u64,
}

impl Cache {
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let num_sets = config.num_sets();
        Self {
            config,
            ways: config.associativity,
            tags: vec![EMPTY; num_sets * config.associativity],
            stats: CacheStats::default(),
            line_shift: config.line_bytes.trailing_zeros(),
            pow2_sets: num_sets.is_power_of_two(),
            set_mask: num_sets as u64 - 1,
            set_shift: num_sets.trailing_zeros(),
            num_sets: num_sets as u64,
        }
    }

    pub fn config(&self) -> CacheConfig {
        self.config
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Flush all lines (e.g. between experiment repetitions).
    pub fn invalidate_all(&mut self) {
        self.tags.fill(EMPTY);
    }

    /// Whether no line is valid, as [`Cache::invalidate_all`] leaves it.
    pub(crate) fn is_empty(&self) -> bool {
        self.tags.iter().all(|&t| t == EMPTY)
    }

    /// Set index and tag of `addr`'s line. The shift/mask split equals the
    /// `%`/`/` one whenever the set count is a power of two.
    #[inline]
    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.line_shift;
        if self.pow2_sets {
            ((block & self.set_mask) as usize, block >> self.set_shift)
        } else {
            ((block % self.num_sets) as usize, block / self.num_sets)
        }
    }

    #[inline]
    fn set(&self, idx: usize) -> &[u64] {
        &self.tags[idx * self.ways..(idx + 1) * self.ways]
    }

    /// Access one byte address. Returns `true` on hit. A miss allocates the
    /// line, evicting the LRU way if the set is full.
    #[inline]
    pub fn access(&mut self, addr: u64, _kind: AccessKind) -> bool {
        let (idx, tag) = self.index_tag(addr);
        let ways = self.ways;
        let set = &mut self.tags[idx * ways..(idx + 1) * ways];
        // The set's most recent line: a hit that leaves the order as it is.
        if set[0] == tag {
            self.stats.hits += 1;
            return true;
        }
        // Shift the more recent tags down one way over the hit (or, on a
        // miss, over the least recent way) and put `tag` in front.
        let mut prev = tag;
        for way in set.iter_mut() {
            let t = std::mem::replace(way, prev);
            if t == tag {
                self.stats.hits += 1;
                return true;
            }
            prev = t;
        }
        self.stats.misses += 1;
        if prev != EMPTY {
            self.stats.evictions += 1;
        }
        false
    }

    /// Is `addr`'s line the most recent in its set? A reference to such a
    /// line hits and changes no replacement state.
    #[inline]
    pub(crate) fn is_most_recent(&self, addr: u64) -> bool {
        let (idx, tag) = self.index_tag(addr);
        self.tags[idx * self.ways] == tag
    }

    /// Count `n` hits on a most-recent line (see [`Cache::is_most_recent`])
    /// without replaying them.
    #[inline]
    pub(crate) fn count_repeat_hits(&mut self, n: u64) {
        self.stats.hits += n;
    }

    /// Check for presence without updating LRU state or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let (idx, tag) = self.index_tag(addr);
        self.set(idx).contains(&tag)
    }

    /// Timing-normalized replacement-state equality: true iff the two caches
    /// respond identically (hit/miss outcome and LRU victim choice) to every
    /// possible future access sequence.
    ///
    /// The canonical per-set state is the sequence of valid tags ordered by
    /// recency plus the count of invalid ways — exactly how the sets are
    /// stored, so this is a slice compare.
    pub(crate) fn replacement_state_eq(&self, other: &Cache) -> bool {
        self.config == other.config && self.tags == other.tags
    }

    pub(crate) fn set_stats(&mut self, stats: CacheStats) {
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets * 2 ways * 16B lines = 128 B.
        Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            associativity: 2,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, AccessKind::Read));
        assert!(c.access(0, AccessKind::Read));
        assert!(c.access(15, AccessKind::Read), "same line");
        assert!(!c.access(16, AccessKind::Read), "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three distinct tags mapping to set 0 (stride = sets * line = 64).
        c.access(0, AccessKind::Read); // tag A
        c.access(64, AccessKind::Read); // tag B
        c.access(0, AccessKind::Read); // touch A: B is now LRU
        c.access(128, AccessKind::Read); // tag C evicts B
        assert!(c.probe(0), "A stays");
        assert!(!c.probe(64), "B evicted");
        assert!(c.probe(128), "C present");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn working_set_within_capacity_all_hits_on_second_pass() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            associativity: 4,
        });
        for addr in (0..1024u64).step_by(64) {
            c.access(addr, AccessKind::Read);
        }
        c.reset_stats();
        for addr in (0..1024u64).step_by(64) {
            assert!(c.access(addr, AccessKind::Read));
        }
        assert_eq!(c.stats().miss_rate(), 0.0);
    }

    #[test]
    fn working_set_exceeding_capacity_thrashes_on_streaming_pass() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            associativity: 1, // direct-mapped for deterministic thrash
        });
        // Touch 2x capacity repeatedly: every access in steady state misses.
        for _ in 0..3 {
            for addr in (0..2048u64).step_by(64) {
                c.access(addr, AccessKind::Read);
            }
        }
        assert!(
            c.stats().miss_rate() > 0.99,
            "streaming over 2x capacity should thrash: {:?}",
            c.stats()
        );
    }

    #[test]
    fn invalidate_clears_contents() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        assert!(c.probe(0));
        c.invalidate_all();
        assert!(!c.probe(0));
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        let before = c.stats();
        assert!(c.probe(0));
        assert!(!c.probe(4096));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn opteron_geometries_validate() {
        let l1 = Cache::new(CacheConfig::opteron_l1d());
        let l2 = Cache::new(CacheConfig::opteron_l2());
        assert_eq!(l1.config().num_sets(), 512);
        assert_eq!(l2.config().num_sets(), 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 24,
            associativity: 2,
        });
    }

    #[test]
    fn replacement_state_eq_ignores_absolute_clocks_and_stats() {
        let mut a = tiny();
        a.access(0, AccessKind::Read);
        a.access(64, AccessKind::Read);
        // Same tags in the same ways, same LRU order, but shifted clocks and
        // different hit/miss history.
        let mut b = tiny();
        b.access(0, AccessKind::Read);
        b.access(0, AccessKind::Read);
        b.access(64, AccessKind::Read);
        assert!(a.replacement_state_eq(&b));
        assert!(b.replacement_state_eq(&a));
        assert_ne!(a.stats(), b.stats(), "stats are deliberately ignored");
    }

    #[test]
    fn replacement_state_eq_sees_lru_order() {
        let mut a = tiny();
        a.access(0, AccessKind::Read);
        a.access(64, AccessKind::Read);
        // Same tags in the same ways but the opposite recency order: a future
        // conflict miss would evict different lines.
        let mut b = tiny();
        b.access(0, AccessKind::Read);
        b.access(64, AccessKind::Read);
        b.access(0, AccessKind::Read);
        assert!(!a.replacement_state_eq(&b));
        // And different contents are of course unequal.
        let mut c = tiny();
        c.access(0, AccessKind::Read);
        assert!(!a.replacement_state_eq(&c));
    }

    #[test]
    fn hits_never_exceed_accesses() {
        let mut c = tiny();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..10_000 {
            // xorshift address stream
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            c.access(x % 4096, AccessKind::Read);
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 10_000);
        assert!(s.evictions <= s.misses);
    }
}
