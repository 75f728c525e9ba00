//! Set-associative cache models with true-LRU replacement.


/// Outcome of one cache access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Access {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled.
    Miss,
}

impl Access {
    /// `true` for [`Access::Miss`].
    #[must_use]
    pub fn is_miss(self) -> bool {
        matches!(self, Access::Miss)
    }
}

/// Geometry of one cache level.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Cache-line size in bytes (power of two).
    pub line_size: usize,
}

impl CacheConfig {
    /// Geometry of an i7-class 48 KiB, 12-way L1 data cache.
    #[must_use]
    pub fn l1d() -> Self {
        Self { capacity: 48 * 1024, ways: 12, line_size: 64 }
    }

    /// Geometry of an i7-class 32 KiB, 8-way L1 instruction cache.
    #[must_use]
    pub fn l1i() -> Self {
        Self { capacity: 32 * 1024, ways: 8, line_size: 64 }
    }

    /// Geometry of an i7-class 1.25 MiB, 20-way private L2.
    #[must_use]
    pub fn l2() -> Self {
        Self { capacity: 1280 * 1024, ways: 20, line_size: 64 }
    }

    /// Geometry of an i7-class 12 MiB, 12-way shared LLC.
    #[must_use]
    pub fn llc() -> Self {
        Self { capacity: 12 * 1024 * 1024, ways: 12, line_size: 64 }
    }

    /// The same geometry scaled down by `factor` (capacity divided,
    /// associativity and line size kept) — used for scaled-down simulation
    /// where workload footprints shrink by the same factor so that
    /// capacity pressure and reuse dynamics appear within short simulated
    /// slices.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero or does not divide the capacity into a
    /// valid geometry (checked on use in [`Cache::new`]).
    #[must_use]
    pub fn scaled(self, factor: usize) -> Self {
        assert!(factor > 0, "scale factor must be positive");
        Self { capacity: self.capacity / factor, ..self }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`Cache::new`]).
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(self.line_size.is_power_of_two() && self.line_size > 0);
        assert!(self.ways > 0);
        let lines = self.capacity / self.line_size;
        assert!(lines >= self.ways, "capacity too small for associativity");
        let sets = lines / self.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// One set-associative cache level with true-LRU replacement.
///
/// Each set keeps its tags in recency order, most recently used first,
/// so the LRU victim is always the set's last slot. A hit moves the tag
/// to the front and a miss shifts the set down by one and writes the new
/// tag in front. Empty ways hold `u64::MAX` and sit behind every valid
/// tag, so a miss fills an empty way before it evicts anything.
///
/// # Example
///
/// ```
/// use hmd_sim::cache::{Access, Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { capacity: 1024, ways: 2, line_size: 64 });
/// assert_eq!(c.access(0x40), Access::Miss);
/// assert_eq!(c.access(0x40), Access::Hit);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_size)`: address → line index.
    line_shift: u32,
    /// `log2(sets)`: line index → tag.
    set_shift: u32,
    /// `sets - 1`: line index → set.
    set_mask: u64,
    /// `tags[set * ways..][..ways]`, most recently used first;
    /// `u64::MAX` marks an empty way.
    tags: Vec<u64>,
}

impl Cache {
    /// Builds a cache from its geometry.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a positive power of two, ways is
    /// zero, capacity is smaller than one full set, or the implied set
    /// count is not a power of two.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Self {
            config,
            line_shift: config.line_size.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: sets as u64 - 1,
            tags: vec![u64::MAX; sets * config.ways],
        }
    }

    /// The configured geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Looks up `addr`, filling the line (with LRU eviction) on a miss.
    #[inline]
    pub fn access(&mut self, addr: u64) -> Access {
        let line = addr >> self.line_shift;
        let ways = self.config.ways;
        let base = (line & self.set_mask) as usize * ways;
        touch(&mut self.tags[base..base + ways], line >> self.set_shift)
    }

    /// Invalidates every line (e.g. on container context switch).
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
    }
}

/// One access to a recency-ordered set: a hit moves `tag` to the front,
/// a miss evicts the last (least recently used) slot and puts `tag` in
/// front.
#[inline]
fn touch(set: &mut [u64], tag: u64) -> Access {
    let (end, outcome) = match set.iter().position(|&t| t == tag) {
        Some(way) => (way, Access::Hit),
        None => (set.len() - 1, Access::Miss),
    };
    set.copy_within(..end, 1);
    set[0] = tag;
    outcome
}

/// A fully-associative TLB with LRU replacement over 4 KiB pages.
///
/// Pages are kept in recency order like one [`Cache`] set.
#[derive(Clone, Debug)]
pub struct Tlb {
    /// Most recently used first; `u64::MAX` marks an empty entry.
    pages: Vec<u64>,
}

impl Tlb {
    /// Page size modeled by the TLB.
    pub const PAGE_SIZE: u64 = 4096;

    /// A TLB with the given number of entries.
    ///
    /// # Panics
    ///
    /// Panics for zero entries.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        Self { pages: vec![u64::MAX; entries] }
    }

    /// Translates `addr`, filling the entry on a miss.
    #[inline]
    pub fn access(&mut self, addr: u64) -> Access {
        touch(&mut self.pages, addr / Self::PAGE_SIZE)
    }

    /// Invalidates every entry.
    pub fn flush(&mut self) {
        self.pages.fill(u64::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_util::prop_tests;
    use hmd_util::proptest_lite::collection;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B lines
        Cache::new(CacheConfig { capacity: 512, ways: 2, line_size: 64 })
    }

    fn misses(outcomes: impl IntoIterator<Item = Access>) -> usize {
        outcomes.into_iter().filter(|a| a.is_miss()).count()
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        let outcomes: Vec<Access> = [0, 0, 63, 64].map(|a| c.access(a)).to_vec();
        // same line twice more, then the next line
        assert_eq!(outcomes, [Access::Miss, Access::Hit, Access::Hit, Access::Miss]);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // set 0 holds lines whose line-index ≡ 0 (mod 4): addresses 0, 1024, 2048
        assert!(c.access(0).is_miss());
        assert!(c.access(1024).is_miss());
        // touch 0 so 1024 becomes LRU
        assert_eq!(c.access(0), Access::Hit);
        assert!(c.access(2048).is_miss()); // evicts 1024
        assert_eq!(c.access(0), Access::Hit); // still resident
        assert!(c.access(1024).is_miss()); // was evicted
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut small = Cache::new(CacheConfig { capacity: 1024, ways: 2, line_size: 64 });
        // cyclic scan over 4 KiB > 1 KiB capacity → every access misses
        for _ in 0..8 {
            assert_eq!(misses((0..64u64).map(|line| small.access(line * 64))), 64);
        }
    }

    #[test]
    fn working_set_within_capacity_hits() {
        let mut c = Cache::new(CacheConfig::l1d());
        // 128 lines fit: only the first pass misses
        assert_eq!(misses((0..128u64).map(|line| c.access(line * 64))), 128);
        for _ in 0..3 {
            assert_eq!(misses((0..128u64).map(|line| c.access(line * 64))), 0);
        }
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert!(c.access(0).is_miss());
    }

    #[test]
    fn i7_geometries_are_valid() {
        for cfg in [CacheConfig::l1d(), CacheConfig::l1i(), CacheConfig::l2(), CacheConfig::llc()]
        {
            let c = Cache::new(cfg);
            assert!(c.config().sets() > 0);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = Cache::new(CacheConfig { capacity: 960, ways: 2, line_size: 64 });
    }

    #[test]
    fn tlb_hit_miss_and_lru() {
        let mut t = Tlb::new(2);
        assert!(t.access(0).is_miss());
        assert_eq!(t.access(100), Access::Hit); // same page
        assert!(t.access(4096).is_miss());
        assert_eq!(t.access(0), Access::Hit);
        assert!(t.access(2 * 4096).is_miss()); // evicts page 1 (LRU)
        assert!(t.access(4096).is_miss());
    }

    #[test]
    fn tlb_flush_invalidates() {
        let mut t = Tlb::new(4);
        t.access(0);
        t.flush();
        assert!(t.access(0).is_miss());
    }

    /// The reference model: true LRU by per-way access stamps and a
    /// minimum-stamp victim scan, indexed by division.
    struct StampLru {
        sets: u64,
        ways: usize,
        line_size: u64,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
    }

    impl StampLru {
        fn new(sets: usize, ways: usize, line_size: u64) -> Self {
            Self {
                sets: sets as u64,
                ways,
                line_size,
                tags: vec![u64::MAX; sets * ways],
                stamps: vec![0; sets * ways],
                clock: 0,
            }
        }

        fn access(&mut self, addr: u64) -> Access {
            self.clock += 1;
            let line = addr / self.line_size;
            let base = (line % self.sets) as usize * self.ways;
            let tag = line / self.sets;
            let range = base..base + self.ways;
            if let Some(way) = self.tags[range.clone()].iter().position(|&t| t == tag) {
                self.stamps[base + way] = self.clock;
                return Access::Hit;
            }
            let lru = range.min_by_key(|&i| self.stamps[i]).expect("ways > 0");
            self.tags[lru] = tag;
            self.stamps[lru] = self.clock;
            Access::Miss
        }

        fn flush(&mut self) {
            self.tags.fill(u64::MAX);
            self.stamps.fill(0);
        }
    }

    /// An op stream over `lines` distinct lines `stride` lines apart: a
    /// stride equal to the set count piles every line into one set, a
    /// stride of 1 spreads them; [`FLUSH`] flushes.
    const FLUSH: u64 = 64;

    fn addr(op: u64, stride: u64, unit: u64) -> u64 {
        // a high base and an in-line offset exercise the index arithmetic
        0x5600_0000_0000 + op * stride * unit + (op * 7) % unit
    }

    fn geometries() -> [CacheConfig; 5] {
        let d = crate::machine::MachineConfig::default();
        [d.l1d, d.l1i, d.l2, d.llc, CacheConfig { capacity: 512, ways: 2, line_size: 64 }]
    }

    prop_tests! {
        cases = 48;

        /// The recency-ordered cache makes the same hit/miss sequence as
        /// stamp-based true LRU on every scaled default geometry.
        fn cache_matches_stamp_lru(
            stride in 1u64..=1024,
            ops in collection::vec(0u64..=FLUSH, 1..600),
        ) {
            for cfg in geometries() {
                let mut fast = Cache::new(cfg);
                let mut oracle = StampLru::new(cfg.sets(), cfg.ways, cfg.line_size as u64);
                let unit = cfg.line_size as u64;
                for &op in &ops {
                    if op == FLUSH {
                        fast.flush();
                        oracle.flush();
                    } else {
                        let a = addr(op, stride, unit);
                        assert_eq!(fast.access(a), oracle.access(a), "{cfg:?} op {op}");
                    }
                }
            }
        }

        /// The recency-ordered TLB makes the same hit/miss sequence as a
        /// one-set stamp-based LRU.
        fn tlb_matches_stamp_lru(
            stride in 1u64..=4,
            ops in collection::vec(0u64..=FLUSH, 1..600),
        ) {
            let d = crate::machine::MachineConfig::default();
            for entries in [d.dtlb_entries, d.itlb_entries, 2] {
                let mut fast = Tlb::new(entries);
                let mut oracle = StampLru::new(1, entries, Tlb::PAGE_SIZE);
                for &op in &ops {
                    if op == FLUSH {
                        fast.flush();
                        oracle.flush();
                    } else {
                        let a = addr(op % 24, stride, Tlb::PAGE_SIZE);
                        assert_eq!(fast.access(a), oracle.access(a), "{entries} entries op {op}");
                    }
                }
            }
        }
    }
}
