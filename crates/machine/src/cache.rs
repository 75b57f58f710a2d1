//! A set-associative cache with true-LRU replacement and configurable
//! insertion position (the mechanism behind non-temporal hints).

/// Geometry of one cache level.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

/// Where a filled line lands in its set's LRU stack.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum InsertPos {
    /// Most-recently-used: the normal fill.
    Mru,
    /// Least-recently-used: the next victim in its set (non-temporal
    /// insert policy).
    Lru,
}

/// Aggregate statistics for one cache.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Fills performed.
    pub fills: u64,
    /// Valid lines evicted by fills.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1]; 0 if no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Tag of an empty way. Line addresses must stay below it.
const INVALID: u64 = u64::MAX;

/// Replicates a byte into all eight lanes of a u64.
const LANES: u64 = 0x0101_0101_0101_0101;
/// High bit of each byte lane.
const HIGH: u64 = 0x8080_8080_8080_8080;

/// SWAR byte-equality: returns a mask with bit `0x80` set in every byte
/// lane where `word` equals `target` (the classic zero-byte trick over
/// `word ^ target`). Only lanes above a true match can be flagged
/// spuriously, so the lowest flagged lane is always a true match.
#[inline]
fn byte_eq_mask(word: u64, target: u64) -> u64 {
    let x = word ^ target;
    x.wrapping_sub(LANES) & !x & HIGH
}

/// u64 words of recency order per set: one byte lane per way.
const fn order_words(ways: usize) -> usize {
    ways.div_ceil(8)
}

/// u64 words per set block: the tags, the recency order, the LRU-insert
/// mask and the valid mask.
const fn stride_of(ways: usize) -> usize {
    ways + order_words(ways) + 2
}

/// One set-associative cache level, keyed by line address.
///
/// The cache stores *line addresses* (byte address divided by line size);
/// the hierarchy performs that division once.
///
/// All per-set state lives in one contiguous block of `meta` —
/// `[full tags | recency order | LRU-insert mask | valid mask]` — so a
/// set visit reads one short run of host memory. A lookup compares the
/// full tags (an empty way holds `INVALID`, which no line address
/// equals), and a fill takes the first invalid way from the lowest clear
/// bit of the valid mask.
///
/// Replacement is true LRU kept as a per-set *recency order*: one byte
/// per way, way indices listed from the MRU lane (lane 0) to the LRU
/// lane. A hit finds its way's lane with one SWAR search and shifts the
/// lanes in front of it back by one; the victim is read from the last
/// lane. A line inserted at [`InsertPos::Lru`] is not moved in the order
/// but marked in the set's *LRU-insert mask*; while any such line is
/// resident, the lowest-indexed one is the victim. That is the rule of a
/// per-way timestamp cache in which an LRU insert stamps 0 and the victim
/// is the lowest-indexed way with the smallest stamp, and the order and
/// mask reproduce its every choice.
///
/// [`Self::lookup`] and [`Self::lookup_or_fill`] run one set-visit body
/// given the level's way count, as a literal for the way counts the
/// shipped machine configs use (2, 4, 8 and 16), so the tag scan, the
/// promote and the victim choice unroll for each level. Other way counts
/// run the same body with the count read at run time.
#[derive(Clone, Debug)]
pub struct Cache {
    sets: usize,
    ways: usize,
    /// `sets - 1`, precomputed so indexing is a single mask.
    set_mask: usize,
    /// Per-set metadata blocks of `stride_of(ways)` words. Set `s`'s
    /// block holds the `ways` full tags (line address or `INVALID`),
    /// then the recency order (way indices, MRU lane first, 0xFF per
    /// padding lane), then the LRU-insert mask (bit `w` set while way
    /// `w` holds a line inserted at LRU and not touched since), then the
    /// valid mask (bit `w` set while way `w` holds a line).
    meta: Vec<u64>,
    stats: CacheStats,
}

/// One set's block seen with its way count. Every offset derives from
/// `ways`, so a view made with a literal way count compiles to a set
/// visit unrolled for that geometry, its bounds checks folded away.
///
/// The helpers are forced inline: left to the compiler, set-visit
/// helpers like these stayed out-of-line calls on every access, which
/// measured 6–9% slower end to end on the `perfbench` `solo` workload
/// (`perfbench_cache_hotpath_ab@solo` in `BENCH_interp.json`).
struct Set<'a> {
    ways: usize,
    block: &'a mut [u64],
}

impl Set<'_> {
    /// Index of the LRU-insert mask; the order sits just before it.
    #[inline(always)]
    fn mask_at(&self) -> usize {
        self.ways + order_words(self.ways)
    }

    /// Index of the valid mask.
    #[inline(always)]
    fn valid_at(&self) -> usize {
        self.mask_at() + 1
    }

    /// The way whose tag is `line`, if any.
    #[inline(always)]
    fn find(&self, line: u64) -> Option<usize> {
        self.block[..self.ways].iter().position(|&tag| tag == line)
    }

    /// Moves `way` to the MRU lane of the recency order, shifting every
    /// lane in front of it back by one. One SWAR search finds the word
    /// holding `way`; the words before it shift whole, carrying their
    /// last lane into the next word's first.
    #[inline(always)]
    fn promote(&mut self, way: usize) {
        let order = self.ways..self.mask_at();
        let target = way as u64 * LANES;
        let mut carry = way as u64;
        for word in &mut self.block[order] {
            let m = byte_eq_mask(*word, target);
            let shifted = (*word << 8) | carry;
            if m != 0 {
                // Lanes up to and including `way`'s take the shifted
                // values; the lanes behind it keep theirs.
                let keep = u64::MAX >> (63 - m.trailing_zeros());
                *word = (shifted & keep) | (*word & !keep);
                return;
            }
            carry = *word >> 56;
            *word = shifted;
        }
        unreachable!("way {way} missing from its set's recency order");
    }

    /// Records a touch of `way`: an MRU touch promotes it and clears its
    /// LRU-insert mark, an LRU insert marks it and leaves the order
    /// alone.
    #[inline(always)]
    fn place(&mut self, way: usize, pos: InsertPos) {
        let mask = self.mask_at();
        match pos {
            InsertPos::Mru => {
                self.promote(way);
                // Most sets hold no LRU-inserted line; skipping the store
                // then keeps the hit path to one write.
                if self.block[mask] != 0 {
                    self.block[mask] &= !(1u64 << way);
                }
            }
            InsertPos::Lru => self.block[mask] |= 1u64 << way,
        }
    }

    /// The way to fill: the first invalid way if any, else the
    /// lowest-indexed LRU-inserted way if any, else the way in the LRU
    /// lane.
    #[inline(always)]
    fn victim(&self) -> usize {
        let free = (!self.block[self.valid_at()]).trailing_zeros() as usize;
        if free < self.ways {
            return free;
        }
        let inserted = self.block[self.mask_at()];
        if inserted != 0 {
            return inserted.trailing_zeros() as usize;
        }
        let last = self.ways - 1;
        let word = self.block[self.ways + last / 8];
        usize::from((word >> ((last % 8) * 8)) as u8)
    }

    /// Installs absent `line` at `pos` in the victim way. Returns the
    /// displaced tag (`INVALID` if the way was empty).
    #[inline(always)]
    fn install(&mut self, line: u64, pos: InsertPos) -> u64 {
        let way = self.victim();
        let evicted = std::mem::replace(&mut self.block[way], line);
        let valid = self.valid_at();
        self.block[valid] |= 1u64 << way;
        self.place(way, pos);
        evicted
    }
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is not in
    /// `1..=64` (the LRU-insert and valid masks hold one bit per way).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            (1..=64).contains(&config.ways),
            "ways must be between 1 and 64"
        );
        let ways = config.ways;
        // Tags all INVALID; order ways 0, 1, … from the MRU lane, 0xFF in
        // padding lanes; no LRU-inserted and no valid way.
        let mut block = vec![INVALID; stride_of(ways)];
        for way in 0..ways {
            let word = ways + way / 8;
            let shift = (way % 8) * 8;
            block[word] &= !(0xFFu64 << shift);
            block[word] |= (way as u64) << shift;
        }
        block[ways + order_words(ways)..].fill(0);
        Cache {
            sets: config.sets,
            ways,
            set_mask: config.sets - 1,
            meta: block.repeat(config.sets),
            stats: CacheStats::default(),
        }
    }

    /// Index within `meta` of the block of the set `line` maps to, for a
    /// cache of `ways` ways.
    #[inline(always)]
    fn block_of(&self, ways: usize, line: u64) -> usize {
        debug_assert_ne!(line, INVALID, "line address reserved for empty ways");
        ((line as usize) & self.set_mask) * stride_of(ways)
    }

    /// The set `line` maps to, seen with `ways` ways (`self.ways`, or the
    /// same count as a literal).
    #[inline(always)]
    fn set(&mut self, ways: usize, line: u64) -> Set<'_> {
        debug_assert_eq!(ways, self.ways, "set viewed with another way count");
        let start = self.block_of(ways, line);
        Set {
            ways,
            block: &mut self.meta[start..start + stride_of(ways)],
        }
    }

    /// Counts a fill that displaced `evicted` (`INVALID`: nothing).
    fn count_fill(&mut self, evicted: u64) {
        self.stats.fills += 1;
        if evicted != INVALID {
            self.stats.evictions += 1;
        }
    }

    /// The set visit of [`Self::lookup`] (`fill` of `None`) and
    /// [`Self::lookup_or_fill`], on a cache of `ways` ways.
    #[inline(always)]
    fn visit(&mut self, ways: usize, line: u64, fill: Option<InsertPos>) -> bool {
        let mut set = self.set(ways, line);
        if let Some(way) = set.find(line) {
            set.place(way, InsertPos::Mru);
            self.stats.hits += 1;
            return true;
        }
        let evicted = fill.map(|pos| set.install(line, pos));
        self.stats.misses += 1;
        if let Some(evicted) = evicted {
            self.count_fill(evicted);
        }
        false
    }

    /// [`Self::visit`] with the way count as a literal for every way
    /// count a shipped machine config uses.
    #[inline(always)]
    fn visit_unrolled(&mut self, line: u64, fill: Option<InsertPos>) -> bool {
        match self.ways {
            2 => self.visit(2, line, fill),
            4 => self.visit(4, line, fill),
            8 => self.visit(8, line, fill),
            16 => self.visit(16, line, fill),
            ways => self.visit(ways, line, fill),
        }
    }

    /// Looks up a line; on hit promotes it to MRU. Returns whether it hit.
    #[inline]
    pub fn lookup(&mut self, line: u64) -> bool {
        self.visit_unrolled(line, None)
    }

    /// Fused miss-and-fill: exactly [`Self::lookup`] followed, on a miss,
    /// by [`Self::fill`]`(line, pos)` — in one set visit instead of two.
    /// Returns whether the lookup hit. The hierarchy uses this on its
    /// demand path, where every miss is followed by a fill of the same
    /// line.
    #[inline(always)]
    pub fn lookup_or_fill(&mut self, line: u64, pos: InsertPos) -> bool {
        self.visit_unrolled(line, Some(pos))
    }

    /// Checks presence without updating LRU state or statistics.
    pub fn probe(&self, line: u64) -> bool {
        let start = self.block_of(self.ways, line);
        self.meta[start..start + self.ways].contains(&line)
    }

    /// Fills a line at the given insertion position, returning the evicted
    /// line if a valid one was displaced.
    ///
    /// Filling a line that is already present only adjusts its LRU
    /// position. The victim is the first invalid way if any, else the
    /// lowest-indexed line inserted at LRU and not touched since, else
    /// the least recently used line.
    pub fn fill(&mut self, line: u64, pos: InsertPos) -> Option<u64> {
        let mut set = self.set(self.ways, line);
        let evicted = match set.find(line) {
            Some(way) => {
                set.place(way, pos);
                INVALID
            }
            None => set.install(line, pos),
        };
        self.count_fill(evicted);
        (evicted != INVALID).then_some(evicted)
    }

    /// Invalidates a line if present; returns whether it was present.
    /// The emptied way is the set's next victim.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let set = self.set(self.ways, line);
        let Some(way) = set.find(line) else {
            return false;
        };
        set.block[way] = INVALID;
        let valid = set.valid_at();
        set.block[valid] &= !(1u64 << way);
        true
    }

    /// Counts valid lines whose address satisfies `pred` — used to measure
    /// per-process LLC occupancy (the quantity non-temporal hints reduce).
    pub fn occupancy_where(&self, pred: impl Fn(u64) -> bool) -> usize {
        self.meta
            .chunks_exact(stride_of(self.ways))
            .map(|block| {
                block[..self.ways]
                    .iter()
                    .filter(|&&t| t != INVALID && pred(t))
                    .count()
            })
            .sum()
    }

    /// Total valid lines.
    pub fn occupancy(&self) -> usize {
        self.occupancy_where(|_| true)
    }

    /// Capacity in lines.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig { sets: 2, ways: 2 })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.lookup(10));
        c.fill(10, InsertPos::Mru);
        assert!(c.lookup(10));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line addresses).
        c.fill(0, InsertPos::Mru);
        c.fill(2, InsertPos::Mru);
        // Touch 0 so 2 becomes LRU.
        assert!(c.lookup(0));
        let evicted = c.fill(4, InsertPos::Mru);
        assert_eq!(evicted, Some(2));
        assert!(c.probe(0));
        assert!(c.probe(4));
        assert!(!c.probe(2));
    }

    #[test]
    fn lru_insert_is_next_victim() {
        let mut c = tiny();
        c.fill(0, InsertPos::Mru);
        c.fill(2, InsertPos::Lru); // NT-style insert
        let evicted = c.fill(4, InsertPos::Mru);
        assert_eq!(
            evicted,
            Some(2),
            "the LRU-inserted line must be evicted first"
        );
        assert!(c.probe(0));
    }

    #[test]
    fn repeated_hits_stop_at_invalidation_and_eviction() {
        let mut c = tiny();
        c.fill(10, InsertPos::Mru);
        assert!(c.lookup(10));
        assert!(c.lookup(10));
        // Invalidating the line just hit must make the next lookup miss.
        c.invalidate(10);
        assert!(!c.lookup(10));
        // Evict by filling the set (lines 10, 0, 2 share set 0): a hit on
        // the *replacement* line in the same way must not leak line 10.
        c.fill(0, InsertPos::Mru);
        c.fill(2, InsertPos::Mru);
        assert!(!c.lookup(10));
        assert!(c.lookup(0));
        assert!(c.lookup(0));
        assert_eq!(c.stats().hits, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn repeated_hits_keep_lru_order_exact() {
        let mut c = tiny();
        // Set 0 holds lines 0 and 2; repeated hits on 0 must keep it at
        // MRU so 2 stays the LRU victim.
        c.fill(0, InsertPos::Mru);
        c.fill(2, InsertPos::Mru);
        for _ in 0..3 {
            assert!(c.lookup(0));
        }
        assert_eq!(c.fill(4, InsertPos::Mru), Some(2));
    }

    #[test]
    fn refill_does_not_duplicate() {
        let mut c = tiny();
        c.fill(10, InsertPos::Mru);
        c.fill(10, InsertPos::Mru);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.fill(10, InsertPos::Mru);
        assert!(c.invalidate(10));
        assert!(!c.probe(10));
        assert!(!c.invalidate(10));
    }

    #[test]
    fn occupancy_filtering() {
        let mut c = Cache::new(CacheConfig { sets: 4, ways: 4 });
        for line in 0..8u64 {
            c.fill(line | (1 << 40), InsertPos::Mru);
        }
        for line in 0..4u64 {
            c.fill(line | (2 << 40), InsertPos::Mru);
        }
        assert_eq!(c.occupancy_where(|l| l >> 40 == 1), 8);
        assert_eq!(c.occupancy_where(|l| l >> 40 == 2), 4);
        assert_eq!(c.occupancy(), 12);
        assert_eq!(c.capacity(), 16);
    }

    #[test]
    fn hit_rate_computation() {
        let mut c = tiny();
        c.fill(0, InsertPos::Mru);
        for _ in 0..3 {
            assert!(c.lookup(0));
        }
        assert!(!c.lookup(7));
        assert!((c.stats().hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn lines_sharing_low_bits_never_alias() {
        // Lines 2, 514, and 1026 all land in set 0 of a 2-set cache and
        // agree in their low nine bits (2>>1 = 1, 514>>1 = 257, 1026>>1 =
        // 513 — all 1 mod 256): only the full tag tells them apart.
        let mut c = Cache::new(CacheConfig { sets: 2, ways: 4 });
        c.fill(2, InsertPos::Mru);
        c.fill(514, InsertPos::Mru);
        assert!(c.lookup(2));
        assert!(c.lookup(514));
        assert!(!c.lookup(1026), "a low-bit alias must not fake a hit");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn all_ones_line_is_found_and_absent_one_misses() {
        // Line 0x1FE sits in set 0 of a 2-set, 3-way cache with its eight
        // bits above the set index all ones, the byte held by every
        // padding lane of the recency order: it must miss while absent
        // and hit once filled.
        let mut c = Cache::new(CacheConfig { sets: 2, ways: 3 });
        assert!(!c.lookup(0x1FE));
        c.fill(0x1FE, InsertPos::Mru);
        assert!(c.lookup(0x1FE));
        // Fill the set; the all-ones line stays findable wherever the
        // LRU put it, and an absent line with the same low bits misses.
        c.fill(2, InsertPos::Mru);
        c.fill(4, InsertPos::Mru);
        assert!(c.lookup(0x1FE));
        assert!(!c.lookup(0x1FE + 512));
    }

    #[test]
    fn wide_set_scan_finds_every_way() {
        // 16 ways span two recency-order words; every resident line must
        // be found regardless of which word its way's lane lands in.
        let mut c = Cache::new(CacheConfig { sets: 2, ways: 16 });
        let lines: Vec<u64> = (0..16u64).map(|i| i * 2).collect();
        for &l in &lines {
            c.fill(l, InsertPos::Mru);
        }
        for &l in &lines {
            assert!(c.lookup(l), "line {l} lost in wide set");
        }
        assert_eq!(c.occupancy(), 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        let _ = Cache::new(CacheConfig { sets: 3, ways: 2 });
    }

    #[test]
    #[should_panic(expected = "between 1 and 64")]
    fn more_than_64_ways_rejected() {
        let _ = Cache::new(CacheConfig { sets: 2, ways: 65 });
    }

    #[test]
    fn sixty_four_ways_keep_true_lru() {
        // The widest geometry the LRU-insert mask allows: the order spans
        // eight words and way 63 uses the mask's top bit.
        let mut c = Cache::new(CacheConfig { sets: 1, ways: 64 });
        for line in 0..64u64 {
            c.fill(line, InsertPos::Mru);
        }
        // Touch every line but 63, oldest first: 63 is now the LRU line.
        for line in 0..63u64 {
            assert!(c.lookup(line));
        }
        assert_eq!(c.fill(100, InsertPos::Lru), Some(63));
        assert_eq!(
            c.fill(101, InsertPos::Mru),
            Some(100),
            "the LRU insert goes first"
        );
        assert_eq!(
            c.fill(102, InsertPos::Mru),
            Some(0),
            "then the least recently used line"
        );
    }

    #[test]
    fn streaming_evicts_resident_set_only_with_mru() {
        // A resident working set protected by NT streaming: stream with
        // LRU-insert touches each set once per pass and should displace at
        // most one way per set.
        let mut c = Cache::new(CacheConfig { sets: 16, ways: 4 });
        // Resident set: 32 lines (half the cache).
        for line in 0..32u64 {
            c.fill(line, InsertPos::Mru);
        }
        // Stream 1024 distinct lines with NT insert.
        for line in 1000..2024u64 {
            if !c.lookup(line) {
                c.fill(line, InsertPos::Lru);
            }
        }
        let resident_left = c.occupancy_where(|l| l < 32);
        assert!(
            resident_left >= 16,
            "NT streaming should preserve most of the resident set, kept {resident_left}/32"
        );
        // Contrast: MRU streaming wipes the resident set.
        let mut c2 = Cache::new(CacheConfig { sets: 16, ways: 4 });
        for line in 0..32u64 {
            c2.fill(line, InsertPos::Mru);
        }
        for line in 1000..2024u64 {
            if !c2.lookup(line) {
                c2.fill(line, InsertPos::Mru);
            }
        }
        let resident_left2 = c2.occupancy_where(|l| l < 32);
        assert!(
            resident_left2 < resident_left,
            "MRU streaming should displace more ({resident_left2} vs {resident_left})"
        );
    }
}
