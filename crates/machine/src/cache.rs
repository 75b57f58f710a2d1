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

/// One set-associative cache level, keyed by line address.
///
/// The cache stores *line addresses* (byte address divided by line size);
/// the hierarchy performs that division once.
///
/// The way scan is word-parallel: alongside the full tags, each way
/// keeps an 8-bit *partial tag* (the address bits just above the set
/// index) packed eight ways per u64. A lookup scans one u64 per eight
/// ways with SWAR byte-equality and verifies the (rare) candidate lanes
/// against the full tags, so partial collisions and padding lanes can
/// never fake a hit.
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
/// All per-set state lives in one contiguous block of `meta` —
/// `[partial words | order words | LRU-insert mask | tags row]` — so one
/// set visit touches one or two host cache lines instead of scattered
/// arrays, and the words every visit reads and writes come first.
#[derive(Clone, Debug)]
pub struct Cache {
    sets: usize,
    ways: usize,
    /// `sets - 1`, precomputed so indexing is a single mask.
    set_mask: usize,
    /// `log2(sets)`: partial tags are taken just above the set-index bits
    /// so lines of one set differ in their partials as early as possible.
    set_bits: u32,
    /// u64 words per byte-lane row (`ways.div_ceil(8)`): the partial
    /// tags and the recency order each take this many.
    lwords: usize,
    /// u64 words per set block: `2 * lwords + 1 + ways`.
    stride: usize,
    /// Per-set metadata blocks. Set `s` occupies
    /// `meta[s * stride .. (s + 1) * stride]`: first `lwords` words of
    /// packed partial tags (0xFF per invalid or padding lane), then
    /// `lwords` words of recency order (way indices, MRU lane first, 0xFF
    /// per padding lane), then the LRU-insert mask (bit `w` set while way
    /// `w` holds a line inserted at LRU and not touched since), then the
    /// `ways` full tags (line address or `INVALID`).
    meta: Vec<u64>,
    /// Number of `INVALID` entries across all sets. Zero (the steady
    /// state once every way has filled) lets fills skip the invalid-way
    /// scan outright.
    invalid_count: usize,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is not in
    /// `1..=64` (the LRU-insert mask holds one bit per way).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            (1..=64).contains(&config.ways),
            "ways must be between 1 and 64"
        );
        let ways = config.ways;
        let lwords = ways.div_ceil(8);
        let stride = 2 * lwords + 1 + ways;
        let mut block = vec![u64::MAX; stride];
        // Partial words: 0xFF in every lane, the partial of INVALID,
        // including the padding lanes past `ways`. Order: ways 0, 1, …
        // from the MRU lane, 0xFF in padding lanes. No LRU-inserted
        // lines. Tags: all INVALID.
        for way in 0..ways {
            let word = lwords + way / 8;
            let shift = (way % 8) * 8;
            block[word] &= !(0xFFu64 << shift);
            block[word] |= (way as u64) << shift;
        }
        block[2 * lwords] = 0;
        Cache {
            sets: config.sets,
            ways,
            set_mask: config.sets - 1,
            set_bits: config.sets.trailing_zeros(),
            lwords,
            stride,
            meta: block.repeat(config.sets),
            invalid_count: config.sets * ways,
            stats: CacheStats::default(),
        }
    }

    /// Index within `meta` of the block of the set `line` maps to.
    #[inline]
    fn block_of(&self, line: u64) -> usize {
        debug_assert_ne!(line, INVALID, "line address reserved for empty ways");
        ((line as usize) & self.set_mask) * self.stride
    }

    /// Index within `meta` of the LRU-insert mask of set block `sb`; the
    /// recency order sits just before it, the tags row just after.
    #[inline]
    fn mask_at(&self, sb: usize) -> usize {
        sb + 2 * self.lwords
    }

    /// The 8-bit partial tag of a line: the bits just above the set index.
    #[inline]
    fn partial_of(&self, line: u64) -> u8 {
        (line >> self.set_bits) as u8
    }

    // The set-visit helpers below, and `lookup_or_fill`, are forced
    // inline: left to the compiler, `place` and `lookup_or_fill` stayed
    // out-of-line calls on every access, which measured 6% and 9% slower
    // end to end on the `perfbench` `solo` workload.

    /// Writes the full and partial tags of `way` in set block `sb`.
    #[inline(always)]
    fn store_tag(&mut self, sb: usize, way: usize, tag: u64) {
        let slot = self.mask_at(sb) + 1 + way;
        self.meta[slot] = tag;
        let word = sb + way / 8;
        let shift = (way % 8) * 8;
        self.meta[word] &= !(0xFFu64 << shift);
        self.meta[word] |= u64::from(self.partial_of(tag)) << shift;
    }

    /// The way in set block `sb` whose full tag is `tag`, if any: the
    /// SWAR partial match proposes candidate lanes in ascending order and
    /// the full tag decides, so collisions and padding lanes never match.
    #[inline(always)]
    fn find_tag(&self, sb: usize, tag: u64) -> Option<usize> {
        let tags = self.mask_at(sb) + 1;
        let target = u64::from(self.partial_of(tag)) * LANES;
        for (w, &word) in self.meta[sb..sb + self.lwords].iter().enumerate() {
            let mut m = byte_eq_mask(word, target);
            while m != 0 {
                let way = w * 8 + (m.trailing_zeros() as usize >> 3);
                if way < self.ways && self.meta[tags + way] == tag {
                    return Some(way);
                }
                m &= m - 1;
            }
        }
        None
    }

    /// Moves `way` to the MRU lane of set block `sb`'s recency order,
    /// shifting every lane in front of it back by one. One SWAR search
    /// finds the word holding `way`; the words before it shift whole,
    /// carrying their last lane into the next word's first.
    #[inline(always)]
    fn promote(&mut self, sb: usize, way: usize) {
        let order = sb + self.lwords;
        let target = way as u64 * LANES;
        let mut carry = way as u64;
        for word in &mut self.meta[order..order + self.lwords] {
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

    /// Records a touch of `way` in set block `sb`: an MRU touch promotes
    /// it and clears its LRU-insert mark, an LRU insert marks it and
    /// leaves the order alone.
    #[inline(always)]
    fn place(&mut self, sb: usize, way: usize, pos: InsertPos) {
        let mask = self.mask_at(sb);
        match pos {
            InsertPos::Mru => {
                self.promote(sb, way);
                // Most sets hold no LRU-inserted line; skipping the store
                // then keeps the hit path to one write.
                if self.meta[mask] != 0 {
                    self.meta[mask] &= !(1u64 << way);
                }
            }
            InsertPos::Lru => self.meta[mask] |= 1u64 << way,
        }
    }

    /// The way to fill in set block `sb`: the first invalid way if any,
    /// else the lowest-indexed LRU-inserted way if any, else the way in
    /// the LRU lane.
    #[inline(always)]
    fn victim(&self, sb: usize) -> usize {
        if self.invalid_count != 0 {
            if let Some(way) = self.find_tag(sb, INVALID) {
                return way;
            }
        }
        let inserted = self.meta[self.mask_at(sb)];
        if inserted != 0 {
            return inserted.trailing_zeros() as usize;
        }
        let last = self.ways - 1;
        let word = self.meta[sb + self.lwords + last / 8];
        usize::from((word >> ((last % 8) * 8)) as u8)
    }

    /// The miss path of [`Self::fill`] and [`Self::lookup_or_fill`]:
    /// installs absent `line` in set block `sb` at `pos`. Returns the
    /// displaced tag (`INVALID` if the way was empty).
    fn install(&mut self, sb: usize, line: u64, pos: InsertPos) -> u64 {
        self.stats.fills += 1;
        let way = self.victim(sb);
        let evicted = self.meta[self.mask_at(sb) + 1 + way];
        self.store_tag(sb, way, line);
        self.place(sb, way, pos);
        if evicted == INVALID {
            self.invalid_count -= 1;
        } else {
            self.stats.evictions += 1;
        }
        evicted
    }

    /// The hit path of [`Self::lookup`] and [`Self::lookup_or_fill`]:
    /// promotes `line` if it is resident in set block `sb`.
    #[inline(always)]
    fn promote_if_present(&mut self, sb: usize, line: u64) -> bool {
        match self.find_tag(sb, line) {
            Some(way) => {
                self.place(sb, way, InsertPos::Mru);
                true
            }
            None => false,
        }
    }

    /// Looks up a line; on hit promotes it to MRU. Returns whether it hit.
    #[inline]
    pub fn lookup(&mut self, line: u64) -> bool {
        let hit = self.promote_if_present(self.block_of(line), line);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Fused miss-and-fill: exactly [`Self::lookup`] followed, on a miss,
    /// by [`Self::fill`]`(line, pos)` — in one set visit instead of two.
    /// Returns whether the lookup hit. The hierarchy uses this on its
    /// demand path, where every miss is followed by a fill of the same
    /// line.
    #[inline(always)]
    pub fn lookup_or_fill(&mut self, line: u64, pos: InsertPos) -> bool {
        let sb = self.block_of(line);
        if self.promote_if_present(sb, line) {
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        self.install(sb, line, pos);
        false
    }

    /// Checks presence without updating LRU state or statistics.
    pub fn probe(&self, line: u64) -> bool {
        let tags = self.mask_at(self.block_of(line)) + 1;
        self.meta[tags..tags + self.ways].contains(&line)
    }

    /// Fills a line at the given insertion position, returning the evicted
    /// line if a valid one was displaced.
    ///
    /// Filling a line that is already present only adjusts its LRU
    /// position. The victim is the first invalid way if any, else the
    /// lowest-indexed line inserted at LRU and not touched since, else
    /// the least recently used line.
    pub fn fill(&mut self, line: u64, pos: InsertPos) -> Option<u64> {
        let sb = self.block_of(line);
        if let Some(way) = self.find_tag(sb, line) {
            self.stats.fills += 1;
            self.place(sb, way, pos);
            return None;
        }
        let evicted = self.install(sb, line, pos);
        (evicted != INVALID).then_some(evicted)
    }

    /// Invalidates a line if present; returns whether it was present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let sb = self.block_of(line);
        let Some(way) = self.find_tag(sb, line) else {
            return false;
        };
        self.store_tag(sb, way, INVALID);
        self.invalid_count += 1;
        true
    }

    /// Counts valid lines whose address satisfies `pred` — used to measure
    /// per-process LLC occupancy (the quantity non-temporal hints reduce).
    pub fn occupancy_where(&self, pred: impl Fn(u64) -> bool) -> usize {
        self.meta
            .chunks_exact(self.stride)
            .map(|block| {
                block[2 * self.lwords + 1..]
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

    /// Resets statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
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
        c.reset_stats();
        assert_eq!(c.stats().hit_rate(), 0.0);
    }

    #[test]
    fn partial_tag_collisions_verify_full_tags() {
        // sets = 2 ⇒ partials are bits 1..9. Lines 2, 514, and 1026 all
        // land in set 0 with partial 0x01 (resp. 2>>1 = 1, 514>>1 = 257,
        // 1026>>1 = 513 — all 1 mod 256): the SWAR scan flags every lane,
        // and only the full-tag verify may decide.
        let mut c = Cache::new(CacheConfig { sets: 2, ways: 4 });
        c.fill(2, InsertPos::Mru);
        c.fill(514, InsertPos::Mru);
        assert!(c.lookup(2));
        assert!(c.lookup(514));
        assert!(!c.lookup(1026), "partial collision must not fake a hit");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn padding_lanes_never_fake_a_hit() {
        // ways = 3 leaves five padding lanes per partial word holding
        // 0xFF. Line 0x1FE sits in set 0 with partial 0xFF — it matches
        // every padding lane and every invalid way, and must still miss.
        let mut c = Cache::new(CacheConfig { sets: 2, ways: 3 });
        assert!(!c.lookup(0x1FE));
        c.fill(0x1FE, InsertPos::Mru);
        assert!(c.lookup(0x1FE));
        // Fill the set; the 0xFF-partial line stays findable wherever the
        // LRU put it, and an absent 0xFF-partial line still misses.
        c.fill(2, InsertPos::Mru);
        c.fill(4, InsertPos::Mru);
        assert!(c.lookup(0x1FE));
        assert!(!c.lookup(0x1FE + 512));
    }

    #[test]
    fn wide_set_scan_finds_every_way() {
        // 16 ways span two partial words; every resident line must be
        // found regardless of which word its way lands in.
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
