//! TinyLFU admission support: a 4-bit count-min frequency sketch.
//!
//! The [`FrequencySketch`] estimates how often a key hash has been
//! looked up recently. [`AnswerCache`](crate::cache::AnswerCache) keeps
//! one per shard of a capped cache and consults it at capacity: a newly
//! inserted candidate may displace the eviction victim only when its
//! estimated frequency is *strictly* greater than the victim's. One-shot
//! keys (a long tail of questions asked exactly once) therefore bounce
//! off a full shard instead of flushing the hot set — the classic
//! TinyLFU scan/flood resistance.
//!
//! Determinism: the sketch is pure integer arithmetic over the key hash
//! — four fixed odd-constant row seeds, no `HashMap` iteration, no
//! process-level randomness — so admission decisions replay identically
//! across rebuilds of the same request sequence. Frequencies *age* by
//! periodic halving: every counter is divided by two once the sample
//! counter saturates (the "reset" of the TinyLFU paper), which keeps
//! estimates fresh under drifting workloads. Halving preserves relative
//! order in the non-strict sense: `a >= b` implies `a/2 >= b/2` because
//! flooring division by two is monotone.

/// Counters are 4 bits wide, packed 16 per `u64` word, saturating at 15.
const COUNTER_MAX: u64 = 15;
/// Mask clearing the top bit of every nibble — halving shifts each word
/// right by one, and this mask stops bits leaking between nibbles.
const HALVE_MASK: u64 = 0x7777_7777_7777_7777;

/// Fixed per-row seeds (SplitMix64 outputs of 1..=4): each of the four
/// count-min rows hashes the key under a different seed so a collision
/// in one row is independent of the others.
const ROW_SEEDS: [u64; 4] = [
    0x910a_2dec_8902_5cc1,
    0xbeeb_8da1_658e_aa12,
    0xf4f4_f88f_0d15_4b37,
    0x6a79_73e4_2bb2_b9a4,
];

/// A 4-bit count-min sketch with periodic halving ("aging").
///
/// `record` bumps the key's counter in each of four rows (saturating at
/// 15); `estimate` reads the minimum over the rows, which bounds the
/// true recent frequency from above with high probability. The table is
/// sized to the cache capacity it protects so hot keys reach the
/// saturation plateau quickly while tail keys stay near zero.
#[derive(Debug, Clone)]
pub struct FrequencySketch {
    table: Vec<u64>,
    /// `counters - 1`; the counter count is a power of two.
    index_mask: u64,
    /// Lookups recorded since the last halving.
    samples: u64,
    /// Halve every counter once `samples` reaches this.
    sample_cap: u64,
    agings: u64,
}

impl FrequencySketch {
    /// A sketch protecting a cache segment of `capacity` entries: eight
    /// counters per entry (rounded up to a power of two, at least 64),
    /// aged every `10 * capacity` recorded lookups.
    pub fn new(capacity: usize) -> Self {
        let counters = (capacity.max(1).saturating_mul(8)).next_power_of_two().max(64);
        FrequencySketch {
            table: vec![0u64; counters / 16],
            index_mask: (counters - 1) as u64,
            samples: 0,
            sample_cap: 10 * capacity.max(1) as u64,
            agings: 0,
        }
    }

    /// The counter index of `hash` in `row` — SplitMix64-style finishing
    /// over the seeded hash spreads nearby key hashes across the table.
    fn index(&self, hash: u64, row: usize) -> usize {
        let mut z = hash ^ ROW_SEEDS[row];
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z & self.index_mask) as usize
    }

    fn counter(&self, idx: usize) -> u64 {
        (self.table[idx / 16] >> ((idx % 16) * 4)) & COUNTER_MAX
    }

    /// Records one lookup of `hash`, aging the whole table when the
    /// sample counter saturates.
    pub fn record(&mut self, hash: u64) {
        for row in 0..ROW_SEEDS.len() {
            let idx = self.index(hash, row);
            if self.counter(idx) < COUNTER_MAX {
                self.table[idx / 16] += 1 << ((idx % 16) * 4);
            }
        }
        self.samples += 1;
        if self.samples >= self.sample_cap {
            self.halve();
        }
    }

    /// The estimated recent frequency of `hash`: the minimum counter
    /// over the four rows (15 is the saturation plateau).
    pub fn estimate(&self, hash: u64) -> u64 {
        (0..ROW_SEEDS.len())
            .map(|row| self.counter(self.index(hash, row)))
            .min()
            .unwrap_or(0)
    }

    /// Halves every counter and the sample counter — the TinyLFU aging
    /// step. Public so tests can force an aging and check that relative
    /// frequency order is preserved (`a >= b` implies `a/2 >= b/2`).
    pub fn halve(&mut self) {
        for word in self.table.iter_mut() {
            *word = (*word >> 1) & HALVE_MASK;
        }
        self.samples /= 2;
        self.agings += 1;
    }

    /// How many aging (halving) passes have run.
    pub fn agings(&self) -> u64 {
        self.agings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_track_recorded_counts_up_to_saturation() {
        let mut sketch = FrequencySketch::new(64);
        assert_eq!(sketch.estimate(42), 0);
        for i in 1..=15u64 {
            sketch.record(42);
            assert_eq!(sketch.estimate(42), i, "after {i} records");
        }
        // Saturates at the 4-bit ceiling.
        sketch.record(42);
        sketch.record(42);
        assert_eq!(sketch.estimate(42), 15);
    }

    #[test]
    fn distinct_hashes_rarely_alias() {
        let mut sketch = FrequencySketch::new(256);
        for _ in 0..10 {
            sketch.record(7);
        }
        // A count-min estimate only ever over-approximates; with 8
        // counters per entry the untouched keys stay near zero.
        let inflated = (0..100u64).filter(|h| sketch.estimate(1000 + h) > 0).count();
        assert!(inflated <= 2, "{inflated} of 100 cold keys aliased a hot row");
    }

    #[test]
    fn halving_halves_estimates_and_preserves_order() {
        let mut sketch = FrequencySketch::new(64);
        for _ in 0..12 {
            sketch.record(1);
        }
        for _ in 0..5 {
            sketch.record(2);
        }
        let (hot, warm) = (sketch.estimate(1), sketch.estimate(2));
        assert!(hot > warm);
        sketch.halve();
        assert_eq!(sketch.estimate(1), hot / 2);
        assert_eq!(sketch.estimate(2), warm / 2);
        assert!(sketch.estimate(1) >= sketch.estimate(2), "halving reordered frequencies");
        assert_eq!(sketch.agings(), 1);
    }

    #[test]
    fn aging_fires_when_samples_saturate() {
        let mut sketch = FrequencySketch::new(1); // sample_cap = 10
        for h in 0..10u64 {
            sketch.record(h);
        }
        assert_eq!(sketch.agings(), 1, "10 samples at capacity 1 must age once");
    }

    #[test]
    fn sketch_is_deterministic_across_rebuilds() {
        let build = || {
            let mut s = FrequencySketch::new(32);
            for h in 0..500u64 {
                s.record(h % 37);
            }
            (0..37u64).map(|h| s.estimate(h)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
