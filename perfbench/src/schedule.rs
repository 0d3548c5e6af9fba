//! Seeded inputs and the statistics the benchmark reports.
//!
//! The traffic of a run (arrival times and question draws) is derived
//! from the `--seed` argument here, so the same seed replays the same
//! schedule byte for byte. The data (base dataset and tick stream) is a
//! fixture.

use bench::traffic::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How question ranks are drawn from the population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Draw {
    /// Zipf(s) over ranks `0..population`.
    Zipf(f64),
    /// Uniform over `0..population`.
    Uniform,
}

/// An open-loop request schedule: request `i` is due `arrival_ns[i]`
/// after the load generator's start and asks population entry
/// `question[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    pub arrival_ns: Vec<u64>,
    pub question: Vec<u32>,
}

/// Mints `requests` Poisson arrivals at `rate` per second, each drawing
/// a question from a `population` by `draw`.
pub fn poisson(seed: u64, rate: f64, requests: usize, population: usize, draw: Draw) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_A441_0000_0001);
    let zipf = match draw {
        Draw::Zipf(s) => Some(ZipfSampler::new(population, s)),
        Draw::Uniform => None,
    };
    let mut t = 0.0f64;
    let mut arrival_ns = Vec::with_capacity(requests);
    let mut question = Vec::with_capacity(requests);
    for _ in 0..requests {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        arrival_ns.push((t * 1e9) as u64);
        let q = match &zipf {
            Some(z) => z.sample(&mut rng),
            None => rng.gen_range(0..population),
        };
        question.push(q as u32);
    }
    Schedule {
        arrival_ns,
        question,
    }
}

/// The Zipf(s) question draws of one live round.
pub fn round_draws(seed: u64, round: usize, reads: usize, zipf: &ZipfSampler) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11FE_0000_0000_0000 ^ round as u64);
    (0..reads).map(|_| zipf.sample(&mut rng) as u32).collect()
}

/// The `mint_ticks` seed of one database in one live round. Like the
/// base dataset (generated from `bull::DEFAULT_SEED`), the tick stream is
/// a fixture that does not depend on `--seed`: the cost of refreshing
/// the value index depends on the values the ticks add, so
/// seed-dependent ticks would make every run a different data workload.
pub fn tick_seed(round: usize, db_index: usize) -> u64 {
    0x71C4_5EED ^ ((round as u64) << 8) ^ db_index as u64
}

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile of ascending `sorted` samples, linearly interpolated
/// between order statistics. `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it (p99 therefore needs at least 1,000 samples).
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || ((1.0 - q) * n as f64) < MIN_BEYOND as f64 - 1e-9 {
        return None;
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median over blocks of each block's `q`-quantile. A block is a
/// stretch of about one or two seconds of a run, so a burst of contention
/// on a shared machine moves one block's figure, not the run's. `None`
/// when any block is too small for the quantile.
pub fn median_of_blocks(blocks: &mut [Vec<f64>], q: f64) -> Option<f64> {
    let mut per_block = Vec::with_capacity(blocks.len());
    for b in blocks.iter_mut() {
        b.sort_by(f64::total_cmp);
        per_block.push(quantile(b, q)?);
    }
    median(&per_block)
}

/// The median of unsorted samples; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_schedule() {
        let a = poisson(7, 8_000.0, 5_000, 1024, Draw::Zipf(1.0));
        assert_eq!(a, poisson(7, 8_000.0, 5_000, 1024, Draw::Zipf(1.0)));
        assert_ne!(a, poisson(8, 8_000.0, 5_000, 1024, Draw::Zipf(1.0)));
        let u = poisson(7, 1_000.0, 5_000, 4096, Draw::Uniform);
        assert_eq!(u, poisson(7, 1_000.0, 5_000, 4096, Draw::Uniform));
        assert!(u.question.iter().all(|&q| q < 4096));
        let zipf = ZipfSampler::new(1024, 1.0);
        assert_eq!(round_draws(3, 5, 256, &zipf), round_draws(3, 5, 256, &zipf));
        assert_ne!(round_draws(3, 5, 256, &zipf), round_draws(3, 6, 256, &zipf));
    }

    #[test]
    fn arrivals_are_ordered_at_the_offered_rate() {
        let s = poisson(1, 1_000.0, 20_000, 16, Draw::Uniform);
        assert!(s.arrival_ns.windows(2).all(|w| w[0] <= w[1]));
        let secs = *s.arrival_ns.last().unwrap() as f64 / 1e9;
        assert!(
            (secs - 20.0).abs() < 1.0,
            "20k arrivals at 1k/s took {secs} s"
        );
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(
            quantile(&v, 0.99),
            None,
            "999 samples leave 9.99 beyond p99"
        );
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(quantile(&v, 0.99).is_some());
        assert_eq!(quantile(&v[..21], 0.5), Some(10.0));
        assert_eq!(quantile(&v[..21], 0.5), median(&v[..21]));
        assert_eq!(quantile(&v[..20], 0.25), Some(4.75));
        assert_eq!(quantile(&v[..15], 0.5), None);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
        let mut blocks = vec![(0..1000).map(f64::from).collect::<Vec<_>>(); 3];
        blocks[1].iter_mut().for_each(|v| *v *= 10.0);
        blocks[2].reverse();
        assert_eq!(median_of_blocks(&mut blocks, 0.5), Some(499.5));
        blocks[0].truncate(999);
        assert_eq!(
            median_of_blocks(&mut blocks, 0.99),
            None,
            "one block is too small for p99"
        );
    }
}
