//! Skew-aware serving-traffic harness: an open-loop workload generator
//! simulating a large synthetic user base drawing Zipf-skewed questions
//! across all three databases, driven through the full coalescing
//! [`BatchScheduler`] path against a capacity-bounded [`AnswerCache`].
//!
//! The harness exists to measure the cache's segmented-LRU eviction with
//! TinyLFU admission under realistic skew, so it is built around two
//! invariants the rest of the suite proves and this module re-checks end
//! to end:
//!
//! 1. **Eviction and admission can only change hit or miss, never an
//!    answer.** Every served answer is compared byte-for-byte against a
//!    fresh uncached reference minted before the run; a mismatch counts
//!    as a stale hit and fails the run.
//! 2. **Determinism.** The request schedule is minted once per skew
//!    setting from a seeded RNG (the same `seed → stream` discipline as
//!    `FinSql::question_rng`), so a run replays the same requests.

use bull::{BullDataset, DbId, Lang, Split};
use finsql_core::batch::{BatchConfig, BatchScheduler};
use finsql_core::cache::{AnswerCache, Answerer};
use finsql_core::metrics::{EvalMetrics, HistogramSnapshot};
use finsql_core::pipeline::FinSql;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Inverse-CDF Zipf sampler over ranks `0..n`: rank `r` is drawn with
/// probability proportional to `1/(r+1)^s`. The vendored `rand` has no
/// Zipf distribution, so the cumulative weights are precomputed once and
/// each draw is a uniform `f64` plus a binary search — deterministic
/// given a seeded RNG.
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf population must be non-empty");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draws one rank in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let r: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c <= r).min(self.cdf.len() - 1)
    }
}

/// One traffic scenario: `requests` draws from a Zipf(s) distribution
/// over a `population` of unique questions, submitted by `submitters`
/// concurrent threads impersonating users drawn uniformly from a
/// `user_space`-sized id space, against a cache capped at `capacity`
/// entries.
#[derive(Debug, Clone, Copy)]
pub struct TrafficSpec {
    pub s: f64,
    pub population: usize,
    pub requests: usize,
    pub capacity: usize,
    pub submitters: usize,
    pub batch: usize,
    pub user_space: u64,
    pub seed: u64,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        TrafficSpec {
            s: 1.0,
            population: 4096,
            requests: 30_000,
            capacity: 512,
            submitters: 4,
            batch: 8,
            user_space: 10_000_000,
            seed: 0x51C0_FFEE,
        }
    }
}

/// The unique-question universe: the three dev sets round-robin
/// interleaved (so the Zipf head spans all databases), extended past the
/// dev sets with deterministic `(variant k)` paraphrase suffixes — the
/// pipeline answers any question string deterministically, so variants
/// are as legitimate as dev questions and blow the population up to
/// whatever multiple of the cache capacity the scenario asks for.
pub fn build_population(ds: &BullDataset, lang: Lang, population: usize) -> Vec<(DbId, String)> {
    let per_db: Vec<Vec<String>> = DbId::ALL
        .into_iter()
        .map(|db| {
            ds.examples_for(db, Split::Dev)
                .into_iter()
                .map(|e| e.question(lang).to_string())
                .collect()
        })
        .collect();
    let mut out = Vec::with_capacity(population);
    let mut k = 0usize;
    while out.len() < population {
        for (di, db) in DbId::ALL.into_iter().enumerate() {
            if out.len() >= population {
                break;
            }
            let dev = &per_db[di];
            let base = &dev[k % dev.len()];
            let variant = k / dev.len();
            let question = if variant == 0 {
                base.clone()
            } else {
                format!("{base} (variant {variant})")
            };
            out.push((db, question));
        }
        k += 1;
    }
    out
}

/// Fresh uncached reference answers for the whole population — the byte
/// standard every cached/scheduled answer is checked against.
pub fn reference_answers(system: &FinSql, population: &[(DbId, String)]) -> Vec<String> {
    population.iter().map(|(db, q)| system.answer_fresh(*db, q, None)).collect()
}

/// A minted request schedule: `questions[i]` is the population index of
/// request `i`.
pub struct RequestStream {
    pub questions: Vec<u32>,
    /// Distinct synthetic users that issued the requests.
    pub distinct_users: usize,
}

/// Mints the request schedule for a spec: each request draws a user
/// uniformly from the id space and a question rank from Zipf(s).
pub fn request_stream(spec: &TrafficSpec) -> RequestStream {
    let zipf = ZipfSampler::new(spec.population, spec.s);
    // Seed folds in the skew bits so each s gets its own stream, same
    // discipline as the per-question RNG seeding in the pipeline.
    let mut rng = StdRng::seed_from_u64(spec.seed ^ spec.s.to_bits());
    let mut users: HashSet<u64> = HashSet::new();
    let mut questions = Vec::with_capacity(spec.requests);
    for _ in 0..spec.requests {
        users.insert(rng.gen_range(0..spec.user_space));
        questions.push(zipf.sample(&mut rng) as u32);
    }
    RequestStream { questions, distinct_users: users.len() }
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    pub hits: u64,
    pub misses: u64,
    pub admission_rejected: u64,
    pub evictions: u64,
    pub entries: usize,
    pub protected_entries: usize,
    /// Answers that did not match the fresh reference byte-for-byte. A
    /// cache serving across a key boundary shows up here; must be 0.
    pub stale_hits: u64,
    pub wall: Duration,
    pub latency: HistogramSnapshot,
    /// Two lookups of the hottest resident key returned the same `Arc`
    /// allocation (a hit is a refcount bump, not a copy).
    pub hit_is_refcount_bump: bool,
}

impl PolicyOutcome {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    pub fn byte_identical(&self) -> bool {
        self.stale_hits == 0
    }

    pub fn throughput_qps(&self, requests: usize) -> f64 {
        requests as f64 / self.wall.as_secs_f64()
    }
}

/// Replays one minted schedule through the full scheduler path against a
/// fresh cache capped at `spec.capacity`: `submitters` threads submit
/// concurrently, each hit is answered at submission, workers coalesce
/// the misses into micro-batches, and each miss's latency (queue wait +
/// compute) lands in the metrics histogram. Every answer is checked
/// against `refs`.
pub fn run_policy(
    engine: &Arc<FinSql>,
    population: &[(DbId, String)],
    refs: &[String],
    stream: &RequestStream,
    spec: &TrafficSpec,
) -> PolicyOutcome {
    let cache = Arc::new(AnswerCache::with_capacity(spec.capacity));
    let metrics = Arc::new(EvalMetrics::new());
    let stale = AtomicU64::new(0);
    let next = AtomicUsize::new(0);
    let wall = Instant::now();
    {
        let scheduler = BatchScheduler::new(
            Arc::clone(engine),
            Some(Arc::clone(&cache)),
            Some(Arc::clone(&metrics)),
            BatchConfig {
                max_batch: spec.batch.max(1),
                workers: spec.submitters.max(1),
                queue_cap: 256,
            },
        );
        crossbeam::scope(|scope| {
            for _ in 0..spec.submitters.max(1) {
                scope.spawn(|_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= stream.questions.len() {
                        break;
                    }
                    let qi = stream.questions[i] as usize;
                    let (db, question) = &population[qi];
                    let answer = scheduler.answer(*db, question);
                    if *answer != refs[qi] {
                        stale.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        })
        // INVARIANT: scope() only errs when a submitter panicked, which
        // is a harness failure by design.
        .expect("traffic submitter panicked");
    }
    let wall = wall.elapsed();
    let stats = cache.stats();

    // Allocation-free-hit probe: the hottest rank is all but guaranteed
    // resident after a Zipf run; two lookups must share one allocation.
    let (db, question) = &population[0];
    let fingerprint = engine.config_fingerprint();
    let a = cache.get(*db, question, fingerprint);
    let b = cache.get(*db, question, fingerprint);
    let hit_is_refcount_bump = match (a, b) {
        (Some(a), Some(b)) => Arc::ptr_eq(&a, &b),
        _ => false,
    };

    PolicyOutcome {
        hits: stats.hits,
        misses: stats.misses,
        admission_rejected: stats.admission_rejected,
        evictions: stats.evictions,
        entries: stats.entries,
        protected_entries: stats.protected_entries,
        stale_hits: stale.into_inner(),
        wall,
        latency: metrics.snapshot().latency,
        hit_is_refcount_bump,
    }
}

/// Proves the no-clone key-interning invariant end to end: a question
/// submitted to the scheduler as an `Arc<str>` must reach the cache key
/// as *that same allocation* (`Arc::ptr_eq`), not a byte copy — the
/// submit-time allocation rides the queue, the mixed-batch path and the
/// cache fill untouched. Runs against a fresh unbounded cache so TinyLFU
/// admission (which only engages at a capacity cap) cannot decline the
/// insert. Returns whether the invariant held.
pub fn key_interning_probe(engine: &Arc<FinSql>) -> bool {
    let cache = Arc::new(AnswerCache::unbounded());
    let question: Arc<str> = Arc::from("key interning probe: list all fund names");
    let answer = {
        let mut scheduler = BatchScheduler::new(
            Arc::clone(engine),
            Some(Arc::clone(&cache)),
            None,
            BatchConfig::default(),
        );
        let Ok(ticket) = scheduler.try_submit(DbId::Fund, Arc::clone(&question)) else {
            return false;
        };
        let answer = ticket.wait();
        scheduler.shutdown();
        answer
    };
    if *answer != engine.answer_fresh(DbId::Fund, &question, None) {
        return false; // never trade correctness for allocation savings
    }
    let fingerprint = engine.config_fingerprint();
    match cache.interned_key(DbId::Fund, &question, fingerprint) {
        Some(key) => Arc::ptr_eq(&key, &question),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sampler_is_skewed_and_deterministic() {
        let zipf = ZipfSampler::new(100, 1.0);
        let draw = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..2000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed must replay the same stream");
        let head = a.iter().filter(|&&r| r < 10).count();
        assert!(head > 800, "Zipf(1.0) head (top 10/100) drew only {head}/2000");
        assert!(a.iter().all(|&r| r < 100));
    }

    #[test]
    fn steeper_skew_concentrates_the_head() {
        let mut heads = Vec::new();
        for s in [0.8, 1.2] {
            let zipf = ZipfSampler::new(1000, s);
            let mut rng = StdRng::seed_from_u64(11);
            let head =
                (0..4000).map(|_| zipf.sample(&mut rng)).filter(|&r| r < 20).count();
            heads.push(head);
        }
        assert!(heads[1] > heads[0], "s=1.2 must concentrate more than s=0.8: {heads:?}");
    }

    #[test]
    fn request_stream_is_deterministic_and_covers_users() {
        let spec = TrafficSpec { requests: 5000, population: 64, ..TrafficSpec::default() };
        let a = request_stream(&spec);
        let b = request_stream(&spec);
        assert_eq!(a.questions, b.questions);
        assert_eq!(a.distinct_users, b.distinct_users);
        // 5000 draws from a 10M id space collide rarely.
        assert!(a.distinct_users > 4900, "only {} distinct users", a.distinct_users);
        let different = request_stream(&TrafficSpec { s: 1.2, ..spec });
        assert_ne!(a.questions, different.questions, "each skew gets its own stream");
    }
}
