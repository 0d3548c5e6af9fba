//! What every workload shares: building the deployed engine, minting
//! reference answers, one live-append round, the cache replay that
//! times `AnswerCache` call by call, and the per-layer metrics read from
//! the engine's `EvalMetrics` sink and the cache's counters.

use crate::report::Report;
use crate::schedule;
use crate::trace::Tracer;
use bull::{BullDataset, DbId, Lang};
use finsql_core::cache::{AnswerCache, Answerer, CacheStats, ConfigFingerprint};
use finsql_core::metrics::{HistogramSnapshot, MetricsSnapshot};
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use sqlengine::Value;
use std::time::{Duration, Instant};

/// Rows `mint_ticks` appends to every leaf table of a database per round.
/// One row keeps a run's appends below the point (about 160 rows per
/// table) where value-index columns pass their distinct-value cap and
/// the refresh cost drops by steps, so every round does the same work.
const ROWS_PER_TABLE: usize = 1;

/// Live-append rounds per requested second of measurement. The round
/// count, not elapsed time, bounds a run: every append grows the data,
/// so the same seconds must mean the same appends.
const ROUNDS_PER_SEC: f64 = 8.0;

/// The append rounds of a run of `secs` seconds.
pub fn rounds(secs: f64) -> usize {
    ((secs * ROUNDS_PER_SEC).round() as usize).max(1)
}

/// Threads that mint reference answers (outside every timed region).
const REFERENCE_THREADS: usize = 2;

/// Generates the dataset and trains the deployed engine: English, the
/// LLaMA2-13B profile, `FinSqlConfig::standard`.
pub fn build() -> (BullDataset, FinSql) {
    let ds = bench::dataset();
    let engine = FinSql::build(
        &ds,
        bench::headline_profile(Lang::En),
        FinSqlConfig::standard(Lang::En),
    );
    (ds, engine)
}

/// Fresh per-question answers (`answer_fresh`, no cache, no batching) for
/// `questions`, computed on [`REFERENCE_THREADS`] threads.
pub fn references(engine: &FinSql, questions: &[(DbId, &str)]) -> Vec<String> {
    let chunk = questions.len().div_ceil(REFERENCE_THREADS).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = questions
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|(db, q)| engine.answer_fresh(*db, q, None))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("reference thread panicked"))
            .collect()
    })
}

/// The ticks of one round: one `mint_ticks` call per database.
pub type Ticks = Vec<(DbId, Vec<(String, Vec<Vec<Value>>)>)>;

pub fn mint_round(ds: &BullDataset, round: usize) -> (Ticks, u64) {
    let ticks: Ticks = DbId::ALL
        .into_iter()
        .map(|db| {
            (
                db,
                ds.mint_ticks(db, schedule::tick_seed(round, db.index()), ROWS_PER_TABLE),
            )
        })
        .collect();
    let rows = ticks
        .iter()
        .flat_map(|(_, c)| c)
        .map(|(_, r)| r.len() as u64)
        .sum();
    (ticks, rows)
}

/// Per-call timings of the append layers over a run.
#[derive(Default)]
pub struct AppendStats {
    /// Per round: first `apply_changes` call to last `absorb_appends` return.
    pub visible_ms: Vec<f64>,
    pub apply_ns: Vec<u64>,
    pub absorb_ns: Vec<u64>,
    pub rows_minted: u64,
    pub rejected: u64,
}

impl AppendStats {
    /// Applies one round's ticks and absorbs them, database by database.
    pub fn round(
        &mut self,
        ds: &mut BullDataset,
        engine: &mut FinSql,
        ticks: Ticks,
        tracer: &mut Tracer,
        round: u64,
    ) {
        let start = Instant::now();
        for (db, changes) in ticks {
            let t = Instant::now();
            let s = tracer.now();
            let applied = ds.db_mut(db).apply_changes(changes);
            tracer.child("sqlengine.apply_changes", round, s, tracer.now());
            self.apply_ns.push(t.elapsed().as_nanos() as u64);
            if applied.is_err() {
                self.rejected += 1;
            }
            let t = Instant::now();
            let s = tracer.now();
            engine.absorb_appends(db, ds.db(db));
            tracer.child("pipeline.absorb_appends", round, s, tracer.now());
            self.absorb_ns.push(t.elapsed().as_nanos() as u64);
        }
        self.visible_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    /// Median over rounds of the time until a round's appends are visible.
    pub fn visible_median_ms(&self) -> f64 {
        schedule::median(&self.visible_ms).unwrap_or(0.0)
    }

    /// Rows the change logs hold, which must equal the rows minted.
    pub fn rows_logged(ds: &BullDataset) -> u64 {
        DbId::ALL
            .into_iter()
            .flat_map(|db| ds.db(db).change_log().records())
            .map(|r| r.rows.len() as u64)
            .sum()
    }

    pub fn put(&self, r: &mut Report) {
        r.put("append.apply_us", mean(&self.apply_ns) / 1e3, "us");
        r.put("append.rows", self.rows_minted as f64, "count");
        r.put("append.absorb_ms", mean(&self.absorb_ns) / 1e6, "ms");
        r.put("append.visible_ms", self.visible_median_ms(), "ms");
    }
}

fn mean(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        ns.iter().map(|&n| n as f64).sum::<f64>() / ns.len() as f64
    }
}

/// One cache access in the order a run made it.
pub struct Access<'a> {
    pub db: DbId,
    pub question: &'a str,
    pub fingerprint: ConfigFingerprint,
    pub answer: &'a str,
}

/// Replays a run's access sequence against a fresh cache built by
/// `fresh`: a `get` per access and an `insert` after each miss, every
/// call timed on its own. Returns mean ns per `get` and per `insert`.
pub fn replay(fresh: impl FnOnce() -> AnswerCache, accesses: &[Access<'_>]) -> (f64, f64) {
    let cache = fresh();
    let (mut get_ns, mut gets, mut insert_ns, mut inserts) = (0u128, 0u64, 0u128, 0u64);
    for a in accesses {
        let t = Instant::now();
        let hit = cache.get(a.db, a.question, a.fingerprint);
        get_ns += t.elapsed().as_nanos();
        gets += 1;
        if std::hint::black_box(hit).is_none() {
            let t = Instant::now();
            let outcome = cache.insert(a.db, a.question, a.fingerprint, a.answer);
            insert_ns += t.elapsed().as_nanos();
            inserts += 1;
            std::hint::black_box(outcome);
        }
    }
    (
        get_ns as f64 / gets.max(1) as f64,
        insert_ns as f64 / inserts.max(1) as f64,
    )
}

/// `AnswerCache::stats` counters over a run: `after - before`.
pub fn put_cache(
    r: &mut Report,
    before: &CacheStats,
    after: &CacheStats,
    get_ns: f64,
    insert_ns: f64,
) {
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    let hits = after.hits - before.hits;
    r.put("cache.lookups", lookups as f64, "count");
    r.put(
        "cache.hit_rate",
        hits as f64 / lookups.max(1) as f64,
        "share",
    );
    r.put(
        "cache.inserts",
        (after.inserts - before.inserts) as f64,
        "count",
    );
    r.put(
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    );
    r.put(
        "cache.admission_rejected",
        (after.admission_rejected - before.admission_rejected) as f64,
        "count",
    );
    r.put("cache.get_ns", get_ns, "ns");
    r.put("cache.insert_ns", insert_ns, "ns");
}

/// The engine and batching metrics of an `EvalMetrics` sink. Stage
/// times are per question the engine computed (`engine.questions`).
/// `scheduled` is the number of requests that went through the
/// scheduler, the base of `batch.mixed_share`.
pub fn put_engine(r: &mut Report, m: &MetricsSnapshot, scheduled: u64) {
    let per_q = |d: Duration| d.as_secs_f64() * 1e6 / m.questions.max(1) as f64;
    r.put("engine.questions", m.questions as f64, "count");
    r.put("link.us_per_q", per_q(m.link_time), "us");
    r.put("gen.us_per_q", per_q(m.gen_time), "us");
    r.put("calibrate.us_per_q", per_q(m.calibrate_time), "us");
    r.put("gen.fallbacks", m.generator_fallbacks as f64, "count");
    r.put("calibrate.parse_failures", m.parse_failures as f64, "count");
    r.put("calibrate.repairs", m.repairs as f64, "count");
    r.put("batch.count", m.batches as f64, "count");
    r.put("batch.mean_size", m.mean_batch_size(), "count");
    r.put(
        "batch.mixed_share",
        m.mixed_batches as f64 / scheduled.max(1) as f64,
        "share",
    );
    r.put("batch.p50_ms", histogram_quantile(&m.latency, 0.50), "ms");
    r.put("batch.p99_ms", histogram_quantile(&m.latency, 0.99), "ms");
}

/// A quantile of a power-of-two histogram in ms, interpolated linearly
/// inside its bucket (bucket `i` holds `[2^i, 2^(i+1))` ns). 0 when the
/// histogram has fewer than ten samples beyond the quantile.
pub fn histogram_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    let total = h.count();
    if ((1.0 - q) * total as f64) < schedule::MIN_BEYOND as f64 {
        return 0.0;
    }
    let target = q * total as f64;
    let mut seen = 0u64;
    for (i, &c) in h.0.iter().enumerate() {
        if c > 0 && (seen + c) as f64 >= target {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = 2.0 * (1u64 << i) as f64;
            let frac = (target - seen as f64) / c as f64;
            return (lo + (hi - lo) * frac) / 1e6;
        }
        seen += c;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_interpolate_inside_the_bucket() {
        let mut h = HistogramSnapshot::default();
        h.0[20] = 1000; // [1.048576, 2.097152) ms
        let p50 = histogram_quantile(&h, 0.5);
        assert!((p50 - 1.572864).abs() < 1e-9, "{p50}");
        assert!(histogram_quantile(&h, 0.99) > p50);
        h.0[20] = 500;
        assert_eq!(histogram_quantile(&h, 0.99), 0.0, "p99 needs 1000 samples");
    }
}
