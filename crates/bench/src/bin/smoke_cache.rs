//! CI smoke run for the answer cache: evaluate a slice of the dev sets
//! twice through one cache and assert a non-zero hit rate, identical EX
//! counts, and zero evictions on the unbounded cache. Exits non-zero on
//! any violation, so CI catches a cache that silently stops hitting.

use bench::{dataset, headline_profile, HarnessOpts};
use bull::Lang;
use finsql_core::cache::{Answerer, AnswerCache};
use finsql_core::eval::{evaluate_ex, EvalPlan};
use finsql_core::metrics::EvalMetrics;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use std::time::Instant;

const PER_DB: usize = 25;

fn main() {
    let opts = HarnessOpts::from_args();
    let ds = dataset();
    let system = FinSql::build(&ds, headline_profile(Lang::En), FinSqlConfig::standard(Lang::En));
    // `--no-cache` is meaningless here: the smoke always runs a cache.
    let cache = AnswerCache::with_capacity(opts.cache_cap);
    println!("cache capacity {}", opts.cache_cap);
    let plan = EvalPlan { batch: 1, limit_per_db: Some(PER_DB), ..opts.plan };
    let mut passes = Vec::new();
    for pass in 0..2 {
        let metrics = EvalMetrics::new();
        let wall = Instant::now();
        let outcome = evaluate_ex(&ds, Lang::En, plan, |db, qs| {
            qs.iter().map(|q| system.answer_cached(&cache, db, q, Some(&metrics))).collect()
        });
        let wall = wall.elapsed();
        let snap = metrics.snapshot();
        println!(
            "pass {pass}: EX {}/{}  {:.1} questions/sec  cache hit rate {:.1}%",
            outcome.pooled().correct,
            outcome.pooled().total,
            snap.questions_per_sec(wall),
            snap.cache_hit_rate() * 100.0
        );
        passes.push((outcome, snap));
    }
    let stats = cache.stats();
    println!(
        "cache: {} hits / {} misses / {} inserts / {} evictions / {} entries",
        stats.hits, stats.misses, stats.inserts, stats.evictions, stats.entries
    );
    assert_eq!(passes[0].0, passes[1].0, "warm pass must reproduce cold EX counts exactly");
    // A cap below the working set may evict every entry between passes,
    // so only demand hits when the whole slice fits.
    if opts.cache_cap == 0 || opts.cache_cap >= 3 * PER_DB {
        assert!(stats.hits > 0, "repeated questions produced no cache hits");
    }
    if opts.cache_cap == 0 {
        assert_eq!(
            passes[1].1.cache_hits,
            (3 * PER_DB) as u64,
            "every second-pass question must be a cache hit"
        );
        assert_eq!(stats.evictions, 0, "the unbounded cache must never evict");
        assert_eq!(stats.entries, stats.inserts as usize);
    }
    println!("smoke_cache: OK");
}
