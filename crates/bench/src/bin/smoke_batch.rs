//! CI smoke run for the batched answer engine: evaluate a slice of the
//! dev sets in batches of one and in micro-batches and assert the
//! per-database EX counts are identical (batching cannot change an
//! answer), then run the same slice twice through a [`BatchScheduler`]
//! with cache-first routing and assert the warm pass reproduces the cold
//! counts from the cache. Exits non-zero on any violation, so CI catches
//! a micro-batch that drifts from the batch-of-one reference.

use bench::{dataset, headline_profile, HarnessOpts};
use bull::{DbId, Lang};
use finsql_core::batch::{BatchConfig, BatchScheduler};
use finsql_core::cache::AnswerCache;
use finsql_core::eval::{evaluate_ex, EvalPlan};
use finsql_core::metrics::EvalMetrics;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use std::sync::Arc;
use std::time::Instant;

const PER_DB: usize = 25;

fn main() {
    let opts = HarnessOpts::from_args();
    // The batched pass must actually coalesce, so batch 0 or 1 means 8.
    let batch = if opts.plan.batch > 1 { opts.plan.batch } else { 8 };
    let one = EvalPlan { batch: 1, limit_per_db: Some(PER_DB), ..opts.plan };
    let ds = dataset();
    let system = FinSql::build(&ds, headline_profile(Lang::En), FinSqlConfig::standard(Lang::En));

    // Batch-of-one reference pass.
    let wall = Instant::now();
    let unbatched = evaluate_ex(&ds, Lang::En, one, |db, qs| system.answer_batch(db, qs));
    let unbatched_wall = wall.elapsed();

    // Micro-batched pass over the same slice.
    let metrics = EvalMetrics::new();
    let wall = Instant::now();
    let batched = evaluate_ex(&ds, Lang::En, EvalPlan { batch, ..one }, |db, qs| {
        system.answer_batch_with_metrics(db, qs, Some(&metrics))
    });
    let batched_wall = wall.elapsed();
    let snap = metrics.snapshot();
    let n = unbatched.pooled().total as f64;
    println!(
        "batches of one: EX {}/{}  {:.1} questions/sec",
        unbatched.pooled().correct,
        unbatched.pooled().total,
        n / unbatched_wall.as_secs_f64()
    );
    println!(
        "batched (--batch {batch}): EX {}/{}  {:.1} questions/sec  \
         {} micro-batches (mean size {:.1}, max {}), {} amortised embeds",
        batched.pooled().correct,
        batched.pooled().total,
        n / batched_wall.as_secs_f64(),
        snap.batches,
        snap.mean_batch_size(),
        snap.max_batch,
        snap.amortised_embeds()
    );
    for db in DbId::ALL {
        assert_eq!(
            unbatched.outcome(db),
            batched.outcome(db),
            "{db}: batched EX counts must equal the batch-of-one reference"
        );
    }
    assert!(snap.batches > 0, "the batched pass must actually batch");
    assert!(snap.max_batch > 1, "micro-batches never coalesced more than one question");

    // Scheduler front-end: cold pass fills the cache, warm pass must be
    // served from it with identical counts.
    let system = Arc::new(system);
    let cache = Arc::new(AnswerCache::unbounded());
    let sched_metrics = Arc::new(EvalMetrics::new());
    let scheduler = BatchScheduler::new(
        Arc::clone(&system),
        Some(Arc::clone(&cache)),
        Some(Arc::clone(&sched_metrics)),
        BatchConfig { max_batch: batch, ..BatchConfig::default() },
    );
    let mut passes = Vec::new();
    for pass in 0..2 {
        let wall = Instant::now();
        let outcome = evaluate_ex(&ds, Lang::En, one, |db, qs| {
            qs.iter().map(|q| scheduler.answer(db, q)).collect()
        });
        let wall = wall.elapsed();
        println!(
            "scheduler pass {pass}: EX {}/{}  {:.1} questions/sec",
            outcome.pooled().correct,
            outcome.pooled().total,
            n / wall.as_secs_f64()
        );
        passes.push(outcome);
    }
    assert_eq!(passes[0], unbatched, "scheduler answers must equal the batch-of-one reference");
    assert_eq!(passes[0], passes[1], "warm scheduler pass must reproduce cold EX counts");
    let stats = cache.stats();
    println!(
        "cache: {} hits / {} misses / {} entries",
        stats.hits, stats.misses, stats.entries
    );
    assert!(stats.hits >= (3 * PER_DB) as u64, "warm pass must be served from the cache");
    drop(scheduler);
    println!("smoke_batch: OK");
}
