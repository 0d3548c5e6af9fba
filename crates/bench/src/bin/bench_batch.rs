//! Regenerates `results/BENCH_batch.json`: answer-path throughput of the
//! engine in micro-batches vs in batches of one (the `unbatched` arms:
//! one question at a time through `Answerer::answer_cached`) over the
//! full three-database dev sweep, cold-cache and warm-cache, plus the
//! recorded PR 2 baseline the batched speedup is claimed against.
//!
//! The measurement is answers-only (no execution-accuracy checking) so it
//! isolates the inference path the batching optimises; the micro-batched
//! and batch-of-one answer strings are compared for byte equality over
//! the whole sweep, which both validates the determinism guarantee at
//! scale and keeps the two measured paths honest about doing the same
//! work.

use bench::{dataset, headline_profile, HarnessOpts};
use bull::{DbId, Lang, Split};
use finsql_core::cache::{Answerer, AnswerCache};
use finsql_core::metrics::EvalMetrics;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use std::time::Instant;

/// The unbatched cold-cache answer-path throughput recorded at the PR 2
/// head (commit a7fb7c9) on this machine, full three-database dev sweep.
const PR2_UNBATCHED_COLD_QPS: f64 = 455.2;
/// The same run with execution-accuracy checking (context: EX checking,
/// not inference, dominated the with-EX wall clock).
const PR2_WITH_EX_QPS: f64 = 107.5;
const PR2_EX: &str = "850/1000";

fn main() {
    let opts = HarnessOpts::from_args();
    let batch = opts.plan.batch.max(1);
    let ds = dataset();
    let system = FinSql::build(&ds, headline_profile(Lang::En), FinSqlConfig::standard(Lang::En));

    // The full dev sweep: every (db, question) pair, databases chunked
    // per db for the batched path.
    let per_db: Vec<(DbId, Vec<&str>)> = DbId::ALL
        .into_iter()
        .map(|db| {
            let qs =
                ds.examples_for(db, Split::Dev).into_iter().map(|e| e.question(Lang::En)).collect();
            (db, qs)
        })
        .collect();
    let total: usize = per_db.iter().map(|(_, qs)| qs.len()).sum();

    // Batches of one, cold then warm through one cache.
    let cache = AnswerCache::unbounded();
    let mut unbatched_answers: Vec<std::sync::Arc<str>> = Vec::with_capacity(total);
    let cold = Instant::now();
    for (db, qs) in &per_db {
        for q in qs {
            unbatched_answers.push(system.answer_cached(&cache, *db, q, None));
        }
    }
    let unbatched_cold = cold.elapsed();
    let warm = Instant::now();
    for (db, qs) in &per_db {
        for q in qs {
            system.answer_cached(&cache, *db, q, None);
        }
    }
    let unbatched_warm = warm.elapsed();

    // Batched, cold then warm through a fresh cache.
    let cache = AnswerCache::unbounded();
    let metrics = EvalMetrics::new();
    let mut batched_answers: Vec<std::sync::Arc<str>> = Vec::with_capacity(total);
    let cold = Instant::now();
    for (db, qs) in &per_db {
        for chunk in qs.chunks(batch) {
            batched_answers.extend(system.answer_batch_cached(&cache, *db, chunk, Some(&metrics)));
        }
    }
    let batched_cold = cold.elapsed();
    let warm = Instant::now();
    for (db, qs) in &per_db {
        for chunk in qs.chunks(batch) {
            system.answer_batch_cached(&cache, *db, chunk, Some(&metrics));
        }
    }
    let batched_warm = warm.elapsed();

    assert_eq!(
        unbatched_answers, batched_answers,
        "micro-batched answers must be byte-identical to batches of one"
    );
    let snap = metrics.snapshot();
    let qps = |wall: std::time::Duration| total as f64 / wall.as_secs_f64();
    let speedup_cold = qps(batched_cold) / qps(unbatched_cold);
    let speedup_vs_pr2 = qps(batched_cold) / PR2_UNBATCHED_COLD_QPS;

    println!("full dev sweep: {total} questions, batch size {batch}");
    println!("unbatched cold: {:>8.1} q/s  ({unbatched_cold:.2?})", qps(unbatched_cold));
    println!("unbatched warm: {:>8.1} q/s  ({unbatched_warm:.2?})", qps(unbatched_warm));
    println!("batched   cold: {:>8.1} q/s  ({batched_cold:.2?})", qps(batched_cold));
    println!("batched   warm: {:>8.1} q/s  ({batched_warm:.2?})", qps(batched_warm));
    println!(
        "micro-batches: {} (mean size {:.1}, max {}), amortised embeds {}",
        snap.batches,
        snap.mean_batch_size(),
        snap.max_batch,
        snap.amortised_embeds()
    );
    println!("speedup batched/unbatched (cold, this run): {speedup_cold:.2}x");
    println!("speedup vs PR 2 unbatched cold baseline ({PR2_UNBATCHED_COLD_QPS} q/s): {speedup_vs_pr2:.2}x");

    let json = format!(
        "{{\n  \"sweep\": {{\"questions\": {total}, \"per_db\": {{{}}}}},\n  \
         \"batch\": {batch},\n  \"threads\": 1,\n  \"runs\": {{\n    \
         \"unbatched_cold\": {{\"wall_secs\": {:.3}, \"questions_per_sec\": {:.1}}},\n    \
         \"unbatched_warm\": {{\"wall_secs\": {:.3}, \"questions_per_sec\": {:.1}}},\n    \
         \"batched_cold\": {{\"wall_secs\": {:.3}, \"questions_per_sec\": {:.1}}},\n    \
         \"batched_warm\": {{\"wall_secs\": {:.3}, \"questions_per_sec\": {:.1}}}\n  }},\n  \
         \"micro_batches\": {{\"count\": {}, \"mean_size\": {:.2}, \"max_size\": {}, \"amortised_embeds\": {}}},\n  \
         \"batched_equals_unbatched\": true,\n  \
         \"pr2_baseline\": {{\"commit\": \"a7fb7c9\", \"unbatched_cold_questions_per_sec\": {PR2_UNBATCHED_COLD_QPS}, \
         \"with_ex_questions_per_sec\": {PR2_WITH_EX_QPS}, \"ex\": \"{PR2_EX}\"}},\n  \
         \"speedup_cold_vs_pr2_unbatched\": {:.2},\n  \
         \"speedup_cold_this_run\": {:.2}\n}}\n",
        per_db
            .iter()
            .map(|(db, qs)| format!("\"{db}\": {}", qs.len()))
            .collect::<Vec<_>>()
            .join(", "),
        unbatched_cold.as_secs_f64(),
        qps(unbatched_cold),
        unbatched_warm.as_secs_f64(),
        qps(unbatched_warm),
        batched_cold.as_secs_f64(),
        qps(batched_cold),
        batched_warm.as_secs_f64(),
        qps(batched_warm),
        snap.batches,
        snap.mean_batch_size(),
        snap.max_batch,
        snap.amortised_embeds(),
        speedup_vs_pr2,
        speedup_cold,
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_batch.json", json).expect("write BENCH_batch.json");
    println!("wrote results/BENCH_batch.json");
}
