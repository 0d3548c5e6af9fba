//! Regenerates `results/BENCH_gen.json`: generation-stage throughput of
//! the full prototype-matrix sweep, plus the cold/warm end-to-end answer
//! path, over the full three-database dev sweep.

use bench::{dataset, headline_profile, HarnessOpts};
use bull::{DbId, Lang, Split};
use finsql_core::cache::AnswerCache;
use finsql_core::metrics::EvalMetrics;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use simllm::{GenConfig, SqlGenerator};
use std::time::Instant;

/// The batched cold-cache answer-path throughput recorded at the PR 4
/// head (commit 6d72340) on this machine, full three-database dev sweep
/// (`results/BENCH_link.json` history; EXPERIMENTS.md). The issue's
/// acceptance bar is >= 2x this figure.
const PR4_BATCHED_COLD_QPS: f64 = 1625.0;

fn main() {
    let opts = HarnessOpts::from_args();
    let batch = if opts.plan.batch == 0 { 8 } else { opts.plan.batch };
    let ds = dataset();
    let system = FinSql::build(&ds, headline_profile(Lang::En), FinSqlConfig::standard(Lang::En));
    let cfg = GenConfig {
        n_samples: system.config.n_candidates,
        temperature: system.config.temperature,
        skeleton_temperature: None,
    };

    // --- End-to-end: batched answer path, cold then warm. ---
    // Runs first: the cold measurement must not inherit warmed-up
    // allocators, branch predictors, or tokenisation memos from the
    // stage sweep below.
    let cache = AnswerCache::unbounded();
    let metrics = EvalMetrics::new();
    let per_db: Vec<(DbId, Vec<&str>)> = DbId::ALL
        .into_iter()
        .map(|db| {
            let qs =
                ds.examples_for(db, Split::Dev).into_iter().map(|e| e.question(Lang::En)).collect();
            (db, qs)
        })
        .collect();
    let cold = Instant::now();
    for (db, qs) in &per_db {
        for chunk in qs.chunks(batch) {
            system.answer_batch_cached(&cache, *db, chunk, Some(&metrics));
        }
    }
    let cold = cold.elapsed();
    let warm = Instant::now();
    for (db, qs) in &per_db {
        for chunk in qs.chunks(batch) {
            system.answer_batch_cached(&cache, *db, chunk, Some(&metrics));
        }
    }
    let warm = warm.elapsed();

    // --- Stage sweep: per-question generation over the linked prompt
    // schemas, per database, under each question's own RNG. ---
    let mut total = 0usize;
    let mut full_secs = 0.0f64;
    let mut per_db_counts: Vec<(DbId, usize)> = Vec::new();
    for db in DbId::ALL {
        let rt = system.runtime(db);
        let qs: Vec<&str> =
            ds.examples_for(db, Split::Dev).into_iter().map(|e| e.question(Lang::En)).collect();
        let linked = system.linker.link_batch(&qs, &rt.link_matrix);
        let schemas: Vec<_> = linked
            .iter()
            .map(|l| l.project(&rt.schema, system.config.k_tables, system.config.k_columns))
            .collect();
        let full_gen =
            SqlGenerator::with_matrix(&system.base, &rt.plugin, &rt.matrix, system.profile);

        let t = Instant::now();
        let out: Vec<Vec<String>> = qs
            .iter()
            .zip(&schemas)
            .map(|(q, s)| {
                let mut rng = system.question_rng(db, q);
                full_gen.generate(q, s, &rt.values, cfg, &mut rng)
            })
            .collect();
        full_secs += t.elapsed().as_secs_f64();
        std::hint::black_box(out);

        total += qs.len();
        per_db_counts.push((db, qs.len()));
    }

    let gen_qps = |secs: f64| total as f64 / secs;
    let cold_qps = total as f64 / cold.as_secs_f64();
    let warm_qps = total as f64 / warm.as_secs_f64();
    let speedup_vs_pr4 = cold_qps / PR4_BATCHED_COLD_QPS;

    println!("full dev sweep: {total} questions, batch size {batch}");
    println!(
        "generation full sweep:  {:>9.1} q/s  ({:.1} us/q)",
        gen_qps(full_secs),
        1e6 * full_secs / total as f64
    );
    println!("end-to-end batched cold: {cold_qps:>8.1} q/s  ({cold:.2?})");
    println!("end-to-end batched warm: {warm_qps:>8.1} q/s  ({warm:.2?})");
    println!(
        "speedup vs PR 4 batched cold baseline ({PR4_BATCHED_COLD_QPS} q/s): {speedup_vs_pr4:.2}x"
    );

    let json = format!(
        "{{\n  \"sweep\": {{\"questions\": {total}, \"per_db\": {{{}}}}},\n  \
         \"batch\": {batch},\n  \"threads\": 1,\n  \"generation_stage\": {{\n    \
         \"full_sweep\": {{\"wall_secs\": {:.4}, \"questions_per_sec\": {:.1}}}\n  }},\n  \
         \"answer_path\": {{\n    \
         \"batched_cold\": {{\"wall_secs\": {:.3}, \"questions_per_sec\": {:.1}}},\n    \
         \"batched_warm\": {{\"wall_secs\": {:.3}, \"questions_per_sec\": {:.1}}}\n  }},\n  \
         \"pr4_baseline\": {{\"commit\": \"6d72340\", \"batched_cold_questions_per_sec\": {PR4_BATCHED_COLD_QPS}}},\n  \
         \"speedup_cold_vs_pr4_batched\": {:.2}\n}}\n",
        per_db_counts
            .iter()
            .map(|(db, n)| format!("\"{db}\": {n}"))
            .collect::<Vec<_>>()
            .join(", "),
        full_secs,
        gen_qps(full_secs),
        cold.as_secs_f64(),
        cold_qps,
        warm.as_secs_f64(),
        warm_qps,
        speedup_vs_pr4,
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_gen.json", json).expect("write BENCH_gen.json");
    println!("wrote results/BENCH_gen.json");
}
