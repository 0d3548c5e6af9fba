//! Regenerates `results/BENCH_link.json`: schema-linking throughput of
//! the batched matrix sweep vs the per-question paths over the full
//! three-database dev sweep, plus the end-to-end answer-path throughput
//! with batched linking wired in, against the recorded PR 3 baseline.
//!
//! Two measurements, both over every dev question of every database:
//!
//! 1. *Linking only* — per-question serial `link` and one `link_batch`
//!    matrix sweep per database, with the two outputs asserted bitwise
//!    identical before any number is reported.
//! 2. *Full answer path* — `answer_batch_cached` cold and warm, the
//!    measurement `BENCH_batch.json` records, now with linking riding
//!    the precomputed schema feature matrix.

use bench::{dataset, headline_profile, HarnessOpts};
use bull::{DbId, Lang, Split};
use crossenc::LinkedSchema;
use finsql_core::cache::AnswerCache;
use finsql_core::metrics::EvalMetrics;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use std::time::{Duration, Instant};

/// The batched cold-cache answer-path throughput recorded at the PR 3
/// head (commit 3217b68) on this machine, full three-database dev sweep,
/// batch size 8 — linking still per-question inside the batch.
const PR3_BATCHED_COLD_QPS: f64 = 1119.0;

/// `(index, score-bits)` image of one ranking level — bitwise comparable.
type RankBits = Vec<(usize, u32)>;

fn bits(linked: &LinkedSchema) -> (RankBits, Vec<RankBits>) {
    let key = |v: &[(usize, f32)]| -> RankBits {
        v.iter().map(|(i, s)| (*i, s.to_bits())).collect()
    };
    (key(&linked.tables), linked.columns.iter().map(|c| key(c)).collect())
}

fn main() {
    let opts = HarnessOpts::from_args();
    let batch = if opts.plan.batch == 0 { 8 } else { opts.plan.batch };
    let ds = dataset();
    let system = FinSql::build(&ds, headline_profile(Lang::En), FinSqlConfig::standard(Lang::En));

    let per_db: Vec<(DbId, Vec<&str>)> = DbId::ALL
        .into_iter()
        .map(|db| {
            let qs =
                ds.examples_for(db, Split::Dev).into_iter().map(|e| e.question(Lang::En)).collect();
            (db, qs)
        })
        .collect();
    let total: usize = per_db.iter().map(|(_, qs)| qs.len()).sum();

    // 1. Linking-only sweep, two paths, asserted bitwise identical.
    let mut serial_wall = Duration::ZERO;
    let mut batched_wall = Duration::ZERO;
    for (db, qs) in &per_db {
        let rt = system.runtime(*db);
        let start = Instant::now();
        let serial: Vec<LinkedSchema> =
            qs.iter().map(|q| system.linker.link(q, &rt.views)).collect();
        serial_wall += start.elapsed();
        let start = Instant::now();
        let batched = system.linker.link_batch(qs, &rt.link_matrix);
        batched_wall += start.elapsed();
        for ((q, s), b) in qs.iter().zip(&serial).zip(&batched) {
            assert_eq!(bits(s), bits(b), "{db}: batched sweep diverged on {q:?}");
        }
    }
    let lps = |wall: Duration| total as f64 / wall.as_secs_f64().max(1e-9);
    println!("linking-only sweep: {total} questions");
    println!("  per-question serial:   {:>9.0} links/sec  ({serial_wall:.2?})", lps(serial_wall));
    println!("  batched matrix sweep:  {:>9.0} links/sec  ({batched_wall:.2?})", lps(batched_wall));
    let link_speedup = lps(batched_wall) / lps(serial_wall);
    println!("  speedup batched/serial: {link_speedup:.2}x");

    // 2. Full answer path, batched engine, cold then warm.
    let cache = AnswerCache::unbounded();
    let metrics = EvalMetrics::new();
    let cold = Instant::now();
    for (db, qs) in &per_db {
        for chunk in qs.chunks(batch) {
            system.answer_batch_cached(&cache, *db, chunk, Some(&metrics));
        }
    }
    let answer_cold = cold.elapsed();
    let warm = Instant::now();
    for (db, qs) in &per_db {
        for chunk in qs.chunks(batch) {
            system.answer_batch_cached(&cache, *db, chunk, Some(&metrics));
        }
    }
    let answer_warm = warm.elapsed();
    let qps = |wall: Duration| total as f64 / wall.as_secs_f64();
    let speedup_vs_pr3 = qps(answer_cold) / PR3_BATCHED_COLD_QPS;
    println!("answer path (batch size {batch}):");
    println!("  cold: {:>8.1} q/s  ({answer_cold:.2?})", qps(answer_cold));
    println!("  warm: {:>8.1} q/s  ({answer_warm:.2?})", qps(answer_warm));
    println!(
        "  vs PR 3 batched cold baseline ({PR3_BATCHED_COLD_QPS} q/s): {speedup_vs_pr3:.2}x"
    );
    let snap = metrics.snapshot();
    print!("{}", snap.report(answer_cold + answer_warm));

    let json = format!(
        "{{\n  \"sweep\": {{\"questions\": {total}, \"per_db\": {{{}}}}},\n  \
         \"batch\": {batch},\n  \"linking_only\": {{\n    \
         \"per_question_serial\": {{\"wall_secs\": {:.4}, \"links_per_sec\": {:.0}}},\n    \
         \"batched_matrix_sweep\": {{\"wall_secs\": {:.4}, \"links_per_sec\": {:.0}}},\n    \
         \"speedup_batched_vs_serial\": {:.2},\n    \
         \"bitwise_identical\": true\n  }},\n  \"answer_path\": {{\n    \
         \"batched_cold\": {{\"wall_secs\": {:.3}, \"questions_per_sec\": {:.1}}},\n    \
         \"batched_warm\": {{\"wall_secs\": {:.3}, \"questions_per_sec\": {:.1}}}\n  }},\n  \
         \"pr3_baseline\": {{\"commit\": \"3217b68\", \"batched_cold_questions_per_sec\": {PR3_BATCHED_COLD_QPS}}},\n  \
         \"speedup_cold_vs_pr3_batched\": {:.2}\n}}\n",
        per_db
            .iter()
            .map(|(db, qs)| format!("\"{db}\": {}", qs.len()))
            .collect::<Vec<_>>()
            .join(", "),
        serial_wall.as_secs_f64(),
        lps(serial_wall),
        batched_wall.as_secs_f64(),
        lps(batched_wall),
        link_speedup,
        answer_cold.as_secs_f64(),
        qps(answer_cold),
        answer_warm.as_secs_f64(),
        qps(answer_warm),
        speedup_vs_pr3,
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_link.json", json).expect("write BENCH_link.json");
    println!("wrote results/BENCH_link.json");
}
