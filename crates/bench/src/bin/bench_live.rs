//! Regenerates `results/BENCH_live.json`: the cost profile of the
//! live-data append path. Three measurements per epoch, differential
//! against a cold shadow engine the whole way:
//!
//! * **insert throughput** — rows/s through the validated
//!   `Database::apply_changes` path (schema + FK checks + WAL logging);
//! * **incremental vs rebuild refresh** — wall time for the live
//!   engine's `absorb_appends` (WAL-tail absorption into the value
//!   index) vs the shadow's `rebuild_data` (from-scratch rebuild after
//!   replaying the log), plus the post-refresh answer latency of both
//!   engines — byte-compared, so the speedup is proven answer-neutral;
//! * **warm-hit rate across epochs** — a shared answer cache re-serves
//!   the same dev slice twice per epoch; the first pass after every
//!   append must miss (the epoch re-keys the cache) and the second must
//!   hit, so the expected steady-state rate is 50%.

use bench::{dataset, headline_profile};
use bull::{BullDataset, DbId, Lang, Split};
use finsql_core::cache::{Answerer, AnswerCache};
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use std::time::{Duration, Instant};

const EPOCH_ROUNDS: usize = 4;
const ROWS_PER_TABLE: usize = 8;
const QUESTIONS_PER_DB: usize = 12;

fn main() {
    let mut ds = dataset();
    let mut cold_ds = BullDataset::generate(bench::SEED);
    let config = FinSqlConfig::standard(Lang::En);
    let mut live = FinSql::build(&ds, headline_profile(Lang::En), config);
    let mut cold = FinSql::build(&cold_ds, headline_profile(Lang::En), config);

    let slate: Vec<(DbId, String)> = DbId::ALL
        .into_iter()
        .flat_map(|db| {
            ds.examples_for(db, Split::Dev)
                .into_iter()
                .take(QUESTIONS_PER_DB)
                .map(move |e| (db, e.question(Lang::En).to_string()))
                .collect::<Vec<_>>()
        })
        .collect();

    let cache = AnswerCache::unbounded();
    let mut rows_appended = 0usize;
    let mut records_appended = 0usize;
    let mut insert_wall = Duration::ZERO;
    let mut absorb_wall = Duration::ZERO;
    let mut rebuild_wall = Duration::ZERO;
    let mut live_answer_wall = Duration::ZERO;
    let mut cold_answer_wall = Duration::ZERO;
    let mut answers_timed = 0usize;

    for round in 1..=EPOCH_ROUNDS {
        // Validated insert path: schema + FK checks, WAL append, epoch
        // bump — timed per row.
        for db in DbId::ALL {
            let ticks = ds.mint_ticks(db, 0xBE9C_u64.wrapping_add(round as u64), ROWS_PER_TABLE);
            records_appended += ticks.len();
            rows_appended += ticks.iter().map(|(_, r)| r.len()).sum::<usize>();
            let t = Instant::now();
            ds.db_mut(db).apply_changes(ticks).expect("minted ticks are valid");
            insert_wall += t.elapsed();

            // Incremental refresh on the live engine.
            let t = Instant::now();
            live.absorb_appends(db, ds.db(db));
            absorb_wall += t.elapsed();

            // From-scratch refresh on the shadow: replay the log, then
            // rebuild the data-derived artifacts (timed — the cost the
            // incremental path avoids).
            cold_ds.db_mut(db).replay(ds.db(db).change_log()).expect("replay");
            let t = Instant::now();
            cold.rebuild_data(db, cold_ds.db(db));
            rebuild_wall += t.elapsed();
        }
        assert_eq!(
            live.config_fingerprint(),
            cold.config_fingerprint(),
            "incremental and rebuilt engines diverged at round {round}"
        );

        // Post-insert answer latency, incremental vs rebuilt — byte-
        // compared so both engines demonstrably answer from the same
        // data state. The engine that answers first alternates per
        // question: the second call runs warm behind the first, and a
        // fixed order would bill that to one engine.
        for (i, (db, q)) in slate.iter().enumerate() {
            let timed = |engine: &FinSql, wall: &mut Duration| {
                let t = Instant::now();
                let answer = engine.answer_fresh(*db, q, None);
                *wall += t.elapsed();
                answer
            };
            let (a, b) = if i % 2 == 0 {
                let a = timed(&live, &mut live_answer_wall);
                (a, timed(&cold, &mut cold_answer_wall))
            } else {
                let b = timed(&cold, &mut cold_answer_wall);
                (timed(&live, &mut live_answer_wall), b)
            };
            assert_eq!(a, b, "post-insert answers diverged ({db}: {q})");
            answers_timed += 1;
        }

        // Two cached passes per epoch through the shared cache: the
        // append re-keyed everything, so pass 1 misses and pass 2 hits.
        for (db, q) in &slate {
            live.answer_cached(&cache, *db, q, None);
        }
        for (db, q) in &slate {
            live.answer_cached(&cache, *db, q, None);
        }
    }

    let stats = cache.stats();
    let hit_rate = stats.hit_rate();
    let inserts_per_sec = rows_appended as f64 / insert_wall.as_secs_f64();
    let per_answer =
        |wall: Duration| wall.as_secs_f64() * 1e6 / answers_timed.max(1) as f64;
    let refresh_speedup = rebuild_wall.as_secs_f64() / absorb_wall.as_secs_f64().max(1e-9);

    println!(
        "{EPOCH_ROUNDS} epoch rounds: {records_appended} change records, {rows_appended} rows"
    );
    println!("insert path: {inserts_per_sec:>10.0} rows/s  ({insert_wall:.2?} total)");
    println!(
        "refresh:     incremental {absorb_wall:.2?} vs rebuild {rebuild_wall:.2?}  \
         ({refresh_speedup:.1}x)"
    );
    println!(
        "post-insert answer latency: incremental engine {:.1} us, rebuilt engine {:.1} us \
         (byte-identical answers)",
        per_answer(live_answer_wall),
        per_answer(cold_answer_wall)
    );
    println!(
        "warm-hit rate across epochs: {:.1}% ({} hits / {} misses; expected 50% — every \
         epoch bump forces one cold pass)",
        hit_rate * 100.0,
        stats.hits,
        stats.misses
    );
    assert_eq!(
        stats.hits,
        (EPOCH_ROUNDS * slate.len()) as u64,
        "exactly one warm pass per epoch must hit"
    );

    let json = format!(
        "{{\n  \"epoch_rounds\": {EPOCH_ROUNDS},\n  \"rows_per_table\": {ROWS_PER_TABLE},\n  \
         \"appends\": {{\"change_records\": {records_appended}, \"rows\": {rows_appended}, \
         \"rows_per_sec\": {inserts_per_sec:.0}}},\n  \
         \"refresh\": {{\"incremental_secs\": {:.6}, \"rebuild_secs\": {:.6}, \
         \"rebuild_over_incremental\": {refresh_speedup:.2}}},\n  \
         \"post_insert_answer_latency_us\": {{\"incremental\": {:.1}, \"rebuilt\": {:.1}, \
         \"byte_identical\": true}},\n  \
         \"cache_across_epochs\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \
         \"stale_hits\": 0}}\n}}\n",
        absorb_wall.as_secs_f64(),
        rebuild_wall.as_secs_f64(),
        per_answer(live_answer_wall),
        per_answer(cold_answer_wall),
        stats.hits,
        stats.misses,
        hit_rate,
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_live.json", json).expect("write BENCH_live.json");
    println!("wrote results/BENCH_live.json");
}
