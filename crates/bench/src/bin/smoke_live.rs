//! CI smoke run for the live-data append path: drives the packaged
//! differential scenario (`finsql_core::live::evaluate_ex_live`) at the
//! acceptance scale — a 200+-question dev slice interleaved with 50+
//! appended rows — and exits non-zero unless every served answer
//! (fresh, cached, micro-batched, and scheduler paths) is byte-identical
//! to a cold engine rebuilt from the replayed change log at the same
//! epoch, every post-append cache pass starts cold, and every warm pass
//! is served entirely from cache. The scenario itself asserts all of
//! that internally; this binary pins the scale and prints the evidence.

use bench::{dataset, headline_profile, HarnessOpts};
use bull::Lang;
use finsql_core::live::{evaluate_ex_live, LiveConfig};
use finsql_core::metrics::EvalMetrics;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use std::time::Instant;

fn main() {
    let opts = HarnessOpts::from_args();
    let mut ds = dataset();
    let system = FinSql::build(&ds, headline_profile(Lang::En), FinSqlConfig::standard(Lang::En));
    let cfg = LiveConfig {
        epochs: 3,
        rows_per_table: 3,
        questions_per_db: 20,
        tick_seed: 0x71C5,
        batch: if opts.plan.batch == 0 { 3 } else { opts.plan.batch },
        workers: if opts.plan.workers == 0 { 2 } else { opts.plan.workers },
    };
    let metrics = EvalMetrics::new();
    let wall = Instant::now();
    let (_system, outcome) = evaluate_ex_live(&mut ds, system, bench::SEED, &cfg, Some(&metrics));
    let wall = wall.elapsed();

    let mut fresh_serves = 0usize;
    for (round, r) in outcome.rounds.iter().enumerate() {
        println!(
            "round {round}: epochs {:?}  EX {}/{}  served {}  cache first-pass hits {}  \
             second-pass hits {}",
            r.epochs, r.ex.correct, r.ex.total, r.served, r.first_pass_hits, r.second_pass_hits
        );
        fresh_serves += r.ex.total;
    }
    let snap = metrics.snapshot();
    println!(
        "totals: {} answers served across 4 paths, {} change records / {} rows appended, \
         {:.2?} wall",
        outcome.served, outcome.change_records, outcome.appended_rows, wall
    );
    println!(
        "metrics: {} live appends ({} rows), cache {} hits / {} misses",
        snap.live_appends, snap.live_rows, snap.cache_hits, snap.cache_misses
    );

    // The acceptance bar: a 200+-question slice interleaved with >= 50
    // inserted rows, all four serving paths differential-checked (the
    // scenario already asserted byte-identity at every epoch).
    assert!(fresh_serves >= 200, "only {fresh_serves} questions scored — need 200+");
    assert!(
        outcome.appended_rows >= 50,
        "only {} rows appended — need 50+",
        outcome.appended_rows
    );
    assert_eq!(snap.live_appends, outcome.change_records as u64);
    assert_eq!(snap.live_rows, outcome.appended_rows as u64);
    println!("smoke_live: OK");
}
