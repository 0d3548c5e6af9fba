//! CI smoke run for the skew-aware cache: a small Zipf(s=1.0) traffic
//! replay through the scheduler against a capped SLRU+TinyLFU cache.
//! Asserts (1) every served answer is byte-identical to the fresh
//! uncached reference — eviction and admission can change hit/miss,
//! never an answer; (2) zero stale hits; and (3) a cache hit is a
//! refcount bump, not a string copy, and a question submitted as
//! `Arc<str>` becomes the cache key allocation itself. Exits non-zero
//! on any violation.

use bench::traffic::{build_population, reference_answers, request_stream, TrafficSpec};
use bench::{dataset, headline_profile, HarnessOpts};
use bull::Lang;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use std::sync::Arc;

fn main() {
    let opts = HarnessOpts::from_args();
    let spec = TrafficSpec {
        s: 1.0,
        population: 768,
        requests: 8_000,
        capacity: 128,
        submitters: if opts.plan.workers > 0 { opts.plan.workers } else { 4 },
        batch: if opts.plan.batch > 0 { opts.plan.batch } else { 8 },
        ..TrafficSpec::default()
    };
    let ds = dataset();
    let engine = Arc::new(FinSql::build(
        &ds,
        headline_profile(Lang::En),
        FinSqlConfig::standard(Lang::En),
    ));
    let population = build_population(&ds, Lang::En, spec.population);
    let refs = reference_answers(&engine, &population);
    let stream = request_stream(&spec);
    println!(
        "smoke traffic: {} requests, {} unique questions, capacity {}, {} distinct users",
        spec.requests, spec.population, spec.capacity, stream.distinct_users
    );

    let out = bench::traffic::run_policy(&engine, &population, &refs, &stream, &spec);
    println!(
        "hit rate {:>6.2}%  hits {:>6}  misses {:>6}  rejected {:>5}  stale {}  p99 {:?}",
        out.hit_rate() * 100.0,
        out.hits,
        out.misses,
        out.admission_rejected,
        out.stale_hits,
        out.latency.p99(),
    );
    assert_eq!(out.stale_hits, 0, "a served answer differed from the fresh uncached reference");
    assert!(out.byte_identical(), "answers must be byte-identical across the run");
    assert!(
        out.hit_is_refcount_bump,
        "the hottest key must be served as a shared allocation, not a copy"
    );
    assert!(
        bench::traffic::key_interning_probe(&engine),
        "a question submitted as Arc<str> must become the cache key allocation itself \
         (no byte copy on the insert path)"
    );
    println!("smoke_traffic: OK");
}
