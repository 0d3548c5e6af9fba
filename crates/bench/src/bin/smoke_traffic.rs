//! CI smoke run for the skew-aware cache: a small Zipf(s=1.0) traffic
//! replay through the scheduler against both cache policies at equal
//! capacity. Asserts (1) every served answer is byte-identical to the
//! fresh uncached reference under *both* policies — the eviction policy
//! can change hit/miss, never an answer; (2) zero stale hits; (3) the
//! SLRU+TinyLFU hit rate is at least plain LRU's at equal capacity; and
//! (4) a cache hit is a refcount bump, not a string copy. Exits non-zero
//! on any violation.

use bench::traffic::{build_population, reference_answers, request_stream, TrafficSpec};
use bench::{dataset, headline_profile, HarnessOpts};
use bull::Lang;
use finsql_core::cache::CachePolicy;
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

    let mut outcomes = Vec::new();
    for policy in CachePolicy::ALL {
        let out = bench::traffic::run_policy(&engine, &population, &refs, &stream, &spec, policy);
        println!(
            "{:<13} hit rate {:>6.2}%  hits {:>6}  misses {:>6}  rejected {:>5}  \
             stale {}  p99 {:?}",
            policy.as_str(),
            out.hit_rate() * 100.0,
            out.hits,
            out.misses,
            out.admission_rejected,
            out.stale_hits,
            out.latency.p99(),
        );
        assert_eq!(
            out.stale_hits, 0,
            "{policy}: a served answer differed from the fresh uncached reference"
        );
        assert!(out.byte_identical(), "{policy}: answers must be byte-identical across the run");
        outcomes.push(out);
    }
    let (lru, slru) = (&outcomes[0], &outcomes[1]);
    assert!(
        slru.hit_rate() >= lru.hit_rate(),
        "SLRU+TinyLFU hit rate ({:.4}) fell below plain LRU ({:.4}) at equal capacity on Zipf 1.0",
        slru.hit_rate(),
        lru.hit_rate()
    );
    assert!(
        slru.hit_is_refcount_bump,
        "the hottest key must be served as a shared allocation, not a copy"
    );
    assert_eq!(lru.admission_rejected, 0, "plain LRU must never reject an insert");
    assert!(
        bench::traffic::key_interning_probe(&engine),
        "a question submitted as Arc<str> must become the cache key allocation itself \
         (no byte copy on the insert path)"
    );
    println!(
        "SLRU+TinyLFU vs LRU hit-rate delta: {:+.2} pts",
        (slru.hit_rate() - lru.hit_rate()) * 100.0
    );
    println!("smoke_traffic: OK");
}
