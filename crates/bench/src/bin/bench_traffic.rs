//! Regenerates `results/BENCH_traffic.json`: the skew-aware cache
//! (SLRU + TinyLFU admission) under Zipf traffic through the full
//! scheduler path.
//!
//! For each skew s ∈ {0.8, 1.0, 1.2}, one request schedule is minted
//! from a seeded RNG and replayed against a capped cache, with the
//! question population a multiple of the capacity so eviction pressure
//! is real. Reported per s: hit rate, admission/eviction counters,
//! latency p50/p99/p999 of the computed misses from the scheduler-path
//! histogram (a hit is answered at submission and records none),
//! throughput, stale-hit count (must be 0 — every answer is
//! byte-checked against a fresh uncached reference) and the
//! allocation-free-hit probe.
//!
//! Flags: `--traffic-requests N`, `--traffic-population N`,
//! `--cache-cap N` (capacity; default 512), `--workers N` (submitter
//! threads), `--batch N` (scheduler micro-batch).

use bench::traffic::{build_population, reference_answers, request_stream, TrafficSpec};
use bench::{dataset, headline_profile, HarnessOpts};
use bull::Lang;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use std::sync::Arc;

const SKEWS: [f64; 3] = [0.8, 1.0, 1.2];

fn micros(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let opts = HarnessOpts::from_args();
    let mut spec = TrafficSpec::default();
    if opts.cache_cap > 0 {
        spec.capacity = opts.cache_cap;
    }
    if opts.plan.workers > 0 {
        spec.submitters = opts.plan.workers;
    }
    if opts.plan.batch > 0 {
        spec.batch = opts.plan.batch;
    }
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--traffic-requests" => {
                spec.requests =
                    args.next().and_then(|v| v.parse().ok()).expect("--traffic-requests N");
            }
            "--traffic-population" => {
                spec.population =
                    args.next().and_then(|v| v.parse().ok()).expect("--traffic-population N");
            }
            _ => {}
        }
    }
    assert!(
        spec.population >= 4 * spec.capacity,
        "population ({}) must be >= 4x capacity ({}) for real eviction pressure",
        spec.population,
        spec.capacity
    );

    let ds = dataset();
    let engine = Arc::new(FinSql::build(
        &ds,
        headline_profile(Lang::En),
        FinSqlConfig::standard(Lang::En),
    ));
    let population = build_population(&ds, Lang::En, spec.population);
    println!(
        "traffic: {} requests over {} unique questions, cache capacity {}, \
         {} submitters, batch {}",
        spec.requests, spec.population, spec.capacity, spec.submitters, spec.batch
    );
    let refs = reference_answers(&engine, &population);

    let mut rows: Vec<String> = Vec::new();
    for s in SKEWS {
        let stream = request_stream(&TrafficSpec { s, ..spec });
        println!("--- Zipf s={s}: {} distinct users ---", stream.distinct_users);
        let out = bench::traffic::run_policy(&engine, &population, &refs, &stream, &spec);
        assert_eq!(
            out.stale_hits, 0,
            "s={s} served an answer differing from the fresh reference"
        );
        assert!(out.byte_identical());
        println!(
            "hit rate {:>6.2}%  p50 {:>8.1}us  p99 {:>9.1}us  p999 {:>9.1}us  \
             {:>8.0} q/s  rejected {:>6}  evicted {:>6}",
            out.hit_rate() * 100.0,
            micros(out.latency.p50()),
            micros(out.latency.p99()),
            micros(out.latency.p999()),
            out.throughput_qps(spec.requests),
            out.admission_rejected,
            out.evictions,
        );
        rows.push(format!(
            "    {{\"s\": {s}, \"requests\": {}, \"population\": {}, \
             \"capacity\": {}, \"distinct_users\": {}, \"hit_rate\": {:.4}, \
             \"hits\": {}, \"misses\": {}, \"admission_rejected\": {}, \"evictions\": {}, \
             \"entries\": {}, \"protected_entries\": {}, \"p50_us\": {:.1}, \
             \"p99_us\": {:.1}, \"p999_us\": {:.1}, \"wall_secs\": {:.3}, \
             \"questions_per_sec\": {:.1}, \"stale_hits\": {}, \"byte_identical\": {}, \
             \"hit_is_refcount_bump\": {}}}",
            spec.requests,
            spec.population,
            spec.capacity,
            stream.distinct_users,
            out.hit_rate(),
            out.hits,
            out.misses,
            out.admission_rejected,
            out.evictions,
            out.entries,
            out.protected_entries,
            micros(out.latency.p50()),
            micros(out.latency.p99()),
            micros(out.latency.p999()),
            out.wall.as_secs_f64(),
            out.throughput_qps(spec.requests),
            out.stale_hits,
            out.byte_identical(),
            out.hit_is_refcount_bump,
        ));
        if (s - 1.0).abs() < f64::EPSILON {
            assert!(
                out.hit_is_refcount_bump,
                "the hottest key must be served as a shared allocation"
            );
        }
    }

    assert!(
        bench::traffic::key_interning_probe(&engine),
        "a question submitted as Arc<str> must become the cache key allocation itself \
         (no byte copy on the insert path)"
    );

    let json = format!(
        "{{\n  \"spec\": {{\"requests\": {}, \"population\": {}, \"capacity\": {}, \
         \"submitters\": {}, \"batch\": {}, \"user_space\": {}, \"seed\": {}}},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        spec.requests,
        spec.population,
        spec.capacity,
        spec.submitters,
        spec.batch,
        spec.user_space,
        spec.seed,
        rows.join(",\n"),
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_traffic.json", json).expect("write BENCH_traffic.json");
    println!("wrote results/BENCH_traffic.json");
}
