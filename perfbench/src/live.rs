//! `live_ticks`: closed-loop live appends beside reads on one thread.
//!
//! Each round appends one `mint_ticks` tick per database through
//! `Database::apply_changes` + `FinSql::absorb_appends`, then answers
//! 256 Zipf(1.0) reads from the 1,024-question population in per-database
//! micro-batches of 8 through `FinSql::answer_batch_cached` against a
//! shared 512-entry cache. The number of rounds is fixed by `--seconds`
//! (not by elapsed time), so every run does the same work while the data
//! grows. After each round, outside the clock, every distinct question
//! of the round is answered with `answer_fresh` at that round's epoch,
//! and every read of it must equal that answer.
//!
//! The rounds are compute bound on one core, so their timings follow the
//! speed the host gives that core, which drifts between runs. After each
//! round, also outside the clock, the benchmark times its own [`Probe`],
//! and each block's latencies and throughput are scaled to the speed at
//! which a probe pass takes [`probe::REF_NS`].

use crate::engine::{self, Access, AppendStats};
use crate::probe::{self, Probe};
use crate::report::Report;
use crate::schedule;
use crate::trace::{self, Breakdown, Tracer};
use bench::traffic::{build_population, ZipfSampler};
use bull::{BullDataset, DbId, Lang};
use finsql_core::cache::ConfigFingerprint;
use finsql_core::metrics::{EvalMetrics, MetricsSnapshot};
use finsql_core::pipeline::FinSql;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const POPULATION: usize = 1024;
const READS_PER_ROUND: usize = 256;
const BATCH: usize = 8;
const CACHE_CAP: usize = 512;
/// Rounds per block. The reported latency and throughput are medians
/// over blocks (about one second each), so a burst of contention on a
/// shared machine moves one block, not the run.
const BLOCK_ROUNDS: usize = 10;
/// The latency limit of `slo_share`, per read (its batch's latency).
const SLO_MS: f64 = 10.0;
/// Probe passes timed after each round. A block's latencies are scaled
/// by the median pass of its rounds, and its throughput inversely.
const PROBE_PASSES: usize = 3;

struct Pass {
    p50_ms: f64,
    p99_ms: f64,
    slo_share: f64,
    answered_qps: f64,
    /// `p50_ms` and `answered_qps` before the scaling to the probe.
    unscaled_p50_ms: f64,
    unscaled_qps: f64,
    /// The median probe pass of the run.
    probe_ms: f64,
    attempted: u64,
    failed: u64,
    appends: AppendStats,
    batch_ns: Vec<u64>,
    first_batch_ms: Vec<f64>,
    metrics: Option<MetricsSnapshot>,
    cache_stats: finsql_core::cache::CacheStats,
    /// (fingerprint, population index, answer) per read, in order.
    reads: Vec<(ConfigFingerprint, u32, Arc<str>)>,
    tracer: Tracer,
}

fn pass(
    ds: &mut BullDataset,
    engine: &mut FinSql,
    population: &[(DbId, String)],
    seed: u64,
    rounds: usize,
    traced: bool,
    r: &mut Report,
) -> Pass {
    let zipf = ZipfSampler::new(population.len(), 1.0);
    let cache = engine.new_cache(CACHE_CAP);
    let metrics = traced.then(EvalMetrics::new);
    let mut tracer = Tracer::new(traced, Instant::now());
    let probe = Probe::new();
    let mut probe_ns = Vec::with_capacity(rounds * PROBE_PASSES);
    let mut appends = AppendStats::default();
    let (mut read_ms, mut batch_ns, mut first_batch_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut reads: Vec<(ConfigFingerprint, u32, Arc<str>)> = Vec::new();
    let (mut mismatched, mut slo_ok) = (0u64, 0u64);
    // Per round: wall seconds (appends included), correct reads, and
    // where its reads start in `reads`.
    let (mut round_secs, mut round_ok, mut round_first) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..rounds {
        let (ticks, rows) = engine::mint_round(ds, round);
        appends.rows_minted += rows;
        let draws = schedule::round_draws(seed, round, READS_PER_ROUND, &zipf);
        let first_read = reads.len();
        round_first.push(first_read);

        let clock = Instant::now();
        let root_start = tracer.now();
        appends.round(ds, engine, ticks, &mut tracer, round as u64);
        let fingerprint = engine.config_fingerprint();
        for db in DbId::ALL {
            let mine: Vec<u32> = draws
                .iter()
                .copied()
                .filter(|&q| population[q as usize].0 == db)
                .collect();
            for chunk in mine.chunks(BATCH) {
                let qs: Vec<&str> = chunk
                    .iter()
                    .map(|&q| population[q as usize].1.as_str())
                    .collect();
                let t = Instant::now();
                let s = tracer.now();
                let answers = engine.answer_batch_cached(&cache, db, &qs, metrics.as_ref());
                tracer.child("core.answer_batch_cached", round as u64, s, tracer.now());
                let ns = t.elapsed().as_nanos() as u64;
                if reads.len() == first_read {
                    first_batch_ms.push(ns as f64 / 1e6);
                }
                batch_ns.push(ns);
                for (&q, a) in chunk.iter().zip(answers) {
                    read_ms.push(ns as f64 / 1e6);
                    reads.push((fingerprint, q, a));
                }
            }
        }
        round_secs.push(clock.elapsed().as_secs_f64());
        tracer.root("round", round as u64, root_start, tracer.now());
        probe_ns.extend((0..PROBE_PASSES).map(|_| probe.time_ns() as f64));

        // The correctness gate, off the clock: answer_fresh at this epoch.
        let mut distinct: BTreeMap<u32, String> =
            draws.iter().map(|&q| (q, String::new())).collect();
        let questions: Vec<(DbId, &str)> = distinct
            .keys()
            .map(|&q| (population[q as usize].0, population[q as usize].1.as_str()))
            .collect();
        for (slot, fresh) in distinct
            .values_mut()
            .zip(engine::references(engine, &questions))
        {
            *slot = fresh;
        }
        let mut ok = 0u64;
        for (i, (_, q, a)) in reads[first_read..].iter().enumerate() {
            if **a == *distinct[q] {
                ok += 1;
                slo_ok += u64::from(read_ms[first_read + i] <= SLO_MS);
            } else {
                mismatched += 1;
            }
        }
        round_ok.push(ok);
    }
    let logged = AppendStats::rows_logged(ds);
    r.check(
        logged == appends.rows_minted && appends.rejected == 0,
        || {
            format!(
                "{} rows minted, {logged} logged, {} appends rejected",
                appends.rows_minted, appends.rejected
            )
        },
    );
    r.check(mismatched == 0, || {
        format!("{mismatched} reads differ from answer_fresh")
    });
    let cache_stats = cache.stats();
    r.check(
        cache_stats.hits + cache_stats.misses == reads.len() as u64,
        || {
            format!(
                "cache hits + misses {} != reads {}",
                cache_stats.hits + cache_stats.misses,
                reads.len()
            )
        },
    );
    round_first.push(reads.len());
    let blocks = (rounds / BLOCK_ROUNDS).max(1);
    let (mut qps, mut lat) = (Vec::new(), Vec::new());
    let (mut unscaled_qps, mut unscaled_lat) = (Vec::new(), Vec::new());
    for b in 0..blocks {
        let lo = b * BLOCK_ROUNDS;
        let hi = if b + 1 == blocks {
            rounds
        } else {
            lo + BLOCK_ROUNDS
        };
        // How many times slower than the reference the machine ran here.
        let slow = schedule::median(&probe_ns[lo * PROBE_PASSES..hi * PROBE_PASSES])
            .expect("every round is probed")
            / probe::REF_NS;
        let secs: f64 = round_secs[lo..hi].iter().sum();
        let block_qps = round_ok[lo..hi].iter().sum::<u64>() as f64 / secs;
        let block_lat = &read_ms[round_first[lo]..round_first[hi]];
        qps.push(block_qps * slow);
        lat.push(block_lat.iter().map(|ms| ms / slow).collect::<Vec<f64>>());
        unscaled_qps.push(block_qps);
        unscaled_lat.push(block_lat.to_vec());
    }
    let p50 = schedule::median_of_blocks(&mut lat, 0.5);
    let p99 = schedule::median_of_blocks(&mut lat, 0.99);
    r.check(p99.is_some(), || {
        format!("a block of {BLOCK_ROUNDS} rounds has too few reads for p99")
    });
    Pass {
        p50_ms: p50.unwrap_or(0.0),
        p99_ms: p99.unwrap_or(0.0),
        slo_share: slo_ok as f64 / reads.len().max(1) as f64,
        answered_qps: schedule::median(&qps).unwrap_or(0.0),
        unscaled_p50_ms: schedule::median_of_blocks(&mut unscaled_lat, 0.5).unwrap_or(0.0),
        unscaled_qps: schedule::median(&unscaled_qps).unwrap_or(0.0),
        probe_ms: schedule::median(&probe_ns).unwrap_or(0.0) / 1e6,
        attempted: reads.len() as u64 + appends.apply_ns.len() as u64,
        failed: mismatched + appends.rejected,
        appends,
        batch_ns,
        first_batch_ms,
        metrics: metrics.map(|m| m.snapshot()),
        cache_stats,
        reads,
        tracer,
    }
}

pub fn run(seed: u64, secs: f64, traced: bool) -> Report {
    let mut r = Report::default();
    let setup = Instant::now();
    let (mut ds, mut engine) = engine::build();
    let setup_s = setup.elapsed().as_secs_f64();
    let population = build_population(&ds, Lang::En, POPULATION);
    let rounds = engine::rounds(secs);
    println!("live_ticks: {rounds} rounds of {READS_PER_ROUND} reads, setup {setup_s:.3} s");

    let plain = pass(
        &mut ds,
        &mut engine,
        &population,
        seed,
        rounds,
        false,
        &mut r,
    );
    println!(
        "untraced: p50 {:.4} ms  p99 {:.4} ms ({} reads)  slo {:.5}  {:.1} reads/s  append visible {:.4} ms",
        plain.p50_ms,
        plain.p99_ms,
        plain.reads.len(),
        plain.slo_share,
        plain.answered_qps,
        plain.appends.visible_median_ms()
    );
    println!(
        "  unscaled: p50 {:.4} ms  {:.1} reads/s; probe {:.4} ms a pass, reference {:.4} ms",
        plain.unscaled_p50_ms,
        plain.unscaled_qps,
        plain.probe_ms,
        probe::REF_NS / 1e6
    );
    r.attempted = plain.attempted;
    r.failed = plain.failed;
    if !traced {
        r.put("setup_s", setup_s, "s");
        r.put("p50_ms", plain.p50_ms, "ms");
        r.put("p99_ms", plain.p99_ms, "ms");
        r.put("slo_share", plain.slo_share, "share");
        r.put("answered_qps", plain.answered_qps, "1/s");
        return r;
    }

    // The traced pass replays the same seeded rounds from the same start:
    // a freshly generated dataset and the engine's data rebuilt from it.
    let mut ds = bench::dataset();
    for db in DbId::ALL {
        engine.rebuild_data(db, ds.db(db));
    }
    let t = pass(
        &mut ds,
        &mut engine,
        &population,
        seed,
        rounds,
        true,
        &mut r,
    );
    let accesses: Vec<Access<'_>> = t
        .reads
        .iter()
        .map(|(fingerprint, q, a)| Access {
            db: population[*q as usize].0,
            question: &population[*q as usize].1,
            fingerprint: *fingerprint,
            answer: a,
        })
        .collect();
    let (get_ns, insert_ns) = engine::replay(|| engine.new_cache(CACHE_CAP), &accesses);

    for name in ["wire.encode_ns", "wire.decode_ns"] {
        r.put(name, 0.0, "ns");
    }
    r.put("wire.response_bytes", 0.0, "bytes");
    r.put("server.p50_ms", 0.0, "ms_edge");
    r.put("server.p99_ms", 0.0, "ms_edge");
    r.put("server.outside_p50_ms", 0.0, "ms");
    r.put("server.busy", 0.0, "count");
    r.put("server.bad_frames", 0.0, "count");
    let m = t.metrics.expect("the traced pass records metrics");
    engine::put_engine(&mut r, &m, 0);
    let zero = finsql_core::cache::CacheStats::default();
    engine::put_cache(&mut r, &zero, &t.cache_stats, get_ns, insert_ns);
    t.appends.put(&mut r);
    let mean_batch_ms =
        t.batch_ns.iter().map(|&n| n as f64).sum::<f64>() / t.batch_ns.len().max(1) as f64 / 1e6;
    r.put("live.batch_ms", mean_batch_ms, "ms");
    r.put(
        "live.first_batch_after_append_ms",
        schedule::median(&t.first_batch_ms).unwrap_or(0.0),
        "ms",
    );
    r.put("loadgen.sent", 0.0, "count");
    r.put("loadgen.late_p99_ms", 0.0, "ms");
    let b = Breakdown::of(&t.tracer.spans, "round", |_| true);
    print!("{}", b.render("live_ticks"));
    r.put("trace.unattributed_ms", b.unattributed_ms, "ms");
    r.put("trace.overhead_p50_ms", t.p50_ms - plain.p50_ms, "ms");
    r.put(
        "trace.overhead_answered_qps",
        t.answered_qps - plain.answered_qps,
        "1/s",
    );
    println!(
        "tracing overhead: p50 {:+.4} ms, answered_qps {:+.1}/s",
        t.p50_ms - plain.p50_ms,
        t.answered_qps - plain.answered_qps
    );
    r.put("trace.spans", t.tracer.spans.len() as f64, "count");
    let path = format!(".bench_trace/live_ticks-seed{seed}.tsv");
    if let Err(e) = trace::write_tsv(std::path::Path::new(&path), &t.tracer.spans) {
        r.check(false, || format!("writing {path}: {e}"));
    }
    r
}
