//! Regenerates `results/BENCH_serve.json`: open-loop serving latency of
//! `finsqld` over real loopback TCP at several offered rates.
//!
//! For each offered rate, a fresh server is bound on a loopback port and
//! a seeded schedule of Poisson arrivals (exponential inter-arrival
//! times) over a Zipf(s=1.0) question population is replayed by a small
//! pool of client connections. The generator is **open-loop**: requests
//! are sent at their scheduled arrival time whether or not earlier
//! responses have returned, and per-request latency is measured from the
//! *scheduled* arrival to response completion — so queueing delay under
//! overload is measured instead of silently omitted (no coordinated
//! omission). Every `Ok` payload is compared byte-for-byte against a
//! fresh uncached reference minted before any server starts; a mismatch
//! is a stale response and fails the run. `Busy` responses are the
//! admission controller shedding misses — counted and reported, never
//! wrong. Each served request must have looked the cache up exactly once
//! (cache hits + misses == served); the hits among them were answered on
//! the driver (`driver_hits`).
//!
//! Flags: `--serve-secs F` (offered seconds of traffic per rate, default
//! 1.0), `--serve-population N` (unique questions, default 1024),
//! `--serve-conns N` (client connections, default 4), plus the shared
//! harness flags `--workers N` / `--batch N` for the server's scheduler
//! pool.

use bench::traffic::{build_population, reference_answers, ZipfSampler};
use bench::{dataset, headline_profile, HarnessOpts};
use bull::Lang;
use finsql_core::batch::BatchConfig;
use finsql_core::cache::AnswerCache;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use finsql_serve::wire::{Frame, FrameDecoder, Kind, Status};
use finsql_serve::{BlockingClient, ServeConfig, Server};
use bull::DbId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rates (questions/sec). The top rate is chosen to exceed what
/// the compute path sustains cold, so admission-control shedding is
/// exercised, not just measured at comfort.
const RATES: [f64; 3] = [2_000.0, 8_000.0, 32_000.0];
const SEED: u64 = 0x5E17_F00D;

/// What one connection's reader observed.
#[derive(Default)]
struct ConnOutcome {
    /// Open-loop latency (scheduled arrival → response complete), ns,
    /// `Ok` responses only.
    ok_latency_ns: Vec<u64>,
    busy: u64,
    shutdown: u64,
    stale: u64,
}

/// One rate's aggregated result.
struct RateOutcome {
    offered_qps: f64,
    requests: usize,
    served: u64,
    busy: u64,
    shutdown: u64,
    stale: u64,
    /// Sorted open-loop latencies of served requests, ns.
    latency_ns: Vec<u64>,
    wall: Duration,
    driver_hits: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl RateOutcome {
    fn quantile_us(&self, q: f64) -> f64 {
        if self.latency_ns.is_empty() {
            return 0.0;
        }
        let idx = ((self.latency_ns.len() - 1) as f64 * q).round() as usize;
        self.latency_ns[idx.min(self.latency_ns.len() - 1)] as f64 / 1e3
    }

    fn achieved_qps(&self) -> f64 {
        (self.served + self.busy + self.shutdown) as f64 / self.wall.as_secs_f64()
    }
}

fn run_rate(
    engine: &Arc<FinSql>,
    population: &[(DbId, String)],
    refs: &[String],
    rate: f64,
    secs: f64,
    conns: usize,
    config: ServeConfig,
) -> RateOutcome {
    // Mint the schedule up front: Poisson arrivals at `rate`, question
    // ranks from Zipf(1.0). Seed folds in the rate so each rate gets its
    // own deterministic stream.
    let requests = (rate * secs).round() as usize;
    let zipf = ZipfSampler::new(population.len(), 1.0);
    let mut rng = StdRng::seed_from_u64(SEED ^ rate.to_bits());
    let mut arrivals_ns: Vec<u64> = Vec::with_capacity(requests);
    let mut qidx: Vec<u32> = Vec::with_capacity(requests);
    let mut t = 0.0f64;
    for _ in 0..requests {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        arrivals_ns.push((t * 1e9) as u64);
        qidx.push(zipf.sample(&mut rng) as u32);
    }

    // Fresh cache per rate: every rate starts cold, so runs compare like
    // for like.
    let cache = Arc::new(AnswerCache::unbounded());
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(engine),
        Some(Arc::clone(&cache)),
        None,
        config,
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.spawn();

    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect load connection");
            let _ = s.set_nodelay(true);
            s
        })
        .collect();

    let arrivals_ns = &arrivals_ns;
    let qidx = &qidx;
    let start = Instant::now();
    let outcomes: Vec<ConnOutcome> = crossbeam::scope(|scope| {
        let mut joins = Vec::new();
        for (c, stream) in streams.into_iter().enumerate() {
            let reader_stream = stream.try_clone().expect("clone stream for reader");
            // Requests are partitioned round-robin over connections; the
            // reader knows exactly how many responses to expect.
            let mine: Vec<usize> = (c..requests).step_by(conns.max(1)).collect();
            let writer = {
                let mine = mine.clone();
                let mut stream = stream;
                scope.spawn(move |_| {
                    for &i in &mine {
                        // Open loop: send at the scheduled instant,
                        // regardless of outstanding responses.
                        let target = start + Duration::from_nanos(arrivals_ns[i]);
                        let now = Instant::now();
                        if target > now {
                            std::thread::sleep(target - now);
                        }
                        let (db, question) = &population[qidx[i] as usize];
                        let frame = Frame::request(i as u64, db.index() as u8, question);
                        stream.write_all(&frame.encode()).expect("send request");
                    }
                })
            };
            let reader = scope.spawn(move |_| {
                let mut stream = reader_stream;
                let mut decoder = FrameDecoder::new();
                let mut buf = [0u8; 16384];
                let mut out = ConnOutcome::default();
                let mut remaining = mine.len();
                while remaining > 0 {
                    let n = stream.read(&mut buf).expect("read response");
                    assert!(n > 0, "server closed the connection mid-run");
                    decoder.push(&buf[..n]);
                    while let Some(frame) =
                        decoder.next_frame().expect("well-formed response stream")
                    {
                        let done_ns = start.elapsed().as_nanos() as u64;
                        assert_eq!(frame.kind, Kind::Response);
                        let i = frame.request_id as usize;
                        match frame.status().expect("known status") {
                            Status::Ok => {
                                out.ok_latency_ns
                                    .push(done_ns.saturating_sub(arrivals_ns[i]));
                                if frame.payload.as_slice()
                                    != refs[qidx[i] as usize].as_bytes()
                                {
                                    out.stale += 1;
                                }
                            }
                            Status::Busy => out.busy += 1,
                            Status::Shutdown => out.shutdown += 1,
                            other => panic!("unexpected status {other:?} for request {i}"),
                        }
                        remaining -= 1;
                    }
                }
                out
            });
            joins.push((writer, reader));
        }
        joins
            .into_iter()
            .map(|(w, r)| {
                w.join().expect("writer thread panicked");
                r.join().expect("reader thread panicked")
            })
            .collect()
    })
    .expect("load generator panicked");
    let wall = start.elapsed();

    // The STATS verb over the same wire, then a graceful drain.
    let mut client = BlockingClient::connect(addr).expect("connect for stats");
    let stats = client.stats().expect("stats");
    let report = handle.shutdown().expect("server thread must exit cleanly");

    let mut latency_ns: Vec<u64> = Vec::new();
    let (mut busy, mut shutdown, mut stale) = (0u64, 0u64, 0u64);
    for mut o in outcomes {
        latency_ns.append(&mut o.ok_latency_ns);
        busy += o.busy;
        shutdown += o.shutdown;
        stale += o.stale;
    }
    latency_ns.sort_unstable();
    assert_eq!(
        report.served,
        latency_ns.len() as u64,
        "the server's count of Ok responses must match the client's"
    );
    assert_eq!(report.busy_rejected, busy, "Busy counts must agree across the wire");
    assert!(
        stats.contains(&format!("\"served\":{}", report.served)),
        "STATS must agree with the lifetime report: {stats}"
    );
    let cache_stats = cache.stats();
    assert_eq!(
        cache_stats.hits + cache_stats.misses,
        report.served,
        "every served request looks the cache up exactly once, and a shed one never"
    );
    assert_eq!(report.driver_hits, cache_stats.hits, "every hit is answered on the driver");
    RateOutcome {
        offered_qps: rate,
        requests,
        served: report.served,
        busy,
        shutdown,
        stale,
        latency_ns,
        wall,
        driver_hits: report.driver_hits,
        cache_hits: cache_stats.hits,
        cache_misses: cache_stats.misses,
    }
}

fn main() {
    let opts = HarnessOpts::from_args();
    let mut secs = 1.0f64;
    let mut population_size = 1024usize;
    let mut conns = 4usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--serve-secs" => {
                secs = args.next().and_then(|v| v.parse().ok()).expect("--serve-secs F");
            }
            "--serve-population" => {
                population_size =
                    args.next().and_then(|v| v.parse().ok()).expect("--serve-population N");
            }
            "--serve-conns" => {
                conns = args.next().and_then(|v| v.parse().ok()).expect("--serve-conns N");
            }
            _ => {}
        }
    }
    assert!(secs > 0.0 && population_size > 0 && conns > 0);

    let config = ServeConfig {
        batch: BatchConfig {
            max_batch: if opts.plan.batch > 0 { opts.plan.batch } else { 8 },
            workers: if opts.plan.workers > 0 { opts.plan.workers } else { 4 },
            queue_cap: 256,
        },
        ..ServeConfig::default()
    };

    let ds = dataset();
    let engine = Arc::new(FinSql::build(
        &ds,
        headline_profile(Lang::En),
        FinSqlConfig::standard(Lang::En),
    ));
    let population = build_population(&ds, Lang::En, population_size);
    println!(
        "serve: {}s of Zipf(1.0) traffic over {} questions per rate, {} connections, \
         budget {} in flight",
        secs,
        population.len(),
        conns,
        config.max_in_flight
    );
    let refs = reference_answers(&engine, &population);

    let mut rows: Vec<String> = Vec::new();
    for rate in RATES {
        let out = run_rate(&engine, &population, &refs, rate, secs, conns, config);
        assert_eq!(
            out.stale, 0,
            "a served answer at {rate} q/s differed from the fresh reference"
        );
        assert_eq!(out.served + out.busy + out.shutdown, out.requests as u64);
        println!(
            "offered {:>7.0} q/s  served {:>6}  busy {:>6}  p50 {:>9.1}us  p99 {:>9.1}us  \
             p999 {:>9.1}us  achieved {:>8.0} q/s",
            out.offered_qps,
            out.served,
            out.busy,
            out.quantile_us(0.50),
            out.quantile_us(0.99),
            out.quantile_us(0.999),
            out.achieved_qps(),
        );
        rows.push(format!(
            "    {{\"offered_qps\": {:.0}, \"requests\": {}, \"served\": {}, \
             \"busy_rejected\": {}, \"shutdown_rejected\": {}, \"stale\": {}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}, \
             \"wall_secs\": {:.3}, \"achieved_qps\": {:.1}, \"driver_hits\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}}}",
            out.offered_qps,
            out.requests,
            out.served,
            out.busy,
            out.shutdown,
            out.stale,
            out.quantile_us(0.50),
            out.quantile_us(0.99),
            out.quantile_us(0.999),
            out.wall.as_secs_f64(),
            out.achieved_qps(),
            out.driver_hits,
            out.cache_hits,
            out.cache_misses,
        ));
    }

    let json = format!(
        "{{\n  \"spec\": {{\"secs_per_rate\": {secs}, \"population\": {}, \
         \"connections\": {conns}, \"zipf_s\": 1.0, \"max_in_flight\": {}, \
         \"workers\": {}, \"max_batch\": {}, \"queue_cap\": {}, \"seed\": {SEED}}},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        population.len(),
        config.max_in_flight,
        config.batch.workers,
        config.batch.max_batch,
        config.batch.queue_cap,
        rows.join(",\n"),
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_serve.json", json).expect("write BENCH_serve.json");
    println!("wrote results/BENCH_serve.json");
}
