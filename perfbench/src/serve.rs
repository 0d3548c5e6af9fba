//! `serve_hot` and `serve_cold`: open-loop traffic over loopback TCP
//! against an in-process `finsqld` (`Server::bind` with
//! `ServeConfig::default()`).
//!
//! One load connection is driven by two threads: a paced writer that
//! sends each request when it is due (coalescing requests that fell due
//! together into one write) and a blocking reader that decodes the
//! responses. Latency runs from the request's *scheduled* send time, so
//! a stall in the generator or the server is charged to every request
//! it delays. A second connection asks `STATS`. A warm-up second of the
//! same schedule runs before the timed window on the same connection.

use crate::engine::{self, Access, AppendStats};
use crate::report::Report;
use crate::schedule::{self, Draw, Schedule};
use crate::trace::{self, Breakdown, Span, Tracer};
use bench::traffic::build_population;
use bull::{DbId, Lang};
use finsql_core::cache::AnswerCache;
use finsql_core::metrics::EvalMetrics;
use finsql_core::pipeline::FinSql;
use finsql_serve::wire::{Frame, FrameDecoder, Kind, Status};
use finsql_serve::{BlockingClient, ServeConfig, ServeHandle, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Spec {
    pub name: &'static str,
    /// Offered load, requests per second.
    pub rate: f64,
    pub population: usize,
    pub draw: Draw,
    /// Answer-cache capacity; 0 = unbounded.
    pub cache_cap: usize,
    /// Ask every population question once through the cache before the
    /// load starts.
    pub prewarm: bool,
    /// The latency limit of `slo_share`.
    pub slo_ms: f64,
}

pub const HOT: Spec = Spec {
    name: "serve_hot",
    rate: 8_000.0,
    population: 1024,
    draw: Draw::Zipf(1.0),
    cache_cap: 0,
    prewarm: true,
    slo_ms: 5.0,
};

pub const COLD: Spec = Spec {
    name: "serve_cold",
    rate: 1_000.0,
    population: 4096,
    draw: Draw::Uniform,
    cache_cap: 512,
    prewarm: false,
    slo_ms: 25.0,
};

/// Connections a pass may open to its server: the load connection and
/// the `STATS` connection. Checked against the server's own count.
const MAX_CONNECTIONS: u64 = 2;
/// Seconds of the schedule replayed before the timed window.
const WARMUP_SECS: f64 = 1.0;
/// Seconds of the timed window per block. `p50_ms` and `p99_ms` are
/// medians over blocks (by scheduled send time) of each block's
/// percentile; 2 s leave the cold workload's p99 2,000 samples.
const BLOCK_SECS: f64 = 2.0;
/// A run whose generator sent its median request later after its
/// scheduled time than this share of the workload's latency limit fell
/// behind the schedule: it did not offer the load it claims, and is not
/// valid. The median, not the p99, so that a short stall of the whole
/// machine (which the p99 latency does charge) does not void the run.
const LATE_P50_LIMIT_SHARE: f64 = 0.1;

/// What happened to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Unanswered,
    Ok,
    Mismatch,
    Busy,
    Shutdown,
    BadFrame,
    /// A response that broke the protocol: unknown status, wrong kind,
    /// unknown or repeated request id.
    Protocol,
}

/// Everything one load pass observed.
struct Load {
    outcome: Vec<Outcome>,
    done_ns: Vec<u64>,
    late_ns: Vec<u64>,
    sent: u64,
    response_bytes: u64,
    responses: u64,
    client_error: Option<String>,
    spans: Vec<Span>,
}

/// Replays `sched` over `stream` and checks every `Ok` payload against
/// `refs` (indexed by population entry).
fn load(
    stream: TcpStream,
    sched: &Schedule,
    population: &[(DbId, String)],
    refs: &[String],
    traced: bool,
) -> Load {
    let n = sched.arrival_ns.len();
    let reader_stream = stream.try_clone().expect("clone the load connection");
    reader_stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    let start = Instant::now();
    std::thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut stream = stream;
            let mut tracer = Tracer::new(traced, start);
            let mut late_ns = vec![0u64; n];
            let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
            let mut sent = 0u64;
            let mut error = None;
            let mut i = 0;
            while i < n {
                let now = start.elapsed().as_nanos() as u64;
                if sched.arrival_ns[i] > now {
                    std::thread::sleep(Duration::from_nanos(sched.arrival_ns[i] - now));
                    continue;
                }
                buf.clear();
                let first = i as u64;
                while i < n && sched.arrival_ns[i] <= now {
                    late_ns[i] = now - sched.arrival_ns[i];
                    tracer.child("loadgen.late", i as u64, sched.arrival_ns[i], now);
                    let (db, question) = &population[sched.question[i] as usize];
                    let frame = Frame::request(i as u64, db.index() as u8, question);
                    let t = tracer.now();
                    frame.encode_into(&mut buf);
                    tracer.child("wire.encode", i as u64, t, tracer.now());
                    i += 1;
                }
                let t = tracer.now();
                if let Err(e) = stream.write_all(&buf) {
                    error = Some(format!("send failed: {e}"));
                    break;
                }
                tracer.child("socket.write", first, t, tracer.now());
                sent = i as u64;
            }
            (late_ns, sent, tracer.spans, error)
        });
        let reader = s.spawn(move || {
            let mut stream = reader_stream;
            let mut tracer = Tracer::new(traced, start);
            let mut decoder = FrameDecoder::new();
            let mut buf = vec![0u8; 1 << 16];
            let mut outcome = vec![Outcome::Unanswered; n];
            let mut done_ns = vec![0u64; n];
            let (mut responses, mut bytes) = (0u64, 0u64);
            let mut error = None;
            'read: while (responses as usize) < n {
                let got = match stream.read(&mut buf) {
                    Ok(0) => {
                        error = Some("server closed the load connection".to_string());
                        break;
                    }
                    Ok(got) => got,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        error = Some(format!("read failed: {e}"));
                        break;
                    }
                };
                let at = start.elapsed().as_nanos() as u64;
                decoder.push(&buf[..got]);
                loop {
                    let t = tracer.now();
                    let frame = match decoder.next_frame() {
                        Ok(Some(frame)) => frame,
                        Ok(None) => break,
                        Err(e) => {
                            error = Some(format!("undecodable response stream: {e}"));
                            break 'read;
                        }
                    };
                    let id = frame.request_id as usize;
                    tracer.child("wire.decode", frame.request_id, t, tracer.now());
                    responses += 1;
                    bytes += frame.encoded_len() as u64;
                    if frame.kind != Kind::Response || id >= n || outcome[id] != Outcome::Unanswered
                    {
                        if let Some(o) = outcome.get_mut(id) {
                            *o = Outcome::Protocol;
                        }
                        continue;
                    }
                    done_ns[id] = at;
                    outcome[id] = match frame.status() {
                        Some(Status::Ok)
                            if frame.payload == refs[sched.question[id] as usize].as_bytes() =>
                        {
                            Outcome::Ok
                        }
                        Some(Status::Ok) => Outcome::Mismatch,
                        Some(Status::Busy) => Outcome::Busy,
                        Some(Status::Shutdown) => Outcome::Shutdown,
                        Some(Status::BadFrame) => Outcome::BadFrame,
                        None => Outcome::Protocol,
                    };
                }
            }
            (outcome, done_ns, responses, bytes, tracer.spans, error)
        });
        let (late_ns, sent, mut spans, write_error) = writer.join().expect("writer panicked");
        let (outcome, done_ns, responses, response_bytes, read_spans, read_error) =
            reader.join().expect("reader panicked");
        spans.extend(read_spans);
        Load {
            outcome,
            done_ns,
            late_ns,
            sent,
            response_bytes,
            responses,
            client_error: write_error.or(read_error),
            spans,
        }
    })
}

/// The end-to-end figures and cross-checked counters of one pass.
struct Pass {
    p50_ms: f64,
    p99_ms: f64,
    slo_share: f64,
    answered_qps: f64,
    attempted: u64,
    failed: u64,
    late_p99_ms: f64,
    load: Load,
    stats_json: String,
    cache_before: finsql_core::cache::CacheStats,
    cache_after: finsql_core::cache::CacheStats,
    served: u64,
}

/// Reads an unsigned integer field of the flat `STATS` JSON.
fn stats_field(json: &str, key: &str) -> Option<u64> {
    let k = format!("\"{key}\":");
    let rest = &json[json.find(&k)? + k.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Fills the cache with every population question once, through the
/// library's batched cache-first path, before any load.
fn prewarm(
    engine: &FinSql,
    cache: &AnswerCache,
    population: &[(DbId, String)],
    refs: &[String],
) -> u64 {
    let mut mismatches = 0;
    for db in DbId::ALL {
        let idx: Vec<usize> = (0..population.len())
            .filter(|&i| population[i].0 == db)
            .collect();
        for chunk in idx.chunks(8) {
            let qs: Vec<&str> = chunk.iter().map(|&i| population[i].1.as_str()).collect();
            let answers = engine.answer_batch_cached(cache, db, &qs, None);
            for (&i, a) in chunk.iter().zip(&answers) {
                mismatches += u64::from(**a != *refs[i]);
            }
        }
    }
    mismatches
}

#[allow(clippy::too_many_arguments)]
fn pass(
    spec: &Spec,
    engine: &Arc<FinSql>,
    cache: &AnswerCache,
    handle: ServeHandle,
    sched: &Schedule,
    n_warm: usize,
    secs: f64,
    population: &[(DbId, String)],
    refs: &[String],
    traced: bool,
    r: &mut Report,
) -> Pass {
    if spec.prewarm {
        let bad = prewarm(engine, cache, population, refs);
        r.check(bad == 0, || {
            format!("{bad} pre-warm answers differ from answer_fresh")
        });
    }
    let cache_before = cache.stats();
    let stream = TcpStream::connect(handle.addr()).expect("connect the load connection");
    let _ = stream.set_nodelay(true);
    let mut stats_client = BlockingClient::connect(handle.addr()).expect("connect for STATS");
    let load = load(stream, sched, population, refs, traced);
    let stats_json = stats_client.stats().unwrap_or_default();
    drop(stats_client);
    let server = handle.shutdown().expect("server thread exits cleanly");
    let cache_after = cache.stats();

    let n = sched.arrival_ns.len();
    let count = |range: std::ops::Range<usize>, o: Outcome| {
        load.outcome[range].iter().filter(|&&x| x == o).count() as u64
    };
    if let Some(e) = &load.client_error {
        r.check(false, || format!("load generator: {e}"));
    }
    let mismatched = count(0..n, Outcome::Mismatch);
    r.check(mismatched == 0, || {
        format!("{mismatched} answers differ from answer_fresh")
    });
    let broken = [Outcome::Unanswered, Outcome::Protocol, Outcome::BadFrame]
        .into_iter()
        .map(|o| count(0..n, o))
        .sum::<u64>();
    r.check(broken == 0, || {
        format!("{broken} requests got no well-formed response")
    });

    // Counter cross-checks: client against server, server against cache.
    let ok_all = count(0..n, Outcome::Ok) + mismatched;
    let busy_all = count(0..n, Outcome::Busy);
    let bad_all = count(0..n, Outcome::BadFrame);
    let stat = |k| stats_field(&stats_json, k);
    r.check(
        stat("served") == Some(ok_all) && server.served == ok_all,
        || {
            format!(
                "client Ok {ok_all} vs STATS {:?} vs report {}",
                stat("served"),
                server.served
            )
        },
    );
    r.check(
        stat("busy_rejected") == Some(busy_all) && server.busy_rejected == busy_all,
        || {
            format!(
                "client Busy {busy_all} vs STATS {:?}",
                stat("busy_rejected")
            )
        },
    );
    r.check(stat("bad_frames") == Some(bad_all), || {
        format!(
            "client BadFrame {bad_all} vs STATS {:?}",
            stat("bad_frames")
        )
    });
    r.check(server.connections <= MAX_CONNECTIONS, || {
        format!(
            "{} connections, at most {MAX_CONNECTIONS} allowed",
            server.connections
        )
    });
    let lookups =
        (cache_after.hits + cache_after.misses) - (cache_before.hits + cache_before.misses);
    r.check(lookups == server.served, || {
        format!(
            "cache hits + misses {lookups} != requests scheduled {}",
            server.served
        )
    });

    let timed = n_warm..n;
    let t0 = sched.arrival_ns[n_warm];
    let blocks = ((secs / BLOCK_SECS) as usize).max(1);
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); blocks];
    for i in timed.clone().filter(|&i| load.outcome[i] == Outcome::Ok) {
        let block = ((sched.arrival_ns[i] - t0) as f64 / 1e9 / BLOCK_SECS) as usize;
        lat[block.min(blocks - 1)].push((load.done_ns[i] - sched.arrival_ns[i]) as f64 / 1e6);
    }
    let ok: u64 = lat.iter().map(|b| b.len() as u64).sum();
    let attempted = timed.len() as u64;
    let in_slo = lat.iter().flatten().filter(|&&l| l <= spec.slo_ms).count();
    let p50_ms = schedule::median_of_blocks(&mut lat, 0.50);
    let p99_ms = schedule::median_of_blocks(&mut lat, 0.99);
    r.check(p50_ms.is_some() && p99_ms.is_some(), || {
        format!("a {BLOCK_SECS} s block has too few answered requests for p99")
    });
    let last_done = timed.clone().map(|i| load.done_ns[i]).max().unwrap_or(0);
    let window_s = last_done.saturating_sub(sched.arrival_ns[n_warm]) as f64 / 1e9;
    let mut late: Vec<f64> = load.late_ns[timed]
        .iter()
        .map(|&l| l as f64 / 1e6)
        .collect();
    late.sort_by(f64::total_cmp);
    let late_p99_ms = schedule::quantile(&late, 0.99).unwrap_or(f64::INFINITY);
    let late_p50_ms = schedule::quantile(&late, 0.5).unwrap_or(f64::INFINITY);
    let late_limit_ms = spec.slo_ms * LATE_P50_LIMIT_SHARE;
    r.check(late_p50_ms <= late_limit_ms, || {
        format!(
            "generator ran {late_p50_ms:.3} ms late at p50, over {late_limit_ms} ms: invalid run"
        )
    });
    Pass {
        p50_ms: p50_ms.unwrap_or(0.0),
        p99_ms: p99_ms.unwrap_or(0.0),
        slo_share: in_slo as f64 / attempted as f64,
        answered_qps: ok as f64 / window_s.max(1e-9),
        attempted,
        failed: attempted - ok,
        late_p99_ms,
        load,
        stats_json,
        cache_before,
        cache_after,
        served: server.served,
    }
}

fn bind(
    spec: &Spec,
    engine: &Arc<FinSql>,
    metrics: Option<&Arc<EvalMetrics>>,
) -> (Arc<AnswerCache>, ServeHandle) {
    let cache = Arc::new(engine.new_cache(spec.cache_cap));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(engine),
        Some(Arc::clone(&cache)),
        metrics.cloned(),
        ServeConfig::default(),
    )
    .expect("bind a loopback port");
    (cache, server.spawn())
}

pub fn run(spec: &Spec, seed: u64, secs: f64, traced: bool) -> Report {
    let mut r = Report::default();
    let setup = Instant::now();
    let (ds, engine) = engine::build();
    let build_s = setup.elapsed().as_secs_f64();

    // Inputs and references: outside both the timed window and setup_s.
    let population = build_population(&ds, Lang::En, spec.population);
    let questions: Vec<(DbId, &str)> = population.iter().map(|(d, q)| (*d, q.as_str())).collect();
    let refs = engine::references(&engine, &questions);
    let n_warm = (spec.rate * WARMUP_SECS).round() as usize;
    let n = n_warm + (spec.rate * secs).round() as usize;
    let sched = schedule::poisson(seed, spec.rate, n, population.len(), spec.draw);
    let engine = Arc::new(engine);

    let bound = Instant::now();
    let (cache, handle) = bind(spec, &engine, None);
    let setup_s = build_s + bound.elapsed().as_secs_f64();
    println!(
        "{}: {} requests ({n_warm} warm-up) at {} q/s over {} questions, setup {setup_s:.3} s",
        spec.name, n, spec.rate, spec.population
    );
    let plain = pass(
        spec,
        &engine,
        &cache,
        handle,
        &sched,
        n_warm,
        secs,
        &population,
        &refs,
        false,
        &mut r,
    );
    drop(cache);
    println!(
        "untraced: p50 {:.4} ms  p99 {:.4} ms ({} samples)  slo {:.5}  {:.1} answers/s  late p99 {:.4} ms",
        plain.p50_ms,
        plain.p99_ms,
        plain.attempted - plain.failed,
        plain.slo_share,
        plain.answered_qps,
        plain.late_p99_ms
    );
    r.attempted = plain.attempted;
    r.failed = plain.failed;

    let traced_pass = traced.then(|| {
        let metrics = Arc::new(EvalMetrics::new());
        let (cache, handle) = bind(spec, &engine, Some(&metrics));
        let p = pass(
            spec,
            &engine,
            &cache,
            handle,
            &sched,
            n_warm,
            secs,
            &population,
            &refs,
            true,
            &mut r,
        );
        (p, metrics.snapshot())
    });

    match traced_pass {
        None => {
            r.put("setup_s", setup_s, "s");
            r.put("p50_ms", plain.p50_ms, "ms");
            r.put("p99_ms", plain.p99_ms, "ms");
            r.put("slo_share", plain.slo_share, "share");
            r.put("answered_qps", plain.answered_qps, "1/s");
        }
        Some((t, m)) => {
            let fp = engine.config_fingerprint();
            let mut accesses: Vec<Access<'_>> = Vec::new();
            let access = |i: usize| Access {
                db: population[i].0,
                question: &population[i].1,
                fingerprint: fp,
                answer: &refs[i],
            };
            if spec.prewarm {
                accesses.extend((0..population.len()).map(access));
            }
            accesses.extend(sched.question.iter().map(|&q| access(q as usize)));
            let (get_ns, insert_ns) =
                engine::replay(|| engine.new_cache(spec.cache_cap), &accesses);
            layer_metrics(&mut r, &t, &m, get_ns, insert_ns);
            let spans = t.load.spans_with_roots(&sched);
            let b = Breakdown::of(&spans, "request", |q| q as usize >= n_warm);
            print!("{}", b.render(spec.name));
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
            let path = format!(".bench_trace/{}-seed{seed}.tsv", spec.name);
            r.put("trace.spans", spans.len() as f64, "count");
            if let Err(e) = trace::write_tsv(std::path::Path::new(&path), &spans) {
                r.check(false, || format!("writing {path}: {e}"));
            }
        }
    }
    r
}

impl Load {
    /// The recorded child spans plus one `request` root per answered
    /// request, from its scheduled send to its decoded response.
    fn spans_with_roots(&self, sched: &Schedule) -> Vec<Span> {
        let mut spans = self.spans.clone();
        for (i, o) in self.outcome.iter().enumerate() {
            if *o == Outcome::Ok {
                spans.push(Span {
                    name: "request",
                    req: i as u64,
                    root: true,
                    start_ns: sched.arrival_ns[i],
                    end_ns: self.done_ns[i],
                });
            }
        }
        spans
    }
}

fn layer_metrics(
    r: &mut Report,
    t: &Pass,
    m: &finsql_core::metrics::MetricsSnapshot,
    get_ns: f64,
    insert_ns: f64,
) {
    let spans_mean_ns = |name: &str| {
        let (sum, n) = t
            .load
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(a, c), s| {
                (a + (s.end_ns - s.start_ns), c + 1)
            });
        sum as f64 / n.max(1) as f64
    };
    r.put("wire.encode_ns", spans_mean_ns("wire.encode"), "ns");
    r.put("wire.decode_ns", spans_mean_ns("wire.decode"), "ns");
    r.put(
        "wire.response_bytes",
        t.load.response_bytes as f64 / t.load.responses.max(1) as f64,
        "bytes",
    );
    let stat = |k| stats_field(&t.stats_json, k).unwrap_or(0) as f64;
    let server_p50_ms = stat("p50_ns") / 1e6;
    r.put("server.p50_ms", server_p50_ms, "ms_edge");
    r.put("server.p99_ms", stat("p99_ns") / 1e6, "ms_edge");
    r.put("server.outside_p50_ms", t.p50_ms - server_p50_ms, "ms");
    r.put("server.busy", stat("busy_rejected"), "count");
    r.put("server.bad_frames", stat("bad_frames"), "count");
    engine::put_engine(r, m, t.served);
    engine::put_cache(r, &t.cache_before, &t.cache_after, get_ns, insert_ns);
    AppendStats::default().put(r);
    r.put("live.batch_ms", 0.0, "ms");
    r.put("live.first_batch_after_append_ms", 0.0, "ms");
    r.put("loadgen.sent", t.load.sent as f64, "count");
    r.put("loadgen.late_p99_ms", t.late_p99_ms, "ms");
}
