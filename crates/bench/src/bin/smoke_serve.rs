//! CI smoke run for the `finsqld` serving front-end over real loopback
//! TCP. Asserts (1) every served answer is byte-identical to the fresh
//! uncached library reference — the wire, the driver loop and the
//! scheduler can change latency, never an answer; (2) the `STATS` verb
//! counts every request; (3) garbage bytes are answered `BadFrame` and
//! the connection is closed; (4) a pipelined burst of uncached questions
//! against an admission budget of one is shed with `Busy`, never queued
//! unboundedly and never answered wrong, while a pipelined burst of
//! questions the server already answered is answered `Ok` in full on
//! the driver; and (5) both servers drain and join cleanly. Exits
//! non-zero on any violation.

use bench::traffic::{build_population, reference_answers};
use bench::{dataset, headline_profile, HarnessOpts};
use bull::{DbId, Lang};
use finsql_core::batch::BatchConfig;
use finsql_core::cache::AnswerCache;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use finsql_serve::wire::{Frame, FrameDecoder, Kind, Status};
use finsql_serve::{BlockingClient, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let opts = HarnessOpts::from_args();
    let ds = dataset();
    let engine = Arc::new(FinSql::build(
        &ds,
        headline_profile(Lang::En),
        FinSqlConfig::standard(Lang::En),
    ));
    let population = build_population(&ds, Lang::En, 200);
    let refs = reference_answers(&engine, &population);
    println!("smoke serve: {} questions across {} databases", population.len(), DbId::ALL.len());

    // 1. Byte identity over a live socket, plus protocol-level error
    // handling on the same server.
    let mut config = ServeConfig::default();
    if opts.plan.workers > 0 {
        config.batch.workers = opts.plan.workers;
    }
    if opts.plan.batch > 0 {
        config.batch.max_batch = opts.plan.batch;
    }
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&engine),
        Some(Arc::new(AnswerCache::unbounded())),
        None,
        config,
    )
    .expect("bind loopback");
    let handle = server.spawn();
    let mut client = BlockingClient::connect(handle.addr()).expect("connect");
    for ((db, question), reference) in population.iter().zip(&refs) {
        let (status, answer) = client.ask(*db, question).expect("ask");
        assert_eq!(status, Status::Ok, "{db:?}: {question}");
        assert_eq!(
            &answer, reference,
            "a served answer must be byte-identical to the library path: {db:?}: {question}"
        );
    }
    let stats = client.stats().expect("stats");
    assert!(
        stats.contains(&format!("\"served\":{}", population.len())),
        "STATS must count every served request: {stats}"
    );
    assert!(stats.contains("\"p99_ns\":"), "STATS must expose latency quantiles: {stats}");

    // Garbage on a fresh connection: BadFrame, then close.
    let mut garbage = TcpStream::connect(handle.addr()).expect("connect garbage");
    garbage.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write garbage");
    garbage.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
    let mut bytes = Vec::new();
    garbage.read_to_end(&mut bytes).expect("read until server closes");
    let mut decoder = FrameDecoder::new();
    decoder.push(&bytes);
    let frame = decoder
        .next_frame()
        .expect("the rejection itself is well-formed")
        .expect("a BadFrame response must arrive before close");
    assert_eq!(frame.status(), Some(Status::BadFrame));

    client.shutdown_server().expect("shutdown handshake");
    let report = handle.join().expect("server thread must exit cleanly");
    assert_eq!(report.served as usize, population.len());
    assert!(report.bad_frames >= 1, "the garbage connection must be counted: {report:?}");
    println!(
        "byte identity: {} served answers matched the library path; garbage got BadFrame",
        report.served
    );

    // 2. Admission control: budget of one in-flight request, one slow
    // worker — a pipelined burst must shed with Busy immediately.
    let server = Server::bind(
        "127.0.0.1:0",
        engine,
        Some(Arc::new(AnswerCache::unbounded())),
        None,
        ServeConfig {
            max_in_flight: 1,
            batch: BatchConfig { max_batch: 1, workers: 1, queue_cap: 1 },
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let handle = server.spawn();
    let mut client = BlockingClient::connect(handle.addr()).expect("connect");
    let burst = 12u64;
    for i in 0..burst {
        let question = format!("how many funds exist (smoke burst {i})");
        client
            .send(&Frame::request(i, DbId::Fund.index() as u8, &question))
            .expect("pipelined send");
    }
    let (mut ok, mut busy) = (0u64, 0u64);
    for _ in 0..burst {
        let frame = client.recv().expect("one response per request");
        assert_eq!(frame.kind, Kind::Response);
        match frame.status().expect("known status") {
            Status::Ok => ok += 1,
            Status::Busy => busy += 1,
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert!(ok >= 1, "at least the slot-holder is served");
    assert!(busy >= 1, "a 12-deep burst against budget 1 must shed");
    assert_eq!(ok + busy, burst, "every request gets exactly one response");

    // 3. Hits take no in-flight slot: warm a few questions one at a time,
    // then send, in one write, an uncached question that takes the one
    // slot and a burst of the warm ones behind it. Every reply is Ok and
    // byte-identical; the burst is answered on the driver.
    let warm = 3;
    for ((db, question), reference) in population.iter().zip(&refs).take(warm) {
        let (status, answer) = client.ask(*db, question).expect("ask");
        assert_eq!(status, Status::Ok, "under budget: {db:?}: {question}");
        assert_eq!(&answer, reference, "{db:?}: {question}");
    }
    let hit_burst = 24u64;
    let slot_holder = "how many funds exist (smoke slot holder)";
    let mut bytes = Frame::request(hit_burst, DbId::Fund.index() as u8, slot_holder).encode();
    for i in 0..hit_burst {
        let (db, question) = &population[i as usize % warm];
        bytes.extend_from_slice(&Frame::request(i, db.index() as u8, question).encode());
    }
    let mut stream = TcpStream::connect(handle.addr()).expect("connect the hit burst");
    stream.write_all(&bytes).expect("pipelined burst");
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let mut answered = 0;
    while answered <= hit_burst {
        let n = stream.read(&mut buf).expect("read responses");
        assert!(n > 0, "server closed the connection mid-burst");
        decoder.push(&buf[..n]);
        while let Some(frame) = decoder.next_frame().expect("well-formed responses") {
            assert_eq!(frame.status(), Some(Status::Ok), "request {} was shed", frame.request_id);
            if frame.request_id < hit_burst {
                let reference = &refs[frame.request_id as usize % warm];
                assert_eq!(frame.payload.as_slice(), reference.as_bytes(), "a hit is byte-identical");
            }
            answered += 1;
        }
    }
    let served = ok + warm as u64 + 1 + hit_burst;
    let stats = client.stats().expect("stats");
    assert!(
        stats.contains(&format!("\"served\":{served},"))
            && stats.contains(&format!("\"driver_hits\":{hit_burst},")),
        "STATS must count every hit answered on the driver: {stats}"
    );
    client.shutdown_server().expect("shutdown handshake");
    let report = handle.join().expect("server thread must exit cleanly");
    assert_eq!(report.served, served);
    assert_eq!(report.busy_rejected, busy);
    println!(
        "admission: {ok} of {burst} uncached served, {busy} shed with Busy under a budget of 1; \
         {hit_burst} of {hit_burst} cached answered on the driver"
    );
    println!("smoke_serve: OK");
}
