//! End-to-end tests for `finsqld`'s serving loop over real loopback TCP:
//! byte-identity with the library path, protocol-level error handling,
//! admission control under a tiny budget (misses shed, hits answered on
//! the driver), one cache lookup per served request, and graceful
//! shutdown.

use bull::{DbId, Lang};
use finsql_core::batch::BatchConfig;
use finsql_core::cache::AnswerCache;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use finsql_serve::client::ClientError;
use finsql_serve::wire::{Frame, FrameDecoder, Kind, Status};
use finsql_serve::{BlockingClient, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One engine for every test in this file — building it trains the full
/// pipeline, so share it instead of paying that per test.
fn engine() -> Arc<FinSql> {
    static ENGINE: OnceLock<Arc<FinSql>> = OnceLock::new();
    Arc::clone(ENGINE.get_or_init(|| {
        let ds = bull::build(bull::DEFAULT_SEED);
        Arc::new(FinSql::build(
            &ds,
            &simllm::profiles::LLAMA2_13B,
            FinSqlConfig::standard(Lang::En),
        ))
    }))
}

/// The batch-of-one reference answer the served path must reproduce.
fn reference(engine: &FinSql, db: DbId, question: &str) -> String {
    engine.answer(db, question)
}

/// A server over a fresh unbounded cache, and that cache.
fn spawn_server(config: ServeConfig) -> (finsql_serve::ServeHandle, Arc<AnswerCache>) {
    let cache = Arc::new(AnswerCache::unbounded());
    let server =
        Server::bind("127.0.0.1:0", engine(), Some(Arc::clone(&cache)), None, config)
            .expect("bind loopback");
    (server.spawn(), cache)
}

/// Every `Ok` reply looked the cache up exactly once, and nothing else
/// did: not a shed request, not the worker filling a miss.
fn assert_one_lookup_per_served(cache: &AnswerCache, served: u64) {
    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses,
        served,
        "cache hits {} + misses {} must equal served {served}",
        stats.hits,
        stats.misses
    );
}

#[test]
fn served_answers_match_the_library_path_across_databases() {
    let (handle, cache) = spawn_server(ServeConfig::default());
    let mut client = BlockingClient::connect(handle.addr()).expect("connect");
    let engine = engine();
    let questions = [
        (DbId::Fund, "list all fund names"),
        (DbId::Stock, "which stock closed highest yesterday"),
        (DbId::Macro, "what was the latest inflation reading"),
        (DbId::Fund, "how many funds have an open redemption status"),
    ];
    for (db, question) in questions {
        let (status, answer) = client.ask(db, question).expect("ask");
        assert_eq!(status, Status::Ok);
        assert_eq!(answer, reference(&engine, db, question), "{db:?}: {question}");
    }
    // Repeat one question: the cache serves it, bytes must not change.
    let (status, answer) = client.ask(DbId::Fund, "list all fund names").expect("re-ask");
    assert_eq!(status, Status::Ok);
    assert_eq!(answer, reference(&engine, DbId::Fund, "list all fund names"));

    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"served\":5"), "unexpected stats payload: {stats}");
    assert!(stats.contains("\"driver_hits\":1"), "the re-ask is a driver hit: {stats}");
    assert!(stats.contains("\"p99_ns\":"), "stats must expose quantiles: {stats}");

    client.shutdown_server().expect("shutdown handshake");
    let report = handle.join().expect("server thread must exit cleanly");
    assert_eq!(report.served, 5);
    assert_eq!(report.driver_hits, 1);
    assert_eq!(report.bad_frames, 0);
    assert_one_lookup_per_served(&cache, report.served);
}

#[test]
fn garbage_bytes_get_bad_frame_and_the_connection_is_closed() {
    let (handle, cache) = spawn_server(ServeConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write garbage");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    // The server must answer BadFrame, then close. Read to EOF.
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read response until close");
    let mut decoder = FrameDecoder::new();
    decoder.push(&bytes);
    let frame = decoder
        .next_frame()
        .expect("response is well-formed")
        .expect("a BadFrame response must arrive before close");
    assert_eq!(frame.status(), Some(Status::BadFrame));

    // An unknown database index is also a BadFrame (on a fresh
    // connection — the previous one is gone).
    let mut client = BlockingClient::connect(handle.addr()).expect("connect");
    client
        .send(&Frame::request(7, 250, "which db is this"))
        .expect("send bad-db request");
    let frame = client.recv().expect("recv");
    assert_eq!(frame.status(), Some(Status::BadFrame));
    assert_eq!(frame.request_id, 7, "correlation id echoed even on errors");

    let mut client = BlockingClient::connect(handle.addr()).expect("connect");
    client.shutdown_server().expect("shutdown");
    let report = handle.join().expect("clean exit");
    assert!(report.bad_frames >= 2, "both violations counted: {report:?}");
    assert_eq!(report.served, 0);
    assert_one_lookup_per_served(&cache, 0);
}

#[test]
fn over_budget_requests_are_shed_with_busy_not_queued() {
    // Budget of one in-flight request, single slow worker: a pipelined
    // burst of distinct uncached questions must shed everything beyond
    // the slot immediately.
    let (handle, cache) = spawn_server(budget_of_one());
    let engine = engine();
    let mut client = BlockingClient::connect(handle.addr()).expect("connect");
    let burst = 16u64;
    for i in 0..burst {
        let question = format!("how many funds exist (burst {i})");
        client
            .send(&Frame::request(i, DbId::Fund.index() as u8, &question))
            .expect("pipelined send");
    }
    let mut ok = 0u64;
    let mut busy = 0u64;
    for _ in 0..burst {
        let frame = client.recv().expect("one response per request");
        assert_eq!(frame.kind, Kind::Response);
        match frame.status().expect("known status") {
            Status::Ok => {
                ok += 1;
                let question = format!("how many funds exist (burst {})", frame.request_id);
                let answer = String::from_utf8(frame.payload.clone()).expect("utf-8 answer");
                assert_eq!(
                    answer,
                    reference(&engine, DbId::Fund, &question),
                    "an admitted answer is never wrong, even under load"
                );
            }
            Status::Busy => busy += 1,
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert!(ok >= 1, "at least the slot-holder is served");
    assert!(busy >= 1, "a 16-deep burst against budget 1 must shed");
    assert_eq!(ok + busy, burst);

    client.shutdown_server().expect("shutdown");
    let report = handle.join().expect("clean exit");
    assert_eq!(report.served, ok);
    assert_eq!(report.busy_rejected, busy);
    // A shed miss leaves no trace: only the served requests were looked
    // up, all of them misses.
    assert_one_lookup_per_served(&cache, ok);
    assert_eq!(cache.stats().hits, 0);
}

/// One in-flight slot over one worker computing batches of one behind a
/// queue of one.
fn budget_of_one() -> ServeConfig {
    ServeConfig {
        max_in_flight: 1,
        batch: BatchConfig { max_batch: 1, workers: 1, queue_cap: 1 },
        ..ServeConfig::default()
    }
}

#[test]
fn cached_burst_past_the_budget_is_answered_on_the_driver() {
    // Budget of one again. An uncached question takes the one slot, and
    // right behind it, in the same write, comes a burst of questions
    // answered before: a hit needs no slot, so none of it is shed.
    let (handle, cache) = spawn_server(budget_of_one());
    let engine = engine();
    let mut client = BlockingClient::connect(handle.addr()).expect("connect");
    let questions = [
        (DbId::Fund, "list all fund names"),
        (DbId::Stock, "which stock closed highest yesterday"),
        (DbId::Macro, "what was the latest inflation reading"),
    ];
    for (db, question) in questions {
        let (status, answer) = client.ask(db, question).expect("warm one at a time");
        assert_eq!(status, Status::Ok);
        assert_eq!(answer, reference(&engine, db, question));
    }
    let burst = 16u64;
    let uncached = (DbId::Fund, "how many funds exist (slot holder)");
    let ask = |i: u64| if i == burst { uncached } else { questions[i as usize % questions.len()] };
    // One write, so the driver decodes the whole burst in one round
    // while the slot holder is still computing.
    let mut bytes = Vec::new();
    for i in std::iter::once(burst).chain(0..burst) {
        let (db, question) = ask(i);
        bytes.extend_from_slice(&Frame::request(i, db.index() as u8, question).encode());
    }
    let mut stream = TcpStream::connect(handle.addr()).expect("connect the burst");
    stream.write_all(&bytes).expect("pipelined burst");
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let mut answered = 0;
    while answered <= burst {
        let n = stream.read(&mut buf).expect("read responses");
        assert!(n > 0, "server closed the connection mid-burst");
        decoder.push(&buf[..n]);
        while let Some(frame) = decoder.next_frame().expect("well-formed responses") {
            assert_eq!(frame.status(), Some(Status::Ok), "request {} was shed", frame.request_id);
            let (db, question) = ask(frame.request_id);
            assert_eq!(
                String::from_utf8(frame.payload).expect("utf-8 answer"),
                reference(&engine, db, question)
            );
            answered += 1;
        }
    }
    let served = questions.len() as u64 + 1 + burst;
    let stats = client.stats().expect("stats");
    assert!(stats.contains(&format!("\"served\":{served},")), "STATS: {stats}");
    assert!(stats.contains(&format!("\"driver_hits\":{burst},")), "STATS: {stats}");
    assert!(stats.contains("\"busy_rejected\":0,"), "STATS: {stats}");

    client.shutdown_server().expect("shutdown");
    let report = handle.join().expect("clean exit");
    assert_eq!((report.served, report.driver_hits, report.busy_rejected), (served, burst, 0));
    assert_one_lookup_per_served(&cache, served);
    assert_eq!(cache.stats().hits, burst);
}

#[test]
fn stop_flag_drains_in_flight_requests_before_exit() {
    let (handle, cache) = spawn_server(ServeConfig::default());
    let engine = engine();
    let mut client = BlockingClient::connect(handle.addr()).expect("connect");
    // Warm round-trip so the connection is definitely accepted.
    let (status, _) = client.ask(DbId::Fund, "list all fund names").expect("warmup");
    assert_eq!(status, Status::Ok);
    // Get a request admitted (the driver reads it well within 50ms),
    // then raise the stop flag before reading the response: the drain
    // must still deliver the real answer.
    let question = "what is the average management fee across funds";
    client
        .send(&Frame::request(99, DbId::Fund.index() as u8, question))
        .expect("send");
    std::thread::sleep(Duration::from_millis(50));
    handle.stop();
    let frame = client.recv().expect("drain must deliver the answer");
    assert_eq!(frame.status(), Some(Status::Ok));
    assert_eq!(frame.request_id, 99);
    assert_eq!(
        String::from_utf8(frame.payload).expect("utf-8"),
        reference(&engine, DbId::Fund, question)
    );
    let report = handle.join().expect("clean exit");
    assert_eq!(report.served, 2);
    assert_one_lookup_per_served(&cache, 2);

    // Requests racing the stop flag are answered Shutdown or the
    // connection is simply gone once the server exits — never a hang,
    // never a wrong answer.
    match client.ask(DbId::Fund, "straggler") {
        Ok((status, _)) => assert_eq!(status, Status::Shutdown),
        Err(ClientError::Io(_)) | Err(ClientError::Disconnected) => {}
        Err(other) => panic!("unexpected straggler outcome: {other}"),
    }
}
