//! Regression tests for the [`BatchScheduler`]'s non-blocking submit
//! path and its explicit shutdown semantics (crates/core/src/batch.rs):
//!
//! * `try_submit` must refuse with [`SubmitError::QueueFull`] when the
//!   bounded queue is at capacity — the backpressure signal the serving
//!   front-end turns into a `Busy` response — and every ticket it *does*
//!   hand out must resolve to the byte-exact reference answer.
//! * `shutdown` must drain requests already queued (stragglers get their
//!   real answers, nothing is dropped) while refusing new submissions
//!   with [`SubmitError::ShuttingDown`] on both the blocking and the
//!   non-blocking path.

use bull::{DbId, Lang};
use finsql_core::batch::{BatchConfig, BatchScheduler, SubmitError, Ticket};
use finsql_core::cache::AnswerCache;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
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

/// The batch-of-one reference answer the scheduler must reproduce.
fn reference(engine: &FinSql, db: DbId, question: &str) -> String {
    engine.answer(db, question)
}

#[test]
fn try_submit_sheds_load_when_the_queue_is_full() {
    let engine = engine();
    // One worker, batch size 1, queue of 1: while the worker computes
    // (hundreds of microseconds per question) the single queue slot
    // fills instantly, so a tight submission loop must observe
    // QueueFull long before it runs out of questions.
    let scheduler = BatchScheduler::new(
        Arc::clone(&engine),
        None,
        None,
        BatchConfig {
            max_batch: 1,
            flush: Duration::from_micros(1),
            workers: 1,
            queue_cap: 1,
        },
    );
    let mut tickets: Vec<(String, Ticket)> = Vec::new();
    let mut rejected = 0u32;
    let mut i = 0usize;
    // Keep pushing distinct questions until backpressure has shown up
    // and a healthy number of requests got through.
    while rejected == 0 || tickets.len() < 8 {
        assert!(i < 100_000, "queue_cap=1 never produced QueueFull");
        let question = format!("list all funds (probe {i})");
        match scheduler.try_submit(DbId::Fund, question.as_str()) {
            Ok(ticket) => tickets.push((question, ticket)),
            Err(SubmitError::QueueFull) => rejected += 1,
            Err(other) => panic!("unexpected submit error: {other}"),
        }
        i += 1;
    }
    assert!(rejected > 0, "full queue must refuse, not block");
    // Backpressure sheds load but never corrupts: every accepted ticket
    // resolves to the byte-exact reference answer.
    for (question, ticket) in tickets {
        assert_eq!(&*ticket.wait(), reference(&engine, DbId::Fund, &question));
    }
}

#[test]
fn shutdown_drains_queued_requests_and_refuses_stragglers() {
    let engine = engine();
    let cache = Arc::new(AnswerCache::unbounded());
    let mut scheduler = BatchScheduler::new(
        Arc::clone(&engine),
        Some(Arc::clone(&cache)),
        None,
        BatchConfig {
            max_batch: 4,
            flush: Duration::from_millis(50),
            workers: 2,
            queue_cap: 64,
        },
    );
    let questions: Vec<String> =
        (0..6).map(|i| format!("how many stocks closed higher (case {i})")).collect();
    let tickets: Vec<Ticket> = questions
        .iter()
        .map(|q| {
            scheduler
                .try_submit(DbId::Stock, q.as_str())
                .expect("queue of 64 cannot be full")
        })
        .collect();
    // Shut down with the flush window still open: the queued requests
    // are in flight, not yet answered.
    scheduler.shutdown();
    // Post-shutdown submissions are refused on both paths…
    assert_eq!(
        scheduler.try_submit(DbId::Fund, "straggler").err(),
        Some(SubmitError::ShuttingDown)
    );
    assert_eq!(
        scheduler.submit(DbId::Fund, "straggler").err(),
        Some(SubmitError::ShuttingDown)
    );
    // …but every request accepted before shutdown was drained and
    // answered exactly, never dropped.
    for (question, ticket) in questions.iter().zip(tickets) {
        assert_eq!(&*ticket.wait(), reference(&engine, DbId::Stock, question));
    }
    // Idempotent: a second shutdown (and the implicit one in Drop) is a
    // no-op, not a double-join.
    scheduler.shutdown();
}

#[test]
fn ticket_polling_delivers_the_answer_exactly_once() {
    let engine = engine();
    let scheduler = BatchScheduler::new(
        Arc::clone(&engine),
        None,
        None,
        BatchConfig {
            max_batch: 2,
            flush: Duration::from_micros(100),
            workers: 1,
            queue_cap: 8,
        },
    );
    let question = "which macro indicator rose last quarter";
    let ticket = scheduler.try_submit(DbId::Macro, question).expect("empty queue accepts");
    // Poll like the serving event loop does: spin until the worker
    // delivers, then the slot is empty forever after.
    let answer = loop {
        if let Some(answer) = ticket.try_answer() {
            break answer;
        }
        std::thread::yield_now();
    };
    assert_eq!(&*answer, reference(&engine, DbId::Macro, question));
    assert!(ticket.try_answer().is_none(), "an answer is delivered exactly once");
}
