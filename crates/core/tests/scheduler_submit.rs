//! Regression tests for the [`BatchScheduler`]'s submit paths and its
//! explicit shutdown semantics (crates/core/src/batch.rs):
//!
//! * `try_submit` must refuse with [`SubmitError::QueueFull`] when the
//!   bounded queue is at capacity — the backpressure signal the serving
//!   front-end turns into a `Busy` response — and every ticket it *does*
//!   hand out must resolve to the byte-exact reference answer.
//! * A cached question is answered at submission, with the allocation
//!   the worker filled, and every request is looked up in the cache
//!   exactly once; a miss refused for a full queue is not looked up at
//!   all.
//! * `shutdown` must drain requests already queued (stragglers get their
//!   real answers, nothing is dropped) while refusing new submissions
//!   with [`SubmitError::ShuttingDown`] on both the blocking and the
//!   non-blocking path.

use bull::{DbId, Lang};
use finsql_core::batch::{BatchConfig, BatchScheduler, SubmitError, Ticket};
use finsql_core::cache::AnswerCache;
use finsql_core::metrics::EvalMetrics;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use std::sync::{Arc, OnceLock};

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
        BatchConfig { max_batch: 1, workers: 1, queue_cap: 1 },
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
fn a_cached_question_is_answered_at_submission_with_one_lookup() {
    let engine = engine();
    let cache = Arc::new(AnswerCache::unbounded());
    let metrics = Arc::new(EvalMetrics::new());
    let scheduler = BatchScheduler::new(
        Arc::clone(&engine),
        Some(Arc::clone(&cache)),
        Some(Arc::clone(&metrics)),
        BatchConfig { max_batch: 8, workers: 1, queue_cap: 8 },
    );
    let question = "what is the total net asset value of all funds";
    // A cold question is queued; the worker computes it and fills the
    // cache before it delivers the answer.
    let computed = match scheduler.try_submit(DbId::Fund, question) {
        Ok(Ticket::Queued(claim)) => claim.wait(),
        Ok(Ticket::Hit(_)) => panic!("a cold cache cannot hit"),
        Err(e) => panic!("an empty queue accepts: {e}"),
    };
    assert_eq!(&*computed, reference(&engine, DbId::Fund, question));
    // Asked again, on either submit path, it is answered on this thread
    // with the very allocation the worker filled.
    for blocking in [false, false, true] {
        let ticket = if blocking {
            scheduler.submit(DbId::Fund, question)
        } else {
            scheduler.try_submit(DbId::Fund, question)
        };
        let Ok(Ticket::Hit(hit)) = ticket else { panic!("a filled question must hit") };
        assert!(Arc::ptr_eq(&hit, &computed), "a hit shares the filled answer");
    }
    // One lookup per request: the worker filled the miss without a
    // second lookup, and each hit was counted once, in the cache and in
    // the sink alike.
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.inserts), (3, 1, 1));
    let snap = metrics.snapshot();
    assert_eq!((snap.cache_hits, snap.cache_misses, snap.questions), (3, 1, 1));
    assert_eq!(snap.latency.count(), 1, "only the queued miss records an answer latency");
}

#[test]
fn a_full_queue_still_answers_hits_and_a_refused_miss_leaves_no_trace() {
    let engine = engine();
    let cache = Arc::new(AnswerCache::unbounded());
    // As in the shedding test above: one worker, batches of one and a
    // queue of one fill the queue within a few submissions.
    let scheduler = BatchScheduler::new(
        Arc::clone(&engine),
        Some(Arc::clone(&cache)),
        None,
        BatchConfig { max_batch: 1, workers: 1, queue_cap: 1 },
    );
    let hot = "list all fund names";
    let hot_answer = scheduler.answer(DbId::Fund, hot);
    let mut queued = Vec::new();
    let (mut refused, mut hits) = (0u64, 0u64);
    let mut i = 0usize;
    while refused < 4 || queued.len() < 4 {
        assert!(i < 100_000, "queue_cap=1 never produced QueueFull");
        let question = format!("list all funds (full-queue probe {i})");
        match scheduler.try_submit(DbId::Fund, question.as_str()) {
            Ok(Ticket::Queued(claim)) => queued.push((question, claim)),
            Ok(Ticket::Hit(_)) => panic!("a distinct cold question cannot hit: {question}"),
            Err(SubmitError::QueueFull) => {
                refused += 1;
                // The queue just refused a miss; a hit needs no room.
                match scheduler.try_submit(DbId::Fund, hot) {
                    Ok(Ticket::Hit(answer)) => {
                        assert!(Arc::ptr_eq(&answer, &hot_answer));
                        hits += 1;
                    }
                    Ok(Ticket::Queued(_)) => panic!("a filled question must hit"),
                    Err(e) => panic!("a hit is never refused: {e}"),
                }
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
        i += 1;
    }
    let accepted = queued.len() as u64;
    for (question, claim) in queued {
        assert_eq!(&*claim.wait(), reference(&engine, DbId::Fund, &question));
    }
    // The warm-up miss, each queued miss and each hit looked the cache
    // up once; the refused misses never did.
    let stats = cache.stats();
    assert_eq!(stats.misses, 1 + accepted, "{refused} refused misses must count nothing");
    assert_eq!(stats.hits, hits);
}

#[test]
fn shutdown_drains_queued_requests_and_refuses_stragglers() {
    let engine = engine();
    let cache = Arc::new(AnswerCache::unbounded());
    // One worker computing one question at a time: a burst of a few
    // dozen cold questions is submitted far faster than it is answered,
    // so most of it is still queued when shutdown begins.
    let mut scheduler = BatchScheduler::new(
        Arc::clone(&engine),
        Some(Arc::clone(&cache)),
        None,
        BatchConfig { max_batch: 1, workers: 1, queue_cap: 64 },
    );
    let questions: Vec<String> =
        (0..32).map(|i| format!("how many stocks closed higher (case {i})")).collect();
    let tickets: Vec<Ticket> = questions
        .iter()
        .map(|q| {
            scheduler
                .try_submit(DbId::Stock, q.as_str())
                .expect("queue of 64 cannot be full")
        })
        .collect();
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
    // The refused stragglers were never looked up.
    assert_eq!(cache.stats().misses, questions.len() as u64);
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
        BatchConfig { max_batch: 2, workers: 1, queue_cap: 8 },
    );
    let question = "which macro indicator rose last quarter";
    let Ok(Ticket::Queued(claim)) = scheduler.try_submit(DbId::Macro, question) else {
        panic!("without a cache an empty queue accepts every question");
    };
    // Poll like the serving event loop does: spin until the worker
    // delivers, then the slot is empty forever after.
    let answer = loop {
        if let Some(answer) = claim.try_answer() {
            break answer;
        }
        std::thread::yield_now();
    };
    assert_eq!(&*answer, reference(&engine, DbId::Macro, question));
    assert!(claim.try_answer().is_none(), "an answer is delivered exactly once");
}
