//! Regression tests for the [`BatchScheduler`]'s flush-deadline
//! anchoring (crates/core/src/batch.rs).
//!
//! Pre-fix, the flush deadline was armed when the worker started
//! *waiting*, not when the first request of the batch was *enqueued*: an
//! idle worker re-armed the deadline without holding a batch, so a
//! request landing just before a timeout wakeup inherited a nearly
//! expired deadline and was solo-flushed after far less than
//! [`BatchConfig::flush`]. Both tests below first let the worker go idle
//! past a full flush window (the state that armed the stale deadline)
//! and then prove the next request still gets its entire window:
//! measured wall time for a solo request, and an actually coalesced
//! micro-batch for a slow second submitter.

use bull::{DbId, Lang};
use finsql_core::batch::{BatchConfig, BatchScheduler};
use finsql_core::metrics::EvalMetrics;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

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

/// Parks the scheduler's worker long enough that a stale pre-fix
/// deadline (armed while idling) would have already expired.
fn idle_past_one_window(scheduler: &BatchScheduler, engine: &FinSql, flush: Duration) {
    let warmup = "list all fund names";
    assert_eq!(&*scheduler.answer(DbId::Fund, warmup), reference(engine, DbId::Fund, warmup));
    std::thread::sleep(flush + flush / 2);
}

#[test]
fn solo_request_waits_the_full_flush_window() {
    let engine = engine();
    let flush = Duration::from_millis(300);
    let scheduler = BatchScheduler::new(
        Arc::clone(&engine),
        None,
        None,
        BatchConfig { max_batch: 8, flush, workers: 1, queue_cap: 16 },
    );
    idle_past_one_window(&scheduler, &engine, flush);

    let question = "how many funds have an open redemption status";
    let start = Instant::now();
    let answer = scheduler.answer(DbId::Fund, question);
    let elapsed = start.elapsed();
    assert_eq!(&*answer, reference(&engine, DbId::Fund, question));
    // The batch stayed open for the whole window before the solo flush —
    // an inherited stale deadline would have flushed almost immediately.
    assert!(
        elapsed >= flush,
        "solo request flushed after {elapsed:?}, before its {flush:?} window closed"
    );
}

#[test]
fn slow_second_submitter_joins_the_first_request_batch() {
    let engine = engine();
    let flush = Duration::from_millis(400);
    let metrics = Arc::new(EvalMetrics::new());
    let scheduler = Arc::new(BatchScheduler::new(
        Arc::clone(&engine),
        None,
        Some(Arc::clone(&metrics)),
        BatchConfig { max_batch: 2, flush, workers: 1, queue_cap: 16 },
    ));
    idle_past_one_window(&scheduler, &engine, flush);

    let first_q = "what is the average management fee across funds";
    let second_q = "which fund manager has the longest tenure";
    let first = {
        let scheduler = Arc::clone(&scheduler);
        std::thread::spawn(move || {
            let start = Instant::now();
            let answer = scheduler.answer(DbId::Fund, first_q);
            (answer, start.elapsed())
        })
    };
    // The second submitter is slow: it arrives mid-window. A worker that
    // kept the first request's window open coalesces both into one
    // micro-batch; a worker on a stale deadline has already solo-flushed.
    std::thread::sleep(Duration::from_millis(150));
    let second_answer = scheduler.answer(DbId::Fund, second_q);
    let (first_answer, first_elapsed) = first.join().expect("first submitter panicked");

    assert_eq!(&*first_answer, reference(&engine, DbId::Fund, first_q));
    assert_eq!(&*second_answer, reference(&engine, DbId::Fund, second_q));
    assert!(
        first_elapsed >= Duration::from_millis(150),
        "first request answered after {first_elapsed:?} — it cannot have waited for the second"
    );
    let snap = metrics.snapshot();
    assert_eq!(
        snap.max_batch, 2,
        "the slow second submitter must coalesce into the first request's open batch"
    );
}
