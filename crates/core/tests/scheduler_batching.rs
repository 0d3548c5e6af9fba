//! The [`BatchScheduler`]'s batching contract (crates/core/src/batch.rs):
//! a worker takes what is queued, up to [`BatchConfig::max_batch`], and
//! computes it at once. Nothing waits for a batch to fill, so a lone
//! request is a batch of one, and requests queued while the worker
//! computes coalesce into the next batch.
//!
//! Every assertion is on the metrics sink's counts and on answer bytes,
//! never on wall-clock intervals.

use bull::{DbId, Lang};
use finsql_core::batch::{BatchConfig, BatchScheduler, Ticket};
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
fn a_lone_request_forms_a_batch_of_one() {
    let engine = engine();
    let metrics = Arc::new(EvalMetrics::new());
    let scheduler = BatchScheduler::new(
        Arc::clone(&engine),
        None,
        Some(Arc::clone(&metrics)),
        BatchConfig { max_batch: 8, workers: 1, queue_cap: 16 },
    );
    let question = "how many funds have an open redemption status";
    let answer = scheduler.answer(DbId::Fund, question);
    assert_eq!(&*answer, reference(&engine, DbId::Fund, question));
    let snap = metrics.snapshot();
    assert_eq!(
        (snap.batches, snap.batched_questions, snap.max_batch),
        (1, 1, 1),
        "a lone request is computed as it is, not held for company"
    );
}

#[test]
fn requests_queued_while_the_worker_computes_coalesce_up_to_max_batch() {
    let engine = engine();
    let metrics = Arc::new(EvalMetrics::new());
    let scheduler = BatchScheduler::new(
        Arc::clone(&engine),
        None,
        Some(Arc::clone(&metrics)),
        BatchConfig { max_batch: 8, workers: 1, queue_cap: 64 },
    );
    // One burst, submitted without waiting: a submission takes
    // microseconds, a computed question hundreds of them, so the queue
    // holds far more than one batch while the worker computes. One
    // database, so the engine's batch counters see whole batches (a
    // mixed batch is counted per database).
    let questions: Vec<String> =
        (0..64).map(|i| format!("list the largest holdings (coalescing probe {i})")).collect();
    let claims: Vec<_> = questions
        .iter()
        .map(|q| match scheduler.try_submit(DbId::Fund, q.as_str()) {
            Ok(Ticket::Queued(claim)) => claim,
            Ok(Ticket::Hit(_)) => panic!("no cache, so nothing can hit"),
            Err(e) => panic!("a queue of 64 holds the burst: {e}"),
        })
        .collect();
    for (question, claim) in questions.iter().zip(claims) {
        assert_eq!(
            &*claim.wait(),
            reference(&engine, DbId::Fund, question),
            "coalescing never changes an answer ({question})"
        );
    }
    let snap = metrics.snapshot();
    assert_eq!(snap.batched_questions, questions.len() as u64);
    assert_eq!(snap.max_batch, 8, "a backlog coalesces into full batches, and no batch is larger");
    assert!(
        snap.batches < questions.len() as u64,
        "{} batches for {} requests: nothing coalesced",
        snap.batches,
        questions.len()
    );
}
