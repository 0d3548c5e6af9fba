//! Batched-engine equivalence tests: a micro-batch must answer
//! byte-identically to batches of one (`FinSql::answer`) — for arbitrary
//! question subsets, at every batch size, through the coalescing
//! scheduler, and through the cache — the evaluator must reproduce the
//! single-threaded batch-of-one per-database EX counts exactly at every
//! worker count and batch size, and recorded digests pin both registers'
//! dev answers across commits.

use bull::{DbId, Lang, Split};
use finsql_core::batch::{BatchConfig, BatchScheduler};
use finsql_core::cache::AnswerCache;
use finsql_core::eval::{evaluate_ex, EvalPlan};
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use proptest::prelude::*;
use simllm::profiles::{BAICHUAN2_13B, LLAMA2_13B};
use std::sync::{Arc, OnceLock};

fn dataset() -> &'static bull::BullDataset {
    static DS: OnceLock<bull::BullDataset> = OnceLock::new();
    DS.get_or_init(|| bull::build(bull::DEFAULT_SEED))
}

fn system() -> &'static Arc<FinSql> {
    static SYS: OnceLock<Arc<FinSql>> = OnceLock::new();
    SYS.get_or_init(|| {
        Arc::new(FinSql::build(dataset(), &LLAMA2_13B, FinSqlConfig::standard(Lang::En)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `answer_batch` equals `answer` (a batch of one) byte for byte on
    /// arbitrary question subsets (duplicates included) of every database.
    #[test]
    fn answer_batch_matches_answer_on_arbitrary_subsets(
        indices in proptest::collection::vec(0usize..200, 1..12),
        db_pick in 0usize..3,
    ) {
        let db = DbId::ALL[db_pick];
        let dev = dataset().examples_for(db, Split::Dev);
        let questions: Vec<&str> =
            indices.iter().map(|i| dev[i % dev.len()].question(Lang::En)).collect();
        let batched = system().answer_batch(db, &questions);
        prop_assert_eq!(batched.len(), questions.len());
        for (q, a) in questions.iter().zip(&batched) {
            prop_assert_eq!(&system().answer(db, q), a, "diverged on {:?}", q);
        }
    }

    /// `answer_batch_mixed` equals `answer` byte for byte on arbitrary
    /// interleavings of databases — the grouping, per-db sub-batching and
    /// scatter-back are invisible to every request, with and without a
    /// cache in front.
    #[test]
    fn mixed_db_batches_match_serial_answers(
        picks in proptest::collection::vec((0usize..3, 0usize..200), 1..12),
        cached in any::<bool>(),
    ) {
        let requests: Vec<(DbId, &str)> = picks
            .iter()
            .map(|&(dbi, qi)| {
                let db = DbId::ALL[dbi];
                let dev = dataset().examples_for(db, Split::Dev);
                (db, dev[qi % dev.len()].question(Lang::En))
            })
            .collect();
        let cache = cached.then(AnswerCache::unbounded);
        let got = system().answer_batch_mixed(cache.as_ref(), &requests, None);
        prop_assert_eq!(got.len(), requests.len());
        for ((db, q), a) in requests.iter().zip(&got) {
            let want = system().answer(*db, q);
            prop_assert_eq!(want.as_str(), &**a, "diverged on {:?} {:?}", db, q);
        }
    }
}

/// Fixed batch sizes spanning degenerate (1), underfull, prime-ragged and
/// whole-set (64) chunkings all reproduce the reference answers, as does
/// the cache-first path both cold and warm.
#[test]
fn every_batch_size_and_the_cached_path_are_exact() {
    let db = DbId::Stock;
    let dev = dataset().examples_for(db, Split::Dev);
    let questions: Vec<&str> = dev.iter().take(64).map(|e| e.question(Lang::En)).collect();
    let reference: Vec<String> = questions.iter().map(|q| system().answer(db, q)).collect();
    for &bs in &[1usize, 3, 7, 64] {
        let mut got = Vec::with_capacity(questions.len());
        for chunk in questions.chunks(bs) {
            got.extend(system().answer_batch(db, chunk));
        }
        assert_eq!(got, reference, "batch size {bs} diverged");
    }
    let cache = AnswerCache::unbounded();
    for pass in ["cold", "warm"] {
        let mut got: Vec<std::sync::Arc<str>> = Vec::with_capacity(questions.len());
        for chunk in questions.chunks(7) {
            got.extend(system().answer_batch_cached(&cache, db, chunk, None));
        }
        let got: Vec<&str> = got.iter().map(|a| &**a).collect();
        let want: Vec<&str> = reference.iter().map(String::as_str).collect();
        assert_eq!(got, want, "{pass} cached batches diverged");
    }
    assert!(cache.stats().hits >= questions.len() as u64, "warm pass must hit the cache");
}

/// The scheduler front-end — concurrent submitters, coalesced micro-
/// batches, cache-first routing — returns exactly the reference answer
/// for every request, cold and warm, at several worker counts.
#[test]
fn scheduler_coalescing_is_invisible_to_callers() {
    let db = DbId::Fund;
    let dev = dataset().examples_for(db, Split::Dev);
    let questions: Vec<&str> = dev.iter().take(32).map(|e| e.question(Lang::En)).collect();
    let reference: Vec<String> = questions.iter().map(|q| system().answer(db, q)).collect();
    for workers in [1usize, 3] {
        let cache = Arc::new(AnswerCache::unbounded());
        let scheduler = BatchScheduler::new(
            Arc::clone(system()),
            Some(Arc::clone(&cache)),
            None,
            BatchConfig { max_batch: 7, workers, ..BatchConfig::default() },
        );
        for pass in ["cold", "warm"] {
            // Submit from several threads at once so the workers actually
            // get concurrent requests to coalesce.
            let got: Vec<Arc<str>> = std::thread::scope(|scope| {
                let handles: Vec<_> = questions
                    .iter()
                    .map(|q| scope.spawn(|| scheduler.answer(db, q)))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("submitter panicked")).collect()
            });
            let got: Vec<&str> = got.iter().map(|a| &**a).collect();
            let want: Vec<&str> = reference.iter().map(String::as_str).collect();
            assert_eq!(got, want, "{workers}-worker scheduler diverged on {pass} pass");
        }
        assert!(
            cache.stats().hits >= questions.len() as u64,
            "warm pass must be served from the cache"
        );
    }
}

/// The scheduler coalesces requests across databases into one micro-
/// batch; every request must still get its reference answer when the
/// submitters interleave all three databases at once, and the warm pass
/// must be served from the cache.
#[test]
fn mixed_db_scheduler_traffic_is_exact() {
    // Round-robin the databases so neighbouring queue entries almost
    // always differ in db — the worst case for coalescing.
    let requests: Vec<(DbId, &str)> = (0..36)
        .map(|i| {
            let db = DbId::ALL[i % DbId::ALL.len()];
            let dev = dataset().examples_for(db, Split::Dev);
            (db, dev[i % dev.len()].question(Lang::En))
        })
        .collect();
    let reference: Vec<String> =
        requests.iter().map(|(db, q)| system().answer(*db, q)).collect();
    let cache = Arc::new(AnswerCache::unbounded());
    let scheduler = BatchScheduler::new(
        Arc::clone(system()),
        Some(Arc::clone(&cache)),
        None,
        BatchConfig { max_batch: 8, workers: 2, ..BatchConfig::default() },
    );
    for pass in ["cold", "warm"] {
        let got: Vec<Arc<str>> = std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .iter()
                .map(|(db, q)| scope.spawn(|| scheduler.answer(*db, q)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("submitter panicked")).collect()
        });
        let got: Vec<&str> = got.iter().map(|a| &**a).collect();
        let want: Vec<&str> = reference.iter().map(String::as_str).collect();
        assert_eq!(got, want, "mixed-db scheduler diverged on {pass} pass");
    }
    assert!(
        cache.stats().hits >= requests.len() as u64,
        "warm pass must be served from the cache"
    );
}

/// FNV-1a over every dev answer of the three databases in one register,
/// produced by `answer_batch` in chunks of 8, each answer framed by its
/// byte length. Returns the digest and the number of answers fed.
fn dev_answer_digest(sys: &FinSql, lang: Lang) -> (u64, usize) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let mut answers = 0;
    for db in DbId::ALL {
        let dev = dataset().examples_for(db, Split::Dev);
        let questions: Vec<&str> = dev.iter().map(|e| e.question(lang)).collect();
        for chunk in questions.chunks(8) {
            for a in sys.answer_batch(db, chunk) {
                feed(&(a.len() as u64).to_le_bytes());
                feed(a.as_bytes());
                answers += 1;
            }
        }
    }
    (h, answers)
}

/// Pins the full dev answer set across commits: the equality tests above
/// compare two paths of one build, so a change that moves both sides the
/// same way passes them. The digest is [`dev_answer_digest`] over every
/// English dev answer. The constant holds in debug and release builds;
/// change it only in a commit meant to move answers.
#[test]
fn dev_answers_match_the_recorded_digest() {
    const RECORDED: u64 = 0x4ffe_52fa_d0f6_ae1c;
    let (h, answers) = dev_answer_digest(system(), Lang::En);
    assert_eq!(answers, 1000, "English dev set size changed");
    assert_eq!(h, RECORDED, "dev answers moved: digest {h:#018x}");
}

/// The Chinese sibling of [`dev_answers_match_the_recorded_digest`]:
/// Table 5's register, the headline Baichuan2 system over every Chinese
/// dev answer.
#[test]
fn cn_dev_answers_match_the_recorded_digest() {
    const RECORDED: u64 = 0x40a2_1b2a_4f96_3918;
    let sys = FinSql::build(dataset(), &BAICHUAN2_13B, FinSqlConfig::standard(Lang::Cn));
    let (h, answers) = dev_answer_digest(&sys, Lang::Cn);
    assert_eq!(answers, 1000, "Chinese dev set size changed");
    assert_eq!(h, RECORDED, "Chinese dev answers moved: digest {h:#018x}");
}

/// The micro-batched evaluation reproduces the single-threaded
/// batch-of-one per-database EX counts exactly at every worker count and
/// batch size: neither the worker pool, nor the interleaved chunk queue,
/// nor the chunking can move a count.
#[test]
fn interleaved_batched_eval_reproduces_serial_counts() {
    let one = EvalPlan { workers: 1, batch: 1, limit_per_db: Some(20) };
    let eval =
        |plan| evaluate_ex(dataset(), Lang::En, plan, |db, qs| system().answer_batch(db, qs));
    let serial = eval(one);
    assert_eq!(serial.pooled().total, 60);
    for workers in [1usize, 2, 3, 8] {
        for batch in [1usize, 4, 16] {
            assert_eq!(
                serial,
                eval(EvalPlan { workers, batch, ..one }),
                "per-db counts diverged at workers={workers} batch={batch}"
            );
        }
    }
}
