//! Repository-level integration tests: the full FinSQL pipeline over the
//! real benchmark, exercising every crate together.

use bull::{DbId, Lang, Split};
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use simllm::profiles::LLAMA2_13B;
use std::sync::OnceLock;

fn dataset() -> &'static bull::BullDataset {
    static DS: OnceLock<bull::BullDataset> = OnceLock::new();
    DS.get_or_init(|| bull::build(bull::DEFAULT_SEED))
}

fn system() -> &'static FinSql {
    static SYS: OnceLock<FinSql> = OnceLock::new();
    SYS.get_or_init(|| {
        FinSql::build(dataset(), &LLAMA2_13B, FinSqlConfig::standard(Lang::En))
    })
}

#[test]
fn benchmark_matches_paper_shape() {
    let ds = dataset();
    assert_eq!(ds.len(), 4966);
    assert_eq!(ds.db(DbId::Stock).catalog().tables.len(), 31);
    assert_eq!(ds.db(DbId::Fund).catalog().tables.len(), 28);
    assert_eq!(ds.db(DbId::Macro).catalog().tables.len(), 19);
}

/// Pins every gold query's result across commits: FNV-1a over the
/// `Debug` text of `sqlengine::run_sql` for all 4,966 examples in
/// dataset order, each framed by its byte length (the framing of
/// `batch_equality.rs`'s dev-answer digest). It is the differential test
/// for the executor's per-statement subquery memo: the constant was
/// recorded before the memo existed. It holds in debug and release
/// builds; change it only in a commit meant to move execution results.
#[test]
fn gold_results_match_the_recorded_digest() {
    const RECORDED: u64 = 0xac96_3a1d_d55f_4f98;
    let ds = dataset();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for e in &ds.examples {
        let text = format!("{:?}", sqlengine::run_sql(ds.db(e.db), &e.sql));
        feed(&(text.len() as u64).to_le_bytes());
        feed(text.as_bytes());
    }
    assert_eq!(ds.examples.len(), 4966, "benchmark size changed");
    assert_eq!(h, RECORDED, "gold results moved: digest {h:#018x}");
}

#[test]
fn finsql_answers_execute() {
    let ds = dataset();
    let sys = system();
    // Every produced answer must at least be parseable SQL; the vast
    // majority must execute.
    let mut parses = 0;
    let mut executes = 0;
    let dev = ds.examples_for(DbId::Fund, Split::Dev);
    let sample = &dev[..50];
    for e in sample {
        let q = e.question(Lang::En);
        let sql = sys.answer(DbId::Fund, q);
        if sqlkit::parse_statement(&sql).is_ok() {
            parses += 1;
        }
        if sqlengine::run_sql(ds.db(DbId::Fund), &sql).is_ok() {
            executes += 1;
        }
    }
    assert_eq!(parses, sample.len(), "calibrated output must always parse");
    assert!(executes >= sample.len() * 9 / 10, "only {executes}/{} executed", sample.len());
}

#[test]
fn finsql_beats_the_unaugmented_uncalibrated_ablation() {
    let ds = dataset();
    let sys = system();
    let mut full = finsql_core::eval::EvalOutcome::default();
    for e in ds.examples_for(DbId::Fund, Split::Dev).iter().take(150) {
        let q = e.question(Lang::En);
        if sqlengine::execution_accuracy(ds.db(DbId::Fund), &sys.answer(DbId::Fund, q), &e.sql) {
            full.correct += 1;
        }
        full.total += 1;
    }
    // The headline system must clear 70% EX on this slice (paper: 82.2%
    // overall) — a regression guard for the whole pipeline.
    assert!(full.ex() > 0.70, "EX regressed: {:.3}", full.ex());
}

#[test]
fn answers_are_deterministic_per_question() {
    let ds = dataset();
    let sys = system();
    let e = ds.examples_for(DbId::Stock, Split::Dev)[0];
    let q = e.question(Lang::En);
    assert_eq!(sys.answer(DbId::Stock, q), sys.answer(DbId::Stock, q));
}

#[test]
fn question_rng_differs_between_databases() {
    use rand::RngCore;
    let sys = system();
    let q = "what is the total value";
    let mut fund = sys.question_rng(DbId::Fund, q);
    let mut stock = sys.question_rng(DbId::Stock, q);
    assert_ne!(
        (0..4).map(|_| fund.next_u64()).collect::<Vec<_>>(),
        (0..4).map(|_| stock.next_u64()).collect::<Vec<_>>(),
        "the same phrasing on two databases must draw independently"
    );
}

#[test]
fn parallel_eval_matches_serial_exactly() {
    use finsql_core::{evaluate_ex, EvalPlan};
    let ds = dataset();
    let sys = system();
    let serial_plan = EvalPlan { workers: 1, batch: 1, limit_per_db: Some(40) };
    let eval = |plan| evaluate_ex(ds, Lang::En, plan, |db, qs| sys.answer_batch(db, qs));
    let serial = eval(serial_plan);
    let parallel = eval(EvalPlan { workers: 4, ..serial_plan });
    assert_eq!(serial, parallel, "sharded evaluation must reproduce the serial counts exactly");
    assert_eq!(parallel.outcome(DbId::Fund).total, 40);
}

#[test]
fn interleaved_eval_matches_serial_per_db_at_any_worker_count() {
    use finsql_core::{evaluate_ex, EvalPlan};
    let ds = dataset();
    let sys = system();
    let serial_plan = EvalPlan { workers: 1, batch: 1, limit_per_db: Some(20) };
    let eval = |plan| evaluate_ex(ds, Lang::En, plan, |db, qs| sys.answer_batch(db, qs));
    let serial = eval(serial_plan);
    for workers in [1, 3, 8] {
        let interleaved = eval(EvalPlan { workers, ..serial_plan });
        for db in DbId::ALL {
            assert_eq!(
                serial.outcome(db),
                interleaved.outcome(db),
                "per-database counts diverged on {db:?} with {workers} workers"
            );
        }
        assert_eq!(serial.pooled(), interleaved.pooled());
    }
}

#[test]
fn cached_eval_matches_uncached_and_warm_pass_hits() {
    use finsql_core::{evaluate_ex, Answerer, AnswerCache, EvalPlan};
    let ds = dataset();
    let sys = system();
    let plan = EvalPlan { workers: 4, batch: 1, limit_per_db: Some(20) };
    let uncached = evaluate_ex(ds, Lang::En, plan, |db, qs| sys.answer_batch(db, qs));
    let cache = AnswerCache::unbounded();
    for pass in 0..2 {
        let cached = evaluate_ex(ds, Lang::En, plan, |db, qs| {
            qs.iter().map(|q| sys.answer_cached(&cache, db, q, None)).collect()
        });
        for db in DbId::ALL {
            assert_eq!(
                uncached.outcome(db),
                cached.outcome(db),
                "cached pass {pass} diverged from uncached on {db:?}"
            );
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.entries, 60, "20 questions per database must be resident");
    assert!(stats.hits >= 60, "the warm pass must be served from the cache");
    assert_eq!(stats.evictions, 0);
}

mod cached_answer_property {
    use super::*;
    use finsql_core::{Answerer, AnswerCache};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// One cache shared across all sampled cases, capped small so the
    /// draw sequence also exercises eviction and re-computation.
    fn shared_cache() -> &'static AnswerCache {
        static CACHE: OnceLock<AnswerCache> = OnceLock::new();
        CACHE.get_or_init(|| AnswerCache::with_capacity(32))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 24 } else { 96 }
        ))]

        /// Arbitrary (database, dev-set index) draws: serving through the
        /// cache must never change an answer.
        #[test]
        fn cached_answer_equals_uncached_answer(
            db_idx in 0usize..3,
            ex_idx in 0usize..40,
        ) {
            let ds = dataset();
            let sys = system();
            let db = DbId::ALL[db_idx];
            let q = ds.examples_for(db, Split::Dev)[ex_idx].question(Lang::En);
            let fresh = sys.answer(db, q);
            let cached = sys.answer_cached(shared_cache(), db, q, None);
            prop_assert_eq!(fresh.as_str(), &*cached, "cache changed the answer for {:?}", db);
        }
    }
}

#[test]
fn metrics_count_questions_and_candidates() {
    use finsql_core::Answerer;
    let ds = dataset();
    let sys = system();
    let metrics = finsql_core::EvalMetrics::new();
    let n = 10;
    for e in ds.examples_for(DbId::Fund, Split::Dev).iter().take(n) {
        sys.answer_fresh(DbId::Fund, e.question(Lang::En), Some(&metrics));
    }
    let snap = metrics.snapshot();
    assert_eq!(snap.questions, n as u64);
    // Each lone question is answered as a batch of one.
    assert_eq!((snap.batches, snap.max_batch), (n as u64, 1));
    // Every question samples exactly n_candidates candidates.
    assert_eq!(snap.candidates, (n * sys.config.n_candidates) as u64);
    assert!(snap.link_time > std::time::Duration::ZERO);
    assert!(snap.gen_time > std::time::Duration::ZERO);
}

#[test]
fn plugin_roundtrip_through_hub_bytes() {
    let sys = system();
    let plugin = sys.hub.get("fund-en").expect("trained plugin registered");
    let bytes = plugin.to_bytes();
    let back = simllm::LoraPlugin::from_bytes(bytes).unwrap();
    assert_eq!(*plugin, back);
}

#[test]
fn calibration_repairs_noise_end_to_end() {
    let ds = dataset();
    let schema = ds.db(DbId::Stock).catalog();
    let gold = "SELECT chinameabbr FROM lc_stockarchives WHERE listexchange = 'Shanghai Stock Exchange'";
    // Corrupt heavily, then calibrate back.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let rates = simllm::noise::NoiseRates {
        typo: 0.6,
        double_eq: 0.6,
        drop_on: 0.0,
        misalign: 0.0,
        value: 0.0,
    };
    let candidates: Vec<String> =
        (0..7).map(|_| simllm::noise::corrupt(gold, &rates, 1.0, &mut rng)).collect();
    let fixed =
        finsql_core::calibrate(&candidates, schema, &finsql_core::CalibrationConfig::default())
            .unwrap();
    assert!(
        sqlengine::execution_accuracy(ds.db(DbId::Stock), &fixed, gold),
        "calibrated {fixed:?} must match gold"
    );
}
