//! Live-data evaluation: interleaves synthetic tick appends with
//! dev-set questions and proves, at every epoch, that the served
//! answers are byte-identical to a cold engine rebuilt from the
//! replayed change log.
//!
//! The scenario [`evaluate_ex_live`] drives:
//!
//! 1. a **cold reference** is built from a fresh
//!    [`BullDataset::generate`] at the same seed — the base snapshot —
//!    and caught up each round by *replaying* the live databases'
//!    change logs and rebuilding its data-derived artifacts from
//!    scratch ([`FinSql::rebuild_data`]);
//! 2. each round, `bull::datagen`-minted ticks are appended through the
//!    validated live path (`Database::apply_changes`), the live system
//!    absorbs the log tail incrementally ([`FinSql::absorb_appends`]),
//!    and the config fingerprint is asserted to have moved;
//! 3. the round's dev questions are then served through **every**
//!    serving path — fresh, cached (a shared [`AnswerCache`] that lives
//!    across epochs), micro-batched, and the coalescing
//!    [`BatchScheduler`] — and every answer is asserted byte-identical
//!    to the cold reference's fresh answer at the same epoch.
//!
//! The cache passes double as the stale-hit proof: the same questions
//! are re-asked every round against the same shared cache, and the
//! first pass after an append must be *all misses* (the epoch moved the
//! fingerprint, so every pre-append entry is unreachable), while the
//! second pass within the round must be all hits.

use crate::batch::{BatchConfig, BatchScheduler};
use crate::cache::{Answerer, AnswerCache};
use crate::eval::EvalOutcome;
use crate::metrics::EvalMetrics;
use crate::pipeline::FinSql;
use bull::{BullDataset, DbId, Split};
use sqlengine::execution_accuracy;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Shape of one live-evaluation scenario.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// Append rounds after the initial epoch-0 round; each round appends
    /// one change record per leaf fact table per database.
    pub epochs: usize,
    /// Rows minted per leaf fact table per round.
    pub rows_per_table: usize,
    /// Dev questions served per database per round (the same slice every
    /// round, so cross-epoch cache behaviour is observable).
    pub questions_per_db: usize,
    /// Seed stream for tick minting (mixed with the round number).
    pub tick_seed: u64,
    /// Micro-batch size of the batched pass and the scheduler.
    pub batch: usize,
    /// Scheduler worker threads (and concurrent submitters).
    pub workers: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            epochs: 3,
            rows_per_table: 2,
            questions_per_db: 8,
            tick_seed: 0x71C5,
            batch: 3,
            workers: 2,
        }
    }
}

/// What one round (one data epoch per database) served and proved.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Per-database epoch after this round's appends, in [`DbId::ALL`]
    /// order.
    pub epochs: [u64; 3],
    /// Execution accuracy of the fresh path against gold SQL *on the
    /// current data state*.
    pub ex: EvalOutcome,
    /// Answers served this round across all four paths.
    pub served: usize,
    /// Cache hits on the round's first cached pass — zero by
    /// construction (round 0 is cold; later rounds follow an epoch bump
    /// that re-keys every entry).
    pub first_pass_hits: u64,
    /// Cache hits on the round's second cached pass — every question,
    /// by construction (the first pass filled the current-epoch keys).
    pub second_pass_hits: u64,
}

/// The full scenario's totals.
#[derive(Debug, Clone)]
pub struct LiveOutcome {
    pub rounds: Vec<RoundReport>,
    /// Change records applied across the run (= epoch bumps summed over
    /// databases).
    pub change_records: usize,
    /// Rows those records carried.
    pub appended_rows: usize,
    /// Answers served across all rounds and paths.
    pub served: usize,
}

impl LiveOutcome {
    /// Pooled fresh-path EX over every round.
    pub fn pooled_ex(&self) -> EvalOutcome {
        let mut pooled = EvalOutcome::default();
        for r in &self.rounds {
            pooled.absorb(&r.ex);
        }
        pooled
    }
}

/// Runs the live scenario described in the module docs. `system` must
/// have been built on `ds`, and `dataset_seed` must be the seed `ds` was
/// generated from — the cold reference regenerates the base snapshot
/// from it and replays the live change logs on top. Returns the system
/// (threaded through by value because the scheduler pass needs `Arc`
/// ownership) together with the outcome. Panics — with the offending
/// question — if any served answer differs from the cold reference, if
/// the incrementally absorbed value index differs from the rebuilt one,
/// if an epoch bump fails to move the fingerprint, or if the cache
/// serves across an epoch boundary.
pub fn evaluate_ex_live(
    ds: &mut BullDataset,
    mut system: FinSql,
    dataset_seed: u64,
    cfg: &LiveConfig,
    metrics: Option<&EvalMetrics>,
) -> (FinSql, LiveOutcome) {
    let lang = system.config.lang;
    // The question slate is fixed up front: examples are minted before
    // any append, so the same (db, question, gold) triples are valid at
    // every epoch — only their answers' data state moves.
    let slate: Vec<(DbId, String, String)> = DbId::ALL
        .into_iter()
        .flat_map(|db| {
            ds.examples_for(db, Split::Dev)
                .into_iter()
                .take(cfg.questions_per_db)
                .map(move |e| (db, e.question(lang).to_string(), e.sql.clone()))
                .collect::<Vec<_>>()
        })
        .collect();

    // Cold reference: the same training run on the regenerated base
    // snapshot. Training sees only examples (identical by seed), so the
    // two systems start fingerprint-equal; data state is caught up by
    // replay + from-scratch rebuild each round.
    let mut cold_ds = BullDataset::generate(dataset_seed);
    let mut cold = FinSql::build(&cold_ds, system.profile, system.config);

    let cache = AnswerCache::unbounded();
    let mut outcome = LiveOutcome {
        rounds: Vec::with_capacity(cfg.epochs + 1),
        change_records: 0,
        appended_rows: 0,
        served: 0,
    };
    let mut prev_fingerprint = system.config_fingerprint();

    for round in 0..=cfg.epochs {
        // --- Append phase (every round after the first). ---
        if round > 0 {
            for db in DbId::ALL {
                let ticks =
                    ds.mint_ticks(db, cfg.tick_seed.wrapping_add(round as u64), cfg.rows_per_table);
                let records = ticks.len();
                let rows: usize = ticks.iter().map(|(_, r)| r.len()).sum();
                // INVARIANT: mint_ticks draws FK values from the
                // generator's own key pools and types from the column
                // profiles, so the live validation path accepts them.
                ds.db_mut(db).apply_changes(ticks).expect("minted ticks are valid");
                system.absorb_appends(db, ds.db(db));
                if let Some(m) = metrics {
                    m.record_append(records as u64, rows as u64);
                }
                outcome.change_records += records;
                outcome.appended_rows += rows;
            }
            let fingerprint = system.config_fingerprint();
            assert_ne!(
                fingerprint, prev_fingerprint,
                "epoch bump must move the config fingerprint (round {round})"
            );
            prev_fingerprint = fingerprint;
        }

        // --- Cold catch-up: replay the logs, rebuild from scratch. ---
        for db in DbId::ALL {
            // INVARIANT: the cold database is the same base snapshot
            // (same seed), so replaying the live log onto it revalidates
            // rows that already passed the live path once.
            cold_ds.db_mut(db).replay(ds.db(db).change_log()).expect("replay onto equal base");
            cold.rebuild_data(db, cold_ds.db(db));
            assert!(
                system.runtime(db).values == cold.runtime(db).values,
                "incrementally absorbed value index diverged from the rebuild (round {round}, {db})"
            );
            assert_eq!(
                cold_ds.db(db).epoch(),
                ds.db(db).epoch(),
                "replay must reach the live epoch ({db})"
            );
        }
        assert_eq!(
            cold.config_fingerprint(),
            prev_fingerprint,
            "cold rebuild at the same epoch must fingerprint-match the live system"
        );

        let mut report = RoundReport {
            epochs: [
                ds.db(DbId::Fund).epoch().0,
                ds.db(DbId::Stock).epoch().0,
                ds.db(DbId::Macro).epoch().0,
            ],
            ex: EvalOutcome::default(),
            served: 0,
            first_pass_hits: 0,
            second_pass_hits: 0,
        };

        // --- Path 1: fresh (also mints the round's reference answers
        // from the cold engine and scores EX on the current data). ---
        let mut refs: Vec<String> = Vec::with_capacity(slate.len());
        for (db, question, gold) in &slate {
            let live = system.answer_fresh(*db, question, metrics);
            let reference = cold.answer_fresh(*db, question, None);
            assert_eq!(
                live, reference,
                "fresh answer diverged from cold rebuild (round {round}, {db}: {question})"
            );
            if execution_accuracy(ds.db(*db), &live, gold) {
                report.ex.correct += 1;
            }
            report.ex.total += 1;
            report.served += 1;
            refs.push(live);
        }

        // --- Path 2: cached, twice through the shared epoch-spanning
        // cache. First pass must be all misses (cold cache at round 0, a
        // fingerprint-moving epoch bump afterwards); second pass all
        // hits. ---
        for pass in 0..2 {
            let hits_before = cache.stats().hits;
            for ((db, question, _), reference) in slate.iter().zip(&refs) {
                let answer = system.answer_cached(&cache, *db, question, metrics);
                assert_eq!(
                    &*answer, reference,
                    "cached answer diverged (round {round}, pass {pass}, {db}: {question})"
                );
                report.served += 1;
            }
            let pass_hits = cache.stats().hits - hits_before;
            if pass == 0 {
                assert_eq!(
                    pass_hits, 0,
                    "stale hit: cache served across an epoch boundary (round {round})"
                );
                report.first_pass_hits = pass_hits;
            } else {
                assert_eq!(
                    pass_hits,
                    slate.len() as u64,
                    "warm pass must be served entirely from cache (round {round})"
                );
                report.second_pass_hits = pass_hits;
            }
        }

        // --- Path 3: micro-batched (uncached). ---
        for db in DbId::ALL {
            let idx: Vec<usize> =
                (0..slate.len()).filter(|&i| slate[i].0 == db).collect();
            for chunk in idx.chunks(cfg.batch.max(1)) {
                let questions: Vec<&str> =
                    chunk.iter().map(|&i| slate[i].1.as_str()).collect();
                let answers = system.answer_batch_with_metrics(db, &questions, metrics);
                for (&i, answer) in chunk.iter().zip(&answers) {
                    assert_eq!(
                        answer, &refs[i],
                        "batched answer diverged (round {round}, {db}: {})",
                        slate[i].1
                    );
                    report.served += 1;
                }
            }
        }

        // --- Path 4: the coalescing scheduler (uncached), fed from
        // concurrent submitters so batches actually form. ---
        let shared = Arc::new(system);
        {
            let scheduler = BatchScheduler::new(
                Arc::clone(&shared),
                None,
                None,
                BatchConfig {
                    max_batch: cfg.batch.max(1),
                    workers: cfg.workers.max(1),
                    queue_cap: 64,
                },
            );
            let answers: Mutex<Vec<Option<Arc<str>>>> = Mutex::new(vec![None; slate.len()]);
            let next = AtomicUsize::new(0);
            let submitters = cfg.workers.max(1).min(slate.len().max(1));
            crossbeam::scope(|scope| {
                for _ in 0..submitters {
                    scope.spawn(|_| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= slate.len() {
                            break;
                        }
                        let (db, question, _) = &slate[i];
                        let answer = scheduler.answer(*db, question);
                        // INVARIANT: slot mutex is only poisoned by a
                        // sibling submitter panic, which fails the round
                        // anyway.
                        answers.lock().expect("answers lock poisoned")[i] = Some(answer);
                    });
                }
            })
            // INVARIANT: scope() only errs when a submitter panicked,
            // and a submitter panic is a test failure by design.
            .expect("scheduler submitter panicked");
            // INVARIANT: every index below slate.len() was claimed and
            // filled by exactly one submitter before the scope joined.
            let answers = answers.into_inner().expect("answers lock poisoned");
            for (i, answer) in answers.into_iter().enumerate() {
                // INVARIANT: as above — the scope joined, so every slot
                // is Some.
                let answer = answer.expect("scheduler answered every question");
                assert_eq!(
                    &*answer, refs[i],
                    "scheduler answer diverged (round {round}, {}: {})",
                    slate[i].0, slate[i].1
                );
                report.served += 1;
            }
        }
        system = match Arc::try_unwrap(shared) {
            Ok(s) => s,
            // INVARIANT: the scheduler (sole clone holder) joined its
            // workers on drop, so this Arc is unique again.
            Err(_) => unreachable!("scheduler released its engine handle"),
        };

        outcome.served += report.served;
        outcome.rounds.push(report);
    }
    (system, outcome)
}
