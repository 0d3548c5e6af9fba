//! Differential mutation harness for the live-data append path
//! (crates/core/src/live.rs, crates/sqlengine/src/wal.rs).
//!
//! The claim under test: a system that absorbs appends *incrementally*
//! (`FinSql::absorb_appends` over the WAL tail) is indistinguishable,
//! answer for answer and byte for byte, from a cold system rebuilt from
//! scratch off the replayed change log — at every epoch, through every
//! serving path (fresh, cached, micro-batched, coalescing scheduler),
//! across batch sizes 1/3/8 and scheduler worker counts 1/3.
//!
//! `random_interleavings_match_cold_rebuild_at_every_epoch` drives a
//! seeded pseudo-random script of append and serve operations against a
//! live engine while a shadow engine follows by replay + from-scratch
//! rebuild; every serve is compared against the shadow. The shared
//! answer cache additionally gets *exact* hit accounting: a question is
//! expected to hit if and only if it was cached since the last epoch
//! bump, so a single stale (or missing) hit fails the run.

use bull::{BullDataset, DbId, Lang, Split};
use finsql_core::batch::{BatchConfig, BatchScheduler};
use finsql_core::cache::{Answerer, AnswerCache};
use finsql_core::live::{evaluate_ex_live, LiveConfig};
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

const SEED: u64 = bull::DEFAULT_SEED;

/// The live system, its shadow, and the bookkeeping that makes every
/// serve a differential check.
struct Harness {
    ds: BullDataset,
    cold_ds: BullDataset,
    /// `Option` only so the scheduler pass can move the engine into an
    /// `Arc` and recover it afterwards; always `Some` between ops.
    live: Option<FinSql>,
    cold: FinSql,
    cache: AnswerCache,
    /// Slate indices cached since the last epoch bump — the exact set of
    /// questions a cached serve is allowed (and required) to hit on.
    warm: HashSet<usize>,
    slate: Vec<(DbId, String)>,
    appends: usize,
    served: usize,
}

impl Harness {
    fn build() -> Harness {
        let ds = BullDataset::generate(SEED);
        let cold_ds = BullDataset::generate(SEED);
        let config = FinSqlConfig::standard(Lang::En);
        let live = FinSql::build(&ds, &simllm::profiles::LLAMA2_13B, config);
        let cold = FinSql::build(&cold_ds, &simllm::profiles::LLAMA2_13B, config);
        let slate: Vec<(DbId, String)> = DbId::ALL
            .into_iter()
            .flat_map(|db| {
                ds.examples_for(db, Split::Dev)
                    .into_iter()
                    .take(8)
                    .map(move |e| (db, e.question(Lang::En).to_string()))
                    .collect::<Vec<_>>()
            })
            .collect();
        Harness {
            ds,
            cold_ds,
            live: Some(live),
            cold,
            cache: AnswerCache::unbounded(),
            warm: HashSet::new(),
            slate,
            appends: 0,
            served: 0,
        }
    }

    /// Appends minted ticks to one database through the validated live
    /// path and lets the live system absorb the WAL tail incrementally.
    /// The shadow is deliberately *not* advanced here — it catches up
    /// lazily before the next comparison, so serves exercise arbitrary
    /// replay distances.
    fn append(&mut self, db: DbId, seed: u64, rows_per_table: usize) {
        let ticks = self.ds.mint_ticks(db, seed, rows_per_table);
        self.appends += ticks.len();
        self.ds.db_mut(db).apply_changes(ticks).expect("minted ticks are valid");
        assert!(
            self.live.as_mut().expect("engine parked").absorb_appends(db, self.ds.db(db)),
            "absorb_appends must report work for a non-empty tail"
        );
        self.warm.clear();
    }

    /// Replays the live change logs onto the shadow and rebuilds its
    /// data-derived artifacts from scratch, then proves both systems
    /// agree on where they are: same per-database epochs, structurally
    /// equal value indexes, same whole-system fingerprint.
    fn catch_up_cold(&mut self) {
        for db in DbId::ALL {
            self.cold_ds.db_mut(db).replay(self.ds.db(db).change_log()).expect("replay");
            self.cold.rebuild_data(db, self.cold_ds.db(db));
            assert_eq!(self.cold_ds.db(db).epoch(), self.ds.db(db).epoch());
            assert!(
                self.live.as_ref().expect("engine parked").runtime(db).values
                    == self.cold.runtime(db).values,
                "incrementally absorbed value index diverged from the rebuild ({db})"
            );
        }
        assert_eq!(
            self.live.as_ref().expect("engine parked").config_fingerprint(),
            self.cold.config_fingerprint(),
            "incremental absorption and cold rebuild landed on different fingerprints"
        );
    }

    fn reference(&self, i: usize) -> String {
        let (db, q) = &self.slate[i];
        self.cold.answer_fresh(*db, q, None)
    }

    fn serve_fresh(&mut self, indices: &[usize]) {
        self.catch_up_cold();
        for &i in indices {
            let (db, q) = &self.slate[i];
            assert_eq!(
                self.live.as_ref().expect("engine parked").answer_fresh(*db, q, None),
                self.reference(i),
                "fresh serve diverged from cold rebuild ({db}: {q})"
            );
            self.served += 1;
        }
    }

    /// Cached serve with exact hit accounting: the hit-count delta must
    /// equal the number of indices cached since the last epoch bump —
    /// one stale hit (or one missing warm hit) over the whole run fails.
    fn serve_cached(&mut self, indices: &[usize]) {
        self.catch_up_cold();
        // Simulate the lookup sequence: an index drawn twice in one
        // serve misses (and fills) on first sight, hits on the second.
        let mut sim = self.warm.clone();
        let mut expected_hits = 0u64;
        for i in indices {
            if !sim.insert(*i) {
                expected_hits += 1;
            }
        }
        let hits_before = self.cache.stats().hits;
        for &i in indices {
            let (db, q) = &self.slate[i];
            let answer =
                self.live.as_ref().expect("engine parked").answer_cached(&self.cache, *db, q, None);
            assert_eq!(
                &*answer,
                self.reference(i),
                "cached serve diverged from cold rebuild ({db}: {q})"
            );
            self.warm.insert(i);
            self.served += 1;
        }
        assert_eq!(
            self.cache.stats().hits - hits_before,
            expected_hits,
            "cache hits disagree with the epoch bookkeeping — a stale entry was served \
             or a warm entry missed"
        );
    }

    fn serve_batched(&mut self, db: DbId, batch: usize) {
        self.catch_up_cold();
        let indices: Vec<usize> =
            (0..self.slate.len()).filter(|&i| self.slate[i].0 == db).collect();
        for chunk in indices.chunks(batch) {
            let questions: Vec<&str> = chunk.iter().map(|&i| self.slate[i].1.as_str()).collect();
            let answers =
                self.live.as_ref().expect("engine parked").answer_batch(db, &questions);
            for (&i, answer) in chunk.iter().zip(&answers) {
                assert_eq!(
                    answer,
                    &self.reference(i),
                    "batched serve (size {batch}) diverged from cold rebuild ({db}: {})",
                    self.slate[i].1
                );
                self.served += 1;
            }
        }
    }

    /// Serves every slate question through a coalescing scheduler fed by
    /// `workers` concurrent submitters, then recovers the engine.
    fn serve_scheduler(&mut self, workers: usize, batch: usize) {
        self.catch_up_cold();
        let refs: Vec<String> = (0..self.slate.len()).map(|i| self.reference(i)).collect();
        let slate = std::mem::take(&mut self.slate);
        let live = Arc::new(self.live.take().expect("engine parked"));
        {
            let scheduler = BatchScheduler::new(
                Arc::clone(&live),
                None,
                None,
                BatchConfig {
                    max_batch: batch,
                    workers,
                    queue_cap: 64,
                },
            );
            let answers: Mutex<Vec<Option<std::sync::Arc<str>>>> =
                Mutex::new(vec![None; slate.len()]);
            let next = std::sync::atomic::AtomicUsize::new(0);
            crossbeam::scope(|scope| {
                for _ in 0..workers.max(1) {
                    scope.spawn(|_| loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= slate.len() {
                            break;
                        }
                        let (db, q) = &slate[i];
                        let answer = scheduler.answer(*db, q);
                        answers.lock().expect("lock")[i] = Some(answer);
                    });
                }
            })
            .expect("submitter panicked");
            let answers = answers.into_inner().expect("lock");
            for (i, answer) in answers.into_iter().enumerate() {
                assert_eq!(
                    &*answer.expect("scheduler answered"),
                    refs[i],
                    "scheduler serve ({workers} workers, batch {batch}) diverged ({}: {})",
                    slate[i].0,
                    slate[i].1
                );
                self.served += 1;
            }
        }
        self.live = match Arc::try_unwrap(live) {
            Ok(engine) => Some(engine),
            Err(_) => unreachable!("scheduler drop joins its workers"),
        };
        self.slate = slate;
    }

    fn random_indices(&self, rng: &mut StdRng, max: usize) -> Vec<usize> {
        let n = rng.gen_range(1..=max.min(self.slate.len()));
        (0..n).map(|_| rng.gen_range(0..self.slate.len())).collect()
    }
}

/// The main drill: a seeded pseudo-random interleaving of appends and
/// serves, with forced coverage of every batch size and worker count
/// the issue names, differentially checked against the shadow at every
/// step.
#[test]
fn random_interleavings_match_cold_rebuild_at_every_epoch() {
    let mut h = Harness::build();
    let mut rng = StdRng::seed_from_u64(0x11FE_DA7A);
    let batch_sizes = [1usize, 3, 8];
    let worker_counts = [1usize, 3];

    // Pre-append sanity: with no inserts, live and cold are the same
    // system — fingerprints equal, answers equal (the "tables stay
    // byte-identical when nothing changes" case).
    h.serve_fresh(&(0..h.slate.len()).collect::<Vec<_>>());

    for step in 0u64..36 {
        match rng.gen_range(0..10) {
            0..=2 => {
                let db = DbId::ALL[rng.gen_range(0..3)];
                let rows = rng.gen_range(1..=2);
                h.append(db, 0x7100 + step, rows);
            }
            3..=4 => {
                let indices = h.random_indices(&mut rng, 6);
                h.serve_fresh(&indices);
            }
            5..=7 => {
                let indices = h.random_indices(&mut rng, 8);
                h.serve_cached(&indices);
            }
            8 => {
                let db = DbId::ALL[rng.gen_range(0..3)];
                let batch = batch_sizes[rng.gen_range(0..batch_sizes.len())];
                h.serve_batched(db, batch);
            }
            _ => {
                let workers = worker_counts[rng.gen_range(0..worker_counts.len())];
                let batch = batch_sizes[rng.gen_range(0..batch_sizes.len())];
                h.serve_scheduler(workers, batch);
            }
        }
    }

    // Forced coverage: every batch size and worker count at the final
    // (deepest) epoch, after one more append round touching every db.
    for (i, db) in DbId::ALL.into_iter().enumerate() {
        h.append(db, 0x7F00 + i as u64, 2);
    }
    for batch in batch_sizes {
        for db in DbId::ALL {
            h.serve_batched(db, batch);
        }
    }
    for workers in worker_counts {
        h.serve_scheduler(workers, 3);
    }
    let all: Vec<usize> = (0..h.slate.len()).collect();
    h.serve_cached(&all);
    h.serve_cached(&all);

    assert!(h.appends >= 10, "drill applied only {} change records", h.appends);
    assert!(h.served >= 200, "drill served only {} answers", h.served);
    assert!(
        h.ds.db(DbId::Fund).epoch().0 > 0
            && h.ds.db(DbId::Stock).epoch().0 > 0
            && h.ds.db(DbId::Macro).epoch().0 > 0,
        "every database must have moved past epoch zero"
    );
}

/// The packaged scenario (`evaluate_ex_live`) holds its own invariants
/// on a small configuration: per-round epoch monotonicity, exact warm
/// and cold cache passes, and the served-answer count.
#[test]
fn evaluate_ex_live_scenario_is_green() {
    let mut ds = BullDataset::generate(SEED);
    let config = FinSqlConfig::standard(Lang::En);
    let system = FinSql::build(&ds, &simllm::profiles::LLAMA2_13B, config);
    let cfg = LiveConfig {
        epochs: 2,
        rows_per_table: 2,
        questions_per_db: 3,
        tick_seed: 0xBEE5,
        batch: 3,
        workers: 2,
    };
    let (_system, outcome) = evaluate_ex_live(&mut ds, system, SEED, &cfg, None);

    assert_eq!(outcome.rounds.len(), cfg.epochs + 1);
    let slate = 3 * cfg.questions_per_db;
    for (round, report) in outcome.rounds.iter().enumerate() {
        assert_eq!(report.ex.total, slate, "round {round} scored the wrong slate");
        assert_eq!(report.first_pass_hits, 0, "round {round} served a stale cache entry");
        assert_eq!(report.second_pass_hits, slate as u64, "round {round} warm pass missed");
        // fresh + 2 cached passes + batched + scheduler = 5 passes.
        assert_eq!(report.served, slate * 5);
        if round > 0 {
            let prev = &outcome.rounds[round - 1];
            for (now, before) in report.epochs.iter().zip(&prev.epochs) {
                assert!(now > before, "round {round} did not advance every epoch");
            }
        } else {
            assert_eq!(report.epochs, [0, 0, 0], "round 0 must serve the base snapshot");
        }
    }
    assert!(outcome.change_records >= cfg.epochs * 3);
    assert!(outcome.appended_rows >= outcome.change_records);
    assert_eq!(outcome.served, slate * 5 * (cfg.epochs + 1));
    assert_eq!(outcome.pooled_ex().total, slate * (cfg.epochs + 1));
}
