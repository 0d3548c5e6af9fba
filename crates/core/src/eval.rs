//! Execution-accuracy (EX) evaluation, the paper's metric for every
//! Text-to-SQL result table.

use bull::{BullDataset, DbId, Lang, Split};
use sqlengine::execution_accuracy;

/// EX counts for one evaluation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalOutcome {
    pub correct: usize,
    pub total: usize,
}

impl EvalOutcome {
    /// Execution accuracy in `[0, 1]`.
    pub fn ex(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// Execution accuracy as a percentage.
    pub fn ex_pct(&self) -> f64 {
        self.ex() * 100.0
    }

    /// Merges another outcome into this one.
    pub fn absorb(&mut self, other: &EvalOutcome) {
        self.correct += other.correct;
        self.total += other.total;
    }
}

/// Per-database EX counts of one cross-database run, in [`DbId::ALL`]
/// order. The pooled headline number is [`MultiDbOutcome::pooled`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiDbOutcome {
    pub per_db: [EvalOutcome; DbId::ALL.len()],
}

impl MultiDbOutcome {
    /// The outcome of one database.
    pub fn outcome(&self, db: DbId) -> &EvalOutcome {
        // INVARIANT: DbId::ALL enumerates every DbId variant, so the
        // position lookup always succeeds.
        let idx = DbId::ALL.iter().position(|&d| d == db).expect("db in canonical order");
        &self.per_db[idx]
    }

    /// Counts pooled over every database (the headline EX of Tables 4/5).
    pub fn pooled(&self) -> EvalOutcome {
        let mut pooled = EvalOutcome::default();
        for per in &self.per_db {
            pooled.absorb(per);
        }
        pooled
    }
}

/// How [`evaluate_ex`] walks the dev sets: how many workers, how many
/// questions per prediction call, and how much of each dev set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalPlan {
    /// Worker threads draining the work queue; `0` sizes the pool to the
    /// available parallelism.
    pub workers: usize,
    /// Questions per `predict_batch` call; `0` is treated as 1.
    pub batch: usize,
    /// Dev examples evaluated per database, from the front of each dev
    /// set; `None` means all of them.
    pub limit_per_db: Option<usize>,
}

impl Default for EvalPlan {
    /// Every core, micro-batches of 8, whole dev sets.
    fn default() -> Self {
        EvalPlan { workers: 0, batch: 8, limit_per_db: None }
    }
}

/// Evaluates a batch predictor over the dev sets of all three databases.
///
/// Each database's dev set is cut into chunks of `plan.batch` questions,
/// the three chunk sequences are round-robin interleaved into one work
/// queue (so no worker idles at a database boundary), and a pool of
/// `plan.workers` scoped threads drains it, calling `predict_batch` once
/// per chunk. `predict_batch` must return one answer per question, each
/// deterministic per `(db, question)` and independent of batch shape —
/// exactly what [`crate::pipeline::FinSql::answer_batch`] guarantees — so
/// the per-database counts are the same at every worker count and batch
/// size. A per-question predictor maps over its chunk and runs with
/// batch 1. Predictions may be any string-like type (`String`,
/// `Arc<str>`, …) so cached paths can hand back shared answers without
/// re-allocating.
pub fn evaluate_ex<S: AsRef<str>>(
    ds: &BullDataset,
    lang: Lang,
    plan: EvalPlan,
    predict_batch: impl Fn(DbId, &[&str]) -> Vec<S> + Sync,
) -> MultiDbOutcome {
    let batch = plan.batch.max(1);
    // One flat work list of (database index, chunk of examples), the
    // three databases' chunk sequences round-robin interleaved.
    let per_db: Vec<Vec<_>> = DbId::ALL
        .into_iter()
        .map(|db| {
            let dev = ds.examples_for(db, Split::Dev);
            let n = plan.limit_per_db.unwrap_or(dev.len()).min(dev.len());
            dev.into_iter().take(n).collect::<Vec<_>>()
        })
        .collect();
    let mut work: Vec<(usize, &[&bull::BullExample])> = Vec::new();
    let longest_chunks = per_db.iter().map(|d| d.len().div_ceil(batch)).max().unwrap_or(0);
    for c in 0..longest_chunks {
        for (di, dev) in per_db.iter().enumerate() {
            let start = c * batch;
            if start < dev.len() {
                work.push((di, &dev[start..(start + batch).min(dev.len())]));
            }
        }
    }
    let n = work.len();
    let workers = if plan.workers == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
    } else {
        plan.workers
    }
    .min(n.max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (work, predict_batch, next) = (&work, &predict_batch, &next);
    crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move |_| {
                    let mut local = MultiDbOutcome::default();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n {
                            break local;
                        }
                        let (di, chunk) = &work[i];
                        let db = DbId::ALL[*di];
                        let questions: Vec<&str> =
                            chunk.iter().map(|e| e.question(lang)).collect();
                        let predicted = predict_batch(db, &questions);
                        assert_eq!(
                            predicted.len(),
                            chunk.len(),
                            "predict_batch must answer every question"
                        );
                        for (e, p) in chunk.iter().zip(&predicted) {
                            if execution_accuracy(ds.db(db), p.as_ref(), &e.sql) {
                                local.per_db[*di].correct += 1;
                            }
                            local.per_db[*di].total += 1;
                        }
                    }
                })
            })
            .collect();
        let mut outcome = MultiDbOutcome::default();
        for h in handles {
            // INVARIANT: a worker panic invalidates the whole run; join
            // re-raises it on the coordinating thread by design.
            let local = h.join().expect("evaluation worker panicked");
            for (acc, per) in outcome.per_db.iter_mut().zip(&local.per_db) {
                acc.absorb(per);
            }
        }
        outcome
    })
    // INVARIANT: scope() only errs when a worker panicked, which the
    // joins above already re-raise; this expect cannot fire first.
    .expect("evaluation pool panicked")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_arithmetic() {
        let mut a = EvalOutcome { correct: 3, total: 4 };
        assert_eq!(a.ex(), 0.75);
        assert_eq!(a.ex_pct(), 75.0);
        a.absorb(&EvalOutcome { correct: 1, total: 4 });
        assert_eq!(a.ex(), 0.5);
        assert_eq!(EvalOutcome::default().ex(), 0.0);
    }
}
