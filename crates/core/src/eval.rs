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

/// Evaluates a prediction function over the dev split of one database.
/// `predict` maps a question to the final SQL. Predictions may be any
/// string-like type (`String`, `Arc<str>`, …) so cached paths can hand
/// back shared answers without re-allocating.
pub fn evaluate_ex<S: AsRef<str>>(
    ds: &BullDataset,
    db: DbId,
    lang: Lang,
    predict: impl FnMut(&str) -> S,
) -> EvalOutcome {
    evaluate_ex_limit(ds, db, lang, None, predict)
}

/// [`evaluate_ex`] restricted to the first `limit` dev examples (`None`
/// means all) — the serial reference the parallel path is checked
/// against on small slices.
pub fn evaluate_ex_limit<S: AsRef<str>>(
    ds: &BullDataset,
    db: DbId,
    lang: Lang,
    limit: Option<usize>,
    mut predict: impl FnMut(&str) -> S,
) -> EvalOutcome {
    let database = ds.db(db);
    let dev = ds.examples_for(db, Split::Dev);
    let n = limit.unwrap_or(dev.len()).min(dev.len());
    let mut outcome = EvalOutcome::default();
    for e in &dev[..n] {
        let predicted = predict(e.question(lang));
        if execution_accuracy(database, predicted.as_ref(), &e.sql) {
            outcome.correct += 1;
        }
        outcome.total += 1;
    }
    outcome
}

/// Sharded evaluation: fans the dev examples of one database over a pool
/// of scoped worker threads pulling from a shared work index. `predict`
/// must be deterministic per question (seed the RNG from the question, as
/// [`crate::pipeline::FinSql::question_rng`] does); correctness is then
/// order-independent and the pooled counts equal the serial path's
/// exactly. `workers == 0` sizes the pool to the available parallelism.
pub fn evaluate_ex_parallel<S: AsRef<str>>(
    ds: &BullDataset,
    db: DbId,
    lang: Lang,
    workers: usize,
    limit: Option<usize>,
    predict: impl Fn(&str) -> S + Sync,
) -> EvalOutcome {
    let database = ds.db(db);
    let dev = ds.examples_for(db, Split::Dev);
    let n = limit.unwrap_or(dev.len()).min(dev.len());
    let workers = if workers == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
    } else {
        workers
    }
    .min(n.max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (dev, predict, next) = (&dev, &predict, &next);
    crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move |_| {
                    let mut local = EvalOutcome::default();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n {
                            break local;
                        }
                        let e = &dev[i];
                        let predicted = predict(e.question(lang));
                        if execution_accuracy(database, predicted.as_ref(), &e.sql) {
                            local.correct += 1;
                        }
                        local.total += 1;
                    }
                })
            })
            .collect();
        let mut outcome = EvalOutcome::default();
        for h in handles {
            // INVARIANT: a worker panic invalidates the whole run; join
            // re-raises it on the coordinating thread by design.
            outcome.absorb(&h.join().expect("evaluation worker panicked"));
        }
        outcome
    })
    // INVARIANT: scope() only errs when a worker panicked, which the
    // joins above already re-raise; this expect cannot fire first.
    .expect("evaluation pool panicked")
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

/// Cross-database sharded evaluation over **one** work queue: the dev
/// examples of all three databases are interleaved and a single worker
/// pool drains them, so no worker idles at a database boundary (the tail
/// barrier that calling [`evaluate_ex_parallel`] once per database pays
/// three times). `predict` must be deterministic per `(db, question)`;
/// correctness is then order-independent and the per-database counts
/// equal the serial path's exactly. `limit_per_db` truncates each dev
/// set (for tests); `workers == 0` sizes the pool to the available
/// parallelism.
pub fn evaluate_ex_all_interleaved<S: AsRef<str>>(
    ds: &BullDataset,
    lang: Lang,
    workers: usize,
    limit_per_db: Option<usize>,
    predict: impl Fn(DbId, &str) -> S + Sync,
) -> MultiDbOutcome {
    // One flat work list: (database index, example), the three dev sets
    // round-robin interleaved so the queue mixes databases end to end.
    let per_db: Vec<Vec<_>> = DbId::ALL
        .into_iter()
        .map(|db| {
            let dev = ds.examples_for(db, Split::Dev);
            let n = limit_per_db.unwrap_or(dev.len()).min(dev.len());
            dev.into_iter().take(n).collect()
        })
        .collect();
    let longest = per_db.iter().map(|d| d.len()).max().unwrap_or(0);
    let mut work = Vec::with_capacity(per_db.iter().map(|d| d.len()).sum());
    for i in 0..longest {
        for (di, dev) in per_db.iter().enumerate() {
            if let Some(e) = dev.get(i) {
                work.push((di, *e));
            }
        }
    }
    let n = work.len();
    let workers = if workers == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
    } else {
        workers
    }
    .min(n.max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (work, predict, next) = (&work, &predict, &next);
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
                        let (di, e) = &work[i];
                        let db = DbId::ALL[*di];
                        let predicted = predict(db, e.question(lang));
                        if execution_accuracy(ds.db(db), predicted.as_ref(), &e.sql) {
                            local.per_db[*di].correct += 1;
                        }
                        local.per_db[*di].total += 1;
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

/// [`evaluate_ex_all_interleaved`] over micro-batches: each database's
/// dev set is chunked into batches of `batch` questions, the chunks of
/// all three databases are round-robin interleaved into one work queue,
/// and the worker pool drains it calling `predict_batch` once per chunk.
/// `predict_batch` must return one answer per question, each
/// deterministic per `(db, question)` and independent of batch shape —
/// exactly what [`crate::pipeline::FinSql::answer_batch`] guarantees —
/// so the per-database counts equal the serial path's at every batch
/// size and worker count. `batch == 0` is treated as 1.
pub fn evaluate_ex_all_interleaved_batched<S: AsRef<str>>(
    ds: &BullDataset,
    lang: Lang,
    workers: usize,
    limit_per_db: Option<usize>,
    batch: usize,
    predict_batch: impl Fn(DbId, &[&str]) -> Vec<S> + Sync,
) -> MultiDbOutcome {
    let batch = batch.max(1);
    // One flat work list of (database index, chunk of examples), the
    // three databases' chunk sequences round-robin interleaved.
    let per_db: Vec<Vec<_>> = DbId::ALL
        .into_iter()
        .map(|db| {
            let dev = ds.examples_for(db, Split::Dev);
            let n = limit_per_db.unwrap_or(dev.len()).min(dev.len());
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
    let workers = if workers == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
    } else {
        workers
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

/// The serial per-database reference for [`evaluate_ex_all_interleaved`]
/// — identical counts, one thread, databases walked in canonical order.
pub fn evaluate_ex_all_limit<S: AsRef<str>>(
    ds: &BullDataset,
    lang: Lang,
    limit_per_db: Option<usize>,
    mut predict: impl FnMut(DbId, &str) -> S,
) -> MultiDbOutcome {
    let mut outcome = MultiDbOutcome::default();
    for (di, db) in DbId::ALL.into_iter().enumerate() {
        outcome.per_db[di] =
            evaluate_ex_limit(ds, db, lang, limit_per_db, |q| predict(db, q));
    }
    outcome
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
