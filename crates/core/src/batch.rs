//! The batched answer engine: micro-batched inference plus a request
//! scheduler.
//!
//! [`FinSql::answer_batch`] answers a slice of questions against one
//! database in a single pass. It is the only answer pipeline:
//! [`FinSql::answer`] and the [`Answerer::answer_fresh`] miss path run a
//! batch of one through it. A batch amortises per-question setup: each
//! question is embedded once and ranked against the runtime's
//! contiguous [`simllm::PrototypeMatrix`], questions whose schema linking
//! selects the same top-k tables and columns share one projected prompt
//! schema (built once per distinct projection instead of once per
//! question), and linking runs as one matrix sweep over the runtime's
//! precomputed [`crossenc::SchemaFeatureMatrix`] — every question
//! featurised once, no per-question string work or thread scope.
//!
//! **Why batching cannot change an answer.** Every source of randomness
//! in the pipeline is derived from the question itself, never from batch
//! shape: the sampling RNG is [`FinSql::question_rng`] (seeded from
//! system seed, database and question bytes), and slot decisions come
//! from a per-question slot seed that is re-derived identically inside
//! [`simllm::SqlGenerator::generate_batch`]. Linking is a pure function
//! of `(question, schema views)`, and the matrix sweep agrees exactly
//! with crossenc's per-question serial and parallel `link`; the shared
//! projected schema is a pure function of the linker's top-k selection,
//! so sharing it is sharing an identical value; each question's
//! embedding depends on its own text alone. Calibration is deterministic
//! per candidate list. Therefore `answer_batch(db, qs)[i]` equals the
//! batch of one `answer(db, qs[i])` byte for byte, at every batch size
//! and in every grouping — which is what makes the [`BatchScheduler`]'s
//! coalescing safe and keeps cached answers exact.
//!
//! [`BatchScheduler`] is the serving front-end and implements the
//! [`Answerer`] trait. A submission looks its question up in the answer
//! cache once, on the submitting thread: a hit is answered there, and
//! only a miss enters the bounded MPMC queue. A worker pool takes what
//! is queued — from *any* database, up to a configurable size — and
//! computes it at once, never waiting for a batch to fill ("smart
//! batching": requests that arrive during a computation form the next
//! batch). Mixed batches are split per database by
//! [`FinSql::answer_batch_mixed`], so a worker never stalls waiting for
//! same-database traffic to accumulate.

use crate::cache::{Answerer, AnswerCache, ConfigFingerprint, QuestionKey};
use crate::calibrate::calibrate_with_stats;
use crate::metrics::EvalMetrics;
use crate::pipeline::FinSql;
use bull::DbId;
use rand::rngs::StdRng;
use simllm::{BatchItem, GenConfig, GenCounters, SqlGenerator};
use sqlkit::catalog::CatalogSchema;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The linker's top-k selection for one question: the kept table indices
/// in rank order, each with its kept column indices in rank order. Two
/// questions with equal keys project to identical prompt schemas.
type ProjectionKey = Vec<(usize, Vec<usize>)>;

impl FinSql {
    /// Answers a batch of questions against one database. Each returned
    /// answer is byte-identical to what [`FinSql::answer`] (a batch of
    /// one) produces for that question alone (see the module docs for
    /// why), but the batch shares one linking sweep and one projected
    /// prompt schema per distinct linker selection.
    pub fn answer_batch(&self, db: DbId, questions: &[&str]) -> Vec<String> {
        self.answer_batch_with_metrics(db, questions, None)
    }

    /// [`FinSql::answer_batch`], feeding stage timings, counters and the
    /// batch-shape counters into a shared metrics sink.
    pub fn answer_batch_with_metrics(
        &self,
        db: DbId,
        questions: &[&str],
        metrics: Option<&EvalMetrics>,
    ) -> Vec<String> {
        if questions.is_empty() {
            return Vec::new();
        }
        let rt = self.runtime(db);
        // 1. Schema linking for the whole batch in one matrix sweep over
        // the runtime's precomputed schema feature matrix (bit-identical
        // to per-question linking in either mode — crossenc::matrix docs).
        // Questions whose top-k selection coincides share one projected
        // prompt schema.
        let (linked_all, link_time) = self.linker.link_batch_timed(questions, &rt.link_matrix);
        if let Some(m) = metrics {
            m.record_link(link_time);
        }
        let mut schema_of_key: HashMap<ProjectionKey, usize> = HashMap::new();
        let mut schemas: Vec<CatalogSchema> = Vec::new();
        let mut schema_idx: Vec<usize> = Vec::with_capacity(questions.len());
        for linked in &linked_all {
            let key: ProjectionKey = linked
                .tables
                .iter()
                .take(self.config.k_tables)
                .map(|(ti, _)| {
                    let cols = linked.columns[*ti]
                        .iter()
                        .take(self.config.k_columns)
                        .map(|(ci, _)| *ci)
                        .collect();
                    (*ti, cols)
                })
                .collect();
            let idx = *schema_of_key.entry(key).or_insert_with(|| {
                schemas
                    .push(linked.project(&rt.schema, self.config.k_tables, self.config.k_columns));
                schemas.len() - 1
            });
            schema_idx.push(idx);
        }
        // 2. One batched generation pass: a single embed-and-rank sweep,
        // then the exact per-question sampling loop under each question's
        // own deterministic RNG.
        let items: Vec<BatchItem<'_>> = questions
            .iter()
            .zip(&schema_idx)
            .map(|(q, &si)| BatchItem { question: q, prompt_schema: &schemas[si] })
            .collect();
        let mut rngs: Vec<StdRng> =
            questions.iter().map(|q| self.question_rng(db, q)).collect();
        let generator = SqlGenerator::with_matrix(&self.base, &rt.plugin, &rt.matrix, self.profile);
        let gen_start = Instant::now();
        let sampled = generator.generate_batch(
            &items,
            &rt.values,
            GenConfig {
                n_samples: self.config.n_candidates,
                temperature: self.config.temperature,
                skeleton_temperature: None,
            },
            &mut rngs,
        );
        let gen_time = gen_start.elapsed();
        if let Some(m) = metrics {
            let mut merged = GenCounters::default();
            for (_, c) in &sampled {
                merged.samples += c.samples;
                merged.fallbacks += c.fallbacks;
                merged.skeleton_slips += c.skeleton_slips;
            }
            m.record_generation(gen_time, &merged);
        }
        // 3. Calibration per question.
        let out: Vec<String> = sampled
            .into_iter()
            .map(|(candidates, _)| {
                let calib_start = Instant::now();
                let (calibrated, stats) =
                    calibrate_with_stats(&candidates, &rt.schema, &self.config.calibration);
                if let Some(m) = metrics {
                    m.record_question();
                    m.record_calibration(calib_start.elapsed(), &stats, calibrated.is_none());
                }
                calibrated.unwrap_or_else(|| candidates.first().cloned().unwrap_or_default())
            })
            .collect();
        if let Some(m) = metrics {
            m.record_batch(questions.len());
        }
        out
    }

    /// Cache-first batched answering: questions already cached are served
    /// without touching the engine, the misses are answered in one
    /// [`FinSql::answer_batch_with_metrics`] call and fill the cache.
    ///
    /// Questions are any [`QuestionKey`]: `Arc<str>` questions let a
    /// cache fill share the caller's allocation instead of copying the
    /// question bytes.
    pub fn answer_batch_cached<Q: QuestionKey>(
        &self,
        cache: &AnswerCache,
        db: DbId,
        questions: &[Q],
        metrics: Option<&EvalMetrics>,
    ) -> Vec<Arc<str>> {
        let fingerprint = self.config_fingerprint();
        // finlint: alloc — one slot table per *batch*, amortised over
        // every question in it; the per-question path stays alloc-free.
        let mut out: Vec<Option<Arc<str>>> = vec![None; questions.len()];
        let mut misses: Vec<usize> = Vec::new();
        for (i, q) in questions.iter().enumerate() {
            match cache.get(db, q.as_str(), fingerprint) {
                Some(hit) => {
                    if let Some(m) = metrics {
                        m.record_cache_hit();
                    }
                    out[i] = Some(hit);
                }
                None => misses.push(i),
            }
        }
        if !misses.is_empty() {
            let miss_questions: Vec<&str> =
                misses.iter().map(|&i| questions[i].as_str()).collect();
            let computed = self.answer_batch_with_metrics(db, &miss_questions, metrics);
            for (&i, answer) in misses.iter().zip(computed) {
                let answer: Arc<str> = Arc::from(answer);
                cache.fill_miss(db, &questions[i], fingerprint, &answer, metrics);
                out[i] = Some(answer);
            }
        }
        // INVARIANT: every index is either a cache hit (filled in the
        // first loop) or in `misses` (filled from `computed`, which has
        // exactly one answer per miss).
        out.into_iter().map(|a| a.expect("every slot filled")).collect()
    }

    /// [`FinSql::answer_batch_cached`] with an optional cache — the shape
    /// the bench harness uses under its `--no-cache` flag.
    pub fn answer_batch_maybe_cached<Q: QuestionKey>(
        &self,
        cache: Option<&AnswerCache>,
        db: DbId,
        questions: &[Q],
        metrics: Option<&EvalMetrics>,
    ) -> Vec<Arc<str>> {
        match cache {
            Some(c) => self.answer_batch_cached(c, db, questions, metrics),
            None => {
                let borrowed: Vec<&str> = questions.iter().map(|q| q.as_str()).collect();
                self.answer_batch_with_metrics(db, &borrowed, metrics)
                    .into_iter()
                    .map(Arc::from)
                    .collect()
            }
        }
    }

    /// Answers a micro-batch that may span databases. The linker, the
    /// LoRA plugin, the prototype matrix and the value index are all
    /// per-database artifacts, so the batch is split into one per-db
    /// sub-batch per database present (in [`DbId::ALL`] order), each
    /// answered through the cache-first batched path, and the answers
    /// are scattered back into request order. Every answer is still
    /// byte-identical to a lone [`FinSql::answer`] call (a batch of
    /// one) — sub-batching
    /// is just batching, and batching cannot change an answer — which is
    /// what lets the [`BatchScheduler`] coalesce mixed traffic without
    /// waiting for same-database requests to accumulate.
    pub fn answer_batch_mixed<Q: QuestionKey>(
        &self,
        cache: Option<&AnswerCache>,
        requests: &[(DbId, Q)],
        metrics: Option<&EvalMetrics>,
    ) -> Vec<Arc<str>> {
        // finlint: alloc — one slot table per *batch*, amortised over
        // every request in it; the per-request path stays alloc-free.
        let mut out: Vec<Option<Arc<str>>> = vec![None; requests.len()];
        let mut dbs_spanned = 0usize;
        for db in DbId::ALL {
            let indices: Vec<usize> = requests
                .iter()
                .enumerate()
                .filter(|(_, (d, _))| *d == db)
                .map(|(i, _)| i)
                .collect();
            if indices.is_empty() {
                continue;
            }
            dbs_spanned += 1;
            let questions: Vec<&Q> = indices.iter().map(|&i| &requests[i].1).collect();
            let answers = self.answer_batch_maybe_cached(cache, db, &questions, metrics);
            for (&i, answer) in indices.iter().zip(answers) {
                out[i] = Some(answer);
            }
        }
        if let Some(m) = metrics {
            if dbs_spanned > 1 {
                m.record_mixed_batch();
            }
        }
        // INVARIANT: DbId::ALL covers every possible request db, so each
        // index lands in exactly one per-db group and is filled there.
        out.into_iter().map(|a| a.expect("every database group answered")).collect()
    }
}

/// Knobs of the [`BatchScheduler`].
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Most questions coalesced into one micro-batch. A worker takes what
    /// is queued, up to this many, and computes it at once; it never
    /// holds a batch open waiting for more.
    pub max_batch: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bounded queue capacity; submissions block while the queue is full.
    pub queue_cap: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { max_batch: 8, workers: 2, queue_cap: 256 }
    }
}

/// One pending request's answer slot: filled by a worker, awaited by the
/// submitter.
#[derive(Default)]
struct ResponseSlot {
    answer: Mutex<Option<Arc<str>>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn put(&self, answer: Arc<str>) {
        // INVARIANT: a poisoned slot lock means a peer thread panicked
        // holding it; the slot state is unrecoverable, so propagate.
        *self.answer.lock().expect("slot lock poisoned") = Some(answer);
        self.ready.notify_all();
    }

    fn wait(&self) -> Arc<str> {
        // INVARIANT: a poisoned slot lock means a peer thread panicked
        // holding it; the slot state is unrecoverable, so propagate.
        let mut guard = self.answer.lock().expect("slot lock poisoned");
        loop {
            if let Some(answer) = guard.take() {
                return answer;
            }
            // INVARIANT: poisoning, as above — propagate the peer panic.
            guard = self.ready.wait(guard).expect("slot lock poisoned");
        }
    }

    /// Takes the answer if a worker already delivered it; never blocks.
    fn try_take(&self) -> Option<Arc<str>> {
        // INVARIANT: a poisoned slot lock means a peer thread panicked
        // holding it; the slot state is unrecoverable, so propagate.
        self.answer.lock().expect("slot lock poisoned").take()
    }
}

/// Why a submission was refused. Both cases are backpressure, not
/// failure: no request was enqueued and no answer was computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity and the question is not cached.
    /// The caller decides the policy: the serving front-end sheds load
    /// with a `Busy` response, a batch caller may retry or fall back to
    /// the blocking [`BatchScheduler::submit`].
    QueueFull,
    /// The scheduler is shutting down and accepts no new work. Requests
    /// already queued are still drained and answered.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SubmitError::QueueFull => "scheduler queue is full",
            SubmitError::ShuttingDown => "scheduler is shutting down",
        })
    }
}

impl std::error::Error for SubmitError {}

/// What a submission returns: the answer itself when the question was
/// cached, else a claim on the answer a worker will compute.
pub enum Ticket {
    /// A cache hit, answered on the submitting thread: nothing was
    /// queued and no worker woke.
    Hit(Arc<str>),
    /// A miss, queued for a worker.
    Queued(Claim),
}

impl Ticket {
    /// The answer, blocking until a worker delivers it when the request
    /// was queued. Always terminates: a queued request is answered even
    /// during shutdown (the workers drain the queue before exiting).
    pub fn wait(self) -> Arc<str> {
        match self {
            Ticket::Hit(answer) => answer,
            Ticket::Queued(claim) => claim.wait(),
        }
    }
}

/// A claim on one queued request's future answer.
///
/// Redeem it either by blocking ([`Claim::wait`]) or by polling
/// ([`Claim::try_answer`]) — the shape the non-blocking serving loop
/// needs, where a connection driver polls claims between socket events
/// instead of parking a thread per request.
pub struct Claim {
    slot: Arc<ResponseSlot>,
}

impl Claim {
    /// The answer, if a worker has already delivered it. Returns `Some`
    /// exactly once; never blocks.
    pub fn try_answer(&self) -> Option<Arc<str>> {
        self.slot.try_take()
    }

    /// Blocks until a worker delivers the answer.
    pub fn wait(self) -> Arc<str> {
        self.slot.wait()
    }
}

/// One queued question.
struct Request {
    db: DbId,
    question: Arc<str>,
    slot: Arc<ResponseSlot>,
    /// When the request entered the queue: the answer latency recorded
    /// in the metrics sink runs from here.
    enqueued: Instant,
}

/// The bounded MPMC queue the scheduler's workers drain.
#[derive(Default)]
struct QueueState {
    items: VecDeque<Request>,
    shutdown: bool,
}

impl QueueState {
    /// Enqueues one miss and returns the claim on its answer. The caller
    /// has checked shutdown and room under the same lock.
    fn push(&mut self, db: DbId, question: Arc<str>) -> Claim {
        let slot = Arc::new(ResponseSlot::default());
        self.items.push_back(Request {
            db,
            question,
            slot: Arc::clone(&slot),
            enqueued: Instant::now(),
        });
        Claim { slot }
    }
}

#[derive(Default)]
struct Queue {
    state: Mutex<QueueState>,
    /// Signalled on push and on shutdown.
    not_empty: Condvar,
    /// Signalled on pop.
    not_full: Condvar,
}

/// Everything a worker thread needs, shared behind one `Arc`.
struct Shared {
    engine: Arc<FinSql>,
    cache: Option<Arc<AnswerCache>>,
    metrics: Option<Arc<EvalMetrics>>,
    /// The engine's fingerprint, computed once: the scheduler holds an
    /// `Arc<FinSql>`, which cannot absorb appends, so it cannot move.
    fingerprint: ConfigFingerprint,
    config: BatchConfig,
    queue: Queue,
}

impl Shared {
    /// The one cache lookup of a submission, recording a hit in the
    /// metrics sink. `count_absent` false makes an absent key leave no
    /// trace ([`AnswerCache::get_resident`]), for a caller that would
    /// refuse the miss rather than queue it.
    fn lookup(&self, db: DbId, question: &str, count_absent: bool) -> Option<Arc<str>> {
        let cache = self.cache.as_deref()?;
        let hit = if count_absent {
            cache.get(db, question, self.fingerprint)
        } else {
            cache.get_resident(db, question, self.fingerprint)
        }?;
        if let Some(m) = self.metrics.as_deref() {
            m.record_cache_hit();
        }
        Some(hit)
    }

    /// Refuses once shutdown began; otherwise whether the queue has room.
    fn has_room(&self) -> Result<bool, SubmitError> {
        // INVARIANT: a poisoned queue lock means a worker panicked
        // holding it; the queue state is unrecoverable, so propagate.
        let state = self.queue.state.lock().expect("queue lock poisoned");
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        Ok(state.items.len() < self.config.queue_cap)
    }
}

/// A micro-batching request scheduler in front of a [`FinSql`] engine.
///
/// A submission first looks its question up in the cache, on the
/// submitting thread: a hit is answered there and then, and only a miss
/// is pushed onto the one bounded queue. Workers take what is queued —
/// from *any* database — up to [`BatchConfig::max_batch`], answer it at
/// once through [`FinSql::answer_batch_mixed`] (which splits the batch
/// per database inside the engine), and fill the cache. A worker never
/// waits for a batch to grow: requests that arrive while it computes
/// are what the next batch coalesces. Because batching cannot change an
/// answer (module docs), coalescing is invisible to callers: every
/// request gets exactly the answer a lone [`FinSql::answer`] call would
/// have produced.
///
/// Dropping the scheduler shuts the pool down after draining every
/// request already queued.
pub struct BatchScheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl BatchScheduler {
    /// Starts a scheduler over an engine, an optional answer cache looked
    /// up at submission and filled by the workers, and an optional
    /// metrics sink (per-call sinks cannot cross the queue, so the sink
    /// is fixed at construction).
    pub fn new(
        engine: Arc<FinSql>,
        cache: Option<Arc<AnswerCache>>,
        metrics: Option<Arc<EvalMetrics>>,
        config: BatchConfig,
    ) -> Self {
        let config = BatchConfig {
            max_batch: config.max_batch.max(1),
            workers: config.workers.max(1),
            queue_cap: config.queue_cap.max(1),
        };
        let fingerprint = engine.config_fingerprint();
        let shared = Arc::new(Shared {
            engine,
            cache,
            metrics,
            fingerprint,
            config,
            queue: Queue::default(),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        BatchScheduler { shared, workers }
    }

    /// Submits one question without blocking. A cache hit is answered at
    /// once ([`Ticket::Hit`]); a miss is either queued
    /// ([`Ticket::Queued`]) or refused — [`SubmitError::QueueFull`] when
    /// the bounded queue is at capacity, [`SubmitError::ShuttingDown`]
    /// after [`BatchScheduler::shutdown`] began. This is how the bounded
    /// queue exerts backpressure to the wire: the serving front-end calls
    /// this from its event loop and turns `QueueFull` into a `Busy`
    /// response instead of parking a driver thread.
    ///
    /// The question is looked up once. Room is checked before that
    /// lookup, so a refused miss leaves no trace in the cache: a full
    /// queue still answers a hit, and counts nothing for an absent key.
    /// Only another thread submitting concurrently can fill the queue
    /// between the check and the push; the serving driver is its
    /// scheduler's only producer.
    ///
    /// The question's `Arc<str>` is made only for a miss. Pass an
    /// `Arc<str>` to intern it end to end: the queue entry and the cache
    /// key then share that one allocation.
    pub fn try_submit<Q>(&self, db: DbId, question: Q) -> Result<Ticket, SubmitError>
    where
        Q: QuestionKey + Into<Arc<str>>,
    {
        if !self.shared.has_room()? {
            return match self.shared.lookup(db, question.as_str(), false) {
                Some(hit) => Ok(Ticket::Hit(hit)),
                None => Err(SubmitError::QueueFull),
            };
        }
        if let Some(hit) = self.shared.lookup(db, question.as_str(), true) {
            return Ok(Ticket::Hit(hit));
        }
        let claim = {
            // INVARIANT: a poisoned queue lock means a worker panicked
            // holding it; the queue state is unrecoverable, so propagate.
            let mut state = self.shared.queue.state.lock().expect("queue lock poisoned");
            if state.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if state.items.len() >= self.shared.config.queue_cap {
                return Err(SubmitError::QueueFull);
            }
            state.push(db, question.into())
        };
        self.shared.queue.not_empty.notify_one();
        Ok(Ticket::Queued(claim))
    }

    /// Submits one question: a cache hit is answered at once, a miss is
    /// queued, blocking while the queue is full. Fails only with
    /// [`SubmitError::ShuttingDown`] once shutdown has begun (a full
    /// queue blocks; it never errors here).
    pub fn submit<Q>(&self, db: DbId, question: Q) -> Result<Ticket, SubmitError>
    where
        Q: QuestionKey + Into<Arc<str>>,
    {
        // A scheduler that began shutdown refuses before any lookup.
        self.shared.has_room()?;
        if let Some(hit) = self.shared.lookup(db, question.as_str(), true) {
            return Ok(Ticket::Hit(hit));
        }
        let claim = {
            // INVARIANT: a poisoned queue lock means a worker panicked
            // holding it; the queue state is unrecoverable, so propagate.
            let mut state = self.shared.queue.state.lock().expect("queue lock poisoned");
            loop {
                if state.shutdown {
                    return Err(SubmitError::ShuttingDown);
                }
                if state.items.len() < self.shared.config.queue_cap {
                    break;
                }
                // INVARIANT: poisoning, as above — propagate the panic.
                state = self.shared.queue.not_full.wait(state).expect("queue lock poisoned");
            }
            state.push(db, question.into())
        };
        self.shared.queue.not_empty.notify_one();
        Ok(Ticket::Queued(claim))
    }

    /// Looks a question up for a caller that will not queue a miss — the
    /// serving front-end over its in-flight budget. A hit is counted and
    /// returned as under [`BatchScheduler::try_submit`]; an absent key
    /// leaves no trace in the cache.
    pub fn lookup_hit(&self, db: DbId, question: &str) -> Option<Arc<str>> {
        self.shared.lookup(db, question, false)
    }

    /// Submits one question and blocks until its answer is ready. Safe to
    /// call from many threads at once — concurrency is what gives the
    /// workers batches to coalesce.
    pub fn answer(&self, db: DbId, question: &str) -> Arc<str> {
        // INVARIANT: library-path callers join their submitter threads
        // before the scheduler shuts down, so `submit` cannot observe
        // `ShuttingDown` here; a non-blocking front-end must use
        // `try_submit` and handle the error instead.
        self.submit(db, question).expect("submit raced scheduler shutdown").wait()
    }

    /// Begins shutdown and joins the worker pool: no new submissions are
    /// accepted (submitters get [`SubmitError::ShuttingDown`]), every
    /// request already queued is drained and answered, and the method
    /// returns once all workers have exited. Idempotent — `Drop`
    /// delegates here.
    pub fn shutdown(&mut self) {
        {
            // INVARIANT: a poisoned queue lock means a worker panicked
            // holding it; the queue state is unrecoverable, so propagate.
            let mut state = self.shared.queue.state.lock().expect("queue lock poisoned");
            state.shutdown = true;
        }
        // Wake both sides: workers parked on not_empty must re-check the
        // flag and drain; submitters parked on not_full must bail out.
        self.shared.queue.not_empty.notify_all();
        self.shared.queue.not_full.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Answerer for BatchScheduler {
    fn fingerprint(&self) -> ConfigFingerprint {
        self.shared.fingerprint
    }

    /// Submits through the scheduler, which looks the question up in its
    /// own cache (when given one) before queueing a miss, and records
    /// into its construction-time metrics sink; the per-call `metrics`
    /// argument cannot cross the queue and is ignored.
    fn answer_fresh(&self, db: DbId, question: &str, _metrics: Option<&EvalMetrics>) -> String {
        self.answer(db, question).as_ref().to_owned()
    }
}

impl Drop for BatchScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: take what is queued, up to the batch cap, from any
/// database; answer the mixed batch at once; fill the cache with each
/// answer and then its slot. Every request here already missed the
/// cache at submission, so the worker never looks one up. On shutdown
/// the queue is drained completely before the worker exits, so no
/// queued request is ever dropped.
fn worker_loop(shared: &Shared) {
    loop {
        let batch: Vec<Request> = {
            // INVARIANT: a poisoned queue lock means a sibling panicked
            // holding it; the queue state is unrecoverable, so propagate.
            let mut state = shared.queue.state.lock().expect("queue lock poisoned");
            while state.items.is_empty() {
                if state.shutdown {
                    return;
                }
                // INVARIANT: poisoning, as above — propagate the panic.
                state = shared.queue.not_empty.wait(state).expect("queue lock poisoned");
            }
            let take = state.items.len().min(shared.config.max_batch);
            let batch = state.items.drain(..take).collect();
            shared.queue.not_full.notify_all();
            batch
        };
        let requests: Vec<(DbId, &str)> = batch.iter().map(|r| (r.db, &*r.question)).collect();
        let metrics = shared.metrics.as_deref();
        let answers = shared.engine.answer_batch_mixed(None, &requests, metrics);
        for (request, answer) in batch.iter().zip(answers) {
            if let Some(cache) = shared.cache.as_deref() {
                // The fill shares the submitted `Arc<str>` as its key.
                cache.fill_miss(request.db, &request.question, shared.fingerprint, &answer, metrics);
            }
            if let Some(m) = metrics {
                // Scheduler-path latency: queue wait + compute, anchored
                // at enqueue time.
                m.record_answer_latency(request.enqueued.elapsed());
            }
            request.slot.put(answer);
        }
    }
}
