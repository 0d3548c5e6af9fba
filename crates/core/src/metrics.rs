//! Per-stage instrumentation for evaluation runs.
//!
//! [`EvalMetrics`] is a lock-free sink of counters and stage timers that
//! [`crate::pipeline::FinSql::answer_batch_with_metrics`] feeds while
//! answering: schema-linking / generation / calibration wall time,
//! candidate counts, calibration repair activity, and parse failures.
//! One sink is shared by every evaluation worker (all fields are
//! atomic), and a [`MetricsSnapshot`] renders the totals — the bench
//! binaries print it after each table row, including questions/sec
//! against the measured wall time.

use crate::calibrate::CalibrationStats;
use simllm::GenCounters;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Histogram buckets: power-of-two nanosecond ranges, bucket `i`
/// covering `[2^i, 2^(i+1))` ns (bucket 0 also absorbs 0 ns). 64
/// buckets span every representable `u64` nanosecond count.
const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-size, lock-free, log-bucketed latency histogram.
///
/// `record` is allocation-free — one leading-zeros instruction plus one
/// relaxed atomic increment — so it can sit on the serving hot path.
/// Power-of-two buckets bound the quantile error to 2× (the reported
/// quantile is the *upper edge* of its bucket, so SLO reads are
/// conservative: the true latency is never above what is reported by
/// more than nothing, and never below it by more than half).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

/// The bucket index of a nanosecond count: `floor(log2(nanos))`.
fn bucket_index(nanos: u64) -> usize {
    (u64::BITS - nanos.leading_zeros()).saturating_sub(1) as usize
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency observation (relaxed atomic, no allocation).
    pub fn record(&self, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot(std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)))
    }
}

/// Plain bucket counts of a [`LatencyHistogram`], with quantile readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot(pub [u64; HISTOGRAM_BUCKETS]);

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot([0; HISTOGRAM_BUCKETS])
    }
}

impl HistogramSnapshot {
    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        let mut total = 0u64;
        for &c in self.0.iter() {
            total += c;
        }
        total
    }

    /// The latency at quantile `q` in `[0, 1]`: the upper edge of the
    /// first bucket whose cumulative count reaches `q * count` (a
    /// conservative — never underestimating — SLO read). Zero when
    /// nothing was recorded.
    pub fn quantile(&self, q: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.0.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper = if i + 1 >= HISTOGRAM_BUCKETS {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return Duration::from_nanos(upper);
            }
        }
        Duration::from_nanos(u64::MAX)
    }

    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    pub fn p999(&self) -> Duration {
        self.quantile(0.999)
    }
}

/// Shared counters for one evaluation run. All updates are `Relaxed`
/// atomics: the totals are only read after the worker pool has joined.
#[derive(Debug, Default)]
pub struct EvalMetrics {
    questions: AtomicU64,
    link_nanos: AtomicU64,
    gen_nanos: AtomicU64,
    calibrate_nanos: AtomicU64,
    candidates: AtomicU64,
    parse_failures: AtomicU64,
    repairs: AtomicU64,
    dropped_unresolved: AtomicU64,
    calibration_fallbacks: AtomicU64,
    generator_fallbacks: AtomicU64,
    skeleton_slips: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    admission_rejected: AtomicU64,
    latency: LatencyHistogram,
    batches: AtomicU64,
    batched_questions: AtomicU64,
    max_batch: AtomicU64,
    mixed_batches: AtomicU64,
    link_examples: AtomicU64,
    link_table_hits: AtomicU64,
    link_column_hits: AtomicU64,
    live_appends: AtomicU64,
    live_rows: AtomicU64,
}

impl EvalMetrics {
    pub fn new() -> Self {
        EvalMetrics::default()
    }

    /// Records one answered question.
    pub fn record_question(&self) {
        self.questions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the schema-linking stage of one question.
    pub fn record_link(&self, elapsed: Duration) {
        self.link_nanos.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records the generation stage of one question.
    pub fn record_generation(&self, elapsed: Duration, counters: &GenCounters) {
        self.gen_nanos.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.candidates.fetch_add(counters.samples, Ordering::Relaxed);
        self.generator_fallbacks.fetch_add(counters.fallbacks, Ordering::Relaxed);
        self.skeleton_slips.fetch_add(counters.skeleton_slips, Ordering::Relaxed);
    }

    /// Records the calibration stage of one question. `fell_back` marks a
    /// question whose calibration produced nothing and the raw first
    /// candidate was returned instead.
    pub fn record_calibration(&self, elapsed: Duration, stats: &CalibrationStats, fell_back: bool) {
        self.calibrate_nanos.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.parse_failures.fetch_add(stats.parse_failures as u64, Ordering::Relaxed);
        self.repairs.fetch_add(stats.repairs as u64, Ordering::Relaxed);
        self.dropped_unresolved.fetch_add(stats.dropped_unresolved as u64, Ordering::Relaxed);
        if fell_back {
            self.calibration_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one question served straight from the answer cache (no
    /// pipeline stage ran).
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one cache miss (the question was computed and the cache
    /// filled), with the evictions that fill performed.
    pub fn record_cache_miss(&self, evictions: u64) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.cache_evictions.fetch_add(evictions, Ordering::Relaxed);
    }

    /// Records one cache fill turned away by the TinyLFU admission duel
    /// (the computed answer was served, the cache kept its hotter
    /// resident instead).
    pub fn record_admission_rejected(&self) {
        self.admission_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one end-to-end answer latency, enqueue to answer. Only the
    /// scheduler's workers record it, for the misses they compute; a hit
    /// answered at submission was never queued and records none. The
    /// engine records stage timers.
    pub fn record_answer_latency(&self, elapsed: Duration) {
        self.latency.record(elapsed);
    }

    /// Records one micro-batch of `size` questions answered through the
    /// batched engine (the per-question counters are recorded separately
    /// by the stages themselves).
    pub fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_questions.fetch_add(size as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(size as u64, Ordering::Relaxed);
    }

    /// Records one scheduler micro-batch that spanned more than one
    /// database (and was split into per-db sub-batches by the engine).
    pub fn record_mixed_batch(&self) {
        self.mixed_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records linking recall for one labelled example: whether every
    /// gold table survived the top-`k_tables` projection and whether
    /// every gold column survived the top-`k_columns` projection of its
    /// own table — the per-example recall@k events of the paper's
    /// Table 7, measured on the *serving* linker configuration.
    pub fn record_link_recall(&self, tables_covered: bool, columns_covered: bool) {
        self.link_examples.fetch_add(1, Ordering::Relaxed);
        if tables_covered {
            self.link_table_hits.fetch_add(1, Ordering::Relaxed);
        }
        if columns_covered {
            self.link_column_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records live-append traffic absorbed by a runtime: `records`
    /// change records carrying `rows` rows in total. Each absorbed
    /// record is one epoch bump, so `live_appends` is also the number of
    /// epoch transitions the run served across.
    pub fn record_append(&self, records: u64, rows: u64) {
        self.live_appends.fetch_add(records, Ordering::Relaxed);
        self.live_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// A consistent copy of the totals.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            questions: self.questions.load(Ordering::Relaxed),
            link_time: Duration::from_nanos(self.link_nanos.load(Ordering::Relaxed)),
            gen_time: Duration::from_nanos(self.gen_nanos.load(Ordering::Relaxed)),
            calibrate_time: Duration::from_nanos(self.calibrate_nanos.load(Ordering::Relaxed)),
            candidates: self.candidates.load(Ordering::Relaxed),
            parse_failures: self.parse_failures.load(Ordering::Relaxed),
            repairs: self.repairs.load(Ordering::Relaxed),
            dropped_unresolved: self.dropped_unresolved.load(Ordering::Relaxed),
            calibration_fallbacks: self.calibration_fallbacks.load(Ordering::Relaxed),
            generator_fallbacks: self.generator_fallbacks.load(Ordering::Relaxed),
            skeleton_slips: self.skeleton_slips.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            admission_rejected: self.admission_rejected.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
            batches: self.batches.load(Ordering::Relaxed),
            batched_questions: self.batched_questions.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            mixed_batches: self.mixed_batches.load(Ordering::Relaxed),
            link_examples: self.link_examples.load(Ordering::Relaxed),
            link_table_hits: self.link_table_hits.load(Ordering::Relaxed),
            link_column_hits: self.link_column_hits.load(Ordering::Relaxed),
            live_appends: self.live_appends.load(Ordering::Relaxed),
            live_rows: self.live_rows.load(Ordering::Relaxed),
        }
    }
}

/// Plain totals of one evaluation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub questions: u64,
    pub link_time: Duration,
    pub gen_time: Duration,
    pub calibrate_time: Duration,
    /// Candidate SQL strings sampled across all questions.
    pub candidates: u64,
    /// Candidates that failed to parse during calibration.
    pub parse_failures: u64,
    /// Individual `f1` repairs applied (table/join/column fixes).
    pub repairs: u64,
    /// Candidates dropped by the column-resolution gate.
    pub dropped_unresolved: u64,
    /// Questions where calibration yielded nothing and the raw first
    /// candidate was used.
    pub calibration_fallbacks: u64,
    /// Samples that fell back to the unadapted template generator.
    pub generator_fallbacks: u64,
    /// Samples whose skeleton slipped to the runner-up prototype.
    pub skeleton_slips: u64,
    /// Questions served straight from the answer cache.
    pub cache_hits: u64,
    /// Questions that missed the cache and were computed (and filled).
    pub cache_misses: u64,
    /// Cache entries evicted by capacity pressure during this run.
    pub cache_evictions: u64,
    /// Cache fills rejected by the TinyLFU admission filter.
    pub admission_rejected: u64,
    /// End-to-end answer latency distribution, enqueue to answer, of the
    /// requests the scheduler queued (its cache misses).
    pub latency: HistogramSnapshot,
    /// Micro-batches answered through the batched engine.
    pub batches: u64,
    /// Questions answered inside those micro-batches.
    pub batched_questions: u64,
    /// Largest micro-batch seen.
    pub max_batch: u64,
    /// Micro-batches that spanned more than one database.
    pub mixed_batches: u64,
    /// Labelled examples whose linking recall was measured.
    pub link_examples: u64,
    /// Examples with every gold table inside the top-`k_tables`.
    pub link_table_hits: u64,
    /// Examples with every gold column inside the top-`k_columns` of its
    /// own table.
    pub link_column_hits: u64,
    /// Live change records absorbed during the run (= epoch bumps).
    pub live_appends: u64,
    /// Rows those change records carried.
    pub live_rows: u64,
}

impl MetricsSnapshot {
    /// Questions served: computed through the pipeline plus answered
    /// straight from the cache.
    pub fn served(&self) -> u64 {
        self.questions + self.cache_hits
    }

    /// Questions served per second of wall time.
    pub fn questions_per_sec(&self, wall: Duration) -> f64 {
        if wall.is_zero() {
            0.0
        } else {
            self.served() as f64 / wall.as_secs_f64()
        }
    }

    /// Fraction of served questions answered from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Mean questions per micro-batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_questions as f64 / self.batches as f64
        }
    }

    /// Embedding passes amortised away by batching: every question of a
    /// micro-batch beyond the first shares the batch's single
    /// embed-and-rank sweep instead of paying its own.
    pub fn amortised_embeds(&self) -> u64 {
        self.batched_questions.saturating_sub(self.batches)
    }

    /// Fraction of measured examples whose gold tables all survived the
    /// top-`k_tables` projection.
    pub fn link_table_recall(&self) -> f64 {
        if self.link_examples == 0 {
            0.0
        } else {
            self.link_table_hits as f64 / self.link_examples as f64
        }
    }

    /// Fraction of measured examples whose gold columns all survived the
    /// top-`k_columns` projection of their own table.
    pub fn link_column_recall(&self) -> f64 {
        if self.link_examples == 0 {
            0.0
        } else {
            self.link_column_hits as f64 / self.link_examples as f64
        }
    }

    /// Mean per-question time of one stage.
    fn per_question(&self, stage: Duration) -> Duration {
        stage.checked_div(u32::try_from(self.questions.max(1)).unwrap_or(u32::MAX))
            .unwrap_or_default()
    }

    /// Multi-line report, the format the bench binaries print:
    /// a throughput line plus one line per stage and counter.
    pub fn report(&self, wall: Duration) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  {} questions in {:.2?}  ({:.1} questions/sec)\n",
            self.served(),
            wall,
            self.questions_per_sec(wall)
        ));
        if self.cache_hits + self.cache_misses > 0 {
            out.push_str(&format!(
                "  {:<22} {:>10}  (hit rate {:.1}%)\n",
                "cache hits",
                self.cache_hits,
                self.cache_hit_rate() * 100.0
            ));
            out.push_str(&format!("  {:<22} {:>10}\n", "cache misses", self.cache_misses));
            out.push_str(&format!("  {:<22} {:>10}\n", "cache evictions", self.cache_evictions));
            if self.admission_rejected > 0 {
                out.push_str(&format!(
                    "  {:<22} {:>10}\n",
                    "admission rejected", self.admission_rejected
                ));
            }
        }
        if self.latency.count() > 0 {
            out.push_str(&format!(
                "  {:<22} p50 {:>9.2?}  p99 {:>9.2?}  p999 {:>9.2?}  ({} samples)\n",
                "answer latency",
                self.latency.p50(),
                self.latency.p99(),
                self.latency.p999(),
                self.latency.count()
            ));
        }
        if self.batches > 0 {
            out.push_str(&format!(
                "  {:<22} {:>10}  (mean size {:.1}, max {})\n",
                "micro-batches",
                self.batches,
                self.mean_batch_size(),
                self.max_batch
            ));
            out.push_str(&format!(
                "  {:<22} {:>10}\n",
                "amortised embeds",
                self.amortised_embeds()
            ));
            if self.mixed_batches > 0 {
                out.push_str(&format!(
                    "  {:<22} {:>10}\n",
                    "mixed-db batches", self.mixed_batches
                ));
            }
        }
        if self.live_appends > 0 {
            out.push_str(&format!(
                "  {:<22} {:>10}  ({} rows)\n",
                "live appends", self.live_appends, self.live_rows
            ));
        }
        if self.link_examples > 0 {
            out.push_str(&format!(
                "  {:<22} {:>10}  ({}/{} examples)\n",
                "link table recall",
                format!("{:.1}%", self.link_table_recall() * 100.0),
                self.link_table_hits,
                self.link_examples
            ));
            out.push_str(&format!(
                "  {:<22} {:>10}  ({}/{} examples)\n",
                "link column recall",
                format!("{:.1}%", self.link_column_recall() * 100.0),
                self.link_column_hits,
                self.link_examples
            ));
        }
        for (name, stage) in [
            ("linking", self.link_time),
            ("generation", self.gen_time),
            ("calibration", self.calibrate_time),
        ] {
            out.push_str(&format!(
                "  {name:<22} {:>10.2?}  ({:.2?}/q)\n",
                stage,
                self.per_question(stage)
            ));
        }
        out.push_str(&format!(
            "  {:<22} {:>10}  ({:.1}/q)\n",
            "candidates",
            self.candidates,
            self.candidates as f64 / self.questions.max(1) as f64
        ));
        for (name, count) in [
            ("parse failures", self.parse_failures),
            ("repairs applied", self.repairs),
            ("dropped (unresolved)", self.dropped_unresolved),
            ("calibration fallbacks", self.calibration_fallbacks),
            ("generator fallbacks", self.generator_fallbacks),
            ("skeleton slips", self.skeleton_slips),
        ] {
            out.push_str(&format!("  {name:<22} {count:>10}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_stages() {
        let m = EvalMetrics::new();
        for _ in 0..3 {
            m.record_question();
        }
        m.record_link(Duration::from_millis(4));
        m.record_link(Duration::from_millis(6));
        m.record_generation(
            Duration::from_millis(20),
            &GenCounters { samples: 5, fallbacks: 1, skeleton_slips: 2 },
        );
        m.record_generation(
            Duration::from_millis(10),
            &GenCounters { samples: 5, fallbacks: 0, skeleton_slips: 0 },
        );
        m.record_calibration(
            Duration::from_millis(2),
            &CalibrationStats { candidates: 5, parse_failures: 2, repairs: 3, dropped_unresolved: 1, rescued: false },
            true,
        );
        let s = m.snapshot();
        assert_eq!(s.questions, 3);
        assert_eq!(s.link_time, Duration::from_millis(10));
        assert_eq!(s.gen_time, Duration::from_millis(30));
        assert_eq!(s.calibrate_time, Duration::from_millis(2));
        assert_eq!(s.candidates, 10);
        assert_eq!(s.parse_failures, 2);
        assert_eq!(s.repairs, 3);
        assert_eq!(s.dropped_unresolved, 1);
        assert_eq!(s.calibration_fallbacks, 1);
        assert_eq!(s.generator_fallbacks, 1);
        assert_eq!(s.skeleton_slips, 2);
    }

    #[test]
    fn shared_across_threads() {
        let m = EvalMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..250 {
                        m.record_question();
                        m.record_link(Duration::from_nanos(100));
                    }
                });
            }
        });
        let snap = m.snapshot();
        assert_eq!(snap.questions, 1000);
        assert_eq!(snap.link_time, Duration::from_nanos(100_000));
    }

    #[test]
    fn cache_counters_feed_served_and_hit_rate() {
        let m = EvalMetrics::new();
        for _ in 0..2 {
            m.record_question();
        }
        for _ in 0..6 {
            m.record_cache_hit();
        }
        m.record_cache_miss(3);
        m.record_cache_miss(0);
        let s = m.snapshot();
        assert_eq!(s.cache_hits, 6);
        assert_eq!(s.cache_misses, 2);
        assert_eq!(s.cache_evictions, 3);
        assert_eq!(s.served(), 8);
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-9);
        let report = s.report(Duration::from_secs(1));
        assert!(report.contains("cache hits"));
        assert!(report.contains("hit rate 75.0%"));
    }

    #[test]
    fn report_omits_cache_lines_without_cache_traffic() {
        let m = EvalMetrics::new();
        m.record_question();
        let report = m.snapshot().report(Duration::from_secs(1));
        assert!(!report.contains("cache hits"));
    }

    #[test]
    fn batch_counters_and_report_lines() {
        let m = EvalMetrics::new();
        m.record_batch(4);
        m.record_batch(8);
        m.record_batch(1);
        let s = m.snapshot();
        assert_eq!(s.batches, 3);
        assert_eq!(s.batched_questions, 13);
        assert_eq!(s.max_batch, 8);
        assert!((s.mean_batch_size() - 13.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.amortised_embeds(), 10);
        let report = s.report(Duration::from_secs(1));
        assert!(report.contains("micro-batches"));
        assert!(report.contains("amortised embeds"));
        let plain = EvalMetrics::new();
        plain.record_question();
        assert!(!plain.snapshot().report(Duration::from_secs(1)).contains("micro-batches"));
    }

    #[test]
    fn link_recall_counters_and_report_lines() {
        let m = EvalMetrics::new();
        m.record_link_recall(true, true);
        m.record_link_recall(true, false);
        m.record_link_recall(false, false);
        m.record_link_recall(true, true);
        let s = m.snapshot();
        assert_eq!(s.link_examples, 4);
        assert_eq!(s.link_table_hits, 3);
        assert_eq!(s.link_column_hits, 2);
        assert!((s.link_table_recall() - 0.75).abs() < 1e-9);
        assert!((s.link_column_recall() - 0.5).abs() < 1e-9);
        let report = s.report(Duration::from_secs(1));
        assert!(report.contains("link table recall"));
        assert!(report.contains("link column recall"));
        assert!(report.contains("75.0%"));
        let plain = EvalMetrics::new();
        plain.record_question();
        let r = plain.snapshot().report(Duration::from_secs(1));
        assert!(!r.contains("link table recall"));
        assert_eq!(plain.snapshot().link_table_recall(), 0.0);
    }

    #[test]
    fn mixed_batch_counter_and_report_line() {
        let m = EvalMetrics::new();
        m.record_batch(4);
        m.record_mixed_batch();
        m.record_mixed_batch();
        let s = m.snapshot();
        assert_eq!(s.mixed_batches, 2);
        assert!(s.report(Duration::from_secs(1)).contains("mixed-db batches"));
        let pure = EvalMetrics::new();
        pure.record_batch(4);
        assert!(!pure.snapshot().report(Duration::from_secs(1)).contains("mixed-db batches"));
    }

    #[test]
    fn append_counters_and_report_line() {
        let m = EvalMetrics::new();
        m.record_append(2, 12);
        m.record_append(1, 6);
        let s = m.snapshot();
        assert_eq!(s.live_appends, 3);
        assert_eq!(s.live_rows, 18);
        assert!(s.report(Duration::from_secs(1)).contains("live appends"));
        let frozen = EvalMetrics::new();
        frozen.record_question();
        assert!(!frozen.snapshot().report(Duration::from_secs(1)).contains("live appends"));
    }

    #[test]
    fn histogram_buckets_by_powers_of_two_and_reads_conservative_quantiles() {
        let h = LatencyHistogram::new();
        // 90 fast observations in [1024, 2047] ns, 9 at ~1 µs–2 µs above,
        // 1 slow outlier: p50 must read the fast bucket's upper edge,
        // p999 the outlier's.
        for _ in 0..90 {
            h.record(Duration::from_nanos(1500));
        }
        for _ in 0..9 {
            h.record(Duration::from_nanos(3000));
        }
        h.record(Duration::from_micros(1000));
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.p50(), Duration::from_nanos(2047));
        assert_eq!(s.quantile(0.95), Duration::from_nanos(4095));
        // 1 ms = 1_000_000 ns sits in bucket 19 ([2^19, 2^20)).
        assert_eq!(s.p999(), Duration::from_nanos((1 << 20) - 1));
        assert!(s.p50() <= s.p99() && s.p99() <= s.p999());
    }

    #[test]
    fn histogram_edge_cases() {
        let h = LatencyHistogram::new();
        assert_eq!(h.snapshot().p50(), Duration::ZERO, "empty histogram reads zero");
        h.record(Duration::ZERO);
        h.record(Duration::from_nanos(1));
        let s = h.snapshot();
        assert_eq!(s.0[0], 2, "0 ns and 1 ns share the first bucket");
        assert_eq!(s.p999(), Duration::from_nanos(1));
        // Saturates instead of overflowing on absurd durations.
        h.record(Duration::from_secs(u64::MAX / 1_000_000_000));
        assert!(h.snapshot().count() == 3);
    }

    #[test]
    fn latency_and_admission_feed_snapshot_and_report() {
        let m = EvalMetrics::new();
        m.record_cache_hit();
        m.record_cache_miss(0);
        m.record_admission_rejected();
        for us in [100u64, 200, 400] {
            m.record_answer_latency(Duration::from_micros(us));
        }
        let s = m.snapshot();
        assert_eq!(s.admission_rejected, 1);
        assert_eq!(s.latency.count(), 3);
        let report = s.report(Duration::from_secs(1));
        assert!(report.contains("admission rejected"));
        assert!(report.contains("answer latency"));
        assert!(report.contains("p999"));
        let quiet = EvalMetrics::new();
        quiet.record_question();
        let r = quiet.snapshot().report(Duration::from_secs(1));
        assert!(!r.contains("answer latency"));
        assert!(!r.contains("admission rejected"));
    }

    #[test]
    fn throughput_and_report_shape() {
        let m = EvalMetrics::new();
        for _ in 0..10 {
            m.record_question();
        }
        let s = m.snapshot();
        assert!((s.questions_per_sec(Duration::from_secs(2)) - 5.0).abs() < 1e-9);
        assert_eq!(s.questions_per_sec(Duration::ZERO), 0.0);
        let report = s.report(Duration::from_secs(2));
        assert!(report.contains("questions/sec"));
        assert!(report.contains("calibration"));
        assert!(report.contains("parse failures"));
    }
}
