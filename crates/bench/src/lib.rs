//! Shared harness for the benchmark binaries that regenerate every table
//! and figure of the paper.

#![forbid(unsafe_code)]

pub mod traffic;

use bull::{BullDataset, DbId, Lang, Split};
use finsql_core::baselines::{FtBaseline, GptBaseline, GptMethod, GptModel, SharedGptBaseline};
use finsql_core::cache::{Answerer, AnswerCache};
use finsql_core::eval::{evaluate_ex, EvalOutcome, EvalPlan};
use finsql_core::metrics::EvalMetrics;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use simllm::BaseModelProfile;
use std::time::Instant;

/// The seed every experiment uses (recorded in EXPERIMENTS.md).
pub const SEED: u64 = bull::DEFAULT_SEED;

/// Harness-wide evaluation options, parsed from the binary's CLI
/// arguments: `--workers N` sizes the worker pool (`0` = available
/// parallelism, the default; `--workers 1` is the single-threaded run),
/// `--batch N` sets the micro-batch size of the FinSQL answer engine
/// (default 8; `--batch 1` answers each question as a batch of one —
/// answers are byte-identical either way), `--no-cache` disables the
/// keyed answer cache, and `--cache-cap N` caps the cache at `N` entries
/// (`0` = unbounded, the default).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HarnessOpts {
    /// Workers and micro-batch size of the evaluation run (whole dev
    /// sets: the CLI sets no per-database limit).
    pub plan: EvalPlan,
    pub no_cache: bool,
    pub cache_cap: usize,
}

impl HarnessOpts {
    /// Parses the options from the process arguments. Unknown arguments
    /// are ignored so binaries can layer their own flags.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = HarnessOpts::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--workers" => {
                    opts.plan.workers = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--workers needs a number");
                }
                "--no-cache" => opts.no_cache = true,
                "--cache-cap" => {
                    opts.cache_cap = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--cache-cap needs a number");
                }
                "--batch" => {
                    opts.plan.batch = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--batch needs a number");
                }
                _ => {}
            }
        }
        opts
    }

    /// The answer cache these options call for: `None` under
    /// `--no-cache`, otherwise a cache capped at `--cache-cap` entries.
    pub fn cache(&self) -> Option<AnswerCache> {
        if self.no_cache {
            None
        } else {
            Some(AnswerCache::with_capacity(self.cache_cap))
        }
    }
}

/// Builds (or reuses) the benchmark dataset.
pub fn dataset() -> BullDataset {
    bull::build(SEED)
}

/// The base-model profile the paper pairs with each register.
pub fn headline_profile(lang: Lang) -> &'static BaseModelProfile {
    match lang {
        Lang::En => &simllm::profiles::LLAMA2_13B,
        Lang::Cn => &simllm::profiles::BAICHUAN2_13B,
    }
}

/// The T5-family profile per register.
pub fn t5_profile(lang: Lang) -> &'static BaseModelProfile {
    match lang {
        Lang::En => &simllm::profiles::T5_LARGE,
        Lang::Cn => &simllm::profiles::MT5_LARGE,
    }
}

/// Evaluates a FinSQL system over all three dev sets through the batched
/// answer engine: micro-batches of `opts.plan.batch` questions,
/// interleaved across databases and answered with
/// [`FinSql::answer_batch`] (cache-first when a cache is given), feeding
/// an optional metrics sink. EX counts are identical at every batch size
/// and worker count — batching cannot change an answer.
pub fn finsql_ex(
    system: &FinSql,
    ds: &BullDataset,
    opts: HarnessOpts,
    metrics: Option<&EvalMetrics>,
    cache: Option<&AnswerCache>,
) -> EvalOutcome {
    evaluate_ex(ds, system.config.lang, opts.plan, |db, qs| {
        system.answer_batch_maybe_cached(cache, db, qs, metrics)
    })
    .pooled()
}

/// Evaluates a fine-tuning baseline over all three dev sets, one
/// question at a time (batch 1) through the answer cache the options
/// call for.
pub fn ft_ex(
    baseline: &FtBaseline,
    ds: &BullDataset,
    lang: Lang,
    opts: HarnessOpts,
) -> EvalOutcome {
    let cache = opts.cache();
    let plan = EvalPlan { batch: 1, ..opts.plan };
    evaluate_ex(ds, lang, plan, |db, qs| {
        qs.iter().map(|q| baseline.answer_maybe_cached(cache.as_ref(), db, q, None)).collect()
    })
    .pooled()
}

/// Evaluates a GPT baseline over a sampled subset of the dev sets (the
/// paper used 20 entries for GPT-4 and 100 for ChatGPT due to cost);
/// returns the outcome plus the measured cost per SQL and whether the
/// method overflowed its context window.
pub fn gpt_ex(
    ds: &BullDataset,
    lang: Lang,
    method: GptMethod,
    model: GptModel,
    sample_per_db: usize,
    seed: u64,
) -> (EvalOutcome, f64, bool) {
    gpt_ex_cached(ds, lang, method, model, sample_per_db, seed, None)
}

/// [`gpt_ex`] threading an optional answer cache: repeated questions are
/// served from the cache without paying another (simulated) API call —
/// the serving-side saving caching exists for. Randomness is drawn from
/// the shared per-question stream, so answers (and hence EX counts) are
/// identical with or without the cache.
pub fn gpt_ex_cached(
    ds: &BullDataset,
    lang: Lang,
    method: GptMethod,
    model: GptModel,
    sample_per_db: usize,
    seed: u64,
    cache: Option<&AnswerCache>,
) -> (EvalOutcome, f64, bool) {
    let base = simllm::EmbeddingModel::pretrained(seed);
    let mut outcome = EvalOutcome::default();
    let mut total_cost = 0.0;
    let mut queries = 0usize;
    let mut infeasible = false;
    for db in DbId::ALL {
        let schema = ds.db(db).catalog().clone();
        let values = simllm::ValueIndex::build(ds.db(db));
        let train_pairs = finsql_core::peft::training_pairs(ds, db, lang);
        let baseline = SharedGptBaseline::new(
            GptBaseline::new(method, model, lang, &base, &schema, &values, &train_pairs),
            db,
            seed,
        );
        // Infeasibility (context overflow) is a per-database property:
        // one database overflowing must not suppress correct-counting on
        // the databases that fit. The pooled flag only marks the row.
        let infeasible_db = baseline.with_inner(|b| b.infeasible());
        infeasible |= infeasible_db;
        let dev = ds.examples_for(db, bull::Split::Dev);
        for e in dev.iter().take(sample_per_db) {
            let q = e.question(lang);
            let sql = baseline.answer_maybe_cached(cache, db, q, None);
            if !infeasible_db && sqlengine::execution_accuracy(ds.db(db), &sql, &e.sql) {
                outcome.correct += 1;
            }
            outcome.total += 1;
        }
        total_cost += baseline
            .with_inner(|b| b.meter.cost_per_query(&b.price()) * b.meter.queries as f64);
        queries += baseline.with_inner(|b| b.meter.queries);
    }
    (outcome, total_cost / queries.max(1) as f64, infeasible)
}

/// Builds the headline FinSQL system for a register.
pub fn build_finsql(ds: &BullDataset, lang: Lang, profile: &'static BaseModelProfile) -> FinSql {
    FinSql::build(ds, profile, FinSqlConfig::standard(lang))
}

/// Formats a fraction as a percentage with one decimal, paper style.
pub fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// Regenerates Table 4 (en) / Table 5 (cn): overall EX and cost per SQL.
/// Evaluation runs on the interleaved cross-database queue (`--workers N`
/// to size the pool, `--workers 1` for a single thread), with the keyed
/// answer cache in front of the pipeline (`--no-cache` to disable,
/// `--cache-cap N` to bound it). The FinSQL rows answer through the
/// batched engine in micro-batches of `--batch` questions (default 8,
/// `--batch 1` for batches of one; EX is identical either way), print
/// questions/sec, the per-stage breakdown and the batch-shape counters,
/// then re-evaluate against the warm cache to report the serving-side
/// speedup.
pub fn run_overall_table(lang: Lang) {
    let opts = HarnessOpts::from_args();
    let ds = dataset();
    let table_no = if lang == Lang::En { 4 } else { 5 };
    println!("Table {table_no}: Overall results on BULL-{}", lang.suffix());
    println!("{:<36} {:>6} {:>18}", "Model", "EX", "Cost Per SQL($)");

    // GPT-based methods (paper: 20 entries for GPT-4, 100 for ChatGPT,
    // spread over the three databases).
    let gpt_rows: [(&str, GptMethod, GptModel, usize); 4] = [
        ("DIN-SQL + GPT-4", GptMethod::DinSql, GptModel::Gpt4, 7),
        ("DAIL-SQL + GPT-4", GptMethod::DailSql { shots: 12 }, GptModel::Gpt4, 20),
        ("DAIL-SQL + ChatGPT", GptMethod::DailSql { shots: 8 }, GptModel::ChatGpt, 40),
        ("C3 + ChatGPT", GptMethod::C3, GptModel::ChatGpt, 40),
    ];
    for (name, method, model, sample) in gpt_rows {
        let (out, cost, infeasible) = gpt_ex(&ds, lang, method, model, sample, SEED);
        if infeasible {
            println!("{:<36} {:>6} {:>18.4}", name, "-", cost);
        } else {
            println!("{:<36} {:>6.1} {:>18.4}", name, out.ex_pct(), cost);
        }
    }

    // Fine-tuning baselines (all with the parallel Cross-Encoder, `*`).
    let t5 = t5_profile(lang);
    let resdsql = FtBaseline::resdsql(&ds, t5, lang);
    println!(
        "{:<36} {:>6.1} {:>18}",
        format!("RESDSQL* + {}", t5.name),
        ft_ex(&resdsql, &ds, lang, opts).ex_pct(),
        "-"
    );
    let tokenprep = FtBaseline::token_preprocessing(&ds, t5, lang);
    println!(
        "{:<36} {:>6.1} {:>18}",
        format!("Token Preprocessing* + {}", t5.name),
        ft_ex(&tokenprep, &ds, lang, opts).ex_pct(),
        "-"
    );
    let picard = FtBaseline::picard(&ds, t5, lang);
    println!(
        "{:<36} {:>6.1} {:>18}",
        format!("Picard* + {}", t5.name),
        ft_ex(&picard, &ds, lang, opts).ex_pct(),
        "-"
    );

    // FinSQL with the headline LLM and the T5-family model, instrumented.
    let head = headline_profile(lang);
    for profile in [head, t5] {
        let finsql = FinSql::build(&ds, profile, FinSqlConfig::standard(lang));
        let cache = opts.cache();
        let metrics = EvalMetrics::new();
        let wall = Instant::now();
        let out = finsql_ex(&finsql, &ds, opts, Some(&metrics), cache.as_ref());
        let wall = wall.elapsed();
        // Linking recall@k over the labelled dev examples (batched matrix
        // sweep; recall counters only, no stage timers touched).
        for db in DbId::ALL {
            let examples: Vec<&bull::BullExample> =
                ds.examples_for(db, Split::Dev).into_iter().collect();
            finsql.record_link_recall(db, &examples, &metrics);
        }
        println!("{:<36} {:>6.1} {:>18}", format!("FinSQL + {}", profile.name), out.ex_pct(), "-");
        print!("{}", metrics.snapshot().report(wall));
        // Re-evaluate against the warm cache: identical EX, served from
        // the keyed cache instead of the pipeline.
        if let Some(cache) = &cache {
            let warm_metrics = EvalMetrics::new();
            let warm_wall = Instant::now();
            let warm = finsql_ex(&finsql, &ds, opts, Some(&warm_metrics), Some(cache));
            let warm_wall = warm_wall.elapsed();
            assert_eq!(out, warm, "a warm cache must reproduce the cold EX counts exactly");
            println!("  warm-cache re-evaluation (identical EX):");
            print!("{}", warm_metrics.snapshot().report(warm_wall));
        }
    }
}
