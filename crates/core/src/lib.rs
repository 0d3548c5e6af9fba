//! FinSQL: the model-agnostic LLM-based Text-to-SQL framework.
//!
//! This crate assembles the paper's three components over the substrate
//! crates:
//!
//! - **Prompt construction** ([`prompt`]): parallel Cross-Encoder schema
//!   linking producing a concise prompt schema, plus prompt text
//!   rendering for cost accounting;
//! - **Parameter-efficient fine-tuning** ([`peft`]): LoRA plugin training
//!   on the hybrid augmented data, the plugin hub, and weights-merging
//!   based few-shot transfer;
//! - **Output calibration** ([`calibrate`]): Algorithm 1 — typo repair
//!   (`f1`), keyword-component extraction (`f2`), non-execution
//!   self-consistency clustering, and table–column alignment (`f3`).
//!
//! [`pipeline`] wires them into the runnable [`pipeline::FinSql`]
//! system; [`eval`] measures execution accuracy; [`baselines`] implements
//! the six comparison systems of the paper's Tables 4–5; [`cache`] is the
//! serving layer — a config-fingerprinted answer cache shared by the
//! system and the baselines through the [`cache::Answerer`] trait;
//! [`batch`] is the answer engine (micro-batched inference; a lone
//! question is a batch of one) plus the coalescing
//! [`batch::BatchScheduler`] front-end.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod batch;
pub mod cache;
pub mod calibrate;
pub mod eval;
pub mod live;
pub mod metrics;
pub mod peft;
pub mod pipeline;
pub mod prompt;
pub mod tinylfu;

pub use batch::{BatchConfig, BatchScheduler};
pub use cache::{
    Answerer, AnswerCache, CacheStats, ConfigFingerprint, FingerprintBuilder,
    InsertOutcome,
};
pub use calibrate::{calibrate, calibrate_with_stats, CalibrationConfig, CalibrationStats};
pub use eval::{evaluate_ex, EvalOutcome, EvalPlan, MultiDbOutcome};
pub use live::{evaluate_ex_live, LiveConfig, LiveOutcome, RoundReport};
pub use metrics::{EvalMetrics, HistogramSnapshot, LatencyHistogram, MetricsSnapshot};
pub use pipeline::{FinSql, FinSqlConfig};
pub use prompt::{render_prompt, render_schema};
