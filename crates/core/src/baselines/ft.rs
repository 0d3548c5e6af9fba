//! Fine-tuning baselines: RESDSQL, Token Preprocessing, PICARD.
//!
//! All three share the substrate of the FinSQL system — our parallel
//! Cross-Encoder for schema linking (the `*` of Tables 4/5) and a LoRA
//! fine-tuned T5/mT5-profile generator — but differ in exactly the
//! mechanism each paper contributes:
//!
//! - **Token Preprocessing**: identifier-splitting only; plain training
//!   data, greedy decoding.
//! - **RESDSQL**: ranking-enhanced encoding (the shared linker) plus
//!   *skeleton-aware decoding* — skeleton augmentation in training and a
//!   structure-stable decode (skeleton temperature 0).
//! - **PICARD**: plain training, but incremental-parsing constrained
//!   decoding — candidates that cannot parse into schema-valid SQL are
//!   rejected and the decoder retries.

use crate::cache::{Answerer, ConfigFingerprint};
use crate::metrics::EvalMetrics;
use crate::pipeline::{FinSql, FinSqlConfig};
use crate::CalibrationConfig;
use augment::AugmentationFlags;
use bull::{BullDataset, DbId, Lang};
use rand::rngs::StdRng;
use simllm::{BaseModelProfile, GenConfig, SqlGenerator};
use sqlkit::incremental::check_against_schema;

/// Decoding mode distinguishing the baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtMode {
    /// Greedy single-sample decoding (Token Preprocessing).
    Greedy,
    /// Skeleton-aware decoding (RESDSQL): structure chosen at temperature
    /// zero, token noise unchanged.
    SkeletonAware,
    /// Constrained decoding (PICARD): sample up to `n` candidates,
    /// return the first that parses and type-checks against the schema.
    Constrained { n: usize },
}

/// A fine-tuning baseline wraps a [`FinSql`] system built with
/// baseline-specific training flags and disables FinSQL's calibration.
pub struct FtBaseline {
    pub name: &'static str,
    pub mode: FtMode,
    system: FinSql,
}

impl FtBaseline {
    /// Builds Token Preprocessing: no augmentation, greedy decode.
    pub fn token_preprocessing(
        ds: &BullDataset,
        profile: &'static BaseModelProfile,
        lang: Lang,
    ) -> Self {
        FtBaseline {
            name: "Token Preprocessing",
            mode: FtMode::Greedy,
            system: FinSql::build(ds, profile, baseline_config(lang, AugmentationFlags::none())),
        }
    }

    /// Builds RESDSQL: skeleton-augmented training + skeleton-aware
    /// decoding.
    pub fn resdsql(ds: &BullDataset, profile: &'static BaseModelProfile, lang: Lang) -> Self {
        let flags = AugmentationFlags {
            cot: false,
            synonyms: false,
            skeleton: true,
            ..AugmentationFlags::default()
        };
        FtBaseline {
            name: "RESDSQL",
            mode: FtMode::SkeletonAware,
            system: FinSql::build(ds, profile, baseline_config(lang, flags)),
        }
    }

    /// Builds PICARD: plain training + constrained decoding.
    pub fn picard(ds: &BullDataset, profile: &'static BaseModelProfile, lang: Lang) -> Self {
        FtBaseline {
            name: "PICARD",
            mode: FtMode::Constrained { n: 8 },
            system: FinSql::build(ds, profile, baseline_config(lang, AugmentationFlags::none())),
        }
    }

    /// Answers one question.
    pub fn answer(&self, db: DbId, question: &str, rng: &mut StdRng) -> String {
        let (sys, rt) = (&self.system, self.system.runtime(db));
        let linked = &sys.linker.link_batch(&[question], &rt.link_matrix)[0];
        let prompt_schema = linked.project(&rt.schema, sys.config.k_tables, sys.config.k_columns);
        let generator = SqlGenerator::with_matrix(&sys.base, &rt.plugin, &rt.matrix, sys.profile);
        match self.mode {
            FtMode::Greedy => generator
                .generate(
                    question,
                    &prompt_schema,
                    &rt.values,
                    // Greedy decoding carries less sampling noise.
                    GenConfig { n_samples: 1, temperature: 0.45, skeleton_temperature: None },
                    rng,
                )
                .pop()
                .unwrap_or_default(),
            FtMode::SkeletonAware => generator
                .generate(
                    question,
                    &prompt_schema,
                    &rt.values,
                    GenConfig { n_samples: 1, temperature: 0.45, skeleton_temperature: Some(0.0) },
                    rng,
                )
                .pop()
                .unwrap_or_default(),
            FtMode::Constrained { n } => {
                // PICARD's incremental parser prevents schema-invalid
                // tokens from ever being decoded — equivalent to a
                // noise-free decoder plus a validity filter over samples.
                let constrained = simllm::BaseModelProfile {
                    noise: simllm::noise::NoiseRates::NONE,
                    ..*sys.profile
                };
                let generator =
                    SqlGenerator::with_matrix(&sys.base, &rt.plugin, &rt.matrix, &constrained);
                let candidates = generator.generate(
                    question,
                    &prompt_schema,
                    &rt.values,
                    GenConfig { n_samples: n, temperature: 0.45, skeleton_temperature: None },
                    rng,
                );
                candidates
                    .iter()
                    .find(|c| check_against_schema(c, &rt.schema))
                    .cloned()
                    .unwrap_or_else(|| candidates.into_iter().next().unwrap_or_default())
            }
        }
    }

    /// A deterministic per-question RNG, mirroring [`FinSql`].
    pub fn question_rng(&self, db: DbId, question: &str) -> StdRng {
        self.system.question_rng(db, question)
    }
}

impl Answerer for FtBaseline {
    /// The wrapped system's fingerprint extended with the baseline's
    /// identity and decoding mode — two baselines over identically
    /// configured systems must never share cache entries.
    fn fingerprint(&self) -> ConfigFingerprint {
        let mut b = crate::cache::FingerprintBuilder::new("ft-baseline")
            .push_u64(self.system.config_fingerprint().0)
            .push_str(self.name);
        b = match self.mode {
            FtMode::Greedy => b.push_u64(0),
            FtMode::SkeletonAware => b.push_u64(1),
            FtMode::Constrained { n } => b.push_u64(2).push_usize(n),
        };
        b.finish()
    }

    fn answer_fresh(&self, db: DbId, question: &str, _metrics: Option<&EvalMetrics>) -> String {
        let mut rng = self.question_rng(db, question);
        self.answer(db, question, &mut rng)
    }
}

fn baseline_config(lang: Lang, augmentation: AugmentationFlags) -> FinSqlConfig {
    FinSqlConfig {
        augmentation,
        calibration: CalibrationConfig::off(),
        n_candidates: 1,
        ..FinSqlConfig::standard(lang)
    }
}
