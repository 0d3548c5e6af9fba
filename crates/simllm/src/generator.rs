//! The end-to-end SQL generator: retrieve skeleton → fill slots → decode
//! with noise.

use crate::embed::{dot, normalize, EmbeddingModel, EMBED_DIM};
use crate::hub::{LoraPlugin, Prototype};
use crate::noise::corrupt;
use crate::profiles::BaseModelProfile;
use crate::slots::{FillOptions, SlotFiller};
use crate::values::ValueIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlkit::catalog::CatalogSchema;
use std::borrow::Cow;
use std::collections::HashMap;

/// FNV-1a fingerprint used to derive per-question slot seeds.
fn fingerprint(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Sampling configuration.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Number of candidates to sample (the paper generates `n` in
    /// parallel for self-consistency).
    pub n_samples: usize,
    /// Sampling temperature: scales skeleton slips and decoder noise.
    /// `0.0` is greedy decoding.
    pub temperature: f64,
    /// Separate temperature for the skeleton (structure) choice. RESDSQL
    /// style skeleton-aware decoding fixes the structure first — modelled
    /// as skeleton temperature 0 with normal token noise. `None` follows
    /// `temperature`.
    pub skeleton_temperature: Option<f64>,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig { n_samples: 1, temperature: 0.7, skeleton_temperature: None }
    }
}

/// What happened while sampling one question's candidates — fed into the
/// evaluation-side metrics sink.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GenCounters {
    /// Candidates produced.
    pub samples: u64,
    /// Samples that fell back to the unadapted template generator (no
    /// plugin, no prototypes, or slot filling failed).
    pub fallbacks: u64,
    /// Samples whose skeleton slipped to the runner-up prototype.
    pub skeleton_slips: u64,
}

/// Plugin prototype centroids flattened into one contiguous row-major
/// matrix with pre-normalised rows.
///
/// Ranking prototypes for a question is then a single cache-friendly
/// dot-product sweep over consecutive rows: embeddings are unit-norm and
/// the rows are re-normalised once at build time, so the dot product *is*
/// the cosine similarity — without recomputing both vector norms for
/// every prototype on every question, and without chasing one heap
/// allocation per centroid.
#[derive(Debug, Clone, PartialEq)]
pub struct PrototypeMatrix {
    /// `n × EMBED_DIM` row-major, one unit-norm row per prototype.
    rows: Vec<f32>,
}

impl PrototypeMatrix {
    /// Flattens (and re-normalises) a plugin's prototype centroids.
    pub fn build(prototypes: &[Prototype]) -> Self {
        let mut rows = Vec::with_capacity(prototypes.len() * EMBED_DIM);
        for p in prototypes {
            let start = rows.len();
            rows.extend_from_slice(&p.centroid);
            rows.resize(start + EMBED_DIM, 0.0);
            normalize(&mut rows[start..start + EMBED_DIM]);
        }
        PrototypeMatrix { rows }
    }

    /// Number of prototype rows.
    pub fn len(&self) -> usize {
        self.rows.len() / EMBED_DIM
    }

    /// True when the matrix holds no prototypes.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Scores a unit-norm embedding against every row (cosine, computed
    /// as a plain dot product) into `out`. The buffer is cleared first —
    /// callers reuse one allocation across databases of different sizes.
    pub fn scores_into(&self, emb: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.len());
        for row in self.rows.chunks_exact(EMBED_DIM) {
            out.push(dot(emb, row));
        }
    }

    /// Prototype indices sorted by descending similarity to a unit-norm
    /// embedding, ties broken by index.
    pub fn ranked(&self, emb: &[f32]) -> Vec<(usize, f32)> {
        let mut scores = Vec::new();
        self.scores_into(emb, &mut scores);
        let mut ranked: Vec<(usize, f32)> = scores.into_iter().enumerate().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
    }
}

/// One question of a generation micro-batch: the question text and the
/// (typically schema-linked) prompt schema it is answered against.
#[derive(Debug, Clone, Copy)]
pub struct BatchItem<'q> {
    pub question: &'q str,
    pub prompt_schema: &'q CatalogSchema,
}

/// A ready-to-run generator: frozen base + optional plugin + profile.
pub struct SqlGenerator<'a> {
    pub base: &'a EmbeddingModel,
    pub plugin: Option<&'a LoraPlugin>,
    pub profile: &'a BaseModelProfile,
    /// The plugin's prototype matrix — borrowed when the caller keeps one
    /// per runtime, owned (built on the spot) otherwise.
    matrix: Option<Cow<'a, PrototypeMatrix>>,
}

impl<'a> SqlGenerator<'a> {
    /// Creates a generator, flattening the plugin's prototypes into a
    /// fresh [`PrototypeMatrix`]. Callers that answer many questions
    /// against the same plugin should build the matrix once and use
    /// [`SqlGenerator::with_matrix`] instead.
    pub fn new(
        base: &'a EmbeddingModel,
        plugin: Option<&'a LoraPlugin>,
        profile: &'a BaseModelProfile,
    ) -> Self {
        let matrix = plugin.map(|p| Cow::Owned(PrototypeMatrix::build(&p.prototypes)));
        SqlGenerator { base, plugin, profile, matrix }
    }

    /// Creates a generator around a prebuilt prototype matrix (which must
    /// have been built from `plugin`'s prototypes).
    pub fn with_matrix(
        base: &'a EmbeddingModel,
        plugin: &'a LoraPlugin,
        matrix: &'a PrototypeMatrix,
        profile: &'a BaseModelProfile,
    ) -> Self {
        SqlGenerator { base, plugin: Some(plugin), profile, matrix: Some(Cow::Borrowed(matrix)) }
    }

    /// Generates `cfg.n_samples` candidate SQL strings for a question
    /// against a (typically schema-linked) prompt schema.
    pub fn generate(
        &self,
        question: &str,
        prompt_schema: &CatalogSchema,
        values: &ValueIndex,
        cfg: GenConfig,
        rng: &mut StdRng,
    ) -> Vec<String> {
        self.generate_with_retrieval_text(question, question, prompt_schema, values, cfg, rng)
    }

    /// Like [`SqlGenerator::generate`], but retrieves skeleton prototypes
    /// with a different text than the one used for slot filling. DAIL-SQL
    /// style masked-question matching uses this: structure is matched on
    /// the question with schema words removed, slots on the full question.
    pub fn generate_with_retrieval_text(
        &self,
        question: &str,
        retrieval_text: &str,
        prompt_schema: &CatalogSchema,
        values: &ValueIndex,
        cfg: GenConfig,
        rng: &mut StdRng,
    ) -> Vec<String> {
        let filler = SlotFiller::new(prompt_schema, values, question);
        // Rank skeleton prototypes once, by the retrieval text.
        let ranked = match self.plugin {
            Some(p) => self.rank_embedding(&self.base.embed(retrieval_text, Some(&p.lora))),
            None => Vec::new(),
        };
        self.sample_n(&filler, question, &ranked, cfg, rng, &mut GenCounters::default())
    }

    /// Generates candidates for a whole micro-batch of questions that
    /// share one value index (i.e. one database): every question is
    /// embedded and ranked against the contiguous [`PrototypeMatrix`],
    /// then runs the exact per-question sampling loop — same slot-seed
    /// derivation, same RNG consumption — so each entry's candidates are
    /// byte-identical to what [`SqlGenerator::generate`] produces for
    /// that question with its own RNG. Each entry also carries that
    /// question's sampling counters.
    pub fn generate_batch(
        &self,
        items: &[BatchItem<'_>],
        values: &ValueIndex,
        cfg: GenConfig,
        rngs: &mut [StdRng],
    ) -> Vec<(Vec<String>, GenCounters)> {
        assert_eq!(items.len(), rngs.len(), "one sampling RNG per batched question");
        let ranked_all: Vec<Vec<(usize, f32)>> = match self.plugin {
            Some(plugin) => items
                .iter()
                .map(|i| self.rank_embedding(&self.base.embed(i.question, Some(&plugin.lora))))
                .collect(),
            None => vec![Vec::new(); items.len()],
        };
        items
            .iter()
            .zip(&ranked_all)
            .zip(rngs)
            .map(|((item, ranked), rng)| {
                let mut counters = GenCounters::default();
                let filler = SlotFiller::new(item.prompt_schema, values, item.question);
                let out = self.sample_n(&filler, item.question, ranked, cfg, rng, &mut counters);
                (out, counters)
            })
            .collect()
    }

    /// The shared per-question sampling loop: `cfg.n_samples` draws over
    /// one ranked prototype list.
    ///
    /// Slot (identifier) decisions are a *systematic* property of the
    /// model given a fixed prompt — sampling temperature perturbs the
    /// decoded surface (noise) and occasionally the structure, but a
    /// model that binds "redemption status" to the wrong column does so
    /// on every sample. Hence slot draws come from a per-question seed
    /// shared across the n samples, while skeleton slips and decoder
    /// noise use the sampling RNG. Because every sample reseeds the slot
    /// RNG identically, the grounded SQL for a given prototype is the
    /// same on every sample — it is filled once per distinct prototype
    /// choice and memoised, which is what makes n-candidate sampling
    /// cheap.
    fn sample_n(
        &self,
        filler: &SlotFiller<'_>,
        question: &str,
        ranked: &[(usize, f32)],
        cfg: GenConfig,
        rng: &mut StdRng,
        counters: &mut GenCounters,
    ) -> Vec<String> {
        let slot_seed = fingerprint(question) ^ fingerprint(&self.profile.name_and_skill());
        let mut fills: HashMap<usize, Option<String>> = HashMap::new();
        let mut out = Vec::with_capacity(cfg.n_samples);
        for _ in 0..cfg.n_samples.max(1) {
            let sql = self.sample_once(filler, ranked, cfg, slot_seed, rng, counters, &mut fills);
            counters.samples += 1;
            out.push(sql);
        }
        out
    }

    /// Ranks a precomputed unit-norm embedding against the prototype
    /// matrix with the full dot-product sweep.
    fn rank_embedding(&self, emb: &[f32]) -> Vec<(usize, f32)> {
        self.matrix.as_ref().map_or_else(Vec::new, |m| m.ranked(emb))
    }

    #[allow(clippy::too_many_arguments)]
    fn sample_once(
        &self,
        filler: &SlotFiller<'_>,
        ranked: &[(usize, f32)],
        cfg: GenConfig,
        slot_seed: u64,
        rng: &mut StdRng,
        counters: &mut GenCounters,
        fills: &mut HashMap<usize, Option<String>>,
    ) -> String {
        let Some(plugin) = self.plugin else {
            // No adaptation at all: the base model free-associates.
            counters.fallbacks += 1;
            return filler.fallback_sql();
        };
        if ranked.is_empty() {
            counters.fallbacks += 1;
            return filler.fallback_sql();
        }
        // Skeleton choice: best prototype, with a margin- and
        // temperature-dependent slip to the runner-up.
        let idx = if ranked.len() >= 2 {
            let margin = (ranked[0].1 - ranked[1].1).max(0.0) as f64;
            let skel_temp = cfg.skeleton_temperature.unwrap_or(cfg.temperature);
            let p_slip = (self.profile.skel_slip * skel_temp * (1.0 - margin * 4.0))
                .clamp(0.0, 0.9);
            if p_slip > 0.0 && rng.gen_bool(p_slip) {
                counters.skeleton_slips += 1;
                ranked[1].0
            } else {
                ranked[0].0
            }
        } else {
            ranked[0].0
        };
        // Slot filling draws only from a freshly-seeded slot RNG, so the
        // grounded SQL per prototype is identical across samples — fill
        // once per distinct prototype and memoise.
        let grounded = fills.entry(idx).or_insert_with(|| {
            let proto = &plugin.prototypes[idx];
            let opts = FillOptions {
                cot: plugin.cot_trained,
                slot_skill: self.profile.slot_skill,
                join_skill: self.profile.join_skill,
            };
            let mut slot_rng = StdRng::seed_from_u64(slot_seed);
            filler.fill(proto.shape, &opts, &mut slot_rng)
        });
        let sql = match grounded {
            Some(sql) => sql.clone(),
            None => {
                counters.fallbacks += 1;
                filler.fallback_sql()
            }
        };
        corrupt(&sql, &self.profile.noise, cfg.temperature, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::LLAMA2_13B;
    use crate::train::{train_plugin, ExampleKind, TrainExample, TrainOpts};
    use rand::SeedableRng;
    use sqlengine::{Database, Value};
    use sqlkit::catalog::{CatalogColumn, CatalogSchema, CatalogTable, ColType};

    fn schema() -> CatalogSchema {
        CatalogSchema {
            db_id: "g".into(),
            tables: vec![CatalogTable {
                name: "fund".into(),
                desc_en: "fund master".into(),
                desc_cn: "fund".into(),
                columns: vec![
                    CatalogColumn::new("fname", ColType::Text, "fund name", "fund name"),
                    CatalogColumn::new("ftype", ColType::Text, "fund type", "fund type"),
                    CatalogColumn::new("ret", ColType::Float, "return rate", "return rate"),
                ],
            }],
            foreign_keys: vec![],
        }
    }

    fn db() -> Database {
        let mut db = Database::new(schema());
        for (n, t, r) in [
            ("Alpha Growth", "bond fund", 1.5),
            ("Beta Value", "stock fund", 2.5),
            ("Gamma Mix", "bond fund", 0.5),
        ] {
            db.insert("fund", vec![Value::from(n), Value::from(t), Value::Float(r)]).unwrap();
        }
        db
    }

    fn plugin(base: &EmbeddingModel) -> crate::hub::LoraPlugin {
        let mut examples = Vec::new();
        for i in 0..15 {
            examples.push(TrainExample {
                question: format!("how many funds have fund type kind{i}"),
                sql: format!("SELECT COUNT(*) FROM fund WHERE ftype = 'k{i}'"),
                kind: ExampleKind::Original,
            });
            examples.push(TrainExample {
                question: format!("what is the average return rate of type kind{i}"),
                sql: format!("SELECT AVG(ret) FROM fund WHERE ftype = 'k{i}'"),
                kind: ExampleKind::Original,
            });
        }
        train_plugin(base, "fund", &examples, TrainOpts::default())
    }

    #[test]
    fn trained_generator_produces_correct_sql_greedily() {
        let base = EmbeddingModel::pretrained(42);
        let plugin = plugin(&base);
        let s = schema();
        let database = db();
        let values = ValueIndex::build(&database);
        let g = SqlGenerator::new(&base, Some(&plugin), &LLAMA2_13B);
        let mut rng = StdRng::seed_from_u64(1);
        let out = g.generate(
            "how many funds have fund type bond fund",
            &s,
            &values,
            GenConfig { n_samples: 1, temperature: 0.0, skeleton_temperature: None },
            &mut rng,
        );
        assert_eq!(out.len(), 1);
        assert!(
            sqlengine::execution_accuracy(
                &database,
                &out[0],
                "SELECT COUNT(*) FROM fund WHERE ftype = 'bond fund'"
            ),
            "generated: {}",
            out[0]
        );
    }

    #[test]
    fn unadapted_generator_falls_back() {
        let base = EmbeddingModel::pretrained(42);
        let s = schema();
        let database = db();
        let values = ValueIndex::build(&database);
        let g = SqlGenerator::new(&base, None, &LLAMA2_13B);
        let mut rng = StdRng::seed_from_u64(2);
        let out = g.generate("how many funds", &s, &values, GenConfig::default(), &mut rng);
        assert!(out[0].starts_with("SELECT"));
    }

    #[test]
    fn matrix_ranking_matches_per_prototype_cosine() {
        // The contiguous dot-product sweep must rank prototypes in the
        // same order the old path did: per-prototype `cosine` calls that
        // recomputed both norms every time.
        let base = EmbeddingModel::pretrained(42);
        let plugin = plugin(&base);
        assert!(plugin.prototypes.len() >= 2, "need several prototypes to rank");
        let matrix = PrototypeMatrix::build(&plugin.prototypes);
        assert_eq!(matrix.len(), plugin.prototypes.len());
        for q in [
            "how many funds have fund type bond fund",
            "what is the average return rate of type stock fund",
            "list everything",
        ] {
            let emb = base.embed(q, Some(&plugin.lora));
            let new_order: Vec<usize> = matrix.ranked(&emb).into_iter().map(|(i, _)| i).collect();
            let mut old: Vec<(usize, f32)> = plugin
                .prototypes
                .iter()
                .enumerate()
                .map(|(i, p)| (i, crate::embed::cosine(&emb, &p.centroid)))
                .collect();
            old.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let old_order: Vec<usize> = old.into_iter().map(|(i, _)| i).collect();
            assert_eq!(new_order, old_order, "ranking order diverged for {q:?}");
        }
    }

    #[test]
    fn generate_batch_matches_per_question_generation() {
        let base = EmbeddingModel::pretrained(42);
        let plugin = plugin(&base);
        let s = schema();
        let database = db();
        let values = ValueIndex::build(&database);
        let g = SqlGenerator::new(&base, Some(&plugin), &LLAMA2_13B);
        let cfg = GenConfig { n_samples: 5, temperature: 0.9, skeleton_temperature: None };
        let questions = [
            "how many funds have fund type bond fund",
            "what is the average return rate of type stock fund",
            "how many funds have fund type kind3",
        ];
        let serial: Vec<Vec<String>> = questions
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let mut rng = StdRng::seed_from_u64(100 + i as u64);
                g.generate(q, &s, &values, cfg, &mut rng)
            })
            .collect();
        let items: Vec<BatchItem<'_>> =
            questions.iter().map(|q| BatchItem { question: q, prompt_schema: &s }).collect();
        let mut rngs: Vec<StdRng> =
            (0..questions.len()).map(|i| StdRng::seed_from_u64(100 + i as u64)).collect();
        let batched = g.generate_batch(&items, &values, cfg, &mut rngs);
        assert!(batched.iter().all(|(_, c)| c.samples == cfg.n_samples as u64));
        let batched: Vec<Vec<String>> = batched.into_iter().map(|(out, _)| out).collect();
        assert_eq!(serial, batched, "batched generation must be byte-identical");
    }

    #[test]
    fn scores_into_clears_reused_buffer() {
        // Callers reuse one score buffer across databases; a smaller
        // second matrix must not leave the first database's tail scores
        // in place (pre-fix, `scores_into` appended instead of clearing).
        let base = EmbeddingModel::pretrained(42);
        let plugin = plugin(&base);
        assert!(plugin.prototypes.len() >= 2);
        let big = PrototypeMatrix::build(&plugin.prototypes);
        let small = PrototypeMatrix::build(&plugin.prototypes[..1]);
        let emb = base.embed("how many funds have fund type bond fund", Some(&plugin.lora));
        let mut buf = Vec::new();
        big.scores_into(&emb, &mut buf);
        assert_eq!(buf.len(), big.len());
        small.scores_into(&emb, &mut buf);
        assert_eq!(buf.len(), small.len(), "reused buffer must be truncated to the new matrix");
        let mut fresh = Vec::new();
        small.scores_into(&emb, &mut fresh);
        assert_eq!(buf, fresh);
    }

    #[test]
    fn sampling_produces_varied_candidates() {
        let base = EmbeddingModel::pretrained(42);
        let plugin = plugin(&base);
        let s = schema();
        let database = db();
        let values = ValueIndex::build(&database);
        // A deliberately noisy decoder: sampling must vary the surface
        // while slot decisions stay systematic.
        let noisy = crate::BaseModelProfile {
            noise: crate::noise::NoiseRates {
                typo: 0.5,
                double_eq: 0.5,
                drop_on: 0.0,
                misalign: 0.0,
                value: 0.0,
            },
            ..LLAMA2_13B
        };
        let g = SqlGenerator::new(&base, Some(&plugin), &noisy);
        let mut rng = StdRng::seed_from_u64(3);
        let out = g.generate(
            "how many funds have fund type bond fund",
            &s,
            &values,
            GenConfig { n_samples: 20, temperature: 1.5, skeleton_temperature: None },
            &mut rng,
        );
        let distinct: std::collections::HashSet<&String> = out.iter().collect();
        assert!(distinct.len() > 1, "high temperature must vary output");
    }
}
