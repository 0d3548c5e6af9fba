//! Batched schema linking over a precomputed schema feature matrix.
//!
//! Per-question linking ([`CrossEncoder::link`]) re-derives, for every
//! `(question, element)` pair, the hashed pair features from strings:
//! it formats `dw={word}` / `iw={word}` feature names, FNV-hashes them
//! into buckets, and membership-tests question tokens against element
//! tokens by string comparison. None of that depends on the question
//! except the *membership bits* — which words and trigrams of each
//! element the question contains. [`SchemaFeatureMatrix`] therefore
//! precomputes, once per [`SchemaViews`], everything hashable up front:
//! every element's description/identifier tokens interned to integer
//! ids with their feature buckets (`dw=…`/`iw=…`) already hashed, the
//! trigram vocabulary interned the same way, and the constant buckets
//! (`bias`, `coverage`, `trigram`, `oc=…`) resolved once. Linking a
//! question then featurises the question once ([`QuestionFeatures`]:
//! two membership bitmaps over the interned vocabularies) and scores
//! all elements with integer lookups and float adds — no string
//! formatting, hashing, or comparison on the hot path.
//!
//! **Why the matrix sweep cannot change a ranking.** For each pair the
//! sweep emits the *same* raw `(bucket, weight)` sequence, in the same
//! order, that [`pair_features`](crate::features::pair_features)
//! produces — the buckets were hashed from the identical feature
//! strings at build time, and membership over interned ids equals
//! membership over the strings they intern. The accumulation in
//! [`SchemaFeatureMatrix::dot_hashed`] then replays
//! `SparseVec::from_entries` + `dot` operation for operation (same
//! sort, same duplicate-merge order, same fold), so every score is
//! bit-identical to the per-question path's, and the shared ranking
//! code applies the same descending-score/ascending-index tie-break.
//! `link_batch(qs)[i] == link(qs[i])` exactly — scores and order.

use crate::features::ElementView;
use crate::infer::{rank_scores, LinkedSchema};
use crate::model::{sigmoid, CrossEncoder, SchemaViews};
use std::collections::HashMap;
use textenc::{char_ngrams, tokenize};

/// One schema element's precomputed feature indices: interned token ids
/// paired with their pre-hashed feature buckets, plus the interned
/// trigram set.
#[derive(Debug, Clone, Default)]
struct ElementFeatures {
    /// Description tokens in description order (duplicates kept — the
    /// coverage denominator and the overlap loop both see them), each as
    /// `(interned token id, bucket of "dw={token}")`.
    desc: Vec<(u32, u32)>,
    /// Identifier parts, each as `(interned token id, bucket of
    /// "iw={token}")`.
    ident: Vec<(u32, u32)>,
    /// Interned ids of the element's distinct description trigrams (the
    /// per-question overlap numerator counts these; the length is the
    /// denominator, exactly the [`ElementView::desc_trigrams`] set size).
    trigrams: Vec<u32>,
}

/// Pre-hashed pair-feature indices for every element of one schema —
/// built once per [`SchemaViews`] (the linking counterpart of the
/// generator's `PrototypeMatrix`), cached per database runtime, and
/// shared by every batch that links against that schema.
#[derive(Debug, Clone)]
pub struct SchemaFeatureMatrix {
    /// Interned token vocabulary over every element's description and
    /// identifier tokens.
    token_ids: HashMap<String, u32>,
    /// Interned trigram vocabulary over every element's description
    /// trigrams.
    trigram_ids: HashMap<String, u32>,
    /// Per-table features, indexed like [`SchemaViews::tables`].
    tables: Vec<ElementFeatures>,
    /// Per-table column features, indexed like [`SchemaViews::columns`].
    columns: Vec<Vec<ElementFeatures>>,
    /// Pre-hashed constant buckets: `bias`, `coverage`, `trigram`, and
    /// `oc=0` … `oc=5`.
    bias_bucket: u32,
    coverage_bucket: u32,
    trigram_bucket: u32,
    oc_buckets: [u32; 6],
}

/// One question featurised against a [`SchemaFeatureMatrix`]: membership
/// bitmaps of the question's tokens and trigrams over the matrix's
/// interned vocabularies. Built once per question, shared by every
/// element score.
#[derive(Debug, Clone)]
pub struct QuestionFeatures {
    in_tokens: Vec<bool>,
    in_trigrams: Vec<bool>,
}

fn intern(vocab: &mut HashMap<String, u32>, token: &str) -> u32 {
    if let Some(&id) = vocab.get(token) {
        return id;
    }
    // INVARIANT: the vocabulary is bounded by schema size (thousands of
    // tokens), nowhere near u32::MAX.
    let id = u32::try_from(vocab.len()).expect("schema vocabulary exceeds u32");
    vocab.insert(token.to_string(), id);
    id
}

impl SchemaFeatureMatrix {
    /// Precomputes the feature indices of every element of a schema for
    /// a model's hash space. The matrix depends only on the hasher (a
    /// pure function of [`FEATURE_BITS`]) and the views — not on the
    /// trained weights — so it survives further training untouched.
    pub fn build(model: &CrossEncoder, views: &SchemaViews) -> Self {
        let hasher = model.hasher;
        let mut token_ids = HashMap::new();
        let mut trigram_ids = HashMap::new();
        let mut element = |view: &ElementView| ElementFeatures {
            desc: view
                .desc_tokens
                .iter()
                .map(|t| (intern(&mut token_ids, t), hasher.bucket(&format!("dw={t}"))))
                .collect(),
            ident: view
                .ident_tokens
                .iter()
                .map(|t| (intern(&mut token_ids, t), hasher.bucket(&format!("iw={t}"))))
                .collect(),
            trigrams: view
                .desc_trigrams
                .iter()
                .map(|g| intern(&mut trigram_ids, g))
                .collect(),
        };
        let tables = views.tables.iter().map(&mut element).collect();
        let columns = views
            .columns
            .iter()
            .map(|cols| cols.iter().map(&mut element).collect())
            .collect();
        SchemaFeatureMatrix {
            token_ids,
            trigram_ids,
            tables,
            columns,
            bias_bucket: hasher.bucket("bias"),
            coverage_bucket: hasher.bucket("coverage"),
            trigram_bucket: hasher.bucket("trigram"),
            oc_buckets: std::array::from_fn(|b| hasher.bucket(&format!("oc={b}"))),
        }
    }

    /// Number of tables covered by the matrix.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// Total schema elements (tables plus columns) scored per question.
    pub fn n_elements(&self) -> usize {
        self.tables.len() + self.columns.iter().map(Vec::len).sum::<usize>()
    }

    /// Featurises one question: tokenise once, mark which interned
    /// tokens and trigrams it contains. Question tokens outside the
    /// schema vocabulary cannot overlap any element and are dropped.
    pub fn featurise(&self, question: &str) -> QuestionFeatures {
        let mut in_tokens = vec![false; self.token_ids.len()];
        let mut in_trigrams = vec![false; self.trigram_ids.len()];
        for token in tokenize(question) {
            if let Some(&id) = self.token_ids.get(&token) {
                in_tokens[id as usize] = true;
            }
            for gram in char_ngrams(&token, 3) {
                if let Some(&id) = self.trigram_ids.get(&gram) {
                    in_trigrams[id as usize] = true;
                }
            }
        }
        QuestionFeatures { in_tokens, in_trigrams }
    }

    /// The logit of one `(question, element)` pair — the exact value
    /// `pair_features(...).dot(weights)` produces, computed from the
    /// precomputed buckets. `scratch` is the reusable raw-entry buffer.
    fn element_logit(
        &self,
        q: &QuestionFeatures,
        e: &ElementFeatures,
        weights: &[f32],
        scratch: &mut Vec<(u32, f32)>,
    ) -> f32 {
        scratch.clear();
        // Mirror `pair_features` push for push: bias, description
        // overlaps, identifier overlaps, coverage, trigram ratio,
        // overlap-count bucket.
        scratch.push((self.bias_bucket, 1.0));
        let mut desc_matches = 0usize;
        for &(tid, bucket) in &e.desc {
            if q.in_tokens[tid as usize] {
                scratch.push((bucket, 1.0));
                desc_matches += 1;
            }
        }
        let mut ident_matches = 0usize;
        for &(tid, bucket) in &e.ident {
            if q.in_tokens[tid as usize] {
                scratch.push((bucket, 1.0));
                ident_matches += 1;
            }
        }
        let coverage = if e.desc.is_empty() {
            0.0
        } else {
            desc_matches as f32 / e.desc.len() as f32
        };
        scratch.push((self.coverage_bucket, coverage));
        let tri = if e.trigrams.is_empty() {
            0.0
        } else {
            let inter = e.trigrams.iter().filter(|g| q.in_trigrams[**g as usize]).count();
            inter as f32 / e.trigrams.len() as f32
        };
        scratch.push((self.trigram_bucket, tri));
        let bucket = (desc_matches + ident_matches).min(5);
        scratch.push((self.oc_buckets[bucket], 1.0));
        Self::dot_hashed(scratch, weights)
    }

    /// `SparseVec::from_entries(raw).dot(dense)` replayed on a reusable
    /// buffer: same unstable sort by bucket, duplicates summed left to
    /// right within a bucket, merged terms folded in ascending bucket
    /// order — the identical sequence of f32 operations, so the result
    /// is bit-identical, without the per-pair `SparseVec` allocation.
    fn dot_hashed(raw: &mut [(u32, f32)], dense: &[f32]) -> f32 {
        raw.sort_unstable_by_key(|(i, _)| *i);
        let mut total = 0.0f32;
        let mut k = 0usize;
        while k < raw.len() {
            let idx = raw[k].0;
            let mut w = raw[k].1;
            k += 1;
            while k < raw.len() && raw[k].0 == idx {
                w += raw[k].1;
                k += 1;
            }
            total += w * dense.get(idx as usize).copied().unwrap_or(0.0);
        }
        total
    }
}

impl CrossEncoder {
    /// Builds the precomputed feature matrix for a schema's views in
    /// this model's hash space.
    pub fn schema_matrix(&self, views: &SchemaViews) -> SchemaFeatureMatrix {
        SchemaFeatureMatrix::build(self, views)
    }

    /// Links a whole batch of questions against one schema in a single
    /// matrix sweep: each question is featurised once, then all
    /// questions × all elements are scored over the precomputed feature
    /// indices. Output `i` is exactly [`CrossEncoder::link`] of
    /// `questions[i]` — same scores bit for bit, same tie-break (module
    /// docs) — at every batch size.
    pub fn link_batch(
        &self,
        questions: &[&str],
        matrix: &SchemaFeatureMatrix,
    ) -> Vec<LinkedSchema> {
        let mut scratch: Vec<(u32, f32)> = Vec::with_capacity(32);
        questions
            .iter()
            .map(|question| {
                let q = matrix.featurise(question);
                let mut table_scores = vec![0.0f32; matrix.tables.len()];
                let mut column_scores: Vec<Vec<f32>> =
                    matrix.columns.iter().map(|c| vec![0.0; c.len()]).collect();
                for (ti, table) in matrix.tables.iter().enumerate() {
                    table_scores[ti] = sigmoid(matrix.element_logit(
                        &q,
                        table,
                        &self.table_weights,
                        &mut scratch,
                    ));
                    for (ci, col) in matrix.columns[ti].iter().enumerate() {
                        column_scores[ti][ci] = sigmoid(matrix.element_logit(
                            &q,
                            col,
                            &self.column_weights,
                            &mut scratch,
                        ));
                    }
                }
                rank_scores(table_scores, column_scores)
            })
            .collect()
    }

    /// [`CrossEncoder::link_batch`], also reporting the elapsed wall
    /// time of the whole sweep — the hook the batched answer engine's
    /// metrics use to attribute linking cost.
    pub fn link_batch_timed(
        &self,
        questions: &[&str],
        matrix: &SchemaFeatureMatrix,
    ) -> (Vec<LinkedSchema>, std::time::Duration) {
        let start = std::time::Instant::now();
        let linked = self.link_batch(questions, matrix);
        (linked, start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train, LinkExample, TrainConfig};
    use sqlkit::catalog::{CatalogColumn, CatalogSchema, CatalogTable, ColType, Lang};

    fn schema(n_tables: usize) -> CatalogSchema {
        CatalogSchema {
            db_id: "m".into(),
            tables: (0..n_tables)
                .map(|i| CatalogTable {
                    name: format!("tb_{i}_shared"),
                    desc_en: format!("table number {i} about topic{i} shared words"),
                    desc_cn: format!("table {i}"),
                    columns: (0..9)
                        .map(|j| {
                            CatalogColumn::new(
                                &format!("col{i}_{j}"),
                                ColType::Float,
                                &format!("measure {j} of topic{i} shared"),
                                "m",
                            )
                        })
                        .collect(),
                })
                .collect(),
            foreign_keys: vec![],
        }
    }

    fn trained_model(s: &CatalogSchema) -> CrossEncoder {
        let examples: Vec<LinkExample> = (0..s.tables.len())
            .map(|i| LinkExample {
                question: format!("measure 2 of topic{i} please"),
                gold_tables: vec![s.tables[i].name.clone()],
                gold_columns: vec![(s.tables[i].name.clone(), s.tables[i].columns[2].name.clone())],
                schema_idx: 0,
            })
            .collect();
        train(Lang::En, &[s], &examples, TrainConfig::default())
    }

    fn assert_linked_eq(a: &LinkedSchema, b: &LinkedSchema) {
        assert_eq!(a.tables, b.tables, "table ranking diverged");
        assert_eq!(a.columns, b.columns, "column ranking diverged");
    }

    #[test]
    fn batch_matches_per_question_link_exactly() {
        let s = schema(12);
        let views = SchemaViews::build(&s, Lang::En);
        let model = trained_model(&s);
        let matrix = model.schema_matrix(&views);
        let questions = [
            "measure 3 of topic7",
            "shared words of table number 4",
            "topic1 topic1 topic1",
            "nothing in common at all",
            "",
            "measure 3 of topic7",
        ];
        let batched = model.link_batch(&questions, &matrix);
        assert_eq!(batched.len(), questions.len());
        for (q, linked) in questions.iter().zip(&batched) {
            assert_linked_eq(&model.link(q, &views), linked);
        }
    }

    #[test]
    fn fresh_model_matrix_ranks_by_index() {
        let s = schema(6);
        let views = SchemaViews::build(&s, Lang::En);
        let model = CrossEncoder::new(Lang::En);
        let matrix = model.schema_matrix(&views);
        let linked = &model.link_batch(&["anything"], &matrix)[0];
        let order: Vec<usize> = linked.tables.iter().map(|(i, _)| *i).collect();
        assert_eq!(order, (0..6).collect::<Vec<_>>(), "ties must break by index");
        for (_, score) in &linked.tables {
            assert!((score - 0.5).abs() < 1e-6, "fresh model must score 0.5");
        }
    }

    #[test]
    fn matrix_counts_elements() {
        let s = schema(5);
        let views = SchemaViews::build(&s, Lang::En);
        let matrix = CrossEncoder::new(Lang::En).schema_matrix(&views);
        assert_eq!(matrix.n_tables(), 5);
        assert_eq!(matrix.n_elements(), 5 + 5 * 9);
    }

    #[test]
    fn empty_batch_is_empty() {
        let s = schema(2);
        let views = SchemaViews::build(&s, Lang::En);
        let model = CrossEncoder::new(Lang::En);
        let matrix = model.schema_matrix(&views);
        assert!(model.link_batch(&[], &matrix).is_empty());
    }
}
