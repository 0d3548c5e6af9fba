//! Per-question schema-linking inference and the shared ranking.
//!
//! The paper's point: serialising a 390-column schema through the encoder
//! one element at a time is slow and overflows context limits; scoring
//! per-table inputs as one batch is fast. [`CrossEncoder::link`] scores
//! one question's tables one after another, re-deriving every pair
//! feature from strings. It is the reference that the batched sweep,
//! [`CrossEncoder::link_batch`] over a precomputed
//! [`SchemaFeatureMatrix`](crate::SchemaFeatureMatrix), is tested
//! against bit for bit.

use crate::features::QuestionView;
use crate::model::{CrossEncoder, SchemaViews};
use sqlkit::catalog::CatalogSchema;

/// The ranked output of schema linking for one question.
#[derive(Debug, Clone)]
pub struct LinkedSchema {
    /// `(table index, score)` sorted by descending score.
    pub tables: Vec<(usize, f32)>,
    /// Per table: `(column index, score)` sorted by descending score.
    pub columns: Vec<Vec<(usize, f32)>>,
}

impl CrossEncoder {
    /// Scores every table and column of a schema for a question, one
    /// table after another.
    pub fn link(&self, question: &str, views: &SchemaViews) -> LinkedSchema {
        let q = QuestionView::new(question);
        let table_scores = views.tables.iter().map(|tv| self.score_table(&q, tv)).collect();
        let column_scores = views
            .columns
            .iter()
            .map(|cols| cols.iter().map(|cv| self.score_column(&q, cv)).collect())
            .collect();
        rank_scores(table_scores, column_scores)
    }
}

/// Ranks raw per-element scores into a [`LinkedSchema`]: descending
/// score, ties broken by ascending index. Shared by the per-question
/// [`CrossEncoder::link`] and [`CrossEncoder::link_batch`], so both
/// linking paths apply the identical tie-break.
pub(crate) fn rank_scores(
    table_scores: Vec<f32>,
    column_scores: Vec<Vec<f32>>,
) -> LinkedSchema {
    let mut tables: Vec<(usize, f32)> = table_scores.into_iter().enumerate().collect();
    tables.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let columns = column_scores
        .into_iter()
        .map(|cs| {
            let mut v: Vec<(usize, f32)> = cs.into_iter().enumerate().collect();
            v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            v
        })
        .collect();
    LinkedSchema { tables, columns }
}

impl LinkedSchema {
    /// Projects a schema down to the top `k_tables` tables and, within
    /// each kept table, the top `k_columns` columns (plus FK columns,
    /// which [`CatalogSchema::project`] preserves). This is the concise
    /// prompt input of the paper's Figure 9.
    pub fn project(
        &self,
        schema: &CatalogSchema,
        k_tables: usize,
        k_columns: usize,
    ) -> CatalogSchema {
        let kept_tables: Vec<String> = self
            .tables
            .iter()
            .take(k_tables)
            .map(|(ti, _)| schema.tables[*ti].name.clone())
            .collect();
        let mut kept_columns: Vec<(String, String)> = Vec::new();
        for (ti, _) in self.tables.iter().take(k_tables) {
            let t = &schema.tables[*ti];
            for (ci, _) in self.columns[*ti].iter().take(k_columns) {
                kept_columns.push((t.name.clone(), t.columns[*ci].name.clone()));
            }
        }
        schema.project(&kept_tables, &kept_columns)
    }

    /// The rank (0-based) of a table, by name.
    pub fn table_rank(&self, schema: &CatalogSchema, name: &str) -> Option<usize> {
        let idx = schema.table_index(name)?;
        self.tables.iter().position(|(ti, _)| *ti == idx)
    }

    /// True when every gold table is ranked within the top `k` tables —
    /// the per-example table recall@k event of the paper's Table 7.
    pub fn covers_tables(&self, schema: &CatalogSchema, gold: &[String], k: usize) -> bool {
        gold.iter().all(|g| self.table_rank(schema, g).map(|r| r < k).unwrap_or(false))
    }

    /// True when every gold `(table, column)` is within the top `k`
    /// columns of its own table's ranking.
    pub fn covers_columns(
        &self,
        schema: &CatalogSchema,
        gold: &[(String, String)],
        k: usize,
    ) -> bool {
        gold.iter().all(|(gt, gc)| {
            let Some(ti) = schema.table_index(gt) else { return false };
            let Some(ci) = schema.tables[ti].column_index(gc) else { return false };
            self.columns[ti].iter().take(k).any(|(c, _)| *c == ci)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SchemaViews;
    use sqlkit::catalog::{CatalogColumn, CatalogTable, ColType, Lang};

    fn schema(n_tables: usize) -> CatalogSchema {
        CatalogSchema {
            db_id: "s".into(),
            tables: (0..n_tables)
                .map(|i| CatalogTable {
                    name: format!("t{i}"),
                    desc_en: format!("table number {i} about topic{i}"),
                    desc_cn: format!("table {i}"),
                    columns: (0..12)
                        .map(|j| {
                            CatalogColumn::new(
                                &format!("c{i}_{j}"),
                                ColType::Float,
                                &format!("measure {j} of topic{i}"),
                                "m",
                            )
                        })
                        .collect(),
                })
                .collect(),
            foreign_keys: vec![],
        }
    }

    #[test]
    fn projection_keeps_top_k() {
        let s = schema(10);
        let views = SchemaViews::build(&s, Lang::En);
        let m = CrossEncoder::new(Lang::En);
        let linked = m.link("topic3", &views);
        let p = linked.project(&s, 3, 5);
        assert_eq!(p.tables.len(), 3);
        assert!(p.tables.iter().all(|t| t.columns.len() <= 5));
    }

    #[test]
    fn ranking_is_deterministic_under_ties() {
        let s = schema(8);
        let views = SchemaViews::build(&s, Lang::En);
        let m = CrossEncoder::new(Lang::En);
        // Fresh model: every score is 0.5, so ranking must fall back to
        // index order.
        let linked = m.link("anything", &views);
        let order: Vec<usize> = linked.tables.iter().map(|(i, _)| *i).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }
}
