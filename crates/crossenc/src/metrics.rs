//! Linking-quality metrics: AUC (paper Table 6) and recall@k (Table 7).

use crate::infer::LinkedSchema;
use crate::model::{CrossEncoder, SchemaViews};
use crate::train::LinkExample;
use sqlkit::catalog::CatalogSchema;

/// Area under the ROC curve from (score, label) pairs, computed via the
/// Mann–Whitney rank statistic with tie correction.
pub fn auc(scored: &[(f32, bool)]) -> f64 {
    let mut sorted: Vec<&(f32, bool)> = scored.iter().collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n_pos = scored.iter().filter(|(_, l)| *l).count();
    let n_neg = scored.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 1.0;
    }
    // Average ranks over ties.
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0usize;
    while i < sorted.len() {
        let mut j = i;
        while j < sorted.len() && sorted[j].0 == sorted[i].0 {
            j += 1;
        }
        // Ranks are 1-based; the tied block [i, j) shares the average rank.
        let avg_rank = (i + 1 + j) as f64 / 2.0;
        for item in &sorted[i..j] {
            if item.1 {
                rank_sum_pos += avg_rank;
            }
        }
        i = j;
    }
    (rank_sum_pos - n_pos as f64 * (n_pos as f64 + 1.0) / 2.0) / (n_pos as f64 * n_neg as f64)
}

/// Aggregated linking evaluation over a dev set.
#[derive(Debug, Clone)]
pub struct LinkEval {
    pub table_auc: f64,
    pub column_auc: f64,
    /// `recall@k` for tables at the requested cutoffs: the fraction of
    /// examples whose gold tables are all within the top-k.
    pub table_recall: Vec<(usize, f64)>,
    /// `recall@k` for columns: gold columns all within the top-k columns
    /// of their own table.
    pub column_recall: Vec<(usize, f64)>,
}

/// Evaluates a model on dev examples against their schemas.
pub fn evaluate(
    model: &CrossEncoder,
    schemas: &[&CatalogSchema],
    views: &[SchemaViews],
    examples: &[LinkExample],
    table_ks: &[usize],
    column_ks: &[usize],
) -> LinkEval {
    let mut table_scored: Vec<(f32, bool)> = Vec::new();
    let mut column_scored: Vec<(f32, bool)> = Vec::new();
    let mut table_hits = vec![0usize; table_ks.len()];
    let mut column_hits = vec![0usize; column_ks.len()];
    for ex in examples {
        let schema = schemas[ex.schema_idx];
        let linked = model.link(&ex.question, &views[ex.schema_idx]);
        collect_scored(schema, ex, &linked, &mut table_scored, &mut column_scored);
        for (ki, &k) in table_ks.iter().enumerate() {
            if tables_covered(schema, ex, &linked, k) {
                table_hits[ki] += 1;
            }
        }
        for (ki, &k) in column_ks.iter().enumerate() {
            if columns_covered(schema, ex, &linked, k) {
                column_hits[ki] += 1;
            }
        }
    }
    let n = examples.len().max(1) as f64;
    LinkEval {
        table_auc: auc(&table_scored),
        column_auc: auc(&column_scored),
        table_recall: table_ks.iter().zip(table_hits).map(|(&k, h)| (k, h as f64 / n)).collect(),
        column_recall: column_ks.iter().zip(column_hits).map(|(&k, h)| (k, h as f64 / n)).collect(),
    }
}

fn collect_scored(
    schema: &CatalogSchema,
    ex: &LinkExample,
    linked: &LinkedSchema,
    table_scored: &mut Vec<(f32, bool)>,
    column_scored: &mut Vec<(f32, bool)>,
) {
    for (ti, score) in &linked.tables {
        let name = &schema.tables[*ti].name;
        let label = ex.gold_tables.iter().any(|g| g.eq_ignore_ascii_case(name));
        table_scored.push((*score, label));
    }
    for (ti, cols) in linked.columns.iter().enumerate() {
        let tname = &schema.tables[ti].name;
        for (ci, score) in cols {
            let cname = &schema.tables[ti].columns[*ci].name;
            let label = ex.gold_columns.iter().any(|(gt, gc)| {
                gt.eq_ignore_ascii_case(tname) && gc.eq_ignore_ascii_case(cname)
            });
            column_scored.push((*score, label));
        }
    }
}

fn tables_covered(
    schema: &CatalogSchema,
    ex: &LinkExample,
    linked: &LinkedSchema,
    k: usize,
) -> bool {
    linked.covers_tables(schema, &ex.gold_tables, k)
}

fn columns_covered(
    schema: &CatalogSchema,
    ex: &LinkExample,
    linked: &LinkedSchema,
    k: usize,
) -> bool {
    linked.covers_columns(schema, &ex.gold_columns, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auc_of_perfect_separation_is_one() {
        let scored = vec![(0.9, true), (0.8, true), (0.2, false), (0.1, false)];
        assert_eq!(auc(&scored), 1.0);
    }

    #[test]
    fn auc_of_random_is_half() {
        let scored = vec![(0.5, true), (0.5, false), (0.5, true), (0.5, false)];
        assert!((auc(&scored) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn auc_of_inverted_is_zero() {
        let scored = vec![(0.1, true), (0.9, false)];
        assert_eq!(auc(&scored), 0.0);
    }

    #[test]
    fn auc_handles_partial_overlap() {
        let scored = vec![(0.9, true), (0.7, false), (0.65, true), (0.4, false)];
        let a = auc(&scored);
        assert!(a > 0.5 && a < 1.0);
    }
}
