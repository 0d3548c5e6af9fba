//! The parallel Cross-Encoder claim (paper §6.2, Figure 9): scoring the
//! per-table inputs as one batch beats scoring them one after another.
//! The CPU analogue here is the batched sweep, `link_batch` over a
//! precomputed `SchemaFeatureMatrix` (bitwise-equal scores), against the
//! serial per-table `link`, which re-derives every pair feature from
//! strings. No thread parallelism: measured on the real BULL stock
//! schema and synthetically widened ones.

use bull::{DbId, Lang};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crossenc::model::SchemaViews;
use crossenc::CrossEncoder;
use sqlkit::catalog::{CatalogColumn, CatalogSchema, CatalogTable, ColType};

/// A synthetic schema with `n` tables of 15 columns, BULL-style widths.
fn wide_schema(n: usize) -> CatalogSchema {
    CatalogSchema {
        db_id: format!("wide{n}"),
        tables: (0..n)
            .map(|i| CatalogTable {
                name: format!("lc_table{i}"),
                desc_en: format!("business record family {i}"),
                desc_cn: format!("业务记录{i}"),
                columns: (0..15)
                    .map(|j| {
                        CatalogColumn::new(
                            &format!("col{i}_{j}"),
                            ColType::Float,
                            &format!("measure {j} of family {i}"),
                            &format!("指标{j}"),
                        )
                    })
                    .collect(),
            })
            .collect(),
        foreign_keys: vec![],
    }
}

fn bench_linking(c: &mut Criterion) {
    let model = CrossEncoder::new(Lang::En);
    let question = "what is the measure 7 of family 3 in the business record";
    let mut group = c.benchmark_group("schema_linking");
    for n_tables in [8usize, 31, 64, 128] {
        let schema = wide_schema(n_tables);
        let views = SchemaViews::build(&schema, Lang::En);
        let matrix = model.schema_matrix(&views);
        group.bench_with_input(BenchmarkId::new("serial", n_tables), &views, |b, v| {
            b.iter(|| model.link(question, v))
        });
        group.bench_with_input(BenchmarkId::new("batched", n_tables), &matrix, |b, m| {
            b.iter(|| model.link_batch(&[question], m))
        });
    }
    group.finish();

    // The real BULL stock schema (31 tables, ~420 columns).
    let stock = DbId::Stock.schema();
    let views = SchemaViews::build(&stock, Lang::En);
    let matrix = model.schema_matrix(&views);
    let mut group = c.benchmark_group("bull_stock_linking");
    group.bench_function("serial", |b| b.iter(|| model.link(question, &views)));
    group.bench_function("batched", |b| {
        b.iter(|| model.link_batch(&[question], &matrix))
    });
    group.finish();
}

criterion_group!(benches, bench_linking);
criterion_main!(benches);
