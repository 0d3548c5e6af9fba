//! Micro-benchmarks of the batched answer engine and the featurisation
//! hot loop it leans on: question featurisation (no token cloning),
//! embedding, contiguous prototype-matrix ranking, and the full answer
//! path in batches of one vs one micro-batch.

use criterion::{criterion_group, criterion_main, Criterion};
use bull::{DbId, Lang, Split};
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use simllm::{EmbeddingModel, PrototypeMatrix};

const QUESTION: &str =
    "what is the average closing price of funds listed on the Shanghai Stock Exchange in 2019";

/// Featurisation guard: tokenise + hash + bigram assembly of one
/// question. This is the inner loop of every embedding; a regression here
/// taxes single and batched paths alike.
fn bench_featurisation(c: &mut Criterion) {
    let base = EmbeddingModel::pretrained(7);
    c.bench_function("features_one_question", |b| {
        b.iter(|| base.features(std::hint::black_box(QUESTION)))
    });
    c.bench_function("embed_one_question", |b| {
        b.iter(|| base.embed(std::hint::black_box(QUESTION), None))
    });
}

fn bench_batched_engine(c: &mut Criterion) {
    let ds = bull::build(bull::DEFAULT_SEED);
    let system =
        FinSql::build(&ds, &simllm::profiles::LLAMA2_13B, FinSqlConfig::standard(Lang::En));
    let dev = ds.examples_for(DbId::Fund, Split::Dev);
    let questions: Vec<&str> = dev.iter().take(8).map(|e| e.question(Lang::En)).collect();

    let rt = system.runtime(DbId::Fund);
    let emb = system.base.embed(QUESTION, Some(&rt.plugin.lora));
    c.bench_function("prototype_matrix_rank", |b| {
        b.iter(|| rt.matrix.ranked(std::hint::black_box(&emb)))
    });
    c.bench_function("prototype_matrix_build", |b| {
        b.iter(|| PrototypeMatrix::build(std::hint::black_box(&rt.plugin.prototypes)))
    });

    // The full answer path: 8 batches of one vs one micro-batch of 8.
    c.bench_function("answer_8_per_question", |b| {
        b.iter(|| questions.iter().map(|q| system.answer(DbId::Fund, q)).collect::<Vec<_>>())
    });
    c.bench_function("answer_8_batched", |b| {
        b.iter(|| system.answer_batch(DbId::Fund, std::hint::black_box(&questions)))
    });
}

criterion_group!(benches, bench_featurisation, bench_batched_engine);
criterion_main!(benches);
