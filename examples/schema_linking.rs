//! Schema linking: from a 420-column database to a concise prompt
//! schema in one batched Cross-Encoder sweep over every table.
//!
//! Run with: `cargo run --release --example schema_linking`

use bull::{DbId, Lang};
use crossenc::model::SchemaViews;
use finsql_core::pipeline::train_linker;
use finsql_core::render_schema;
use textenc::approx_token_count;

fn main() {
    let ds = bull::build(bull::DEFAULT_SEED);
    println!("training the Cross-Encoder on the BULL training splits …");
    let linker = train_linker(&ds, Lang::En, &DbId::ALL, bull::DEFAULT_SEED);

    let schema = ds.db(DbId::Stock).catalog();
    let views = SchemaViews::build(schema, Lang::En);
    let question = "Which companies in the Banks industry have the 3 highest closing prices?";

    let matrix = linker.schema_matrix(&views);
    let t0 = std::time::Instant::now();
    let linked = linker.link_batch(&[question], &matrix).swap_remove(0);
    let batched_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    let _ = linker.link(question, &views);
    let serial_time = t1.elapsed();

    println!("\nQ: {question}");
    println!("top tables:");
    for (ti, score) in linked.tables.iter().take(4) {
        println!("  {:<22} {score:.3}", schema.tables[*ti].name);
    }
    let pruned = linked.project(schema, 4, 8);
    let full_tokens = approx_token_count(&render_schema(schema, Lang::En));
    let pruned_tokens = approx_token_count(&render_schema(&pruned, Lang::En));
    println!("\nprompt size: {full_tokens} tokens (full schema) → {pruned_tokens} tokens (linked)");
    println!("linking latency: per-table {serial_time:?} vs batched sweep {batched_time:?}");
}
