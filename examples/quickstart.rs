//! Quickstart: build the BULL benchmark, train a FinSQL system, and
//! translate a few questions end to end.
//!
//! Run with: `cargo run --release --example quickstart`

use bull::{DbId, Lang, Split};
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use simllm::profiles::LLAMA2_13B;

fn main() {
    // 1. The benchmark: three financial databases plus 4,966 annotated
    //    question-SQL pairs, generated deterministically.
    println!("building BULL …");
    let ds = bull::build(bull::DEFAULT_SEED);
    println!(
        "  {} examples across {} databases\n",
        ds.len(),
        DbId::ALL.len()
    );

    // 2. Train the full FinSQL system: parallel Cross-Encoder schema
    //    linker + one LoRA plugin per database on the augmented mix.
    println!("training FinSQL (LLaMA2 profile, English register) …");
    let system = FinSql::build(&ds, &LLAMA2_13B, FinSqlConfig::standard(Lang::En));
    println!("  plugins in hub: {:?}\n", system.hub.names());

    // 3. Answer dev questions.
    for e in ds.examples_for(DbId::Fund, Split::Dev).iter().take(5) {
        let q = e.question(Lang::En);
        let sql = system.answer(DbId::Fund, q);
        let ok = sqlengine::execution_accuracy(ds.db(DbId::Fund), &sql, &e.sql);
        println!("Q: {q}");
        println!("   predicted: {sql}");
        println!("   gold:      {}", e.sql);
        println!("   execution match: {ok}\n");
    }
}
