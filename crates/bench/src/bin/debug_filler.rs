//! Oracle-shape slot-filler accuracy: feed the gold shape, perfect skill.

use bench::{dataset, headline_profile};
use bull::{DbId, Lang, Split};
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use simllm::slots::{FillOptions, SlotFiller};
use std::collections::HashMap;

fn main() {
    let ds = dataset();
    let system = FinSql::build(&ds, headline_profile(Lang::En), FinSqlConfig::standard(Lang::En));
    let rt = system.runtime(DbId::Fund);
    let mut by_arch: HashMap<&str, (usize, usize)> = HashMap::new();
    let mut fails: HashMap<&str, Vec<(String, String, String)>> = HashMap::new();
    for e in ds.examples_for(DbId::Fund, Split::Dev) {
        let q = e.question(Lang::En);
        let Some(shape) = simllm::shape_of(&e.sql) else { continue };
        let linked = system.linker.link(q, &rt.views);
        let prompt_schema = linked.project(&rt.schema, 4, 8);
        let filler = SlotFiller::new(&prompt_schema, &rt.values, q);
        // The shared per-question stream, so this probe's draws line up
        // with what the same question sees under evaluation.
        let mut rng = system.question_rng(DbId::Fund, q);
        let opts = FillOptions { cot: true, slot_skill: 1.0, join_skill: 1.0 };
        let sql = filler.fill(shape, &opts, &mut rng).unwrap_or_else(|| filler.fallback_sql());
        let ok = sqlengine::execution_accuracy(ds.db(DbId::Fund), &sql, &e.sql);
        let ent = by_arch.entry(e.archetype).or_insert((0, 0));
        ent.1 += 1;
        if ok { ent.0 += 1; } else {
            let v = fails.entry(e.archetype).or_default();
            if v.len() < 4 { v.push((q.to_string(), e.sql.clone(), sql)); }
        }
    }
    let mut archs: Vec<_> = by_arch.iter().collect();
    archs.sort();
    let (mut c, mut t) = (0, 0);
    for (a, (ca, ta)) in &archs {
        println!("{a:24} {ca:3}/{ta:3} = {:.0}%", 100.0 * *ca as f64 / *ta as f64);
        c += ca; t += ta;
    }
    println!("TOTAL {c}/{t} = {:.1}%", 100.0 * c as f64 / t as f64);
    println!("\n--- sample failures ---");
    for (a, v) in fails.iter() {
        for (q, gold, got) in v.iter().take(4) {
            println!("[{a}] {q}\n  gold: {gold}\n  got : {got}\n");
        }
    }
}
