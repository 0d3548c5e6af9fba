//! Aggregate error breakdown on the fund dev set.

use bench::{dataset, headline_profile};
use bull::{DbId, Lang, Split};
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use std::collections::HashMap;

fn main() {
    let ds = dataset();
    let system = FinSql::build(&ds, headline_profile(Lang::En), FinSqlConfig::standard(Lang::En));
    let rt = system.runtime(DbId::Fund);
    let plugin = &rt.plugin;
    let mut skel_ok = 0; let mut skel_total = 0;
    let mut prompt_miss = 0;
    let mut ex_when_skel_ok = (0, 0);
    let mut ex_by_arch: HashMap<&str, (usize, usize)> = HashMap::new();
    for e in ds.examples_for(DbId::Fund, Split::Dev) {
        let q = e.question(Lang::En);
        let gold_skel = sqlkit::skeleton_of(&e.sql).unwrap_or_default();
        let emb = system.base.embed(q, Some(&plugin.lora));
        let best = plugin.prototypes.iter()
            .max_by(|a, b| simllm::embed::cosine(&emb, &a.centroid).total_cmp(&simllm::embed::cosine(&emb, &b.centroid)))
            .map(|p| p.skeleton.clone()).unwrap_or_default();
        let sk = best == gold_skel;
        skel_total += 1; if sk { skel_ok += 1; }
        let linked = system.linker.link(q, &rt.views);
        let prompt_schema = linked.project(&rt.schema, 4, 8);
        let miss = e.gold_columns.iter().any(|(t,c)| !prompt_schema.has_column(t,c));
        if miss { prompt_miss += 1; }
        let final_sql = system.answer(DbId::Fund, q);
        let ok = sqlengine::execution_accuracy(ds.db(DbId::Fund), &final_sql, &e.sql);
        let ent = ex_by_arch.entry(e.archetype).or_insert((0,0));
        ent.1 += 1; if ok { ent.0 += 1; }
        if sk { ex_when_skel_ok.1 += 1; if ok { ex_when_skel_ok.0 += 1; } }
    }
    println!("skeleton top-1 acc: {}/{} = {:.1}%", skel_ok, skel_total, 100.0*skel_ok as f64/skel_total as f64);
    println!("prompt missing gold cols: {}/{}", prompt_miss, skel_total);
    println!("EX when skeleton correct: {}/{} = {:.1}%", ex_when_skel_ok.0, ex_when_skel_ok.1, 100.0*ex_when_skel_ok.0 as f64/ex_when_skel_ok.1.max(1) as f64);
    let mut archs: Vec<_> = ex_by_arch.into_iter().collect();
    archs.sort();
    for (a, (c, t)) in archs {
        println!("  {a:24} {c:3}/{t:3} = {:.0}%", 100.0*c as f64/t as f64);
    }
}
