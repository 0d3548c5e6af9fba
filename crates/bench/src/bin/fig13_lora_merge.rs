//! Regenerates the paper's Figure 13: execution accuracy of
//! weights-merging-based few-shot LoRA on the macro-economy database,
//! across the four base models, as a function of the number of macro
//! training shots.
//!
//! LoRA: a plugin trained from scratch on only the k macro shots.
//! LoRA-Merge: the fund and stock plugins merged with uniform weights,
//! then fine-tuned further on the same k shots (paper §7.3).

use augment::{build_training_mix, AugmentationFlags};
use bench::{dataset, SEED};
use bull::{BullDataset, DbId, Lang, Split};
use crossenc::CrossEncoder;
use finsql_core::calibrate::{calibrate, CalibrationConfig};
use finsql_core::peft::{fewshot_from_scratch, fewshot_with_merge};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simllm::{
    BaseModelProfile, EmbeddingModel, GenConfig, LoraPlugin, PluginHub, SqlGenerator, TrainOpts,
    ValueIndex,
};

const SHOTS: &[usize] = &[0, 10, 25, 50, 100, 200, 400, 550];

fn main() {
    let ds = dataset();
    let lang_for = |p: &BaseModelProfile| {
        if p.name.contains("Baichuan") || p.name.contains("mT5") {
            Lang::Cn
        } else {
            Lang::En
        }
    };
    println!("Figure 13: EX of weights-merging-based few-shot LoRA on macro");
    println!("{:<14} {:>5} {:>9} {:>11} {:>9}", "model", "k", "LoRA", "LoRA-Merge", "gap");
    for profile in simllm::profiles::ALL_PROFILES {
        let lang = lang_for(profile);
        let base = EmbeddingModel::pretrained(SEED);
        let hub = PluginHub::new();
        // Source plugins on fund and stock (full training data).
        train_source_plugins(&ds, &base, &hub, lang);
        for &k in SHOTS {
            // Shots: the first k macro training examples, augmented.
            let pairs: Vec<(String, String)> = ds
                .examples_for(DbId::Macro, Split::Train)
                .into_iter()
                .take(k)
                .map(|e| (e.question(lang).to_string(), e.sql.clone()))
                .collect();
            let shots = build_training_mix(
                ds.db(DbId::Macro),
                &pairs,
                lang,
                AugmentationFlags::default(),
            );
            // Linker trained on fund + stock + the k macro shots.
            let linker = train_linker_with_shots(&ds, lang, k);
            let opts = TrainOpts { seed: SEED ^ k as u64, ..Default::default() };
            let scratch = fewshot_from_scratch(&base, &hub, &format!("macro-scratch-{k}"), &shots, opts);
            let merged = fewshot_with_merge(
                &base,
                &hub,
                &[&plugin_name(DbId::Fund, lang), &plugin_name(DbId::Stock, lang)],
                &format!("macro-merge-{k}"),
                &shots,
                opts,
            )
            .expect("source plugins exist");
            let ex_scratch = macro_ex(&ds, lang, &base, &linker, &scratch, profile);
            let ex_merge = macro_ex(&ds, lang, &base, &linker, &merged, profile);
            println!(
                "{:<14} {:>5} {:>8.1}% {:>10.1}% {:>+8.1}",
                profile.name,
                k,
                ex_scratch * 100.0,
                ex_merge * 100.0,
                (ex_merge - ex_scratch) * 100.0
            );
        }
        println!();
    }
}

use finsql_core::peft::plugin_name;

/// Trains fund+stock plugins into the hub (shared across k).
fn train_source_plugins(ds: &BullDataset, base: &EmbeddingModel, hub: &PluginHub, lang: Lang) {
    for db in [DbId::Fund, DbId::Stock] {
        finsql_core::peft::train_database_plugin(
            base,
            hub,
            ds,
            db,
            lang,
            AugmentationFlags::default(),
            TrainOpts { seed: SEED ^ db as u64, ..Default::default() },
        );
    }
}

/// Linker on fund + stock training data plus k macro shots.
fn train_linker_with_shots(ds: &BullDataset, lang: Lang, k: usize) -> CrossEncoder {
    use crossenc::{LinkExample, TrainConfig};
    let schemas: Vec<_> = DbId::ALL.iter().map(|&db| ds.db(db).catalog()).collect();
    let mut examples = Vec::new();
    for (si, &db) in DbId::ALL.iter().enumerate() {
        let take = if db == DbId::Macro { k } else { usize::MAX };
        for e in ds.examples_for(db, Split::Train).into_iter().take(take) {
            examples.push(LinkExample {
                question: e.question(lang).to_string(),
                gold_tables: e.gold_tables.clone(),
                gold_columns: e.gold_columns.clone(),
                schema_idx: si,
            });
        }
    }
    crossenc::train::train(lang, &schemas, &examples, TrainConfig { seed: SEED, ..Default::default() })
}

/// EX on the macro dev set for one plugin.
fn macro_ex(
    ds: &BullDataset,
    lang: Lang,
    base: &EmbeddingModel,
    linker: &CrossEncoder,
    plugin: &LoraPlugin,
    profile: &BaseModelProfile,
) -> f64 {
    let schema = ds.db(DbId::Macro).catalog();
    let views = crossenc::model::SchemaViews::build(schema, lang);
    let values = ValueIndex::build(ds.db(DbId::Macro));
    let generator = SqlGenerator::new(base, Some(plugin), profile);
    let calib = CalibrationConfig::default();
    let mut correct = 0usize;
    let mut total = 0usize;
    for e in ds.examples_for(DbId::Macro, Split::Dev) {
        let q = e.question(lang);
        let linked = linker.link(q, &views);
        let prompt_schema = linked.project(schema, 4, 8);
        let mut rng = StdRng::seed_from_u64(SEED ^ q.len() as u64 ^ total as u64);
        let candidates = generator.generate(
            q,
            &prompt_schema,
            &values,
            GenConfig { n_samples: 5, temperature: 0.7, skeleton_temperature: None },
            &mut rng,
        );
        let sql = calibrate(&candidates, schema, &calib)
            .unwrap_or_else(|| candidates.first().cloned().unwrap_or_default());
        if sqlengine::execution_accuracy(ds.db(DbId::Macro), &sql, &e.sql) {
            correct += 1;
        }
        total += 1;
    }
    correct as f64 / total.max(1) as f64
}
