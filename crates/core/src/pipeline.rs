//! The end-to-end FinSQL system (paper Figure 1, inference path):
//! schema linking → concise prompt → LLM sampling → output calibration.

use crate::cache::{Answerer, ConfigFingerprint, FingerprintBuilder};
use crate::calibrate::CalibrationConfig;
use crate::metrics::EvalMetrics;
use crate::peft::train_database_plugin;
use augment::AugmentationFlags;
use bull::{BullDataset, DbId, Lang, Split};
use crossenc::{CrossEncoder, LinkExample, SchemaFeatureMatrix, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simllm::{
    BaseModelProfile, EmbeddingModel, LoraPlugin, PluginHub, PrototypeMatrix, TrainOpts,
    ValueIndex,
};
use sqlengine::{DataEpoch, Database};
use sqlkit::catalog::CatalogSchema;
use std::sync::Arc;

/// Build-time configuration for a [`FinSql`] system.
#[derive(Debug, Clone, Copy)]
pub struct FinSqlConfig {
    pub lang: Lang,
    /// Augmentation flags for plugin training (Table 8 knobs).
    pub augmentation: AugmentationFlags,
    /// Calibration steps at inference (Table 9 knobs).
    pub calibration: CalibrationConfig,
    /// Tables kept by schema linking.
    pub k_tables: usize,
    /// Columns kept per table.
    pub k_columns: usize,
    /// Candidates sampled for self-consistency.
    pub n_candidates: usize,
    /// Sampling temperature.
    pub temperature: f64,
    pub seed: u64,
}

impl FinSqlConfig {
    /// The defaults used for the headline Tables 4/5 rows.
    pub fn standard(lang: Lang) -> Self {
        FinSqlConfig {
            lang,
            augmentation: AugmentationFlags::default(),
            calibration: CalibrationConfig::default(),
            k_tables: 4,
            k_columns: 8,
            n_candidates: 5,
            temperature: 0.7,
            seed: 0xF1A5,
        }
    }
}

/// Per-database inference artifacts.
pub struct DbRuntime {
    pub db: DbId,
    pub schema: CatalogSchema,
    pub views: crossenc::model::SchemaViews,
    pub values: ValueIndex,
    pub plugin: Arc<LoraPlugin>,
    /// The plugin's prototype centroids flattened into one contiguous
    /// scoring matrix, built once here so every generator borrows it
    /// instead of re-reading scattered centroid vectors per question.
    pub matrix: PrototypeMatrix,
    /// The linker's precomputed schema feature matrix — every table and
    /// column's pair-feature buckets hashed once here, so a micro-batch
    /// links all its questions in one [`CrossEncoder::link_batch`]
    /// sweep instead of re-hashing the schema per question.
    pub link_matrix: SchemaFeatureMatrix,
    /// The data epoch of the database this runtime's data-derived
    /// artifacts were built from (see [`sqlengine::DataEpoch`]). Mixed
    /// into the config fingerprint, so every cache key is stamped with
    /// the data state it was computed against — a live append bumps the
    /// database's epoch, [`FinSql::absorb_appends`] advances this field,
    /// and every pre-append cache entry becomes structurally
    /// unreachable. Of the runtime's derived artifacts only `values`
    /// depends on row data; `schema`/`views`/`link_matrix` are pure
    /// functions of the (immutable) catalog and `matrix` of the
    /// plugin, so absorbing an append refreshes `values` and
    /// this epoch and nothing else.
    pub epoch: DataEpoch,
}

impl DbRuntime {
    fn new(
        ds: &BullDataset,
        db: DbId,
        lang: Lang,
        linker: &CrossEncoder,
        plugin: Arc<LoraPlugin>,
    ) -> Self {
        let matrix = PrototypeMatrix::build(&plugin.prototypes);
        let views = crossenc::model::SchemaViews::build(ds.db(db).catalog(), lang);
        let link_matrix = linker.schema_matrix(&views);
        DbRuntime {
            db,
            schema: ds.db(db).catalog().clone(),
            views,
            values: ValueIndex::build(ds.db(db)),
            plugin,
            matrix,
            link_matrix,
            epoch: ds.db(db).epoch(),
        }
    }
}

/// A fully-built FinSQL system for one register, covering all three
/// databases.
pub struct FinSql {
    pub config: FinSqlConfig,
    pub profile: &'static BaseModelProfile,
    pub base: EmbeddingModel,
    pub linker: CrossEncoder,
    pub hub: PluginHub,
    /// One runtime per database, stored dense at [`DbId::index`] so the
    /// hot-path lookup is a bounds-free array index, not a scan.
    runtimes: [DbRuntime; 3],
}

/// Collects exactly one runtime per database, in [`DbId::ALL`] order,
/// into the dense array [`FinSql::runtime`] indexes into.
fn into_runtime_array(runtimes: Vec<DbRuntime>) -> [DbRuntime; 3] {
    debug_assert!(runtimes.iter().zip(DbId::ALL).all(|(r, db)| r.db == db));
    match runtimes.try_into() {
        Ok(arr) => arr,
        // INVARIANT: callers build `runtimes` by mapping over DbId::ALL
        // (length 3, checked by the debug_assert above).
        Err(_) => unreachable!("one runtime is built per database"),
    }
}

impl FinSql {
    /// Trains the full system on the dataset's training splits: the
    /// Cross-Encoder linker jointly over the three databases, and one
    /// LoRA plugin per database on the augmented mix.
    ///
    /// The linker and the three plugins are independent training jobs
    /// with their own seeds, so they run concurrently on scoped worker
    /// threads; the result is identical to [`FinSql::build_serial`].
    pub fn build(
        ds: &BullDataset,
        profile: &'static BaseModelProfile,
        config: FinSqlConfig,
    ) -> Self {
        let base = EmbeddingModel::pretrained(config.seed);
        let hub = PluginHub::new();
        let (linker, plugins) = crossbeam::scope(|scope| {
            let linker_job =
                scope.spawn(|_| train_linker(ds, config.lang, &DbId::ALL, config.seed));
            let plugin_jobs: Vec<_> = DbId::ALL
                .into_iter()
                .map(|db| {
                    let (base, hub) = (&base, &hub);
                    scope.spawn(move |_| {
                        train_database_plugin(
                            base,
                            hub,
                            ds,
                            db,
                            config.lang,
                            config.augmentation,
                            TrainOpts { seed: config.seed ^ db as u64, ..Default::default() },
                        )
                    })
                })
                .collect();
            let plugins: Vec<Arc<LoraPlugin>> = plugin_jobs
                .into_iter()
                // INVARIANT: a panic in a training job invalidates the
                // whole build; join re-raises it on this thread.
                .map(|j| j.join().expect("plugin training panicked"))
                .collect();
            // INVARIANT: as above — re-raise a linker-training panic.
            (linker_job.join().expect("linker training panicked"), plugins)
        })
        // INVARIANT: scope() only errs when a job panicked, which the
        // joins above already re-raise; this expect cannot fire first.
        .expect("training thread panicked");
        let runtimes = DbId::ALL
            .into_iter()
            .zip(plugins)
            .map(|(db, plugin)| DbRuntime::new(ds, db, config.lang, &linker, plugin))
            .collect();
        FinSql { config, profile, base, linker, hub, runtimes: into_runtime_array(runtimes) }
    }

    /// [`FinSql::build`] without the training-job concurrency — the
    /// reference path the parallel build is checked against.
    pub fn build_serial(
        ds: &BullDataset,
        profile: &'static BaseModelProfile,
        config: FinSqlConfig,
    ) -> Self {
        let base = EmbeddingModel::pretrained(config.seed);
        let linker = train_linker(ds, config.lang, &DbId::ALL, config.seed);
        let hub = PluginHub::new();
        let mut runtimes = Vec::new();
        for db in DbId::ALL {
            let plugin = train_database_plugin(
                &base,
                &hub,
                ds,
                db,
                config.lang,
                config.augmentation,
                TrainOpts { seed: config.seed ^ db as u64, ..Default::default() },
            );
            runtimes.push(DbRuntime::new(ds, db, config.lang, &linker, plugin));
        }
        FinSql { config, profile, base, linker, hub, runtimes: into_runtime_array(runtimes) }
    }

    /// The runtime artifacts of one database: an O(1) indexed lookup
    /// (runtimes are stored dense at [`DbId::index`], so no scan and no
    /// failure path).
    pub fn runtime(&self, db: DbId) -> &DbRuntime {
        &self.runtimes[db.index()]
    }

    /// Replaces a database's plugin (used by the few-shot experiments)
    /// and rebuilds its prototype scoring matrix to match.
    pub fn set_plugin(&mut self, db: DbId, plugin: Arc<LoraPlugin>) {
        let r = &mut self.runtimes[db.index()];
        r.matrix = PrototypeMatrix::build(&plugin.prototypes);
        r.plugin = plugin;
    }

    /// Catches one runtime up with its database after live appends, by
    /// absorbing the change-log tail this runtime has not yet seen:
    /// every unseen [`sqlengine::ChangeRecord`]'s rows go to
    /// [`ValueIndex::absorb_batch`], which lowercases and sorts only the
    /// values new to the index and merges them in, without re-deriving
    /// the old entries. The result is structurally equal (`==`) to a
    /// from-scratch rebuild — [`FinSql::rebuild_data`] is the reference,
    /// and the live-equality suite and `evaluate_ex_live` assert the
    /// equality. The runtime's epoch advances to the database's.
    /// The epoch move shifts [`FinSql::config_fingerprint`], so every
    /// cache entry minted before the append is unreachable afterwards.
    ///
    /// Returns `true` when anything was absorbed. Panics are impossible
    /// on records produced by `Database::apply_changes` (table names are
    /// canonical); an unknown table in a foreign log is skipped.
    pub fn absorb_appends(&mut self, db: DbId, database: &Database) -> bool {
        let rt = &mut self.runtimes[db.index()];
        let tail = database.change_log().since(rt.epoch.0);
        if tail.is_empty() && rt.epoch == database.epoch() {
            return false;
        }
        let schema = &rt.schema;
        rt.values.absorb_batch(tail.iter().filter_map(|record| {
            schema.table(&record.table).map(|def| (def, record.rows.as_slice()))
        }));
        rt.epoch = database.epoch();
        true
    }

    /// The from-scratch counterpart of [`FinSql::absorb_appends`]:
    /// rebuilds the runtime's data-derived artifacts wholesale from the
    /// database's current rows and adopts its epoch. Used as the
    /// reference in the differential live-equality suite, and as the
    /// catch-up path when a consumer's runtime is behind by an entire
    /// snapshot rather than a log tail.
    pub fn rebuild_data(&mut self, db: DbId, database: &Database) {
        let rt = &mut self.runtimes[db.index()];
        rt.values = ValueIndex::build(database);
        rt.epoch = database.epoch();
    }

    /// Answers a question against one database: the paper's full
    /// inference path, run as a batch of one through
    /// [`FinSql::answer_batch_with_metrics`].
    pub fn answer(&self, db: DbId, question: &str) -> String {
        self.answer_fresh(db, question, None)
    }

    /// A deterministic per-question RNG (seeded from the system seed, the
    /// database, and the question), so evaluation order does not matter
    /// and the same phrasing hitting two databases draws independently.
    pub fn question_rng(&self, db: DbId, question: &str) -> StdRng {
        question_rng(self.config.seed, db, question)
    }

    /// Links one database's dev examples in a single matrix sweep and
    /// records, for each example with gold linking labels, whether every
    /// gold table (and every gold column within its own table) survived
    /// into the top-k projection the prompt would see — the linking
    /// recall@k the evaluation report prints. Only recall counters are
    /// recorded; link timers are left untouched so an instrumentation
    /// pass cannot distort the stage breakdown of the run it reports on.
    pub fn record_link_recall(
        &self,
        db: DbId,
        examples: &[&bull::BullExample],
        metrics: &EvalMetrics,
    ) {
        let rt = self.runtime(db);
        let questions: Vec<&str> =
            examples.iter().map(|e| e.question(self.config.lang)).collect();
        let linked_all = self.linker.link_batch(&questions, &rt.link_matrix);
        for (e, linked) in examples.iter().zip(&linked_all) {
            if e.gold_tables.is_empty() && e.gold_columns.is_empty() {
                continue;
            }
            let tables_ok = linked.covers_tables(&rt.schema, &e.gold_tables, self.config.k_tables);
            let columns_ok =
                linked.covers_columns(&rt.schema, &e.gold_columns, self.config.k_columns);
            metrics.record_link_recall(tables_ok, columns_ok);
        }
    }

    /// An [`crate::cache::AnswerCache`] holding at most `capacity`
    /// entries (0 = unbounded) — the constructor the harnesses use.
    pub fn new_cache(&self, capacity: usize) -> crate::cache::AnswerCache {
        crate::cache::AnswerCache::with_capacity(capacity)
    }

    /// Hashes every configuration knob that can change an answer into one
    /// [`ConfigFingerprint`]: the full [`FinSqlConfig`], the base-model
    /// profile, and per database the identity of the loaded plugin plus
    /// the data epoch the runtime serves at. Two systems with equal
    /// fingerprints answer identically, so the fingerprint keys the
    /// [`crate::cache::AnswerCache`] — and because the epoch is in the
    /// key, a cache entry can never outlive the data state it was
    /// computed against: bumping any database's epoch moves every key.
    pub fn config_fingerprint(&self) -> ConfigFingerprint {
        let mut b = fingerprint_config(FingerprintBuilder::new("finsql"), &self.config);
        b = fingerprint_profile(b, self.profile);
        for rt in &self.runtimes {
            b = fingerprint_runtime(
                b,
                rt.db,
                &rt.plugin.name,
                rt.plugin.n_examples,
                rt.plugin.prototypes.len(),
                rt.plugin.cot_trained,
                rt.epoch,
            );
        }
        b.finish()
    }
}

/// Folds one database runtime's answer-affecting identity into a
/// fingerprint chain: which database, which plugin (by name, training
/// size, prototype count and CoT flag), and the [`DataEpoch`] its data
/// artifacts were built at. Split out of [`FinSql::config_fingerprint`]
/// so the epoch axis is property-testable without a trained system —
/// `crates/core/tests/fingerprint_prop.rs` proves a bump of any
/// runtime's epoch always moves the final fingerprint.
#[allow(clippy::too_many_arguments)]
pub fn fingerprint_runtime(
    b: FingerprintBuilder,
    db: DbId,
    plugin_name: &str,
    n_examples: usize,
    n_prototypes: usize,
    cot_trained: bool,
    epoch: DataEpoch,
) -> FingerprintBuilder {
    b.push_str(db.as_str())
        .push_str(plugin_name)
        .push_usize(n_examples)
        .push_usize(n_prototypes)
        .push_bool(cot_trained)
        .push_u64(epoch.0)
}

impl Answerer for FinSql {
    fn fingerprint(&self) -> ConfigFingerprint {
        self.config_fingerprint()
    }

    fn answer_fresh(&self, db: DbId, question: &str, metrics: Option<&EvalMetrics>) -> String {
        // INVARIANT: answer_batch_with_metrics returns one answer per
        // question, so a batch of one yields exactly one.
        self.answer_batch_with_metrics(db, &[question], metrics).pop().expect("one answer")
    }
}

/// The deterministic per-question seed stream every answering system
/// shares: FNV over the question bytes on top of the system seed mixed
/// with the database id, exactly [`FinSql::question_rng`]'s derivation.
pub fn question_rng(seed: u64, db: DbId, question: &str) -> StdRng {
    let mut h = seed ^ (db as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for b in question.as_bytes() {
        h = h.wrapping_mul(0x100000001B3).wrapping_add(u64::from(*b));
    }
    StdRng::seed_from_u64(h)
}

/// Pushes every [`FinSqlConfig`] knob into a fingerprint, each in its own
/// fixed-width slot so any single mutation changes the result.
pub fn fingerprint_config(b: FingerprintBuilder, config: &FinSqlConfig) -> FingerprintBuilder {
    b.push_str(config.lang.suffix())
        .push_bool(config.augmentation.cot)
        .push_bool(config.augmentation.synonyms)
        .push_bool(config.augmentation.skeleton)
        .push_usize(config.augmentation.synonyms_per_question)
        .push_u64(config.augmentation.seed)
        .push_bool(config.calibration.repair)
        .push_bool(config.calibration.self_consistency)
        .push_bool(config.calibration.alignment)
        .push_usize(config.k_tables)
        .push_usize(config.k_columns)
        .push_usize(config.n_candidates)
        .push_f64(config.temperature)
        .push_u64(config.seed)
}

/// Pushes a base-model profile's behavioural knobs into a fingerprint.
pub fn fingerprint_profile(
    b: FingerprintBuilder,
    profile: &BaseModelProfile,
) -> FingerprintBuilder {
    b.push_str(profile.name)
        .push_f64(profile.slot_skill)
        .push_f64(profile.join_skill)
        .push_f64(profile.skel_slip)
        .push_f64(profile.noise.typo)
        .push_f64(profile.noise.double_eq)
        .push_f64(profile.noise.drop_on)
        .push_f64(profile.noise.misalign)
        .push_f64(profile.noise.value)
}

/// Trains the Cross-Encoder on the training splits of the given
/// databases (jointly, as the paper does for the few-shot study).
pub fn train_linker(ds: &BullDataset, lang: Lang, dbs: &[DbId], seed: u64) -> CrossEncoder {
    let schemas: Vec<&CatalogSchema> = dbs.iter().map(|&db| ds.db(db).catalog()).collect();
    let mut examples = Vec::new();
    for (si, &db) in dbs.iter().enumerate() {
        for e in ds.examples_for(db, Split::Train) {
            examples.push(LinkExample {
                question: e.question(lang).to_string(),
                gold_tables: e.gold_tables.clone(),
                gold_columns: e.gold_columns.clone(),
                schema_idx: si,
            });
        }
    }
    crossenc::train::train(lang, &schemas, &examples, TrainConfig { seed, ..Default::default() })
}

/// Convenience: the training pairs + linker examples used by baselines.
pub fn dev_pairs(ds: &BullDataset, db: DbId, lang: Lang) -> Vec<(String, String)> {
    ds.examples_for(db, Split::Dev)
        .into_iter()
        .map(|e| (e.question(lang).to_string(), e.sql.clone()))
        .collect()
}
