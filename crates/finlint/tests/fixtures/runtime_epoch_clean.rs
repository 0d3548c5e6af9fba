//! Fixture: a DbRuntime copy whose fields are all either mixed into
//! `config_fingerprint` (db, plugin identity, epoch) or allowlisted
//! pure-derived artifacts (RUNTIME_NOT_FINGERPRINTED).
//! Not compiled — parsed by `tests/fixtures.rs`.
pub struct DbRuntime {
    pub db: DbId,
    pub schema: CatalogSchema,
    pub views: SchemaViews,
    pub values: ValueIndex,
    pub plugin: Arc<LoraPlugin>,
    pub matrix: PrototypeMatrix,
    pub link_matrix: SchemaFeatureMatrix,
    pub epoch: DataEpoch,
}

pub fn config_fingerprint(b: FingerprintBuilder, runtimes: &[DbRuntime]) -> FingerprintBuilder {
    let mut b = b;
    for rt in runtimes {
        b = b
            .push_str(rt.db.as_str())
            .push_str(&rt.plugin.name)
            .push_u64(rt.epoch.0);
    }
    b
}
