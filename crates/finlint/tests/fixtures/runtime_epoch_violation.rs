//! Fixture: a DbRuntime copy carrying one data-state field
//! (`tick_buffer`) that is neither mixed into `config_fingerprint` nor
//! allowlisted — the exact shape of the bug that lets a cache entry
//! outlive the data it was computed against.
//! Not compiled — parsed by `tests/fixtures.rs`.
pub struct DbRuntime {
    pub db: DbId,
    pub schema: CatalogSchema,
    pub views: SchemaViews,
    pub values: ValueIndex,
    pub plugin: Arc<LoraPlugin>,
    pub matrix: PrototypeMatrix,
    pub link_matrix: SchemaFeatureMatrix,
    pub tick_buffer: Vec<Row>,
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
