//! Fixture: every FinSqlConfig field fingerprinted except `log_level`,
//! which the fixture test allowlists. Not compiled — parsed by
//! `tests/fixtures.rs`.
pub struct FinSqlConfig {
    pub k_tables: usize,
    pub seed: u64,
    pub log_level: u8,
}

pub fn fingerprint_config(b: FingerprintBuilder, config: &FinSqlConfig) -> FingerprintBuilder {
    b.push_usize(config.k_tables).push_u64(config.seed)
}
