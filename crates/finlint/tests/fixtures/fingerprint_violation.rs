//! Fixture: a FinSqlConfig copy with one field (`synthetic_knob`) that
//! is neither fingerprinted nor allowlisted, beside the allowlisted
//! `log_level`. Not compiled — parsed by `tests/fixtures.rs`.
pub struct FinSqlConfig {
    pub k_tables: usize,
    pub synthetic_knob: usize,
    pub log_level: u8,
}

pub fn fingerprint_config(b: FingerprintBuilder, config: &FinSqlConfig) -> FingerprintBuilder {
    b.push_usize(config.k_tables)
}
