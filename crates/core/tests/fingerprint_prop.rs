//! Property tests for the serving layer: the configuration fingerprint
//! that keys the answer cache, and the cache's own bookkeeping.
//!
//! The safety claim the cache rests on is that *no false hit is
//! possible*: any single configuration-knob mutation must change the
//! fingerprint, and the cache must never return an entry stored under a
//! different fingerprint, database, or question. These properties pin
//! that down over arbitrary configuration draws — no trained system
//! needed, the fingerprint is a pure function of the knobs.

use augment::AugmentationFlags;
use bull::{DbId, Lang};
use finsql_core::cache::{AnswerCache, FingerprintBuilder};
use finsql_core::pipeline::{fingerprint_config, fingerprint_profile, fingerprint_runtime};
use finsql_core::{CalibrationConfig, FinSqlConfig};
use proptest::prelude::*;
use simllm::noise::NoiseRates;
use simllm::BaseModelProfile;
use sqlengine::DataEpoch;

fn lang() -> impl Strategy<Value = Lang> {
    prop_oneof![Just(Lang::En), Just(Lang::Cn)]
}

fn config() -> impl Strategy<Value = FinSqlConfig> {
    (
        (lang(), any::<bool>(), any::<bool>(), any::<bool>(), 0usize..10, 0u64..1000),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        (1usize..10, 1usize..16, 1usize..9, 0.0f64..2.0, 0u64..(u64::MAX / 2)),
    )
        .prop_map(
            |(
                (lang, cot, synonyms, skeleton, synonyms_per_question, aug_seed),
                (repair, self_consistency, alignment),
                (k_tables, k_columns, n_candidates, temperature, seed),
            )| FinSqlConfig {
                lang,
                augmentation: AugmentationFlags {
                    cot,
                    synonyms,
                    skeleton,
                    synonyms_per_question,
                    seed: aug_seed,
                },
                calibration: CalibrationConfig { repair, self_consistency, alignment },
                k_tables,
                k_columns,
                n_candidates,
                temperature,
                seed,
            },
        )
}

fn fp(config: &FinSqlConfig) -> u64 {
    fingerprint_config(FingerprintBuilder::new("finsql"), config).finish().0
}

/// Every answer-affecting knob of [`FinSqlConfig`], mutable one at a
/// time. Keep in sync with `fingerprint_config` — a knob hashed there
/// must be mutated here, or the no-false-hit property has a blind spot.
const KNOBS: usize = 14;

fn mutate_knob(config: &FinSqlConfig, knob: usize) -> FinSqlConfig {
    let mut c = *config;
    match knob {
        0 => c.lang = if c.lang == Lang::En { Lang::Cn } else { Lang::En },
        1 => c.augmentation.cot = !c.augmentation.cot,
        2 => c.augmentation.synonyms = !c.augmentation.synonyms,
        3 => c.augmentation.skeleton = !c.augmentation.skeleton,
        4 => c.augmentation.synonyms_per_question += 1,
        5 => c.augmentation.seed += 1,
        6 => c.calibration.repair = !c.calibration.repair,
        7 => c.calibration.self_consistency = !c.calibration.self_consistency,
        8 => c.calibration.alignment = !c.calibration.alignment,
        9 => c.k_tables += 1,
        10 => c.k_columns += 1,
        11 => c.n_candidates += 1,
        12 => c.temperature += 0.125,
        13 => c.seed += 1,
        _ => unreachable!("knob index out of range"),
    }
    c
}

fn profile_fp(profile: &BaseModelProfile) -> u64 {
    fingerprint_profile(FingerprintBuilder::new("profile"), profile).finish().0
}

fn db_id() -> impl Strategy<Value = DbId> {
    prop_oneof![Just(DbId::Fund), Just(DbId::Stock), Just(DbId::Macro)]
}

/// The full three-runtime chain [`FinSql::config_fingerprint`] folds
/// after the config and profile slots, with the plugin identity slots
/// held fixed and only the per-database epochs varying.
fn chain_fp(epochs: [u64; 3]) -> u64 {
    let mut b = FingerprintBuilder::new("finsql");
    for (db, epoch) in DbId::ALL.into_iter().zip(epochs) {
        b = fingerprint_runtime(b, db, "plugin", 400, 24, true, DataEpoch(epoch));
    }
    b.finish().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The fingerprint is a pure function of the knobs.
    #[test]
    fn fingerprint_is_deterministic(c in config()) {
        prop_assert_eq!(fp(&c), fp(&c));
    }

    /// Any single knob mutation changes the fingerprint — the property
    /// that makes a stale-config cache hit structurally impossible.
    #[test]
    fn single_knob_mutation_changes_fingerprint(c in config(), knob in 0usize..KNOBS) {
        let mutated = mutate_knob(&c, knob);
        prop_assert!(
            fp(&c) != fp(&mutated),
            "knob {} mutated without changing the fingerprint",
            knob
        );
    }

    /// Mutating two *different* knobs cannot cancel out either: both
    /// mutants differ from the original and from each other.
    #[test]
    fn distinct_knob_mutations_stay_distinct(
        c in config(),
        a in 0usize..KNOBS,
        offset in 1usize..KNOBS,
    ) {
        let b = (a + offset) % KNOBS;
        let ma = mutate_knob(&c, a);
        let mb = mutate_knob(&c, b);
        prop_assert!(fp(&ma) != fp(&c));
        prop_assert!(fp(&mb) != fp(&c));
        prop_assert!(fp(&ma) != fp(&mb), "knobs {} and {} collided", a, b);
    }

    /// Every behavioural field of the base-model profile participates.
    #[test]
    fn profile_fields_all_feed_the_fingerprint(
        slot in 0.0f64..1.0,
        join in 0.0f64..1.0,
        slip in 0.0f64..1.0,
        field in 0usize..4,
    ) {
        let base = BaseModelProfile {
            name: "prop-model",
            slot_skill: slot,
            join_skill: join,
            skel_slip: slip,
            noise: NoiseRates { typo: 0.01, double_eq: 0.01, drop_on: 0.01, misalign: 0.01, value: 0.01 },
        };
        let mut mutated = base;
        match field {
            0 => mutated.slot_skill += 0.125,
            1 => mutated.join_skill += 0.125,
            2 => mutated.skel_slip += 0.125,
            3 => mutated.noise.typo += 0.125,
            _ => unreachable!(),
        }
        prop_assert!(profile_fp(&base) != profile_fp(&mutated));
        let renamed = BaseModelProfile { name: "prop-model-b", ..base };
        prop_assert!(profile_fp(&base) != profile_fp(&renamed));
    }

    /// The cache returns exactly what was stored under a key and never
    /// serves across fingerprints, databases, or questions.
    #[test]
    fn cache_never_crosses_keys(
        c in config(),
        knob in 0usize..KNOBS,
        question in "[a-z ]{1,24}",
        answer in "SELECT [a-z]{1,12}",
    ) {
        use finsql_core::ConfigFingerprint;
        let cache = AnswerCache::unbounded();
        let key = ConfigFingerprint(fp(&c));
        let other = ConfigFingerprint(fp(&mutate_knob(&c, knob)));
        cache.insert(DbId::Fund, &question, key, answer.clone());
        let got = cache.get(DbId::Fund, &question, key);
        prop_assert_eq!(got.as_deref(), Some(answer.as_str()));
        prop_assert_eq!(cache.get(DbId::Fund, &question, other), None);
        prop_assert_eq!(cache.get(DbId::Stock, &question, key), None);
        let longer = format!("{question}?");
        prop_assert_eq!(cache.get(DbId::Fund, &longer, key), None);
    }

    /// Bumping a runtime's [`DataEpoch`] always moves its fingerprint
    /// contribution, whatever the surrounding plugin identity — the
    /// data-state half of the no-stale-hit property.
    #[test]
    fn epoch_bump_always_moves_the_fingerprint(
        db in db_id(),
        name in "[a-z]{1,12}",
        n_examples in 0usize..512,
        n_prototypes in 0usize..64,
        cot in any::<bool>(),
        epoch in 0u64..(u64::MAX / 2),
        bump in 1u64..1_000,
    ) {
        let at = |e: u64| {
            fingerprint_runtime(
                FingerprintBuilder::new("rt"), db, &name, n_examples, n_prototypes, cot,
                DataEpoch(e),
            )
            .finish()
            .0
        };
        prop_assert_eq!(at(epoch), at(epoch), "epoch slot must be deterministic");
        prop_assert!(
            at(epoch) != at(epoch + bump),
            "epoch bump {} -> {} left the fingerprint unchanged",
            epoch,
            epoch + bump
        );
    }

    /// In the chained three-runtime fingerprint, bumping *any one*
    /// database's epoch moves the final digest — an append to one
    /// database invalidates every cached answer, including the other
    /// databases' (the cache key is the whole-system fingerprint).
    #[test]
    fn epoch_bump_in_any_runtime_moves_the_chained_fingerprint(
        es in (0u64..10_000, 0u64..10_000, 0u64..10_000),
        which in 0usize..3,
        bump in 1u64..100,
    ) {
        let epochs = [es.0, es.1, es.2];
        let mut bumped = epochs;
        bumped[which] += bump;
        prop_assert!(
            chain_fp(epochs) != chain_fp(bumped),
            "bumping runtime {}'s epoch did not move the chained fingerprint",
            which
        );
    }

    /// The cache mechanics of the same claim, counter-checked: an entry
    /// stored pre-bump is unreachable post-bump (a recorded miss, zero
    /// hits), while the pre-bump key itself still serves.
    #[test]
    fn no_pre_bump_cache_entry_is_served_post_bump(
        es in (0u64..10_000, 0u64..10_000, 0u64..10_000),
        which in 0usize..3,
        question in "[a-z ]{1,24}",
        answer in "SELECT [a-z]{1,12}",
    ) {
        use finsql_core::ConfigFingerprint;
        let epochs = [es.0, es.1, es.2];
        let mut bumped = epochs;
        bumped[which] += 1;
        let pre = ConfigFingerprint(chain_fp(epochs));
        let post = ConfigFingerprint(chain_fp(bumped));
        let cache = AnswerCache::unbounded();
        cache.insert(DbId::Fund, &question, pre, answer.clone());
        prop_assert_eq!(cache.get(DbId::Fund, &question, post), None);
        let stats = cache.stats();
        prop_assert_eq!(stats.hits, 0u64, "post-bump lookup must not hit the pre-bump entry");
        prop_assert_eq!(stats.misses, 1u64);
        let got = cache.get(DbId::Fund, &question, pre);
        prop_assert_eq!(got.as_deref(), Some(answer.as_str()));
        prop_assert_eq!(cache.stats().hits, 1u64, "the pre-bump key itself still serves");
    }

    /// Under any capacity cap and insertion sequence, residency
    /// never exceeds the cap's shard-rounded bound and the counters
    /// balance: entries == inserts - evictions (rejected candidates are
    /// counted separately, as `admission_rejected`, never as inserts).
    #[test]
    fn capped_cache_respects_capacity(
        cap in 1usize..40,
        keys in proptest::collection::vec("[a-z]{1,12}", 1..80),
    ) {
        use finsql_core::ConfigFingerprint;
        let cache = AnswerCache::with_capacity(cap);
        let mut rejected = 0u64;
        for k in &keys {
            let outcome = cache.insert(DbId::Macro, k, ConfigFingerprint(7), k.to_uppercase());
            if !outcome.admitted {
                rejected += 1;
            }
        }
        let stats = cache.stats();
        // Capacity is enforced per shard (cap/16 rounded up each).
        let bound = cap.div_ceil(16) * 16;
        prop_assert!(stats.entries <= bound, "{} entries over bound {}", stats.entries, bound);
        prop_assert_eq!(stats.entries as u64, stats.inserts - stats.evictions);
        // The outcome the caller saw matches the counter the stats report
        // (duplicate keys refresh in place: admitted, but not an insert).
        prop_assert_eq!(stats.admission_rejected, rejected);
        prop_assert!(stats.inserts + rejected <= keys.len() as u64);
        // Whatever is resident is correct.
        for k in &keys {
            if let Some(v) = cache.get(DbId::Macro, k, ConfigFingerprint(7)) {
                prop_assert_eq!(&*v, k.to_uppercase());
            }
        }
    }
}
