//! Property and differential tests for the segmented-LRU + TinyLFU
//! cache policy (crates/core/src/cache.rs, crates/core/src/tinylfu.rs).
//!
//! The claims under test:
//!
//! 1. **Segment bounds**: under any workload the protected segment never
//!    exceeds its per-shard cap, and total residency never exceeds the
//!    shard-rounded capacity.
//! 2. **Sketch order preservation**: halving the frequency sketch keeps
//!    the relative order of any two keys' estimates (ties may form, but
//!    never invert).
//! 3. **Admission determinism**: rebuilding a cache and replaying the
//!    same operation sequence 20 times lands on identical statistics and
//!    identical residency probes — the admission duel has no hidden
//!    state beyond the replayed operations.
//! 4. **One-shot flood (adversarial)**: a hot key followed by a flood of
//!    cold one-shot keys survives, and the flood is provably turned away
//!    at the hot key's own shard — the scan-resistance the admission
//!    filter exists for.
//! 5. **Residency, never bytes (differential)**: every answer served by a
//!    real trained system through a tightly capped cache and with no
//!    cache at all is byte-identical — eviction and admission decide
//!    residency, never bytes.

use bull::{DbId, Lang, Split};
use finsql_core::cache::{AnswerCache, Answerer, ConfigFingerprint};
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use finsql_core::tinylfu::FrequencySketch;
use proptest::prelude::*;
use std::sync::OnceLock;

const FP: ConfigFingerprint = ConfigFingerprint(0x5EED);

/// One replayable cache operation over a small key universe.
#[derive(Debug, Clone, Copy)]
enum Op {
    Get(u8),
    Insert(u8),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![(0u8..60).prop_map(Op::Get), (0u8..60).prop_map(Op::Insert)],
        1..200,
    )
}

fn apply(cache: &AnswerCache, op: Op) {
    let key = |k: u8| format!("question {k}");
    match op {
        Op::Get(k) => {
            cache.get(DbId::Fund, &key(k), FP);
        }
        Op::Insert(k) => {
            cache.insert(DbId::Fund, &key(k), FP, format!("SELECT {k}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Claim 1: per-segment capacity bounds hold under arbitrary
    /// get/insert interleavings.
    #[test]
    fn segment_bounds_hold_under_arbitrary_workloads(
        cap in 1usize..64,
        ops in ops(),
    ) {
        let cache = AnswerCache::with_capacity(cap);
        let shard_cap = cache.shard_cap().expect("capped cache has a shard cap");
        for op in ops {
            apply(&cache, op);
            let stats = cache.stats();
            let shards = AnswerCache::shard_count();
            prop_assert!(
                stats.entries <= shard_cap * shards,
                "{} entries over the {}-shard bound {}",
                stats.entries, shards, shard_cap * shards
            );
            prop_assert!(
                stats.protected_entries
                    <= AnswerCache::protected_shard_cap(shard_cap) * shards,
                "protected segment over its bound: {} > {} per shard x {}",
                stats.protected_entries,
                AnswerCache::protected_shard_cap(shard_cap),
                shards
            );
            prop_assert!(stats.protected_entries <= stats.entries);
        }
    }

    /// Claim 2: halving preserves the relative order of estimates. A
    /// strictly-more-frequent key must never estimate *below* a less
    /// frequent one after any number of halvings (ties are allowed —
    /// 4-bit counters saturate and halving truncates).
    #[test]
    fn sketch_halving_preserves_relative_frequency_order(
        hot in any::<u64>(),
        gap in 1u64..u64::MAX,
        hot_n in 2u32..14,
        cold_frac in 0u32..2,
        halvings in 1usize..4,
    ) {
        let cold = hot.wrapping_add(gap); // distinct from hot by construction
        let mut sketch = FrequencySketch::new(256);
        let cold_n = hot_n * cold_frac / 2;
        for _ in 0..hot_n {
            sketch.record(hot);
        }
        for _ in 0..cold_n {
            sketch.record(cold);
        }
        // Count-min collisions can already tie the two estimates; the
        // claim is only about runs where an order exists beforehand.
        if sketch.estimate(hot) > sketch.estimate(cold) {
            for _ in 0..halvings {
                sketch.halve();
                prop_assert!(
                    sketch.estimate(hot) >= sketch.estimate(cold),
                    "halving inverted the order: hot {} < cold {}",
                    sketch.estimate(hot),
                    sketch.estimate(cold)
                );
            }
        }
    }

    /// Claim 3: admission is deterministic — 20 rebuilds replaying the
    /// same operation sequence produce identical counters and identical
    /// residency probes for every key in the universe.
    #[test]
    fn admission_is_deterministic_across_rebuilds(
        cap in 1usize..48,
        ops in ops(),
    ) {
        let run = || {
            let cache = AnswerCache::with_capacity(cap);
            for &op in &ops {
                apply(&cache, op);
            }
            let stats = cache.stats();
            let resident: Vec<bool> = (0u8..60)
                .map(|k| {
                    // len() probes residency without touching the
                    // stats/sketch the way get() would; compare via a
                    // second insert's outcome instead: a resident key
                    // refreshes (admitted, evicted 0).
                    cache
                        .insert(DbId::Fund, &format!("question {k}"), FP, format!("SELECT {k}"))
                        .admitted
                })
                .collect();
            (
                stats.hits,
                stats.misses,
                stats.inserts,
                stats.evictions,
                stats.admission_rejected,
                stats.promotions,
                stats.demotions,
                stats.entries,
                stats.protected_entries,
                resident,
            )
        };
        let first = run();
        for rebuild in 1..20 {
            let again = run();
            prop_assert_eq!(&again, &first, "rebuild {} diverged", rebuild);
        }
    }
}

/// Whether `question` routes to the same shard as `anchor`. In a fresh
/// cache of one entry per shard that holds only `anchor` (never looked
/// up, so at frequency 0), an insert of `question` at frequency 0 is
/// turned away exactly when it lands in `anchor`'s full shard, and
/// admitted into an empty one.
fn shares_shard_with(anchor: &str, question: &str) -> bool {
    let probe = AnswerCache::with_capacity(AnswerCache::shard_count());
    probe.insert(DbId::Fund, anchor, FP, "");
    !probe.insert(DbId::Fund, question, FP, "").admitted
}

/// Claim 4, pinned rather than sampled: the adversarial one-shot flood.
/// A key heated by repeated gets survives a flood of cold one-shot
/// inserts (the flood keys lose the admission duel), and at least one
/// flood key is turned away in the hot key's own shard, so its survival
/// is not an accident of the hash layout.
#[test]
fn one_shot_flood_keeps_the_hot_key() {
    let hot = "hot question";
    let hot_answer = "SELECT hot";
    // Capacity 16 = 1 entry per shard: the hot key's own shard can hold
    // exactly one entry, so any admitted flood key that routes there
    // must displace it.
    let cache = AnswerCache::with_capacity(16);
    cache.insert(DbId::Fund, hot, FP, hot_answer);
    for _ in 0..6 {
        assert!(cache.get(DbId::Fund, hot, FP).is_some(), "hot key warm-up must hit");
    }
    // 64 cold keys: ~4 per shard in expectation, so the hot shard sees
    // several flood candidates whatever the hash layout.
    let mut turned_away_at_hot_shard = 0;
    for k in 0..64 {
        let q = format!("one shot flood {k}");
        cache.get(DbId::Fund, &q, FP);
        let outcome = cache.insert(DbId::Fund, &q, FP, format!("SELECT {k}"));
        if !outcome.admitted && shares_shard_with(hot, &q) {
            turned_away_at_hot_shard += 1;
        }
    }
    assert!(
        turned_away_at_hot_shard > 0,
        "no flood key reached the hot key's shard — the scenario no longer discriminates"
    );
    assert_eq!(
        cache.get(DbId::Fund, hot, FP).as_deref(),
        Some(hot_answer),
        "SLRU+TinyLFU lost the hot key to one-shot flood traffic — admission filtering failed"
    );
}

/// Claim 5: the differential over a real trained system. The same dev
/// slate served through a tightly capped cache (admission rejections
/// guaranteed by the cap) and fresh with no cache must be byte-identical
/// everywhere.
#[test]
fn capped_cache_serves_the_uncached_bytes() {
    static SYS: OnceLock<(bull::BullDataset, FinSql)> = OnceLock::new();
    let (ds, sys) = SYS.get_or_init(|| {
        let ds = bull::build(bull::DEFAULT_SEED);
        let sys = FinSql::build(&ds, &simllm::profiles::LLAMA2_13B, FinSqlConfig::standard(Lang::En));
        (ds, sys)
    });
    let slate: Vec<(DbId, &str)> = DbId::ALL
        .into_iter()
        .flat_map(|db| {
            ds.examples_for(db, Split::Dev)
                .into_iter()
                .take(20)
                .map(move |e| (db, e.question(Lang::En)))
        })
        .collect();
    let fresh: Vec<String> = slate.iter().map(|(db, q)| sys.answer_fresh(*db, q, None)).collect();
    // Cap well below the slate so eviction and admission rejection
    // actually fire mid-run.
    let cache = AnswerCache::with_capacity(16);
    for round in 0..3 {
        for ((db, q), want) in slate.iter().zip(&fresh) {
            let got = sys.answer_cached(&cache, *db, q, None);
            assert_eq!(&*got, want, "diverged from the uncached path (round {round}, {db}: {q})");
        }
    }
    let stats = cache.stats();
    assert!(stats.evictions > 0, "the cap must force evictions for this test");
    assert!(
        stats.admission_rejected > 0,
        "a 60-question slate vs a 16-entry cap must reject some candidates"
    );
}
