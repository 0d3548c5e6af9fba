//! Batched-linking equivalence: `CrossEncoder::link_batch` over the
//! precomputed [`SchemaFeatureMatrix`] must reproduce the per-question
//! `link` output *bitwise* — same element order and bit-identical f32
//! scores — for arbitrary question subsets, at every batch size, on
//! every database's trained linker.
//!
//! Bitwise equality (not approximate) is the property the whole serving
//! layer leans on: the ranking feeds the projection key that lets
//! questions share prompt schemas, and the answer cache assumes a
//! batched answer is *the* answer.

use bull::{DbId, Lang, Split};
use crossenc::LinkedSchema;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use proptest::prelude::*;
use simllm::profiles::LLAMA2_13B;
use std::sync::OnceLock;

fn dataset() -> &'static bull::BullDataset {
    static DS: OnceLock<bull::BullDataset> = OnceLock::new();
    DS.get_or_init(|| bull::build(bull::DEFAULT_SEED))
}

fn system() -> &'static FinSql {
    static SYS: OnceLock<FinSql> = OnceLock::new();
    SYS.get_or_init(|| FinSql::build(dataset(), &LLAMA2_13B, FinSqlConfig::standard(Lang::En)))
}

/// Asserts two linked schemas are bitwise equal: identical index order
/// and identical f32 score bits at every rank.
fn assert_bitwise_eq(a: &LinkedSchema, b: &LinkedSchema, q: &str) {
    let key = |v: &[(usize, f32)]| -> Vec<(usize, u32)> {
        v.iter().map(|(i, s)| (*i, s.to_bits())).collect()
    };
    assert_eq!(key(&a.tables), key(&b.tables), "table ranking diverged on {q:?}");
    assert_eq!(a.columns.len(), b.columns.len());
    for (ca, cb) in a.columns.iter().zip(&b.columns) {
        assert_eq!(key(ca), key(cb), "column ranking diverged on {q:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `link_batch` equals per-question `link` bitwise, on arbitrary
    /// question subsets (duplicates included) of every database.
    #[test]
    fn link_batch_matches_link_bitwise(
        indices in proptest::collection::vec(0usize..200, 1..16),
        db_pick in 0usize..3,
    ) {
        let db = DbId::ALL[db_pick];
        let sys = system();
        let rt = sys.runtime(db);
        let dev = dataset().examples_for(db, Split::Dev);
        let questions: Vec<&str> =
            indices.iter().map(|i| dev[i % dev.len()].question(Lang::En)).collect();
        let batched = sys.linker.link_batch(&questions, &rt.link_matrix);
        prop_assert_eq!(batched.len(), questions.len());
        for (q, got) in questions.iter().zip(&batched) {
            assert_bitwise_eq(got, &sys.linker.link(q, &rt.views), q);
        }
    }

    /// Batch shape is invisible: chunking the same question list at any
    /// size produces the same linked schemas as one whole-list sweep.
    #[test]
    fn link_batch_is_invariant_to_batch_size(chunk in 1usize..20) {
        let db = DbId::Fund;
        let sys = system();
        let rt = sys.runtime(db);
        let dev = dataset().examples_for(db, Split::Dev);
        let questions: Vec<&str> = dev.iter().take(24).map(|e| e.question(Lang::En)).collect();
        let whole = sys.linker.link_batch(&questions, &rt.link_matrix);
        let mut chunked = Vec::with_capacity(questions.len());
        for c in questions.chunks(chunk) {
            chunked.extend(sys.linker.link_batch(c, &rt.link_matrix));
        }
        prop_assert_eq!(whole.len(), chunked.len());
        for ((q, a), b) in questions.iter().zip(&whole).zip(&chunked) {
            assert_bitwise_eq(a, b, q);
        }
    }
}

/// The runtime's cached matrix is interchangeable with a freshly-built
/// one — building is deterministic, so caching it in [`DbRuntime`] can
/// never drift from the views it was built over.
#[test]
fn cached_matrix_equals_freshly_built_matrix() {
    let sys = system();
    for db in DbId::ALL {
        let rt = sys.runtime(db);
        let fresh = sys.linker.schema_matrix(&rt.views);
        let dev = dataset().examples_for(db, Split::Dev);
        let questions: Vec<&str> = dev.iter().take(16).map(|e| e.question(Lang::En)).collect();
        let via_cached = sys.linker.link_batch(&questions, &rt.link_matrix);
        let via_fresh = sys.linker.link_batch(&questions, &fresh);
        for ((q, a), b) in questions.iter().zip(&via_cached).zip(&via_fresh) {
            assert_bitwise_eq(a, b, q);
        }
    }
}
