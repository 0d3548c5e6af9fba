//! CI smoke run for batched schema linking: for a slice of every
//! database's dev set, link each question per-question and through the
//! batched matrix sweep, and assert the two rankings are bitwise
//! identical — same element order, same f32 score bits. Also records
//! the linking recall@k counters over the slice and asserts the batched
//! sweep is not slower than the per-question serial path. Exits non-zero on any violation, so CI catches a feature
//! matrix that drifts from the per-question featuriser.

use bench::{dataset, headline_profile, HarnessOpts};
use bull::{DbId, Lang, Split};
use crossenc::LinkedSchema;
use finsql_core::metrics::EvalMetrics;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use std::time::Instant;

const PER_DB: usize = 60;

/// `(index, score-bits)` image of one ranking level — bitwise comparable.
type RankBits = Vec<(usize, u32)>;

fn bits(linked: &LinkedSchema) -> (RankBits, Vec<RankBits>) {
    let key = |v: &[(usize, f32)]| -> RankBits {
        v.iter().map(|(i, s)| (*i, s.to_bits())).collect()
    };
    (key(&linked.tables), linked.columns.iter().map(|c| key(c)).collect())
}

fn main() {
    let _opts = HarnessOpts::from_args();
    let ds = dataset();
    let system = FinSql::build(&ds, headline_profile(Lang::En), FinSqlConfig::standard(Lang::En));
    let metrics = EvalMetrics::new();

    let mut total = 0usize;
    let mut serial_wall = std::time::Duration::ZERO;
    let mut batched_wall = std::time::Duration::ZERO;
    for db in DbId::ALL {
        let rt = system.runtime(db);
        let dev = ds.examples_for(db, Split::Dev);
        let slice: Vec<&bull::BullExample> = dev.into_iter().take(PER_DB).collect();
        let questions: Vec<&str> = slice.iter().map(|e| e.question(Lang::En)).collect();
        total += questions.len();

        let start = Instant::now();
        let serial: Vec<LinkedSchema> =
            questions.iter().map(|q| system.linker.link(q, &rt.views)).collect();
        serial_wall += start.elapsed();
        let start = Instant::now();
        let batched = system.linker.link_batch(&questions, &rt.link_matrix);
        batched_wall += start.elapsed();

        assert_eq!(batched.len(), questions.len());
        for ((q, s), b) in questions.iter().zip(&serial).zip(&batched) {
            assert_eq!(bits(s), bits(b), "{db}: batched sweep diverged on {q:?}");
        }
        system.record_link_recall(db, &slice, &metrics);
        println!("{db}: {} questions bitwise-identical on both paths", questions.len());
    }

    let snap = metrics.snapshot();
    println!(
        "link recall over {} labelled examples: tables {:.1}%, columns {:.1}%",
        snap.link_examples,
        snap.link_table_recall() * 100.0,
        snap.link_column_recall() * 100.0
    );
    assert!(snap.link_examples > 0, "recall must be measured over labelled examples");
    assert!(
        snap.link_table_recall() > 0.5,
        "top-k table recall collapsed: {:.3}",
        snap.link_table_recall()
    );

    let qps = |wall: std::time::Duration| total as f64 / wall.as_secs_f64().max(1e-9);
    println!(
        "per-question serial: {:.0} links/sec; batched matrix sweep: {:.0} links/sec",
        qps(serial_wall),
        qps(batched_wall)
    );
    assert!(
        batched_wall <= serial_wall,
        "batched sweep ({batched_wall:.2?}) slower than per-question serial ({serial_wall:.2?})"
    );
    println!("smoke_link: OK");
}
