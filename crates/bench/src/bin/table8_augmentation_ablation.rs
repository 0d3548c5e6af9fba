//! Regenerates the paper's Table 8: the hybrid data augmentation
//! ablation. As in the paper, output calibration is disabled here to
//! isolate the augmentation effect.

use augment::AugmentationFlags;
use bench::{dataset, finsql_ex, headline_profile, HarnessOpts};
use bull::Lang;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use finsql_core::CalibrationConfig;

fn main() {
    let ds = dataset();
    let full = AugmentationFlags::default();
    let rows: [(&str, AugmentationFlags); 5] = [
        ("Hybrid Data Augmentation", full),
        ("w/o CoT Data", AugmentationFlags { cot: false, ..full }),
        ("w/o Synonyms Data", AugmentationFlags { synonyms: false, ..full }),
        ("w/o Skeleton Data", AugmentationFlags { skeleton: false, ..full }),
        ("w/o Augmented Data", AugmentationFlags::none()),
    ];
    println!("Table 8: Effect of data augmentation (no output calibration)");
    println!("{:<28} {:>13} {:>13}", "Technique", "EX (English)", "EX (Chinese)");
    let mut results: Vec<(&str, f64, f64)> = Vec::new();
    for (label, flags) in rows {
        let mut ex = [0.0f64; 2];
        for (i, lang) in [Lang::En, Lang::Cn].into_iter().enumerate() {
            let config = FinSqlConfig {
                augmentation: flags,
                calibration: CalibrationConfig::off(),
                n_candidates: 1,
                ..FinSqlConfig::standard(lang)
            };
            let system = FinSql::build(&ds, headline_profile(lang), config);
            ex[i] = finsql_ex(&system, &ds, HarnessOpts::default(), None, None).ex_pct();
        }
        results.push((label, ex[0], ex[1]));
    }
    let (base_en, base_cn) = (results[0].1, results[0].2);
    for (i, (label, en, cn)) in results.iter().enumerate() {
        if i == 0 {
            println!("{label:<28} {en:>13.1} {cn:>13.1}");
        } else {
            println!(
                "{label:<28} {:>13} {:>13}",
                format!("{:.1} ({:+.1})", en, en - base_en),
                format!("{:.1} ({:+.1})", cn, cn - base_cn)
            );
        }
    }
}
