//! Regenerates the paper's Table 9: the output-calibration ablation.

use bench::{dataset, finsql_ex, headline_profile, HarnessOpts};
use bull::Lang;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use finsql_core::CalibrationConfig;

fn main() {
    let ds = dataset();
    let rows: [(&str, CalibrationConfig, usize); 4] = [
        ("FinSQL", CalibrationConfig::default(), 5),
        ("w/o Output Calibration", CalibrationConfig::off(), 5),
        (
            "w/o Self-Consistency",
            CalibrationConfig { self_consistency: false, ..Default::default() },
            5,
        ),
        ("w/o Alignment", CalibrationConfig { alignment: false, ..Default::default() }, 5),
    ];
    println!("Table 9: Effect of Output Calibration");
    println!("{:<26} {:>13} {:>13}", "Technique", "EX (Chinese)", "EX (English)");
    let mut results: Vec<(&str, f64, f64)> = Vec::new();
    for (label, calibration, n) in rows {
        let mut ex = [0.0f64; 2];
        for (i, lang) in [Lang::Cn, Lang::En].into_iter().enumerate() {
            let config = FinSqlConfig {
                calibration,
                n_candidates: n,
                ..FinSqlConfig::standard(lang)
            };
            let system = FinSql::build(&ds, headline_profile(lang), config);
            ex[i] = finsql_ex(&system, &ds, HarnessOpts::default(), None, None).ex_pct();
        }
        results.push((label, ex[0], ex[1]));
    }
    let (base_cn, base_en) = (results[0].1, results[0].2);
    for (i, (label, cn, en)) in results.iter().enumerate() {
        if i == 0 {
            println!("{label:<26} {cn:>13.1} {en:>13.1}");
        } else {
            println!(
                "{label:<26} {:>13} {:>13}",
                format!("{:.1} ({:+.1})", cn, cn - base_cn),
                format!("{:.1} ({:+.1})", en, en - base_en)
            );
        }
    }
}
