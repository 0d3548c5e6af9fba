//! Quick calibration probe: FinSQL EX per database and pooled, both
//! registers.

use bench::{dataset, headline_profile};
use bull::{DbId, Lang};
use finsql_core::eval::{evaluate_ex, EvalPlan};
use finsql_core::pipeline::{FinSql, FinSqlConfig};

fn main() {
    let ds = dataset();
    for lang in [Lang::En, Lang::Cn] {
        let system = FinSql::build(&ds, headline_profile(lang), FinSqlConfig::standard(lang));
        let outcome =
            evaluate_ex(&ds, lang, EvalPlan::default(), |db, qs| system.answer_batch(db, qs));
        for db in DbId::ALL {
            let out = outcome.outcome(db);
            println!("{lang:?} {db}: EX = {:.1}%  ({}/{})", out.ex_pct(), out.correct, out.total);
        }
        println!("{lang:?} pooled: {:.1}%", outcome.pooled().ex_pct());
    }
}
