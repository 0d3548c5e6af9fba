//! Property tests over the execution engine: relational invariants that
//! must hold for any generated data.

use proptest::prelude::*;
use sqlengine::{run_sql, Database, Value};
use sqlkit::catalog::{CatalogColumn, CatalogSchema, CatalogTable, ColType, ForeignKey};

fn schema() -> CatalogSchema {
    CatalogSchema {
        db_id: "prop".into(),
        tables: vec![
            CatalogTable {
                name: "m".into(),
                desc_en: String::new(),
                desc_cn: String::new(),
                columns: vec![
                    CatalogColumn::new("id", ColType::Int, "", ""),
                    CatalogColumn::new("grp", ColType::Text, "", ""),
                    CatalogColumn::new("val", ColType::Float, "", ""),
                ],
            },
            CatalogTable {
                name: "f".into(),
                desc_en: String::new(),
                desc_cn: String::new(),
                columns: vec![
                    CatalogColumn::new("mid", ColType::Int, "", ""),
                    CatalogColumn::new("x", ColType::Float, "", ""),
                ],
            },
        ],
        foreign_keys: vec![ForeignKey {
            from_table: "f".into(),
            from_column: "mid".into(),
            to_table: "m".into(),
            to_column: "id".into(),
        }],
    }
}

fn database(
    masters: &[(i64, String, f64)],
    facts: &[(usize, f64)],
) -> Database {
    let masters: Vec<_> =
        masters.iter().map(|(id, grp, val)| (*id, grp.clone(), Some(*val))).collect();
    let facts: Vec<_> = facts.iter().map(|(mi, x)| (*mi, Some(*x))).collect();
    nullable_database(&masters, &facts)
}

/// [`database`] where `m.val` and `f.x` may be NULL (`None`).
fn nullable_database(
    masters: &[(i64, String, Option<f64>)],
    facts: &[(usize, Option<f64>)],
) -> Database {
    let float = |v: &Option<f64>| v.map_or(Value::Null, Value::Float);
    let mut db = Database::new(schema());
    for (id, grp, val) in masters {
        db.insert("m", vec![Value::Int(*id), Value::from(grp.clone()), float(val)]).unwrap();
    }
    for (mid, x) in fact_rows(masters, facts) {
        db.insert("f", vec![Value::Int(mid), float(&x)]).unwrap();
    }
    db
}

/// The `f` rows as stored: each fact's master index resolved to an id.
fn fact_rows(
    masters: &[(i64, String, Option<f64>)],
    facts: &[(usize, Option<f64>)],
) -> Vec<(i64, Option<f64>)> {
    facts.iter().map(|(mi, x)| (masters[mi % masters.len().max(1)].0, *x)).collect()
}

fn masters() -> impl Strategy<Value = Vec<(i64, String, f64)>> {
    proptest::collection::vec(
        (0i64..40, "[a-c]", -50.0f64..50.0),
        1..25,
    )
}

fn facts() -> impl Strategy<Value = Vec<(usize, f64)>> {
    proptest::collection::vec((0usize..24, -50.0f64..50.0), 0..40)
}

fn nullable_masters() -> impl Strategy<Value = Vec<(i64, String, Option<f64>)>> {
    proptest::collection::vec(
        (0i64..40, "[a-c]", proptest::option::of(-50.0f64..50.0)),
        1..25,
    )
}

fn nullable_facts() -> impl Strategy<Value = Vec<(usize, Option<f64>)>> {
    proptest::collection::vec((0usize..24, proptest::option::of(-50.0f64..50.0)), 0..40)
}

/// The first column of every result row, as ids.
fn ids(db: &Database, sql: &str) -> Vec<i64> {
    let rs = run_sql(db, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    rs.rows
        .iter()
        .map(|r| match r[0] {
            Value::Int(id) => id,
            ref other => panic!("{sql}: id {other:?}"),
        })
        .collect()
}

/// The ids of the masters a WHERE predicate keeps, in storage order.
/// `keep` answers in SQL's three values; only `Some(true)` keeps a row.
fn kept(
    masters: &[(i64, String, Option<f64>)],
    keep: impl Fn(&(i64, String, Option<f64>)) -> Option<bool>,
) -> Vec<i64> {
    masters.iter().filter(|m| keep(m) == Some(true)).map(|m| m.0).collect()
}

/// `MAX` as the engine folds it: NULLs skipped, NULL over no values.
fn max(xs: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
    xs.into_iter().flatten().reduce(f64::max)
}

/// `AVG` as the engine folds it: a sum in storage order over the
/// non-NULL values, divided by their count.
fn avg(xs: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
    let vals: Vec<f64> = xs.into_iter().flatten().collect();
    let sum = vals.iter().fold(0.0, |sum, x| sum + x);
    (!vals.is_empty()).then(|| sum / vals.len() as f64)
}

/// SQL `v IN (list)` with NULL propagation.
fn sql_in(v: Option<f64>, list: &[Option<f64>]) -> Option<bool> {
    let v = v?;
    if list.contains(&Some(v)) {
        Some(true)
    } else if list.contains(&None) {
        None
    } else {
        Some(false)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A WHERE filter returns a subset of the unfiltered rows.
    #[test]
    fn filter_returns_subset(ms in masters(), threshold in -60.0f64..60.0) {
        let db = database(&ms, &[]);
        let all = run_sql(&db, "SELECT id FROM m").unwrap();
        let filtered = run_sql(&db, &format!("SELECT id FROM m WHERE val > {threshold}")).unwrap();
        prop_assert!(filtered.len() <= all.len());
        for row in &filtered.rows {
            prop_assert!(all.rows.contains(row));
        }
    }

    /// Complementary filters partition the table (no NULLs present).
    #[test]
    fn filters_partition(ms in masters(), threshold in -60.0f64..60.0) {
        let db = database(&ms, &[]);
        let all = run_sql(&db, "SELECT COUNT(*) FROM m").unwrap();
        let hi = run_sql(&db, &format!("SELECT COUNT(*) FROM m WHERE val > {threshold}")).unwrap();
        let lo = run_sql(&db, &format!("SELECT COUNT(*) FROM m WHERE val <= {threshold}")).unwrap();
        let (a, h, l) = (&all.rows[0][0], &hi.rows[0][0], &lo.rows[0][0]);
        if let (Value::Int(a), Value::Int(h), Value::Int(l)) = (a, h, l) {
            prop_assert_eq!(*a, h + l);
        } else {
            prop_assert!(false, "COUNT must be Int");
        }
    }

    /// LIMIT k yields exactly min(k, n) rows and a prefix of the ordered
    /// result.
    #[test]
    fn limit_is_prefix(ms in masters(), k in 1u64..10) {
        let db = database(&ms, &[]);
        let full = run_sql(&db, "SELECT id FROM m ORDER BY val DESC, id ASC").unwrap();
        let limited =
            run_sql(&db, &format!("SELECT id FROM m ORDER BY val DESC, id ASC LIMIT {k}")).unwrap();
        prop_assert_eq!(limited.len(), full.len().min(k as usize));
        prop_assert_eq!(&limited.rows[..], &full.rows[..limited.len()]);
    }

    /// DISTINCT never increases cardinality and removes all duplicates.
    #[test]
    fn distinct_dedups(ms in masters()) {
        let db = database(&ms, &[]);
        let plain = run_sql(&db, "SELECT grp FROM m").unwrap();
        let distinct = run_sql(&db, "SELECT DISTINCT grp FROM m").unwrap();
        prop_assert!(distinct.len() <= plain.len());
        let mut seen = std::collections::HashSet::new();
        for row in &distinct.rows {
            prop_assert!(seen.insert(format!("{}", row[0])), "duplicate in DISTINCT");
        }
    }

    /// GROUP BY counts sum to the table cardinality.
    #[test]
    fn group_counts_sum(ms in masters()) {
        let db = database(&ms, &[]);
        let groups = run_sql(&db, "SELECT grp, COUNT(*) FROM m GROUP BY grp").unwrap();
        let total: i64 = groups
            .rows
            .iter()
            .map(|r| if let Value::Int(c) = r[1] { c } else { 0 })
            .sum();
        prop_assert_eq!(total, ms.len() as i64);
    }

    /// An FK inner join yields exactly one row per fact row (every fact
    /// references an existing master and master ids may repeat).
    #[test]
    fn fk_join_cardinality(ms in masters(), fs in facts()) {
        // Deduplicate master ids so the join is key-unique.
        let mut seen = std::collections::HashSet::new();
        let ms: Vec<_> = ms.into_iter().filter(|(id, _, _)| seen.insert(*id)).collect();
        let db = database(&ms, &fs);
        let joined = run_sql(
            &db,
            "SELECT f.x FROM f JOIN m ON f.mid = m.id",
        )
        .unwrap();
        prop_assert_eq!(joined.len(), fs.len());
    }

    /// Aggregates agree with manual computation.
    #[test]
    fn sum_avg_agree(ms in masters()) {
        let db = database(&ms, &[]);
        let rs = run_sql(&db, "SELECT SUM(val), AVG(val), MIN(val), MAX(val) FROM m").unwrap();
        let vals: Vec<f64> = ms.iter().map(|(_, _, v)| *v).collect();
        let sum: f64 = vals.iter().sum();
        let expect_avg = sum / vals.len() as f64;
        let got_sum = rs.rows[0][0].as_f64().unwrap();
        let got_avg = rs.rows[0][1].as_f64().unwrap();
        prop_assert!((got_sum - sum).abs() < 1e-6);
        prop_assert!((got_avg - expect_avg).abs() < 1e-6);
        let got_min = rs.rows[0][2].as_f64().unwrap();
        let got_max = rs.rows[0][3].as_f64().unwrap();
        prop_assert!((got_min - vals.iter().cloned().fold(f64::INFINITY, f64::min)).abs() < 1e-9);
        prop_assert!((got_max - vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)).abs() < 1e-9);
    }

    /// UNION is idempotent: `q UNION q` has the cardinality of
    /// `SELECT DISTINCT`.
    #[test]
    fn union_idempotent(ms in masters()) {
        let db = database(&ms, &[]);
        let distinct = run_sql(&db, "SELECT DISTINCT grp FROM m").unwrap();
        let unioned = run_sql(&db, "SELECT grp FROM m UNION SELECT grp FROM m").unwrap();
        prop_assert_eq!(distinct.len(), unioned.len());
    }

    /// The hash-join fast path agrees with a comma-join + WHERE, which
    /// takes the nested-loop path.
    #[test]
    fn hash_join_equals_nested(ms in masters(), fs in facts()) {
        let db = database(&ms, &fs);
        let hash = run_sql(&db, "SELECT f.x, m.grp FROM f JOIN m ON f.mid = m.id").unwrap();
        let nested = run_sql(&db, "SELECT f.x, m.grp FROM f, m WHERE f.mid = m.id").unwrap();
        prop_assert!(sqlengine::results_match(&hash, &nested, false));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Uncorrelated scalar subqueries compared with `=` and `>` against
    /// `MAX` and `AVG`, including the NULL of an empty or all-NULL `f.x`.
    #[test]
    fn uncorrelated_scalar_subqueries(ms in nullable_masters(), fs in nullable_facts()) {
        let db = nullable_database(&ms, &fs);
        let xs: Vec<Option<f64>> = fact_rows(&ms, &fs).into_iter().map(|(_, x)| x).collect();
        for (agg, want) in [("MAX", max(xs.clone())), ("AVG", avg(xs.clone()))] {
            for op in ["=", ">"] {
                let sql = format!("SELECT id FROM m WHERE val {op} (SELECT {agg}(x) FROM f)");
                let expect = kept(&ms, |(_, _, val)| {
                    let (val, want) = ((*val)?, want?);
                    Some(if op == "=" { val == want } else { val > want })
                });
                prop_assert_eq!(ids(&db, &sql), expect, "{}", sql);
            }
        }
    }

    /// Uncorrelated `IN`, `NOT IN` and `EXISTS`, over a filtered, an
    /// empty and an all-NULL subquery result.
    #[test]
    fn uncorrelated_membership_subqueries(
        ms in nullable_masters(),
        fs in nullable_facts(),
        t in -60.0f64..60.0,
    ) {
        let db = nullable_database(&ms, &fs);
        let rows = fact_rows(&ms, &fs);
        let over_t: Vec<Option<f64>> = rows
            .iter()
            .filter(|(_, x)| x.is_some_and(|x| x > t))
            .map(|(mid, _)| Some(*mid as f64))
            .collect();
        let nulls: Vec<Option<f64>> =
            rows.iter().filter(|(_, x)| x.is_none()).map(|_| None).collect();
        for (filter, list) in [(format!("x > {t}"), over_t), ("x > 1000".to_string(), Vec::new())] {
            let sql = format!("SELECT id FROM m WHERE id IN (SELECT mid FROM f WHERE {filter})");
            let expect = kept(&ms, |(id, _, _)| sql_in(Some(*id as f64), &list));
            prop_assert_eq!(ids(&db, &sql), expect, "{}", sql);
            let sql =
                format!("SELECT id FROM m WHERE id NOT IN (SELECT mid FROM f WHERE {filter})");
            let expect = kept(&ms, |(id, _, _)| sql_in(Some(*id as f64), &list).map(|b| !b));
            prop_assert_eq!(ids(&db, &sql), expect, "{}", sql);
            let sql = format!("SELECT id FROM m WHERE EXISTS (SELECT 1 FROM f WHERE {filter})");
            let expect = kept(&ms, |_| Some(!list.is_empty()));
            prop_assert_eq!(ids(&db, &sql), expect, "{}", sql);
        }
        // A column of NULLs: no value is IN it or provably NOT IN it.
        let sql = "SELECT id FROM m WHERE val IN (SELECT x FROM f WHERE x IS NULL)";
        prop_assert_eq!(ids(&db, sql), kept(&ms, |(_, _, val)| sql_in(*val, &nulls)), "{}", sql);
        let sql = "SELECT id FROM m WHERE val NOT IN (SELECT x FROM f WHERE x IS NULL)";
        let expect = kept(&ms, |(_, _, val)| sql_in(*val, &nulls).map(|b| !b));
        prop_assert_eq!(ids(&db, sql), expect, "{}", sql);
        let sql = "SELECT id FROM m WHERE val = (SELECT x FROM f WHERE x IS NULL)";
        prop_assert_eq!(ids(&db, sql), Vec::<i64>::new(), "{}", sql);
    }

    /// Correlated subqueries see each outer row: a per-master `AVG` and
    /// an `EXISTS` over that master's facts.
    #[test]
    fn correlated_subqueries(
        ms in nullable_masters(),
        fs in nullable_facts(),
        t in -60.0f64..60.0,
    ) {
        let db = nullable_database(&ms, &fs);
        let rows = fact_rows(&ms, &fs);
        let xs_of = |id: i64| rows.iter().filter(move |(mid, _)| *mid == id).map(|(_, x)| *x);
        let sql = "SELECT id FROM m WHERE val > (SELECT AVG(x) FROM f WHERE f.mid = m.id)";
        let expect = kept(&ms, |(id, _, val)| Some((*val)? > avg(xs_of(*id))?));
        prop_assert_eq!(ids(&db, sql), expect, "{}", sql);
        let sql = format!(
            "SELECT id FROM m WHERE EXISTS (SELECT 1 FROM f WHERE f.mid = m.id AND f.x > {t})"
        );
        let expect = kept(&ms, |(id, _, _)| Some(xs_of(*id).any(|x| x.is_some_and(|x| x > t))));
        prop_assert_eq!(ids(&db, &sql), expect, "{}", sql);
    }

    /// Name resolution with the same table inside and out: a bare `val`
    /// in the subquery is the inner `m` (an uncorrelated maximum over all
    /// rows), and only an alias-qualified reference reaches the outer row.
    #[test]
    fn shadowed_names_resolve_to_the_innermost_table(ms in nullable_masters()) {
        let db = nullable_database(&ms, &[]);
        let top = max(ms.iter().map(|m| m.2));
        let sql = "SELECT id FROM m a WHERE val = (SELECT MAX(val) FROM m)";
        prop_assert_eq!(ids(&db, sql), kept(&ms, |(_, _, val)| Some((*val)? == top?)), "{}", sql);
        let sql = "SELECT id FROM m a WHERE val = (SELECT MAX(b.val) FROM m b WHERE b.grp = a.grp)";
        let expect = kept(&ms, |(_, grp, val)| {
            let group_top = max(ms.iter().filter(|m| m.1 == *grp).map(|m| m.2));
            Some((*val)? == group_top?)
        });
        prop_assert_eq!(ids(&db, sql), expect, "{}", sql);
    }
}
