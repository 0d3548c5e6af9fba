//! End-to-end executor tests over a small financial database.

use sqlengine::{execution_accuracy, run_sql, Database, Value};
use sqlkit::catalog::{CatalogColumn, CatalogSchema, CatalogTable, ColType, ForeignKey};

/// A miniature fund database: `mf_fundinfo` (master) and `mf_fundnav`
/// (daily net asset values), plus `mf_manager`.
fn fund_db() -> Database {
    let catalog = CatalogSchema {
        db_id: "minifund".into(),
        tables: vec![
            CatalogTable {
                name: "mf_fundinfo".into(),
                desc_en: "fund master".into(),
                desc_cn: "fund".into(),
                columns: vec![
                    CatalogColumn::new("fcode", ColType::Int, "fund code", "code"),
                    CatalogColumn::new("fname", ColType::Text, "fund name", "name"),
                    CatalogColumn::new("ftype", ColType::Text, "fund type", "type"),
                    CatalogColumn::new("mgrid", ColType::Int, "manager id", "mgr"),
                ],
            },
            CatalogTable {
                name: "mf_fundnav".into(),
                desc_en: "daily NAV".into(),
                desc_cn: "nav".into(),
                columns: vec![
                    CatalogColumn::new("fcode", ColType::Int, "fund code", "code"),
                    CatalogColumn::new("tradingday", ColType::Date, "trading day", "day"),
                    CatalogColumn::new("nav", ColType::Float, "net asset value", "nav"),
                ],
            },
            CatalogTable {
                name: "mf_manager".into(),
                desc_en: "managers".into(),
                desc_cn: "mgr".into(),
                columns: vec![
                    CatalogColumn::new("mgrid", ColType::Int, "manager id", "id"),
                    CatalogColumn::new("mname", ColType::Text, "manager name", "name"),
                ],
            },
        ],
        foreign_keys: vec![
            ForeignKey {
                from_table: "mf_fundnav".into(),
                from_column: "fcode".into(),
                to_table: "mf_fundinfo".into(),
                to_column: "fcode".into(),
            },
            ForeignKey {
                from_table: "mf_fundinfo".into(),
                from_column: "mgrid".into(),
                to_table: "mf_manager".into(),
                to_column: "mgrid".into(),
            },
        ],
    };
    let mut db = Database::new(catalog);
    let funds = [
        (1, "Alpha Growth", "stock", 10),
        (2, "Beta Bond", "bond", 10),
        (3, "Gamma Mixed", "mixed", 11),
        (4, "Delta Stock", "stock", 12),
    ];
    for (c, n, t, m) in funds {
        db.insert(
            "mf_fundinfo",
            vec![Value::Int(c), Value::from(n), Value::from(t), Value::Int(m)],
        )
        .unwrap();
    }
    let navs = [
        (1, "2022-01-01", 1.00),
        (1, "2022-01-02", 1.10),
        (1, "2022-01-03", 1.21),
        (2, "2022-01-01", 1.00),
        (2, "2022-01-02", 0.99),
        (3, "2022-01-01", 2.00),
        (3, "2022-01-03", 2.10),
        (4, "2022-01-02", 0.80),
    ];
    for (c, d, v) in navs {
        db.insert("mf_fundnav", vec![Value::Int(c), Value::from(d), Value::Float(v)]).unwrap();
    }
    for (i, n) in [(10, "Li Wei"), (11, "Zhang Min"), (12, "Wang Fang")] {
        db.insert("mf_manager", vec![Value::Int(i), Value::from(n)]).unwrap();
    }
    db
}

fn rows(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    run_sql(db, sql).unwrap_or_else(|e| panic!("query failed: {sql}: {e}")).rows
}

#[test]
fn simple_projection_and_filter() {
    let db = fund_db();
    let r = rows(&db, "SELECT fname FROM mf_fundinfo WHERE ftype = 'stock'");
    assert_eq!(r.len(), 2);
    assert!(r.contains(&vec![Value::from("Alpha Growth")]));
    assert!(r.contains(&vec![Value::from("Delta Stock")]));
}

#[test]
fn wildcard_select() {
    let db = fund_db();
    let rs = run_sql(&db, "SELECT * FROM mf_manager").unwrap();
    assert_eq!(rs.columns, vec!["mgrid", "mname"]);
    assert_eq!(rs.rows.len(), 3);
}

#[test]
fn qualified_wildcard() {
    let db = fund_db();
    let rs = run_sql(
        &db,
        "SELECT t1.* FROM mf_fundinfo t1 JOIN mf_fundnav t2 ON t1.fcode = t2.fcode WHERE t2.nav > 2.0",
    )
    .unwrap();
    assert_eq!(rs.columns.len(), 4);
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][1], Value::from("Gamma Mixed"));
}

#[test]
fn inner_join_via_hash_path() {
    let db = fund_db();
    let r = rows(
        &db,
        "SELECT t1.fname, t2.nav FROM mf_fundinfo AS t1 JOIN mf_fundnav AS t2 ON t1.fcode = t2.fcode WHERE t2.tradingday = '2022-01-02'",
    );
    assert_eq!(r.len(), 3);
}

#[test]
fn three_way_join() {
    let db = fund_db();
    let r = rows(
        &db,
        "SELECT DISTINCT m.mname FROM mf_fundinfo f JOIN mf_fundnav n ON f.fcode = n.fcode JOIN mf_manager m ON f.mgrid = m.mgrid WHERE n.nav > 1.5",
    );
    assert_eq!(r, vec![vec![Value::from("Zhang Min")]]);
}

#[test]
fn left_join_pads_nulls() {
    let db = fund_db();
    // Fund 4 has only one NAV; all funds stay present with a LEFT JOIN on a
    // date filter pushed into the ON clause.
    let r = rows(
        &db,
        "SELECT f.fcode, n.nav FROM mf_fundinfo f LEFT JOIN mf_fundnav n ON f.fcode = n.fcode AND n.tradingday = '2022-01-03'",
    );
    assert_eq!(r.len(), 4);
    let fund2 = r.iter().find(|row| row[0] == Value::Int(2)).unwrap();
    assert!(fund2[1].is_null());
}

#[test]
fn comma_join_with_where() {
    let db = fund_db();
    let a = rows(
        &db,
        "SELECT f.fname FROM mf_fundinfo f, mf_manager m WHERE f.mgrid = m.mgrid AND m.mname = 'Li Wei'",
    );
    assert_eq!(a.len(), 2);
}

#[test]
fn group_by_with_having_and_order() {
    let db = fund_db();
    let rs = run_sql(
        &db,
        "SELECT fcode, COUNT(*) AS cnt FROM mf_fundnav GROUP BY fcode HAVING COUNT(*) >= 2 ORDER BY cnt DESC, fcode ASC",
    )
    .unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::Int(1), Value::Int(3)],
            vec![Value::Int(2), Value::Int(2)],
            vec![Value::Int(3), Value::Int(2)],
        ]
    );
}

#[test]
fn aggregates_without_group_by() {
    let db = fund_db();
    let r = rows(&db, "SELECT COUNT(*), AVG(nav), MAX(nav), MIN(tradingday) FROM mf_fundnav");
    assert_eq!(r.len(), 1);
    assert_eq!(r[0][0], Value::Int(8));
    assert_eq!(r[0][2], Value::Float(2.10));
    assert_eq!(r[0][3], Value::from("2022-01-01"));
}

#[test]
fn count_distinct() {
    let db = fund_db();
    let r = rows(&db, "SELECT COUNT(DISTINCT fcode) FROM mf_fundnav");
    assert_eq!(r[0][0], Value::Int(4));
}

#[test]
fn aggregate_over_empty_input_yields_one_row() {
    let db = fund_db();
    let r = rows(&db, "SELECT COUNT(*) FROM mf_fundnav WHERE nav > 99");
    assert_eq!(r, vec![vec![Value::Int(0)]]);
    let r = rows(&db, "SELECT SUM(nav) FROM mf_fundnav WHERE nav > 99");
    assert_eq!(r, vec![vec![Value::Null]]);
}

#[test]
fn group_by_over_empty_input_yields_no_rows() {
    let db = fund_db();
    let r = rows(&db, "SELECT fcode, COUNT(*) FROM mf_fundnav WHERE nav > 99 GROUP BY fcode");
    assert!(r.is_empty());
}

#[test]
fn order_by_limit_offset() {
    let db = fund_db();
    let r = rows(&db, "SELECT nav FROM mf_fundnav ORDER BY nav DESC LIMIT 2");
    assert_eq!(r, vec![vec![Value::Float(2.10)], vec![Value::Float(2.00)]]);
    let r = rows(&db, "SELECT nav FROM mf_fundnav ORDER BY nav DESC LIMIT 2 OFFSET 1");
    assert_eq!(r, vec![vec![Value::Float(2.00)], vec![Value::Float(1.21)]]);
}

#[test]
fn order_by_alias_and_position() {
    let db = fund_db();
    let a = rows(&db, "SELECT fname AS n FROM mf_fundinfo ORDER BY n ASC LIMIT 1");
    assert_eq!(a, vec![vec![Value::from("Alpha Growth")]]);
    let b = rows(&db, "SELECT fname FROM mf_fundinfo ORDER BY 1 DESC LIMIT 1");
    assert_eq!(b, vec![vec![Value::from("Gamma Mixed")]]);
}

#[test]
fn order_by_unprojected_column() {
    let db = fund_db();
    let r = rows(&db, "SELECT fname FROM mf_fundinfo ORDER BY fcode DESC LIMIT 1");
    assert_eq!(r, vec![vec![Value::from("Delta Stock")]]);
}

#[test]
fn scalar_subquery_comparison() {
    let db = fund_db();
    let r = rows(
        &db,
        "SELECT DISTINCT fcode FROM mf_fundnav WHERE nav > (SELECT AVG(nav) FROM mf_fundnav)",
    );
    assert_eq!(r.len(), 1);
    assert_eq!(r[0][0], Value::Int(3));
}

#[test]
fn in_subquery() {
    let db = fund_db();
    let r = rows(
        &db,
        "SELECT fname FROM mf_fundinfo WHERE fcode IN (SELECT fcode FROM mf_fundnav WHERE nav < 1.0)",
    );
    assert_eq!(r.len(), 2);
}

#[test]
fn not_in_subquery() {
    let db = fund_db();
    let r = rows(
        &db,
        "SELECT fname FROM mf_fundinfo WHERE fcode NOT IN (SELECT fcode FROM mf_fundnav WHERE nav < 1.0)",
    );
    assert_eq!(r.len(), 2);
}

/// A subquery first runs when an outer row reaches it, so a broken one
/// under an empty scan does no harm.
#[test]
fn failing_subquery_under_an_empty_scan_is_never_run() {
    let populated = fund_db();
    let empty = Database::new(populated.catalog().clone());
    let sql = "SELECT fname FROM mf_fundinfo WHERE fcode = (SELECT MAX(fcode) FROM ghost_table)";
    assert!(run_sql(&populated, sql).is_err());
    assert_eq!(rows(&empty, sql), Vec::<Vec<Value>>::new());
}

/// `x IN (subquery)` with a NULL `x` is NULL without running the
/// subquery: only rows whose operand is NULL reach this broken one.
#[test]
fn null_in_operand_never_runs_its_subquery() {
    let db = fund_db();
    let join = "SELECT f.fcode FROM mf_fundinfo f LEFT JOIN mf_fundnav n \
                ON f.fcode = n.fcode AND n.tradingday = '2022-01-03'";
    let failing = "n.nav IN (SELECT nav FROM ghost_table)";
    assert!(run_sql(&db, &format!("{join} WHERE {failing}")).is_err());
    let sql = format!("{join} WHERE n.nav IS NULL AND {failing}");
    assert_eq!(rows(&db, &sql), Vec::<Vec<Value>>::new());
}

#[test]
fn correlated_exists() {
    let db = fund_db();
    let r = rows(
        &db,
        "SELECT fname FROM mf_fundinfo f WHERE EXISTS (SELECT 1 FROM mf_fundnav n WHERE n.fcode = f.fcode AND n.nav > 2.0)",
    );
    assert_eq!(r, vec![vec![Value::from("Gamma Mixed")]]);
}

#[test]
fn union_dedup_and_union_all() {
    let db = fund_db();
    let u = rows(&db, "SELECT ftype FROM mf_fundinfo UNION SELECT ftype FROM mf_fundinfo");
    assert_eq!(u.len(), 3);
    let ua = rows(&db, "SELECT ftype FROM mf_fundinfo UNION ALL SELECT ftype FROM mf_fundinfo");
    assert_eq!(ua.len(), 8);
}

#[test]
fn intersect_and_except() {
    let db = fund_db();
    let i = rows(
        &db,
        "SELECT fcode FROM mf_fundinfo INTERSECT SELECT fcode FROM mf_fundnav WHERE nav > 1.5",
    );
    assert_eq!(i, vec![vec![Value::Int(3)]]);
    let e = rows(
        &db,
        "SELECT fcode FROM mf_fundinfo EXCEPT SELECT fcode FROM mf_fundnav WHERE tradingday = '2022-01-01'",
    );
    assert_eq!(e.len(), 1);
    assert_eq!(e[0][0], Value::Int(4));
}

#[test]
fn set_op_order_by_column_name() {
    let db = fund_db();
    let r = rows(
        &db,
        "SELECT fcode FROM mf_fundinfo UNION SELECT fcode FROM mf_fundnav ORDER BY fcode DESC LIMIT 1",
    );
    assert_eq!(r, vec![vec![Value::Int(4)]]);
}

#[test]
fn between_and_like() {
    let db = fund_db();
    let r = rows(&db, "SELECT fname FROM mf_fundinfo WHERE fname LIKE '%Growth%'");
    assert_eq!(r.len(), 1);
    let r = rows(&db, "SELECT COUNT(*) FROM mf_fundnav WHERE nav BETWEEN 1.0 AND 1.5");
    assert_eq!(r[0][0], Value::Int(4));
}

#[test]
fn arithmetic_in_projection() {
    let db = fund_db();
    let r = rows(&db, "SELECT nav * 100 FROM mf_fundnav WHERE fcode = 4");
    assert_eq!(r, vec![vec![Value::Float(80.0)]]);
}

#[test]
fn case_expression() {
    let db = fund_db();
    let r = rows(
        &db,
        "SELECT fname, CASE WHEN ftype = 'stock' THEN 'equity' ELSE 'other' END FROM mf_fundinfo WHERE fcode = 1",
    );
    assert_eq!(r[0][1], Value::from("equity"));
}

#[test]
fn ambiguous_bare_column_is_an_error() {
    let db = fund_db();
    let err = run_sql(
        &db,
        "SELECT fcode FROM mf_fundinfo JOIN mf_fundnav ON mf_fundinfo.fcode = mf_fundnav.fcode",
    )
    .unwrap_err();
    assert!(matches!(err, sqlengine::ExecError::AmbiguousColumn(_)), "{err:?}");
}

#[test]
fn unknown_column_and_table_errors() {
    let db = fund_db();
    assert!(run_sql(&db, "SELECT ghost FROM mf_fundinfo").is_err());
    assert!(run_sql(&db, "SELECT 1 FROM ghost_table").is_err());
    assert!(run_sql(&db, "SELECT mf_fundnav.ghost FROM mf_fundnav").is_err());
}

#[test]
fn dangling_join_is_an_error() {
    let db = fund_db();
    let err = run_sql(&db, "SELECT f.fname FROM mf_fundinfo f JOIN mf_fundnav n ON").unwrap_err();
    assert!(matches!(err, sqlengine::ExecError::DanglingJoin(_)), "{err:?}");
}

#[test]
fn null_semantics_in_where() {
    let db = fund_db();
    // NULL nav from a LEFT JOIN never passes a comparison filter.
    let r = rows(
        &db,
        "SELECT f.fcode FROM mf_fundinfo f LEFT JOIN mf_fundnav n ON f.fcode = n.fcode AND n.tradingday = '2022-01-03' WHERE n.nav > 0",
    );
    assert_eq!(r.len(), 2);
}

#[test]
fn is_null_predicate() {
    let db = fund_db();
    let r = rows(
        &db,
        "SELECT f.fcode FROM mf_fundinfo f LEFT JOIN mf_fundnav n ON f.fcode = n.fcode AND n.tradingday = '2022-01-03' WHERE n.nav IS NULL ORDER BY f.fcode ASC",
    );
    assert_eq!(r, vec![vec![Value::Int(2)], vec![Value::Int(4)]]);
}

#[test]
fn select_without_from() {
    let db = fund_db();
    assert_eq!(rows(&db, "SELECT 1 + 2 * 3"), vec![vec![Value::Int(7)]]);
}

#[test]
fn execution_accuracy_semantics() {
    let db = fund_db();
    // Same result, different SQL shape → EX counts it correct.
    assert!(execution_accuracy(
        &db,
        "SELECT fname FROM mf_fundinfo WHERE ftype = 'stock'",
        "SELECT fname FROM mf_fundinfo WHERE ftype LIKE 'stock'",
    ));
    // Different values → wrong.
    assert!(!execution_accuracy(
        &db,
        "SELECT fname FROM mf_fundinfo WHERE ftype = 'bond'",
        "SELECT fname FROM mf_fundinfo WHERE ftype = 'stock'",
    ));
    // Unexecutable prediction → wrong.
    assert!(!execution_accuracy(
        &db,
        "SELECT ghost FROM mf_fundinfo",
        "SELECT fname FROM mf_fundinfo",
    ));
    // Gold has ORDER BY → row order matters.
    assert!(!execution_accuracy(
        &db,
        "SELECT fname FROM mf_fundinfo ORDER BY fcode DESC",
        "SELECT fname FROM mf_fundinfo ORDER BY fcode ASC",
    ));
    assert!(execution_accuracy(
        &db,
        "SELECT fname FROM mf_fundinfo ORDER BY fcode",
        "SELECT fname FROM mf_fundinfo ORDER BY fcode ASC",
    ));
}

#[test]
fn right_join_keeps_unmatched_right_rows() {
    let db = fund_db();
    let r = rows(
        &db,
        "SELECT f.fname, m.mname FROM mf_fundinfo f RIGHT JOIN mf_manager m ON f.mgrid = m.mgrid AND f.ftype = 'stock'",
    );
    // Managers 11 (no stock funds) should appear with NULL fund names.
    assert!(r.iter().any(|row| row[0].is_null() && row[1] == Value::from("Zhang Min")));
}

#[test]
fn distinct_dedups() {
    let db = fund_db();
    let r = rows(&db, "SELECT DISTINCT ftype FROM mf_fundinfo");
    assert_eq!(r.len(), 3);
}

#[test]
fn group_by_expression_key() {
    let db = fund_db();
    // Group by a computed key.
    let r = rows(
        &db,
        "SELECT COUNT(*) FROM mf_fundnav GROUP BY fcode % 2 ORDER BY 1 ASC",
    );
    assert_eq!(r, vec![vec![Value::Int(3)], vec![Value::Int(5)]]);
}

#[test]
fn duplicate_alias_is_an_error() {
    let db = fund_db();
    assert!(run_sql(
        &db,
        "SELECT t.fcode FROM mf_fundinfo t JOIN mf_fundnav t ON t.fcode = t.fcode"
    )
    .is_err());
}
