//! Expression evaluation: row contexts, scalar/boolean operators,
//! aggregates and subqueries.

use crate::error::{ExecError, ExecResult};
use crate::executor::Exec;
use crate::value::Value;
use sqlkit::ast::*;

/// One FROM-clause item's slice of the concatenated row.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Name the table is known by in the query (alias or table name),
    /// lower-cased.
    pub effective: String,
    /// Column names in storage order, lower-cased.
    pub columns: Vec<String>,
    /// Offset of this table's first column in the concatenated row.
    pub offset: usize,
}

impl Binding {
    /// Index of `column` within the concatenated row, if present here.
    fn find(&self, column: &str) -> Option<usize> {
        let lower = column.to_ascii_lowercase();
        self.columns.iter().position(|c| *c == lower).map(|i| self.offset + i)
    }
}

/// An evaluation scope: the bindings of one SELECT block plus an optional
/// parent scope for correlated subqueries.
pub struct Scope<'a> {
    pub bindings: &'a [Binding],
    pub row: &'a [Value],
    pub outer: Option<&'a Scope<'a>>,
}

impl<'a> Scope<'a> {
    /// Resolves a column reference to a value, walking outward through
    /// parent scopes for correlated subqueries.
    pub fn lookup(&self, col: &ColumnRef) -> ExecResult<Value> {
        match self.try_lookup(col)? {
            Some(v) => Ok(v),
            None => match self.outer {
                Some(outer) => outer.lookup(col),
                None => Err(ExecError::UnknownColumn(format_col(col))),
            },
        }
    }

    fn try_lookup(&self, col: &ColumnRef) -> ExecResult<Option<Value>> {
        match &col.table {
            Some(t) => {
                let tl = t.to_ascii_lowercase();
                for b in self.bindings {
                    if b.effective == tl {
                        return match b.find(&col.column) {
                            Some(i) => Ok(Some(self.row[i].clone())),
                            None => Err(ExecError::UnknownColumn(format_col(col))),
                        };
                    }
                }
                Ok(None)
            }
            None => {
                let mut found: Option<usize> = None;
                for b in self.bindings {
                    if let Some(i) = b.find(&col.column) {
                        if found.is_some() {
                            return Err(ExecError::AmbiguousColumn(col.column.clone()));
                        }
                        found = Some(i);
                    }
                }
                Ok(found.map(|i| self.row[i].clone()))
            }
        }
    }
}

fn format_col(c: &ColumnRef) -> String {
    match &c.table {
        Some(t) => format!("{t}.{}", c.column),
        None => c.column.clone(),
    }
}

/// Evaluates an expression against a single row.
pub(crate) fn eval_row(cx: &Exec<'_>, scope: &Scope<'_>, expr: &Expr) -> ExecResult<Value> {
    match expr {
        Expr::Column(c) => scope.lookup(c),
        Expr::Literal(l) => Ok(literal_value(l)),
        Expr::Unary { op, operand } => {
            let v = eval_row(cx, scope, operand)?;
            eval_unary(*op, v)
        }
        Expr::Binary { op, left, right } => {
            let l = eval_row(cx, scope, left)?;
            // Short-circuit AND/OR with three-valued logic.
            match op {
                BinaryOp::And => {
                    if !l.is_null() && !l.is_truthy() {
                        return Ok(Value::Bool(false));
                    }
                    let r = eval_row(cx, scope, right)?;
                    Ok(bool3(and3(truth3(&l), truth3(&r))))
                }
                BinaryOp::Or => {
                    if !l.is_null() && l.is_truthy() {
                        return Ok(Value::Bool(true));
                    }
                    let r = eval_row(cx, scope, right)?;
                    Ok(bool3(or3(truth3(&l), truth3(&r))))
                }
                _ => {
                    let r = eval_row(cx, scope, right)?;
                    eval_binary(*op, l, r)
                }
            }
        }
        Expr::Function { name, args, .. } => {
            if is_aggregate(name) {
                return Err(ExecError::Unsupported(format!(
                    "aggregate {name} outside GROUP BY context"
                )));
            }
            let vals: Vec<Value> =
                args.iter().map(|a| eval_row(cx, scope, a)).collect::<ExecResult<_>>()?;
            eval_scalar_function(name, &vals)
        }
        Expr::CountStar => {
            Err(ExecError::Unsupported("COUNT(*) outside GROUP BY context".into()))
        }
        Expr::InList { expr, list, negated } => {
            let v = eval_row(cx, scope, expr)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval_row(cx, scope, item)?;
                match v.eq_sql(&w) {
                    Some(true) => return Ok(Value::Bool(!negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::InSubquery { expr, subquery, negated } => {
            let v = eval_row(cx, scope, expr)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let rs = cx.subquery(subquery, scope)?;
            if rs.columns.len() != 1 {
                return Err(ExecError::Cardinality("IN subquery must return one column".into()));
            }
            let mut saw_null = false;
            for row in &rs.rows {
                match v.eq_sql(&row[0]) {
                    Some(true) => return Ok(Value::Bool(!negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Between { expr, low, high, negated } => {
            let v = eval_row(cx, scope, expr)?;
            let lo = eval_row(cx, scope, low)?;
            let hi = eval_row(cx, scope, high)?;
            match (v.cmp_sql(&lo), v.cmp_sql(&hi)) {
                (Some(a), Some(b)) => {
                    let inside = a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater;
                    Ok(Value::Bool(inside != *negated))
                }
                _ => Ok(Value::Null),
            }
        }
        Expr::Like { expr, pattern, negated } => {
            let v = eval_row(cx, scope, expr)?;
            let p = eval_row(cx, scope, pattern)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(s), Value::Str(pat)) => Ok(Value::Bool(like_match(&pat, &s) != *negated)),
                _ => Err(ExecError::Type("LIKE requires string operands".into())),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_row(cx, scope, expr)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Exists { subquery, negated } => {
            let rs = cx.subquery(subquery, scope)?;
            Ok(Value::Bool(rs.rows.is_empty() == *negated))
        }
        Expr::Subquery(q) => {
            let rs = cx.subquery(q, scope)?;
            if rs.columns.len() != 1 {
                return Err(ExecError::Cardinality("scalar subquery must return one column".into()));
            }
            // SQLite semantics: empty → NULL, otherwise the first row.
            Ok(rs.rows.first().map(|r| r[0].clone()).unwrap_or(Value::Null))
        }
        Expr::Case { operand, branches, else_result } => {
            match operand {
                Some(op) => {
                    let base = eval_row(cx, scope, op)?;
                    for (when, then) in branches {
                        let w = eval_row(cx, scope, when)?;
                        if base.eq_sql(&w) == Some(true) {
                            return eval_row(cx, scope, then);
                        }
                    }
                }
                None => {
                    for (when, then) in branches {
                        let w = eval_row(cx, scope, when)?;
                        if !w.is_null() && w.is_truthy() {
                            return eval_row(cx, scope, then);
                        }
                    }
                }
            }
            match else_result {
                Some(e) => eval_row(cx, scope, e),
                None => Ok(Value::Null),
            }
        }
    }
}

/// Evaluates an expression in a *group* context: aggregates run over the
/// group's rows; everything else evaluates against the group's first row
/// (SQLite's lax semantics).
pub(crate) fn eval_in_group(
    cx: &Exec<'_>,
    bindings: &[Binding],
    rows: &[Vec<Value>],
    outer: Option<&Scope<'_>>,
    expr: &Expr,
) -> ExecResult<Value> {
    match expr {
        Expr::CountStar => Ok(Value::Int(rows.len() as i64)),
        Expr::Function { name, distinct, args } if is_aggregate(name) => {
            if args.len() != 1 {
                return Err(ExecError::Type(format!("{name} takes exactly one argument")));
            }
            let mut vals = Vec::with_capacity(rows.len());
            for row in rows {
                let scope = Scope { bindings, row, outer };
                let v = eval_row(cx, &scope, &args[0])?;
                if !v.is_null() {
                    vals.push(v);
                }
            }
            if *distinct {
                let mut seen = std::collections::HashSet::new();
                vals.retain(|v| seen.insert(v.group_key()));
            }
            aggregate(name, &vals)
        }
        Expr::Unary { op, operand } => {
            let v = eval_in_group(cx, bindings, rows, outer, operand)?;
            eval_unary(*op, v)
        }
        Expr::Binary { op, left, right } => {
            let l = eval_in_group(cx, bindings, rows, outer, left)?;
            let r = eval_in_group(cx, bindings, rows, outer, right)?;
            match op {
                BinaryOp::And => Ok(bool3(and3(truth3(&l), truth3(&r)))),
                BinaryOp::Or => Ok(bool3(or3(truth3(&l), truth3(&r)))),
                _ => eval_binary(*op, l, r),
            }
        }
        // Everything else: first-row semantics.
        other => match rows.first() {
            Some(row) => {
                let scope = Scope { bindings, row, outer };
                eval_row(cx, &scope, other)
            }
            None => Ok(Value::Null),
        },
    }
}

/// True when the expression contains an aggregate call at any depth that
/// belongs to *this* query (subqueries excluded).
pub fn contains_aggregate(expr: &Expr) -> bool {
    match expr {
        Expr::CountStar => true,
        Expr::Function { name, args, .. } => {
            is_aggregate(name) || args.iter().any(contains_aggregate)
        }
        Expr::Unary { operand, .. } => contains_aggregate(operand),
        Expr::Binary { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        Expr::Between { expr, low, high, .. } => {
            contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high)
        }
        Expr::Like { expr, pattern, .. } => contains_aggregate(expr) || contains_aggregate(pattern),
        Expr::IsNull { expr, .. } => contains_aggregate(expr),
        Expr::InSubquery { expr, .. } => contains_aggregate(expr),
        Expr::Case { operand, branches, else_result } => {
            operand.as_deref().map(contains_aggregate).unwrap_or(false)
                || branches.iter().any(|(c, r)| contains_aggregate(c) || contains_aggregate(r))
                || else_result.as_deref().map(contains_aggregate).unwrap_or(false)
        }
        Expr::Column(_) | Expr::Literal(_) | Expr::Exists { .. } | Expr::Subquery(_) => false,
    }
}

fn aggregate(name: &str, vals: &[Value]) -> ExecResult<Value> {
    let upper = name.to_ascii_uppercase();
    match upper.as_str() {
        "COUNT" => Ok(Value::Int(vals.len() as i64)),
        "SUM" | "AVG" => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let mut all_int = true;
            let mut sum = 0.0;
            for v in vals {
                match v {
                    Value::Int(i) => sum += *i as f64,
                    Value::Float(f) => {
                        all_int = false;
                        sum += *f;
                    }
                    other => {
                        return Err(ExecError::Type(format!("{upper} over non-numeric {other}")))
                    }
                }
            }
            if upper == "AVG" {
                Ok(Value::Float(sum / vals.len() as f64))
            } else if all_int {
                Ok(Value::Int(sum as i64))
            } else {
                Ok(Value::Float(sum))
            }
        }
        "MIN" | "MAX" => {
            let mut best: Option<&Value> = None;
            for v in vals {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let take = match v.cmp_sql(b) {
                            Some(std::cmp::Ordering::Less) => upper == "MIN",
                            Some(std::cmp::Ordering::Greater) => upper == "MAX",
                            _ => false,
                        };
                        if take {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.cloned().unwrap_or(Value::Null))
        }
        other => Err(ExecError::Unsupported(format!("aggregate {other}"))),
    }
}

fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Int(v) => Value::Int(*v),
        Literal::Float(v) => Value::Float(*v),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Null => Value::Null,
    }
}

fn eval_unary(op: UnaryOp, v: Value) -> ExecResult<Value> {
    match op {
        UnaryOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Null => Ok(Value::Null),
            other => Err(ExecError::Type(format!("cannot negate {other}"))),
        },
        UnaryOp::Not => match truth3(&v) {
            Truth::True => Ok(Value::Bool(false)),
            Truth::False => Ok(Value::Bool(true)),
            Truth::Unknown => Ok(Value::Null),
        },
    }
}

fn eval_binary(op: BinaryOp, l: Value, r: Value) -> ExecResult<Value> {
    if op.is_comparison() {
        return match l.cmp_sql(&r) {
            None => Ok(Value::Null),
            Some(ord) => {
                let b = match op {
                    BinaryOp::Eq => ord == std::cmp::Ordering::Equal,
                    BinaryOp::Neq => ord != std::cmp::Ordering::Equal,
                    BinaryOp::Lt => ord == std::cmp::Ordering::Less,
                    BinaryOp::Le => ord != std::cmp::Ordering::Greater,
                    BinaryOp::Gt => ord == std::cmp::Ordering::Greater,
                    BinaryOp::Ge => ord != std::cmp::Ordering::Less,
                    // INVARIANT: the enclosing `if op.is_comparison()`
                    // restricts `op` to the six arms above.
                    _ => unreachable!(),
                };
                Ok(Value::Bool(b))
            }
        };
    }
    // Arithmetic.
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (&l, &r) {
        (Value::Int(a), Value::Int(b)) => match op {
            BinaryOp::Add => Ok(Value::Int(a.wrapping_add(*b))),
            BinaryOp::Sub => Ok(Value::Int(a.wrapping_sub(*b))),
            BinaryOp::Mul => Ok(Value::Int(a.wrapping_mul(*b))),
            BinaryOp::Div => {
                if *b == 0 {
                    Ok(Value::Null)
                } else {
                    // Integer division promotes like SQLite's `/` on
                    // integers... but analytics expect real division;
                    // promote when inexact.
                    if a % b == 0 {
                        Ok(Value::Int(a / b))
                    } else {
                        Ok(Value::Float(*a as f64 / *b as f64))
                    }
                }
            }
            BinaryOp::Mod => {
                if *b == 0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Int(a % b))
                }
            }
            _ => Err(ExecError::Type(format!("bad operator {op:?} for integers"))),
        },
        _ => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(ExecError::Type(format!("arithmetic on non-numeric {l} / {r}"))),
            };
            let v = match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                BinaryOp::Div => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a / b
                }
                BinaryOp::Mod => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a % b
                }
                _ => return Err(ExecError::Type(format!("bad operator {op:?}"))),
            };
            Ok(Value::Float(v))
        }
    }
}

fn eval_scalar_function(name: &str, args: &[Value]) -> ExecResult<Value> {
    let upper = name.to_ascii_uppercase();
    let arity_err =
        || Err(ExecError::Type(format!("wrong number of arguments for {upper}")));
    match upper.as_str() {
        "ABS" => match args {
            [Value::Int(v)] => Ok(Value::Int(v.abs())),
            [Value::Float(v)] => Ok(Value::Float(v.abs())),
            [Value::Null] => Ok(Value::Null),
            [other] => Err(ExecError::Type(format!("ABS of {other}"))),
            _ => arity_err(),
        },
        "ROUND" => match args {
            [v] => round_value(v, 0),
            [v, Value::Int(d)] => round_value(v, *d),
            _ => arity_err(),
        },
        "LENGTH" => match args {
            [Value::Str(s)] => Ok(Value::Int(s.chars().count() as i64)),
            [Value::Null] => Ok(Value::Null),
            [other] => Err(ExecError::Type(format!("LENGTH of {other}"))),
            _ => arity_err(),
        },
        "LOWER" => match args {
            [Value::Str(s)] => Ok(Value::Str(s.to_lowercase())),
            [Value::Null] => Ok(Value::Null),
            _ => arity_err(),
        },
        "UPPER" => match args {
            [Value::Str(s)] => Ok(Value::Str(s.to_uppercase())),
            [Value::Null] => Ok(Value::Null),
            _ => arity_err(),
        },
        "SUBSTR" | "SUBSTRING" => match args {
            [Value::Str(s), Value::Int(start), Value::Int(len)] => {
                let chars: Vec<char> = s.chars().collect();
                let begin = (start - 1).max(0) as usize;
                let end = (begin + (*len).max(0) as usize).min(chars.len());
                Ok(Value::Str(chars.get(begin..end).unwrap_or(&[]).iter().collect()))
            }
            [Value::Null, ..] => Ok(Value::Null),
            _ => arity_err(),
        },
        "COALESCE" => {
            for a in args {
                if !a.is_null() {
                    return Ok(a.clone());
                }
            }
            Ok(Value::Null)
        }
        other => Err(ExecError::Unsupported(format!("function {other}"))),
    }
}

fn round_value(v: &Value, digits: i64) -> ExecResult<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Int(i) => Ok(Value::Int(*i)),
        Value::Float(f) => {
            let scale = 10f64.powi(digits as i32);
            Ok(Value::Float((f * scale).round() / scale))
        }
        other => Err(ExecError::Type(format!("ROUND of {other}"))),
    }
}

/// SQL `LIKE` matching with `%` (any run) and `_` (single char).
/// Case-insensitive for ASCII, as in SQLite's default.
pub fn like_match(pattern: &str, text: &str) -> bool {
    fn rec(p: &[char], t: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => {
                // Consume zero or more chars.
                (0..=t.len()).any(|k| rec(&p[1..], &t[k..]))
            }
            Some('_') => !t.is_empty() && rec(&p[1..], &t[1..]),
            Some(c) => {
                !t.is_empty()
                    && t[0].to_lowercase().eq(c.to_lowercase())
                    && rec(&p[1..], &t[1..])
            }
        }
    }
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    rec(&p, &t)
}

/// Three-valued logic helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    True,
    False,
    Unknown,
}

pub fn truth3(v: &Value) -> Truth {
    match v {
        Value::Null => Truth::Unknown,
        other => {
            if other.is_truthy() {
                Truth::True
            } else {
                Truth::False
            }
        }
    }
}

fn and3(a: Truth, b: Truth) -> Truth {
    match (a, b) {
        (Truth::False, _) | (_, Truth::False) => Truth::False,
        (Truth::True, Truth::True) => Truth::True,
        _ => Truth::Unknown,
    }
}

fn or3(a: Truth, b: Truth) -> Truth {
    match (a, b) {
        (Truth::True, _) | (_, Truth::True) => Truth::True,
        (Truth::False, Truth::False) => Truth::False,
        _ => Truth::Unknown,
    }
}

fn bool3(t: Truth) -> Value {
    match t {
        Truth::True => Value::Bool(true),
        Truth::False => Value::Bool(false),
        Truth::Unknown => Value::Null,
    }
}

fn is_aggregate(name: &str) -> bool {
    sqlkit::ast::is_aggregate(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_matching() {
        assert!(like_match("%fund%", "China Growth Fund A"));
        assert!(like_match("abc", "ABC"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abbc"));
        assert!(like_match("%", ""));
        assert!(!like_match("_", ""));
        assert!(like_match("2022-%", "2022-04-01"));
    }

    #[test]
    fn aggregate_sum_prefers_int() {
        assert_eq!(aggregate("SUM", &[Value::Int(1), Value::Int(2)]).unwrap(), Value::Int(3));
        assert_eq!(
            aggregate("SUM", &[Value::Int(1), Value::Float(0.5)]).unwrap(),
            Value::Float(1.5)
        );
    }

    #[test]
    fn aggregate_empty_group() {
        assert_eq!(aggregate("COUNT", &[]).unwrap(), Value::Int(0));
        assert_eq!(aggregate("SUM", &[]).unwrap(), Value::Null);
        assert_eq!(aggregate("MAX", &[]).unwrap(), Value::Null);
    }

    #[test]
    fn aggregate_min_max_on_strings() {
        let vals = [Value::from("2022-03-01"), Value::from("2022-01-01")];
        assert_eq!(aggregate("MIN", &vals).unwrap(), Value::from("2022-01-01"));
        assert_eq!(aggregate("MAX", &vals).unwrap(), Value::from("2022-03-01"));
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(and3(Truth::Unknown, Truth::False), Truth::False);
        assert_eq!(and3(Truth::Unknown, Truth::True), Truth::Unknown);
        assert_eq!(or3(Truth::Unknown, Truth::True), Truth::True);
        assert_eq!(or3(Truth::Unknown, Truth::False), Truth::Unknown);
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(eval_scalar_function("abs", &[Value::Int(-3)]).unwrap(), Value::Int(3));
        assert_eq!(
            eval_scalar_function("round", &[Value::Float(9.87654), Value::Int(2)]).unwrap(),
            Value::Float(9.88)
        );
        assert_eq!(eval_scalar_function("length", &[Value::from("abc")]).unwrap(), Value::Int(3));
        assert_eq!(
            eval_scalar_function("substr", &[Value::from("fund"), Value::Int(2), Value::Int(2)])
                .unwrap(),
            Value::from("un")
        );
        assert_eq!(
            eval_scalar_function("coalesce", &[Value::Null, Value::Int(7)]).unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn integer_division_promotes_when_inexact() {
        assert_eq!(
            eval_binary(BinaryOp::Div, Value::Int(7), Value::Int(2)).unwrap(),
            Value::Float(3.5)
        );
        assert_eq!(
            eval_binary(BinaryOp::Div, Value::Int(6), Value::Int(2)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(eval_binary(BinaryOp::Div, Value::Int(1), Value::Int(0)).unwrap(), Value::Null);
    }

    #[test]
    fn comparison_with_null_is_null() {
        assert_eq!(
            eval_binary(BinaryOp::Eq, Value::Null, Value::Int(1)).unwrap(),
            Value::Null
        );
    }
}
