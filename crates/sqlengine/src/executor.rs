//! The query executor: FROM/JOIN assembly, filtering, grouping,
//! projection, set operations, ordering and limits.

use crate::database::Database;
use crate::error::{ExecError, ExecResult};
use crate::expr_eval::{contains_aggregate, eval_in_group, eval_row, Binding, Scope};
use crate::result::ResultSet;
use crate::value::{GroupKey, Value};
use sqlkit::ast::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// One statement's execution: the database it reads and a memo that runs
/// each uncorrelated subquery once.
///
/// The memo is keyed by the address of a subquery node. [`execute`] owns
/// the context for exactly as long as it borrows the statement, so every
/// key names a live node of that statement, and the next statement (say,
/// after an `apply_changes`) starts from an empty memo.
pub(crate) struct Exec<'a> {
    pub(crate) db: &'a Database,
    /// `Some` holds an uncorrelated node's result; `None` marks a node
    /// that runs once per outer row.
    memo: RefCell<HashMap<*const SelectStmt, Option<Rc<ResultSet>>>>,
}

impl Exec<'_> {
    /// The result of a subquery node for the outer row in `scope`.
    ///
    /// A node's first evaluation runs it with no outer scope. If that
    /// succeeds, the result holds for every outer row and is kept:
    /// [`Scope::lookup`] reads the outer scope only when a name does not
    /// resolve locally, and with no outer scope that is an error (which
    /// holds only while no evaluation catches an error and carries on). If
    /// it fails, the node is correlated (or broken) and runs per row against
    /// `scope`, which reproduces the error of a broken one. Nothing runs
    /// before a node is first reached, so a failing subquery under an
    /// empty scan, or behind a NULL `IN` operand, stays harmless.
    pub(crate) fn subquery(&self, q: &SelectStmt, scope: &Scope<'_>) -> ExecResult<Rc<ResultSet>> {
        let key: *const SelectStmt = q;
        // The borrow ends with this statement: the runs below re-enter the
        // memo for nested subqueries.
        let known = self.memo.borrow().get(&key).cloned();
        let shared = match known {
            Some(shared) => shared,
            None => {
                let shared = execute_scoped(self, q, None).ok().map(Rc::new);
                self.memo.borrow_mut().insert(key, shared.clone());
                shared
            }
        };
        match shared {
            Some(rs) => Ok(rs),
            None => execute_scoped(self, q, Some(scope)).map(Rc::new),
        }
    }
}

/// Executes a query against a database.
pub fn execute(db: &Database, q: &SelectStmt) -> ExecResult<ResultSet> {
    let cx = Exec { db, memo: RefCell::default() };
    execute_scoped(&cx, q, None)
}

/// Executes a query with an optional outer scope (for correlated
/// subqueries).
pub(crate) fn execute_scoped(
    cx: &Exec<'_>,
    q: &SelectStmt,
    outer: Option<&Scope<'_>>,
) -> ExecResult<ResultSet> {
    match &q.body {
        SetExpr::Select(s) => exec_select(cx, s, &q.order_by, q.limit, outer),
        SetExpr::SetOp { .. } => {
            let rs = exec_set_expr(cx, &q.body, outer)?;
            order_and_limit_plain(rs, &q.order_by, q.limit)
        }
    }
}

fn exec_set_expr(cx: &Exec<'_>, body: &SetExpr, outer: Option<&Scope<'_>>) -> ExecResult<ResultSet> {
    match body {
        SetExpr::Select(s) => exec_select(cx, s, &[], None, outer),
        SetExpr::SetOp { op, all, left, right } => {
            let l = exec_set_expr(cx, left, outer)?;
            let r = exec_set_expr(cx, right, outer)?;
            if l.columns.len() != r.columns.len() {
                return Err(ExecError::Cardinality(
                    "set operands must have the same number of columns".into(),
                ));
            }
            let rows = match (op, all) {
                (SetOp::Union, true) => {
                    let mut rows = l.rows;
                    rows.extend(r.rows);
                    rows
                }
                (SetOp::Union, false) => dedup_rows({
                    let mut rows = l.rows;
                    rows.extend(r.rows);
                    rows
                }),
                (SetOp::Intersect, _) => {
                    let rk: std::collections::HashSet<Vec<GroupKey>> =
                        r.rows.iter().map(|row| row_key(row)).collect();
                    dedup_rows(
                        l.rows.into_iter().filter(|row| rk.contains(&row_key(row))).collect(),
                    )
                }
                (SetOp::Except, _) => {
                    let rk: std::collections::HashSet<Vec<GroupKey>> =
                        r.rows.iter().map(|row| row_key(row)).collect();
                    dedup_rows(
                        l.rows.into_iter().filter(|row| !rk.contains(&row_key(row))).collect(),
                    )
                }
            };
            Ok(ResultSet { columns: l.columns, rows })
        }
    }
}

fn row_key(row: &[Value]) -> Vec<GroupKey> {
    row.iter().map(Value::group_key).collect()
}

fn dedup_rows(rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        if seen.insert(row_key(&row)) {
            out.push(row);
        }
    }
    out
}

/// Ordering/limit applied to a plain result set (set operations): keys may
/// be output column names or 1-based positions.
fn order_and_limit_plain(
    mut rs: ResultSet,
    order_by: &[OrderByItem],
    limit: Option<Limit>,
) -> ExecResult<ResultSet> {
    if !order_by.is_empty() {
        let mut key_indices = Vec::new();
        for item in order_by {
            let idx = match &item.expr {
                Expr::Column(c) => rs
                    .columns
                    .iter()
                    .position(|n| n.eq_ignore_ascii_case(&c.column))
                    .ok_or_else(|| ExecError::UnknownColumn(c.column.clone()))?,
                Expr::Literal(Literal::Int(k)) => {
                    let k = *k as usize;
                    if k == 0 || k > rs.columns.len() {
                        return Err(ExecError::Cardinality(format!("ORDER BY position {k}")));
                    }
                    k - 1
                }
                _ => {
                    return Err(ExecError::Unsupported(
                        "ORDER BY expression over a set operation".into(),
                    ))
                }
            };
            key_indices.push((idx, item.desc));
        }
        rs.rows.sort_by(|a, b| {
            for (idx, desc) in &key_indices {
                let o = a[*idx].cmp_total(&b[*idx]);
                if o != std::cmp::Ordering::Equal {
                    return if *desc { o.reverse() } else { o };
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    apply_limit(&mut rs.rows, limit);
    Ok(rs)
}

fn apply_limit(rows: &mut Vec<Vec<Value>>, limit: Option<Limit>) {
    if let Some(l) = limit {
        let start = (l.offset as usize).min(rows.len());
        let end = (start + l.count as usize).min(rows.len());
        *rows = rows[start..end].to_vec();
    }
}

/// The data each output row was computed from, kept so ORDER BY
/// expressions can be evaluated after projection.
enum RowCtx {
    /// A single source row (non-grouped query).
    Row(Vec<Value>),
    /// The rows of the group this output row summarises.
    Group(Vec<Vec<Value>>),
}

fn exec_select(
    cx: &Exec<'_>,
    s: &Select,
    order_by: &[OrderByItem],
    limit: Option<Limit>,
    outer: Option<&Scope<'_>>,
) -> ExecResult<ResultSet> {
    // 1. FROM/JOIN assembly.
    let (bindings, mut rows) = match &s.from {
        Some(from) => build_from(cx, from, outer)?,
        None => (Vec::new(), vec![Vec::new()]),
    };

    // 2. WHERE.
    if let Some(pred) = &s.selection {
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            let scope = Scope { bindings: &bindings, row: &row, outer };
            let v = eval_row(cx, &scope, pred)?;
            if !v.is_null() && v.is_truthy() {
                kept.push(row);
            }
        }
        rows = kept;
    }

    // 3. Grouping decision.
    let has_agg_items = s.items.iter().any(|it| match it {
        SelectItem::Expr { expr, .. } => contains_aggregate(expr),
        _ => false,
    }) || s.having.as_ref().map(contains_aggregate).unwrap_or(false);
    let grouped = !s.group_by.is_empty() || has_agg_items;

    // 4. Projection.
    let columns = output_columns(&bindings, s)?;
    let mut projected: Vec<(Vec<Value>, RowCtx)> = Vec::new();
    if grouped {
        let groups: Vec<Vec<Vec<Value>>> = if s.group_by.is_empty() {
            vec![rows]
        } else {
            let mut index: HashMap<Vec<GroupKey>, usize> = HashMap::new();
            let mut groups: Vec<Vec<Vec<Value>>> = Vec::new();
            for row in rows {
                let mut key = Vec::with_capacity(s.group_by.len());
                {
                    let scope = Scope { bindings: &bindings, row: &row, outer };
                    for g in &s.group_by {
                        key.push(eval_row(cx, &scope, g)?.group_key());
                    }
                }
                match index.get(&key) {
                    Some(&i) => groups[i].push(row),
                    None => {
                        index.insert(key, groups.len());
                        groups.push(vec![row]);
                    }
                }
            }
            groups
        };
        for group in groups {
            // An aggregate-only query over zero rows still yields one row
            // (e.g. COUNT(*) = 0); a GROUP BY query over zero rows yields
            // none — handled naturally since `groups` is empty then.
            if group.is_empty() && !s.group_by.is_empty() {
                continue;
            }
            if let Some(h) = &s.having {
                let hv = eval_in_group(cx, &bindings, &group, outer, h)?;
                if hv.is_null() || !hv.is_truthy() {
                    continue;
                }
            }
            let mut out = Vec::with_capacity(s.items.len());
            for item in &s.items {
                match item {
                    SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                        expand_wildcard(item, &bindings, group.first().map(|r| r.as_slice()), &mut out);
                    }
                    SelectItem::Expr { expr, .. } => {
                        out.push(eval_in_group(cx, &bindings, &group, outer, expr)?);
                    }
                }
            }
            projected.push((out, RowCtx::Group(group)));
        }
    } else {
        for row in rows {
            let mut out = Vec::with_capacity(s.items.len());
            for item in &s.items {
                match item {
                    SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                        expand_wildcard(item, &bindings, Some(&row), &mut out);
                    }
                    SelectItem::Expr { expr, .. } => {
                        let scope = Scope { bindings: &bindings, row: &row, outer };
                        out.push(eval_row(cx, &scope, expr)?);
                    }
                }
            }
            projected.push((out, RowCtx::Row(row)));
        }
    }

    // 5. DISTINCT.
    if s.distinct {
        let mut seen = std::collections::HashSet::new();
        projected.retain(|(row, _)| seen.insert(row_key(row)));
    }

    // 6. ORDER BY.
    if !order_by.is_empty() {
        // Pre-compute sort keys for each row.
        let mut keyed: Vec<(Vec<Value>, Vec<Value>, RowCtx)> = Vec::with_capacity(projected.len());
        for (out, ctx) in projected {
            let mut keys = Vec::with_capacity(order_by.len());
            for item in order_by {
                keys.push(eval_order_key(cx, s, &bindings, &columns, &out, &ctx, outer, &item.expr)?);
            }
            keyed.push((keys, out, ctx));
        }
        keyed.sort_by(|a, b| {
            for ((ka, kb), item) in a.0.iter().zip(&b.0).zip(order_by) {
                let o = ka.cmp_total(kb);
                if o != std::cmp::Ordering::Equal {
                    return if item.desc { o.reverse() } else { o };
                }
            }
            std::cmp::Ordering::Equal
        });
        projected = keyed.into_iter().map(|(_, out, ctx)| (out, ctx)).collect();
    }

    // 7. LIMIT.
    let mut rows: Vec<Vec<Value>> = projected.into_iter().map(|(out, _)| out).collect();
    apply_limit(&mut rows, limit);
    Ok(ResultSet { columns, rows })
}

/// Evaluates an ORDER BY key for one output row.
#[allow(clippy::too_many_arguments)]
fn eval_order_key(
    cx: &Exec<'_>,
    s: &Select,
    bindings: &[Binding],
    columns: &[String],
    out_row: &[Value],
    ctx: &RowCtx,
    outer: Option<&Scope<'_>>,
    key: &Expr,
) -> ExecResult<Value> {
    // 1-based position reference.
    if let Expr::Literal(Literal::Int(k)) = key {
        let k = *k as usize;
        if k >= 1 && k <= out_row.len() {
            return Ok(out_row[k - 1].clone());
        }
    }
    // Alias or output-column-name reference.
    if let Expr::Column(c) = key {
        if c.table.is_none() {
            for (i, item) in s.items.iter().enumerate() {
                if let SelectItem::Expr { alias: Some(a), .. } = item {
                    if a.eq_ignore_ascii_case(&c.column) && i < out_row.len() {
                        return Ok(out_row[i].clone());
                    }
                }
            }
            // Column that is not resolvable from bindings but matches an
            // output column name (set-op style reference).
            let in_scope = bindings.iter().any(|b| {
                b.columns.iter().any(|col| col.eq_ignore_ascii_case(&c.column))
            });
            if !in_scope {
                if let Some(i) = columns.iter().position(|n| n.eq_ignore_ascii_case(&c.column)) {
                    return Ok(out_row[i].clone());
                }
            }
        }
    }
    // Expression identical to a select item reuses the projected value
    // (covers `ORDER BY COUNT(*)` without recomputation).
    for (i, item) in s.items.iter().enumerate() {
        if let SelectItem::Expr { expr, .. } = item {
            if expr == key && i < out_row.len() {
                return Ok(out_row[i].clone());
            }
        }
    }
    match ctx {
        RowCtx::Row(row) => {
            let scope = Scope { bindings, row, outer };
            eval_row(cx, &scope, key)
        }
        RowCtx::Group(group) => eval_in_group(cx, bindings, group, outer, key),
    }
}

/// Computes output column names.
fn output_columns(bindings: &[Binding], s: &Select) -> ExecResult<Vec<String>> {
    let mut out = Vec::new();
    for item in &s.items {
        match item {
            SelectItem::Wildcard => {
                for b in bindings {
                    out.extend(b.columns.iter().cloned());
                }
                if bindings.is_empty() {
                    out.push("*".to_string());
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let tl = t.to_ascii_lowercase();
                match bindings.iter().find(|b| b.effective == tl) {
                    Some(b) => out.extend(b.columns.iter().cloned()),
                    None => return Err(ExecError::UnknownTable(t.clone())),
                }
            }
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => out.push(a.clone()),
                None => out.push(expr_name(expr)),
            },
        }
    }
    Ok(out)
}

fn expr_name(e: &Expr) -> String {
    match e {
        Expr::Column(c) => c.column.to_ascii_lowercase(),
        Expr::CountStar => "count(*)".to_string(),
        Expr::Function { name, args, .. } => match args.first() {
            Some(Expr::Column(c)) => format!("{}({})", name.to_ascii_lowercase(), c.column),
            _ => name.to_ascii_lowercase(),
        },
        _ => "expr".to_string(),
    }
}

fn expand_wildcard(
    item: &SelectItem,
    bindings: &[Binding],
    row: Option<&[Value]>,
    out: &mut Vec<Value>,
) {
    match item {
        SelectItem::Wildcard => {
            if let Some(row) = row {
                out.extend(row.iter().cloned());
            } else {
                for b in bindings {
                    out.extend(std::iter::repeat_n(Value::Null, b.columns.len()));
                }
            }
        }
        SelectItem::QualifiedWildcard(t) => {
            let tl = t.to_ascii_lowercase();
            if let Some(b) = bindings.iter().find(|b| b.effective == tl) {
                match row {
                    Some(row) => {
                        out.extend(row[b.offset..b.offset + b.columns.len()].iter().cloned())
                    }
                    None => out.extend(std::iter::repeat_n(Value::Null, b.columns.len())),
                }
            }
        }
        // INVARIANT: both call sites match on the item first and only
        // pass the two wildcard variants here.
        SelectItem::Expr { .. } => unreachable!("expand_wildcard called on expression item"),
    }
}

/// Builds the joined row set for a FROM clause. Inner equi-joins on column
/// pairs use a hash join; everything else falls back to nested loops.
fn build_from(
    cx: &Exec<'_>,
    from: &FromClause,
    outer: Option<&Scope<'_>>,
) -> ExecResult<(Vec<Binding>, Vec<Vec<Value>>)> {
    let base = cx.db.table(&from.base.name)?;
    let mut bindings = vec![Binding {
        effective: from.base.effective_name().to_ascii_lowercase(),
        columns: base.def.columns.iter().map(|c| c.name.to_ascii_lowercase()).collect(),
        offset: 0,
    }];
    let mut rows: Vec<Vec<Value>> = base.rows.clone();
    for join in &from.joins {
        let right = cx.db.table(&join.table.name)?;
        let right_cols: Vec<String> =
            right.def.columns.iter().map(|c| c.name.to_ascii_lowercase()).collect();
        let offset = bindings.last().map(|b| b.offset + b.columns.len()).unwrap_or(0);
        let right_binding = Binding {
            effective: join.table.effective_name().to_ascii_lowercase(),
            columns: right_cols.clone(),
            offset,
        };
        // Duplicate effective names make every later reference ambiguous;
        // report early with a clear message.
        if bindings.iter().any(|b| b.effective == right_binding.effective) {
            return Err(ExecError::AmbiguousColumn(format!(
                "duplicate table name or alias {} in FROM",
                right_binding.effective
            )));
        }
        match join.join_type {
            JoinType::Cross => {
                let mut out = Vec::new();
                for l in &rows {
                    for r in &right.rows {
                        let mut combined = l.clone();
                        combined.extend(r.iter().cloned());
                        out.push(combined);
                    }
                }
                // A dangling ON on a comma-join behaves like a filter-less
                // cartesian product; an explicit ON filters.
                bindings.push(right_binding);
                rows = out;
                if let Some(on) = &join.on {
                    let mut kept = Vec::with_capacity(rows.len());
                    for row in rows {
                        let scope = Scope { bindings: &bindings, row: &row, outer };
                        let v = eval_row(cx, &scope, on)?;
                        if !v.is_null() && v.is_truthy() {
                            kept.push(row);
                        }
                    }
                    rows = kept;
                }
                continue;
            }
            JoinType::Inner | JoinType::Left | JoinType::Right => {
                let on = join.on.as_ref().ok_or_else(|| {
                    ExecError::DanglingJoin(join.table.effective_name().to_string())
                })?;
                // Try the hash-join fast path for a simple equi-join.
                let fast = equi_join_indices(on, &bindings, &right_binding);
                let joined = match fast {
                    Some((li, ri)) if join.join_type == JoinType::Inner => {
                        hash_inner_join(&rows, &right.rows, li, ri - offset)
                    }
                    _ => nested_join(
                        cx,
                        &rows,
                        &right.rows,
                        &bindings,
                        &right_binding,
                        on,
                        join.join_type,
                        outer,
                    )?,
                };
                bindings.push(right_binding);
                rows = joined;
            }
        }
    }
    Ok((bindings, rows))
}

/// Recognises `left.col = right.col` ON conditions; returns (left row
/// index, absolute right index).
fn equi_join_indices(
    on: &Expr,
    left_bindings: &[Binding],
    right: &Binding,
) -> Option<(usize, usize)> {
    let Expr::Binary { op: BinaryOp::Eq, left, right: r } = on else {
        return None;
    };
    let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), r.as_ref()) else {
        return None;
    };
    let resolve = |c: &ColumnRef| -> Option<(bool, usize)> {
        // Returns (is_right_side, absolute index).
        let tl = c.table.as_ref()?.to_ascii_lowercase();
        if right.effective == tl {
            return right
                .columns
                .iter()
                .position(|n| n.eq_ignore_ascii_case(&c.column))
                .map(|i| (true, right.offset + i));
        }
        for bnd in left_bindings {
            if bnd.effective == tl {
                return bnd
                    .columns
                    .iter()
                    .position(|n| n.eq_ignore_ascii_case(&c.column))
                    .map(|i| (false, bnd.offset + i));
            }
        }
        None
    };
    let (sa, ia) = resolve(a)?;
    let (sb, ib) = resolve(b)?;
    match (sa, sb) {
        (false, true) => Some((ia, ib)),
        (true, false) => Some((ib, ia)),
        _ => None,
    }
}

fn hash_inner_join(
    left: &[Vec<Value>],
    right: &[Vec<Value>],
    left_idx: usize,
    right_local_idx: usize,
) -> Vec<Vec<Value>> {
    let mut table: HashMap<GroupKey, Vec<usize>> = HashMap::new();
    for (i, r) in right.iter().enumerate() {
        if r[right_local_idx].is_null() {
            continue;
        }
        table.entry(r[right_local_idx].group_key()).or_default().push(i);
    }
    let mut out = Vec::new();
    for l in left {
        if l[left_idx].is_null() {
            continue;
        }
        if let Some(matches) = table.get(&l[left_idx].group_key()) {
            for &ri in matches {
                let mut combined = l.clone();
                combined.extend(right[ri].iter().cloned());
                out.push(combined);
            }
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn nested_join(
    cx: &Exec<'_>,
    left: &[Vec<Value>],
    right: &[Vec<Value>],
    left_bindings: &[Binding],
    right_binding: &Binding,
    on: &Expr,
    join_type: JoinType,
    outer: Option<&Scope<'_>>,
) -> ExecResult<Vec<Vec<Value>>> {
    let mut all_bindings: Vec<Binding> = left_bindings.to_vec();
    all_bindings.push(right_binding.clone());
    let right_width = right_binding.columns.len();
    let left_width = right_binding.offset;
    let mut out = Vec::new();
    let mut right_matched = vec![false; right.len()];
    for l in left {
        let mut matched = false;
        for (ri, r) in right.iter().enumerate() {
            let mut combined = l.clone();
            combined.extend(r.iter().cloned());
            let scope = Scope { bindings: &all_bindings, row: &combined, outer };
            let v = eval_row(cx, &scope, on)?;
            if !v.is_null() && v.is_truthy() {
                matched = true;
                right_matched[ri] = true;
                out.push(combined);
            }
        }
        if !matched && join_type == JoinType::Left {
            let mut combined = l.clone();
            combined.extend(std::iter::repeat_n(Value::Null, right_width));
            out.push(combined);
        }
    }
    if join_type == JoinType::Right {
        for (ri, r) in right.iter().enumerate() {
            if !right_matched[ri] {
                let mut combined: Vec<Value> =
                    std::iter::repeat_n(Value::Null, left_width).collect();
                combined.extend(r.iter().cloned());
                out.push(combined);
            }
        }
    }
    Ok(out)
}
