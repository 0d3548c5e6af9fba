//! Determinism lints: the answer path must be a pure function of
//! `(question, database, config)` — no iteration order, float fold order
//! or tie-breaking may depend on process-level randomness.
//!
//! Three rules, scoped to the answer-affecting crates:
//!
//! 1. **hash-iteration** — iterating a `HashMap`/`HashSet` (`for … in`,
//!    `.iter()`, `.keys()`, `.values()`, `.into_iter()`, `.drain()`)
//!    observes `RandomState` order, which differs per process. Sites
//!    whose result is genuinely order-independent (counts, sums into
//!    order-insensitive structures, maps drained into a sorted `Vec`)
//!    carry a `// finlint: ordered` justification saying why.
//! 2. **float-reduction** — `.sum()`/`.product()` folds: float addition
//!    is non-associative, so the fold order must be fixed and asserted
//!    with `// finlint: ordered`. Integer reductions are exempt, but the
//!    element type must be visible on the line (a `::<uNN/iNN/usize>`
//!    turbofish or an integer annotation) — an untyped `.sum()` is
//!    flagged until the type is spelled out.
//! 3. **unstable-float-sort** — `sort_unstable*` with a float key
//!    (`partial_cmp`/`total_cmp`/`f32`/`f64` on the line): equal keys
//!    come out in an unspecified order, so the comparator must be a
//!    total order over the *element* (not just the key) or the site must
//!    justify why ties are impossible.

use super::{Finding, Lint};
use crate::source::{ident_before, SourceFile};

const ORDERED: &str = "finlint: ordered";

/// Method calls that observe a hash collection's iteration order.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".into_iter()",
    ".keys()",
    ".into_keys()",
    ".values()",
    ".values_mut()",
    ".into_values()",
    ".drain(",
];

/// Integer turbofish types whose `.sum()` is order-independent.
const INT_TYPES: &[&str] = &[
    "usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32", "i64", "i128",
];

pub fn check(file: &SourceFile) -> Vec<Finding> {
    let tracked = hash_bindings(file);
    let mut out = Vec::new();
    for i in 0..file.masked.len() {
        if file.in_test[i] {
            continue;
        }
        let code = file.code(i).to_string();
        hash_iteration(file, i, &code, &tracked, &mut out);
        float_reduction(file, i, &code, &mut out);
        unstable_float_sort(file, i, &code, &mut out);
    }
    out
}

/// Collects identifiers bound to `HashMap`/`HashSet` values in this
/// file: `let` bindings (by annotation or initializer), struct fields
/// and fn parameters (`name: …HashMap<…>`). Tracking is name-based and
/// file-local — a line-level approximation that errs toward flagging.
fn hash_bindings(file: &SourceFile) -> Vec<String> {
    let mut names = Vec::new();
    let is_hashy = |s: &str| {
        s.contains("HashMap<")
            || s.contains("HashSet<")
            || s.contains("HashMap::")
            || s.contains("HashSet::")
    };
    for i in 0..file.masked.len() {
        if file.in_test[i] {
            continue;
        }
        let code = file.code(i);
        let trimmed = code.trim_start();
        // `let` with an initializer that names the type (the annotation
        // form is also caught by the colon scan below). Join the
        // statement in case the initializer continues on later lines.
        if let Some(rest) = trimmed.strip_prefix("let ") {
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            let name: String =
                rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if !name.is_empty() {
                let mut stmt = code.to_string();
                let mut j = i;
                while !stmt.contains(';') && !stmt.contains('{') && j + 1 < file.masked.len() && j - i < 8 {
                    j += 1;
                    stmt.push(' ');
                    stmt.push_str(file.code(j));
                }
                // A `{` opens a block/struct initializer: anything past it
                // (e.g. a nested `let idx: HashMap<…>` inside an `if`
                // block) describes a different binding, not this one.
                let stmt = stmt.split('{').next().unwrap_or(&stmt);
                if is_hashy(stmt) {
                    names.push(name);
                }
            }
        }
        // Annotation form anywhere on the line (fields, params, lets):
        // for each `HashMap<`/`HashSet<`, walk left to the single `:`
        // that annotates it and take the identifier before it.
        for needle in ["HashMap<", "HashSet<"] {
            let mut from = 0usize;
            while let Some(p) = code[from..].find(needle) {
                let pos = from + p;
                from = pos + needle.len();
                if let Some(name) = annotated_ident(code, pos) {
                    names.push(name);
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Walks left from a type position to the `name:` annotating it. Aborts
/// on any structural char (`>` `)` `,` `(` `{` `;` `=`) so a return-type
/// `-> HashMap<..>` or a bare expression does not bind a name, and skips
/// `::` path separators.
fn annotated_ident(code: &str, type_pos: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = type_pos;
    while i > 0 {
        i -= 1;
        match bytes[i] {
            b':' => {
                if i > 0 && bytes[i - 1] == b':' {
                    i -= 1; // path separator, keep walking
                    continue;
                }
                let head = code[..i].trim_end();
                let name: String = head
                    .chars()
                    .rev()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                return if name.is_empty() || name.chars().next().is_some_and(|c| c.is_numeric()) {
                    None
                } else {
                    Some(name)
                };
            }
            b'>' | b')' | b',' | b'(' | b'{' | b';' | b'=' => return None,
            _ => {}
        }
    }
    None
}

fn hash_iteration(
    file: &SourceFile,
    i: usize,
    code: &str,
    tracked: &[String],
    out: &mut Vec<Finding>,
) {
    let mut hit: Option<String> = None;
    for m in ITER_METHODS {
        let mut from = 0usize;
        while let Some(p) = code[from..].find(m) {
            let pos = from + p;
            if let Some(recv) = ident_before(code, pos) {
                if tracked.iter().any(|t| t == recv) {
                    hit = Some(format!("{recv}{}", m.trim_end_matches('(')));
                }
            }
            from = pos + m.len();
        }
    }
    // `for x in map` / `for x in &map` / `for x in &self.map`: the
    // method forms are covered above; catch the bare-path form.
    if hit.is_none() && code.trim_start().starts_with("for ") {
        if let Some(p) = code.find(" in ") {
            let tail = code[p + 4..].trim_start().trim_start_matches('&');
            let tail = tail.trim_start_matches("mut ");
            let path: String =
                tail.chars().take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '.').collect();
            let after = &tail[path.len()..];
            let is_bare = after.trim_start().starts_with('{') || after.trim().is_empty();
            let name = path.rsplit('.').next().unwrap_or("");
            if is_bare && tracked.iter().any(|t| t == name) {
                hit = Some(format!("for … in {path}"));
            }
        }
    }
    if let Some(what) = hit {
        if !file.justified(i, ORDERED) {
            out.push(Finding::at(
                Lint::HashIteration,
                file,
                i,
                format!(
                    "`{what}` iterates a HashMap/HashSet in answer-affecting code; \
                     iteration order is per-process random. Sort the results or justify \
                     order-independence with `// finlint: ordered — <why>`"
                ),
            ));
        }
    }
}

fn float_reduction(file: &SourceFile, i: usize, code: &str, out: &mut Vec<Finding>) {
    for needle in [".sum", ".product"] {
        let mut from = 0usize;
        while let Some(p) = code[from..].find(needle) {
            let pos = from + p;
            from = pos + needle.len();
            let after = &code[pos + needle.len()..];
            // `.sum()` or `.sum::<T>()`; skip `.sum_of` style idents.
            let turbofish = after.strip_prefix("::<");
            if !(after.starts_with('(') || turbofish.is_some()) {
                continue;
            }
            if let Some(t) = turbofish {
                let ty: String =
                    t.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
                if INT_TYPES.contains(&ty.as_str()) {
                    continue; // integer fold: order-independent
                }
            } else if !code.contains("f32") && !code.contains("f64") {
                // No turbofish and no float annotation in sight: the
                // element type is invisible at this site. Require it to
                // be spelled out (or justified) so integer sums are
                // provably integer.
                if !file.justified(i, ORDERED) {
                    out.push(Finding::at(
                        Lint::FloatReduction,
                        file,
                        i,
                        format!(
                            "untyped `{needle}()` in answer-affecting code: spell the element \
                             type (`{needle}::<usize>()` for integers) or justify the fold \
                             order with `// finlint: ordered — <why>`"
                        ),
                    ));
                }
                continue;
            }
            // Float fold (float turbofish or f32/f64 annotation).
            if !file.justified(i, ORDERED) {
                out.push(Finding::at(
                    Lint::FloatReduction,
                    file,
                    i,
                    format!(
                        "float `{needle}()` fold in answer-affecting code: float addition is \
                         non-associative, so the fold order must be fixed — justify with \
                         `// finlint: ordered — <why the iteration order is deterministic>`"
                    ),
                ));
            }
        }
    }
}

fn unstable_float_sort(file: &SourceFile, i: usize, code: &str, out: &mut Vec<Finding>) {
    if !code.contains("sort_unstable") {
        return;
    }
    let floaty = code.contains("partial_cmp")
        || code.contains("total_cmp")
        || code.contains("f32")
        || code.contains("f64");
    if floaty && !file.justified(i, ORDERED) {
        out.push(Finding::at(
            Lint::UnstableFloatSort,
            file,
            i,
            "`sort_unstable*` over float keys in answer-affecting code: equal keys come out \
             in unspecified order. Use a total order over the element, a stable sort, or \
             justify tie-impossibility with `// finlint: ordered — <why>`"
                .to_string(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        check(&SourceFile::parse("x.rs", "k", src))
    }

    #[test]
    fn flags_hashmap_iteration() {
        let f = findings("let mut m: HashMap<String, u32> = HashMap::new();\nfor (k, v) in m.iter() { use_it(k, v); }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::HashIteration);
    }

    #[test]
    fn justified_iteration_is_quiet() {
        let f = findings("let m = HashMap::<u32, u32>::new();\n// finlint: ordered — count only\nlet n = m.keys().count();\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn lookups_are_not_iteration() {
        let f = findings("let mut m: HashMap<u32, u32> = HashMap::new();\nm.insert(1, 2);\nlet v = m.get(&1);\nlet has = m.contains_key(&1);\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn flags_untyped_and_float_sums_not_integer() {
        let f = findings("let a: f32 = xs.iter().map(|x| x * x).sum();\n");
        assert_eq!(f.len(), 1, "{f:?}");
        let f = findings("let a = xs.iter().map(Vec::len).sum::<usize>();\n");
        assert!(f.is_empty(), "{f:?}");
        let f = findings("let a = xs.iter().map(|x| x.n).sum();\n");
        assert_eq!(f.len(), 1, "untyped sum must be flagged: {f:?}");
    }

    #[test]
    fn flags_unstable_float_sort_only() {
        let f = findings("v.sort_unstable_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Less));\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::UnstableFloatSort);
        let f = findings("v.sort_unstable_by_key(|(i, _)| *i);\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn nested_hash_binding_does_not_taint_outer_vec() {
        // The HashMap inside the block initializer binds `index`, not
        // `groups`; iterating the Vec must stay quiet.
        let src = "let groups: Vec<Vec<u32>> = {\n    let mut index: HashMap<u32, usize> = HashMap::new();\n    index.insert(1, 0);\n    Vec::new()\n};\nfor group in groups { use_it(group); }\n";
        let f = findings(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let f = findings("#[cfg(test)]\nmod tests {\n    fn t() { let m: HashMap<u8,u8> = HashMap::new(); for x in m.iter() {} }\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }
}
