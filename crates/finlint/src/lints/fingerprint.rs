//! Fingerprint-coverage lint: every `FinSqlConfig` field must be pushed
//! into `fingerprint_config`, or sit in the explicit
//! [`NOT_FINGERPRINTED`] allowlist with a proven reason. This turns the
//! PR 4 proptest convention ("toggling a non-answer knob keeps cache
//! keys") into a compile-gate: adding a config knob without deciding its
//! fingerprint status fails the lint.
//!
//! A second pass ([`check_runtime`]) applies the same rule to the
//! *data-state* half of the cache key: every `DbRuntime` field must
//! either feed `config_fingerprint` (like the plugin identity and the
//! [`sqlengine::DataEpoch`]) or sit in [`RUNTIME_NOT_FINGERPRINTED`]
//! with a written proof that it is a pure function of already-
//! fingerprinted state. Adding a runtime field that carries fresh data
//! state without stamping it into the fingerprint is exactly the bug
//! that lets a stale cache entry survive a live append — this lint makes
//! that a build failure instead of a silent wrong answer.

use super::{Finding, Lint};
use crate::source::SourceFile;

/// Fields that are *proven* not to affect answers and therefore legally
/// absent from the fingerprint. Each entry needs a property test pinning
/// the claim down (see `crates/core/tests/fingerprint_prop.rs`). Empty:
/// every `FinSqlConfig` field can change an answer, so every field is
/// fingerprinted.
pub const NOT_FINGERPRINTED: &[&str] = &[];

/// `DbRuntime` fields legally absent from `config_fingerprint` because
/// they are pure functions of state that *is* fingerprinted — rebuild
/// them from the same inputs and you get the same artifact, so they can
/// never make two fingerprint-equal systems answer differently:
///
/// - `schema`, `views`, `link_matrix`: derived from the immutable
///   database catalog (fixed per `DbId`, which is fingerprinted).
/// - `matrix`: derived from the plugin's prototypes (the plugin identity
///   is fingerprinted).
/// - `values`: derived from row data — covered by `epoch`, which
///   advances on every append (`FinSql::absorb_appends` refreshes both
///   together; `crates/core/tests/live_equality.rs` proves the pairing).
pub const RUNTIME_NOT_FINGERPRINTED: &[&str] =
    &["schema", "views", "values", "matrix", "link_matrix"];

/// Checks fingerprint coverage of the config struct/fn in `file` (the
/// real pass hands this `crates/core/src/pipeline.rs`; fixture tests
/// hand it synthetic copies).
pub fn check(file: &SourceFile) -> Vec<Finding> {
    check_named(file, "FinSqlConfig", "fingerprint_config", "config", NOT_FINGERPRINTED)
}

/// Checks data-state fingerprint coverage: every `DbRuntime` field is
/// either accessed in `config_fingerprint` (as `rt.<field>`) or
/// allowlisted in [`RUNTIME_NOT_FINGERPRINTED`].
pub fn check_runtime(file: &SourceFile) -> Vec<Finding> {
    check_named(file, "DbRuntime", "config_fingerprint", "rt", RUNTIME_NOT_FINGERPRINTED)
}

/// [`check`] with configurable struct/fn/accessor names and allowlist,
/// for the runtime pass and for fixtures.
pub fn check_named(
    file: &SourceFile,
    struct_name: &str,
    fn_name: &str,
    accessor: &str,
    allowlist: &[&str],
) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some((fields, struct_line)) = struct_fields(file, struct_name) else {
        out.push(Finding {
            lint: Lint::FingerprintCoverage,
            path: file.rel_path.clone(),
            line: 1,
            message: format!("struct `{struct_name}` not found — fingerprint lint cannot run"),
            excerpt: String::new(),
        });
        return out;
    };
    let Some(body) = fn_body(file, fn_name) else {
        out.push(Finding {
            lint: Lint::FingerprintCoverage,
            path: file.rel_path.clone(),
            line: 1,
            message: format!("fn `{fn_name}` not found — fingerprint lint cannot run"),
            excerpt: String::new(),
        });
        return out;
    };
    for (name, line0) in &fields {
        let pushed = accesses_field(&body, accessor, name);
        let allowlisted = allowlist.contains(&name.as_str());
        if pushed && allowlisted {
            out.push(Finding::at(
                Lint::FingerprintCoverage,
                file,
                *line0,
                format!(
                    "`{struct_name}::{name}` is fingerprinted but also in the allowlist — \
                     remove the stale allowlist entry"
                ),
            ));
        } else if !pushed && !allowlisted {
            out.push(Finding::at(
                Lint::FingerprintCoverage,
                file,
                *line0,
                format!(
                    "`{struct_name}::{name}` is neither pushed in `{fn_name}` nor in the \
                     allowlist: an un-fingerprinted field silently reuses stale cache \
                     entries when it changes. Push it (fixed-width slot) or prove it \
                     answer-neutral and allowlist it"
                ),
            ));
        }
    }
    for entry in allowlist {
        if !fields.iter().any(|(n, _)| n == entry) {
            out.push(Finding::at(
                Lint::FingerprintCoverage,
                file,
                struct_line,
                format!(
                    "the allowlist names `{entry}`, which is not a `{struct_name}` \
                     field — remove the stale entry"
                ),
            ));
        }
    }
    out
}

/// True when `body` contains `<accessor>.<name>` with `<name>` as a
/// whole identifier (so field `cot` does not match `config.cot_x`, while
/// `rt.plugin` still matches through `rt.plugin.name`).
fn accesses_field(body: &str, accessor: &str, name: &str) -> bool {
    let needle = format!("{accessor}.{name}");
    let mut from = 0usize;
    while let Some(p) = body[from..].find(&needle) {
        let end = from + p + needle.len();
        let boundary = body[end..]
            .chars()
            .next()
            .is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        if boundary {
            return true;
        }
        from = end;
    }
    false
}

/// Field names (with 0-based lines) of the named struct: lines one brace
/// level inside the struct matching `pub? name: Type`.
fn struct_fields(file: &SourceFile, struct_name: &str) -> Option<(Vec<(String, usize)>, usize)> {
    let open = (0..file.masked.len()).find(|&i| {
        let c = file.code(i);
        !file.in_test[i] && c.contains(&format!("struct {struct_name}")) && c.contains('{')
    })?;
    let base = file.depth_at[open];
    let mut fields = Vec::new();
    let mut i = open + 1;
    while i < file.masked.len() && file.depth_at[i] > base {
        let code = file.code(i);
        // Only direct fields (depth base+1), not nested braces.
        if file.depth_at[i] == base + 1 {
            let t = code.trim_start();
            let t = t.strip_prefix("pub ").unwrap_or(t);
            if let Some(colon) = t.find(':') {
                let name = t[..colon].trim();
                if !name.is_empty()
                    && !t.starts_with('#')
                    && name.chars().all(|c| c.is_alphanumeric() || c == '_')
                {
                    fields.push((name.to_string(), i));
                }
            }
        }
        i += 1;
    }
    Some((fields, open))
}

/// The concatenated masked body of the named fn.
fn fn_body(file: &SourceFile, fn_name: &str) -> Option<String> {
    let sig = (0..file.masked.len()).find(|&i| {
        !file.in_test[i] && file.code(i).contains(&format!("fn {fn_name}("))
    })?;
    // Find the line the body opens on (the signature may span lines).
    let mut open = sig;
    while open < file.masked.len() && !file.code(open).contains('{') {
        open += 1;
    }
    let base = file.depth_at[open];
    let mut body = String::new();
    let mut i = open;
    loop {
        body.push_str(file.code(i));
        body.push(' ');
        let mut depth = file.depth_at[i];
        for c in file.code(i).chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        i += 1;
        if i >= file.masked.len() || (i > open && depth <= base) {
            break;
        }
    }
    Some(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    const COVERED: &str = "\
pub struct FinSqlConfig {
    pub k_tables: usize,
    pub log_level: u8,
}
pub fn fingerprint_config(b: FingerprintBuilder, config: &FinSqlConfig) -> FingerprintBuilder {
    b.push_usize(config.k_tables)
}
";

    /// The fixture's allowlist: `log_level` stands in for a field proven
    /// answer-neutral.
    const ALLOWLIST: &[&str] = &["log_level"];

    fn check_covered(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("p.rs", "core", src);
        check_named(&file, "FinSqlConfig", "fingerprint_config", "config", ALLOWLIST)
    }

    #[test]
    fn covered_struct_is_clean() {
        let f = check_covered(COVERED);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn missing_field_is_flagged() {
        let src = COVERED.replace("pub k_tables: usize,", "pub k_tables: usize,\n    pub rogue: u8,");
        let f = check_covered(&src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("rogue"));
    }

    #[test]
    fn allowlisted_but_pushed_is_stale() {
        let src = COVERED.replace(
            "b.push_usize(config.k_tables)",
            "b.push_usize(config.k_tables).push_usize(config.log_level as usize)",
        );
        let f = check_covered(&src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("stale"));
    }

    #[test]
    fn missing_struct_reports() {
        let f = check(&SourceFile::parse("p.rs", "core", "fn nothing() {}\n"));
        assert_eq!(f.len(), 1);
    }
}
