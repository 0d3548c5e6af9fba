//! Fixture-driven tests: each lint family has one violation fixture
//! (every rule fires) and one clean fixture (the sanctioned forms are
//! quiet), plus the synthetic-field drill against the *real*
//! `FinSqlConfig` proving the fingerprint gate would catch a new
//! un-fingerprinted knob.

use finlint::callgraph::CallGraph;
use finlint::lints::{self, Finding, Lint};
use finlint::source::SourceFile;
use finlint::symbols::SymbolTable;
use std::path::Path;

fn fixture(name: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    SourceFile::parse(&format!("fixtures/{name}"), "fixture", &text)
}

/// Builds the interprocedural context for one fixture and runs a graph
/// family over it.
fn graph_check(
    name: &str,
    run: impl Fn(&[SourceFile], &SymbolTable, &CallGraph) -> Vec<Finding>,
) -> Vec<Finding> {
    let files = vec![fixture(name)];
    let symbols = SymbolTable::build(&files);
    let graph = CallGraph::build(&files, &symbols);
    run(&files, &symbols, &graph)
}

#[test]
fn determinism_violation_fires_every_rule() {
    let f = lints::determinism::check(&fixture("determinism_violation.rs"));
    let lints_hit: Vec<Lint> = f.iter().map(|f| f.lint).collect();
    assert!(lints_hit.contains(&Lint::HashIteration), "{f:#?}");
    assert!(lints_hit.contains(&Lint::FloatReduction), "{f:#?}");
    assert!(lints_hit.contains(&Lint::UnstableFloatSort), "{f:#?}");
    assert_eq!(f.len(), 3, "{f:#?}");
}

#[test]
fn determinism_clean_is_quiet() {
    let f = lints::determinism::check(&fixture("determinism_clean.rs"));
    assert!(f.is_empty(), "{f:#?}");
}

/// The fingerprint fixtures' allowlist: `log_level` stands in for a
/// config field proven answer-neutral.
fn fingerprint_fixture_check(name: &str) -> Vec<Finding> {
    lints::fingerprint::check_named(
        &fixture(name),
        "FinSqlConfig",
        "fingerprint_config",
        "config",
        &["log_level"],
    )
}

#[test]
fn fingerprint_violation_flags_the_uncovered_field() {
    let f = fingerprint_fixture_check("fingerprint_violation.rs");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(f[0].message.contains("synthetic_knob"), "{f:#?}");
}

#[test]
fn fingerprint_clean_is_quiet() {
    let f = fingerprint_fixture_check("fingerprint_clean.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn runtime_epoch_violation_flags_the_unstamped_field() {
    let f = lints::fingerprint::check_runtime(&fixture("runtime_epoch_violation.rs"));
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(f[0].message.contains("tick_buffer"), "{f:#?}");
}

#[test]
fn runtime_epoch_clean_is_quiet() {
    let f = lints::fingerprint::check_runtime(&fixture("runtime_epoch_clean.rs"));
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn panic_violation_flags_each_site() {
    let f = lints::panics::check(&fixture("panic_violation.rs"));
    assert_eq!(f.len(), 3, "{f:#?}");
    assert!(f.iter().all(|f| f.lint == Lint::PanicHygiene));
}

#[test]
fn panic_clean_is_quiet() {
    let f = lints::panics::check(&fixture("panic_clean.rs"));
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn locks_violation_flags_nesting_and_unlooped_wait() {
    let f = lints::locks::check(&fixture("locks_violation.rs"));
    let lints_hit: Vec<Lint> = f.iter().map(|f| f.lint).collect();
    assert!(lints_hit.contains(&Lint::NestedLock), "{f:#?}");
    assert!(lints_hit.contains(&Lint::WaitNotInLoop), "{f:#?}");
    assert_eq!(f.len(), 2, "{f:#?}");
}

#[test]
fn locks_clean_is_quiet() {
    let f = lints::locks::check(&fixture("locks_clean.rs"));
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn lockorder_violation_reports_both_directions() {
    let f = graph_check("lockorder_violation.rs", lints::lockorder::check);
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(f.iter().all(|x| x.lint == Lint::LockOrder), "{f:#?}");
}

#[test]
fn lockorder_clean_is_quiet() {
    let f = graph_check("lockorder_clean.rs", lints::lockorder::check);
    assert!(f.is_empty(), "{f:#?}");
}

fn hotpath_config() -> lints::hotpath::Config {
    lints::hotpath::Config {
        roots: vec!["fixture::run".to_string()],
        boundaries: vec!["answer_fresh".to_string()],
    }
}

#[test]
fn hotpath_violation_flags_direct_and_transitive_allocs() {
    let f = graph_check("hotpath_violation.rs", |fi, s, g| {
        lints::hotpath::check(fi, s, g, &hotpath_config())
    });
    assert_eq!(f.len(), 3, "{f:#?}");
    assert!(f.iter().all(|x| x.lint == Lint::HotPathAlloc), "{f:#?}");
    // One of the three is the transitive hit inside `render`.
    assert!(f.iter().any(|x| x.message.contains("fixture::render")), "{f:#?}");
}

#[test]
fn hotpath_clean_is_quiet() {
    let f = graph_check("hotpath_clean.rs", |fi, s, g| {
        lints::hotpath::check(fi, s, g, &hotpath_config())
    });
    assert!(f.is_empty(), "{f:#?}");
}

fn blocking_config() -> lints::blocking::Config {
    lints::blocking::Config {
        roots: vec!["fixture::run".to_string()],
        blocking_fns: vec!["fixture::Sched::shutdown".to_string()],
    }
}

#[test]
fn blocking_violation_flags_pattern_and_declared_sinks() {
    let f = graph_check("blocking_violation.rs", |fi, s, g| {
        lints::blocking::check(fi, s, g, &blocking_config())
    });
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(f.iter().all(|x| x.lint == Lint::BlockingInDriver), "{f:#?}");
    assert!(f.iter().any(|x| x.message.contains(".recv")), "{f:#?}");
    assert!(f.iter().any(|x| x.message.contains("`shutdown` blocks")), "{f:#?}");
}

#[test]
fn blocking_clean_is_quiet() {
    let f = graph_check("blocking_clean.rs", |fi, s, g| {
        lints::blocking::check(fi, s, g, &blocking_config())
    });
    assert!(f.is_empty(), "{f:#?}");
}

/// The acceptance drill: take the real `crates/core/src/pipeline.rs`,
/// add a synthetic config field without touching `fingerprint_config`,
/// and prove the lint fails — i.e. a future knob cannot land silently.
#[test]
fn synthetic_field_in_real_config_fails_the_lint() {
    let pipeline = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src/pipeline.rs");
    let text = std::fs::read_to_string(&pipeline).expect("read core pipeline source");

    // Unmodified source is clean.
    let clean = SourceFile::parse("crates/core/src/pipeline.rs", "core", &text);
    let f = lints::fingerprint::check(&clean);
    assert!(f.is_empty(), "real FinSqlConfig must be fully covered: {f:#?}");

    // Inject `pub synthetic_knob: usize,` as the first field.
    let struct_open = text.find("pub struct FinSqlConfig {").expect("config struct present");
    let insert_at = text[struct_open..].find('\n').expect("newline after struct opener")
        + struct_open
        + 1;
    let mut patched = text.clone();
    patched.insert_str(insert_at, "    pub synthetic_knob: usize,\n");
    let dirty = SourceFile::parse("crates/core/src/pipeline.rs", "core", &patched);
    let f = lints::fingerprint::check(&dirty);
    assert_eq!(f.len(), 1, "exactly the synthetic field must be flagged: {f:#?}");
    assert!(f[0].message.contains("synthetic_knob"), "{f:#?}");
}

/// Same drill for the data-state half of the key: add a synthetic
/// `DbRuntime` field to the *real* pipeline source without stamping it
/// into `config_fingerprint` or the runtime allowlist, and prove the
/// runtime-coverage pass fails — a field that could carry un-epoched
/// data state cannot land silently.
#[test]
fn synthetic_field_in_real_runtime_fails_the_lint() {
    let pipeline = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src/pipeline.rs");
    let text = std::fs::read_to_string(&pipeline).expect("read core pipeline source");

    // Unmodified source is clean: db/plugin/epoch are fingerprinted,
    // everything else is an allowlisted pure-derived artifact.
    let clean = SourceFile::parse("crates/core/src/pipeline.rs", "core", &text);
    let f = lints::fingerprint::check_runtime(&clean);
    assert!(f.is_empty(), "real DbRuntime must be fully covered: {f:#?}");

    let struct_open = text.find("pub struct DbRuntime {").expect("runtime struct present");
    let insert_at = text[struct_open..].find('\n').expect("newline after struct opener")
        + struct_open
        + 1;
    let mut patched = text.clone();
    patched.insert_str(insert_at, "    pub tick_buffer: usize,\n");
    let dirty = SourceFile::parse("crates/core/src/pipeline.rs", "core", &patched);
    let f = lints::fingerprint::check_runtime(&dirty);
    assert_eq!(f.len(), 1, "exactly the synthetic field must be flagged: {f:#?}");
    assert!(f[0].message.contains("tick_buffer"), "{f:#?}");
}

/// The lock-order acceptance drill: parse the *real* `batch.rs` and
/// `cache.rs`, assert the shipped pair is cycle-free, then append
/// functions holding the scheduler queue lock while taking a cache
/// shard lock — and a cache-side path ordering them the other way
/// round — and prove the interprocedural lint fails on both sides.
#[test]
fn synthetic_lock_inversion_in_real_batch_and_cache_fails_the_lint() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src");
    let batch = std::fs::read_to_string(dir.join("batch.rs")).expect("read core batch source");
    let cache = std::fs::read_to_string(dir.join("cache.rs")).expect("read core cache source");
    let run = |batch: &str, cache: &str| {
        let files = vec![
            SourceFile::parse("crates/core/src/batch.rs", "core", batch),
            SourceFile::parse("crates/core/src/cache.rs", "core", cache),
        ];
        let symbols = SymbolTable::build(&files);
        let graph = CallGraph::build(&files, &symbols);
        lints::lockorder::check(&files, &symbols, &graph)
    };
    let clean = run(&batch, &cache);
    assert!(clean.is_empty(), "real batch/cache pair must be cycle-free: {clean:#?}");

    // queue side: hold `state` (the scheduler queue lock), take a shard.
    let batch_dirty = format!(
        "{batch}\nimpl Queue {{\n    fn drill_forward(&self, cache: &AnswerCache, n: u32) {{\n        \
         let g = self.state.lock();\n        cache.drill_probe(n);\n    }}\n    \
         fn drill_wake(&self, n: u32) {{\n        let g = self.state.lock();\n        let _ = (g, n);\n    }}\n}}\n"
    );
    // cache side: hold a shard, call back into the queue lock.
    let cache_dirty = format!(
        "{cache}\nimpl AnswerCache {{\n    fn drill_probe(&self, n: u32) {{\n        \
         let g = self.shards[0].lock();\n        let _ = (g, n);\n    }}\n    \
         fn drill_reverse(&self, queue: &Queue, n: u32) {{\n        \
         let g = self.shards[0].lock();\n        queue.drill_wake(n);\n    }}\n}}\n"
    );
    let f = run(&batch_dirty, &cache_dirty);
    assert!(
        f.iter().any(|x| x.lint == Lint::LockOrder && x.path.ends_with("batch.rs")),
        "the state→shards direction must be reported in batch.rs: {f:#?}"
    );
    assert!(
        f.iter().any(|x| x.lint == Lint::LockOrder && x.path.ends_with("cache.rs")),
        "the shards→state direction must be reported in cache.rs: {f:#?}"
    );
}

/// Satellite: `--update-baseline` round-trip. Baseline a dirty file's
/// findings, reload, and assert the baseline suppresses exactly those
/// findings and nothing else.
#[test]
fn update_baseline_round_trip_suppresses_current_findings() {
    let src = "pub fn one(x: Option<u32>) -> u32 { x.unwrap() }\n\
               pub fn two(x: Option<u32>) -> u32 { x.expect(\"t\") }\n";
    let file = SourceFile::parse("crates/x/src/lib.rs", "x", src);
    let findings = finlint::check_file(&file);
    assert_eq!(findings.len(), 2, "fixture should trip panic hygiene twice: {findings:#?}");

    let dir = std::env::temp_dir().join("finlint-update-baseline-test");
    std::fs::create_dir_all(&dir).expect("mkdir temp baseline dir");
    let path = dir.join("roundtrip.baseline");
    std::fs::write(&path, finlint::baseline::render(&findings)).expect("write baseline");
    let loaded = finlint::baseline::load(&path).expect("reload baseline");

    assert_eq!(loaded.len(), findings.len());
    assert!(findings.iter().all(|f| loaded.suppresses(f)), "{findings:#?}");
    // A finding the baseline never saw stays live.
    let other = SourceFile::parse("crates/x/src/lib.rs", "x", "pub fn three() { panic!(\"x\") }\n");
    let fresh = finlint::check_file(&other);
    assert_eq!(fresh.len(), 1, "{fresh:#?}");
    assert!(!loaded.suppresses(&fresh[0]), "{fresh:#?}");
}
