//! The lint families and their shared finding model: the four original
//! line-level families plus the three interprocedural families built on
//! the workspace call graph ([`crate::symbols`], [`crate::callgraph`]).

pub mod blocking;
pub mod determinism;
pub mod fingerprint;
pub mod hotpath;
pub mod lockorder;
pub mod locks;
pub mod panics;

use crate::source::SourceFile;

/// Stable identifier of one lint rule, used in reports and baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Iterating a `HashMap`/`HashSet` in answer-affecting code.
    HashIteration,
    /// Float (or untyped) `.sum()`/`.product()` reductions.
    FloatReduction,
    /// `sort_unstable*` over float keys.
    UnstableFloatSort,
    /// `FinSqlConfig` field neither fingerprinted nor allowlisted.
    FingerprintCoverage,
    /// `unwrap`/`expect`/`panic!`-family without an `// INVARIANT:`.
    PanicHygiene,
    /// A second lock acquired while a shard-lock guard is live.
    NestedLock,
    /// `Condvar::wait` not re-checked inside a `while`/`loop`.
    WaitNotInLoop,
    /// A lock acquired while holding another in an order that forms a
    /// cycle somewhere in the workspace lock-order graph.
    LockOrder,
    /// An allocation inside the call-graph closure of the hot roots.
    HotPathAlloc,
    /// A blocking call inside the call-graph closure of the
    /// non-blocking driver loop.
    BlockingInDriver,
}

impl Lint {
    /// The report identifier, `family/rule`.
    pub fn id(self) -> &'static str {
        match self {
            Lint::HashIteration => "determinism/hash-iteration",
            Lint::FloatReduction => "determinism/float-reduction",
            Lint::UnstableFloatSort => "determinism/unstable-float-sort",
            Lint::FingerprintCoverage => "fingerprint/coverage",
            Lint::PanicHygiene => "panic/hygiene",
            Lint::NestedLock => "lock/nested",
            Lint::WaitNotInLoop => "lock/wait-not-in-loop",
            Lint::LockOrder => "lock/order-cycle",
            Lint::HotPathAlloc => "hotpath/alloc",
            Lint::BlockingInDriver => "driver/blocking",
        }
    }

    /// The justification tag that silences the lint at a specific site,
    /// if the family admits one.
    pub fn justification(self) -> Option<&'static str> {
        match self {
            Lint::HashIteration | Lint::FloatReduction | Lint::UnstableFloatSort => {
                Some("finlint: ordered")
            }
            Lint::PanicHygiene | Lint::NestedLock => Some("INVARIANT:"),
            Lint::FingerprintCoverage | Lint::WaitNotInLoop => None,
            Lint::LockOrder => Some(lockorder::TAG),
            Lint::HotPathAlloc => Some(hotpath::TAG),
            Lint::BlockingInDriver => Some(blocking::TAG),
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub lint: Lint,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
    /// The trimmed source line, for baseline matching and the report.
    pub excerpt: String,
}

impl Finding {
    pub fn at(lint: Lint, file: &SourceFile, line0: usize, message: String) -> Finding {
        Finding {
            lint,
            path: file.rel_path.clone(),
            line: line0 + 1,
            message,
            excerpt: file.raw.get(line0).map_or(String::new(), |l| l.trim().to_string()),
        }
    }
}
