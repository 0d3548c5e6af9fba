//! In-memory spans recorded around the benchmark's calls into each
//! layer (traced runs only), and the per-workload breakdown built from
//! them.
//!
//! A root span covers one unit of work — a served request or a live
//! round — and its id is that unit's index. Child spans carry the root's
//! id as parent and request id, so the spans of one request share an
//! identifier even when two threads recorded them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The root this span belongs to (its own id for a root).
    pub req: u64,
    pub root: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. A disabled tracer records nothing and its
/// clock reads are skipped, so untraced runs pay only a branch.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin; 0 when tracing is off.
    pub fn now(&self) -> u64 {
        if self.on {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    pub fn child(&mut self, name: &'static str, req: u64, start_ns: u64, end_ns: u64) {
        if self.on {
            self.spans.push(Span {
                name,
                req,
                root: false,
                start_ns,
                end_ns,
            });
        }
    }

    pub fn root(&mut self, name: &'static str, req: u64, start_ns: u64, end_ns: u64) {
        if self.on {
            self.spans.push(Span {
                name,
                req,
                root: true,
                start_ns,
                end_ns,
            });
        }
    }
}

/// Mean time per root spent in each child span name, and the rest of
/// the root's time as `unattributed`.
pub struct Breakdown {
    pub root: &'static str,
    pub roots: usize,
    pub root_mean_ms: f64,
    /// (child name, mean ms per root, spans)
    pub parts: Vec<(&'static str, f64, usize)>,
    pub unattributed_ms: f64,
}

impl Breakdown {
    /// Only roots for which `keep(req)` holds (and their children) count.
    pub fn of(spans: &[Span], root: &'static str, keep: impl Fn(u64) -> bool) -> Breakdown {
        let mut roots = 0usize;
        let mut root_ns = 0u128;
        let mut parts: BTreeMap<&'static str, (u128, usize)> = BTreeMap::new();
        for s in spans.iter().filter(|s| keep(s.req)) {
            let d = u128::from(s.end_ns.saturating_sub(s.start_ns));
            if s.root {
                if s.name == root {
                    roots += 1;
                    root_ns += d;
                }
            } else {
                let e = parts.entry(s.name).or_default();
                e.0 += d;
                e.1 += 1;
            }
        }
        let per_root = |ns: u128| ns as f64 / 1e6 / roots.max(1) as f64;
        let parts: Vec<(&'static str, f64, usize)> = parts
            .into_iter()
            .map(|(n, (ns, c))| (n, per_root(ns), c))
            .collect();
        let attributed: f64 = parts.iter().map(|p| p.1).sum();
        Breakdown {
            root,
            roots,
            root_mean_ms: per_root(root_ns),
            unattributed_ms: per_root(root_ns) - attributed,
            parts,
        }
    }

    pub fn render(&self, workload: &str) -> String {
        let mut out = format!(
            "trace breakdown {workload}: mean per {} over {} {}s = {:.4} ms\n",
            self.root, self.roots, self.root, self.root_mean_ms
        );
        for (name, ms, n) in &self.parts {
            let _ = writeln!(out, "  {name:<32} {ms:>10.4} ms  ({n} spans)");
        }
        let _ = writeln!(
            out,
            "  {:<32} {:>10.4} ms",
            "unattributed", self.unattributed_ms
        );
        out
    }
}

/// Writes spans as tab-separated `req parent name start_ns end_ns` lines
/// (parent `-` for roots) to `path`.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("req\tparent\tname\tstart_ns\tend_ns\n");
    for s in spans {
        let parent = if s.root {
            "-".to_string()
        } else {
            s.req.to_string()
        };
        let _ = writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{}",
            s.req, s.name, s.start_ns, s.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_attributes_children_and_keeps_the_remainder() {
        let spans = [
            Span {
                name: "request",
                req: 0,
                root: true,
                start_ns: 0,
                end_ns: 1_000_000,
            },
            Span {
                name: "a",
                req: 0,
                root: false,
                start_ns: 0,
                end_ns: 250_000,
            },
            Span {
                name: "request",
                req: 1,
                root: true,
                start_ns: 0,
                end_ns: 3_000_000,
            },
            Span {
                name: "a",
                req: 1,
                root: false,
                start_ns: 0,
                end_ns: 750_000,
            },
            Span {
                name: "b",
                req: 1,
                root: false,
                start_ns: 0,
                end_ns: 1_000_000,
            },
            Span {
                name: "request",
                req: 2,
                root: true,
                start_ns: 0,
                end_ns: 9_000_000,
            },
        ];
        let b = Breakdown::of(&spans, "request", |r| r < 2);
        assert_eq!(b.roots, 2);
        assert!((b.root_mean_ms - 2.0).abs() < 1e-12);
        assert_eq!(b.parts.len(), 2);
        assert!((b.parts[0].1 - 0.5).abs() < 1e-12);
        assert!((b.unattributed_ms - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.now(), 0);
        t.child("x", 0, 0, 1);
        t.root("r", 0, 0, 1);
        assert!(t.spans.is_empty());
    }
}
