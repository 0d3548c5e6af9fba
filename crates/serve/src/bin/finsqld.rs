//! `finsqld` — the FinSQL serving daemon.
//!
//! Builds the full pipeline over the BULL dataset, binds a TCP listener
//! and serves the length-prefixed wire protocol (see
//! `finsql_serve::wire`) until a client sends a Shutdown frame.
//!
//! ```text
//! finsqld [--addr 127.0.0.1:4150] [--budget 256] [--cache-cap 0]
//!         [--workers 2] [--batch 8] [--queue-cap 256]
//! ```

use bull::Lang;
use finsql_core::batch::BatchConfig;
use finsql_core::cache::AnswerCache;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use finsql_serve::{ServeConfig, Server};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

struct Opts {
    addr: String,
    budget: usize,
    cache_cap: usize,
    workers: usize,
    batch: usize,
    queue_cap: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            addr: "127.0.0.1:4150".to_string(),
            budget: 256,
            cache_cap: 0,
            workers: 2,
            batch: 8,
            queue_cap: 256,
        }
    }
}

const USAGE: &str = "usage: finsqld [--addr A] [--budget N] [--cache-cap N] \
                     [--workers N] [--batch N] [--queue-cap N]";

/// `Ok(None)` means `--help` was asked: print usage and exit 0.
fn parse_opts(args: &[String]) -> Result<Option<Opts>, String> {
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--budget" => {
                opts.budget = value("--budget")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?
            }
            "--cache-cap" => {
                opts.cache_cap = value("--cache-cap")?
                    .parse()
                    .map_err(|e| format!("--cache-cap: {e}"))?
            }
            "--workers" => {
                opts.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--batch" => {
                opts.batch =
                    value("--batch")?.parse().map_err(|e| format!("--batch: {e}"))?
            }
            "--queue-cap" => {
                opts.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(Some(opts))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(opts) = parse_opts(&args)? else {
        println!("{USAGE}");
        return Ok(());
    };

    eprintln!("finsqld: building engine (dataset + linker + LoRA training)...");
    let ds = bull::build(bull::DEFAULT_SEED);
    let engine = Arc::new(FinSql::build(
        &ds,
        &simllm::profiles::LLAMA2_13B,
        FinSqlConfig::standard(Lang::En),
    ));
    let cache = Arc::new(AnswerCache::with_capacity(opts.cache_cap));

    let config = ServeConfig {
        max_in_flight: opts.budget.max(1),
        batch: BatchConfig {
            max_batch: opts.batch.max(1),
            workers: opts.workers.max(1),
            queue_cap: opts.queue_cap.max(1),
        },
        ..ServeConfig::default()
    };
    let server = Server::bind(&opts.addr, engine, Some(cache), None, config)
        .map_err(|e| format!("bind {}: {e}", opts.addr))?;
    println!("finsqld listening on {}", server.local_addr());

    let stop = AtomicBool::new(false);
    let report = server.run(&stop);
    println!(
        "finsqld: served={} driver_hits={} busy={} bad_frames={} shutdown_rejected={} \
         connections={}",
        report.served,
        report.driver_hits,
        report.busy_rejected,
        report.bad_frames,
        report.shutdown_rejected,
        report.connections
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("finsqld: {e}");
        std::process::exit(1);
    }
}
