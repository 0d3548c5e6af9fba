//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_hot|serve_cold|live_ticks> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `BENCHMARK.json` there). With
//! `--trace 0` the last stdout line is a JSON object holding every
//! end-to-end metric of `BENCHMARK.json`; with `--trace 1` the run
//! measures an untraced and then a traced pass of the same seeded
//! inputs and prints every per-layer metric, a span breakdown and the
//! tracing overhead, and writes the spans to `.bench_trace/`. See
//! `perfbench/README.md` for the workloads and what each metric should
//! move.

mod engine;
mod live;
mod probe;
mod report;
mod schedule;
mod serve;
mod trace;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let benchmark_json = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => text,
        Err(e) => {
            eprintln!("perfbench: run from the repository root (BENCHMARK.json: {e})");
            return ExitCode::from(2);
        }
    };
    let list = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let Some(declared) = report::declared(&benchmark_json, list) else {
        eprintln!("perfbench: BENCHMARK.json has no {list} list");
        return ExitCode::from(2);
    };
    let report = match args.workload.as_str() {
        "serve_hot" => serve::run(&serve::HOT, args.seed, args.seconds, args.trace),
        "serve_cold" => serve::run(&serve::COLD, args.seed, args.seconds, args.trace),
        "live_ticks" => live::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = report::matches_declared(&report.metrics, &declared) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(3);
    }
    for problem in &report.problems {
        println!("FAILED CHECK: {problem}");
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve_hot --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_hot", 7, 10.0, true)
        );
        assert!(args("--workload serve_hot --seed 7 --seconds 10").is_err());
        assert!(args("--workload serve_hot --seed x --seconds 10 --trace 0").is_err());
        assert!(args("--workload serve_hot --seed 7 --seconds 0 --trace 0").is_err());
        assert!(args("--workload serve_hot --seed 7 --seconds 10 --trace 2").is_err());
        assert!(args("--bogus 1").is_err());
    }
}
