//! `gc-perfbench`: the repository's serving benchmark.
//!
//! Starts a real `gc_net::Server` on loopback with the default service
//! config, drives it from closed-loop client connections replaying a
//! fixed, seed-derived request sequence, checks every reply, and prints
//! one JSON result line. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload miss_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics `BENCHMARK.json` lists;
//! `--trace 1` runs one untraced reference repeat, then traced repeats
//! that replay every request layer by layer, and reports the per-layer
//! metrics. Either way a fuller report (sample counts, workload-scoped
//! percentiles, layer shares) and, when traced, the spans are written
//! under `perfbench/out/`.

mod drive;
mod json;
mod replay;
mod report;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use workload::Workload;

const USAGE: &str =
    "usage: gc-perfbench --workload <miss_mix|hit_mid|mutate_rw|sharded_miss> --seed <n> --seconds <n> --trace <0|1>";

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad("expected 0 < seconds <= 60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gc-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let catalog = match report::Declared::load("BENCHMARK.json") {
        Ok(c) => c,
        Err(e) => {
            eprintln!("gc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = report::run(&args, epoch);
    match outcome.result_line(&args, &catalog) {
        Ok(line) => {
            if let Err(e) = outcome.write_files(&args) {
                eprintln!("gc-perfbench: could not write the report: {e}");
            }
            println!("{line}");
            if outcome.failed() == 0 {
                ExitCode::SUCCESS
            } else {
                for f in outcome.failures.iter().take(20) {
                    eprintln!("gc-perfbench: FAILED {f}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("gc-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "hit_mid",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::HitMid);
        assert_eq!(a.seed, 42);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "miss_mix"]).is_err());
        assert!(args(&["--workload", "miss_mix", "--seed", "1", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "miss_mix", "--seed", "1", "--seconds"]).is_err());
    }
}
