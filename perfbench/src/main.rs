//! End-to-end benchmark of the vqoe monitor.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay|live-tap|live-flood --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times the workload's public entry point and prints the
//! end-to-end metrics; `--trace 1` runs the same inputs through spans
//! around each crate's public functions and prints the per-layer
//! metrics. Both check the program's outputs first and exit non-zero,
//! without printing numbers, when a check fails. The last line of
//! standard output is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`.

mod calib;
mod layers;
mod metrics;
mod passes;
mod run;
mod score;
mod setup;
mod stats;
mod sys;
mod trace;

use std::process::ExitCode;

/// The three workloads (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch replay of a packed day's capture on the parallel engine.
    Replay,
    /// Streaming assessment of a faulted tap, with checkpoint/restore.
    LiveTap,
    /// Streaming assessment of 200k concurrent subscribers.
    LiveFlood,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "replay" => Some(Workload::Replay),
            "live-tap" => Some(Workload::LiveTap),
            "live-flood" => Some(Workload::LiveFlood),
            _ => None,
        }
    }

    /// What bounds the workload's timed passes (see [`calib`]).
    pub fn limit(self) -> calib::Limit {
        match self {
            Workload::Replay | Workload::LiveTap => calib::Limit::Core,
            Workload::LiveFlood => calib::Limit::Memory,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Replay => "replay",
            Workload::LiveTap => "live-tap",
            Workload::LiveFlood => "live-flood",
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: vqoe-perfbench --workload replay|live-tap|live-flood --seed N --seconds S --trace 0|1";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (passes, calls or sessions).
    pub samples: usize,
}

/// What a run reports.
pub struct Outcome {
    /// Sessions the timed (or traced) passes attempted to assess.
    pub attempted: u64,
    /// Of those, sessions a pass returned an error for.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stamp = sys::Stamp::collect();
    println!(
        "vqoe-perfbench workload={} seed={} seconds={} trace={} git_rev={} nproc={} rustc=\"{}\"",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stamp.git_rev,
        stamp.nproc,
        stamp.rustc,
    );
    let outcome = if args.trace {
        layers::run(&args)
    } else {
        run::run(&args)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vqoe-perfbench: CHECK FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    let expected: Vec<(&str, &str)> = if args.trace {
        metrics::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    };
    let printed: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    if printed != expected {
        eprintln!("vqoe-perfbench: metric list does not match the metric table: {printed:?}");
        return ExitCode::FAILURE;
    }
    if outcome.attempted == 0 {
        eprintln!("vqoe-perfbench: no session was attempted");
        return ExitCode::FAILURE;
    }
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("vqoe-perfbench: {} is not finite", bad.name);
        return ExitCode::FAILURE;
    }
    println!(
        "{:<42} {:>16} {:<10} {:>8}  notes",
        "metric", "value", "unit", "samples"
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let notes = if args.trace {
            let row = &metrics::PER_LAYER[i];
            format!("{} is better; moves {}", row.better, row.moves)
        } else {
            let row = &metrics::END_TO_END[i];
            format!("{} is better; bound {}", row.better, row.bound)
        };
        println!(
            "{:<42} {:>16.6} {:<10} {:>8}  {notes}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let body: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload live-tap --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::LiveTap);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload replay --seconds 1").is_err());
        assert!(args("--workload replay --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload replay --seed 1 --seconds 1 --trace 2").is_err());
    }
}
