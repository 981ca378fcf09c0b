//! The repository benchmark. One command runs one named workload with one
//! seed for a given number of seconds, checks the program's outputs, and
//! prints one JSON result line of metric names and values: with
//! `--trace 0` the end-to-end metrics (tracing off), with `--trace 1` the
//! per-layer metrics of a separate decorated run. `run.py` checks the line
//! against `BENCHMARK.json` and attaches the units; `METRICS.md` documents
//! the workloads and metrics.
//!
//! ```text
//! realtor-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod cluster;
mod des;
mod probe;
mod stats;
mod sys;

use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Timed repetitions every run makes, even past its time budget: the
/// determinism check compares repetitions of one seed.
pub const MIN_REPS: usize = 2;

/// Set-up samples the reported `setup_s` is the median of, at least.
pub const SETUP_SAMPLES: usize = 9;

/// Wall time one set-up sample spends repeating set-up passes, so that a
/// sample of a few-millisecond set-up still covers a steady stretch.
pub const SETUP_SAMPLE_S: f64 = 0.25;

/// Share of a run's wall time spent on set-up samples between its timed
/// repetitions. Spread over the run, the samples see the same stretches
/// of a shared machine's speed as the timed figures do, instead of one.
pub const SETUP_SHARE: f64 = 0.15;

/// The samples behind `setup_s`. `pass` sets up, tears down untimed, and
/// returns the seconds it spent setting up.
#[derive(Default)]
pub struct SetupSamples(Vec<f64>);

impl SetupSamples {
    /// One sample: the mean over the passes that fit in `SETUP_SAMPLE_S`.
    fn take(&mut self, pass: &mut impl FnMut() -> f64) {
        let start = Instant::now();
        let (mut timed, mut passes) = (0.0, 0u32);
        while passes == 0 || start.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
            timed += pass();
            passes += 1;
        }
        self.0.push(timed / f64::from(passes));
    }

    /// Take samples until they have had `SETUP_SHARE` of the run so far.
    pub fn keep_pace(&mut self, budget: &Budget, mut pass: impl FnMut() -> f64) {
        while self.0.len() as f64 * SETUP_SAMPLE_S < SETUP_SHARE * budget.0.elapsed().as_secs_f64()
        {
            self.take(&mut pass);
        }
    }

    /// `setup_s`: the median sample, after topping the samples up to
    /// `SETUP_SAMPLES`.
    pub fn median(mut self, mut pass: impl FnMut() -> f64) -> f64 {
        while self.0.len() < SETUP_SAMPLES {
            self.take(&mut pass);
        }
        stats::median(&mut self.0)
    }
}

/// The wall-clock budget of the measured phase.
pub struct Budget(Instant, Duration);

impl Budget {
    /// True once the budget has run out.
    pub fn spent(&self) -> bool {
        self.0.elapsed() >= self.1
    }
}

/// Checked command-line arguments.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => trace = Some(matches!(number()?, 1)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Budget(Instant::now(), Duration::from_secs(args.seconds));
    let run = match args.workload.as_str() {
        "cluster_crash" => Some(cluster::run(args.seed, &budget, args.trace)),
        w => des::run(w, args.seed, &budget, args.trace),
    };
    let Some(mut out) = run else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    if args.trace {
        out.set("trace.timer_pair_ns", sys::timer_pair_ns());
    }
    let line = out.to_json();
    match line {
        Ok(line) => {
            for e in &out.errors {
                eprintln!("perfbench: check failed: {e}");
            }
            println!("{line}");
            if out.errors.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&args(
            "--workload paper_sweep --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "paper_sweep".into(),
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
        assert!(parse_args(&args("--workload paper_sweep")).is_err());
        assert!(parse_args(&args("--workload paper_sweep --seed x")).is_err());
        assert!(parse_args(&args("--workload paper_sweep --seed 1 --bogus 2")).is_err());
    }
}
