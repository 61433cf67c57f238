//! The Delta-net benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <parent-results-dir> <change-results-dir> [--bounds BENCHMARK.json]
//! ```
//!
//! A run generates its inputs from `--seed`, measures for about
//! `--seconds`, checks every output, prints a readable table of metrics
//! with sample counts, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. See
//! `PERFORMANCE.md` for the method.

mod compare;
mod daemon;
mod engine_thread;
mod host;
mod inputs;
mod layers;
mod replay;
mod report;

use perfbench::Failures;
use report::Metrics;
use std::process::ExitCode;

/// The workloads. `BENCHMARK.json` lists the first two, which hold steady
/// on a shared host; the daemon workloads run the same way on demand.
pub const WORKLOADS: &[&str] = &[
    "replay-airtel2",
    "engine-thread-airtel1",
    "daemon-closed-airtel1",
    "daemon-open-durable-airtel1",
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Measured metrics.
    pub metrics: Metrics,
    /// Failure accounting.
    pub failures: Failures,
    /// Output checks that did not hold (empty when the run is correct).
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// Records the peak memory once, after the run's first pass: later
    /// passes repeat the same work, and would only add allocator
    /// fragmentation across the daemon threads they start.
    pub fn first_pass_done(&mut self) {
        if self.metrics.get("peak_rss_mib").is_none() {
            self.metrics.set("peak_rss_mib", report::peak_rss_mib());
        }
    }

    /// Records a failed output check.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.mismatches.push(what());
        }
    }
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: RunArgs) -> Result<ExitCode, String> {
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"machine\": {}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::machine_shape()
    );
    let outcome = match args.workload.as_str() {
        "replay-airtel2" => replay::run(args.seed, args.seconds, args.trace),
        "engine-thread-airtel1" => engine_thread::run(args.seed, args.seconds, args.trace),
        "daemon-closed-airtel1" => daemon::closed(args.seed, args.seconds, args.trace),
        "daemon-open-durable-airtel1" => daemon::open_durable(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload validated by parse_run_args"),
    }?;
    let f = &outcome.failures;
    println!(
        "# attempted {} failed {} failed_frac {} (error acks {}, skipped {}, missing {}, what-ifs {}, events lost {})",
        f.attempted(),
        f.failed(),
        f.fraction(),
        f.error_acks,
        f.skipped_acks,
        f.missing_acks,
        f.failed_whatifs,
        f.events_lost
    );
    for m in &outcome.mismatches {
        println!("# CHECK FAILED: {m}");
    }
    let correct = outcome.mismatches.is_empty() && f.failed() == 0;
    let metrics = if args.trace {
        outcome.metrics.render(report::PER_LAYER, true, &[])
    } else {
        let aliases = if args.workload.starts_with("daemon-") {
            report::DAEMON_ALIASES
        } else {
            &[]
        };
        let json = outcome.metrics.render(report::END_TO_END, false, aliases);
        println!("# table only (not bounded):");
        for &(name, unit) in report::UNBOUNDED {
            outcome.metrics.print_row(name, unit, false, aliases);
        }
        json
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        f.attempted().max(1),
        f.failed()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("error: perfbench measures optimized code only; build it with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        parse_run_args(&args).and_then(run)
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
