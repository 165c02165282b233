//! `perfbench` — the OFTEC workspace benchmark.
//!
//! ```text
//! perfbench --workload <alg1|serve|fleet> --seed <n> --seconds <s> --trace <0|1>
//!           --work-dir <dir> [--cli <path to oftec-cli>]
//! ```
//!
//! Normally started through `python3 perfbench/run.py`, which builds this
//! binary and `oftec-cli` first. With `--trace 0` a run prints the
//! end-to-end metrics; with `--trace 1` it prints the per-layer metrics,
//! timed around calls into each crate's public functions. The last line
//! of standard output is the result object; see `README.md` here.

mod alg1;
mod fleet;
mod probe;
mod report;
mod serve;
mod stats;
mod timed;

use report::{Record, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub work_dir: PathBuf,
    pub cli: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let required = |flag: &str| value(flag).ok_or(format!("{flag} is required"));
    let seconds: u64 = required("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a whole number".to_owned())?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload: required("--workload")?.to_owned(),
        seed: required("--seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_owned())?,
        seconds: Duration::from_secs(seconds),
        trace,
        work_dir: PathBuf::from(required("--work-dir")?),
        cli: value("--cli").map(PathBuf::from),
    })
}

/// The one clock read of the harness: measuring wall time is what a
/// benchmark is for, and no timing here feeds back into a solve.
pub fn now() -> Instant {
    // oftec-lint: allow(L003, benchmark harness: wall-clock timing is its output, never an input to the program)
    Instant::now()
}

/// Peak resident set size in MB (`VmHWM`) of process `pid`, or of this
/// process when `None`; NaN where `/proc` is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.as_secs_f64();
    println!(
        "{}",
        Record::host(&args.workload, args.seed, args.trace, seconds).json()
    );
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "alg1" => {
            alg1::run(&args, &mut report);
            Ok(())
        }
        "serve" => serve::run(&args, &mut report),
        "fleet" => fleet::run(&args, &mut report),
        other => Err(format!("unknown workload `{other}` (alg1, serve, fleet)")),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if report.attempted == 0 {
        eprintln!("perfbench: {} attempted no operation", args.workload);
        return ExitCode::FAILURE;
    }
    let declared: &[(&str, &str)] = if args.trace {
        report.fill_unexercised(&report::PER_LAYER);
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    for (name, _) in declared {
        if !report.metrics.iter().any(|m| m.name == *name) {
            eprintln!("perfbench: {} did not measure {name}", args.workload);
            return ExitCode::FAILURE;
        }
    }
    for m in &report.metrics {
        if !declared.iter().any(|(name, _)| *name == m.name) {
            eprintln!(
                "perfbench: {} reported undeclared metric {}",
                args.workload, m.name
            );
            return ExitCode::FAILURE;
        }
    }
    for line in &report.notes {
        println!("{line}");
    }
    for line in report.table() {
        println!("{line}");
    }
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
