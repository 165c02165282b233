//! `lint_bench` — wall-clock and determinism benchmark of one oftec-lint
//! run.
//!
//! ```text
//! cargo run --release -p oftec-bench --bin lint_bench -- [options]
//!
//! Options:
//!   --root <dir>   workspace root to lint (default ".")
//!   --reps <n>     timed serial runs (default 10)
//!   --out <path>   report file (default BENCH_lint.json)
//! ```
//!
//! The report (`BENCH_lint.json`) records, for the same workspace:
//!
//! - the median and interquartile range of the wall time of one full
//!   run, over `reps` runs, and files/second at the median,
//! - the host CPU count and the commit (`git describe --always --dirty`),
//! - byte-identity of the JSONL report across the runs (asserted — a
//!   mismatch is a benchmark failure, not a number).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use oftec_bench::{commit, cpus, quantile};
use oftec_lint::{render_jsonl, run};

struct Config {
    root: PathBuf,
    reps: usize,
    out: String,
}

fn parse_args() -> Result<Config, String> {
    let mut config = Config {
        root: PathBuf::from("."),
        reps: 10,
        out: "BENCH_lint.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match arg.as_str() {
            "--root" => config.root = PathBuf::from(value("--root")?),
            "--reps" => {
                config.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?
            }
            "--out" => config.out = value("--out")?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    config.reps = config.reps.max(1);
    Ok(config)
}

fn bench(config: &Config) -> Result<String, String> {
    let mut times_ms = Vec::with_capacity(config.reps);
    let mut first: Option<String> = None;
    let mut files = 0;
    for _ in 0..config.reps {
        let start = Instant::now();
        let report = run(&config.root)?;
        times_ms.push(start.elapsed().as_secs_f64() * 1e3);
        files = report.files_scanned;
        let jsonl = render_jsonl(&report);
        match &first {
            None => first = Some(jsonl),
            Some(f) if *f != jsonl => return Err("reports diverge across runs".into()),
            Some(_) => {}
        }
    }
    times_ms.sort_by(f64::total_cmp);
    let (q1, median, q3) = (
        quantile(&times_ms, 0.25),
        quantile(&times_ms, 0.5),
        quantile(&times_ms, 0.75),
    );
    let findings = first
        .unwrap_or_default()
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"finding\""))
        .count();
    Ok(format!(
        "{{\n  \"host\": {{\"cpus\":{},\"commit\":\"{}\"}},\n  \
         \"config\": {{\"reps\":{},\"files\":{files}}},\n  \
         \"wall_ms\": {{\"median\":{median:.1},\"q1\":{q1:.1},\"q3\":{q3:.1},\"iqr\":{:.1}}},\n  \
         \"files_per_s\": {:.0},\n  \
         \"findings\": {findings},\n  \
         \"determinism\": {{\"bytes_identical\":true}}\n}}\n",
        cpus(),
        commit(&config.root),
        config.reps,
        q3 - q1,
        files as f64 / (median / 1e3),
    ))
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("lint_bench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&config) {
        Ok(json) => {
            println!("{json}");
            if let Err(e) = std::fs::write(&config.out, json) {
                eprintln!("lint_bench: cannot write {}: {e}", config.out);
                return ExitCode::from(2);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lint_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
