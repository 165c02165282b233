//! The `oftec-lint` binary: CI gate and developer tool.
//!
//! ```text
//! oftec-lint [--root DIR] [--format human|json] [--deny all|L001,L005]
//!            [--baseline PATH] [--update-baseline] [--list-rules]
//!            [--threads N] [--no-cache] [--cache PATH] [--telemetry-json PATH]
//! ```
//!
//! Exit codes: 0 clean, 1 denied findings or stale baseline entries,
//! 2 usage or I/O error.

use oftec_lint::{
    baseline, cache, render_human, render_jsonl, run, DenySet, RunConfig, Status, RULES,
};
use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Human,
    Json,
}

struct Args {
    root: PathBuf,
    baseline: Option<PathBuf>,
    deny: DenySet,
    format: Format,
    list_rules: bool,
    update_baseline: bool,
    threads: Option<usize>,
    no_cache: bool,
    cache: Option<PathBuf>,
    telemetry_json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        baseline: None,
        deny: DenySet::All,
        format: Format::Human,
        list_rules: false,
        update_baseline: false,
        threads: None,
        no_cache: false,
        cache: None,
        telemetry_json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match arg.as_str() {
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--baseline" => args.baseline = Some(PathBuf::from(value("--baseline")?)),
            "--deny" => {
                let v = value("--deny")?;
                args.deny = if v == "all" {
                    DenySet::All
                } else {
                    DenySet::Rules(v.split(',').map(|s| s.trim().to_string()).collect())
                };
            }
            "--format" => {
                args.format = match value("--format")?.as_str() {
                    "json" => Format::Json,
                    "human" => Format::Human,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--threads" => {
                let v = value("--threads")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--threads expects a count, got `{v}`"))?;
                args.threads = Some(n.max(1));
            }
            "--no-cache" => args.no_cache = true,
            "--cache" => args.cache = Some(PathBuf::from(value("--cache")?)),
            "--list-rules" => args.list_rules = true,
            "--update-baseline" => args.update_baseline = true,
            "--telemetry-json" => args.telemetry_json = Some(value("--telemetry-json")?),
            "--help" | "-h" => {
                println!(
                    "usage: oftec-lint [--root DIR] [--format human|json] \
                     [--deny all|L001,...] [--baseline PATH] [--update-baseline] \
                     [--threads N] [--no-cache] [--cache PATH] \
                     [--list-rules] [--telemetry-json PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn list_rules() {
    println!("{:<5} {:<8} title", "rule", "scope");
    for r in RULES {
        let scope = match r.crates {
            oftec_lint::rules::CrateScope::AllExcept([]) => "all".to_string(),
            oftec_lint::rules::CrateScope::AllExcept(x) => format!("all -{}", x.join(",-")),
            oftec_lint::rules::CrateScope::Only(x) => x.join(","),
        };
        println!("{:<5} {:<8} {}", r.id, kinds_short(r.kinds), r.title);
        println!("      crates: {scope}");
    }
}

fn kinds_short(kinds: &[oftec_lint::FileKind]) -> String {
    kinds
        .iter()
        .map(|k| match k {
            oftec_lint::FileKind::Lib => "lib",
            oftec_lint::FileKind::Bin => "bin",
            oftec_lint::FileKind::Example => "ex",
            oftec_lint::FileKind::Bench => "bench",
        })
        .collect::<Vec<_>>()
        .join("+")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("oftec-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        list_rules();
        return ExitCode::SUCCESS;
    }
    if args.telemetry_json.is_some() {
        oftec_telemetry::set_collecting(true);
    }
    let baseline_path = args
        .baseline
        .clone()
        .unwrap_or_else(|| args.root.join("lint-baseline.toml"));
    let cache_path = if args.no_cache {
        None
    } else {
        Some(
            args.cache
                .clone()
                .unwrap_or_else(|| cache::default_path(&args.root)),
        )
    };
    let config = RunConfig {
        root: args.root.clone(),
        baseline: baseline_path.clone(),
        deny: args.deny.clone(),
        threads: args.threads,
        cache: cache_path,
    };
    let report = match run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("oftec-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if args.update_baseline {
        let entries: Vec<baseline::BaselineEntry> = report
            .findings
            .iter()
            .filter(|f| matches!(f.status, Status::Active | Status::Baselined))
            .map(|f| baseline::BaselineEntry {
                rule: f.rule.to_string(),
                file: f.file.clone(),
                line: f.line,
                note: f.message.clone(),
            })
            .collect();
        if let Err(e) = std::fs::write(&baseline_path, baseline::render(&entries)) {
            eprintln!("oftec-lint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "oftec-lint: wrote {} entries to {}",
            entries.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    match args.format {
        Format::Json => print!("{}", render_jsonl(&report)),
        Format::Human => print!("{}", render_human(&report, &args.deny)),
    }

    if let Some(path) = &args.telemetry_json {
        oftec_telemetry::flush();
        if let Err(e) = std::fs::write(path, oftec_telemetry::snapshot().to_json()) {
            eprintln!("oftec-lint: cannot write telemetry snapshot {path}: {e}");
            return ExitCode::from(2);
        }
    }

    if report.is_clean(&args.deny) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
