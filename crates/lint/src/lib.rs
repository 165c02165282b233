//! **oftec-lint** — workspace-wide static analysis enforcing the OFTEC
//! repository's solver, determinism, and unit-safety invariants.
//!
//! The compiler cannot see the contracts the last PRs established: no
//! panics on solver paths (the typed `OftecError` taxonomy), bit-identical
//! results at any `OFTEC_THREADS` (the determinism contract), telemetry
//! instead of ad-hoc printing. This crate is a std-only analysis pass with
//! its own lightweight Rust lexer and a token-stream rule engine that
//! walks every `.rs` file in the workspace (skipping `target/`, `vendor/`,
//! `tests/` directories, and `#[cfg(test)]` modules tracked by brace
//! depth) and emits `file:line:col` diagnostics as human text and JSONL.
//!
//! Escape hatches, in order of preference:
//! 1. fix the finding;
//! 2. `// oftec-lint: allow(L00X, reason)` on or above the offending line
//!    — the reason is mandatory and audited (a missing one is itself a
//!    diagnostic, `L000`);
//! 3. a `lint-baseline.toml` entry for grandfathered findings, which may
//!    only shrink (stale entries fail the gate).
//!
//! See DESIGN.md §13 for the rule table and rationale.

pub mod ast;
pub mod baseline;
pub mod cache;
pub mod dataflow;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod resolve;
pub mod rules;
pub mod semantic;

pub use baseline::BaselineEntry;
pub use engine::{classify, scan_source, Finding, Status};
pub use rules::{FileKind, Rule, RULES};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Which rules fail the gate.
#[derive(Debug, Clone)]
pub enum DenySet {
    /// Every rule is fatal (`--deny all`, the CI configuration).
    All,
    /// Only the listed rule ids are fatal; the rest report as warnings.
    Rules(Vec<String>),
}

impl DenySet {
    /// Whether a finding of `rule` fails the gate.
    pub fn denies(&self, rule: &str) -> bool {
        match self {
            DenySet::All => true,
            DenySet::Rules(ids) => ids.iter().any(|r| r == rule),
        }
    }
}

/// Configuration for one analysis run.
#[derive(Debug)]
pub struct RunConfig {
    /// Workspace root to walk.
    pub root: PathBuf,
    /// Baseline path (`<root>/lint-baseline.toml` by default).
    pub baseline: PathBuf,
    /// Rules that fail the gate.
    pub deny: DenySet,
    /// Worker threads for the per-file phase; `None` follows
    /// `OFTEC_THREADS` like every other workspace batch.
    pub threads: Option<usize>,
    /// Incremental cache path; `None` disables caching.
    pub cache: Option<PathBuf>,
}

impl RunConfig {
    /// The standard configuration for a workspace root: baseline beside
    /// the manifest, cache under `target/`, deny-all gate.
    pub fn for_root(root: PathBuf) -> Self {
        RunConfig {
            baseline: root.join("lint-baseline.toml"),
            cache: Some(cache::default_path(&root)),
            root,
            deny: DenySet::All,
            threads: None,
        }
    }
}

/// Everything one run produced, for both report formats and the gate
/// decision.
#[derive(Debug)]
pub struct RunReport {
    /// Every finding, all statuses, sorted by `(file, line, col)`.
    pub findings: Vec<Finding>,
    /// Baseline entries that matched no finding (the gate fails on any).
    pub stale: Vec<BaselineEntry>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Findings silenced by inline allows.
    pub suppressed: usize,
    /// Findings absorbed by the baseline.
    pub baselined: usize,
}

impl RunReport {
    /// Active findings whose rule is denied.
    pub fn denied<'a>(&'a self, deny: &'a DenySet) -> impl Iterator<Item = &'a Finding> {
        self.findings
            .iter()
            .filter(move |f| f.status == Status::Active && deny.denies(f.rule))
    }

    /// Gate verdict: clean means no denied findings and no stale baseline
    /// entries.
    pub fn is_clean(&self, deny: &DenySet) -> bool {
        self.stale.is_empty() && self.denied(deny).next().is_none()
    }

    /// Active findings per rule id, in rule-table order.
    pub fn per_rule(&self) -> Vec<(&'static str, usize)> {
        RULES
            .iter()
            .map(|r| {
                let n = self
                    .findings
                    .iter()
                    .filter(|f| f.status == Status::Active && f.rule == r.id)
                    .count();
                (r.id, n)
            })
            .collect()
    }
}

/// Collects every analyzable `.rs` file under `root`, sorted for a
/// deterministic report. Skips `target/`, `vendor/`, `tests/`
/// directories, and dot-directories.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if matches!(name.as_ref(), "target" | "vendor" | "tests") || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs the full analysis.
///
/// The per-file phase (lex/parse/dataflow and the file-local rules) runs
/// in parallel over `oftec-parallel` with results assembled in path
/// order, so the report is byte-identical at any `OFTEC_THREADS`. Files
/// whose content hash matches the incremental cache skip analysis
/// entirely. The crate phase (L009–L011, L013) composes the (cached or
/// fresh) function summaries and always recomputes. Telemetry counters
/// (`lint.*`) are recorded on the calling thread.
pub fn run(config: &RunConfig) -> Result<RunReport, String> {
    let _span = oftec_telemetry::span("lint.scan");
    let baseline_entries = baseline::load(&config.baseline)?;
    let files = collect_files(&config.root).map_err(|e| format!("walking workspace: {e}"))?;

    // Classify every path up front; unclassifiable files are out of scope.
    let work: Vec<(PathBuf, String, String, FileKind)> = files
        .into_iter()
        .filter_map(|path| {
            let rel = path
                .strip_prefix(&config.root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let (krate, kind) = classify(&rel)?;
            Some((path, rel, krate, kind))
        })
        .collect();

    let mut cached = config
        .cache
        .as_ref()
        .map(|p| cache::load(p))
        .unwrap_or_default();

    // Per-file phase, parallel. Each worker depends only on its own
    // file's bytes; hits return `None` and are replayed from the cache
    // during the in-order assembly below.
    let threads = config.threads.unwrap_or_else(oftec_parallel::thread_count);
    type FileOut = Result<(u64, Option<engine::FileAnalysis>), String>;
    let cache_ref = &cached;
    let results = oftec_parallel::par_try_map_indexed_with(
        threads,
        &work,
        |_, (path, rel, krate, kind)| -> FileOut {
            let src = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let hash = cache::content_hash(src.as_bytes());
            if cache_ref.hit(rel, hash) {
                return Ok((hash, None));
            }
            Ok((hash, Some(engine::analyze_source(rel, &src, krate, *kind))))
        },
    );

    // In-order assembly: path order, independent of worker scheduling.
    let mut per_file: Vec<(String, String, FileKind, u64, engine::FileAnalysis)> =
        Vec::with_capacity(work.len());
    let mut cache_hits = 0usize;
    for ((_, rel, krate, kind), result) in work.into_iter().zip(results) {
        let (hash, fresh) = result.map_err(|p| format!("lint worker for {rel}: {p}"))??;
        let analysis = match fresh {
            Some(a) => a,
            None => {
                cache_hits += 1;
                cached
                    .take(&rel)
                    .ok_or_else(|| format!("cache hit for {rel} vanished"))?
            }
        };
        per_file.push((rel, krate, kind, hash, analysis));
    }

    let files_scanned = per_file.len();
    let mut suppressed = 0usize;
    let mut findings: Vec<Finding> = Vec::new();
    for (_, _, _, _, a) in &per_file {
        suppressed += a.stats.suppressed;
        findings.extend(a.findings.iter().cloned());
    }

    // Crate phase over the composed summaries, then the per-file
    // suppression tables applied to its cross-function findings.
    let facts: Vec<semantic::FileFacts> = per_file
        .iter()
        .map(|(rel, krate, kind, _, a)| semantic::FileFacts {
            rel,
            krate,
            kind: *kind,
            summaries: &a.summaries,
            hot_lines: &a.hot_lines,
        })
        .collect();
    let mut by_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in semantic::crate_findings(&facts) {
        by_file.entry(f.file.clone()).or_default().push(f);
    }
    let sup_of: BTreeMap<&str, &Vec<engine::Suppression>> = per_file
        .iter()
        .map(|(rel, _, _, _, a)| (rel.as_str(), &a.suppressions))
        .collect();
    for (file, mut group) in by_file {
        if let Some(sups) = sup_of.get(file.as_str()) {
            suppressed += engine::apply_suppressions(&mut group, sups);
        }
        findings.append(&mut group);
    }

    // Baseline matching: an entry absorbs at most one finding.
    let mut used = vec![false; baseline_entries.len()];
    let mut baselined = 0usize;
    for f in &mut findings {
        if f.status != Status::Active {
            continue;
        }
        let hit = baseline_entries
            .iter()
            .enumerate()
            .find(|(i, e)| !used[*i] && e.rule == f.rule && e.file == f.file && e.line == f.line);
        if let Some((i, _)) = hit {
            used[i] = true;
            f.status = Status::Baselined;
            baselined += 1;
        }
    }
    let stale: Vec<BaselineEntry> = baseline_entries
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(e, _)| e.clone())
        .collect();

    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));

    if let Some(path) = &config.cache {
        let entries: Vec<(String, u64, &engine::FileAnalysis)> = per_file
            .iter()
            .map(|(rel, _, _, hash, a)| (rel.clone(), *hash, a))
            .collect();
        cache::save(path, &entries);
    }

    let report = RunReport {
        findings,
        stale,
        files_scanned,
        suppressed,
        baselined,
    };
    oftec_telemetry::counter_add("lint.cache_hits", cache_hits as u64);
    record_telemetry(&report);
    Ok(report)
}

/// Mirrors the run statistics into the `oftec-telemetry` registry so
/// `--telemetry-json` works on this binary like on every other workspace
/// binary.
fn record_telemetry(report: &RunReport) {
    oftec_telemetry::counter_add("lint.files_scanned", report.files_scanned as u64);
    oftec_telemetry::counter_add("lint.suppressed", report.suppressed as u64);
    oftec_telemetry::counter_add("lint.baselined", report.baselined as u64);
    oftec_telemetry::counter_add("lint.baseline_stale", report.stale.len() as u64);
    for rule in RULES {
        let n = report
            .findings
            .iter()
            .filter(|f| f.status == Status::Active && f.rule == rule.id)
            .count() as u64;
        oftec_telemetry::counter_add(rule.counter, n);
    }
}

/// Minimal JSON string escaping for the hand-rolled JSONL report.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the run as JSONL: one `finding` record per finding (every
/// status), one `stale_baseline` record per stale entry, and a trailing
/// `summary` record.
pub fn render_jsonl(report: &RunReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(
            out,
            "{{\"type\":\"finding\",\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\
             \"status\":\"{}\",\"message\":\"{}\"}}",
            f.rule,
            json_escape(&f.file),
            f.line,
            f.col,
            f.status.name(),
            json_escape(&f.message),
        );
    }
    for e in &report.stale {
        let _ = writeln!(
            out,
            "{{\"type\":\"stale_baseline\",\"rule\":\"{}\",\"file\":\"{}\",\"line\":{}}}",
            json_escape(&e.rule),
            json_escape(&e.file),
            e.line,
        );
    }
    let per_rule: Vec<String> = report
        .per_rule()
        .iter()
        .map(|(id, n)| format!("\"{id}\":{n}"))
        .collect();
    let active = report
        .findings
        .iter()
        .filter(|f| f.status == Status::Active)
        .count();
    let _ = writeln!(
        out,
        "{{\"type\":\"summary\",\"files_scanned\":{},\"active\":{},\"suppressed\":{},\
         \"baselined\":{},\"stale_baseline\":{},\"per_rule\":{{{}}}}}",
        report.files_scanned,
        active,
        report.suppressed,
        report.baselined,
        report.stale.len(),
        per_rule.join(","),
    );
    out
}

/// Renders the run as human-readable diagnostics.
pub fn render_human(report: &RunReport, deny: &DenySet) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for f in &report.findings {
        if f.status != Status::Active {
            continue;
        }
        let severity = if deny.denies(f.rule) {
            "error"
        } else {
            "warning"
        };
        let _ = writeln!(
            out,
            "{}:{}:{}: {severity}[{}]: {}",
            f.file, f.line, f.col, f.rule, f.message
        );
    }
    for e in &report.stale {
        let _ = writeln!(
            out,
            "{}: error[stale-baseline]: {} at line {} no longer fires; remove the entry",
            e.file, e.rule, e.line
        );
    }
    let active = report
        .findings
        .iter()
        .filter(|f| f.status == Status::Active)
        .count();
    let _ = writeln!(
        out,
        "oftec-lint: {} files, {} active finding(s), {} suppressed, {} baselined, {} stale",
        report.files_scanned,
        active,
        report.suppressed,
        report.baselined,
        report.stale.len()
    );
    out
}
