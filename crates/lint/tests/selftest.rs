//! The tool is subject to its own gate: a full workspace run, which
//! covers `crates/lint/` itself, must report no active findings. The run
//! itself is under the determinism contract: two runs over the same tree
//! render byte-identical reports.

use oftec_lint::{render_jsonl, run};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn workspace_has_no_active_findings() {
    let report = run(&workspace_root()).expect("workspace scan succeeds");
    assert!(report.files_scanned > 0, "scan walked no files");
    let active: Vec<String> = report
        .active()
        .map(|f| format!("{}:{}:{} {} {}", f.file, f.line, f.col, f.rule, f.message))
        .collect();
    assert!(report.is_clean(), "gate violations:\n{}", active.join("\n"));
}

#[test]
fn report_is_byte_identical_across_runs() {
    let root = workspace_root();
    let first = render_jsonl(&run(&root).expect("first run"));
    let second = render_jsonl(&run(&root).expect("second run"));
    assert_eq!(first, second, "two runs over the same tree diverge");
}
