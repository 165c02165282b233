//! The per-file analysis: token-stream matchers for each rule, brace-depth
//! tracking of `#[cfg(test)]` modules, and inline-suppression handling.

use crate::lexer::{lex, Tok, TokKind};
use crate::rules::{FileKind, Rule, RULES};
use std::collections::BTreeMap;

/// Whether a finding fails the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Fails the gate.
    Active,
    /// Silenced by an inline `oftec-lint: allow(...)` with a reason.
    Suppressed,
}

impl Status {
    /// Stable wire name for the JSONL report.
    pub fn name(self) -> &'static str {
        match self {
            Status::Active => "active",
            Status::Suppressed => "suppressed",
        }
    }
}

/// One diagnostic at a `file:line:col` position.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    pub status: Status,
}

/// An `// oftec-lint: allow(L00X, reason)` directive; covers its own
/// line and the next.
#[derive(Debug, Clone)]
pub struct Suppression {
    pub rules: Vec<String>,
    pub line: u32,
}

/// Classifies a workspace-relative path into its owning crate and target
/// kind. Returns `None` for files outside any analyzable target.
pub fn classify(rel: &str) -> Option<(String, FileKind)> {
    let norm = rel.replace('\\', "/");
    if norm
        .split('/')
        .any(|seg| seg == "tests" || seg == "target" || seg == "vendor")
    {
        return None;
    }
    let krate = match norm.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next()?.to_string(),
        None => "repro".to_string(),
    };
    let kind = if norm.split('/').any(|seg| seg == "benches") {
        FileKind::Bench
    } else if norm.split('/').any(|seg| seg == "examples") {
        FileKind::Example
    } else if norm.contains("/src/bin/") || norm.ends_with("src/main.rs") {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    Some((krate, kind))
}

/// Per-file scan statistics (merged into the run totals).
#[derive(Debug, Default)]
pub struct ScanStats {
    /// Findings silenced by an inline allow.
    pub suppressed: usize,
}

/// Everything one file's analysis produces: findings with suppression
/// status applied, the suppression table (the crate phase re-applies it
/// to cross-function findings), `// oftec-lint: hot` marker lines, and
/// the per-function dataflow summaries. Depends only on the file's own
/// bytes.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    pub findings: Vec<Finding>,
    pub suppressions: Vec<Suppression>,
    pub hot_lines: Vec<u32>,
    pub summaries: Vec<crate::dataflow::FnSummary>,
    pub stats: ScanStats,
}

/// Scans one file's source, returning every finding (active and
/// suppressed) for the rules that apply to `(krate, kind)`.
pub fn scan_source(rel: &str, src: &str, krate: &str, kind: FileKind) -> (Vec<Finding>, ScanStats) {
    let analysis = analyze_source(rel, src, krate, kind);
    (analysis.findings, analysis.stats)
}

/// Full per-file analysis: token rules (L002–L006), the AST/dataflow
/// semantic rules that are file-local (L008, L012), suppression
/// handling, and function summaries for the crate phase (L009–L011,
/// L013).
pub fn analyze_source(rel: &str, src: &str, krate: &str, kind: FileKind) -> FileAnalysis {
    let toks = lex(src);
    let mut findings = Vec::new();

    // Pass 1: suppression and hot-marker directives (and their own
    // diagnostics) from line comments.
    let mut sups: Vec<Suppression> = Vec::new();
    let mut hot_lines: Vec<u32> = Vec::new();
    for t in &toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        parse_suppression(t, &mut sups, &mut hot_lines, &mut findings, rel);
    }

    // Pass 2: rule matchers over the code tokens.
    let code: Vec<Tok> = toks
        .into_iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let code_refs: Vec<&Tok> = code.iter().collect();
    let active: Vec<&'static Rule> = RULES
        .iter()
        .filter(|r| r.id != "L000" && r.applies(krate, kind))
        .collect();
    match_rules(&code_refs, &active, rel, &mut findings);

    // Pass 3: parse, resolve, summarize, and run the file-local semantic
    // rules.
    let ast = crate::parser::parse_file(&code);
    let syms = crate::resolve::collect(&ast);
    let mut summaries = Vec::new();
    crate::ast::for_each_fn(&ast.items, &mut |def| {
        summaries.push(crate::dataflow::summarize(def, &syms, rel));
    });
    findings.extend(crate::semantic::file_findings(
        rel, krate, kind, &ast, &syms, &summaries,
    ));

    // Pass 4: apply suppressions. A directive covers findings on its own
    // line and the line below it.
    let stats = ScanStats {
        suppressed: apply_suppressions(&mut findings, &sups),
    };
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    FileAnalysis {
        findings,
        suppressions: sups,
        hot_lines,
        summaries,
        stats,
    }
}

/// Marks findings covered by an allow directive (own line or the line
/// above) as suppressed; returns how many were. Also used by the crate
/// phase on cross-function findings.
pub fn apply_suppressions(findings: &mut [Finding], sups: &[Suppression]) -> usize {
    let mut by_line: BTreeMap<u32, Vec<&Suppression>> = BTreeMap::new();
    for s in sups {
        by_line.entry(s.line).or_default().push(s);
        by_line.entry(s.line + 1).or_default().push(s);
    }
    let mut suppressed = 0;
    for f in findings {
        if f.rule == "L000" || f.status != Status::Active {
            continue;
        }
        let covered = by_line
            .get(&f.line)
            .is_some_and(|list| list.iter().any(|s| s.rules.iter().any(|r| r == f.rule)));
        if covered {
            f.status = Status::Suppressed;
            suppressed += 1;
        }
    }
    suppressed
}

/// Parses `// oftec-lint: allow(L00X[, L00Y…], reason)` and
/// `// oftec-lint: hot` out of a line comment. Malformed directives
/// become `L000` findings.
fn parse_suppression(
    t: &Tok,
    sups: &mut Vec<Suppression>,
    hot_lines: &mut Vec<u32>,
    findings: &mut Vec<Finding>,
    rel: &str,
) {
    let body = t.text.trim_start_matches('/').trim();
    let Some(rest) = body.strip_prefix("oftec-lint:") else {
        return;
    };
    if rest.trim() == "hot" {
        // Marks the next function as per-request hot: L013 forbids heap
        // allocation in it and everything it (transitively) calls.
        hot_lines.push(t.line);
        return;
    }
    let mut bad = |message: String| {
        findings.push(Finding {
            rule: "L000",
            file: rel.to_string(),
            line: t.line,
            col: t.col,
            message,
            status: Status::Active,
        });
    };
    let rest = rest.trim();
    let Some(inner) = rest
        .strip_prefix("allow(")
        .and_then(|r| r.rfind(')').map(|end| &r[..end]))
    else {
        bad(format!(
            "unrecognized oftec-lint directive `{rest}`; expected `allow(L00X, reason)`"
        ));
        return;
    };
    let mut rules = Vec::new();
    let mut reason = String::new();
    for (i, part) in inner.split(',').enumerate() {
        let part = part.trim();
        let is_id = part.len() == 4
            && part.starts_with('L')
            && part[1..].chars().all(|c| c.is_ascii_digit());
        if is_id && reason.is_empty() {
            rules.push(part.to_string());
        } else if !part.is_empty() {
            if !reason.is_empty() {
                reason.push_str(", ");
            }
            reason.push_str(part);
        } else if i == 0 {
            break;
        }
    }
    if rules.is_empty() {
        bad("suppression names no rule id; expected `allow(L00X, reason)`".to_string());
        return;
    }
    for id in &rules {
        if crate::rules::rule(id).is_none() {
            bad(format!("suppression names unknown rule `{id}`"));
            return;
        }
    }
    if reason.is_empty() {
        bad(format!(
            "suppression of {} is missing its reason; the reason documents why the \
             invariant does not apply here",
            rules.join("/")
        ));
        return;
    }
    sups.push(Suppression {
        rules,
        line: t.line,
    });
}

/// Is this rule in the active set for the current file?
fn enabled(active: &[&'static Rule], id: &str) -> bool {
    active.iter().any(|r| r.id == id)
}

/// Token-window stop set for the L004 operand scan.
fn is_operand_stop(t: &Tok) -> bool {
    if t.kind != TokKind::Punct {
        return matches!(t.kind, TokKind::Ident)
            && matches!(
                t.text.as_str(),
                "if" | "while" | "match" | "return" | "else"
            );
    }
    matches!(
        t.text.as_str(),
        "(" | ")"
            | "{"
            | "}"
            | "["
            | "]"
            | ","
            | ";"
            | "="
            | "=="
            | "!="
            | "<"
            | ">"
            | "<="
            | ">="
            | "&&"
            | "||"
            | "=>"
            | "->"
    )
}

fn float_in_window<'a>(window: impl Iterator<Item = &'a Tok>) -> bool {
    for t in window {
        if t.kind == TokKind::Float {
            return true;
        }
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "f32" | "f64" | "NAN" | "INFINITY" | "NEG_INFINITY"
            )
        {
            return true;
        }
    }
    false
}

/// The single matcher pass: walks the code tokens once, tracking brace
/// depth and `#[cfg(test)]` regions, and emits raw findings.
fn match_rules(code: &[&Tok], active: &[&'static Rule], rel: &str, findings: &mut Vec<Finding>) {
    let is = |t: &Tok, kind: TokKind, text: &str| t.kind == kind && t.text == text;
    let push = |findings: &mut Vec<Finding>, rule: &'static str, t: &Tok, message: String| {
        findings.push(Finding {
            rule,
            file: rel.to_string(),
            line: t.line,
            col: t.col,
            message,
            status: Status::Active,
        });
    };

    let mut depth: i64 = 0;
    let mut test_regions: Vec<i64> = Vec::new();
    let mut pending_test = false;
    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];

        // Attributes are parsed wholesale (their contents are not code the
        // matchers should see). `#[cfg(test)]` arms the next brace.
        if is(t, TokKind::Punct, "#")
            && (i + 1 < code.len() && is(code[i + 1], TokKind::Punct, "["))
        {
            let (end, has_cfg_test) = parse_attr(code, i + 1);
            if has_cfg_test {
                pending_test = true;
            }
            i = end;
            continue;
        }
        if is(t, TokKind::Punct, "#")
            && i + 2 < code.len()
            && is(code[i + 1], TokKind::Punct, "!")
            && is(code[i + 2], TokKind::Punct, "[")
        {
            // Inner attribute: `#![cfg(test)]` marks the whole enclosing
            // scope — at depth 0 that is the entire file.
            let (end, has_cfg_test) = parse_attr(code, i + 2);
            if has_cfg_test {
                test_regions.push(depth - 1);
            }
            i = end;
            continue;
        }

        if is(t, TokKind::Punct, "{") {
            if pending_test {
                test_regions.push(depth);
                pending_test = false;
            }
            depth += 1;
            i += 1;
            continue;
        }
        if is(t, TokKind::Punct, "}") {
            depth -= 1;
            if test_regions.last() == Some(&depth) {
                test_regions.pop();
            }
            i += 1;
            continue;
        }
        if is(t, TokKind::Punct, ";") && pending_test {
            // `#[cfg(test)] use …;` — no braced region follows.
            pending_test = false;
        }
        if !test_regions.is_empty() {
            i += 1;
            continue;
        }

        // L002: `thread::spawn`.
        if enabled(active, "L002")
            && t.kind == TokKind::Ident
            && t.text == "spawn"
            && i >= 2
            && is(code[i - 1], TokKind::Punct, "::")
            && code[i - 2].kind == TokKind::Ident
            && code[i - 2].text == "thread"
        {
            push(
                findings,
                "L002",
                t,
                "raw `thread::spawn`; use the `oftec-parallel` scoped executor".to_string(),
            );
        }

        // L003: `Instant::now` / `SystemTime::now`.
        if enabled(active, "L003")
            && t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "Instant" | "SystemTime")
            && i + 2 < code.len()
            && is(code[i + 1], TokKind::Punct, "::")
            && code[i + 2].kind == TokKind::Ident
            && code[i + 2].text == "now"
        {
            push(
                findings,
                "L003",
                t,
                format!("`{}::now` in a deterministic solver crate", t.text),
            );
        }

        // L004: `==`/`!=` with a float literal in an operand window.
        if enabled(active, "L004")
            && t.kind == TokKind::Punct
            && matches!(t.text.as_str(), "==" | "!=")
        {
            let left = code[..i]
                .iter()
                .rev()
                .take_while(|p| !is_operand_stop(p))
                .take(8)
                .copied();
            let right = code[i + 1..]
                .iter()
                .take_while(|p| !is_operand_stop(p))
                .take(8)
                .copied();
            if float_in_window(left) || float_in_window(right) {
                push(
                    findings,
                    "L004",
                    t,
                    format!("exact float `{}` comparison; use a tolerance", t.text),
                );
            }
        }

        // L005: printing macros in library code.
        if enabled(active, "L005")
            && t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "println" | "eprintln" | "print" | "eprint" | "dbg"
            )
            && i + 1 < code.len()
            && is(code[i + 1], TokKind::Punct, "!")
        {
            push(
                findings,
                "L005",
                t,
                format!(
                    "`{}!` in library code; emit a telemetry event instead",
                    t.text
                ),
            );
        }

        // L006: panicking macros in library code.
        if enabled(active, "L006")
            && t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && i + 1 < code.len()
            && is(code[i + 1], TokKind::Punct, "!")
        {
            push(
                findings,
                "L006",
                t,
                format!(
                    "`{}!` on a non-test library path; return a typed error",
                    t.text
                ),
            );
        }

        i += 1;
    }
}

/// Parses one attribute group starting at the `[` token index; returns
/// the index just past the closing `]` and whether the attribute is
/// exactly `cfg(… test …)`.
fn parse_attr(code: &[&Tok], open: usize) -> (usize, bool) {
    let mut depth = 0i64;
    let mut j = open;
    let mut is_cfg = false;
    let mut has_test = false;
    let mut negated = false;
    while j < code.len() {
        let t = code[j];
        if t.kind == TokKind::Punct && t.text == "[" {
            depth += 1;
        } else if t.kind == TokKind::Punct && t.text == "]" {
            depth -= 1;
            if depth == 0 {
                return (j + 1, is_cfg && has_test && !negated);
            }
        } else if t.kind == TokKind::Ident {
            if j == open + 1 {
                is_cfg = t.text == "cfg";
            } else if t.text == "not" {
                // `#[cfg(not(test))]` compiles *outside* tests.
                negated = true;
            } else if t.text == "test" {
                has_test = true;
            }
        }
        j += 1;
    }
    (j, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Active `(rule, line)` pairs from scanning `src` as `x.rs`.
    fn active(src: &str, krate: &str, kind: FileKind) -> Vec<(&'static str, u32)> {
        let (findings, _) = scan_source("x.rs", src, krate, kind);
        findings
            .iter()
            .filter(|f| f.status == Status::Active)
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/thermal/src/model.rs"),
            Some(("thermal".to_string(), FileKind::Lib))
        );
        assert_eq!(
            classify("crates/serve/src/bin/loadgen.rs"),
            Some(("serve".to_string(), FileKind::Bin))
        );
        assert_eq!(
            classify("examples/demo.rs"),
            Some(("repro".to_string(), FileKind::Example))
        );
        assert_eq!(
            classify("crates/bench/benches/solve.rs"),
            Some(("bench".to_string(), FileKind::Bench))
        );
        assert_eq!(classify("crates/core/tests/integration.rs"), None);
        assert_eq!(classify("vendor/dep/src/lib.rs"), None);
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = "
fn live() { panic!(); }
#[cfg(test)]
mod tests {
    fn hidden() { panic!(); }
}
fn live_again() { panic!(); }
";
        assert_eq!(
            active(src, "core", FileKind::Lib),
            [("L006", 2), ("L006", 7)]
        );
    }

    #[test]
    fn cfg_not_test_is_still_scanned() {
        let src = "#[cfg(not(test))]\nmod m { fn f() { panic!(); } }\n";
        assert_eq!(active(src, "core", FileKind::Lib), [("L006", 2)]);
    }

    #[test]
    fn cfg_attr_does_not_arm_test_regions() {
        let src = "#[cfg_attr(docsrs, doc(cfg(test)))]\nfn f() { panic!(); }\n";
        assert_eq!(active(src, "core", FileKind::Lib), [("L006", 2)]);
    }

    #[test]
    fn inner_cfg_test_marks_whole_file() {
        let src = "#![cfg(test)]\nfn f() { panic!(); }\n";
        assert!(active(src, "core", FileKind::Lib).is_empty());
    }

    #[test]
    fn suppression_covers_own_and_next_line() {
        let src = "\
// oftec-lint: allow(L006, seeded fixture exercising the suppression path)
fn f() { panic!(); }
fn g() { panic!(); }
";
        let (findings, stats) = scan_source("x.rs", src, "core", FileKind::Lib);
        assert_eq!(stats.suppressed, 1);
        let statuses: Vec<Status> = findings.iter().map(|f| f.status).collect();
        assert_eq!(statuses, [Status::Suppressed, Status::Active]);
    }

    #[test]
    fn suppression_without_reason_is_flagged_and_inert() {
        let src = "// oftec-lint: allow(L006)\nfn f() { panic!(); }\n";
        let found = active(src, "core", FileKind::Lib);
        assert!(found.contains(&("L000", 1)), "missing reason is a finding");
        assert!(
            found.contains(&("L006", 2)),
            "the bad allow silences nothing"
        );
    }

    #[test]
    fn suppression_with_unknown_rule_is_flagged() {
        // L001 and L007 moved to clippy and rustc; a leftover allow naming
        // them is as unknown as a typo.
        for id in ["L999", "L001", "L007"] {
            let src = format!("// oftec-lint: allow({id}, x)\nfn f() {{}}\n");
            assert_eq!(active(&src, "core", FileKind::Lib), [("L000", 1)], "{id}");
        }
    }

    #[test]
    fn unrecognized_directive_is_flagged() {
        let src = "// oftec-lint: disable-next-line\nfn f() {}\n";
        assert_eq!(active(src, "core", FileKind::Lib), [("L000", 1)]);
    }

    #[test]
    fn l002_thread_spawn_scoped_to_non_parallel_crates() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(active(src, "core", FileKind::Lib), [("L002", 1)]);
        assert!(active(src, "parallel", FileKind::Lib).is_empty());
    }

    #[test]
    fn l003_wall_clock_allowlist() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(active(src, "thermal", FileKind::Lib), [("L003", 1)]);
        assert!(active(src, "bench", FileKind::Lib).is_empty());
    }

    #[test]
    fn l004_float_equality_in_kernel_crates_only() {
        let src = "fn f(x: f64) -> bool { x == 0.0 }\n";
        assert_eq!(active(src, "linalg", FileKind::Lib), [("L004", 1)]);
        assert!(active(src, "power", FileKind::Lib).is_empty());
    }

    #[test]
    fn l004_integer_equality_is_fine() {
        let src = "fn f(x: usize) -> bool { x == 0 }\n";
        assert!(active(src, "linalg", FileKind::Lib).is_empty());
    }

    #[test]
    fn l005_and_l006_are_lib_only() {
        let src = "fn f() { println!(\"x\"); panic!(\"boom\"); }\n";
        assert_eq!(
            active(src, "core", FileKind::Lib),
            [("L005", 1), ("L006", 1)]
        );
        assert!(active(src, "core", FileKind::Bin).is_empty());
    }
}
