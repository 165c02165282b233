//! What one benchmark run prints: a provenance record, a table of every
//! metric with its spread and sample count, the output checks, and, as
//! the last line, the result object.

use crate::stats;

/// The end-to-end metrics every `--trace 0` run reports, as declared in
/// `BENCHMARK.json`: `(name, unit)`. Each is measured on every workload;
/// what an "operation" is differs by workload (see README.md).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// The per-layer metrics every `--trace 1` run reports, as declared in
/// `BENCHMARK.json`. A workload reports 0 for the layers it does not
/// exercise (no calls, no time, no lookups).
pub const PER_LAYER: [(&str, &str); 36] = [
    ("alg1.table2_ms_p95", "ms"),
    ("thermal.eval_calls", "count"),
    ("thermal.eval_us_p50", "us"),
    ("thermal.eval_share", "ratio"),
    ("thermal.reduced_fallback_ratio", "ratio"),
    ("optim.self_ms", "ms"),
    ("optim.sqp_iters", "count"),
    ("core.problem_cache_hit_ratio", "ratio"),
    ("thermal.assembly_ms", "ms"),
    ("thermal.pod_build_ms", "ms"),
    ("linalg.snapshot_cg_iters_p50", "count"),
    ("alg1.unattributed_ms", "ms"),
    ("serve.p99_us", "us"),
    ("serve.client_hit_p50_us", "us"),
    ("serve.client_miss_p50_us", "us"),
    ("serve.stage.parse_us", "us"),
    ("serve.stage.cache_us", "us"),
    ("serve.stage.queue_us", "us"),
    ("serve.stage.batch_us", "us"),
    ("serve.stage.solve_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.batch_mean_jobs", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_exceeded", "count"),
    ("serve.gen_late_us_p99", "us"),
    ("fleet.build_ms", "ms"),
    ("fleet.verdict_ms", "ms"),
    ("fleet.cross_check_ms", "ms"),
    ("fleet.cross_check_share", "ratio"),
    ("parallel.busy_share", "ratio"),
    ("fleet.unattributed_share", "ratio"),
    ("fleet.cross_checks", "count"),
    ("fleet.discrepancies", "count"),
    ("fleet.thermal_solves_per_scenario", "count"),
    ("telemetry.trace_overhead", "ratio"),
];

const UNEXERCISED: &str = "not exercised by this workload";

/// The declared unit of `name`; empty for an undeclared name, which the
/// caller rejects before printing a result.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| *u)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Interquartile range over the samples as a share of the median,
    /// when the value is a median of several samples.
    pub spread: Option<f64>,
    pub samples: usize,
    /// What the metric is on this workload, in ROADMAP's terms (e.g.
    /// `alg1.table2_ms`).
    pub meaning: &'static str,
}

/// Operations attempted and failed, output checks, and metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the metric table.
    pub notes: Vec<String>,
}

impl Report {
    /// Records an output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// A single-valued metric (a count, a ratio, or one measurement).
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            unit: unit_of(name),
            value,
            spread: None,
            samples: 1,
            meaning: "",
        });
    }

    /// The median of `samples`, reported with their spread.
    pub fn median(&mut self, name: &'static str, samples: &[f64]) {
        self.metrics.push(Metric {
            name,
            unit: unit_of(name),
            value: stats::median(samples),
            spread: Some(stats::spread(samples)),
            samples: samples.len(),
            meaning: "",
        });
    }

    /// Annotates the metric just reported with its meaning on this
    /// workload.
    pub fn meaning(&mut self, meaning: &'static str) {
        if let Some(m) = self.metrics.last_mut() {
            m.meaning = meaning;
        }
    }

    /// Reports 0 for every declared metric of `names` this run did not
    /// measure, so every run prints the whole declared set.
    pub fn fill_unexercised(&mut self, names: &[(&'static str, &'static str)]) {
        for &(name, _) in names {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.value(name, 0.0);
                self.meaning(UNEXERCISED);
            }
        }
    }

    /// `true` when every output check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The human-readable lines printed before the result object.
    pub fn table(&self) -> Vec<String> {
        let mut lines = Vec::new();
        let mut unexercised = 0;
        for m in &self.metrics {
            if m.meaning == UNEXERCISED {
                unexercised += 1;
                continue;
            }
            let spread = m
                .spread
                .map_or_else(|| "-".to_owned(), |s| format!("{s:.4}"));
            lines.push(format!(
                "metric {:<36} {:>16.6} {:<6} spread {:>8} n {:<6} {}",
                m.name, m.value, m.unit, spread, m.samples, m.meaning
            ));
        }
        if unexercised > 0 {
            lines.push(format!(
                "metric ({unexercised} more reported as 0: {UNEXERCISED})"
            ));
        }
        for (name, ok) in &self.checks {
            lines.push(format!(
                "check  {name}: {}",
                if *ok { "ok" } else { "FAILED" }
            ));
        }
        lines.push(format!(
            "ops    attempted {} failed {}",
            self.attempted, self.failed
        ));
        lines
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as `{"value", "unit"}`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (a metric with no samples) are
/// written as `null` so they cannot masquerade as a measurement.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Provenance of one run: workload, seed, host parallelism, commit and
/// the `OFTEC_THREADS` setting the program saw.
pub struct Record<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub trace: bool,
    pub seconds: f64,
    pub nproc: usize,
    pub commit: String,
    pub oftec_threads: Option<String>,
}

impl Record<'_> {
    /// Reads host parallelism, commit and `OFTEC_THREADS` from the
    /// environment.
    pub fn host(workload: &str, seed: u64, trace: bool, seconds: f64) -> Record<'_> {
        Record {
            workload,
            seed,
            trace,
            seconds,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            commit: commit(),
            oftec_threads: std::env::var("OFTEC_THREADS").ok(),
        }
    }

    pub fn json(&self) -> String {
        let threads = self.oftec_threads.as_ref().map_or_else(
            || "null".to_owned(),
            |t| format!("\"{}\"", t.escape_default()),
        );
        format!(
            "{{\"record\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"seconds\":{},\
             \"nproc\":{},\"commit\":\"{}\",\"oftec_threads\":{}}}}}",
            self.workload.escape_default(),
            self.seed,
            self.trace,
            json_number(self.seconds),
            self.nproc,
            self.commit.escape_default(),
            threads
        )
    }
}

/// The checked-out commit, or `unknown` outside a git work tree.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_names_host_commit_seed_and_threads() {
        let record = Record::host("alg1", 17, false, 3.0);
        let json = record.json();
        for key in [
            "\"nproc\":",
            "\"commit\":",
            "\"seed\":17",
            "\"oftec_threads\":",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        let parsed: serde::Value = serde_json::from_str(&json).unwrap();
        assert!(parsed.as_map().is_some());
    }

    #[test]
    fn result_has_exactly_the_four_keys() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.median("op_p50_ms", &[1.0, 2.0, 3.0]);
        report.check("c", true);
        let json = report.result_json();
        let parsed: serde::Value = serde_json::from_str(&json).unwrap();
        let keys: Vec<&str> = parsed
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(json.contains("\"op_p50_ms\":{\"value\":2.0,\"unit\":\"ms\"}"));
    }
}

#[cfg(test)]
mod declared {
    use super::{END_TO_END, PER_LAYER};

    /// The metric tables here and the declaration in BENCHMARK.json must
    /// name the same metrics with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc: serde::Value = serde_json::from_str(&text).unwrap();
        let field = |v: &serde::Value, key: &str| -> String {
            let map = v.as_map().unwrap();
            let (_, value) = map.iter().find(|(k, _)| k == key).unwrap();
            value.as_str().unwrap().to_owned()
        };
        let declared = |section: &str| -> Vec<(String, String)> {
            let map = doc.as_map().unwrap();
            let (_, list) = map.iter().find(|(k, _)| k == section).unwrap();
            list.as_seq()
                .unwrap()
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let ours = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
    }
}
