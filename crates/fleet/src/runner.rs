//! The sharded, resumable batch runner.
//!
//! One verdict JSONL file per shard, advanced in fixed-size batches. The
//! contract: the concatenated verdict stream of a completed run is
//! byte-identical at any `OFTEC_THREADS` setting, and a run killed
//! mid-shard resumes from its checkpoint to the same bytes.
//!
//! The mechanism is the same scatter-by-index discipline the rest of the
//! workspace uses — workers compute, only the orchestrator writes, and
//! the write order is the index order. Durability is checkpoint-ordered:
//! the shard file is flushed and fsynced *before* the checkpoint is
//! atomically replaced, so `ckpt.bytes` never points past valid data and
//! resume truncates any torn tail the crash left behind.

use crate::diff::{cross_check, FaultPlan};
use crate::minimize::{minimize, ReproCase};
use crate::rng::{splitmix64, Seed};
use crate::scenario::{ScenarioId, ScenarioSpec};
use crate::tolerance::TolerancePolicy;
use crate::verdict::{
    solve_verdict_on, Verdict, VerdictKind, CROSS_CHECK_EVAL_BUDGET, VERDICT_EVAL_BUDGET,
};
use crate::FleetError;
use serde::{Deserialize, Serialize};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Salt for the deterministic cross-check subsample draw.
const CROSS_CHECK_SALT: u64 = 0xc05e_c4ec_ca11_ab1e;

/// Wire-format version stamped into shard manifests.
const MANIFEST_FORMAT: u32 = 1;

/// A fault injected into exactly one scenario of the run (CI and tests
/// use this to prove the pipeline catches, minimizes and reports a
/// divergence end to end).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetedFault {
    /// Shard of the targeted scenario.
    pub shard: u32,
    /// Index of the targeted scenario within the shard.
    pub index: u32,
    /// The fault to inject there.
    pub plan: FaultPlan,
}

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Master seed; scenario `(shard, index)` addresses hang off it.
    pub run_seed: u64,
    /// Number of shards (one JSONL file each).
    pub shards: u32,
    /// Scenarios per shard.
    pub per_shard: u32,
    /// Output directory (created if absent).
    pub out_dir: PathBuf,
    /// Worker threads; `0` means [`oftec_parallel::thread_count`].
    pub threads: usize,
    /// Scenarios per checkpointed batch.
    pub batch: usize,
    /// Cross-check every scenario whose subsample draw is `0 (mod d)`;
    /// `0` disables the differential layer entirely.
    pub cross_check_divisor: u64,
    /// Agreement tolerances for the differential layer.
    pub policy: TolerancePolicy,
    /// Optional single-scenario fault injection (forces a cross-check at
    /// the targeted address).
    pub fault: Option<TargetedFault>,
    /// Stop (checkpointed, resumable) after this many scenarios have been
    /// processed *by this invocation* — the kill half of kill-then-resume
    /// testing.
    pub stop_after: Option<u64>,
    /// Minimize out-of-tolerance scenarios into `repro_*.json` files.
    pub minimize: bool,
}

impl RunConfig {
    /// A small default run under `out_dir`.
    pub fn new(run_seed: u64, shards: u32, per_shard: u32, out_dir: PathBuf) -> Self {
        Self {
            run_seed,
            shards,
            per_shard,
            out_dir,
            threads: 0,
            batch: 32,
            cross_check_divisor: 16,
            policy: TolerancePolicy::default(),
            fault: None,
            stop_after: None,
            minimize: true,
        }
    }
}

/// Per-verdict-kind tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerdictCounts {
    /// `feasible` verdicts.
    pub feasible: u64,
    /// `fan_only` verdicts.
    pub fan_only: u64,
    /// `tec_required` verdicts.
    pub tec_required: u64,
    /// `runaway` verdicts.
    pub runaway: u64,
    /// `solver_error` verdicts.
    pub solver_error: u64,
}

impl VerdictCounts {
    fn add(&mut self, kind: VerdictKind) {
        match kind {
            VerdictKind::Feasible => self.feasible += 1,
            VerdictKind::FanOnly => self.fan_only += 1,
            VerdictKind::TecRequired => self.tec_required += 1,
            VerdictKind::Runaway => self.runaway += 1,
            VerdictKind::SolverError => self.solver_error += 1,
        }
    }

    /// Sum over the partition (must equal the scenario count).
    pub fn total(&self) -> u64 {
        self.feasible + self.fan_only + self.tec_required + self.runaway + self.solver_error
    }
}

/// Outcome of a [`run`] call, tallied from the shard files on disk (so a
/// resumed run reports the whole run, not just its own increment).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// The run's master seed.
    pub run_seed: Seed,
    /// Shard count.
    pub shards: u32,
    /// Scenarios per shard.
    pub per_shard: u32,
    /// Scenarios with verdicts on disk.
    pub scenarios: u64,
    /// Verdict partition tallies.
    pub verdicts: VerdictCounts,
    /// Scenarios the differential layer cross-checked.
    pub cross_checks: u64,
    /// Total out-of-tolerance discrepancies.
    pub discrepancies: u64,
    /// Reproducer files present in the output directory.
    pub repro_files: Vec<String>,
    /// `true` when `stop_after` ended this invocation before the run
    /// completed (resume by calling [`run`] again with the same config).
    pub stopped_early: bool,
}

/// Shard checkpoint: scenarios completed and the exact byte length of the
/// valid JSONL prefix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Checkpoint {
    completed: u32,
    bytes: u64,
}

/// Shard manifest: the run parameters the shard file was written under.
/// Resume refuses to append to a shard from a different run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Manifest {
    format: u32,
    run_seed: Seed,
    shard: u32,
    per_shard: u32,
}

/// Shard file paths.
fn shard_paths(out_dir: &Path, shard: u32) -> (PathBuf, PathBuf, PathBuf) {
    (
        out_dir.join(format!("shard-{shard:04}.jsonl")),
        out_dir.join(format!("shard-{shard:04}.ckpt.json")),
        out_dir.join(format!("shard-{shard:04}.manifest.json")),
    )
}

fn io_err(context: &str, e: std::io::Error) -> FleetError {
    FleetError::Io(format!("{context}: {e}"))
}

/// Atomically replaces `path` with `contents` (tmp write + rename).
fn write_atomic(path: &Path, contents: &str) -> Result<(), FleetError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents).map_err(|e| io_err("write tmp", e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename tmp", e))
}

fn read_json<T: Deserialize>(path: &Path, what: &str) -> Result<T, FleetError> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err(what, e))?;
    serde_json::from_str(&text).map_err(|e| FleetError::Manifest(format!("{what}: {e}")))
}

/// One worker's output for one scenario.
struct WorkItem {
    line: String,
    repro: Option<ReproCase>,
}

/// Whether the differential layer runs on this scenario: either the
/// deterministic subsample draw selects it, or a targeted fault names it.
fn selects_cross_check(config: &RunConfig, id: ScenarioId) -> bool {
    if targeted_fault(config, id).is_some() {
        return true;
    }
    if config.cross_check_divisor == 0 {
        return false;
    }
    splitmix64(id.stream_seed() ^ CROSS_CHECK_SALT).is_multiple_of(config.cross_check_divisor)
}

fn targeted_fault(config: &RunConfig, id: ScenarioId) -> Option<&FaultPlan> {
    config
        .fault
        .as_ref()
        .filter(|f| f.shard == id.shard && f.index == id.index)
        .map(|f| &f.plan)
}

/// Computes one scenario end to end: verdict, optional cross-check,
/// optional minimization. Pure function of `(config, id)`.
fn process_scenario(config: &RunConfig, id: ScenarioId) -> WorkItem {
    let spec = ScenarioSpec::generate(id);
    let cross = selects_cross_check(config, id);
    let budget = if cross {
        CROSS_CHECK_EVAL_BUDGET
    } else {
        VERDICT_EVAL_BUDGET
    };
    let mut repro = None;
    let mut verdict = match spec.build() {
        Ok(system) => {
            let mut v = solve_verdict_on(&system, &spec, budget);
            if cross {
                let fault = targeted_fault(config, id);
                let report = cross_check(&system, &config.policy, fault);
                v.cross_checked = true;
                v.discrepancies = report.failures.len() as u32;
                if !report.failures.is_empty() && config.minimize {
                    repro = minimize(&spec, fault, &config.policy);
                }
            }
            v
        }
        Err(e) => {
            let mut v = error_verdict(&spec);
            v.error = Some(e.to_string());
            v
        }
    };
    let line = match serde_json::to_string(&verdict) {
        Ok(line) => line,
        Err(e) => {
            // Unreachable by construction (verdicts are finite-sanitized),
            // but a shard must never die on one bad line.
            verdict = error_verdict(&spec);
            verdict.error = Some(format!("verdict serialization failed: {e}"));
            serde_json::to_string(&verdict).unwrap_or_default()
        }
    };
    WorkItem { line, repro }
}

/// A bare `solver_error` verdict for `spec` (no floats — always
/// serializable).
fn error_verdict(spec: &ScenarioSpec) -> Verdict {
    Verdict {
        id: spec.id,
        class: spec.class,
        verdict: VerdictKind::SolverError,
        max_temp_c: None,
        cooling_power_w: None,
        solve_path: "fan".to_owned(),
        thermal_solves: 0,
        cross_checked: false,
        discrepancies: 0,
        error: None,
    }
}

/// The reproducer filename for a scenario address.
fn repro_filename(id: ScenarioId) -> String {
    format!(
        "repro_{:016x}_{}_{}.json",
        id.run_seed.0, id.shard, id.index
    )
}

/// Runs (or resumes) the fleet sweep described by `config`.
///
/// # Errors
///
/// [`FleetError::Io`] on filesystem failures; [`FleetError::Manifest`]
/// when the output directory holds shards from a different run.
#[must_use = "the summary carries the discrepancy count the caller must check"]
pub fn run(config: &RunConfig) -> Result<RunSummary, FleetError> {
    std::fs::create_dir_all(&config.out_dir).map_err(|e| io_err("create out dir", e))?;
    let threads = if config.threads == 0 {
        oftec_parallel::thread_count()
    } else {
        config.threads
    };
    let batch = config.batch.max(1);
    let mut processed_now: u64 = 0;
    let mut stopped_early = false;

    'shards: for shard in 0..config.shards {
        let (jsonl_path, ckpt_path, manifest_path) = shard_paths(&config.out_dir, shard);

        // Manifest: create on first touch, verify on resume.
        let manifest = Manifest {
            format: MANIFEST_FORMAT,
            run_seed: Seed(config.run_seed),
            shard,
            per_shard: config.per_shard,
        };
        if manifest_path.exists() {
            let existing: Manifest = read_json(&manifest_path, "shard manifest")?;
            if existing != manifest {
                return Err(FleetError::Manifest(format!(
                    "shard {shard} was written by a different run \
                     (found seed {}, {} per shard; expected seed {}, {})",
                    existing.run_seed, existing.per_shard, manifest.run_seed, manifest.per_shard
                )));
            }
        } else {
            write_atomic(
                &manifest_path,
                &serde_json::to_string(&manifest)
                    .map_err(|e| FleetError::Manifest(e.to_string()))?,
            )?;
        }

        // Checkpoint: where the valid prefix ends.
        let ckpt = if ckpt_path.exists() {
            read_json::<Checkpoint>(&ckpt_path, "shard checkpoint")?
        } else {
            Checkpoint {
                completed: 0,
                bytes: 0,
            }
        };
        if ckpt.completed >= config.per_shard {
            continue; // shard already complete
        }

        // Open the shard file and discard any torn tail past the
        // checkpoint (a crash between write and checkpoint leaves one).
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&jsonl_path)
            .map_err(|e| io_err("open shard file", e))?;
        file.set_len(ckpt.bytes)
            .map_err(|e| io_err("truncate shard file", e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek shard file", e))?;
        let mut bytes = ckpt.bytes;
        let mut completed = ckpt.completed;

        while completed < config.per_shard {
            if let Some(limit) = config.stop_after {
                if processed_now >= limit {
                    stopped_early = true;
                    break 'shards;
                }
            }
            let end = (completed as usize + batch).min(config.per_shard as usize) as u32;
            let indices: Vec<u32> = (completed..end).collect();
            let results =
                oftec_parallel::par_try_map_indexed_with(threads, &indices, |_, &index| {
                    process_scenario(
                        config,
                        ScenarioId {
                            run_seed: Seed(config.run_seed),
                            shard,
                            index,
                        },
                    )
                });
            for (offset, result) in results.into_iter().enumerate() {
                let index = indices[offset];
                let id = ScenarioId {
                    run_seed: Seed(config.run_seed),
                    shard,
                    index,
                };
                let item = match result {
                    Ok(item) => item,
                    Err(panic) => {
                        // A panicking scenario degrades to a solver_error
                        // line; the shard stream stays complete.
                        let spec = ScenarioSpec::generate(id);
                        let mut v = error_verdict(&spec);
                        v.error = Some(format!("scenario worker panicked: {}", panic.message));
                        WorkItem {
                            line: serde_json::to_string(&v).unwrap_or_default(),
                            repro: None,
                        }
                    }
                };
                file.write_all(item.line.as_bytes())
                    .and_then(|()| file.write_all(b"\n"))
                    .map_err(|e| io_err("append verdict", e))?;
                bytes += item.line.len() as u64 + 1;
                if let Some(case) = item.repro {
                    let path = config.out_dir.join(repro_filename(id));
                    let json = serde_json::to_string(&case)
                        .map_err(|e| FleetError::Manifest(format!("repro case: {e}")))?;
                    write_atomic(&path, &json)?;
                }
            }
            // Durability order: data reaches the disk before the
            // checkpoint claims it.
            file.sync_all().map_err(|e| io_err("sync shard file", e))?;
            let new_ckpt = Checkpoint {
                completed: end,
                bytes,
            };
            write_atomic(
                &ckpt_path,
                &serde_json::to_string(&new_ckpt)
                    .map_err(|e| FleetError::Manifest(e.to_string()))?,
            )?;
            processed_now += u64::from(end - completed);
            completed = end;
        }
    }

    tally(config, stopped_early)
}

/// Builds the run summary by re-reading every shard's valid prefix (so
/// the numbers describe the whole run regardless of which invocation
/// processed which scenario).
fn tally(config: &RunConfig, stopped_early: bool) -> Result<RunSummary, FleetError> {
    let mut summary = RunSummary {
        run_seed: Seed(config.run_seed),
        shards: config.shards,
        per_shard: config.per_shard,
        scenarios: 0,
        verdicts: VerdictCounts::default(),
        cross_checks: 0,
        discrepancies: 0,
        repro_files: Vec::new(),
        stopped_early,
    };
    for shard in 0..config.shards {
        let (jsonl_path, ckpt_path, _) = shard_paths(&config.out_dir, shard);
        if !ckpt_path.exists() {
            continue;
        }
        let ckpt: Checkpoint = read_json(&ckpt_path, "shard checkpoint")?;
        let mut file = std::fs::File::open(&jsonl_path).map_err(|e| io_err("open shard", e))?;
        let mut text = String::new();
        file.read_to_string(&mut text)
            .map_err(|e| io_err("read shard", e))?;
        // Only the checkpointed prefix is the run's output.
        let prefix = &text[..(ckpt.bytes as usize).min(text.len())];
        for line in prefix.lines() {
            let v: Verdict = serde_json::from_str(line)
                .map_err(|e| FleetError::Manifest(format!("shard {shard} verdict line: {e}")))?;
            summary.scenarios += 1;
            summary.verdicts.add(v.verdict);
            if v.cross_checked {
                summary.cross_checks += 1;
            }
            summary.discrepancies += u64::from(v.discrepancies);
        }
    }
    let mut repro_files: Vec<String> = std::fs::read_dir(&config.out_dir)
        .map_err(|e| io_err("list out dir", e))?
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| name.starts_with("repro_") && name.ends_with(".json"))
        .collect();
    repro_files.sort_unstable();
    summary.repro_files = repro_files;

    Ok(summary)
}

/// Reads and concatenates every shard's checkpointed verdict stream, in
/// shard order — the canonical byte stream determinism tests compare.
pub fn concatenated_verdicts(out_dir: &Path, shards: u32) -> Result<Vec<u8>, FleetError> {
    let mut all = Vec::new();
    for shard in 0..shards {
        let (jsonl_path, ckpt_path, _) = shard_paths(out_dir, shard);
        if !ckpt_path.exists() {
            continue;
        }
        let ckpt: Checkpoint = read_json(&ckpt_path, "shard checkpoint")?;
        let data = std::fs::read(&jsonl_path).map_err(|e| io_err("read shard", e))?;
        let take = (ckpt.bytes as usize).min(data.len());
        all.extend_from_slice(&data[..take]);
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("oftec-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn small_run_partitions_every_scenario() {
        let dir = tmp_dir("unit-partition");
        let mut config = RunConfig::new(77, 2, 12, dir.clone());
        config.threads = 2;
        config.cross_check_divisor = 4;
        let summary = run(&config).expect("run succeeds");
        assert_eq!(summary.scenarios, 24);
        assert_eq!(summary.verdicts.total(), 24);
        assert!(!summary.stopped_early);
        assert!(summary.cross_checks > 0, "subsample selected nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rerun_of_a_complete_run_is_a_no_op() {
        let dir = tmp_dir("unit-noop");
        let config = RunConfig::new(5, 1, 6, dir.clone());
        let first = run(&config).expect("first run");
        let bytes_before = concatenated_verdicts(&dir, 1).expect("read");
        let second = run(&config).expect("second run");
        let bytes_after = concatenated_verdicts(&dir, 1).expect("read");
        assert_eq!(first.scenarios, second.scenarios);
        assert_eq!(bytes_before, bytes_after);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_manifest_is_refused() {
        let dir = tmp_dir("unit-manifest");
        let config = RunConfig::new(9, 1, 4, dir.clone());
        run(&config).expect("first run");
        let mut other = config.clone();
        other.run_seed = 10;
        let err = run(&other).expect_err("different seed must be refused");
        assert!(matches!(err, FleetError::Manifest(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
