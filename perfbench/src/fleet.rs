//! `fleet`: the sharded scenario sweep through `oftec_fleet::runner::run`.
//! A fresh coarse assembly per scenario, full-model verdicts and a POD
//! build per cross-check; the only workload that fans out through
//! `oftec_parallel` and writes checkpoints.

use crate::probe::{HostProbe, REFERENCE_MS};
use crate::report::Report;
use crate::stats;
use crate::Args;
use oftec_fleet::diff::cross_check;
use oftec_fleet::rng::{splitmix64, Seed};
use oftec_fleet::runner::{concatenated_verdicts, run as run_sweep, RunConfig, RunSummary};
use oftec_fleet::scenario::{ScenarioId, ScenarioSpec};
use oftec_fleet::tolerance::TolerancePolicy;
use oftec_fleet::verdict::{
    solve_verdict_on, Verdict, VerdictKind, CROSS_CHECK_EVAL_BUDGET, VERDICT_EVAL_BUDGET,
};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The population: shard 0 of the `oftec-fleet run` default sweep (seed
/// 42, 250 scenarios per shard). It is the same for every `--seed`: the
/// sweep's cost is dominated by the one-in-sixteen cross-check draw,
/// whose count differs by more than 10 % between populations, which
/// would make a per-seed population's throughput spread wider than any
/// usable bound. Scenario (0, 226) of this shard carries two known
/// cross-check discrepancies, so every run shows them.
const POPULATION_SEED: u64 = 42;
const PER_SHARD: u32 = 250;

/// Set-up is a warm-up sweep of the population's first scenarios in a
/// fresh directory (lazy initialisation and allocator growth are paid
/// there, not in the measured sweeps), timed this many times per run and
/// reported as the median.
const SETUP_REPEATS: usize = 5;
const WARMUP_SCENARIOS: u32 = 16;

/// Probe timings taken after each batch; their median scales the batch.
const PROBES_PER_BATCH: usize = 3;

/// The runner's cross-check subsample salt (private to the runner; the
/// replica must draw the same subsample).
const CROSS_CHECK_SALT: u64 = 0xc05e_c4ec_ca11_ab1e;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn config(out_dir: PathBuf, per_shard: u32) -> RunConfig {
    let mut config = RunConfig::new(POPULATION_SEED, 1, per_shard, out_dir);
    config.threads = nproc();
    config.minimize = false;
    config
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("clear {}: {e}", path.display()))?;
    }
    Ok(())
}

/// One complete sweep of `scenarios` in a fresh directory, advanced one
/// checkpointed batch per `runner::run` call (the runner's resume path)
/// with the host probe timed between calls. Returns the sweep's wall
/// time (probes excluded), the same time scaled batch by batch to the
/// reference host speed, the summary and the concatenated verdict
/// stream.
fn sweep(
    dir: &Path,
    scenarios: u32,
    probe: &mut HostProbe,
) -> Result<(Duration, f64, RunSummary, Vec<u8>), String> {
    fresh_dir(dir)?;
    let mut config = config(dir.to_path_buf(), scenarios);
    config.stop_after = Some(config.batch as u64);
    let mut wall = Duration::ZERO;
    let mut scaled_s = 0.0;
    let summary = loop {
        let t0 = crate::now();
        let summary = run_sweep(&config).map_err(|e| e.to_string())?;
        let batch = t0.elapsed();
        wall += batch;
        let probes: Vec<f64> = (0..PROBES_PER_BATCH).map(|_| probe.time_ms()).collect();
        scaled_s += batch.as_secs_f64() * REFERENCE_MS / stats::median(&probes);
        if !summary.stopped_early {
            break summary;
        }
    };
    let stream = concatenated_verdicts(dir, 1).map_err(|e| e.to_string())?;
    Ok((wall, scaled_s, summary, stream))
}

/// FNV-1a over the verdict stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Checks one sweep's outputs and counts its operations; discrepancies
/// and `solver_error` verdicts are failed operations.
fn account(summary: &RunSummary, stream: &[u8], report: &mut Report) -> bool {
    let lines = stream.iter().filter(|&&b| b == b'\n').count() as u64;
    report.attempted += summary.scenarios;
    report.failed += summary.discrepancies + summary.verdicts.solver_error;
    summary.verdicts.total() == summary.scenarios
        && summary.scenarios == u64::from(PER_SHARD)
        && lines == summary.scenarios
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let root = args.work_dir.join("fleet");
    if args.trace {
        return traced(&root, report);
    }
    let mut probe = HostProbe::new();
    let mut setup = Vec::new();
    for k in 0..SETUP_REPEATS {
        let (_, scaled_s, ..) = sweep(
            &root.join(format!("setup-{k}")),
            WARMUP_SCENARIOS,
            &mut probe,
        )?;
        setup.push(scaled_s);
    }

    let mut rates = Vec::new();
    let mut scaled_ms = Vec::new();
    let mut raw_ms = Vec::new();
    let mut hashes = Vec::new();
    let mut partition_ok = true;
    let start = crate::now();
    let mut last = Duration::ZERO;
    while rates.len() < 2 || start.elapsed() + last <= args.seconds {
        let dir = root.join(format!("sweep-{}", rates.len()));
        let (wall, scaled_s, summary, stream) = sweep(&dir, PER_SHARD, &mut probe)?;
        partition_ok &= account(&summary, &stream, report);
        hashes.push(fnv1a(&stream));
        rates.push(summary.scenarios as f64 / scaled_s);
        scaled_ms.push(scaled_s * 1e3);
        raw_ms.push(wall.as_secs_f64() * 1e3);
        last = wall;
    }
    let identical = hashes.windows(2).all(|w| w[0] == w[1]);
    report.check(
        "fleet: verdict partition sums to the scenario count",
        partition_ok,
    );
    report.check("fleet: verdict stream identical across repeats", identical);
    if !identical {
        report.failed += 1;
    }
    let _ = std::fs::remove_dir_all(&root);

    report.notes.push(format!(
        "host: unscaled sweep median {:.1} ms",
        stats::median(&raw_ms)
    ));
    report.median("setup_s", &setup);
    report.value("peak_rss_mb", crate::peak_rss_mb(None));
    report.median("op_p50_ms", &scaled_ms);
    report.meaning("one sweep of the 250-scenario shard at reference host speed");
    report.median("ops_per_s", &rates);
    report.meaning("fleet.scenarios_per_s at reference host speed");
    Ok(())
}

/// Time spent in each public call for one replicated scenario.
struct Item {
    line: String,
    build: Duration,
    verdict: Duration,
    cross: Duration,
    total: Duration,
    thermal_solves: u64,
}

/// Replicates one scenario through the public calls the runner makes.
fn replicate(id: ScenarioId, policy: &TolerancePolicy) -> Item {
    let t0 = crate::now();
    let spec = ScenarioSpec::generate(id);
    let cross = splitmix64(id.stream_seed() ^ CROSS_CHECK_SALT).is_multiple_of(16);
    let budget = if cross {
        CROSS_CHECK_EVAL_BUDGET
    } else {
        VERDICT_EVAL_BUDGET
    };
    let built = spec.build();
    let t1 = crate::now();
    let (verdict, t2, t3) = match built {
        Ok(system) => {
            let mut v = solve_verdict_on(&system, &spec, budget);
            let t2 = crate::now();
            if cross {
                let report = cross_check(&system, policy, None);
                v.cross_checked = true;
                v.discrepancies = report.failures.len() as u32;
            }
            (v, t2, crate::now())
        }
        Err(e) => {
            let mut v = error_verdict(&spec);
            v.error = Some(e.to_string());
            (v, t1, t1)
        }
    };
    let line = serde_json::to_string(&verdict).unwrap_or_default();
    Item {
        line,
        build: t1 - t0,
        verdict: t2 - t1,
        cross: t3 - t2,
        total: t0.elapsed(),
        thermal_solves: verdict.thermal_solves,
    }
}

/// The runner's verdict for a scenario that could not be solved.
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

/// One untraced sweep, then the same population replicated scenario by
/// scenario, batch by batch, on the same thread count; every replicated
/// line must equal the runner's.
fn traced(root: &Path, report: &mut Report) -> Result<(), String> {
    let (run_wall, _, summary, stream) =
        sweep(&root.join("sweep"), PER_SHARD, &mut HostProbe::new())?;
    let partition_ok = account(&summary, &stream, report);
    let runner_lines: Vec<&str> = std::str::from_utf8(&stream)
        .map_err(|e| e.to_string())?
        .lines()
        .collect();

    let threads = nproc();
    let batch = config(root.to_path_buf(), PER_SHARD).batch;
    let policy = TolerancePolicy::default();
    let mut items: Vec<Item> = Vec::new();
    let t0 = crate::now();
    for start in (0..PER_SHARD).step_by(batch) {
        let indices: Vec<u32> = (start..(start + batch as u32).min(PER_SHARD)).collect();
        let results = oftec_parallel::par_try_map_indexed_with(threads, &indices, |_, &index| {
            replicate(
                ScenarioId {
                    run_seed: Seed(POPULATION_SEED),
                    shard: 0,
                    index,
                },
                &policy,
            )
        });
        for result in results {
            items.push(result.map_err(|p| format!("replica panicked: {}", p.message))?);
        }
    }
    let rep_wall = t0.elapsed();
    let _ = std::fs::remove_dir_all(root);

    let mismatches = items
        .iter()
        .zip(runner_lines.iter().chain(std::iter::repeat(&"")))
        .filter(|(item, line)| item.line != **line)
        .count();
    report.failed += mismatches as u64;
    report.check(
        "fleet: verdict partition sums to the scenario count",
        partition_ok,
    );
    report.check(
        "fleet: every replicated verdict serializes byte-identically to the runner's line",
        mismatches == 0 && items.len() == runner_lines.len(),
    );

    let sum_ms =
        |f: fn(&Item) -> Duration| items.iter().map(|i| f(i).as_secs_f64() * 1e3).sum::<f64>();
    let (build, verdict, cross, busy) = (
        sum_ms(|i| i.build),
        sum_ms(|i| i.verdict),
        sum_ms(|i| i.cross),
        sum_ms(|i| i.total),
    );
    let capacity = threads as f64 * rep_wall.as_secs_f64() * 1e3;
    let solves: u64 = items.iter().map(|i| i.thermal_solves).sum();
    report.value("fleet.build_ms", build);
    report.value("fleet.verdict_ms", verdict);
    report.value("fleet.cross_check_ms", cross);
    report.value("fleet.cross_check_share", cross / busy);
    report.value("parallel.busy_share", busy / capacity);
    report.value(
        "fleet.unattributed_share",
        (busy - build - verdict - cross) / capacity,
    );
    report.value("fleet.cross_checks", summary.cross_checks as f64);
    report.value("fleet.discrepancies", summary.discrepancies as f64);
    report.value(
        "fleet.thermal_solves_per_scenario",
        solves as f64 / items.len().max(1) as f64,
    );
    report.value(
        "telemetry.trace_overhead",
        rep_wall.as_secs_f64() / run_wall.as_secs_f64() - 1.0,
    );
    Ok(())
}
