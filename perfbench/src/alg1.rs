//! `alg1`: Algorithm 1 on the eight Table 2 systems, one pass per Table 2,
//! repeated serially. The paper's own metric; the reduced thermal kernel
//! and `optim` do the work, `serve` and `parallel` none.

use crate::probe::{HostProbe, REFERENCE_MS};
use crate::report::Report;
use crate::stats;
use crate::timed::TimedModel;
use crate::Args;
use oftec::{CoolingSystem, Oftec, OftecOutcome};
use oftec_fleet::rng::SplitMix64;
use oftec_power::Benchmark;
use oftec_telemetry as telemetry;
use std::time::Duration;

/// The p95 of pass time needs ten passes beyond it.
const MIN_PASSES_P95: usize = 200;

/// Fewest passes a timing window must hold to count.
const MIN_WINDOW_PASSES: usize = 10;

/// Set-up (assembly + POD build of all eight systems) is repeated this
/// many times and reported as the median.
const SETUP_REPEATS: usize = 9;

/// `(benchmark, I* A, ω* RPM, 𝒫 W, T_max °C)` as Algorithm 1 returned
/// them at the commit that introduced this benchmark; every benchmark was
/// feasible.
const SEED_TABLE2: [(&str, f64, f64, f64, f64); 8] = [
    (
        "basicmath",
        0.29892751304390536,
        1347.802361745297,
        12.77793319046145,
        67.46582782505885,
    ),
    (
        "bitcount",
        1.4514441116086276,
        2937.6369078869943,
        25.480600355991395,
        89.90000000002016,
    ),
    (
        "CRC32",
        0.2759738155944829,
        1251.435578111942,
        10.821860113464922,
        61.5777050815596,
    ),
    (
        "dijkstra",
        1.0268231814427689,
        2391.2297984962092,
        21.909712511670087,
        89.900004776071,
    ),
    (
        "FFT",
        1.2823031649524277,
        2668.0733937734217,
        22.504675758991198,
        89.90000000003414,
    ),
    (
        "qsort",
        1.1353829531965087,
        2523.037037831589,
        22.713988951290002,
        89.90052973660812,
    ),
    (
        "stringsearch",
        0.2884963641729925,
        1329.576689301735,
        12.384924965958316,
        65.78765448413736,
    ),
    (
        "susan",
        1.06699633810269,
        2482.1633966720196,
        23.56411440775325,
        89.90003237359497,
    ),
];

/// Relative tolerance against [`SEED_TABLE2`]: loose enough for a solver
/// change that moves the optimum in its last digits, far tighter than
/// any Table 2 claim (0.01 % of 𝒫 is about 2 mW).
const SEED_TOLERANCE: f64 = 1e-4;

/// The Table 2 row of one outcome: `(I*, ω*, 𝒫, T_max, feasible)`.
/// Infeasible outcomes report the coolest point found and a NaN power.
#[derive(Clone, Copy, Debug)]
struct Row {
    amps: f64,
    rpm: f64,
    power_w: f64,
    t_max_c: f64,
    feasible: bool,
}

impl Row {
    fn of(outcome: &OftecOutcome) -> Self {
        match outcome {
            OftecOutcome::Optimized(s) => Row {
                amps: s.operating_point.tec_current.amperes(),
                rpm: s.operating_point.fan_speed.rpm(),
                power_w: s.cooling_power.watts(),
                t_max_c: s.max_temperature.celsius(),
                feasible: true,
            },
            OftecOutcome::Infeasible(r) => Row {
                amps: r.operating_point.tec_current.amperes(),
                rpm: r.operating_point.fan_speed.rpm(),
                power_w: f64::NAN,
                t_max_c: r.best_temperature.celsius(),
                feasible: false,
            },
        }
    }

    fn bits(&self) -> [u64; 5] {
        [
            self.amps.to_bits(),
            self.rpm.to_bits(),
            self.power_w.to_bits(),
            self.t_max_c.to_bits(),
            u64::from(self.feasible),
        ]
    }

    fn matches_seed(&self, seed: &(&str, f64, f64, f64, f64)) -> bool {
        let close = |a: f64, b: f64| (a - b).abs() <= SEED_TOLERANCE * b.abs();
        self.feasible
            && close(self.amps, seed.1)
            && close(self.rpm, seed.2)
            && close(self.power_w, seed.3)
            && close(self.t_max_c, seed.4)
    }
}

/// Builds the eight systems and their reduced-order models, probing the
/// host after each; returns them with the build time (s) scaled to the
/// reference host speed.
fn build_systems(probe: &mut HostProbe) -> (Vec<CoolingSystem>, f64) {
    let mut build_s = 0.0;
    let mut probes = Vec::new();
    let systems = Benchmark::ALL
        .iter()
        .map(|&b| {
            let t0 = crate::now();
            let system = CoolingSystem::for_benchmark(b);
            let _ = system.reduced_tec_model();
            build_s += t0.elapsed().as_secs_f64();
            probes.push(probe.time_ms());
            system
        })
        .collect();
    (systems, build_s * REFERENCE_MS / stats::median(&probes))
}

/// Checks each pass against the first, bit for bit, and the first
/// against the seed-commit values; counts every mismatch as a failure.
struct Checker {
    reference: Option<Vec<Row>>,
    attempted: u64,
    failed: u64,
    unstable: u64,
    errors: u64,
}

impl Checker {
    fn new() -> Self {
        Self {
            reference: None,
            attempted: 0,
            failed: 0,
            unstable: 0,
            errors: 0,
        }
    }

    fn pass(&mut self, outcomes: Vec<Result<OftecOutcome, oftec::OftecError>>) {
        self.attempted += outcomes.len() as u64;
        let rows: Vec<Option<Row>> = outcomes
            .iter()
            .map(|o| o.as_ref().ok().map(Row::of))
            .collect();
        self.errors += rows.iter().filter(|r| r.is_none()).count() as u64;
        self.failed += rows.iter().filter(|r| r.is_none()).count() as u64;
        match &self.reference {
            None => {
                if rows.iter().all(Option::is_some) {
                    self.reference = Some(rows.into_iter().flatten().collect());
                }
            }
            Some(reference) => {
                for (row, want) in rows.iter().zip(reference) {
                    if row.is_some_and(|r| r.bits() != want.bits()) {
                        self.unstable += 1;
                        self.failed += 1;
                    }
                }
            }
        }
    }

    fn finish(mut self, report: &mut Report) {
        let mut off_seed = 0;
        match &self.reference {
            Some(reference) => {
                for (row, seed) in reference.iter().zip(&SEED_TABLE2) {
                    if !row.matches_seed(seed) {
                        off_seed += 1;
                        report
                            .notes
                            .push(format!("table2 {} differs from the seed commit", seed.0));
                    }
                }
                for (row, seed) in reference.iter().zip(&SEED_TABLE2) {
                    report.notes.push(format!(
                        "table2 {:<12} I* {:?} A  w* {:?} RPM  P {:?} W  Tmax {:?} C  feasible {}",
                        seed.0, row.amps, row.rpm, row.power_w, row.t_max_c, row.feasible
                    ));
                }
            }
            None => off_seed = SEED_TABLE2.len() as u64,
        }
        self.failed += off_seed;
        report.check(
            "alg1: every pass solved all eight benchmarks",
            self.errors == 0,
        );
        report.check("alg1: passes bit-identical", self.unstable == 0);
        report.check(
            "alg1: optima match the seed-commit Table 2 within 1e-4",
            off_seed == 0,
        );
        report.attempted += self.attempted;
        report.failed += self.failed;
    }
}

/// The order of one pass: a seeded permutation of the eight systems.
fn pass_order(rng: &mut SplitMix64) -> [usize; 8] {
    let mut order = [0, 1, 2, 3, 4, 5, 6, 7];
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Runs one Table 2 pass in `order`; returns its wall time and the
/// outcomes in Table 2 order.
fn pass(
    systems: &[CoolingSystem],
    order: &[usize; 8],
) -> (Duration, Vec<Result<OftecOutcome, oftec::OftecError>>) {
    let oftec = Oftec::default();
    let mut outcomes: Vec<Option<Result<OftecOutcome, oftec::OftecError>>> =
        (0..systems.len()).map(|_| None).collect();
    let t0 = crate::now();
    for &k in order {
        outcomes[k] = Some(oftec.run(&systems[k]));
    }
    let wall = t0.elapsed();
    (wall, outcomes.into_iter().flatten().collect())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(args: &Args, report: &mut Report) {
    if args.trace {
        return traced(args, report);
    }
    let mut probe = HostProbe::new();
    let mut setup = Vec::new();
    let mut systems = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (built, scaled_s) = build_systems(&mut probe);
        systems = built;
        setup.push(scaled_s);
    }
    report.check(
        "alg1: reduced-order model built for all eight systems",
        systems
            .iter()
            .all(|s| s.reduced_tec_model().reduced_model().is_some()),
    );

    let mut rng = SplitMix64::new(args.seed);
    let mut checker = Checker::new();
    // (start of the pass in seconds, pass time in ms), and the host
    // probe timed right after each pass.
    let mut passes = Vec::new();
    let mut probes = Vec::new();
    let start = crate::now();
    while start.elapsed() < args.seconds {
        let at = start.elapsed().as_secs_f64();
        let (wall, outcomes) = pass(&systems, &pass_order(&mut rng));
        passes.push((at, ms(wall)));
        probes.push((at, probe.time_ms()));
        checker.pass(outcomes);
    }
    checker.finish(report);

    // Each window's pass median at the reference host speed.
    let pass_medians = stats::window_medians(&passes, MIN_WINDOW_PASSES);
    let probe_medians = stats::window_medians(&probes, MIN_WINDOW_PASSES);
    let scaled: Vec<f64> = pass_medians
        .iter()
        .zip(&probe_medians)
        .map(|(pass, probe)| pass * REFERENCE_MS / probe)
        .collect();
    let rates: Vec<f64> = scaled
        .iter()
        .map(|m| systems.len() as f64 * 1e3 / m)
        .collect();
    report.notes.push(format!(
        "host: probe median {:.3} ms (reference {REFERENCE_MS} ms); unscaled pass median {:.3} ms",
        stats::median(&probe_medians),
        stats::median(&pass_medians)
    ));
    report.median("setup_s", &setup);
    report.value("peak_rss_mb", crate::peak_rss_mb(None));
    report.median("op_p50_ms", &scaled);
    report.meaning("alg1.table2_ms: one Table 2 pass at reference host speed");
    report.median("ops_per_s", &rates);
    report.meaning("Table 2 benchmarks solved per second at that speed");
}

/// Per-pass layer split from the timing wrapper and the telemetry
/// counters, plus untraced passes for the trace overhead.
fn traced(args: &Args, report: &mut Report) {
    telemetry::set_collecting(true);
    let mut assembly = Duration::ZERO;
    let mut pod_build = Duration::ZERO;
    let mut build_buf = telemetry::LocalBuffer::default();
    let systems: Vec<CoolingSystem> = Benchmark::ALL
        .iter()
        .map(|&b| {
            let t0 = crate::now();
            let system = CoolingSystem::for_benchmark(b);
            assembly += t0.elapsed();
            let (_, buf) = telemetry::capture(|| {
                let t1 = crate::now();
                let _ = system.reduced_tec_model();
                pod_build += t1.elapsed();
            });
            build_buf.merge(buf);
            system
        })
        .collect();
    let cg_p50 = build_buf
        .histogram("cg.iterations")
        .and_then(|h| h.quantile(0.5))
        .unwrap_or(f64::NAN);

    let mut rng = SplitMix64::new(args.seed);
    let mut checker = Checker::new();

    // First half: untraced passes, the base of the trace overhead and
    // the tail of pass time.
    telemetry::set_collecting(false);
    let half = args.seconds / 2;
    let mut plain = Vec::new();
    let start = crate::now();
    while plain.len() < MIN_PASSES_P95 || start.elapsed() < half {
        let (wall, outcomes) = pass(&systems, &pass_order(&mut rng));
        plain.push(ms(wall));
        checker.pass(outcomes);
    }

    // Second half: every call timed, counters collected.
    telemetry::set_collecting(true);
    let oftec = Oftec::default();
    let mut traced_ms = Vec::new();
    let (mut eval_calls, mut eval_share, mut optim_self_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sqp_iters, mut unattributed_ms) = (Vec::new(), Vec::new());
    let mut evals_us: Vec<f64> = Vec::new();
    let mut counters = telemetry::LocalBuffer::default();
    let start = crate::now();
    while traced_ms.len() < 10 || start.elapsed() < half {
        let order = pass_order(&mut rng);
        let mut outcomes: Vec<Option<Result<OftecOutcome, oftec::OftecError>>> =
            (0..systems.len()).map(|_| None).collect();
        let (mut eval_ns, mut run_ns, mut iters) = (0u64, 0u64, 0usize);
        let mut calls = 0usize;
        let t_pass = crate::now();
        for &k in &order {
            let system = &systems[k];
            let model = TimedModel::new(system.reduced_tec_model());
            let (outcome, buf) = telemetry::capture(|| {
                let t0 = crate::now();
                let o = oftec.run_on_model(&model, system.t_max());
                run_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                o
            });
            let evals = model.take_evals();
            calls += evals.len();
            eval_ns += evals.iter().sum::<u64>();
            evals_us.extend(evals.iter().map(|&ns| ns as f64 / 1e3));
            iters += match &outcome {
                Ok(OftecOutcome::Optimized(s)) => s.phase1_trace.len() + s.phase2_trace.len(),
                Ok(OftecOutcome::Infeasible(r)) => r.trace.len(),
                Err(_) => 0,
            };
            counters.merge(buf);
            outcomes[k] = Some(outcome);
        }
        let wall = t_pass.elapsed();
        let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        traced_ms.push(ms(wall));
        eval_calls.push(calls as f64);
        eval_share.push(eval_ns as f64 / wall_ns as f64);
        optim_self_ms.push(run_ns.saturating_sub(eval_ns) as f64 / 1e6);
        unattributed_ms.push(wall_ns.saturating_sub(run_ns) as f64 / 1e6);
        sqp_iters.push(iters as f64);
        checker.pass(outcomes.into_iter().flatten().collect());
    }
    checker.finish(report);

    let ratio = |num: u64, den: u64| {
        if den == 0 {
            f64::NAN
        } else {
            num as f64 / den as f64
        }
    };
    let (solves, fallbacks) = (
        counters.counter("reduction.solves"),
        counters.counter("reduction.fallbacks"),
    );
    let (hits, misses) = (
        counters.counter("problem.cache.hits"),
        counters.counter("problem.cache.misses"),
    );
    let p95 = stats::tail_quantile(&stats::sorted(&plain), 0.95).unwrap_or(f64::NAN);
    report.value("alg1.table2_ms_p95", p95);
    report.meaning("p95 of one untraced Table 2 pass");
    report.median("thermal.eval_calls", &eval_calls);
    report.value("thermal.eval_us_p50", stats::median(&evals_us));
    report.median("thermal.eval_share", &eval_share);
    report.value(
        "thermal.reduced_fallback_ratio",
        ratio(fallbacks, solves + fallbacks),
    );
    report.meaning("reduction.fallbacks / (reduction.solves + reduction.fallbacks)");
    report.median("optim.self_ms", &optim_self_ms);
    report.meaning("Algorithm 1 time outside thermal evaluations, per pass");
    report.median("optim.sqp_iters", &sqp_iters);
    report.value("core.problem_cache_hit_ratio", ratio(hits, hits + misses));
    report.value("thermal.assembly_ms", ms(assembly));
    report.meaning("eight systems");
    report.value("thermal.pod_build_ms", ms(pod_build));
    report.meaning("eight systems");
    report.value("linalg.snapshot_cg_iters_p50", cg_p50);
    report.median("alg1.unattributed_ms", &unattributed_ms);
    report.meaning("pass time outside Oftec::run_on_model");
    report.value(
        "telemetry.trace_overhead",
        stats::median(&traced_ms) / stats::median(&plain) - 1.0,
    );
}
