//! `serve`: a fresh `oftec-cli serve --prewarm qsort` process on the full
//! package, driven open loop over NDJSON by one load-generator thread on two
//! connections. Half the requests reuse a small hot-key set (cache hits),
//! half ask for fresh points (reduced-order solves). Latency is timed from
//! each request's scheduled send, so a stall is charged to every request
//! it delays. The connection plane, protocol, cache and queue dominate
//! here and nowhere else.

use crate::report::Report;
use crate::stats;
use crate::Args;
use oftec_fleet::rng::SplitMix64;
use oftec_power::Benchmark;
use oftec_serve::{reference_payload, CacheConfig, QuantizedCache, SolveKind, SolveSpec};
use oftec_thermal::PackageConfig;
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const BENCHMARK: Benchmark = Benchmark::Quicksort;
const CONNECTIONS: usize = 2;
const HOT_KEYS: usize = 8;
/// Offered load of the latency phase, well below the knee.
const STEADY_RPS: f64 = 6_000.0;
/// Offered load of the goodput phase: the highest rate tried at which
/// the 2 ms limit held in every run on a 2-vCPU host whose speed drifts
/// with co-tenant load. At 14k and 20k rps goodput swung between 70 %
/// and 99 % of the offered rate from run to run, so a regression could
/// not be told from noise there.
const PEAK_RPS: f64 = 10_000.0;
/// The latency limit of ROADMAP's serving target; a reply later than
/// this, or not OK, does not count toward goodput.
const LIMIT_US: f64 = 2_000.0;
/// Fewest requests a timing window must hold to count.
const MIN_WINDOW_REQUESTS: usize = 1_000;
/// Requests sent before the measured phases (excluded from statistics).
const WARMUP: usize = 2_000;
/// Length of a timing window. The median over many short windows holds
/// when a co-tenant burst on the host disturbs a few of them.
const WINDOW_S: f64 = 1.0;
/// Quiet time between windows, so one window's backlog cannot leak into
/// the next.
const WINDOW_GAP: Duration = Duration::from_millis(100);
/// Server starts timed per run, reported as the median; the last one
/// serves the run.
const SETUP_REPEATS: usize = 7;
/// Replies compared byte for byte with `reference_payload`, per class
/// (hot key, fresh point).
const SAMPLES_PER_CLASS: usize = 3;
/// Longest wait for the server to become ready or to drain.
const PATIENCE: Duration = Duration::from_secs(60);

/// A running server process; killed and reaped on drop if still alive.
struct ServerProc {
    child: Child,
    port: u16,
}

impl ServerProc {
    fn start(cli: &Path, port_file: &Path, cpu: Option<usize>) -> Result<(Self, Duration), String> {
        let _ = std::fs::remove_file(port_file);
        let t0 = crate::now();
        let mut command = Command::new(cli);
        if let Some(cpu) = cpu {
            // SAFETY: the hook runs in the forked child before exec and
            // makes one system call, which is async-signal-safe.
            unsafe {
                command.pre_exec(move || pin_to(cpu));
            }
        }
        let child = command
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--prewarm",
                BENCHMARK.name(),
            ])
            .arg("--port-file")
            .arg(port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
        let mut server = ServerProc { child, port: 0 };
        loop {
            if let Ok(text) = std::fs::read_to_string(port_file) {
                if let Some(port) = text.strip_suffix('\n').and_then(|p| p.parse().ok()) {
                    server.port = port;
                    break;
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited before it was ready: {status}"));
            }
            if t0.elapsed() > PATIENCE {
                return Err("server not ready in time".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let health = server.probe(r#"{"cmd":"health"}"#)?;
        if !health.contains("\"ok\":true") {
            return Err(format!("health probe failed: {health}"));
        }
        Ok((server, t0.elapsed()))
    }

    /// Sends one probe line on a fresh connection and returns the reply.
    fn probe(&self, line: &str) -> Result<String, String> {
        let mut stream = TcpStream::connect(("127.0.0.1", self.port))
            .map_err(|e| format!("connect for probe: {e}"))?;
        stream
            .set_read_timeout(Some(PATIENCE))
            .map_err(|e| e.to_string())?;
        stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("probe write: {e}"))?;
        let mut reply = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        while !reply.ends_with(b"\n") {
            let n = stream
                .read(&mut chunk)
                .map_err(|e| format!("probe read: {e}"))?;
            if n == 0 {
                break;
            }
            reply.extend_from_slice(&chunk[..n]);
        }
        String::from_utf8(reply).map_err(|e| e.to_string())
    }

    /// Asks the server to drain and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let _ = self.probe(r#"{"cmd":"shutdown"}"#);
        let t0 = crate::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if t0.elapsed() > PATIENCE => {
                    return Err("server did not drain in time".to_owned())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Warmup,
    Steady,
    SteadyTraced,
    Peak,
}

/// One scheduled request and what came back.
struct Slot {
    phase: Phase,
    /// Index of the schedule segment (warm-up, then one per window).
    window: usize,
    due_ns: u64,
    rpm: f64,
    amps: f64,
    hot: bool,
    late_ns: u64,
    latency_ns: Option<u64>,
    ok: bool,
    cached: bool,
    err_kind: Option<String>,
    stages_us: Option<[Option<u64>; 5]>,
}

/// Per-stage metrics; without the `serve.stage.` prefix each name is the
/// stage's key in a reply's `trace.stages` object.
const STAGE_METRICS: [&str; 5] = [
    "serve.stage.parse_us",
    "serve.stage.cache_us",
    "serve.stage.queue_us",
    "serve.stage.batch_us",
    "serve.stage.solve_us",
];

/// The seeded request schedule: `(phase, rate, count)` segments laid end
/// to end, requests alternating hot key and fresh point.
fn schedule(seed: u64, segments: &[(Phase, f64, usize)]) -> Vec<Slot> {
    let mut rng = SplitMix64::new(seed);
    let point = |rng: &mut SplitMix64| {
        let rpm = (10.0 * rng.range_f64(1800.0, 4600.0)).round() / 10.0;
        let amps = (100.0 * rng.range_f64(0.0, 3.0)).round() / 100.0;
        (rpm, amps)
    };
    let hot: Vec<(f64, f64)> = (0..HOT_KEYS).map(|_| point(&mut rng)).collect();
    let mut slots = Vec::new();
    let mut t = 0.0;
    for (window, &(phase, rate, count)) in segments.iter().enumerate() {
        for i in 0..count {
            let is_hot = i % 2 == 0;
            let (rpm, amps) = if is_hot {
                hot[rng.below(HOT_KEYS as u64) as usize]
            } else {
                point(&mut rng)
            };
            slots.push(Slot {
                phase,
                window,
                due_ns: (t * 1e9) as u64,
                rpm,
                amps,
                hot: is_hot,
                late_ns: 0,
                latency_ns: None,
                ok: false,
                cached: false,
                err_kind: None,
                stages_us: None,
            });
            t += 1.0 / rate;
        }
        t += WINDOW_GAP.as_secs_f64();
    }
    slots
}

/// One nonblocking connection of the open-loop load generator.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    pending: VecDeque<usize>,
}

/// Bodies kept for the byte-for-byte reference check.
struct Kept {
    slot: usize,
    body: String,
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t` (1024 CPUs).
type CpuSet = [u64; 16];

/// The CPUs this process may run on, ascending; empty if unknown.
fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes, the
    // size of `mask`.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and what it later spawns) to `cpu`.
fn pin_to(cpu: usize) -> std::io::Result<()> {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the kernel reads `size_of::<CpuSet>()` bytes, the size of
    // `mask`, and changes only the calling thread's affinity.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// `(load generator CPU, server CPU)`: the first and the last CPU this
/// process may use, or `None` on a single CPU.
///
/// Left to the scheduler, the generator and the server's threads
/// sometimes shared a CPU and sometimes not, and the steady median moved
/// between ~150 µs and ~185 µs with the placement, within one run and
/// between runs. Fixed on two CPUs, every request crosses between them
/// the same way.
fn placement() -> Option<(usize, usize)> {
    let cpus = allowed_cpus();
    (cpus.len() >= 2).then(|| (cpus[0], cpus[cpus.len() - 1]))
}

/// `PR_SET_TIMERSLACK` from `<linux/prctl.h>`.
const PR_SET_TIMERSLACK: i32 = 29;

/// Lets the generator's short naps end on time: the default 50 µs timer
/// slack would otherwise add up to that much to every measured reply.
fn tighten_timer_slack() {
    // SAFETY: prctl(PR_SET_TIMERSLACK, n) only sets the calling thread's
    // timer slack; it reads no memory of ours and cannot fail in a way
    // that matters (the default slack then stays).
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

/// Drives the whole schedule; returns the bodies of `keep` (sorted slot
/// indices) and the number of replies that never came.
fn drive(port: u16, slots: &mut [Slot], keep: &[usize]) -> Result<(Vec<Kept>, usize), String> {
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        let stream =
            TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        conns.push(Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            pending: VecDeque::new(),
        });
    }
    tighten_timer_slack();
    let mut kept = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let (mut next, mut received) = (0usize, 0usize);
    let start = crate::now();
    let end_due = slots.last().map_or(0, |s| s.due_ns);
    let give_up = Duration::from_nanos(end_due) + PATIENCE;
    while received < slots.len() {
        let now_ns = start.elapsed().as_nanos() as u64;
        while next < slots.len() && slots[next].due_ns <= now_ns {
            let slot = &mut slots[next];
            let conn = &mut conns[next % CONNECTIONS];
            let _ = writeln!(
                conn.wbuf,
                r#"{{"cmd":"steady","id":{next},"benchmark":"{}","rpm":{},"amps":{}}}"#,
                BENCHMARK.name(),
                slot.rpm,
                slot.amps
            );
            conn.pending.push_back(next);
            slot.late_ns = now_ns - slot.due_ns;
            next += 1;
        }
        let mut active = false;
        for conn in &mut conns {
            while conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => return Err("server closed a connection".to_owned()),
                    Ok(n) => conn.wpos += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("write: {e}")),
                }
            }
            if conn.wpos == conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wpos = 0;
            }
            if conn.pending.is_empty() {
                continue;
            }
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => return Err("server closed a connection".to_owned()),
                    Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("read: {e}")),
                }
            }
            let done_ns = start.elapsed().as_nanos() as u64;
            let mut consumed = 0;
            while let Some(len) = conn.rbuf[consumed..].iter().position(|&b| b == b'\n') {
                let body = &conn.rbuf[consumed..consumed + len];
                consumed += len + 1;
                let index = conn.pending.pop_front().ok_or("reply without a request")?;
                let body = std::str::from_utf8(body).map_err(|e| e.to_string())?;
                if !body.starts_with(&format!("{{\"id\":{index},")) {
                    return Err(format!("reply out of order for request {index}: {body}"));
                }
                let slot = &mut slots[index];
                slot.latency_ns = Some(done_ns.saturating_sub(slot.due_ns));
                slot.ok = body.contains("\"ok\":true");
                slot.cached = body.contains("\"cached\":true");
                if !slot.ok {
                    slot.err_kind = Some(string_field(body, "kind").unwrap_or_default());
                }
                if slot.phase == Phase::SteadyTraced {
                    slot.stages_us = Some(stages(body));
                }
                if keep.binary_search(&index).is_ok() {
                    kept.push(Kept {
                        slot: index,
                        body: body.to_owned(),
                    });
                }
                received += 1;
                active = true;
            }
            conn.rbuf.drain(..consumed);
        }
        if start.elapsed() > give_up {
            break;
        }
        if !active {
            // A short nap keeps the generator from taking a core from the
            // server on this small host; its pacing error is charged to
            // the measurement, since latency runs from the schedule.
            std::thread::sleep(Duration::from_micros(20));
        }
    }
    Ok((kept, slots.len() - received))
}

/// The string value of `"key":"…"` in a flat JSON body.
fn string_field(body: &str, key: &str) -> Option<String> {
    let at = body.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let rest = &body[at..];
    Some(rest[..rest.find('"')?].to_owned())
}

/// The unsigned integer value of `"key":N` in a JSON body.
fn u64_field(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The reply's `trace.stages` durations (µs), `None` for stages it
/// skipped.
fn stages(body: &str) -> [Option<u64>; 5] {
    STAGE_METRICS.map(|metric| u64_field(body, &metric["serve.stage.".len()..]))
}

/// The reply's `result` payload (the envelope's last field).
fn payload(body: &str) -> Option<&str> {
    let at = body.find("\"result\":")? + "\"result\":".len();
    body.get(at..body.len().checked_sub(1)?)
}

/// Picks the replies checked against `reference_payload`: a seeded draw
/// of hot-key and fresh-point requests from the measured phases.
fn sample(seed: u64, slots: &[Slot]) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0x5a5a_5a5a);
    let mut keep = Vec::new();
    for hot in [true, false] {
        let pool: Vec<usize> = (0..slots.len())
            .filter(|&i| slots[i].phase != Phase::Warmup && slots[i].hot == hot)
            .collect();
        for _ in 0..SAMPLES_PER_CLASS {
            keep.push(pool[rng.below(pool.len() as u64) as usize]);
        }
    }
    keep.sort_unstable();
    keep.dedup();
    keep
}

/// Compares each kept reply with the direct solve of its canonicalized
/// spec; returns how many differ.
fn reference_mismatches(slots: &[Slot], kept: &[Kept]) -> usize {
    let cache = QuantizedCache::new(CacheConfig::default());
    let package = PackageConfig::dac14();
    kept.iter()
        .filter(|k| {
            let slot = &slots[k.slot];
            let spec = SolveSpec {
                kind: SolveKind::Steady,
                benchmark: BENCHMARK,
                scale: 1.0,
                rpm: slot.rpm,
                amps: slot.amps,
                omega_points: 0,
                current_points: 0,
                no_cache: false,
                deadline_ms: None,
            };
            let key = cache.key_for(&spec);
            let canonical = SolveSpec {
                scale: key.canonical_scale(cache.config()),
                rpm: key.canonical_rpm(cache.config()),
                amps: key.canonical_amps(cache.config()),
                ..spec
            };
            let want = reference_payload(&package, &canonical, None);
            want.as_deref().ok() != payload(&k.body)
        })
        .count()
}

/// Latency in µs; a failed or missing reply misses every latency limit.
fn latency_us(slot: &Slot) -> f64 {
    match slot.latency_ns {
        Some(ns) if slot.ok => ns as f64 / 1e3,
        _ => f64::INFINITY,
    }
}

/// Latencies in µs of every request of `phase`, sorted.
fn sorted_latencies(slots: &[Slot], phase: Phase) -> Vec<f64> {
    let v: Vec<f64> = slots
        .iter()
        .filter(|s| s.phase == phase)
        .map(latency_us)
        .collect();
    stats::sorted(&v)
}

/// One value per steady window (ms): the mean of the hot-key requests'
/// median and the fresh-point requests' median.
///
/// Hits (~120 µs) and misses (~230 µs) each make up half of the steady
/// phase, so the median over all its requests falls in the gap between
/// the two, where a few requests more or less on either side moved it by
/// 20-35 % between runs. Each class's median lies inside its own mode.
fn steady_window_p50s(slots: &[Slot]) -> Vec<f64> {
    let mut windows: BTreeMap<usize, [Vec<f64>; 2]> = BTreeMap::new();
    for s in slots.iter().filter(|s| s.phase == Phase::Steady) {
        windows.entry(s.window).or_default()[usize::from(s.hot)].push(latency_us(s) / 1e3);
    }
    windows
        .values()
        .filter(|classes| classes.iter().map(Vec::len).sum::<usize>() >= MIN_WINDOW_REQUESTS)
        .map(|[fresh, hot]| (stats::median(fresh) + stats::median(hot)) / 2.0)
        .collect()
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let cli: PathBuf = args.cli.clone().ok_or("the serve workload needs --cli")?;
    let cpus = placement();
    if let Some((generator, _)) = cpus {
        pin_to(generator).map_err(|e| format!("pin the load generator: {e}"))?;
    }
    let mut setup = Vec::new();
    let mut server = None;
    for k in 0..SETUP_REPEATS {
        let port_file = args.work_dir.join(format!("serve-port-{k}"));
        let (s, took) = ServerProc::start(&cli, &port_file, cpus.map(|c| c.1))?;
        setup.push(took.as_secs_f64());
        if let Some(previous) = server.replace(s) {
            ServerProc::shutdown(previous)?;
        }
    }
    let server = server.ok_or("no server started")?;

    // The two phases alternate window by window, so each samples the
    // whole run rather than one half of it.
    let second = if args.trace {
        (Phase::SteadyTraced, STEADY_RPS)
    } else {
        (Phase::Peak, PEAK_RPS)
    };
    let mut segments = vec![(Phase::Warmup, STEADY_RPS, WARMUP)];
    let windows =
        ((args.seconds.as_secs_f64() / (WINDOW_S + WINDOW_GAP.as_secs_f64())) as usize).max(2);
    for w in 0..windows {
        let (phase, rate) = if w % 2 == 0 {
            (Phase::Steady, STEADY_RPS)
        } else {
            second
        };
        segments.push((phase, rate, (rate * WINDOW_S) as usize));
    }
    let mut slots = schedule(args.seed, &segments);
    let keep = sample(args.seed, &slots);
    let (kept, missing) = drive(server.port, &mut slots, &keep)?;

    let metrics = server.probe(r#"{"cmd":"metrics"}"#)?;
    let rss = crate::peak_rss_mb(Some(server.child.id()));
    server.shutdown()?;

    let ok = slots.iter().filter(|s| s.ok).count() as u64;
    let measured = slots.iter().filter(|s| s.phase != Phase::Warmup);
    report.attempted += measured.clone().count() as u64;
    report.failed += measured.filter(|s| !s.ok).count() as u64;
    let counter = |name: &str| u64_field(&metrics, name).unwrap_or(0);
    let mismatched = reference_mismatches(&slots, &kept);
    report.check("serve: every request answered", missing == 0);
    report.check(
        "serve: client OK count equals serve.responses_ok",
        ok == counter("serve.responses_ok"),
    );
    report.check(
        "serve: sampled replies byte-equal reference_payload",
        kept.len() == keep.len() && mismatched == 0,
    );

    if args.trace {
        traced(&slots, &metrics, report);
        return Ok(());
    }
    // Goodput over all peak windows: below the knee it barely drifts,
    // and a single window often has every reply in time, reading exactly
    // the offered rate.
    let peak = sorted_latencies(&slots, Phase::Peak);
    let good = peak.iter().filter(|&&us| us <= LIMIT_US).count();
    report.median("setup_s", &setup);
    report.value("peak_rss_mb", rss);
    report.meaning("the server process");
    report.median("op_p50_ms", &steady_window_p50s(&slots));
    report.meaning(
        "serve.p50_us / 1000: one steady-phase request, mean of the hit and miss medians, median window",
    );
    report.value("ops_per_s", good as f64 / (peak.len() as f64 / PEAK_RPS));
    report.meaning("serve.peak_goodput_rps: OK replies within 2 ms per second of schedule");
    Ok(())
}

/// Per-layer metrics from the traced steady phase, its untraced twin and
/// the server's counters.
fn traced(slots: &[Slot], metrics: &str, report: &mut Report) {
    let counter = |name: &str| u64_field(metrics, name).unwrap_or(0) as f64;
    let traced: Vec<&Slot> = slots
        .iter()
        .filter(|s| s.phase == Phase::SteadyTraced && s.ok)
        .collect();
    let client_p50 = |cached: bool| {
        let v: Vec<f64> = traced
            .iter()
            .filter(|s| s.cached == cached)
            .filter_map(|s| s.latency_ns.map(|ns| ns as f64 / 1e3))
            .collect();
        if v.is_empty() {
            f64::NAN
        } else {
            stats::median(&v)
        }
    };
    let steady = sorted_latencies(slots, Phase::Steady);
    report.value(
        "serve.p99_us",
        stats::tail_quantile(&steady, 0.99).unwrap_or(f64::NAN),
    );
    report.meaning("p99 of one untraced steady-phase request");
    report.value("serve.client_hit_p50_us", client_p50(true));
    report.value("serve.client_miss_p50_us", client_p50(false));
    for (k, name) in STAGE_METRICS.iter().enumerate() {
        // Stages are stamped in whole microseconds, so a median would read
        // 0 for the short ones: report the mean over the replies that
        // passed through the stage.
        let v: Vec<f64> = traced
            .iter()
            .filter_map(|s| s.stages_us?[k])
            .map(|us| us as f64)
            .collect();
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        report.value(name, mean);
    }
    let unattributed: Vec<f64> = traced
        .iter()
        .filter_map(|s| {
            let st = s.stages_us?;
            Some(s.latency_ns? as f64 / 1e3 - st.iter().flatten().sum::<u64>() as f64)
        })
        .collect();
    report.value(
        "serve.unattributed_us",
        if unattributed.is_empty() {
            f64::NAN
        } else {
            stats::median(&unattributed)
        },
    );
    let (hits, misses) = (counter("serve.cache.hits"), counter("serve.cache.misses"));
    report.value("serve.cache_hit_ratio", hits / (hits + misses));
    report.value(
        "serve.batch_mean_jobs",
        counter("serve.batch.jobs") / counter("serve.batches"),
    );
    let count_kind = |kinds: &[&str]| {
        slots
            .iter()
            .filter(|s| s.err_kind.as_deref().is_some_and(|k| kinds.contains(&k)))
            .count() as f64
    };
    report.value("serve.shed", count_kind(&["overloaded", "shutting_down"]));
    report.value(
        "serve.deadline_exceeded",
        count_kind(&["deadline_exceeded"]),
    );
    let late: Vec<f64> = slots
        .iter()
        .filter(|s| s.phase != Phase::Warmup)
        .map(|s| s.late_ns as f64 / 1e3)
        .collect();
    report.value(
        "serve.gen_late_us_p99",
        stats::tail_quantile(&stats::sorted(&late), 0.99).unwrap_or(f64::NAN),
    );
    let p50 = |phase: Phase| stats::quantile(&sorted_latencies(slots, phase), 0.5);
    report.value(
        "telemetry.trace_overhead",
        p50(Phase::SteadyTraced) / p50(Phase::Steady) - 1.0,
    );
}
