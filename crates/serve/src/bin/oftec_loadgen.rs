//! `oftec-loadgen` — load generator and latency benchmark for
//! `oftec-serve`.
//!
//! ```text
//! cargo run --release -p oftec-serve --bin oftec-loadgen -- \
//!     --addr 127.0.0.1:7464 [options]
//!
//! Options:
//!   --addr <host:port>    server address (required)
//!   --connections <n>     concurrent connections (default 32)
//!   --requests <n>        sustained requests per connection (default 50)
//!   --rps <n>             closed-loop pacing per connection; 0 = as fast
//!                         as replies arrive (default 0)
//!   --open-rps <n>        open-loop arrival rate per connection: requests
//!                         are injected on a fixed schedule regardless of
//!                         replies, and latency is measured from the
//!                         *scheduled* send time (no coordinated
//!                         omission). 0 = closed loop (default 0)
//!   --burst-requests <n>  extra per-connection requests appended after
//!                         the sustained phase at `open-rps × burst-mult`
//!                         (open loop only; default 0)
//!   --burst-mult <f>      burst rate multiplier (default 4.0)
//!   --drivers <n>         driver threads multiplexing the open-loop
//!                         connections (default 4, capped at connections)
//!   --deadline-ms <ms>    attach a per-request deadline budget (0: none)
//!   --key-reuse <f>       fraction of requests drawn from the hot-key set
//!                         (default 0.5 — at least half the traffic should
//!                         hit the quantized cache)
//!   --hot-keys <n>        size of the hot-key set (default 8)
//!   --benchmark <name>    workload (default qsort)
//!   --mix <steady|mixed>  mixed sprinkles malformed and unknown-benchmark
//!                         requests between valid ones (default mixed)
//!   --seed <n>            RNG seed (default 1)
//!   --out <path>          report file (default BENCH_serve.json)
//!   --shutdown            send a shutdown command once done
//! ```
//!
//! The report records throughput, p50/p95/p99/p99.9 latency (overall,
//! cache-hit, and miss paths separately), error counts split into `shed`
//! (deliberate backpressure: overloaded/shutting_down),
//! `deadline_exceeded`, `rejected` (the generator's own injected
//! malformed/unknown requests, correctly refused by the server), and
//! `failed` (everything else — should be zero), a per-kind `error_causes`
//! map, per-phase `sustained`/`burst` blocks (offered vs achieved rate,
//! shed rate, phase latency), a per-stage latency breakdown aggregated
//! from the response `trace` metadata, a mid-run Prometheus `metrics`
//! scrape summary, and the server's own final counters, as
//! `BENCH_serve.json`.

use oftec_power::Benchmark;
use serde::Value;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Deterministic xorshift64* RNG — no external crates in the hot loop.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

#[derive(Clone)]
struct Config {
    addr: String,
    connections: usize,
    requests: usize,
    rps: f64,
    open_rps: f64,
    burst_requests: usize,
    burst_mult: f64,
    drivers: usize,
    deadline_ms: u64,
    key_reuse: f64,
    hot_keys: usize,
    benchmark: String,
    mixed: bool,
    seed: u64,
    out: String,
    shutdown: bool,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            addr: String::new(),
            connections: 32,
            requests: 50,
            rps: 0.0,
            open_rps: 0.0,
            burst_requests: 0,
            burst_mult: 4.0,
            drivers: 4,
            deadline_ms: 0,
            key_reuse: 0.5,
            hot_keys: 8,
            benchmark: "qsort".into(),
            mixed: true,
            seed: 1,
            out: "BENCH_serve.json".into(),
            shutdown: false,
        }
    }
}

fn parse_args() -> Result<Config, String> {
    let mut config = Config::default();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = |name: &str| -> Result<String, String> {
            match inline.clone() {
                Some(v) => Ok(v),
                None => it.next().cloned().ok_or(format!("{name} requires a value")),
            }
        };
        match flag {
            "--addr" => config.addr = value("--addr")?,
            "--connections" => {
                config.connections = num(&value("--connections")?)?.max(1) as usize;
            }
            "--requests" => config.requests = num(&value("--requests")?)?.max(1) as usize,
            "--rps" => {
                config.rps = value("--rps")?
                    .parse()
                    .map_err(|_| "--rps: not a number".to_string())?;
            }
            "--open-rps" => {
                config.open_rps = value("--open-rps")?
                    .parse()
                    .map_err(|_| "--open-rps: not a number".to_string())?;
                if config.open_rps < 0.0 {
                    return Err("--open-rps must be non-negative".into());
                }
            }
            "--burst-requests" => {
                config.burst_requests = num(&value("--burst-requests")?)? as usize;
            }
            "--burst-mult" => {
                config.burst_mult = value("--burst-mult")?
                    .parse()
                    .map_err(|_| "--burst-mult: not a number".to_string())?;
                if config.burst_mult <= 0.0 || config.burst_mult.is_nan() {
                    return Err("--burst-mult must be positive".into());
                }
            }
            "--drivers" => config.drivers = num(&value("--drivers")?)?.max(1) as usize,
            "--deadline-ms" => config.deadline_ms = num(&value("--deadline-ms")?)?,
            "--key-reuse" => {
                config.key_reuse = value("--key-reuse")?
                    .parse()
                    .map_err(|_| "--key-reuse: not a number".to_string())?;
                if !(0.0..=1.0).contains(&config.key_reuse) {
                    return Err("--key-reuse must be in [0, 1]".into());
                }
            }
            "--hot-keys" => config.hot_keys = num(&value("--hot-keys")?)?.max(1) as usize,
            "--benchmark" => config.benchmark = value("--benchmark")?,
            "--mix" => {
                config.mixed = match value("--mix")?.as_str() {
                    "steady" => false,
                    "mixed" => true,
                    other => return Err(format!("--mix: `{other}` is not steady|mixed")),
                };
            }
            "--seed" => config.seed = num(&value("--seed")?)?,
            "--out" => config.out = value("--out")?,
            "--shutdown" => config.shutdown = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if config.addr.is_empty() {
        return Err("--addr <host:port> is required".into());
    }
    Benchmark::from_name(&config.benchmark)
        .ok_or(format!("--benchmark: unknown `{}`", config.benchmark))?;
    Ok(config)
}

fn num(raw: &str) -> Result<u64, String> {
    raw.parse()
        .map_err(|_| format!("`{raw}` is not a non-negative integer"))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Sustained,
    Burst,
}

/// One recorded request outcome.
struct Sample {
    micros: u64,
    ok: bool,
    cached: bool,
    /// The typed error kind for failed requests (`None` when `ok`).
    err_kind: Option<String>,
    /// Per-stage durations parsed from the response `trace` metadata
    /// (sampled in open-loop mode; every response in closed loop).
    stages: Vec<(String, u64)>,
    phase: Phase,
    /// Scheduled injection time, µs since the run started.
    sched_us: u64,
    /// Response completion time, µs since the run started.
    done_us: u64,
}

/// Error-accounting buckets: backpressure the server applied on purpose
/// (`shed`), per-request budgets that ran out (`deadline_exceeded`),
/// requests the server correctly refused as malformed (`rejected` — the
/// mixed traffic mode injects these deliberately), and everything else
/// (`failed` — solver errors, panics, internal faults).
fn classify(err_kind: Option<&str>) -> ErrClass {
    match err_kind {
        None => ErrClass::Ok,
        Some("overloaded" | "shutting_down") => ErrClass::Shed,
        Some("deadline_exceeded") => ErrClass::DeadlineExceeded,
        Some("bad_request" | "unknown_benchmark" | "line_too_long") => ErrClass::Rejected,
        Some(_) => ErrClass::Failed,
    }
}

#[derive(PartialEq, Eq)]
enum ErrClass {
    Ok,
    Shed,
    DeadlineExceeded,
    Rejected,
    Failed,
}

/// What one generated request is.
enum ReqShape {
    /// A valid steady solve at this operating point.
    Point { rpm: f64, amps: f64 },
    /// Deliberately unparseable (broken JSON → `bad_request`).
    Malformed,
    /// Valid framing, unknown workload (`unknown_benchmark`).
    Unknown,
}

/// The hot-key operating points: a deterministic fan of plausible
/// (rpm, amps) settings each worker reuses.
fn shape_for(config: &Config, rng: &mut Rng, i: usize) -> ReqShape {
    if config.mixed && i % 13 == 5 {
        return ReqShape::Malformed;
    }
    if config.mixed && i % 13 == 9 {
        return ReqShape::Unknown;
    }
    if rng.next_f64() < config.key_reuse {
        let k = rng.below(config.hot_keys as u64) as usize;
        ReqShape::Point {
            rpm: 2200.0 + 300.0 * (k % 8) as f64,
            amps: 0.6 + 0.2 * ((k / 2) % 6) as f64,
        }
    } else {
        ReqShape::Point {
            rpm: (10.0 * (1800.0 + 2800.0 * rng.next_f64())).round() / 10.0,
            amps: (100.0 * 3.0 * rng.next_f64()).round() / 100.0,
        }
    }
}

/// Encodes one request as an NDJSON line, ready to write.
fn encode_request(config: &Config, shape: &ReqShape) -> Vec<u8> {
    let mut line = match shape {
        ReqShape::Malformed => "{not json at all".to_string(),
        ReqShape::Unknown => r#"{"cmd":"steady","benchmark":"no-such-workload"}"#.to_string(),
        ReqShape::Point { rpm, amps } => {
            let b = &config.benchmark;
            if config.deadline_ms > 0 {
                format!(
                    r#"{{"cmd":"steady","benchmark":"{b}","rpm":{rpm},"amps":{amps},"deadline_ms":{}}}"#,
                    config.deadline_ms
                )
            } else {
                format!(r#"{{"cmd":"steady","benchmark":"{b}","rpm":{rpm},"amps":{amps}}}"#)
            }
        }
    };
    line.push('\n');
    line.into_bytes()
}

/// Fast-path response classification by substring — full JSON parsing of
/// every response would cost more CPU than the server spends solving.
/// Returns (ok, cached, err_kind).
fn classify_body(body: &str) -> (bool, bool, Option<String>) {
    let ok = body.contains("\"ok\":true");
    let cached = body.contains("\"cached\":true");
    let err_kind = if ok {
        None
    } else {
        body.find("\"kind\":\"").and_then(|at| {
            let rest = &body[at + 8..];
            rest.find('"').map(|end| rest[..end].to_string())
        })
    };
    (ok, cached, err_kind)
}

/// Full-parse path: the per-stage trace durations (validates the body as
/// JSON as a side effect).
fn parse_stages(body: &str) -> Vec<(String, u64)> {
    let Ok(envelope) = serde_json::from_str::<Value>(body.trim()) else {
        return Vec::new();
    };
    envelope
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == "trace"))
        .and_then(|(_, v)| v.as_map())
        .and_then(|m| m.iter().find(|(k, _)| k == "stages"))
        .and_then(|(_, v)| v.as_map())
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| {
                    let name = k.strip_suffix("_us")?.to_string();
                    Some((name, v.as_f64()? as u64))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Closed-loop worker: send, wait for the reply, repeat. Full-parses
/// every response (this is the correctness-focused mode CI uses).
fn worker(config: &Config, conn_id: usize, run_start: Instant) -> Result<Vec<Sample>, String> {
    let stream =
        TcpStream::connect(&config.addr).map_err(|e| format!("connect {}: {e}", config.addr))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut rng = Rng::new(
        config
            .seed
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(conn_id as u64),
    );
    let mut samples = Vec::with_capacity(config.requests);
    let pace = if config.rps > 0.0 {
        Some(Duration::from_secs_f64(1.0 / config.rps))
    } else {
        None
    };
    for i in 0..config.requests {
        let shape = shape_for(config, &mut rng, i);
        let bytes = encode_request(config, &shape);
        let started = Instant::now();
        writer
            .write_all(&bytes)
            .map_err(|e| format!("write: {e}"))?;
        let mut body = String::new();
        let n = reader
            .read_line(&mut body)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection mid-run".into());
        }
        let done = Instant::now();
        let micros = u64::try_from(done.duration_since(started).as_micros()).unwrap_or(u64::MAX);
        let (ok, cached, err_kind) = classify_body(&body);
        samples.push(Sample {
            micros,
            ok,
            cached,
            err_kind,
            stages: parse_stages(&body),
            phase: Phase::Sustained,
            sched_us: rel_us(run_start, started),
            done_us: rel_us(run_start, done),
        });
        if let Some(gap) = pace {
            let elapsed = started.elapsed();
            if elapsed < gap {
                std::thread::sleep(gap - elapsed);
            }
        }
    }
    Ok(samples)
}

fn rel_us(base: Instant, t: Instant) -> u64 {
    u64::try_from(t.duration_since(base).as_micros()).unwrap_or(u64::MAX)
}

/// One open-loop connection: a nonblocking socket with its own injection
/// schedule, reused buffers, and a FIFO of scheduled send times matched
/// against in-order responses.
struct OpenConn {
    stream: TcpStream,
    rng: Rng,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Scheduled injection offset of every in-flight request, with its
    /// phase, in send order.
    pending: VecDeque<(u64, Phase)>,
    sent: usize,
    recvd: usize,
    /// Per-connection schedule stagger so 32 connections don't inject in
    /// lockstep.
    offset: Duration,
    /// Full-parse sampling: every 16th response also validates JSON and
    /// harvests trace stages.
    parse_tick: u32,
    done: bool,
    error: Option<String>,
}

impl OpenConn {
    fn connect(config: &Config, conn_id: usize) -> Result<Self, String> {
        let stream = TcpStream::connect(&config.addr)
            .map_err(|e| format!("connect {}: {e}", config.addr))?;
        stream.set_nodelay(true).ok();
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        let gap = 1.0 / config.open_rps.max(1e-9);
        Ok(Self {
            stream,
            rng: Rng::new(
                config
                    .seed
                    .wrapping_mul(0x9e37_79b9)
                    .wrapping_add(conn_id as u64),
            ),
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            pending: VecDeque::new(),
            sent: 0,
            recvd: 0,
            offset: Duration::from_secs_f64(gap * conn_id as f64 / config.connections as f64),
            parse_tick: 0,
            done: false,
            error: None,
        })
    }

    /// Scheduled injection time of request `i`, relative to the run
    /// start: the sustained phase at `open-rps`, then the burst tail at
    /// `open-rps × burst-mult`.
    fn due(&self, config: &Config, i: usize) -> Duration {
        let gap = 1.0 / config.open_rps.max(1e-9);
        let d = if i < config.requests {
            gap * i as f64
        } else {
            gap * config.requests as f64 + (gap / config.burst_mult) * (i - config.requests) as f64
        };
        self.offset + Duration::from_secs_f64(d)
    }

    fn fail(&mut self, msg: String) {
        self.error = Some(msg);
        self.done = true;
    }

    /// One sweep: inject every due request, flush, read, resolve
    /// responses. Returns whether anything moved.
    fn step(
        &mut self,
        config: &Config,
        run_start: Instant,
        chunk: &mut [u8],
        samples: &mut Vec<Sample>,
    ) -> bool {
        let total = config.requests + config.burst_requests;
        let mut active = false;
        // Inject: open loop means the schedule, not the replies, drives
        // sends — a slow server accrues queueing delay, not a lighter load.
        let now = Instant::now();
        while self.sent < total {
            let due = self.due(config, self.sent);
            if run_start + due > now {
                break;
            }
            let shape = shape_for(config, &mut self.rng, self.sent);
            self.wbuf.extend_from_slice(&encode_request(config, &shape));
            let phase = if self.sent < config.requests {
                Phase::Sustained
            } else {
                Phase::Burst
            };
            self.pending
                .push_back((u64::try_from(due.as_micros()).unwrap_or(u64::MAX), phase));
            self.sent += 1;
            active = true;
        }
        // Flush.
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.fail("server closed the connection mid-run".into());
                    return true;
                }
                Ok(n) => {
                    self.wpos += n;
                    active = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    self.fail(format!("write: {e}"));
                    return true;
                }
            }
        }
        if self.wpos >= self.wbuf.len() && !self.wbuf.is_empty() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        // Read — only when a reply can actually be outstanding; an empty
        // pending FIFO with no bytes buffered means a read(2) would just
        // burn a syscall on EWOULDBLOCK.
        if self.recvd < total && !self.pending.is_empty() {
            loop {
                match self.stream.read(chunk) {
                    Ok(0) => {
                        self.fail("server closed the connection mid-run".into());
                        return true;
                    }
                    Ok(n) => {
                        self.rbuf.extend_from_slice(&chunk[..n]);
                        active = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        self.fail(format!("read: {e}"));
                        return true;
                    }
                }
            }
        }
        // Resolve complete responses against the pending FIFO.
        let mut consumed = 0;
        while let Some(pos) = self.rbuf[consumed..].iter().position(|&b| b == b'\n') {
            let len = pos + 1;
            let body = String::from_utf8_lossy(&self.rbuf[consumed..consumed + len]).into_owned();
            consumed += len;
            let Some((sched_us, phase)) = self.pending.pop_front() else {
                self.fail("response without a matching request".into());
                return true;
            };
            let done_us = rel_us(run_start, Instant::now());
            let (ok, cached, err_kind) = classify_body(&body);
            self.parse_tick = self.parse_tick.wrapping_add(1);
            // Full JSON parses are ~10× the cost of the substring
            // classifier and stall the whole driver sweep, so sample the
            // stage breakdown sparsely; thousands of samples remain at
            // bench request counts.
            let stages = if self.parse_tick.is_multiple_of(64) {
                parse_stages(&body)
            } else {
                Vec::new()
            };
            samples.push(Sample {
                micros: done_us.saturating_sub(sched_us),
                ok,
                cached,
                err_kind,
                stages,
                phase,
                sched_us,
                done_us,
            });
            self.recvd += 1;
            active = true;
        }
        if consumed > 0 {
            self.rbuf.drain(..consumed);
        }
        if self.recvd >= total {
            self.done = true;
        }
        active
    }
}

/// Open-loop driver thread: multiplexes a slice of the connections so
/// the generator itself stays lightweight enough to offer 50k+ rps from
/// a handful of threads.
fn drive(config: &Config, conn_ids: &[usize], run_start: Instant) -> (Vec<Sample>, usize) {
    let mut conns = Vec::with_capacity(conn_ids.len());
    let mut failed_conns = 0usize;
    for &id in conn_ids {
        match OpenConn::connect(config, id) {
            Ok(c) => conns.push(c),
            Err(msg) => {
                eprintln!("oftec-loadgen: connection {id}: {msg}");
                failed_conns += 1;
            }
        }
    }
    let gap = 1.0 / config.open_rps.max(1e-9);
    let expected =
        gap * config.requests as f64 + (gap / config.burst_mult) * config.burst_requests as f64;
    let deadline = run_start + Duration::from_secs_f64(expected * 3.0 + 10.0);
    let mut samples = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        let mut active = false;
        let mut all_done = true;
        for c in &mut conns {
            if !c.done {
                active |= c.step(config, run_start, &mut chunk, &mut samples);
                all_done &= c.done;
            }
        }
        if all_done {
            break;
        }
        if Instant::now() > deadline {
            for c in &conns {
                if !c.done {
                    failed_conns += 1;
                    eprintln!(
                        "oftec-loadgen: timed out with {} of {} responses",
                        c.recvd,
                        config.requests + config.burst_requests
                    );
                }
            }
            break;
        }
        if !active {
            std::thread::sleep(Duration::from_micros(50));
        } else {
            // Coalescing nap even while busy: at 50k+ rps a hot pass
            // finds at most a couple of new events per connection, so
            // looping flat-out spends the core on empty nonblocking
            // reads and starves the server when it shares the host. A
            // short nap batches several arrivals per pass; the pacing
            // error it adds is charged to us, not hidden, because
            // latency is measured from the schedule time.
            std::thread::sleep(Duration::from_micros(40));
        }
    }
    for c in &conns {
        if let Some(msg) = &c.error {
            eprintln!("oftec-loadgen: connection failed: {msg}");
            failed_conns += 1;
        }
    }
    (samples, failed_conns)
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn latency_block(mut micros: Vec<u64>) -> String {
    micros.sort_unstable();
    format!(
        r#"{{"count":{},"p50_us":{},"p95_us":{},"p99_us":{},"p999_us":{},"max_us":{}}}"#,
        micros.len(),
        percentile(&micros, 0.50),
        percentile(&micros, 0.95),
        percentile(&micros, 0.99),
        percentile(&micros, 0.999),
        micros.last().copied().unwrap_or(0)
    )
}

/// Per-phase accounting: offered vs achieved rate, shed rate, latency.
fn phase_block(samples: &[Sample], phase: Phase, offered_rps: f64) -> String {
    let sel: Vec<&Sample> = samples.iter().filter(|s| s.phase == phase).collect();
    if sel.is_empty() {
        return r#"{"requests":0}"#.to_string();
    }
    let requests = sel.len();
    let ok = sel.iter().filter(|s| s.ok).count();
    let shed = sel
        .iter()
        .filter(|s| classify(s.err_kind.as_deref()) == ErrClass::Shed)
        .count();
    let first = sel.iter().map(|s| s.sched_us).min().unwrap_or(0);
    let last = sel.iter().map(|s| s.done_us).max().unwrap_or(0);
    let wall = (last.saturating_sub(first)) as f64 / 1e6;
    format!(
        r#"{{"requests":{},"ok":{},"shed":{},"shed_rate":{:.4},"offered_rps":{:.1},"achieved_rps":{:.1},"latency":{}}}"#,
        requests,
        ok,
        shed,
        shed as f64 / requests as f64,
        offered_rps,
        requests as f64 / wall.max(1e-9),
        latency_block(sel.iter().map(|s| s.micros).collect())
    )
}

/// Polls the server's Prometheus `metrics` exposition over its own
/// connection while the workers run, proving the introspection plane is
/// usable mid-burst. Returns `(successful scrapes, last serve_requests
/// value seen)`.
fn scrape_live(addr: &str, stop: &AtomicBool) -> (u64, u64) {
    let mut scrapes = 0u64;
    let mut last_requests = 0u64;
    let Ok(stream) = TcpStream::connect(addr) else {
        return (0, 0);
    };
    stream.set_nodelay(true).ok();
    let Ok(mut writer) = stream.try_clone() else {
        return (0, 0);
    };
    let mut reader = BufReader::new(stream);
    while !stop.load(Ordering::Relaxed) {
        if writer
            .write_all(b"{\"cmd\":\"metrics\",\"format\":\"prometheus\"}\n")
            .is_err()
        {
            break;
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let text = serde_json::from_str::<Value>(line.trim())
            .ok()
            .and_then(|v| {
                v.as_map()
                    .and_then(|m| m.iter().find(|(k, _)| k == "result"))
                    .and_then(|(_, r)| r.as_str().map(str::to_string))
            });
        if let Some(text) = text {
            scrapes += 1;
            for l in text.lines() {
                if let Some(v) = l.strip_prefix("serve_requests ") {
                    last_requests = v.trim().parse().unwrap_or(last_requests);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    (scrapes, last_requests)
}

/// Fetches the server's `metrics` counters over a fresh connection and
/// renders them as a JSON object string. Optionally sends `shutdown`.
fn fetch_metrics(config: &Config) -> Result<String, String> {
    let stream =
        TcpStream::connect(&config.addr).map_err(|e| format!("connect for metrics: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let mut reader = BufReader::new(stream);
    writer
        .write_all(b"{\"cmd\":\"metrics\"}\n")
        .map_err(|e| format!("write metrics: {e}"))?;
    let mut response = String::new();
    reader
        .read_line(&mut response)
        .map_err(|e| format!("read metrics: {e}"))?;
    let envelope: Value =
        serde_json::from_str(response.trim()).map_err(|e| format!("metrics response: {e}"))?;
    let counters = envelope
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == "result"))
        .and_then(|(_, v)| v.as_map())
        .and_then(|m| m.iter().find(|(k, _)| k == "counters"))
        .map(|(_, v)| v.clone())
        .ok_or("metrics response has no counters")?;
    let json = serde_json::to_string(&counters).map_err(|e| format!("counters: {e}"))?;
    if config.shutdown {
        writer
            .write_all(b"{\"cmd\":\"shutdown\"}\n")
            .map_err(|e| format!("write shutdown: {e}"))?;
        let mut ack = String::new();
        reader
            .read_line(&mut ack)
            .map_err(|e| format!("read shutdown ack: {e}"))?;
    }
    Ok(json)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("oftec-loadgen: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let started = Instant::now();
    let scrape_stop = AtomicBool::new(false);
    let mut samples: Vec<Sample> = Vec::new();
    let mut failed_conns = 0usize;
    let live_scrapes: (u64, u64) = if config.open_rps > 0.0 {
        // Open-loop: a few driver threads multiplex all connections.
        let drivers = config.drivers.min(config.connections).max(1);
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); drivers];
        for id in 0..config.connections {
            assignment[id % drivers].push(id);
        }
        let (mut per_driver, scrapes) = std::thread::scope(|scope| {
            let scraper = {
                let (addr, stop) = (&config.addr, &scrape_stop);
                scope.spawn(move || scrape_live(addr, stop))
            };
            let run_start = Instant::now();
            let handles: Vec<_> = assignment
                .iter()
                .map(|ids| {
                    let config = &config;
                    scope.spawn(move || drive(config, ids, run_start))
                })
                .collect();
            let results: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().unwrap_or((Vec::new(), 1)))
                .collect();
            scrape_stop.store(true, Ordering::Relaxed);
            let scrapes = scraper.join().unwrap_or((0, 0));
            (results, scrapes)
        });
        for (mut s, failed) in per_driver.drain(..) {
            samples.append(&mut s);
            failed_conns += failed;
        }
        scrapes
    } else {
        type RunOutput = (Vec<Result<Vec<Sample>, String>>, (u64, u64));
        let (results, scrapes): RunOutput = std::thread::scope(|scope| {
            let scraper = {
                let (addr, stop) = (&config.addr, &scrape_stop);
                scope.spawn(move || scrape_live(addr, stop))
            };
            let run_start = Instant::now();
            let handles: Vec<_> = (0..config.connections)
                .map(|conn_id| {
                    let config = &config;
                    scope.spawn(move || worker(config, conn_id, run_start))
                })
                .collect();
            let results = handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("worker panicked".to_string()))
                })
                .collect();
            scrape_stop.store(true, Ordering::Relaxed);
            let scrapes = scraper.join().unwrap_or((0, 0));
            (results, scrapes)
        });
        for r in results {
            match r {
                Ok(mut s) => samples.append(&mut s),
                Err(msg) => {
                    eprintln!("oftec-loadgen: connection failed: {msg}");
                    failed_conns += 1;
                }
            }
        }
        scrapes
    };
    let wall = started.elapsed();

    if samples.is_empty() {
        eprintln!("oftec-loadgen: no samples collected");
        return ExitCode::FAILURE;
    }

    let metrics = match fetch_metrics(&config) {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("oftec-loadgen: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let total = samples.len();
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let errors = total - ok.len();
    let class_count = |class: ErrClass| {
        samples
            .iter()
            .filter(|s| classify(s.err_kind.as_deref()) == class)
            .count()
    };
    let shed = class_count(ErrClass::Shed);
    let deadline_exceeded = class_count(ErrClass::DeadlineExceeded);
    let rejected = class_count(ErrClass::Rejected);
    let failed = class_count(ErrClass::Failed);
    let mut error_causes: BTreeMap<&str, usize> = BTreeMap::new();
    for s in &samples {
        if let Some(kind) = s.err_kind.as_deref() {
            *error_causes.entry(kind).or_insert(0) += 1;
        }
    }
    let error_causes_json = format!(
        "{{{}}}",
        error_causes
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    let stage_block = |name: &str| {
        latency_block(
            samples
                .iter()
                .filter_map(|s| s.stages.iter().find(|(n, _)| n == name).map(|&(_, us)| us))
                .collect(),
        )
    };
    let cached: Vec<u64> = ok.iter().filter(|s| s.cached).map(|s| s.micros).collect();
    let uncached: Vec<u64> = ok.iter().filter(|s| !s.cached).map(|s| s.micros).collect();
    let hit_rate = if ok.is_empty() {
        0.0
    } else {
        cached.len() as f64 / ok.len() as f64
    };
    let throughput = total as f64 / wall.as_secs_f64().max(1e-9);
    let offered_sustained = config.open_rps * config.connections as f64;
    let offered_burst = offered_sustained * config.burst_mult;

    let report = format!(
        "{{\n  \"config\": {{\"addr\":\"{}\",\"connections\":{},\"requests_per_connection\":{},\
         \"rps\":{},\"open_rps\":{},\"burst_requests\":{},\"burst_mult\":{},\
         \"deadline_ms\":{},\"key_reuse\":{},\"hot_keys\":{},\"benchmark\":\"{}\",\"mix\":\"{}\",\
         \"seed\":{}}},\n  \"wall_seconds\": {:.3},\n  \"throughput_rps\": {:.1},\n  \
         \"requests\": {},\n  \"ok\": {},\n  \"errors\": {},\n  \"shed\": {},\n  \
         \"deadline_exceeded\": {},\n  \"rejected\": {},\n  \"failed\": {},\n  \
         \"failed_connections\": {},\n  \"error_causes\": {},\n  \
         \"client_cache_hit_rate\": {:.4},\n  \"sustained\": {},\n  \"burst\": {},\n  \
         \"latency\": {{\n    \"overall\": {},\n    \
         \"cached\": {},\n    \"uncached\": {}\n  }},\n  \"stages\": {{\n    \"parse\": {},\n    \
         \"queue\": {},\n    \"batch\": {},\n    \"cache\": {},\n    \"solve\": {}\n  }},\n  \
         \"live_scrapes\": {{\"scrapes\":{},\"last_serve_requests\":{}}},\n  \"server\": {}\n}}\n",
        config.addr,
        config.connections,
        config.requests,
        config.rps,
        config.open_rps,
        config.burst_requests,
        config.burst_mult,
        config.deadline_ms,
        config.key_reuse,
        config.hot_keys,
        config.benchmark,
        if config.mixed { "mixed" } else { "steady" },
        config.seed,
        wall.as_secs_f64(),
        throughput,
        total,
        ok.len(),
        errors,
        shed,
        deadline_exceeded,
        rejected,
        failed,
        failed_conns,
        error_causes_json,
        hit_rate,
        phase_block(&samples, Phase::Sustained, offered_sustained),
        phase_block(&samples, Phase::Burst, offered_burst),
        latency_block(samples.iter().map(|s| s.micros).collect()),
        latency_block(cached),
        latency_block(uncached),
        stage_block("parse"),
        stage_block("queue"),
        stage_block("batch"),
        stage_block("cache"),
        stage_block("solve"),
        live_scrapes.0,
        live_scrapes.1,
        metrics
    );
    if let Err(e) = std::fs::write(&config.out, &report) {
        eprintln!("oftec-loadgen: cannot write {}: {e}", config.out);
        return ExitCode::FAILURE;
    }
    println!("{report}");
    eprintln!("report written to {}", config.out);
    ExitCode::SUCCESS
}
