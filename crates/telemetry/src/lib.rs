//! **oftec-telemetry** — workspace-wide observability for the OFTEC solve
//! stack: a metrics registry (counters, gauges, fixed-bucket histograms),
//! hierarchical RAII spans, per-iteration convergence traces, and a
//! structured JSONL event sink. Std-only, like the rest of the numerical
//! core.
//!
//! # Model
//!
//! All recording goes through a **thread-local buffer**. Worker threads
//! never contend on a lock in the hot path; instead the parallel executor
//! ([`oftec-parallel`]) wraps each work item in [`capture`] and merges the
//! per-item buffers back into the submitting thread **in work-item index
//! order** via [`absorb`]. Because counters and histograms are integer
//! aggregates and gauges/traces/spans merge in index order, the registry
//! contents are identical at any `OFTEC_THREADS` setting — only span
//! wall-times differ (strip them with [`Snapshot::redact_times`]).
//!
//! [`flush`] folds the calling thread's buffer into the process-global
//! registry; [`snapshot`] flushes and returns an exportable copy.
//!
//! # Cost when disabled
//!
//! Collection is off by default. Every entry point first checks one
//! relaxed atomic ([`collecting`]) and returns immediately when disabled:
//! no clock reads, no allocation, no thread-local access. Enable it with
//! `OFTEC_LOG=summary|trace` or programmatically via [`set_collecting`]
//! (what `--telemetry-json` does in the CLI and bench binaries).
//!
//! # Example
//!
//! ```
//! use oftec_telemetry as telemetry;
//!
//! telemetry::set_collecting(true);
//! let (result, buf) = telemetry::capture(|| {
//!     let _span = telemetry::span("work");
//!     telemetry::counter_add("work.items", 3);
//!     42
//! });
//! assert_eq!(result, 42);
//! assert_eq!(buf.counter("work.items"), 3);
//! ```

mod exposition;
mod json;
mod recorder;
mod registry;
mod sink;
mod slo;
mod span;

pub use exposition::{sanitize_metric_name, to_prometheus};
pub use recorder::{FlightRecorder, TraceRecord, MAX_TRACE_STAGES};
pub use registry::{HistogramData, LocalBuffer, Snapshot, TracePoint};
pub use sink::{Field, Severity};
pub use slo::{SloMonitor, SloStatus};
pub use span::{SpanGuard, SpanNode};

use span::OpenSpan;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Verbosity of the JSONL event sink, configured via `OFTEC_LOG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// No events; metric collection stays opt-in (`--telemetry-json`).
    Off,
    /// Warnings and run-level summaries; implies metric collection.
    Summary,
    /// Everything, including per-iteration detail; implies collection.
    Trace,
}

/// `LEVEL` encoding: 0/1/2 = off/summary/trace, `UNINIT` = read the
/// environment on first use.
const LEVEL_UNINIT: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNINIT);

/// `COLLECT` encoding: 0 = follow the level, 1 = forced on, 2 = forced
/// off.
static COLLECT: AtomicU8 = AtomicU8::new(0);

#[derive(Default)]
struct ThreadState {
    buf: LocalBuffer,
    stack: Vec<OpenSpan>,
}

thread_local! {
    static STATE: RefCell<ThreadState> = RefCell::new(ThreadState::default());
}

fn global() -> &'static Mutex<LocalBuffer> {
    static GLOBAL: OnceLock<Mutex<LocalBuffer>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(LocalBuffer::default()))
}

fn level_raw() -> u8 {
    let v = LEVEL.load(Ordering::Relaxed);
    if v != LEVEL_UNINIT {
        return v;
    }
    init_from_env();
    LEVEL.load(Ordering::Relaxed)
}

/// Reads `OFTEC_LOG` (`off`/`summary`/`trace`, default `off`) into the
/// level, unless [`set_level`] already pinned one. Called lazily by every
/// gate, so explicit initialization is only needed to control *when* the
/// environment is read.
pub fn init_from_env() {
    let parsed = match std::env::var("OFTEC_LOG") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "summary" => 1,
            "trace" => 2,
            _ => 0,
        },
        Err(_) => 0,
    };
    // Keep an explicitly set level; only replace the uninitialized marker.
    let _ = LEVEL.compare_exchange(LEVEL_UNINIT, parsed, Ordering::Relaxed, Ordering::Relaxed);
}

/// The active event-sink level.
pub fn level() -> Level {
    match level_raw() {
        2 => Level::Trace,
        1 => Level::Summary,
        _ => Level::Off,
    }
}

/// Overrides the event-sink level (tests and CLI flags; wins over
/// `OFTEC_LOG`).
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// `true` when metrics/spans/traces are being recorded.
pub fn collecting() -> bool {
    match COLLECT.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => level_raw() > 0,
    }
}

/// Forces metric collection on or off, independent of the event level
/// (`--telemetry-json` turns collection on without enabling the sink).
pub fn set_collecting(on: bool) {
    COLLECT.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Adds `n` to the named counter (no-op while not collecting).
pub fn counter_add(name: &'static str, n: u64) {
    if !collecting() || n == 0 {
        return;
    }
    STATE.with(|s| {
        *s.borrow_mut().buf.counters.entry(name).or_insert(0) += n;
    });
}

/// Sets the named gauge (no-op while not collecting). Last writer — in
/// deterministic merge order — wins.
pub fn gauge_set(name: &'static str, value: f64) {
    if !collecting() {
        return;
    }
    STATE.with(|s| {
        s.borrow_mut().buf.gauges.insert(name, value);
    });
}

/// Records `value` into the named fixed-bucket histogram (no-op while not
/// collecting). One name must always use one `bounds` set.
pub fn histogram_record(name: &'static str, bounds: &'static [u64], value: u64) {
    if !collecting() {
        return;
    }
    STATE.with(|s| {
        s.borrow_mut()
            .buf
            .histograms
            .entry(name)
            .or_insert_with(|| HistogramData::new(bounds))
            .record(value);
    });
}

/// Stores a named convergence trace (no-op while not collecting),
/// replacing any previous trace of the same name.
pub fn trace_record(name: &'static str, points: Vec<TracePoint>) {
    if !collecting() {
        return;
    }
    STATE.with(|s| {
        s.borrow_mut().buf.traces.insert(name, points);
    });
}

/// Opens a wall-time span; the returned guard closes it on drop, nesting
/// it under the enclosing open span of this thread.
pub fn span(name: &'static str) -> SpanGuard {
    if !collecting() {
        return SpanGuard { active: false };
    }
    STATE.with(|s| {
        s.borrow_mut().stack.push(OpenSpan {
            name,
            start: Instant::now(),
            children: Vec::new(),
        });
    });
    SpanGuard { active: true }
}

pub(crate) fn close_span() {
    STATE.with(|s| {
        let st = &mut *s.borrow_mut();
        // A guard dropped inside a `capture` it was opened outside of
        // finds no span to pop; ignore it rather than corrupt the tree.
        let Some(open) = st.stack.pop() else { return };
        let node = SpanNode {
            name: open.name,
            micros: open.start.elapsed().as_micros() as u64,
            children: open.children,
        };
        match st.stack.last_mut() {
            Some(top) => top.children.push(node),
            None => st.buf.spans.push(node),
        }
    });
}

/// Emits a structured JSONL event to the sink if the level admits its
/// severity ([`Severity::Warn`]/[`Severity::Info`] at `summary`,
/// [`Severity::Debug`] at `trace`).
pub fn event(severity: Severity, name: &str, fields: &[(&str, Field<'_>)]) {
    let needed = match severity {
        Severity::Warn | Severity::Info => 1,
        Severity::Debug => 2,
    };
    if level_raw() >= needed {
        sink::emit(severity, name, fields);
    }
}

/// Runs `f` with a fresh thread-local buffer and returns its result
/// together with everything `f` recorded on this thread.
///
/// This is the hand-off primitive: the parallel executor wraps each work
/// item in `capture` on the worker thread and later [`absorb`]s the
/// buffers on the submitting thread in item-index order. It also isolates
/// tests from unrelated telemetry produced by concurrent threads.
///
/// While not collecting, `f` runs with zero overhead and the returned
/// buffer is empty.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, LocalBuffer) {
    if !collecting() {
        return (f(), LocalBuffer::default());
    }
    // Swap the whole state out so spans opened inside `f` root in the
    // captured buffer; restore on unwind so a panicking item cannot
    // corrupt the worker's surrounding telemetry.
    struct Restore {
        saved: Option<ThreadState>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(saved) = self.saved.take() {
                STATE.with(|s| *s.borrow_mut() = saved);
            }
        }
    }
    let mut restore = Restore {
        saved: Some(STATE.with(|s| std::mem::take(&mut *s.borrow_mut()))),
    };
    let result = f();
    // `saved` is still present here: the drop guard only consumes it on
    // unwind. Falling back to a default state is a no-op in that
    // impossible case rather than a panic on the telemetry path.
    let saved = restore.saved.take().unwrap_or_default();
    let captured = STATE.with(|s| std::mem::replace(&mut *s.borrow_mut(), saved));
    (result, captured.buf)
}

/// Merges a captured buffer into this thread's buffer. Captured root
/// spans attach under the currently open span, exactly as if the work had
/// run inline here.
pub fn absorb(mut buf: LocalBuffer) {
    if buf.is_empty() {
        return;
    }
    let spans = std::mem::take(&mut buf.spans);
    STATE.with(|s| {
        let st = &mut *s.borrow_mut();
        match st.stack.last_mut() {
            Some(top) => top.children.extend(spans),
            None => st.buf.spans.extend(spans),
        }
        st.buf.merge(buf);
    });
}

/// Folds this thread's buffer into the process-global registry.
pub fn flush() {
    let buf = STATE.with(|s| std::mem::take(&mut s.borrow_mut().buf));
    if buf.is_empty() {
        return;
    }
    global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .merge(buf);
}

/// Flushes this thread and returns a copy of the global registry.
pub fn snapshot() -> Snapshot {
    flush();
    let guard = global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    Snapshot::from_buffer(guard.clone())
}

/// A per-instance counter that mirrors its increments into the registry.
///
/// The owning struct reads exact per-instance values through
/// [`Counter::get`] (always counted, telemetry on or off — one relaxed
/// atomic add), while the registry accumulates the process-wide total
/// under its name whenever collection is enabled. `new` is not a
/// `const fn`, so a process `static` counter does not compile.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter mirroring into the registry under `name`.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` to the instance value and (while collecting) the
    /// registry.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        counter_add(self.name, n);
    }

    /// The exact per-instance count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The control statics are process-global, so tests force collection on
    // and isolate their data with `capture` instead of reading `global()`.
    // Nothing here switches collection off: those checks run in a binary
    // of their own (`tests/collection_off.rs`).

    #[test]
    fn spans_nest_and_counters_accumulate() {
        set_collecting(true);
        let (_, buf) = capture(|| {
            let _outer = span("outer");
            counter_add("n", 1);
            {
                let _inner = span("inner");
                counter_add("n", 2);
            }
        });
        assert_eq!(buf.counter("n"), 3);
        let snap = Snapshot::from_buffer(buf);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "outer");
        assert_eq!(snap.spans[0].children.len(), 1);
        assert_eq!(snap.spans[0].children[0].name, "inner");
    }

    #[test]
    fn absorb_attaches_spans_under_the_open_span() {
        set_collecting(true);
        let (_, inner) = capture(|| {
            let _s = span("item");
            counter_add("items", 1);
        });
        let (_, buf) = capture(|| {
            let _root = span("root");
            absorb(inner);
        });
        assert_eq!(buf.counter("items"), 1);
        assert_eq!(buf.spans.len(), 1);
        assert_eq!(buf.spans[0].children[0].name, "item");
    }

    #[test]
    fn capture_restores_state_on_panic() {
        set_collecting(true);
        let (_, buf) = capture(|| {
            counter_add("kept", 1);
            let panicked = std::panic::catch_unwind(|| {
                let _ = capture(|| -> u32 { panic!("boom") });
            });
            assert!(panicked.is_err());
            counter_add("kept", 1);
        });
        assert_eq!(buf.counter("kept"), 2);
    }

    #[test]
    fn traces_and_gauges_are_last_writer_wins() {
        set_collecting(true);
        let (_, buf) = capture(|| {
            gauge_set("g", 1.0);
            trace_record("t", vec![TracePoint::new(1, vec![("a", 1.0)])]);
            let (_, inner) = capture(|| {
                gauge_set("g", 2.0);
                trace_record("t", vec![TracePoint::new(1, vec![("a", 2.0)])]);
            });
            absorb(inner);
        });
        assert_eq!(buf.gauges["g"], 2.0);
        let snap = Snapshot::from_buffer(buf);
        assert_eq!(snap.trace("t").unwrap()[0].fields[0].1, 2.0);
    }

    #[test]
    fn histogram_records_through_the_api() {
        set_collecting(true);
        static BOUNDS: &[u64] = &[10, 100];
        let (_, buf) = capture(|| {
            histogram_record("h", BOUNDS, 5);
            histogram_record("h", BOUNDS, 50);
            histogram_record("h", BOUNDS, 500);
        });
        let h = buf.histogram("h").unwrap();
        assert_eq!(h.counts, vec![1, 1, 1]);
        assert_eq!(h.sum, 555);
    }
}
