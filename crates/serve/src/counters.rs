//! One server's counters, shared by its engine, cache and queue: plain
//! relaxed atomics kept off the process registry, so two servers in one
//! process never see each other's counts.

use oftec_telemetry as telemetry;
use std::sync::atomic::{AtomicU64, Ordering};

/// An event count. It publishes no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub(crate) struct Tally(AtomicU64);

impl Tally {
    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

macro_rules! serve_counters {
    ($($field:ident => $name:literal,)*) => {
        #[derive(Debug, Default)]
        pub(crate) struct ServeCounters {
            $(pub(crate) $field: Tally,)*
        }

        impl ServeCounters {
            /// The registry snapshot plus every counter of this server,
            /// zeros included: the `metrics` reply and the final
            /// `--telemetry-json` file.
            pub(crate) fn snapshot(&self) -> telemetry::Snapshot {
                let mut snap = telemetry::snapshot();
                $(snap.counters.insert($name, self.$field.get());)*
                snap
            }
        }
    };
}

serve_counters! {
    requests => "serve.requests",
    responses_ok => "serve.responses_ok",
    responses_err => "serve.responses_err",
    connections => "serve.connections",
    probes => "serve.probes",
    overloaded => "serve.overloaded",
    spawn_failures => "serve.worker_spawn_failures",
    // Typed per-cause error counters: `serve.responses_err` is their sum.
    err_parse => "serve.errors.parse",
    err_overload => "serve.errors.overload",
    err_deadline => "serve.errors.deadline",
    err_solver => "serve.errors.solver",
    err_panic => "serve.errors.panic",
    err_internal => "serve.errors.internal",
    panics => "serve.panics",
    batches => "serve.batches",
    batch_jobs => "serve.batch.jobs",
    batch_deduped => "serve.batch.deduped",
    deadline_exceeded => "serve.deadline_exceeded",
    queue_expired => "serve.queue.expired",
    queue_evicted => "serve.queue.evicted",
    cache_hits => "serve.cache.hits",
    cache_misses => "serve.cache.misses",
    cache_evictions => "serve.cache.evictions",
    cache_expired => "serve.cache.expired",
}
