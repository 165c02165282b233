//! Quantized LRU result cache.
//!
//! Keys are the solve kind plus the operating point and workload scale
//! rounded onto a configurable grid, so requests that differ by less
//! than the grid pitch share one entry (a control loop dithering around
//! 3000.2/2999.8 RPM hits the same cached solve). Values are the
//! serialized result payloads verbatim — a hit replays the exact bytes
//! of the original response, keeping repeats bit-identical.
//!
//! Eviction is capacity-LRU with optional TTL, implemented with a lazy
//! recency queue: each touch appends a `(seq, key)` marker and only the
//! newest marker per key is live, so `get`/`insert` stay O(1) amortized
//! without an intrusive list. Hit/miss/eviction/expiry counts land in the
//! owning server's counters.
//!
//! The store is **sharded**: keys hash (deterministically — no per-process
//! randomness, so shard placement is reproducible) onto one of
//! [`CacheConfig::shards`] independent LRU partitions, each behind its own
//! lock. Connections on different shard workers stop contending on one
//! global mutex; LRU order becomes per-shard (approximate global LRU),
//! which changes nothing about hit payloads — only which entry is evicted
//! under capacity pressure.

use crate::counters::ServeCounters;
use crate::protocol::{SolveKind, SolveSpec};
use oftec_power::Benchmark;
use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Quantization grids and eviction limits.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum live entries (summed across shards); 0 disables the cache
    /// entirely.
    pub capacity: usize,
    /// Entry lifetime; `None` = never expires.
    pub ttl: Option<Duration>,
    /// Fan-speed grid pitch in RPM.
    pub rpm_grid: f64,
    /// TEC-current grid pitch in amperes.
    pub amps_grid: f64,
    /// Workload-scale grid pitch.
    pub scale_grid: f64,
    /// Lock shards; rounded up to a power of two, minimum 1. With 1 shard
    /// eviction is exact global LRU; with more it is per-shard LRU.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 1024,
            ttl: None,
            rpm_grid: 1.0,
            amps_grid: 0.01,
            scale_grid: 1e-3,
            shards: 8,
        }
    }
}

fn quantize(v: f64, grid: f64) -> i64 {
    if grid > 0.0 {
        (v / grid).round() as i64
    } else {
        v.to_bits() as i64
    }
}

/// A fully quantized lookup key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    kind: SolveKind,
    benchmark: Benchmark,
    scale_q: i64,
    rpm_q: i64,
    amps_q: i64,
    omega_points: usize,
    current_points: usize,
}

impl CacheKey {
    /// Quantizes a solve spec onto the cache grid.
    pub fn for_spec(spec: &SolveSpec, cfg: &CacheConfig) -> Self {
        Self {
            kind: spec.kind,
            benchmark: spec.benchmark,
            scale_q: quantize(spec.scale, cfg.scale_grid),
            rpm_q: quantize(spec.rpm, cfg.rpm_grid),
            amps_q: quantize(spec.amps, cfg.amps_grid),
            omega_points: spec.omega_points,
            current_points: spec.current_points,
        }
    }

    /// The canonical (de-quantized) workload scale this key represents.
    /// Solving at the canonical scale — not the request's raw scale —
    /// makes every request that maps to this key receive bit-identical
    /// results whether it hit the cache or triggered the solve.
    pub fn canonical_scale(&self, cfg: &CacheConfig) -> f64 {
        if cfg.scale_grid > 0.0 {
            self.scale_q as f64 * cfg.scale_grid
        } else {
            f64::from_bits(self.scale_q as u64)
        }
    }

    /// Canonical fan speed in RPM (see [`CacheKey::canonical_scale`]).
    pub fn canonical_rpm(&self, cfg: &CacheConfig) -> f64 {
        if cfg.rpm_grid > 0.0 {
            self.rpm_q as f64 * cfg.rpm_grid
        } else {
            f64::from_bits(self.rpm_q as u64)
        }
    }

    /// Canonical TEC current in amperes.
    pub fn canonical_amps(&self, cfg: &CacheConfig) -> f64 {
        if cfg.amps_grid > 0.0 {
            self.amps_q as f64 * cfg.amps_grid
        } else {
            f64::from_bits(self.amps_q as u64)
        }
    }
}

struct Entry {
    payload: String,
    inserted: Instant,
    /// Sequence number of this key's newest recency marker.
    touched: u64,
}

struct Inner {
    /// Ordered map: iteration order is the key order, not hasher state,
    /// keeping every walk over the store deterministic (L008).
    map: BTreeMap<CacheKey, Entry>,
    /// Recency markers, oldest first. Stale markers (seq != entry.touched)
    /// are skipped during eviction and compaction.
    order: VecDeque<(u64, CacheKey)>,
    seq: u64,
}

/// The shared cache. All methods take `&self`; a poisoned lock is
/// recovered (cache state is a plain map — no invariant outlives a
/// panicking accessor).
pub struct QuantizedCache {
    cfg: CacheConfig,
    /// Power-of-two shard count minus one, for masking the key hash.
    shard_mask: usize,
    /// Per-entry capacity of each shard (total capacity split evenly).
    shard_capacity: usize,
    shards: Box<[Mutex<Inner>]>,
    counters: Arc<ServeCounters>,
}

impl QuantizedCache {
    /// A cache with counters of its own (no server reads them).
    pub fn new(cfg: CacheConfig) -> Self {
        Self::with_counters(cfg, Arc::default())
    }

    /// A cache counting into its server's `counters`.
    pub(crate) fn with_counters(cfg: CacheConfig, counters: Arc<ServeCounters>) -> Self {
        let nshards = cfg.shards.max(1).next_power_of_two();
        let shards = (0..nshards)
            .map(|_| {
                Mutex::new(Inner {
                    map: BTreeMap::new(),
                    order: VecDeque::new(),
                    seq: 0,
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            shard_mask: nshards - 1,
            shard_capacity: cfg.capacity.div_ceil(nshards),
            cfg,
            shards,
            counters,
        }
    }

    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    // oftec-lint: hot
    pub fn key_for(&self, spec: &SolveSpec) -> CacheKey {
        CacheKey::for_spec(spec, &self.cfg)
    }

    /// Which shard a key lives on. `DefaultHasher::new()` uses fixed keys,
    /// so placement is identical across processes and runs — required for
    /// the serve determinism contract (eviction patterns, and therefore
    /// hit/miss sequences under capacity pressure, must not depend on
    /// process-random hash seeds).
    // oftec-lint: hot
    fn shard_of(&self, key: &CacheKey) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) & self.shard_mask
    }

    /// Looks `key` up, refreshing its recency on a hit. Expired entries
    /// count as misses (and are removed). Returns the payload JSON.
    pub fn get(&self, key: &CacheKey) -> Option<String> {
        self.lookup(key, true)
    }

    /// [`QuantizedCache::get`] without touching the hit/miss counters —
    /// the dispatcher's re-check after dequeue uses this so the
    /// request-level hit rate reflects connection-thread lookups only.
    pub fn peek(&self, key: &CacheKey) -> Option<String> {
        self.lookup(key, false)
    }

    fn lookup(&self, key: &CacheKey, count: bool) -> Option<String> {
        if self.cfg.capacity == 0 {
            if count {
                self.counters.cache_misses.add(1);
            }
            return None;
        }
        let mut inner = self.shards[self.shard_of(key)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let expired = match inner.map.get(key) {
            None => {
                if count {
                    self.counters.cache_misses.add(1);
                }
                return None;
            }
            Some(e) => self.cfg.ttl.is_some_and(|ttl| e.inserted.elapsed() >= ttl),
        };
        if expired {
            inner.map.remove(key);
            self.counters.cache_expired.add(1);
            if count {
                self.counters.cache_misses.add(1);
            }
            return None;
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.order.push_back((seq, *key));
        // Present: checked above, under the same lock.
        let payload = match inner.map.get_mut(key) {
            Some(entry) => {
                entry.touched = seq;
                entry.payload.clone()
            }
            None => return None,
        };
        if count {
            self.counters.cache_hits.add(1);
        }
        Self::maybe_compact(&mut inner);
        Some(payload)
    }

    /// Inserts (or refreshes) `key`, evicting least-recently-used entries
    /// beyond capacity.
    pub fn insert(&self, key: CacheKey, payload: String) {
        if self.cfg.capacity == 0 {
            return;
        }
        let mut inner = self.shards[self.shard_of(&key)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let seq = inner.seq;
        inner.seq += 1;
        inner.order.push_back((seq, key));
        inner.map.insert(
            key,
            Entry {
                payload,
                inserted: Instant::now(),
                touched: seq,
            },
        );
        while inner.map.len() > self.shard_capacity {
            match inner.order.pop_front() {
                Some((marker_seq, old_key)) => {
                    // Only a key's newest marker is live; skip stale ones.
                    if inner
                        .map
                        .get(&old_key)
                        .is_some_and(|e| e.touched == marker_seq)
                    {
                        inner.map.remove(&old_key);
                        self.counters.cache_evictions.add(1);
                    }
                }
                None => break,
            }
        }
        Self::maybe_compact(&mut inner);
    }

    /// Live entry count (expired-but-unvisited entries included), summed
    /// across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops stale recency markers once they dominate the queue.
    fn maybe_compact(inner: &mut Inner) {
        if inner.order.len() > 2 * inner.map.len() + 16 {
            let map = &inner.map;
            inner
                .order
                .retain(|(seq, key)| map.get(key).is_some_and(|e| e.touched == *seq));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SolveKind;

    fn spec(rpm: f64, amps: f64) -> SolveSpec {
        SolveSpec {
            kind: SolveKind::Steady,
            benchmark: Benchmark::Quicksort,
            scale: 1.0,
            rpm,
            amps,
            omega_points: 0,
            current_points: 0,
            no_cache: false,
            deadline_ms: None,
        }
    }

    /// Single-shard cache: exact global LRU, so eviction-order tests stay
    /// deterministic regardless of key-to-shard placement.
    fn cache(capacity: usize, ttl: Option<Duration>) -> QuantizedCache {
        QuantizedCache::new(CacheConfig {
            capacity,
            ttl,
            shards: 1,
            ..CacheConfig::default()
        })
    }

    #[test]
    fn quantization_collides_nearby_points() {
        let c = cache(8, None);
        // Sub-grid perturbations share a key...
        assert_eq!(
            c.key_for(&spec(3000.2, 1.5)),
            c.key_for(&spec(2999.8, 1.502))
        );
        // ...while distinct grid cells do not.
        assert_ne!(c.key_for(&spec(3000.0, 1.5)), c.key_for(&spec(3001.0, 1.5)));
        assert_ne!(
            c.key_for(&spec(3000.0, 1.5)),
            c.key_for(&spec(3000.0, 1.51))
        );
        // Kind separates otherwise identical specs.
        let mut opt = spec(0.0, 0.0);
        opt.kind = SolveKind::Optimize;
        assert_ne!(c.key_for(&opt), c.key_for(&spec(0.0, 0.0)));
        // Canonical coordinates land on the grid.
        let k = c.key_for(&spec(3000.2, 1.502));
        assert_eq!(k.canonical_rpm(c.config()), 3000.0);
        assert!((k.canonical_amps(c.config()) - 1.5).abs() < 1e-12);
        assert_eq!(k.canonical_scale(c.config()), 1.0);
    }

    #[test]
    fn hit_returns_exact_payload() {
        let c = cache(8, None);
        let k = c.key_for(&spec(3000.0, 1.5));
        assert_eq!(c.get(&k), None);
        c.insert(k, "{\"t\":42.5}".into());
        assert_eq!(c.get(&k).as_deref(), Some("{\"t\":42.5}"));
        // The colliding key hits the same entry.
        let k2 = c.key_for(&spec(2999.9, 1.501));
        assert_eq!(c.get(&k2).as_deref(), Some("{\"t\":42.5}"));
    }

    #[test]
    fn ttl_zero_expires_deterministically() {
        let c = cache(8, Some(Duration::ZERO));
        let k = c.key_for(&spec(3000.0, 1.5));
        c.insert(k, "x".into());
        assert_eq!(c.get(&k), None, "zero TTL must expire instantly");
        assert_eq!(c.counters.cache_expired.get(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn evicts_in_lru_order() {
        let c = cache(2, None);
        let (ka, kb, kc) = (
            c.key_for(&spec(1000.0, 0.0)),
            c.key_for(&spec(2000.0, 0.0)),
            c.key_for(&spec(3000.0, 0.0)),
        );
        c.insert(ka, "a".into());
        c.insert(kb, "b".into());
        // Touch `a` so `b` is now least-recently-used.
        assert_eq!(c.get(&ka).as_deref(), Some("a"));
        c.insert(kc, "c".into());
        assert_eq!(c.counters.cache_evictions.get(), 1);
        assert_eq!(c.get(&kb), None, "LRU entry must be the one evicted");
        assert_eq!(c.get(&ka).as_deref(), Some("a"));
        assert_eq!(c.get(&kc).as_deref(), Some("c"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let c = cache(8, None);
        let k = c.key_for(&spec(4000.0, 2.0));
        c.get(&k);
        c.insert(k, "v".into());
        c.get(&k);
        c.get(&k);
        assert_eq!(c.counters.cache_hits.get(), 2);
        assert_eq!(c.counters.cache_misses.get(), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = cache(0, None);
        let k = c.key_for(&spec(3000.0, 1.5));
        c.insert(k, "v".into());
        assert_eq!(c.get(&k), None);
        assert!(c.is_empty());
    }

    #[test]
    fn recency_queue_compacts_under_churn() {
        let c = cache(2, None);
        let k = c.key_for(&spec(1000.0, 0.0));
        c.insert(k, "v".into());
        for _ in 0..1000 {
            c.get(&k);
        }
        for shard in c.shards.iter() {
            let inner = shard.lock().unwrap();
            assert!(
                inner.order.len() <= 2 * inner.map.len() + 17,
                "recency queue must stay bounded, got {}",
                inner.order.len()
            );
        }
    }

    #[test]
    fn sharded_cache_behaves_like_one_store() {
        let c = QuantizedCache::new(CacheConfig {
            capacity: 256,
            shards: 8,
            ..CacheConfig::default()
        });
        assert_eq!(c.shards.len(), 8);
        assert_eq!(c.shard_capacity, 32);
        // Every key round-trips through whichever shard it hashed to.
        for i in 0..64 {
            let k = c.key_for(&spec(1000.0 + 10.0 * f64::from(i), 0.5));
            c.insert(k, format!("p{i}"));
        }
        for i in 0..64 {
            let k = c.key_for(&spec(1000.0 + 10.0 * f64::from(i), 0.5));
            assert_eq!(c.get(&k).as_deref(), Some(format!("p{i}").as_str()));
        }
        assert_eq!(c.len(), 64);
        // Keys actually spread over more than one shard.
        let occupied = c
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().map.is_empty())
            .count();
        assert!(occupied > 1, "64 keys landed on {occupied} shard(s)");
    }

    #[test]
    fn shard_placement_is_deterministic_across_instances() {
        let a = QuantizedCache::new(CacheConfig::default());
        let b = QuantizedCache::new(CacheConfig::default());
        for i in 0..32 {
            let k = a.key_for(&spec(2000.0 + 7.0 * f64::from(i), 1.0));
            assert_eq!(a.shard_of(&k), b.shard_of(&k));
        }
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let c = QuantizedCache::new(CacheConfig {
            shards: 5,
            ..CacheConfig::default()
        });
        assert_eq!(c.shards.len(), 8);
        let c1 = QuantizedCache::new(CacheConfig {
            shards: 0,
            ..CacheConfig::default()
        });
        assert_eq!(c1.shards.len(), 1);
    }
}
