//! LRU cache of prepared query plans.
//!
//! Keyed by `(query text, EngineOptions, catalog version)` — the
//! inputs that fully determine a compiled plan — so a server can skip
//! the parse/compile/rewrite pipeline for repeated queries. The
//! catalog version comes from the statistics attached to the engine
//! (zero when none): reindexing the catalog bumps the version, so
//! plans whose access-path decisions were made against stale
//! statistics are never served. The recency
//! list is an intrusive doubly-linked list over a slot vector (no
//! per-entry allocation, O(1) touch/insert/evict); a `Mutex` guards the
//! structure while hit/miss counters are lock-free atomics so
//! `/metrics` never contends with query traffic.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xqa_engine::{Engine, EngineOptions, EngineResult, PreparedQuery, Tracer};

type CacheKey = (String, EngineOptions, u64);

/// Sentinel for "no slot" in the intrusive list.
const NIL: usize = usize::MAX;

struct Slot {
    key: CacheKey,
    plan: Arc<PreparedQuery>,
    prev: usize,
    next: usize,
}

/// The linked-LRU structure guarded by the cache mutex.
struct Lru {
    map: HashMap<CacheKey, usize>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used (eviction candidate).
    tail: usize,
}

impl Lru {
    fn new() -> Lru {
        Lru {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = {
            let s = self.slots[i].as_ref().expect("unlink of empty slot");
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p].as_mut().expect("linked prev").next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].as_mut().expect("linked next").prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        {
            let s = self.slots[i].as_mut().expect("push_front of empty slot");
            s.prev = NIL;
            s.next = self.head;
        }
        if self.head != NIL {
            self.slots[self.head].as_mut().expect("old head").prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Look up and mark most-recently-used.
    fn get(&mut self, key: &CacheKey) -> Option<Arc<PreparedQuery>> {
        let &i = self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(Arc::clone(
            &self.slots[i].as_ref().expect("mapped slot").plan,
        ))
    }

    /// Insert (or refresh) an entry, evicting the LRU tail at capacity.
    fn insert(&mut self, key: CacheKey, plan: Arc<PreparedQuery>, capacity: usize) {
        if let Some(&i) = self.map.get(&key) {
            // Raced with another worker compiling the same query: keep
            // one plan, refresh recency.
            self.slots[i].as_mut().expect("mapped slot").plan = plan;
            self.unlink(i);
            self.push_front(i);
            return;
        }
        if self.map.len() >= capacity {
            let victim = self.tail;
            self.unlink(victim);
            let slot = self.slots[victim].take().expect("tail slot");
            self.map.remove(&slot.key);
            self.free.push(victim);
        }
        let slot = Slot {
            key: key.clone(),
            plan,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
    }
}

/// A thread-safe LRU cache of [`PreparedQuery`] plans.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Lru::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Fetch the plan for `query` under `engine`'s options, compiling
    /// and caching it on a miss.
    ///
    /// Compilation happens *outside* the lock: two workers racing on
    /// the same novel query may both compile it (the second insert
    /// wins), which trades a little duplicate work for never blocking
    /// cache hits behind a slow compile. Failed compilations are not
    /// cached.
    pub fn get_or_compile(&self, engine: &Engine, query: &str) -> EngineResult<Arc<PreparedQuery>> {
        self.get_or_compile_status(engine, query)
            .map(|(plan, _)| plan)
    }

    /// Like [`PlanCache::get_or_compile`], but also reports whether the
    /// plan was compiled by this call (`true`) or served from the cache
    /// (`false`) — the signal the server uses to count rewrite firings
    /// exactly once per compilation.
    pub fn get_or_compile_status(
        &self,
        engine: &Engine,
        query: &str,
    ) -> EngineResult<(Arc<PreparedQuery>, bool)> {
        self.get_or_compile_traced(engine, query, None)
    }

    /// Like [`PlanCache::get_or_compile_status`], but threads a
    /// [`Tracer`] into the compilation pipeline so compile-phase events
    /// (parse, rewrites fired, bytecode lowering) land in the caller's
    /// trace sink. Cache hits emit nothing — compilation never ran.
    pub fn get_or_compile_traced(
        &self,
        engine: &Engine,
        query: &str,
        tracer: Option<&Tracer>,
    ) -> EngineResult<(Arc<PreparedQuery>, bool)> {
        let version = engine.statistics().map_or(0, |s| s.version());
        let key = (query.to_string(), engine.options(), version);
        if let Some(plan) = self.inner.lock().expect("plan cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((plan, false));
        }
        let plan = Arc::new(engine.compile_traced(query, tracer)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().expect("plan cache poisoned").insert(
            key,
            Arc::clone(&plan),
            self.capacity,
        );
        Ok((plan, true))
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far (successful compiles only).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits divided by total lookups (0.0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan cache poisoned").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of cached plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_keys(cache: &PlanCache) -> Vec<String> {
        let inner = cache.inner.lock().unwrap();
        let mut keys = Vec::new();
        let mut i = inner.head;
        while i != NIL {
            let slot = inner.slots[i].as_ref().unwrap();
            keys.push(slot.key.0.clone());
            i = slot.next;
        }
        keys
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let engine = Engine::new();
        let cache = PlanCache::new(4);
        cache.get_or_compile(&engine, "1 + 1").unwrap();
        cache.get_or_compile(&engine, "1 + 1").unwrap();
        cache.get_or_compile(&engine, "2 + 2").unwrap();
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
        assert!((cache.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn least_recently_used_plan_is_evicted() {
        let engine = Engine::new();
        let cache = PlanCache::new(2);
        cache.get_or_compile(&engine, "1").unwrap();
        cache.get_or_compile(&engine, "2").unwrap();
        // Touch "1" so "2" becomes the LRU entry.
        cache.get_or_compile(&engine, "1").unwrap();
        cache.get_or_compile(&engine, "3").unwrap();
        assert_eq!(cache_keys(&cache), vec!["3", "1"]);
        // "2" was evicted: fetching it again is a miss.
        let misses = cache.misses();
        cache.get_or_compile(&engine, "2").unwrap();
        assert_eq!(cache.misses(), misses + 1);
    }

    #[test]
    fn capacity_one_keeps_only_the_latest() {
        let engine = Engine::new();
        let cache = PlanCache::new(1);
        for q in ["1", "2", "3", "2"] {
            cache.get_or_compile(&engine, q).unwrap();
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache_keys(&cache), vec!["2"]);
    }

    #[test]
    fn different_engine_options_key_different_plans() {
        let cache = PlanCache::new(8);
        let plain = Engine::new();
        let rewriting = Engine::with_options(EngineOptions {
            hints: "implicit-groupby=on".parse().unwrap(),
            ..Default::default()
        });
        cache.get_or_compile(&plain, "1 + 1").unwrap();
        cache.get_or_compile(&rewriting, "1 + 1").unwrap();
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn different_catalog_versions_key_different_plans() {
        use xqa_storage::{CatalogStatistics, DocumentStore};
        let cache = PlanCache::new(8);
        let store_stats = || {
            let doc = xqa_xmlparse::parse_document("<r><v>1</v></r>").unwrap();
            let store = DocumentStore::build(&doc);
            Arc::new(CatalogStatistics::from_stores([&store]))
        };
        let a = Engine::new().with_statistics(store_stats());
        let b = Engine::new().with_statistics(store_stats());
        assert_ne!(
            a.statistics().unwrap().version(),
            b.statistics().unwrap().version(),
            "store versions are monotonic"
        );
        cache.get_or_compile(&a, "1 + 1").unwrap();
        // Same query text + options, newer catalog: recompiled.
        cache.get_or_compile(&b, "1 + 1").unwrap();
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let engine = Engine::new();
        let cache = PlanCache::new(4);
        assert!(cache.get_or_compile(&engine, "for $x in").is_err());
        assert!(cache.get_or_compile(&engine, "for $x in").is_err());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn concurrent_lookups_converge_on_one_cache() {
        let engine = Engine::new();
        let cache = PlanCache::new(16);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..50 {
                        let q = format!("{} + 1", i % 8);
                        cache.get_or_compile(&engine, &q).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.hits() + cache.misses(), 200);
        // At most one racing compile per worker per query.
        assert!(cache.misses() <= 32, "misses = {}", cache.misses());
    }
}
