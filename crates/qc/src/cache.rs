//! The artifact cache: compile once, serve many connections.
//!
//! An LRU of immutable [`QueryArtifact`]s keyed by `(DTD fingerprint,
//! normalized query)`. The fingerprint is a field of the grammar
//! ([`Dtd::fingerprint`], computed when the grammar was built), so a
//! hit costs one parse of the query text to normalize it and one map
//! lookup — nothing grammar-sized. Artifacts are `Arc`'d, so hits hand
//! out shareable values with no copying and no lock held while a
//! machine runs; the compile for a miss reuses the AST the lookup
//! parsed and runs *outside* the lock, so concurrent misses on
//! different keys do not serialize (two racing misses on the same key
//! both compile and the second insert wins — harmless, compilation is
//! deterministic).
//!
//! Beyond hit/miss/eviction counts the cache keeps the compile counter
//! and cumulative compile time, and a resident-bytes gauge fed by
//! [`QueryArtifact::approx_bytes`], moved by each insert, eviction and
//! replacement rather than re-summed.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::artifact::QueryArtifact;
use xproj_dtd::Dtd;
use xproj_xquery::{parse_xquery, XQuery};

/// Counter snapshot of an [`ArtifactCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to produce an artifact.
    pub misses: u64,
    /// Entries evicted to respect the capacity.
    pub evictions: u64,
    /// Artifacts compiled (inference + lowering).
    pub compiles: u64,
    /// Cumulative wall-clock microseconds spent compiling.
    pub compile_micros: u64,
    /// Steps spent compiling ([`QueryArtifact::compile_steps`]),
    /// budgeted attempts that overran included.
    pub compile_steps: u64,
    /// Budgeted compiles that overran their budget and were handed
    /// back ([`ArtifactCache::compile_within`]).
    pub lane_compiles: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate bytes held by resident artifacts.
    pub resident_bytes: usize,
}

impl ArtifactCacheStats {
    /// Hit fraction over all lookups (1.0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

struct Entry {
    artifact: Arc<QueryArtifact>,
    last_used: u64,
}

struct Inner {
    map: HashMap<(u64, String), Entry>,
    tick: u64,
    stats: ArtifactCacheStats,
}

impl Inner {
    fn evict_for(&mut self, capacity: usize, key: &(u64, String)) {
        if self.map.len() >= capacity && !self.map.contains_key(key) {
            // LRU eviction (O(n) scan; serving caches are tens of
            // entries, not millions).
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.remove(&victim);
                self.stats.evictions += 1;
            }
        }
    }

    /// Inserts an entry, replacing (and un-counting) any under `key`.
    fn insert(&mut self, key: (u64, String), entry: Entry) {
        self.stats.resident_bytes += entry.artifact.approx_bytes();
        if let Some(old) = self.map.insert(key, entry) {
            self.stats.resident_bytes -= old.artifact.approx_bytes();
        }
        self.stats.entries = self.map.len();
    }

    fn remove(&mut self, key: &(u64, String)) {
        if let Some(old) = self.map.remove(key) {
            self.stats.resident_bytes -= old.artifact.approx_bytes();
        }
        self.stats.entries = self.map.len();
    }
}

/// What [`ArtifactCache::lookup`] found.
pub enum Lookup {
    /// The resident artifact.
    Hit(Arc<QueryArtifact>),
    /// Nothing resident: the compile still to run.
    Miss(PendingCompile),
}

/// A counted cache miss: the grammar, the parsed query and its cache
/// key, waiting for [`ArtifactCache::compile`].
pub struct PendingCompile {
    dtd: Arc<Dtd>,
    ast: XQuery,
    key: (u64, String),
}

/// An LRU cache of compiled [`QueryArtifact`]s. See the module docs.
pub struct ArtifactCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl ArtifactCache {
    /// Creates a cache holding at most `capacity` artifacts.
    pub fn new(capacity: usize) -> Self {
        ArtifactCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                stats: ArtifactCacheStats::default(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Returns the artifact for `query` against `dtd`, compiling only
    /// on a cache miss: [`Self::lookup`], then [`Self::compile`] on the
    /// caller's thread. An unparsable query is an error and counts as
    /// neither hit nor miss.
    pub fn get_or_compile(
        &self,
        dtd: &Arc<Dtd>,
        query: &str,
    ) -> Result<Arc<QueryArtifact>, String> {
        Ok(match self.lookup(dtd, query)? {
            Lookup::Hit(artifact) => artifact,
            Lookup::Miss(pending) => self.compile(pending),
        })
    }

    /// The cheap half of a lookup — parse, normalize, probe, about a
    /// microsecond — counting exactly one hit or one miss. A miss hands
    /// back what the parse produced, so a caller that must not run an
    /// unbounded compile where it stands (an event loop) can compile it
    /// under a budget ([`Self::compile_within`]) or move it elsewhere,
    /// and nothing is parsed twice.
    pub fn lookup(&self, dtd: &Arc<Dtd>, query: &str) -> Result<Lookup, String> {
        let ast = parse_xquery(query).map_err(|e| e.to_string())?;
        let key = (dtd.fingerprint(), ast.to_string());
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.map.get_mut(&key) {
            e.last_used = tick;
            let artifact = Arc::clone(&e.artifact);
            inner.stats.hits += 1;
            return Ok(Lookup::Hit(artifact));
        }
        inner.stats.misses += 1;
        Ok(Lookup::Miss(PendingCompile {
            dtd: Arc::clone(dtd),
            ast,
            key,
        }))
    }

    /// The expensive half: compiles a miss (outside the lock, so misses
    /// on different keys parallelize across threads) and inserts it.
    pub fn compile(&self, pending: PendingCompile) -> Arc<QueryArtifact> {
        self.compile_within(pending, u64::MAX)
            .unwrap_or_else(|_| unreachable!("an unbudgeted compile cannot overrun"))
    }

    /// [`Self::compile`] spending at most `budget` steps (see
    /// [`crate::LOOP_COMPILE_STEPS`]). A
    /// compile that would spend more stops as soon as it has, and
    /// its miss comes back unchanged, to be compiled elsewhere; the
    /// steps it spent count in [`ArtifactCacheStats::compile_steps`]
    /// and the overrun in [`ArtifactCacheStats::lane_compiles`].
    #[allow(clippy::result_large_err)] // the miss itself, moved once on an overrun
    pub fn compile_within(
        &self,
        pending: PendingCompile,
        budget: u64,
    ) -> Result<Arc<QueryArtifact>, PendingCompile> {
        let PendingCompile { dtd, ast, key } = pending;
        let compiled = QueryArtifact::from_ast(&dtd, ast, key.1.clone(), budget);
        let mut inner = self.inner.lock().unwrap();
        let artifact = match compiled {
            Ok(artifact) => artifact,
            Err((ast, steps)) => {
                inner.stats.compile_steps += steps;
                inner.stats.lane_compiles += 1;
                return Err(PendingCompile { dtd, ast, key });
            }
        };
        inner.tick += 1;
        let tick = inner.tick;
        inner.stats.compiles += 1;
        inner.stats.compile_micros += artifact.compile_micros;
        inner.stats.compile_steps += artifact.compile_steps;
        inner.evict_for(self.capacity, &key);
        let entry = Entry {
            artifact: Arc::clone(&artifact),
            last_used: tick,
        };
        inner.insert(key, entry);
        Ok(artifact)
    }

    /// Counters snapshot.
    pub fn stats(&self) -> ArtifactCacheStats {
        self.inner.lock().unwrap().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_dtd::parse_dtd;

    fn dtd() -> Arc<Dtd> {
        Arc::new(
            parse_dtd(
                "<!ELEMENT a (b, c)> <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)>",
                "a",
            )
            .unwrap(),
        )
    }

    #[test]
    fn second_lookup_hits_and_shares_the_arc() {
        let cache = ArtifactCache::new(8);
        let d = dtd();
        let a1 = cache.get_or_compile(&d, "/a/b").unwrap();
        let a2 = cache.get_or_compile(&d, "/a/b").unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.compiles, s.entries), (1, 1, 1, 1));
        assert!(s.resident_bytes > 0);
    }

    #[test]
    fn lookup_counts_once_and_a_miss_carries_its_own_compile() {
        let cache = ArtifactCache::new(8);
        let d = dtd();
        let counts = || {
            let s = cache.stats();
            (s.hits, s.misses, s.compiles)
        };
        let Ok(Lookup::Miss(pending)) = cache.lookup(&d, "/a/b") else {
            panic!("an empty cache cannot hit");
        };
        assert_eq!(counts(), (0, 1, 0));
        let compiled = cache.compile(pending);
        assert_eq!(counts(), (0, 1, 1));
        let Ok(Lookup::Hit(hit)) = cache.lookup(&d, "/a /b") else {
            panic!("the compiled artifact is resident");
        };
        assert!(Arc::ptr_eq(&compiled, &hit));
        assert!(cache.lookup(&d, "///").is_err());
        assert_eq!(counts(), (1, 1, 1));
    }

    #[test]
    fn equivalent_spellings_share_one_artifact() {
        // The normalization satellite, at the cache level: a respelled
        // query must be a *hit*, not a second compile.
        let cache = ArtifactCache::new(8);
        let d = dtd();
        let a1 = cache.get_or_compile(&d, "//b [c]").unwrap();
        let a2 = cache.get_or_compile(&d, "//b[c]").unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(cache.stats().compiles, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = ArtifactCache::new(2);
        let d = dtd();
        cache.get_or_compile(&d, "/a/b").unwrap(); // miss
        cache.get_or_compile(&d, "/a/c").unwrap(); // miss
        cache.get_or_compile(&d, "/a/b").unwrap(); // hit: /a/b is MRU
        cache.get_or_compile(&d, "/a").unwrap(); // miss, evicts /a/c
        cache.get_or_compile(&d, "/a/b").unwrap(); // still a hit
        let s = cache.stats();
        assert_eq!((s.evictions, s.entries), (1, 2));
        cache.get_or_compile(&d, "/a/c").unwrap(); // evicted → miss again
        assert_eq!(cache.stats().misses, 4);
    }

    /// The resident-bytes gauge moves on insert, eviction and
    /// replacement; it must equal a walk over the entries after 96 keys
    /// cycle through 64 slots, one of them compiled twice by two racing
    /// misses (the second insert replaces a resident artifact).
    #[test]
    fn resident_bytes_tracks_every_insert_eviction_and_replacement() {
        let cache = ArtifactCache::new(64);
        let d = dtd();
        let key = |i: usize| format!("/a/b[{}]", i + 1);
        let miss = |q: &str| match cache.lookup(&d, q).unwrap() {
            Lookup::Miss(pending) => pending,
            Lookup::Hit(_) => panic!("{q}: the cold cycle must never hit"),
        };
        let walk = || {
            let inner = cache.inner.lock().unwrap();
            inner
                .map
                .values()
                .map(|e| e.artifact.approx_bytes())
                .sum::<usize>()
        };
        for round in 0..2 {
            for i in 0..96 {
                if (round, i) == (1, 10) {
                    let (first, second) = (miss(&key(i)), miss(&key(i)));
                    cache.compile(second);
                    cache.compile(first);
                } else {
                    cache.compile(miss(&key(i)));
                }
                assert_eq!(
                    cache.stats().resident_bytes,
                    walk(),
                    "round {round}, key {i}"
                );
            }
        }
        let s = cache.stats();
        assert_eq!(s.hits, 0);
        assert_eq!((s.misses, s.compiles, s.entries), (193, 193, 64));
        assert_eq!(s.evictions, 192 - 64);
        assert_eq!(s.resident_bytes, walk());
    }

    #[test]
    fn unparsable_query_is_an_error_not_a_panic() {
        let cache = ArtifactCache::new(2);
        assert!(cache.get_or_compile(&dtd(), "///").is_err());
        assert_eq!(cache.stats().misses, 0);
    }
}
