//! Shared server state: configuration, the DTD registry, the shared
//! artifact cache, metrics, and the shutdown flags.

use crate::metrics::ServerMetrics;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use xproj_dtd::Dtd;
use xproj_engine::{ArtifactCache, DEFAULT_CHUNK_SIZE};

/// Tunables of one server instance. `Default` is the configuration the
/// `xmlpruned` binary starts with.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Executor-lane threads, split across the event loops, for the
    /// jobs nothing bounds (`conn::Job::bounded` is false: DTDs,
    /// analyses, fallback evaluation) and for compiles that overran a
    /// loop's step budget. Bounded work runs on the loops themselves and
    /// never waits for these.
    pub workers: usize,
    /// The read-side deadlines: how long a connection may sit idle
    /// between requests, how long a whole request head may take from
    /// its first byte (absolute), and how long a request body may make
    /// no progress (rolling).
    pub read_timeout: Duration,
    /// How long queued response bytes may make no progress against a
    /// client that is not reading before the connection is closed.
    pub write_timeout: Duration,
    /// Max bytes of a request head (request line + headers) → `431`.
    /// A constant of the binary (16 KiB); a field so tests can shrink it.
    pub max_header_bytes: usize,
    /// Max decoded bytes of a request body → `413`.
    pub max_body_bytes: u64,
    /// The per-connection buffer unit `u` (`--chunk-size`), the one
    /// number residency is a function of: the engine is fed `u` bytes at
    /// a time; pruned output is buffered up to `u` before the response
    /// commits to `200` + chunked streaming (errors detected while still
    /// buffered become structured `4xx` bodies); reads stop at 2·`u`
    /// undecoded or unfed; and once 4·`u` response bytes wait on a slow
    /// client the connection stops feeding the engine, stops reading and
    /// stops starting pipelined requests — TCP pushes back on the
    /// sender. The default is `xmlprune prune`'s read size, so the CLI
    /// and the server exercise identical engine configurations.
    pub chunk_size: usize,
    /// Artifact-cache capacity (entries).
    pub cache_capacity: usize,
    /// How long graceful shutdown waits for in-flight requests.
    pub drain_deadline: Duration,
    /// Event-loop count of the epoll driver (`--reactor-threads`), and
    /// so the engine's parallelism: a loop runs its connections' feeds
    /// itself. Each owns its own epoll instance, timer wheel, executor
    /// lane, and `SO_REUSEPORT`-bound listener; the kernel shards
    /// accepts across them. Defaults to the available cores, capped at 8. The
    /// portable driver (one thread per connection) ignores it.
    pub reactor_threads: usize,
    /// Per-connection token-bucket rate limit as `(requests/second,
    /// burst)` (`--rate-limit rps:burst`). A connection that exhausts
    /// its bucket is answered `429` + `Retry-After` and closed.
    /// `None` (the default) disables the limiter.
    pub rate_limit: Option<(f64, f64)>,
    /// Admission limit: connections past this many are answered `503`
    /// + `Retry-After` and closed.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7144".to_string(),
            workers: 4,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_header_bytes: 16 * 1024,
            max_body_bytes: 1 << 30,
            chunk_size: DEFAULT_CHUNK_SIZE,
            cache_capacity: 64,
            drain_deadline: Duration::from_secs(5),
            reactor_threads: default_reactor_threads(),
            rate_limit: None,
            max_connections: 16 * 1024,
        }
    }
}

/// The default `--reactor-threads`: every available core, capped so a
/// big machine does not spawn dozens of loops for a small service.
pub fn default_reactor_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// How many grammars the registry keeps. Past it a registration evicts
/// the least recently *used* one (registered, or named by a request's
/// `?dtd=`); its id then answers `unknown-dtd` until the client registers
/// the text again, which — ids being content-derived — returns the same id.
pub const DTD_REGISTRY_CAPACITY: usize = 256;

/// The largest `POST /v1/dtd` body (over it: `413`), however large
/// `--max-body-bytes` lets a document be: a grammar is buffered whole and
/// then compiled in time superlinear in its size. 64 KiB is ~19× the
/// largest grammar shipped (`examples/auction.dtd`, 3 405 B).
pub const MAX_DTD_BODY_BYTES: u64 = 64 * 1024;

/// The registered grammars, an LRU on the artifact cache's tick scheme.
#[derive(Default)]
struct DtdRegistry {
    /// id → (grammar, tick of its last use).
    map: HashMap<u64, (Arc<Dtd>, u64)>,
    tick: u64,
}

impl DtdRegistry {
    /// The grammar under `id`, marked used now.
    fn touch(&mut self, id: u64) -> Option<Arc<Dtd>> {
        self.tick += 1;
        let (dtd, last_used) = self.map.get_mut(&id)?;
        *last_used = self.tick;
        Some(Arc::clone(dtd))
    }
}

/// Everything connections, drivers and executor workers share.
pub struct ServerState {
    /// The configuration the server was built with.
    pub config: ServerConfig,
    /// Live metrics, rendered by `GET /metrics`.
    pub metrics: ServerMetrics,
    /// The shared compiled-artifact cache ("analyse once, prune and
    /// query many"): `/v1/prune` and `/v1/query` share its entries.
    pub cache: ArtifactCache,
    /// Admitted connections currently open across *all* event loops —
    /// the `max_connections` admission gate stays a whole-server bound
    /// even with `SO_REUSEPORT` sharding accepts over several loops.
    pub(crate) open_conns: AtomicUsize,
    dtds: Mutex<DtdRegistry>,
    /// Graceful shutdown: stop *starting* requests.
    shutdown: AtomicBool,
    /// Drain deadline passed: stop *continuing* requests.
    hard_abort: AtomicBool,
    local_addr: SocketAddr,
    /// How `trigger_shutdown` wakes the driver out of its blocking
    /// wait (an eventfd wake per event loop, a self-connect for the
    /// portable accept loop). `None` until a driver is serving.
    wake_hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl ServerState {
    /// The shared state of a server bound (or, for a driverless
    /// simulation, notionally bound) to `local_addr`.
    pub fn new(config: ServerConfig, local_addr: SocketAddr) -> Self {
        let cache = ArtifactCache::new(config.cache_capacity);
        ServerState {
            config,
            metrics: ServerMetrics::new(),
            cache,
            open_conns: AtomicUsize::new(0),
            dtds: Mutex::default(),
            shutdown: AtomicBool::new(false),
            hard_abort: AtomicBool::new(false),
            local_addr,
            wake_hook: Mutex::new(None),
        }
    }

    /// Installs the serving driver's wake callback.
    pub(crate) fn set_wake_hook(&self, hook: Box<dyn Fn() + Send + Sync>) {
        *self.wake_hook.lock().unwrap() = Some(hook);
    }

    /// The address the listener is actually bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Registers a DTD, returning `(fingerprint id, name count)`.
    /// Idempotent: the id is content-derived, so re-registering the
    /// same grammar returns the same id. A new grammar past
    /// [`DTD_REGISTRY_CAPACITY`] evicts the least recently used one.
    pub fn register_dtd(&self, dtd: Dtd) -> (u64, usize) {
        let id = dtd.fingerprint();
        let names = dtd.name_count();
        let mut registry = self.dtds.lock().unwrap();
        if registry.touch(id).is_none() {
            if registry.map.len() >= DTD_REGISTRY_CAPACITY {
                // O(n) scan, like the artifact cache's: n is the cap.
                let lru = registry.map.iter().min_by_key(|(_, e)| e.1).map(|(&id, _)| id);
                if let Some(lru) = lru {
                    registry.map.remove(&lru);
                }
            }
            let tick = registry.tick;
            registry.map.insert(id, (Arc::new(dtd), tick));
        }
        (id, names)
    }

    /// Looks up a registered DTD by id; a hit counts as a use.
    pub fn dtd(&self, id: u64) -> Option<Arc<Dtd>> {
        self.dtds.lock().unwrap().touch(id)
    }

    /// Number of registered DTDs.
    pub fn dtd_count(&self) -> usize {
        self.dtds.lock().unwrap().map.len()
    }

    /// Whether graceful shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Requests graceful shutdown: stop accepting, drain in-flight
    /// requests, then return from `serve`. Safe to call from any
    /// thread (and from the `/admin/shutdown` handler); idempotent.
    pub fn trigger_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            if let Some(hook) = self.wake_hook.lock().unwrap().as_ref() {
                hook();
            }
        }
    }

    /// Whether the drain deadline has passed: requests finishing now
    /// were aborted, not drained.
    pub fn is_hard_aborting(&self) -> bool {
        self.hard_abort.load(Ordering::Relaxed)
    }

    pub(crate) fn hard_abort(&self) {
        self.hard_abort.store(true, Ordering::SeqCst);
    }
}
