//! Shared server state: configuration, the DTD registry, the shared
//! artifact cache, metrics, and the shutdown flags.

use crate::http::ConnFlags;
use crate::metrics::ServerMetrics;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use xproj_dtd::Dtd;
use xproj_engine::{dtd_fingerprint, ArtifactCache, DEFAULT_CHUNK_SIZE};

/// How the server drives its connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// The epoll reactor: one event-loop thread owns every connection
    /// as a state machine; the worker pool only pumps CPU work. The
    /// default on Linux (elsewhere it falls back to `Threaded`).
    #[default]
    Reactor,
    /// The blocking accept loop + fixed worker pool (`--threaded`):
    /// each worker owns one connection at a time. Kept for differential
    /// testing and non-Linux targets.
    Threaded,
}

/// Tunables of one server instance. `Default` is the configuration the
/// `xmlpruned` binary starts with; every field has a CLI flag.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Fixed worker-pool size — also the max concurrent connections.
    pub workers: usize,
    /// Deadline for each blocking read of one connection.
    pub read_timeout: Duration,
    /// Socket write deadline.
    pub write_timeout: Duration,
    /// Max bytes of a request head (request line + headers) → `431`.
    pub max_header_bytes: usize,
    /// Max decoded bytes of a request body → `413`.
    pub max_body_bytes: u64,
    /// Engine feed size — deliberately the same default as `xmlprune
    /// prune --chunked`, so the CLI and the server exercise identical
    /// engine configurations.
    pub chunk_size: usize,
    /// Pruned output is buffered up to this many bytes before the
    /// response commits to `200` + chunked streaming; errors detected
    /// while still buffered become structured `4xx` bodies.
    pub response_buffer_bytes: usize,
    /// Artifact-cache capacity (entries).
    pub cache_capacity: usize,
    /// How long graceful shutdown waits for in-flight requests.
    pub drain_deadline: Duration,
    /// Connection driving strategy (reactor vs blocking pool).
    pub mode: ServeMode,
    /// Reactor-mode event-loop count (`--reactor-threads`). Each loop
    /// owns its own epoll instance, timer wheel, executor lane, and
    /// `SO_REUSEPORT`-bound listener; the kernel shards accepts across
    /// them. Defaults to the available cores, capped at 8. Ignored by
    /// the threaded mode.
    pub reactor_threads: usize,
    /// Per-connection token-bucket rate limit as `(requests/second,
    /// burst)` (`--rate-limit rps:burst`). A connection that exhausts
    /// its bucket is answered `429` + `Retry-After` and closed.
    /// `None` (the default) disables the limiter. Reactor mode only.
    pub rate_limit: Option<(f64, f64)>,
    /// Reactor-mode admission limit: connections past this many are
    /// answered `503` + `Retry-After` and closed. (The threaded mode's
    /// admission limit is implicitly its worker count.)
    pub max_connections: usize,
    /// Reactor-mode per-connection output-buffer cap: once this many
    /// response bytes are waiting on a slow client, the connection
    /// stops feeding the pruner and stops reading — TCP pushes back on
    /// the sender. The residency bound per connection is
    /// O(this + chunk + depth).
    pub out_buffer_cap: usize,
    /// Where compiled query artifacts persist (`--artifact-dir`).
    /// Loaded at bind, saved at graceful shutdown, so a restarted
    /// daemon answers its first repeat request from the cache without
    /// recompiling.
    pub artifact_dir: Option<std::path::PathBuf>,
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
            response_buffer_bytes: DEFAULT_CHUNK_SIZE,
            cache_capacity: 64,
            drain_deadline: Duration::from_secs(5),
            mode: ServeMode::default(),
            reactor_threads: default_reactor_threads(),
            rate_limit: None,
            max_connections: 16 * 1024,
            out_buffer_cap: 256 * 1024,
            artifact_dir: None,
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

/// Everything the worker pool shares.
pub struct ServerState {
    /// The configuration the server was built with.
    pub config: ServerConfig,
    /// Live metrics, rendered by `GET /metrics`.
    pub metrics: ServerMetrics,
    /// The shared compiled-artifact cache ("analyse once, prune and
    /// query many"): `/v1/prune` and `/v1/query` share its entries.
    pub cache: ArtifactCache,
    /// Accepted connections waiting for a free worker. Idle keep-alive
    /// connections watch this and yield their worker when it is
    /// nonzero (see [`crate::http::Conn::yield_to_waiters`]).
    pub(crate) queued: AtomicUsize,
    /// Admitted connections currently open across *all* reactor loops —
    /// the `max_connections` admission gate stays a whole-server bound
    /// even with `SO_REUSEPORT` sharding accepts over several loops.
    pub(crate) open_conns: AtomicUsize,
    dtds: Mutex<HashMap<u64, Arc<Dtd>>>,
    flags: ConnFlags,
    local_addr: SocketAddr,
    /// How `trigger_shutdown` wakes the serve loop. The reactor
    /// installs its eventfd waker here; without a hook the threaded
    /// loop falls back to the self-connect trick that unblocks a
    /// blocking `accept`.
    wake_hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl ServerState {
    pub(crate) fn new(config: ServerConfig, local_addr: SocketAddr) -> Self {
        let cache = ArtifactCache::new(config.cache_capacity);
        ServerState {
            config,
            metrics: ServerMetrics::new(),
            cache,
            queued: AtomicUsize::new(0),
            open_conns: AtomicUsize::new(0),
            dtds: Mutex::new(HashMap::new()),
            flags: ConnFlags::new(),
            local_addr,
            wake_hook: Mutex::new(None),
        }
    }

    /// Installs the serve loop's wake callback (reactor mode only).
    pub(crate) fn set_wake_hook(&self, hook: Box<dyn Fn() + Send + Sync>) {
        *self.wake_hook.lock().unwrap() = Some(hook);
    }

    /// The address the listener is actually bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shutdown/abort flags connections poll.
    pub fn flags(&self) -> &ConnFlags {
        &self.flags
    }

    /// Registers a DTD, returning `(fingerprint id, name count)`.
    /// Idempotent: the id is content-derived, so re-registering the
    /// same grammar returns the same id.
    pub fn register_dtd(&self, dtd: Dtd) -> (u64, usize) {
        let id = dtd_fingerprint(&dtd);
        let names = dtd.name_count();
        self.dtds.lock().unwrap().entry(id).or_insert_with(|| Arc::new(dtd));
        (id, names)
    }

    /// Looks up a registered DTD by id.
    pub fn dtd(&self, id: u64) -> Option<Arc<Dtd>> {
        self.dtds.lock().unwrap().get(&id).cloned()
    }

    /// Number of registered DTDs.
    pub fn dtd_count(&self) -> usize {
        self.dtds.lock().unwrap().len()
    }

    /// Whether graceful shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.flags.shutdown.load(Ordering::Relaxed)
    }

    /// Requests graceful shutdown: stop accepting, drain in-flight
    /// requests, then return from `serve`. Safe to call from any
    /// thread (and from the `/admin/shutdown` handler); idempotent.
    pub fn trigger_shutdown(&self) {
        if !self.flags.shutdown.swap(true, Ordering::SeqCst) {
            if let Some(hook) = self.wake_hook.lock().unwrap().as_ref() {
                hook();
            } else {
                // No waker installed (threaded mode): a throwaway
                // connection to ourselves unblocks the blocking
                // accept immediately.
                let _ = TcpStream::connect(self.local_addr);
            }
        }
    }

    pub(crate) fn hard_abort(&self) {
        self.flags.hard_abort.store(true, Ordering::SeqCst);
    }
}
