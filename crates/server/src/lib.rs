//! **xproj-server** — `xmlpruned`, a zero-dependency HTTP/1.1 daemon
//! that serves type-based XML projection as a streaming service.
//!
//! The paper's pitch is that projection makes XML querying cheap enough
//! to run where memory is scarce; the journal version casts pruning as
//! a drop-in stage in front of any query processor. This crate is that
//! stage as a long-lived service on top of the `xproj-engine`
//! streaming machinery:
//!
//! * `POST /v1/dtd?root=NAME` — register a DTD (body = DTD text),
//!   returns its content-derived fingerprint id;
//! * `POST /v1/prune?dtd=<id>&query=<q>` — prune the request body to
//!   the projector of the (DTD, query) pair's compiled artifact, looked
//!   up in the shared [`ArtifactCache`](xproj_engine::ArtifactCache).
//!   A `Transfer-Encoding: chunked` body is decoded frame-by-frame into
//!   the push tokenizer and the pruned output streams back as a chunked
//!   response, so **document size never enters resident memory**;
//! * `POST /v1/query?dtd=<id>&query=<q>` — prune **and answer** in one
//!   pass: the same artifact's plan runs as a sink under the token loop
//!   and match frames stream back as `application/x-ndjson` (add
//!   `fast_forward=0` to disable subtree skipping). One cache entry
//!   serves both endpoints and persists across restarts with
//!   `--artifact-dir`;
//! * `GET /metrics` — aggregated engine stats, cache counters and
//!   per-endpoint latency histograms (JSON, or Prometheus text with
//!   `?format=prometheus`);
//! * `GET /healthz` — liveness;
//! * `POST /admin/shutdown` — graceful shutdown: stop accepting, drain
//!   in-flight requests up to a deadline, report drained/aborted.
//!
//! The architecture is deliberately in the spirit of the rest of the
//! workspace (`testkit`, `engine`): hand-rolled on `std` only. The
//! default core (Linux) is an epoll **reactor** (`xproj-reactor`):
//! `--reactor-threads` event loops, each with its own `SO_REUSEPORT`
//! listener, timer wheel and executor lane, own every connection as a
//! state machine — head, body, streaming prune/query, write — with
//! absolute head/idle/write deadlines, a connection admission limit
//! (`503`), per-connection output backpressure and an optional
//! token-bucket rate limit (`429`); CPU work (artifact setup, tokenizer
//! feeds) is handed to a small executor pool and comes back over an
//! eventfd waker, so a slow or idle client costs a slab slot, not a
//! thread. The `--threaded` core — a blocking accept loop feeding a
//! fixed scoped-thread worker pool over an `mpsc` channel, one
//! keep-alive connection per worker — is the portable fallback and the
//! differential reference; both build their responses in
//! [`handlers`], which keeps them byte-identical. Header/body limits
//! (`431`/`413`) apply in both, and engine and protocol errors map to
//! structured `4xx` JSON bodies carrying the stable codes of
//! [`xproj_core::ErrorCode`].
//!
//! ```no_run
//! use xproj_server::{Server, ServerConfig};
//!
//! let config = ServerConfig { addr: "127.0.0.1:0".to_string(), ..Default::default() };
//! let server = Server::bind(config).unwrap();
//! println!("listening on {}", server.local_addr());
//! let report = server.serve().unwrap(); // blocks until shutdown
//! println!("drained {} in-flight requests", report.drained);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod handlers;
pub mod http;
pub mod metrics;
#[cfg(target_os = "linux")]
mod reactor_serve;
pub mod state;
pub mod wire;

pub use metrics::{Endpoint, LatencyHistogram, ServerMetrics};
pub use state::{ServeMode, ServerConfig, ServerState};

use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// What graceful shutdown left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Requests that completed after shutdown was requested.
    pub drained: u64,
    /// Requests still in flight when the drain deadline expired (their
    /// connections were aborted).
    pub aborted: u64,
    /// Requests served over the server's lifetime.
    pub requests: u64,
}

/// A bound, not-yet-serving instance of `xmlpruned`.
///
/// Reactor mode with `reactor_threads > 1` binds one `SO_REUSEPORT`
/// listener per event loop so the kernel shards accepts across them;
/// every other configuration holds a single plain listener.
pub struct Server {
    listeners: Vec<TcpListener>,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener(s) and builds the shared state. The server
    /// does not accept connections until [`Server::serve`] runs.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listeners = Self::bind_listeners(&config)?;
        let local_addr = listeners[0].local_addr()?;
        let state = Arc::new(ServerState::new(config, local_addr));
        // Warm restart: previously-saved compiled artifacts come back
        // resident before the first request, so a repeat (DTD, query)
        // is a cache hit with no compile. A missing dir loads nothing.
        if let Some(dir) = state.config.artifact_dir.clone() {
            state.cache.load_dir(&dir)?;
        }
        Ok(Server { listeners, state })
    }

    /// One plain listener, or — reactor mode on Linux with more than
    /// one loop — a group of `SO_REUSEPORT` listeners on the same port.
    /// Port 0 resolves once (on the first bind); the rest of the group
    /// binds the resolved port so the whole set shares it.
    fn bind_listeners(config: &ServerConfig) -> std::io::Result<Vec<TcpListener>> {
        #[cfg(target_os = "linux")]
        {
            let n = config.reactor_threads.max(1);
            if config.mode == ServeMode::Reactor && n > 1 {
                use std::net::ToSocketAddrs;
                let addr = config
                    .addr
                    .to_socket_addrs()?
                    .next()
                    .ok_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            "bind address resolved to nothing",
                        )
                    })?;
                let first = xproj_reactor::bind_reuseport(addr)?;
                let resolved = first.local_addr()?;
                let mut listeners = vec![first];
                for _ in 1..n {
                    listeners.push(xproj_reactor::bind_reuseport(resolved)?);
                }
                return Ok(listeners);
            }
        }
        Ok(vec![TcpListener::bind(&config.addr)?])
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.state.local_addr()
    }

    /// A handle to the shared state (metrics inspection, programmatic
    /// [`ServerState::trigger_shutdown`]).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Runs the server until shutdown, then drains and reports. Blocks
    /// the calling thread.
    ///
    /// Dispatches on [`ServerConfig::mode`]: the default
    /// [`ServeMode::Reactor`] runs the epoll event loop (one thread
    /// owns every connection as a state machine; the worker pool only
    /// executes CPU work), while [`ServeMode::Threaded`] runs the
    /// blocking accept loop + worker pool. On non-Linux targets the
    /// reactor is unavailable and both modes take the threaded path.
    pub fn serve(self) -> std::io::Result<ShutdownReport> {
        let state = self.state();
        let report = match self.state.config.mode {
            #[cfg(target_os = "linux")]
            ServeMode::Reactor => {
                let Server { listeners, state } = self;
                reactor_serve::serve(listeners, &state)
            }
            #[cfg(not(target_os = "linux"))]
            ServeMode::Reactor => self.serve_threaded(),
            ServeMode::Threaded => self.serve_threaded(),
        }?;
        // Persist the artifact cache for the next boot (best effort:
        // a failed save must not turn a clean shutdown into an error).
        if let Some(dir) = state.config.artifact_dir.as_ref() {
            let _ = state.cache.save_dir(dir);
        }
        Ok(report)
    }

    /// The blocking accept loop + fixed worker pool (`--threaded`).
    ///
    /// The pool is `config.workers` scoped threads consuming accepted
    /// connections from a channel (the same zero-dependency
    /// scoped-thread pattern as `xproj_engine::parallel_map`, extended
    /// with a work queue because connections arrive over time). On
    /// shutdown: the acceptor stops, the channel closes, each worker
    /// finishes its in-flight request (counted *drained*); when the
    /// drain deadline passes, remaining requests are counted *aborted*
    /// and their connections torn down via the hard-abort flag.
    fn serve_threaded(self) -> std::io::Result<ShutdownReport> {
        let Server { mut listeners, state } = self;
        let listener = listeners.remove(0);
        drop(listeners); // threaded mode drives a single listener
        let (tx, rx) = mpsc::channel::<std::net::TcpStream>();
        let rx = Mutex::new(rx);
        let aborted = std::thread::scope(|scope| {
            for _ in 0..state.config.workers.max(1) {
                let rx = &rx;
                let state = &state;
                scope.spawn(move || loop {
                    // The guard drops at the end of this statement, so
                    // the lock is released as soon as recv returns.
                    let stream = rx.lock().unwrap().recv();
                    match stream {
                        Ok(s) => {
                            state.queued.fetch_sub(1, Ordering::Relaxed);
                            handlers::serve_connection(s, state);
                        }
                        Err(_) => break,
                    }
                });
            }
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if state.is_shutting_down() {
                            break; // the wake-up connection (or a racer)
                        }
                        state.metrics.connections.fetch_add(1, Ordering::Relaxed);
                        let _ = stream.set_nodelay(true);
                        state.queued.fetch_add(1, Ordering::Relaxed);
                        if tx.send(stream).is_err() {
                            state.queued.fetch_sub(1, Ordering::Relaxed);
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                        if state.is_shutting_down() {
                            break;
                        }
                    }
                    Err(_) => {
                        // Persistent accept errors (fd exhaustion,
                        // typically) are survivable: back off and retry
                        // instead of permanently killing the listener.
                        if state.is_shutting_down() {
                            break;
                        }
                        state.metrics.accept_stalls.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(25));
                    }
                }
            }
            // Close the queue: workers finish queued + in-flight work.
            drop(tx);
            let deadline = Instant::now() + state.config.drain_deadline;
            while state.metrics.in_flight.load(Ordering::Relaxed) > 0
                && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            let aborted = state.metrics.in_flight.load(Ordering::Relaxed) as u64;
            state
                .metrics
                .aborted
                .fetch_add(aborted, Ordering::Relaxed);
            // Past the deadline: force laggards' reads to fail so the
            // scope's joins stay bounded by one poll interval.
            state.hard_abort();
            aborted
        });
        Ok(ShutdownReport {
            drained: state.metrics.drained.load(Ordering::Relaxed),
            aborted,
            requests: state.metrics.requests.load(Ordering::Relaxed),
        })
    }
}
