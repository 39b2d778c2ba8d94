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
//!   and match frames stream back as `application/x-ndjson`. One cache
//!   entry serves both endpoints; nothing is persisted — a restarted
//!   daemon is handed the DTD again and compiles each pair on its
//!   first request (tens of microseconds). Both are one
//!   [`QueryMachine`](xproj_engine::QueryMachine) to the connection —
//!   only its output mode differs — and both honour `fast_forward=0`
//!   (no subtree skipping: the pass becomes a full well-formedness
//!   check);
//! * `GET /metrics` — engine stats aggregated over every document
//!   pruned or queried, cache counters and per-endpoint latency
//!   histograms (JSON, or Prometheus text with `?format=prometheus`;
//!   one table declares every metric for both);
//! * `GET /healthz` — liveness;
//! * `POST /admin/shutdown` — graceful shutdown: stop accepting, drain
//!   in-flight requests up to a deadline, report drained/aborted.
//!
//! The architecture is deliberately in the spirit of the rest of the
//! workspace (`testkit`, `engine`): hand-rolled on `std` only, and in
//! two layers. [`conn::Connection`] is the whole protocol as a pure
//! state machine — head, body, streaming prune/query, response framing,
//! absolute head/idle/write deadlines, per-connection output
//! backpressure, an optional token-bucket rate limit (`429`),
//! header/body limits (`431`/`413`), keep-alive and drain accounting —
//! with no socket, clock or thread inside; engine and protocol errors
//! map to structured `4xx` JSON bodies carrying the stable codes of
//! [`xproj_core::ErrorCode`]. A *driver* feeds it bytes, write
//! progress, timer expiries and job completions, and there are two,
//! chosen by the build target, never by a flag: on Linux the epoll
//! driver (`xproj-reactor`) runs `--reactor-threads` event loops, each
//! with its own `SO_REUSEPORT` listener, timer wheel and executor lane,
//! so a slow or idle client costs a slab slot, not a thread; a loop runs
//! the bounded work (tokenizer feeds, finishes, compiles and fallback
//! evaluations within a step budget) itself, and only what nothing
//! bounds (DTDs, analyses, compiles and evaluations past the budget) goes to the lane and
//! comes back over an eventfd waker; elsewhere a small portable driver runs one blocking thread
//! per connection over the same machine. Both enforce the connection
//! admission limit (`503`).
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

pub mod conn;
#[cfg(target_os = "linux")]
mod epoll;
pub mod handlers;
pub mod http;
pub mod metrics;
mod portable;
pub mod state;
pub mod wire;

pub use metrics::{Endpoint, LatencyHistogram, ServerMetrics};
pub use state::{ServerConfig, ServerState};

use conn::Connection;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
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

impl ShutdownReport {
    fn new(state: &ServerState, aborted: u64) -> ShutdownReport {
        ShutdownReport {
            drained: state.metrics.drained.load(Ordering::Relaxed),
            aborted,
            requests: state.metrics.requests.load(Ordering::Relaxed),
        }
    }
}

/// How long an accept loop backs off after accept fails persistently
/// (fd exhaustion). Retrying on a clock instead of on readiness keeps a
/// level-triggered listener from spinning at 100% CPU while the process
/// is out of descriptors.
const ACCEPT_STALL_BACKOFF: Duration = Duration::from_millis(25);

/// What a failed `accept` means for the loop that called it.
enum AcceptFailure {
    /// The backlog is empty (non-blocking listener): wait for readiness.
    Drained,
    /// This attempt was lost but the listener is fine: accept again.
    Transient,
    /// Persistent failure (counted in `accept_stalls`): leave the
    /// listener alone for [`ACCEPT_STALL_BACKOFF`].
    Stalled,
}

/// The one classification of accept errors, shared by both drivers.
fn classify_accept_error(e: &std::io::Error, state: &ServerState) -> AcceptFailure {
    match e.kind() {
        std::io::ErrorKind::WouldBlock => AcceptFailure::Drained,
        // A signal, or a handshake that died before we got to it
        // (ECONNABORTED): the slot was consumed, keep accepting.
        std::io::ErrorKind::Interrupted | std::io::ErrorKind::ConnectionAborted => {
            AcceptFailure::Transient
        }
        _ => {
            state.metrics.accept_stalls.fetch_add(1, Ordering::Relaxed);
            AcceptFailure::Stalled
        }
    }
}

/// Admission control for a freshly accepted socket: the machine that
/// will serve it, or — past `config.max_connections` live connections,
/// summed across every loop — one that only delivers `503` +
/// `Retry-After: 1` and closes (counted in `admission_rejects`). The
/// flag says whether the connection was admitted, i.e. counted in
/// `open_conns` and to be released by the driver when it ends.
fn admit(state: &ServerState, now: Instant) -> (Connection, bool) {
    if state.open_conns.load(Ordering::Relaxed) >= state.config.max_connections {
        state
            .metrics
            .admission_rejects
            .fetch_add(1, Ordering::Relaxed);
        let reply = http::render_json_error(
            503,
            "overloaded",
            "connection limit reached, retry shortly",
            &[("retry-after", "1")],
        );
        return (Connection::refusing(reply, state, now), false);
    }
    state.metrics.connections.fetch_add(1, Ordering::Relaxed);
    state.open_conns.fetch_add(1, Ordering::Relaxed);
    (Connection::new(state, now), true)
}

/// A bound, not-yet-serving instance of `xmlpruned`.
///
/// On Linux with `reactor_threads > 1` it binds one `SO_REUSEPORT`
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
        Ok(Server { listeners, state })
    }

    /// One plain listener, or — on Linux with more than one event loop
    /// — a group of `SO_REUSEPORT` listeners on the same port. Port 0
    /// resolves once (on the first bind); the rest of the group binds
    /// the resolved port so the whole set shares it.
    fn bind_listeners(config: &ServerConfig) -> std::io::Result<Vec<TcpListener>> {
        #[cfg(target_os = "linux")]
        {
            let n = config.reactor_threads.max(1);
            if n > 1 {
                use std::net::ToSocketAddrs;
                let addr = config.addr.to_socket_addrs()?.next().ok_or_else(|| {
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
    /// The driver is chosen by the build target: the epoll event loops
    /// on Linux, the portable thread-per-connection loop elsewhere.
    /// Both drive the same [`conn::Connection`] machine.
    pub fn serve(self) -> std::io::Result<ShutdownReport> {
        #[cfg(target_os = "linux")]
        return epoll::serve(self.listeners, &self.state);
        #[cfg(not(target_os = "linux"))]
        self.serve_portable()
    }

    /// [`Server::serve`] on the portable driver regardless of target —
    /// how its tests reach it on Linux. It runs one accept loop on one
    /// listener, so bind with `reactor_threads: 1` there: the kernel
    /// deals connections to every member of an `SO_REUSEPORT` group
    /// from the moment it is bound.
    #[doc(hidden)]
    pub fn serve_portable(mut self) -> std::io::Result<ShutdownReport> {
        self.listeners.truncate(1);
        portable::serve(self.listeners.remove(0), &self.state)
    }
}
