//! The epoll reactor serve loop: every connection is an explicit state
//! machine owned by one event-loop thread, and the worker pool is
//! demoted to a CPU-work executor.
//!
//! ## Shape
//!
//! [`serve`] spawns `config.reactor_threads` independent event loops.
//! Each loop owns an [`xproj_reactor::Reactor`] (epoll + eventfd
//! waker), a [`TimerWheel`] for every connection deadline, a slab of
//! [`Conn`] state machines, its own `SO_REUSEPORT`-bound listener (the
//! kernel shards accepts across the loops — no shared accept lock),
//! and its own executor lane: scoped threads that pull [`Job`]s
//! (projector setup, DTD parses, analyzer runs, pruner feeds) off a
//! bounded channel, run them, and push [`Done`] completions back
//! through a queue + waker. A loop never blocks on anything but
//! `epoll_wait`. Everything cross-cutting — caches, the DTD registry,
//! metrics, the admission count — lives behind the shared
//! [`ServerState`]; `/admin/shutdown` fans out to every loop's waker.
//!
//! Response bytes are queued as a *frame list* ([`OutQueue`]) and
//! written with gathered `writev`, so a multi-frame x-ndjson response
//! is handed to the kernel without first being copied into one
//! contiguous buffer.
//!
//! ## A connection's life
//!
//! ```text
//! accept → Head ── route ──→ Body (buffered endpoints) → executor → reply
//!                 └─ prune ─→ Setup → Prune { decode → feed jobs → frames } ─┐
//!            ▲                                                              │
//!            └── keep-alive (pipelined bytes already in `in_buf`) ←─────────┘
//! ```
//!
//! ## Backpressure (first-class, not emergent)
//!
//! * **Decoded input**: a prune connection stops *reading* once
//!   `pending_in` (decoded-but-unfed body bytes) reaches 2× the engine
//!   chunk size. Wire bytes then queue in the kernel socket buffer,
//!   where TCP flow control pushes back on the sender.
//! * **Response output**: once the out queue holds `config.out_buffer_cap`
//!   bytes for a client that is not reading, the connection stops
//!   dispatching pruner feeds *and* stops reading. Per-connection
//!   residency is therefore O(out_buffer_cap + chunk + depth),
//!   independent of document size and client behavior.
//! * **Admission**: past `config.max_connections` live connections
//!   (summed across every reactor loop), an accepted socket gets `503`
//!   with `Retry-After: 1` and is closed after the reply flushes
//!   (counted in `admission_rejects`).
//! * **Rate limiting**: with `--rate-limit rps:burst`, each connection
//!   carries a token bucket refilled at `rps`; a request arriving to an
//!   empty bucket is answered `429` + `Retry-After` and the connection
//!   closes (counted in `rate_limited`).
//!
//! ## Deadlines
//!
//! Each connection carries exactly one live deadline — idle keep-alive,
//! absolute head (slowloris: the *whole* head must arrive within
//! `read_timeout`), rolling body, or write-stall — armed on the shared
//! timer wheel. Cancellation is a generation bump; a wheel entry whose
//! authoritative deadline moved re-arms itself lazily when it fires.

use crate::handlers::{
    analyze_reply, artifact_setup, codes, dtd_reply, fast_forward_param, independence_reply,
    metrics_reply,
    reply_for_engine_error, reply_for_http_error, reply_for_query_error, route_endpoint, Reply,
    HEALTHZ_BODY, SHUTDOWN_BODY,
};
use crate::http::{
    body_kind, buffered_prune_head, render_json_error, render_json_error_with, render_response,
    streaming_prune_head, BodyKind, RequestHead,
};
use crate::metrics::Endpoint;
use crate::state::ServerState;
use crate::wire::{parse_head, BodyDecoder};
use crate::ShutdownReport;
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xproj_engine::{
    EngineError, EngineStats, PruneSession, QueryArtifact, QueryError, QueryMachine, QueryOutput,
};
use xproj_reactor::{Event, Interest, Mode, Reactor, TimerEntry, TimerWheel, Token, DEFAULT_TICK};

/// The listener's reactor token (`u64::MAX` is the reactor's waker).
const LISTENER_TOKEN: u64 = u64::MAX - 1;
/// Timer-wheel slots: 512 × 25 ms ≈ 12.8 s per revolution, covering the
/// default 10 s read deadline without wrapping.
const WHEEL_SLOTS: usize = 512;
/// Per-readable-event read budget, so one firehose connection cannot
/// starve the rest of the loop (level-triggered epoll re-delivers).
const READ_BUDGET: usize = 64 * 1024;
/// Gather slices handed to one `writev` call (well under IOV_MAX).
const MAX_WRITE_IOV: usize = 64;
/// How long a loop parks its listener after accept fails persistently
/// (fd exhaustion). Retrying on a clock instead of on readiness keeps a
/// level-triggered listener from spinning the loop at 100% CPU while
/// the process is out of descriptors.
const ACCEPT_STALL_BACKOFF: Duration = Duration::from_millis(25);

/// A connection's queued response bytes as a list of owned frames,
/// flushed with gathered `writev`. Frames are queued by *move* — a
/// rendered response, a chunk frame, a streamed x-ndjson batch — so
/// nothing is copied into a contiguous staging buffer first.
#[derive(Default)]
struct OutQueue {
    frames: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already on the wire.
    head_pos: usize,
    /// Unwritten bytes across all frames (cached).
    len: usize,
}

impl OutQueue {
    fn new() -> OutQueue {
        OutQueue::default()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues one frame, taking ownership (empty frames are dropped).
    fn push(&mut self, frame: Vec<u8>) {
        if frame.is_empty() {
            return;
        }
        self.len += frame.len();
        self.frames.push_back(frame);
    }

    /// Fills `iov` with up to `iov.len()` gather slices starting at the
    /// unwritten front; returns how many were filled.
    fn gather<'a>(&'a self, iov: &mut [IoSlice<'a>]) -> usize {
        let mut n = 0;
        for (i, frame) in self.frames.iter().enumerate() {
            if n >= iov.len() {
                break;
            }
            let slice = if i == 0 { &frame[self.head_pos..] } else { &frame[..] };
            iov[n] = IoSlice::new(slice);
            n += 1;
        }
        n
    }

    /// Accounts `written` bytes as flushed, dropping completed frames.
    fn consume(&mut self, written: usize) {
        debug_assert!(written <= self.len);
        self.len -= written;
        let mut left = written;
        while left > 0 {
            let front = self.frames.front().expect("consume past queue end");
            let rem = front.len() - self.head_pos;
            if left >= rem {
                left -= rem;
                self.head_pos = 0;
                self.frames.pop_front();
            } else {
                self.head_pos += left;
                left = 0;
            }
        }
    }
}

/// What a connection's single live deadline means when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeadlineKind {
    /// Idle between keep-alive requests: close silently.
    Idle,
    /// Absolute whole-head deadline (slowloris): `408` and close.
    Head,
    /// Rolling body-read deadline: `408` (or just close once response
    /// headers are on the wire).
    Body,
    /// Output is queued but the client is not reading: close.
    Write,
}

/// The response framing of an in-progress prune, mirroring
/// [`crate::http::StreamingBody`]: buffer until the threshold, then
/// commit to `200` + chunked.
enum RespFraming {
    Buffering(Vec<u8>),
    Streaming,
}

/// The engine driving a streaming request: a prune session emitting
/// pruned XML bytes, or a query machine emitting x-ndjson match
/// frames. Same push interface, so the whole streaming phase —
/// decode, feed jobs, framing, backpressure — is shared.
enum StreamSession {
    Prune(Box<PruneSession>),
    Query(Box<QueryMachine>),
}

/// A streaming engine failure, tagged by which engine raised it.
enum StreamError {
    Prune(EngineError),
    Query(QueryError),
}

impl StreamSession {
    fn feed(&mut self, chunk: &[u8]) -> Result<(), StreamError> {
        match self {
            StreamSession::Prune(s) => s.feed(chunk).map_err(StreamError::Prune),
            StreamSession::Query(m) => m.feed(chunk).map_err(StreamError::Query),
        }
    }

    /// Finishes the stream; engine stats only exist on the prune side
    /// (the query path reports through the cache + latency metrics).
    fn finish(&mut self) -> Result<Option<EngineStats>, StreamError> {
        match self {
            StreamSession::Prune(s) => s.finish().map(Some).map_err(StreamError::Prune),
            StreamSession::Query(m) => m.finish().map(|_| None).map_err(StreamError::Query),
        }
    }

    fn take_output(&mut self, dst: &mut Vec<u8>) {
        match self {
            StreamSession::Prune(s) => s.take_output(dst),
            StreamSession::Query(m) => m.take_output(dst),
        }
    }

    fn resident_bytes(&self) -> usize {
        match self {
            StreamSession::Prune(s) => s.resident_bytes(),
            StreamSession::Query(m) => m.resident_bytes(),
        }
    }

    fn content_type(&self) -> &'static str {
        match self {
            StreamSession::Prune(_) => "application/xml",
            StreamSession::Query(_) => "application/x-ndjson",
        }
    }
}

/// An in-progress `POST /v1/prune` or `POST /v1/query`.
struct PruneState {
    /// The owned engine session; `None` while a feed job is on the
    /// executor (or after a worker panic destroyed it).
    session: Option<StreamSession>,
    /// Response `content-type` (fixed by the session flavor; kept here
    /// because the session is absent while a job is out).
    content_type: &'static str,
    decoder: BodyDecoder,
    /// Decoded body bytes not yet fed to the engine.
    pending_in: Vec<u8>,
    /// All wire input for the body has been decoded.
    body_done: bool,
    /// A feed/finish job is in flight on the executor.
    job_out: bool,
    /// The finish job has been dispatched.
    finishing: bool,
    resp: RespFraming,
    keep_alive: bool,
}

impl PruneState {
    fn headers_sent(&self) -> bool {
        matches!(self.resp, RespFraming::Streaming)
    }
}

/// Where a connection is in its request/response cycle.
enum Phase {
    /// Collecting a request head into `in_buf`.
    Head,
    /// Collecting a complete (bounded) body for a buffered endpoint.
    Body {
        head: RequestHead,
        endpoint: Endpoint,
        decoder: BodyDecoder,
        body: Vec<u8>,
        /// The body is drained and discarded (healthz/metrics/shutdown).
        discard: bool,
    },
    /// A reply-building job (DTD parse, analyzer run) is on the
    /// executor. `client_keep` is the request's `head.keep_alive()`;
    /// `unless_shutdown` folds `!is_shutting_down()` in at reply time
    /// (per-endpoint parity with the blocking handlers).
    Waiting {
        client_keep: bool,
        unless_shutdown: bool,
    },
    /// `POST /v1/prune` projector setup is on the executor.
    Setup,
    /// Streaming a prune: decode → feed jobs → response frames.
    Prune(Box<PruneState>),
    /// Response queued; flush the out queue, then close.
    Closing,
}

/// One reactor-owned connection.
struct Conn {
    stream: TcpStream,
    phase: Phase,
    /// Raw wire bytes read but not yet consumed (`in_pos` is the
    /// consumed prefix; pipelined requests simply stay here).
    in_buf: Vec<u8>,
    in_pos: usize,
    /// Serialized response frames not yet written (gathered `writev`).
    out: OutQueue,
    /// Interest currently registered with epoll.
    registered: Interest,
    /// Counted in the server-wide `open_conns` admission gauge (false
    /// for sockets only held open to flush a `503` reject).
    admitted: bool,
    /// Token-bucket level for `--rate-limit` (unused when disabled).
    rl_tokens: f64,
    /// When the bucket was last refilled.
    rl_last: Instant,
    /// The peer sent EOF (half-close): no more request bytes will
    /// arrive, but responses may still flush.
    peer_eof: bool,
    /// A request is in flight (counted in `metrics.in_flight`).
    active: bool,
    /// Endpoint + start time of the in-flight request, for latency.
    timing: Option<(Endpoint, Instant)>,
    /// The authoritative deadline; the wheel entry re-arms lazily.
    deadline: Instant,
    deadline_kind: DeadlineKind,
    /// Live timer generation; bumping it cancels the wheel entry.
    timer_gen: u64,
    /// When the live wheel entry (if any) will fire.
    timer_armed_at: Option<Instant>,
    /// Fixed whole-head deadline of the request being parsed.
    head_deadline: Option<Instant>,
}

/// CPU work shipped to the executor pool.
enum Job {
    Dtd {
        token: u64,
        head: RequestHead,
        body: Vec<u8>,
    },
    Analyze {
        token: u64,
        head: RequestHead,
        body: Vec<u8>,
    },
    /// Run the independence checker (parameters only; body is drained).
    Independence { token: u64, head: RequestHead },
    /// Resolve the compiled artifact for a prune or a query (cache
    /// misses compile).
    Setup { token: u64, head: RequestHead },
    /// Feed decoded body bytes to (and optionally finish) a session.
    Prune {
        token: u64,
        session: StreamSession,
        input: Vec<u8>,
        finish: bool,
        chunk: usize,
    },
}

fn job_token(job: &Job) -> u64 {
    match job {
        Job::Dtd { token, .. }
        | Job::Analyze { token, .. }
        | Job::Independence { token, .. }
        | Job::Setup { token, .. }
        | Job::Prune { token, .. } => *token,
    }
}

/// Why a streaming feed/finish job failed.
enum PruneFail {
    Engine(StreamError),
    /// The worker panicked; the session is gone.
    Panic,
}

/// Executor completions, drained by the loop on waker events.
enum Done {
    Reply {
        token: u64,
        reply: Reply,
    },
    Setup {
        token: u64,
        head: RequestHead,
        result: Result<Arc<QueryArtifact>, Reply>,
    },
    Prune {
        token: u64,
        session: Option<StreamSession>,
        result: Result<Option<EngineStats>, PruneFail>,
    },
}

impl Reply {
    /// The reply a handler panic maps to — identical to the blocking
    /// mode's `catch_unwind` response.
    fn internal_error() -> Reply {
        Reply::Err {
            status: 500,
            code: "internal".to_string(),
            message: "internal error while handling the request".to_string(),
        }
    }
}

/// Runs one job on a worker thread.
fn run_job(job: Job, state: &ServerState) -> Done {
    match job {
        Job::Dtd { token, head, body } => {
            let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dtd_reply(state, &head, &body)
            }))
            .unwrap_or_else(|_| Reply::internal_error());
            Done::Reply { token, reply }
        }
        Job::Analyze { token, head, body } => {
            let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                analyze_reply(state, &head, &body)
            }))
            .unwrap_or_else(|_| Reply::internal_error());
            Done::Reply { token, reply }
        }
        Job::Independence { token, head } => {
            let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                independence_reply(state, &head)
            }))
            .unwrap_or_else(|_| Reply::internal_error());
            Done::Reply { token, reply }
        }
        Job::Setup { token, head } => {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                artifact_setup(state, &head)
            }))
            .unwrap_or_else(|_| Err(Reply::internal_error()));
            Done::Setup { token, head, result }
        }
        Job::Prune {
            token,
            session,
            input,
            finish,
            chunk,
        } => {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let mut session = session;
                // Feed in engine-chunk-size slices: the engine's memory
                // bound is stated per feed call, and the blocking mode
                // reads the body in exactly these units.
                for piece in input.chunks(chunk.max(1)) {
                    if let Err(e) = session.feed(piece) {
                        return (Some(session), Err(PruneFail::Engine(e)));
                    }
                }
                if finish {
                    match session.finish() {
                        Ok(stats) => (Some(session), Ok(stats)),
                        Err(e) => (Some(session), Err(PruneFail::Engine(e))),
                    }
                } else {
                    (Some(session), Ok(None))
                }
            }));
            let (session, result) = match outcome {
                Ok(pair) => pair,
                Err(_) => (None, Err(PruneFail::Panic)),
            };
            Done::Prune {
                token,
                session,
                result,
            }
        }
    }
}

/// A slab of connections addressed by `(generation << 32) | index`
/// tokens, so a recycled slot never receives a stale event or timer.
struct Slab {
    entries: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            entries: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, conn: Conn) -> u64 {
        let idx = match self.free.pop() {
            Some(i) => i as usize,
            None => {
                self.entries.push(None);
                self.gens.push(0);
                self.entries.len() - 1
            }
        };
        self.entries[idx] = Some(conn);
        ((self.gens[idx] as u64) << 32) | idx as u64
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut Conn> {
        let idx = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        if idx >= self.entries.len() || self.gens[idx] != gen {
            return None;
        }
        self.entries[idx].as_mut()
    }

    fn remove(&mut self, token: u64) -> Option<Conn> {
        let idx = (token & 0xffff_ffff) as usize;
        let gen = (token >> 32) as u32;
        if idx >= self.entries.len() || self.gens[idx] != gen {
            return None;
        }
        let conn = self.entries[idx].take();
        if conn.is_some() {
            self.gens[idx] = self.gens[idx].wrapping_add(1);
            self.free.push(idx as u32);
        }
        conn
    }

    fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    fn tokens(&self) -> Vec<u64> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_some())
            .map(|(i, _)| ((self.gens[i] as u64) << 32) | i as u64)
            .collect()
    }
}

/// Everything the event loop threads through its helpers.
struct EventLoop<'s> {
    state: &'s ServerState,
    reactor: Reactor,
    wheel: TimerWheel,
    conns: Slab,
    jobs_tx: mpsc::SyncSender<Job>,
    /// Jobs that did not fit in the bounded channel; retried as
    /// completions free worker slots.
    overflow: VecDeque<Job>,
}

impl EventLoop<'_> {
    /// Hands a job to the executor (or queues it when the channel is
    /// full — the owning connection is already marked busy, so per-
    /// connection ordering is preserved).
    fn dispatch(&mut self, job: Job) {
        self.state.metrics.executor_jobs.fetch_add(1, Ordering::Relaxed);
        self.state
            .metrics
            .executor_queue_depth
            .fetch_add(1, Ordering::Relaxed);
        match self.jobs_tx.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(job)) => self.overflow.push_back(job),
            Err(TrySendError::Disconnected(job)) => {
                // Workers gone (teardown): fail the owning connection
                // rather than hang it.
                let token = job_token(&job);
                self.state
                    .metrics
                    .executor_queue_depth
                    .fetch_sub(1, Ordering::Relaxed);
                self.close(token);
            }
        }
    }

    fn pump_overflow(&mut self) {
        while let Some(job) = self.overflow.pop_front() {
            match self.jobs_tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(job)) => {
                    self.overflow.push_front(job);
                    return;
                }
                Err(TrySendError::Disconnected(job)) => {
                    let token = job_token(&job);
                    self.state
                        .metrics
                        .executor_queue_depth
                        .fetch_sub(1, Ordering::Relaxed);
                    self.close(token);
                }
            }
        }
    }

    /// Sets the connection's single deadline. A live wheel entry that
    /// fires *earlier* is kept (it re-arms lazily when it fires); one
    /// that would fire later is superseded by a fresh entry.
    fn set_deadline(&mut self, token: u64, kind: DeadlineKind, deadline: Instant) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        conn.deadline = deadline;
        conn.deadline_kind = kind;
        let needs_arm = match conn.timer_armed_at {
            None => true,
            Some(at) => at > deadline,
        };
        if needs_arm {
            conn.timer_gen += 1;
            conn.timer_armed_at = Some(deadline);
            self.wheel.arm(deadline, token, conn.timer_gen);
        }
    }

    /// Recomputes which deadline a connection should carry from its
    /// phase and buffers. Called after every state change.
    fn refresh_deadline(&mut self, token: u64, now: Instant) {
        let read_t = self.state.config.read_timeout;
        let write_t = self.state.config.write_timeout;
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let (kind, deadline) = if !conn.out.is_empty() {
            // Queued output for a (possibly) unreading client: the
            // write-stall clock dominates; re-armed on write progress.
            (DeadlineKind::Write, now + write_t)
        } else {
            match &conn.phase {
                Phase::Head => {
                    if conn.in_pos < conn.in_buf.len() {
                        // Mid-head: the absolute whole-head deadline.
                        let d = *conn.head_deadline.get_or_insert(now + read_t);
                        (DeadlineKind::Head, d)
                    } else {
                        (DeadlineKind::Idle, now + read_t)
                    }
                }
                Phase::Closing => (DeadlineKind::Write, now + write_t),
                // Mid-request: rolling read deadline, refreshed on
                // every input event.
                _ => (DeadlineKind::Body, now + read_t),
            }
        };
        self.set_deadline(token, kind, deadline);
    }

    /// Updates epoll interest to what the connection currently wants.
    fn refresh_interest(&mut self, token: u64) {
        let out_cap = self.state.config.out_buffer_cap.max(1);
        let high_water = self.state.config.chunk_size.max(1) * 2;
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let out_len = conn.out.len();
        let backlog = conn.in_buf.len() - conn.in_pos;
        let readable = !conn.peer_eof
            && match &conn.phase {
                Phase::Closing => false,
                // The executor owns the request: anything more the
                // client sends can wait in the kernel buffer.
                Phase::Waiting { .. } | Phase::Setup => false,
                // A prune drains `in_buf` only as fast as the engine
                // keeps up, so the undecoded backlog must gate reads
                // too — otherwise a fast sender turns `in_buf` into an
                // unbounded staging area while jobs lag.
                Phase::Prune(p) => {
                    !p.body_done
                        && p.pending_in.len() < high_water
                        && backlog < high_water
                        && out_len < out_cap
                }
                Phase::Head | Phase::Body { .. } => out_len < out_cap,
            };
        let want = Interest {
            readable,
            writable: out_len > 0,
        };
        if want != conn.registered {
            let fd = conn.stream.as_raw_fd();
            conn.registered = want;
            let _ = self.reactor.modify(fd, Token(token), want, Mode::Level);
        }
    }

    /// Tears a connection down: deregister, cancel its timer, account
    /// for an abandoned in-flight request.
    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(token) {
            let _ = self.reactor.deregister(conn.stream.as_raw_fd());
            if conn.admitted {
                self.state.open_conns.fetch_sub(1, Ordering::Relaxed);
            }
            if conn.active {
                self.state.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Queues one response frame (interim responses like `100 Continue`,
    /// streamed chunk batches) and pushes it toward the socket.
    fn push_out(&mut self, token: u64, frame: Vec<u8>, now: Instant) {
        if let Some(conn) = self.conns.get_mut(token) {
            conn.out.push(frame);
        }
        self.try_write(token, now);
    }

    /// Writes as much queued output as the socket accepts, gathering
    /// the frame list into `writev` calls.
    fn try_write(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let fd = conn.stream.as_raw_fd();
        let mut progressed = false;
        let mut dead = false;
        while !conn.out.is_empty() {
            let res = {
                let mut iov = [IoSlice::new(&[]); MAX_WRITE_IOV];
                let n = conn.out.gather(&mut iov);
                xproj_reactor::writev(fd, &iov[..n])
            };
            match res {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    conn.out.consume(n);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        let flushed = conn.out.is_empty();
        let closing = matches!(conn.phase, Phase::Closing);
        if dead || (flushed && closing) {
            self.close(token);
            return;
        }
        if progressed || flushed {
            self.refresh_deadline(token, now);
            // Draining output is what unpauses an engine-side stall:
            // when the out queue was at cap the prune pipeline stopped
            // dispatching (and the backlog gate may have stopped
            // reads), so this write event is the only signal that can
            // restart it.
            if self
                .conns
                .get_mut(token)
                .is_some_and(|c| matches!(c.phase, Phase::Prune(_)))
            {
                self.pump_prune(token, now);
                return; // pump_prune settles interest and deadline
            }
        }
        self.refresh_interest(token);
    }

    /// Marks the in-flight request complete (response fully queued):
    /// latency, drained-under-shutdown accounting, and the transition
    /// to the next request or to `Closing`.
    fn complete_request(&mut self, token: u64, conn_keep: bool, now: Instant) {
        let shutting = self.state.is_shutting_down();
        let hard = self.state.flags().hard_abort.load(Ordering::Relaxed);
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        if let Some((endpoint, t0)) = conn.timing.take() {
            self.state.metrics.record_latency(endpoint, t0.elapsed());
        }
        let was_request = conn.active;
        if conn.active {
            conn.active = false;
            self.state.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        }
        // Only genuine requests count as drained (head-parse errors
        // during shutdown do not — parity with the blocking loop).
        if was_request && shutting && !hard {
            self.state.metrics.drained.fetch_add(1, Ordering::Relaxed);
        }
        if conn_keep && !shutting {
            conn.phase = Phase::Head;
            conn.head_deadline = None;
            self.refresh_deadline(token, now);
            self.refresh_interest(token);
            // Pipelined bytes may already be buffered: pump them now.
            self.advance_conn(token, now);
        } else {
            conn.phase = Phase::Closing;
            self.try_write(token, now);
            if let Some(c) = self.conns.get_mut(token) {
                if c.out.is_empty() {
                    self.close(token);
                } else {
                    self.refresh_deadline(token, now);
                    self.refresh_interest(token);
                }
            }
        }
    }

    /// Serializes a decided [`Reply`] into the output buffer and
    /// completes the request. Error replies always close (and count),
    /// like the blocking mode.
    fn send_reply(&mut self, token: u64, reply: Reply, header_keep: bool, now: Instant) {
        let (bytes, conn_keep) = match reply {
            Reply::Ok {
                status,
                content_type,
                body,
            } => (
                render_response(status, content_type, body.as_bytes(), header_keep),
                header_keep,
            ),
            Reply::Err {
                status,
                code,
                message,
            } => {
                self.state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                (render_json_error(status, &code, &message), false)
            }
        };
        if let Some(conn) = self.conns.get_mut(token) {
            conn.out.push(bytes);
        }
        self.complete_request(token, conn_keep, now);
        self.try_write(token, now);
    }

    /// Answers a request that exhausted its connection's token bucket:
    /// `429` + `Retry-After` through the normal out-queue path, then
    /// close-after-write (error replies never keep alive).
    fn rate_limit_reject(&mut self, token: u64, retry_after: &str, now: Instant) {
        self.state.metrics.rate_limited.fetch_add(1, Ordering::Relaxed);
        self.state.metrics.errors.fetch_add(1, Ordering::Relaxed);
        let bytes = render_json_error_with(
            429,
            codes::RATE_LIMITED,
            "per-connection rate limit exceeded, slow down",
            &[("retry-after", retry_after)],
        );
        if let Some(conn) = self.conns.get_mut(token) {
            conn.out.push(bytes);
        }
        self.complete_request(token, false, now);
        self.try_write(token, now);
    }

    /// Closes mid-request without a response (I/O failure path); the
    /// blocking mode counts these as errors too.
    fn fail_silently(&mut self, token: u64) {
        self.state.metrics.errors.fetch_add(1, Ordering::Relaxed);
        self.close(token);
    }

    /// The `400 connection closed mid-request` the blocking mode's
    /// `fill` produces on a mid-request EOF.
    fn peer_eof_mid_request(&mut self, token: u64, now: Instant) {
        let reply = Reply::Err {
            status: 400,
            code: codes::BAD_REQUEST.to_string(),
            message: "connection closed mid-request".to_string(),
        };
        self.send_reply(token, reply, false, now);
    }

    /// A connection between requests with nothing buffered either way.
    fn is_idle(&mut self, token: u64) -> bool {
        self.conns.get_mut(token).is_some_and(|c| {
            matches!(c.phase, Phase::Head)
                && !c.active
                && c.in_pos >= c.in_buf.len()
                && c.out.is_empty()
        })
    }

    /// Reads newly-arrived wire bytes, up to the per-event budget.
    /// Returns `Ok(true)` on EOF, `Err(())` on a socket error.
    fn read_some(&mut self, token: u64) -> Result<bool, ()> {
        let Some(conn) = self.conns.get_mut(token) else {
            return Err(());
        };
        // Compact the consumed prefix before growing.
        if conn.in_pos > 0 && conn.in_pos == conn.in_buf.len() {
            conn.in_buf.clear();
            conn.in_pos = 0;
        } else if conn.in_pos > READ_BUDGET {
            conn.in_buf.drain(..conn.in_pos);
            conn.in_pos = 0;
        }
        let mut chunk = [0u8; 16 * 1024];
        let mut total = 0;
        loop {
            if total >= READ_BUDGET {
                return Ok(false);
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    conn.in_buf.extend_from_slice(&chunk[..n]);
                    total += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
    }

    /// Drives a connection's state machine over whatever is buffered.
    fn advance_conn(&mut self, token: u64, now: Instant) {
        loop {
            let max_head = self.state.config.max_header_bytes;
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            match &mut conn.phase {
                Phase::Head => {
                    let buf = &conn.in_buf[conn.in_pos..];
                    if buf.is_empty() {
                        if conn.peer_eof {
                            // Clean close between requests.
                            self.close(token);
                            return;
                        }
                        self.refresh_deadline(token, now);
                        self.refresh_interest(token);
                        return;
                    }
                    match parse_head(buf, max_head) {
                        Ok(None) => {
                            if conn.peer_eof {
                                conn.head_deadline = None;
                                self.peer_eof_mid_request(token, now);
                                return;
                            }
                            // Partial head: the absolute head deadline
                            // starts at the first byte.
                            self.refresh_deadline(token, now);
                            self.refresh_interest(token);
                            return;
                        }
                        Ok(Some((head, consumed))) => {
                            conn.in_pos += consumed;
                            conn.head_deadline = None;
                            conn.active = true;
                            let endpoint = route_endpoint(&head);
                            conn.timing = Some((endpoint, Instant::now()));
                            self.state.metrics.requests.fetch_add(1, Ordering::Relaxed);
                            self.state.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
                            // Token-bucket rate limit: refill at `rps`
                            // up to `burst`, spend one token per
                            // request, refuse on an empty bucket.
                            let mut limited = None;
                            if let Some((rps, burst)) = self.state.config.rate_limit {
                                let dt = now.duration_since(conn.rl_last).as_secs_f64();
                                conn.rl_last = now;
                                conn.rl_tokens = (conn.rl_tokens + dt * rps).min(burst);
                                if conn.rl_tokens >= 1.0 {
                                    conn.rl_tokens -= 1.0;
                                } else {
                                    let wait = ((1.0 - conn.rl_tokens) / rps).ceil().max(1.0);
                                    limited = Some((wait as u64).to_string());
                                }
                            }
                            if let Some(retry) = limited {
                                self.rate_limit_reject(token, &retry, now);
                                return;
                            }
                            self.route_request(token, head, endpoint, now);
                            // Loop: the route may have completed the
                            // request and pipelined bytes may follow.
                        }
                        Err(e) => {
                            conn.head_deadline = None;
                            match reply_for_http_error(&e) {
                                Some(reply) => self.send_reply(token, reply, false, now),
                                None => self.fail_silently(token),
                            }
                            return;
                        }
                    }
                }
                Phase::Body {
                    decoder,
                    body,
                    discard,
                    ..
                } => {
                    let discard = *discard;
                    if !decoder.is_done() {
                        let input_empty = conn.in_pos >= conn.in_buf.len();
                        if input_empty {
                            if conn.peer_eof {
                                if discard {
                                    // drain_body closes silently on a
                                    // failed drain.
                                    self.close(token);
                                } else {
                                    self.peer_eof_mid_request(token, now);
                                }
                                return;
                            }
                            self.refresh_deadline(token, now);
                            self.refresh_interest(token);
                            return;
                        }
                        let res = decoder.decode(&conn.in_buf[conn.in_pos..], body);
                        match res {
                            Ok(n) => {
                                conn.in_pos += n;
                                if discard {
                                    body.clear();
                                }
                            }
                            Err(e) => {
                                if discard {
                                    self.close(token);
                                } else {
                                    match reply_for_http_error(&e) {
                                        Some(reply) => {
                                            self.send_reply(token, reply, false, now)
                                        }
                                        None => self.fail_silently(token),
                                    }
                                }
                                return;
                            }
                        }
                    }
                    let Some(conn) = self.conns.get_mut(token) else {
                        return;
                    };
                    let Phase::Body { decoder, .. } = &conn.phase else {
                        return;
                    };
                    if decoder.is_done() {
                        self.finish_body(token, now);
                        // finish_body advanced the phase; loop to pump
                        // pipelined bytes or settle interest.
                        continue;
                    }
                    self.refresh_deadline(token, now);
                    self.refresh_interest(token);
                    return;
                }
                Phase::Waiting { .. } | Phase::Setup => {
                    // The executor owns the request; nothing to pump.
                    self.refresh_interest(token);
                    return;
                }
                Phase::Prune(_) => {
                    self.pump_prune(token, now);
                    return;
                }
                Phase::Closing => {
                    self.refresh_interest(token);
                    return;
                }
            }
        }
    }

    /// A complete head was parsed: route it the way the blocking
    /// `handle` does, but asynchronously.
    fn route_request(&mut self, token: u64, head: RequestHead, endpoint: Endpoint, now: Instant) {
        let method = head.method.clone();
        match (endpoint, method.as_str()) {
            (Endpoint::Healthz, "GET")
            | (Endpoint::Metrics, "GET")
            | (Endpoint::Shutdown, "POST") => self.enter_body(token, head, endpoint, true, now),
            (Endpoint::Dtd, "POST")
            | (Endpoint::Analyze, "POST")
            | (Endpoint::Independence, "POST") => {
                self.enter_body(token, head, endpoint, false, now)
            }
            (Endpoint::Prune, "POST") | (Endpoint::Query, "POST") => {
                if let Some(conn) = self.conns.get_mut(token) {
                    conn.phase = Phase::Setup;
                }
                self.dispatch(Job::Setup { token, head });
                self.refresh_deadline(token, now);
                self.refresh_interest(token);
            }
            (Endpoint::Other, _) => {
                let reply = Reply::Err {
                    status: 404,
                    code: codes::NOT_FOUND.to_string(),
                    message: "no such endpoint".to_string(),
                };
                self.send_reply(token, reply, false, now);
            }
            _ => {
                let reply = Reply::Err {
                    status: 405,
                    code: codes::METHOD_NOT_ALLOWED.to_string(),
                    message: format!("{method} is not supported on {}", head.path),
                };
                self.send_reply(token, reply, false, now);
            }
        }
    }

    /// Starts collecting a buffered endpoint's body (or draining it
    /// for the bodyless endpoints), handling `Expect: 100-continue`
    /// and framing errors exactly like the blocking mode.
    fn enter_body(
        &mut self,
        token: u64,
        head: RequestHead,
        endpoint: Endpoint,
        discard: bool,
        now: Instant,
    ) {
        let kind = match body_kind(&head) {
            Ok(k) => k,
            Err(e) => {
                if discard {
                    // drain_body: silent close on framing errors.
                    self.close(token);
                } else {
                    match reply_for_http_error(&e) {
                        Some(reply) => self.send_reply(token, reply, false, now),
                        None => self.fail_silently(token),
                    }
                }
                return;
            }
        };
        if !discard && kind != BodyKind::None && head.expects_continue() {
            self.push_out(token, b"HTTP/1.1 100 Continue\r\n\r\n".to_vec(), now);
        }
        let decoder = BodyDecoder::new(kind, self.state.config.max_body_bytes);
        if let Some(conn) = self.conns.get_mut(token) {
            conn.phase = Phase::Body {
                head,
                endpoint,
                decoder,
                body: Vec::new(),
                discard,
            };
        }
        self.advance_conn(token, now);
    }

    /// The buffered body is complete: answer inline (healthz, metrics,
    /// shutdown) or ship the CPU work to the executor (dtd, analyze).
    fn finish_body(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let Phase::Body {
            head,
            endpoint,
            body,
            ..
        } = std::mem::replace(&mut conn.phase, Phase::Head)
        else {
            return;
        };
        let shutting = self.state.is_shutting_down();
        let client_keep = head.keep_alive();
        match endpoint {
            Endpoint::Healthz => {
                let reply = Reply::Ok {
                    status: 200,
                    content_type: "application/json",
                    body: HEALTHZ_BODY.to_string(),
                };
                self.send_reply(token, reply, client_keep && !shutting, now);
            }
            Endpoint::Metrics => {
                let reply = metrics_reply(self.state, &head);
                self.send_reply(token, reply, client_keep && !shutting, now);
            }
            Endpoint::Shutdown => {
                let keep = client_keep && !shutting;
                // Queue the response first (it must drain), then flip
                // the flag — same order as the blocking handler.
                let bytes =
                    render_response(200, "application/json", SHUTDOWN_BODY.as_bytes(), keep);
                if let Some(conn) = self.conns.get_mut(token) {
                    conn.out.push(bytes);
                }
                self.state.trigger_shutdown();
                // Completion runs with the shutdown flag set: the
                // connection closes after the flush and the request
                // counts as drained.
                self.complete_request(token, keep, now);
                self.try_write(token, now);
            }
            Endpoint::Dtd => {
                if let Some(conn) = self.conns.get_mut(token) {
                    // The blocking DTD handler keeps alive on the
                    // client's header alone.
                    conn.phase = Phase::Waiting {
                        client_keep,
                        unless_shutdown: false,
                    };
                }
                self.dispatch(Job::Dtd { token, head, body });
                self.refresh_deadline(token, now);
                self.refresh_interest(token);
            }
            Endpoint::Analyze => {
                if let Some(conn) = self.conns.get_mut(token) {
                    conn.phase = Phase::Waiting {
                        client_keep,
                        unless_shutdown: true,
                    };
                }
                self.dispatch(Job::Analyze { token, head, body });
                self.refresh_deadline(token, now);
                self.refresh_interest(token);
            }
            Endpoint::Independence => {
                if let Some(conn) = self.conns.get_mut(token) {
                    conn.phase = Phase::Waiting {
                        client_keep,
                        unless_shutdown: true,
                    };
                }
                // The body (if any) was already collected and is
                // irrelevant: the checker reads only the parameters.
                self.dispatch(Job::Independence { token, head });
                self.refresh_deadline(token, now);
                self.refresh_interest(token);
            }
            Endpoint::Prune | Endpoint::Query | Endpoint::Other => {
                unreachable!("not buffered endpoints")
            }
        }
    }

    /// Artifact setup finished on the executor: build the endpoint's
    /// session — a pruner, or a compiled [`QueryMachine`] streaming
    /// x-ndjson — over the artifact and enter the streaming phase.
    fn setup_done(
        &mut self,
        token: u64,
        head: RequestHead,
        result: Result<Arc<QueryArtifact>, Reply>,
        now: Instant,
    ) {
        let artifact = match result {
            Ok(artifact) => artifact,
            Err(reply) => {
                self.send_reply(token, reply, false, now);
                return;
            }
        };
        let session = if route_endpoint(&head) == Endpoint::Query {
            let mut machine = QueryMachine::new(artifact, QueryOutput::Frames);
            machine.set_fast_forward(fast_forward_param(&head));
            StreamSession::Query(Box::new(machine))
        } else {
            StreamSession::Prune(Box::new(PruneSession::new(&artifact)))
        };
        self.enter_stream(token, head, session, now);
    }

    /// Validate framing, send
    /// `100 Continue` if asked, and enter the streaming phase.
    fn enter_stream(&mut self, token: u64, head: RequestHead, session: StreamSession, now: Instant) {
        let kind = match body_kind(&head) {
            Ok(k) => k,
            Err(e) => {
                match reply_for_http_error(&e) {
                    Some(reply) => self.send_reply(token, reply, false, now),
                    None => self.fail_silently(token),
                }
                return;
            }
        };
        if kind == BodyKind::None {
            let reply = Reply::Err {
                status: 400,
                code: codes::BAD_REQUEST.to_string(),
                message: "a request body (the XML document) is required".to_string(),
            };
            self.send_reply(token, reply, false, now);
            return;
        }
        if head.expects_continue() {
            self.push_out(token, b"HTTP/1.1 100 Continue\r\n\r\n".to_vec(), now);
        }
        let keep_alive = head.keep_alive() && !self.state.is_shutting_down();
        let max_body = self.state.config.max_body_bytes;
        let content_type = session.content_type();
        if let Some(conn) = self.conns.get_mut(token) {
            conn.phase = Phase::Prune(Box::new(PruneState {
                session: Some(session),
                content_type,
                decoder: BodyDecoder::new(kind, max_body),
                pending_in: Vec::new(),
                body_done: false,
                job_out: false,
                finishing: false,
                resp: RespFraming::Buffering(Vec::new()),
                keep_alive,
            }));
        }
        self.pump_prune(token, now);
    }

    /// The prune pump: decode buffered wire bytes into `pending_in`
    /// (bounded), dispatch a feed job when the engine is free, settle
    /// interest and deadlines.
    fn pump_prune(&mut self, token: u64, now: Instant) {
        let high_water = self.state.config.chunk_size.max(1) * 2;
        let out_cap = self.state.config.out_buffer_cap.max(1);
        let chunk = self.state.config.chunk_size.max(1);
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let out_len = conn.out.len();
        let Phase::Prune(p) = &mut conn.phase else {
            return;
        };
        // 1. Decode wire → pending_in, respecting the input bound (a
        //    decoded byte never outnumbers its wire bytes, so capping
        //    the input slice caps the growth).
        let mut framing_error = None;
        while !p.body_done && p.pending_in.len() < high_water && conn.in_pos < conn.in_buf.len()
        {
            let budget = high_water - p.pending_in.len();
            let end = (conn.in_pos + budget).min(conn.in_buf.len());
            match p
                .decoder
                .decode(&conn.in_buf[conn.in_pos..end], &mut p.pending_in)
            {
                Ok(n) => {
                    conn.in_pos += n;
                    if p.decoder.is_done() {
                        p.body_done = true;
                    }
                    if n == 0 {
                        break;
                    }
                }
                Err(e) => {
                    framing_error = Some(e);
                    break;
                }
            }
        }
        let headers_sent = p.headers_sent();
        if let Some(e) = framing_error {
            if headers_sent {
                // The 200 is on the wire: cut the chunked stream short
                // so the client sees the truncation.
                self.state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                self.abort_streaming(token, now);
            } else {
                match reply_for_http_error(&e) {
                    Some(reply) => self.send_reply(token, reply, false, now),
                    None => self.fail_silently(token),
                }
            }
            return;
        }
        // 2. EOF with the body incomplete and nothing left to decode
        //    or feed: the request can never finish.
        let starved = !p.body_done
            && conn.peer_eof
            && conn.in_pos >= conn.in_buf.len()
            && p.pending_in.is_empty()
            && !p.job_out;
        if starved {
            if headers_sent {
                self.state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                self.abort_streaming(token, now);
            } else {
                self.peer_eof_mid_request(token, now);
            }
            return;
        }
        // 3. Dispatch engine work when the session is home and there
        //    is something to do — unless the client is not draining
        //    the response (out queue at cap), which pauses the pipeline.
        let want_feed = !p.pending_in.is_empty();
        let want_finish = p.body_done && !p.finishing;
        if p.session.is_some() && !p.job_out && (want_feed || want_finish) && out_len < out_cap {
            let session = p.session.take().expect("checked is_some");
            let input = std::mem::take(&mut p.pending_in);
            let finish = p.body_done;
            p.job_out = true;
            p.finishing = finish;
            self.dispatch(Job::Prune {
                token,
                session,
                input,
                finish,
                chunk,
            });
        }
        self.refresh_deadline(token, now);
        self.refresh_interest(token);
    }

    /// A feed/finish job came back: move pruned output into the
    /// response framing, finish or continue.
    fn prune_done(
        &mut self,
        token: u64,
        session: Option<StreamSession>,
        result: Result<Option<EngineStats>, PruneFail>,
        now: Instant,
    ) {
        let response_buffer = self.state.config.response_buffer_bytes;
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let Phase::Prune(p) = &mut conn.phase else {
            return;
        };
        p.job_out = false;
        p.session = session;
        let keep = p.keep_alive;
        let content_type = p.content_type;

        // Collect pruned bytes out of the session's sink.
        let mut produced = Vec::new();
        if let Some(s) = p.session.as_mut() {
            s.take_output(&mut produced);
        }
        let mut frames: Vec<u8> = Vec::new();
        match &mut p.resp {
            RespFraming::Buffering(buf) => {
                buf.extend_from_slice(&produced);
                if buf.len() > response_buffer {
                    // Commit to streaming: head + everything buffered
                    // so far as the first chunk (StreamingBody
                    // semantics — this holds even when the commit
                    // happens on the finishing job, so total output
                    // above the threshold is always chunked).
                    frames.extend_from_slice(streaming_prune_head(content_type, keep).as_bytes());
                    push_chunk_frame(&mut frames, buf);
                    buf.clear();
                    p.resp = RespFraming::Streaming;
                }
            }
            RespFraming::Streaming => push_chunk_frame(&mut frames, &produced),
        }
        let headers_sent = p.headers_sent();
        let finishing = p.finishing;

        match result {
            Ok(Some(stats)) => {
                self.state.metrics.record_engine(&stats);
                self.finish_stream(token, frames, keep, content_type, now);
            }
            Ok(None) if finishing => {
                // A finished query stream (no engine stats to fold in).
                self.finish_stream(token, frames, keep, content_type, now);
            }
            Ok(None) => {
                if !frames.is_empty() {
                    self.push_out(token, frames, now);
                }
                self.pump_prune(token, now);
            }
            Err(fail) => {
                if headers_sent {
                    if !frames.is_empty() {
                        self.push_out(token, frames, now);
                    }
                    self.state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    self.abort_streaming(token, now);
                } else {
                    let reply = match fail {
                        PruneFail::Engine(StreamError::Prune(e)) => reply_for_engine_error(&e),
                        PruneFail::Engine(StreamError::Query(e)) => reply_for_query_error(&e),
                        PruneFail::Panic => Reply::internal_error(),
                    };
                    self.send_reply(token, reply, false, now);
                }
            }
        }
    }

    /// Queues a finished stream's terminating bytes: the buffered
    /// Content-Length response if nothing streamed yet, else the last
    /// frames plus the terminal chunk.
    fn finish_stream(
        &mut self,
        token: u64,
        frames: Vec<u8>,
        keep: bool,
        content_type: &'static str,
        now: Instant,
    ) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let Phase::Prune(p) = &mut conn.phase else {
            return;
        };
        match std::mem::replace(&mut p.resp, RespFraming::Streaming) {
            RespFraming::Buffering(buf) => {
                // Everything fit: Content-Length framing. Head and body
                // are two gathered frames — the body is moved, not
                // copied.
                let head = buffered_prune_head(content_type, buf.len(), keep);
                conn.out.push(head.into_bytes());
                conn.out.push(buf);
            }
            RespFraming::Streaming => {
                conn.out.push(frames);
                conn.out.push(b"0\r\n\r\n".to_vec());
            }
        }
        self.complete_request(token, keep, now);
        self.try_write(token, now);
    }

    /// Aborts a streaming prune mid-response: flush what is queued
    /// (without the terminating chunk — the client must see the
    /// truncation), then close.
    fn abort_streaming(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        if let Some((endpoint, t0)) = conn.timing.take() {
            self.state.metrics.record_latency(endpoint, t0.elapsed());
        }
        if conn.active {
            conn.active = false;
            self.state.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        }
        conn.phase = Phase::Closing;
        self.try_write(token, now);
        if let Some(c) = self.conns.get_mut(token) {
            if c.out.is_empty() {
                self.close(token);
            } else {
                self.refresh_deadline(token, now);
                self.refresh_interest(token);
            }
        }
    }

    /// The peer sent EOF. Between requests this is a clean close; with
    /// a response still flushing it is a half-close (keep writing);
    /// mid-request it mirrors the blocking mode's
    /// `400 connection closed mid-request`. The state machine decides
    /// at its next "need more input" point.
    fn peer_closed(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        conn.peer_eof = true;
        match &conn.phase {
            Phase::Closing => {
                self.try_write(token, now);
                // A half-closed peer may still be reading; keep
                // flushing until done or the write stalls out.
            }
            Phase::Waiting { .. } | Phase::Setup => {
                // Body already buffered (Waiting) or pending in
                // `in_buf` (Setup): the executor result decides.
                self.refresh_interest(token);
            }
            _ => self.advance_conn(token, now),
        }
    }

    /// A connection's wheel entry fired. The authoritative deadline
    /// may have moved forward — re-arm lazily in that case.
    fn timer_fired(&mut self, entry: TimerEntry, now: Instant) {
        let Some(conn) = self.conns.get_mut(entry.token) else {
            return;
        };
        if entry.gen != conn.timer_gen {
            return; // cancelled
        }
        conn.timer_armed_at = None;
        if now < conn.deadline {
            let deadline = conn.deadline;
            conn.timer_armed_at = Some(deadline);
            self.wheel.arm(deadline, entry.token, conn.timer_gen);
            return;
        }
        let kind = conn.deadline_kind;
        let streaming = matches!(&conn.phase, Phase::Prune(p) if p.headers_sent());
        match kind {
            DeadlineKind::Idle | DeadlineKind::Write => self.close(entry.token),
            DeadlineKind::Head => {
                let reply = Reply::Err {
                    status: 408,
                    code: codes::TIMEOUT.to_string(),
                    message: "request head timed out".to_string(),
                };
                self.send_reply(entry.token, reply, false, now);
            }
            DeadlineKind::Body => {
                if streaming {
                    self.state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    self.close(entry.token);
                } else {
                    let reply = Reply::Err {
                        status: 408,
                        code: codes::TIMEOUT.to_string(),
                        message: "body read timed out".to_string(),
                    };
                    self.send_reply(entry.token, reply, false, now);
                }
            }
        }
    }

    /// Inserts a freshly-accepted socket into the slab and registers it
    /// with this loop's reactor. `admitted` distinguishes a real
    /// connection (counted in the server-wide admission gauge) from a
    /// socket held open only to flush a `503` reject.
    fn install_conn(&mut self, stream: TcpStream, admitted: bool, now: Instant) -> Option<u64> {
        if stream.set_nonblocking(true).is_err() {
            return None;
        }
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let read_t = self.state.config.read_timeout;
        let burst = self.state.config.rate_limit.map_or(0.0, |(_, b)| b);
        let token = self.conns.insert(Conn {
            stream,
            phase: Phase::Head,
            in_buf: Vec::new(),
            in_pos: 0,
            out: OutQueue::new(),
            registered: Interest::READABLE,
            admitted,
            // A fresh connection starts with a full bucket.
            rl_tokens: burst,
            rl_last: now,
            peer_eof: false,
            active: false,
            timing: None,
            deadline: now + read_t,
            deadline_kind: DeadlineKind::Idle,
            timer_gen: 0,
            timer_armed_at: None,
            head_deadline: None,
        });
        if admitted {
            self.state.open_conns.fetch_add(1, Ordering::Relaxed);
        }
        if self
            .reactor
            .register(fd, Token(token), Interest::READABLE, Mode::Level)
            .is_err()
        {
            if let Some(conn) = self.conns.remove(token) {
                drop(conn);
                if admitted {
                    self.state.open_conns.fetch_sub(1, Ordering::Relaxed);
                }
            }
            return None;
        }
        Some(token)
    }

    /// Accepts until the listener would block. Over the admission
    /// limit: `503` + `Retry-After` through the normal out-queue/write
    /// path (so a full socket buffer never truncates it), then close.
    ///
    /// Returns `true` when accept failed with a persistent error (fd
    /// exhaustion, typically). The pending connection then stays in the
    /// backlog, so a level-triggered listener would re-fire on every
    /// poll and spin the loop flat out — the caller must deregister the
    /// listener and retry after [`ACCEPT_STALL_BACKOFF`] instead.
    fn accept_ready(&mut self, listener: &TcpListener, now: Instant) -> bool {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    // A connection the kernel queued before this loop
                    // closed its listener is admitted even if shutdown
                    // has begun: its request may already be on the
                    // wire, and dropping it here would reset it. The
                    // shutdown transition decides whether it is idle.
                    if self.state.open_conns.load(Ordering::Relaxed)
                        >= self.state.config.max_connections
                    {
                        self.state
                            .metrics
                            .admission_rejects
                            .fetch_add(1, Ordering::Relaxed);
                        self.reject_overloaded(stream, now);
                        continue;
                    }
                    self.state.metrics.connections.fetch_add(1, Ordering::Relaxed);
                    if let Some(token) = self.install_conn(stream, true, now) {
                        let read_t = self.state.config.read_timeout;
                        self.set_deadline(token, DeadlineKind::Idle, now + read_t);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // The handshake died before we got to it (ECONNABORTED):
                // the slot was consumed, keep accepting.
                Err(e) if e.kind() == ErrorKind::ConnectionAborted => {}
                Err(_) => {
                    self.state
                        .metrics
                        .accept_stalls
                        .fetch_add(1, Ordering::Relaxed);
                    return true;
                }
            }
        }
    }

    /// A connection refused at the admission limit: queue the full
    /// `503` + `Retry-After` reply and let the ordinary write machinery
    /// flush it (close-after-write; the write-stall deadline bounds how
    /// long the socket lingers).
    fn reject_overloaded(&mut self, stream: TcpStream, now: Instant) {
        let bytes = render_json_error_with(
            503,
            "overloaded",
            "connection limit reached, retry shortly",
            &[("retry-after", "1")],
        );
        let Some(token) = self.install_conn(stream, false, now) else {
            return;
        };
        if let Some(conn) = self.conns.get_mut(token) {
            conn.phase = Phase::Closing;
            conn.out.push(bytes);
        }
        let write_t = self.state.config.write_timeout;
        self.set_deadline(token, DeadlineKind::Write, now + write_t);
        self.try_write(token, now);
        if self.conns.get_mut(token).is_some() {
            self.refresh_interest(token);
        }
    }

    /// One connection's readiness event.
    fn handle_event(&mut self, ev: &Event, now: Instant) {
        let token = ev.token.0;
        if ev.error {
            if let Some(conn) = self.conns.get_mut(token) {
                if conn.active {
                    self.state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            self.close(token);
            return;
        }
        if ev.writable {
            self.try_write(token, now);
        }
        if ev.readable {
            match self.read_some(token) {
                Err(()) => {
                    if let Some(conn) = self.conns.get_mut(token) {
                        if conn.active {
                            self.state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    self.close(token);
                }
                Ok(true) => self.peer_closed(token, now),
                Ok(false) => self.advance_conn(token, now),
            }
        }
        self.note_residency(token);
    }

    /// One executor completion.
    fn handle_done(&mut self, done: Done, now: Instant) {
        self.state
            .metrics
            .executor_queue_depth
            .fetch_sub(1, Ordering::Relaxed);
        match done {
            Done::Reply { token, reply } => {
                let (client_keep, unless_shutdown) =
                    match self.conns.get_mut(token).map(|c| &c.phase) {
                        Some(Phase::Waiting {
                            client_keep,
                            unless_shutdown,
                        }) => (*client_keep, *unless_shutdown),
                        // The connection died while the job ran.
                        _ => return,
                    };
                let header_keep =
                    client_keep && (!unless_shutdown || !self.state.is_shutting_down());
                self.send_reply(token, reply, header_keep, now);
            }
            Done::Setup {
                token,
                head,
                result,
            } => {
                if !matches!(
                    self.conns.get_mut(token).map(|c| &c.phase),
                    Some(Phase::Setup)
                ) {
                    return;
                }
                self.setup_done(token, head, result, now);
            }
            Done::Prune {
                token,
                session,
                result,
            } => {
                self.prune_done(token, session, result, now);
                self.note_residency(token);
            }
        }
    }

    /// Folds the touched connection's application-level residency into
    /// the high-water metric. Called after event and completion
    /// handling, when buffers are at their fullest.
    fn note_residency(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        let mut bytes = conn.in_buf.len() + conn.out.len();
        match &conn.phase {
            Phase::Body { body, .. } => bytes += body.len(),
            Phase::Prune(p) => {
                bytes += p.pending_in.len();
                if let RespFraming::Buffering(buf) = &p.resp {
                    bytes += buf.len();
                }
                if let Some(sess) = p.session.as_ref() {
                    bytes += sess.resident_bytes();
                }
            }
            _ => {}
        }
        self.state
            .metrics
            .max_conn_resident
            .fetch_max(bytes as u64, Ordering::Relaxed);
    }
}

/// Appends one chunked-transfer frame (empty data appends nothing,
/// matching `StreamingBody::write_chunk`).
fn push_chunk_frame(out: &mut Vec<u8>, data: &[u8]) {
    if data.is_empty() {
        return;
    }
    out.extend_from_slice(format!("{:x}\r\n", data.len()).as_bytes());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// The multi-reactor serve entry point. Mirrors the contract of the
/// threaded `Server::serve` — blocks until shutdown, drains in-flight
/// requests up to the deadline, reports drained/aborted — but spawns
/// one [`run_loop`] per listener (each `SO_REUSEPORT`-bound to the same
/// port) and fans the shutdown wake out to every loop's waker.
pub(crate) fn serve(
    listeners: Vec<TcpListener>,
    state: &Arc<ServerState>,
) -> std::io::Result<ShutdownReport> {
    let nloops = listeners.len().max(1);
    let mut reactors = Vec::with_capacity(nloops);
    for _ in 0..nloops {
        reactors.push(Reactor::new()?);
    }
    let wakers: Vec<_> = reactors.iter().map(|r| r.waker()).collect();
    state
        .metrics
        .set_reactors(reactors.iter().map(|r| r.metrics()).collect());
    {
        let hooks = wakers;
        state.set_wake_hook(Box::new(move || {
            for w in &hooks {
                let _ = w.wake();
            }
        }));
    }
    // Split the executor pool across the loops (at least one lane
    // each); the total stays close to `config.workers`.
    let per_loop_workers = state.config.workers.max(1).div_ceil(nloops).max(1);

    let results: Vec<std::io::Result<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .zip(reactors)
            .map(|(listener, reactor)| {
                scope.spawn(move || run_loop(listener, reactor, state, per_loop_workers))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reactor loop thread panicked"))
            .collect()
    });
    let mut aborted = 0;
    for r in results {
        aborted += r?;
    }

    Ok(ShutdownReport {
        drained: state.metrics.drained.load(Ordering::Relaxed),
        aborted,
        requests: state.metrics.requests.load(Ordering::Relaxed),
    })
}

/// One reactor event loop: owns its listener, epoll instance, timer
/// wheel, connection slab, and executor lane. Returns how many in-
/// flight requests this loop aborted at the drain deadline.
fn run_loop(
    listener: TcpListener,
    reactor: Reactor,
    state: &Arc<ServerState>,
    workers: usize,
) -> std::io::Result<u64> {
    listener.set_nonblocking(true)?;
    reactor.register(
        listener.as_raw_fd(),
        Token(LISTENER_TOKEN),
        Interest::READABLE,
        Mode::Level,
    )?;
    let waker = reactor.waker();
    let (jobs_tx, jobs_rx) = mpsc::sync_channel::<Job>(workers * 2);
    let jobs_rx = Mutex::new(jobs_rx);
    let dones: Mutex<VecDeque<Done>> = Mutex::new(VecDeque::new());
    let reactor_metrics = reactor.metrics();

    let aborted = std::thread::scope(|scope| {
        for _ in 0..workers {
            let jobs_rx = &jobs_rx;
            let dones = &dones;
            let state: &ServerState = state;
            let waker = waker.clone();
            scope.spawn(move || loop {
                let job = jobs_rx.lock().unwrap().recv();
                let Ok(job) = job else { break };
                let done = run_job(job, state);
                dones.lock().unwrap().push_back(done);
                let _ = waker.wake();
            });
        }

        let mut lp = EventLoop {
            state,
            reactor,
            wheel: TimerWheel::new(WHEEL_SLOTS, DEFAULT_TICK),
            conns: Slab::new(),
            jobs_tx,
            overflow: VecDeque::new(),
        };

        let mut events: Vec<Event> = Vec::new();
        let mut fired: Vec<TimerEntry> = Vec::new();
        let mut listener_open = true;
        // While `Some`, the listener is deregistered because accept hit
        // a persistent error (fd exhaustion): retried at the deadline
        // rather than spinning on level-triggered readiness.
        let mut accept_paused_until: Option<Instant> = None;
        let mut drain_deadline: Option<Instant> = None;

        let aborted = loop {
            let now = Instant::now();
            // Shutdown transition: close the listener, start the drain
            // clock, drop idle connections. "In flight" is judged from
            // the client's side of the socket: a connection still in
            // this listener's accept queue (with `SO_REUSEPORT` the
            // shutdown request may have reached a sibling loop first)
            // and a head sitting unread in a socket buffer are requests
            // already sent, so the queue is drained and every
            // idle-looking connection gets one read before it is
            // classified.
            if state.is_shutting_down() && listener_open {
                let _ = lp.accept_ready(&listener, now);
                if accept_paused_until.take().is_none() {
                    let _ = lp.reactor.deregister(listener.as_raw_fd());
                }
                listener_open = false;
                drain_deadline = Some(now + state.config.drain_deadline);
                for token in lp.conns.tokens() {
                    if lp.is_idle(token) && lp.read_some(token) == Ok(false) {
                        lp.advance_conn(token, now);
                    }
                    if lp.is_idle(token) {
                        lp.close(token);
                    }
                }
            }
            if !listener_open {
                if lp.conns.len() == 0 {
                    break 0;
                }
                if let Some(dd) = drain_deadline {
                    if now >= dd {
                        // Drain deadline passed: everything still in
                        // flight *on this loop* is aborted. (Counting
                        // our own slab — not the global in-flight
                        // gauge — keeps the sum correct when several
                        // loops hit their deadlines concurrently.)
                        let mut aborting = 0u64;
                        for t in lp.conns.tokens() {
                            if lp.conns.get_mut(t).is_some_and(|c| c.active) {
                                aborting += 1;
                            }
                        }
                        state.metrics.aborted.fetch_add(aborting, Ordering::Relaxed);
                        state.hard_abort();
                        for token in lp.conns.tokens() {
                            lp.close(token);
                        }
                        break aborting;
                    }
                }
            }

            // An accept stall backoff that has run out: put the
            // listener back; if registration itself fails (still out of
            // fds), stay paused another round.
            if let Some(until) = accept_paused_until {
                if listener_open && now >= until {
                    match lp.reactor.register(
                        listener.as_raw_fd(),
                        Token(LISTENER_TOKEN),
                        Interest::READABLE,
                        Mode::Level,
                    ) {
                        Ok(()) => accept_paused_until = None,
                        Err(_) => accept_paused_until = Some(now + ACCEPT_STALL_BACKOFF),
                    }
                }
            }

            // Poll timeout: next wheel tick, bounded by the drain
            // deadline while shutting down and by an accept-stall
            // backoff while the listener is parked.
            let mut timeout = lp.wheel.next_timeout(now);
            if let Some(dd) = drain_deadline {
                let until = dd.saturating_duration_since(now);
                timeout = Some(timeout.map_or(until, |t| t.min(until)));
            }
            if let Some(pu) = accept_paused_until {
                let until = pu.saturating_duration_since(now);
                timeout = Some(timeout.map_or(until, |t| t.min(until)));
            }
            events.clear();
            match lp.reactor.poll(timeout, &mut events) {
                Ok(_woken) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            let now = Instant::now();

            for ev in &events {
                if ev.token.0 == LISTENER_TOKEN {
                    if listener_open && lp.accept_ready(&listener, now) {
                        let _ = lp.reactor.deregister(listener.as_raw_fd());
                        accept_paused_until = Some(now + ACCEPT_STALL_BACKOFF);
                    }
                } else {
                    lp.handle_event(ev, now);
                }
            }

            // Executor completions (the waker fired, or we were up
            // anyway — drain regardless).
            loop {
                let done = dones.lock().unwrap().pop_front();
                match done {
                    Some(d) => lp.handle_done(d, now),
                    None => break,
                }
            }
            lp.pump_overflow();

            // Timers.
            fired.clear();
            let n = lp.wheel.advance(now, &mut fired);
            if n > 0 {
                reactor_metrics
                    .timer_fires
                    .fetch_add(n as u64, Ordering::Relaxed);
            }
            for entry in fired.drain(..) {
                lp.timer_fired(entry, now);
            }
        };

        // Teardown: dropping the loop drops `jobs_tx`, closing the
        // channel; the scope then joins the workers.
        drop(lp);
        Ok::<u64, std::io::Error>(aborted)
    })?;

    Ok(aborted)
}
