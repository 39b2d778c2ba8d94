//! The HTTP/1.1 connection as a pure state machine.
//!
//! A [`Connection`] is everything `xmlpruned` knows about serving one
//! client — head parsing, routing, body decoding, the streaming
//! prune/query pipeline, response framing, the three backpressure
//! gates, the single deadline, the token bucket, keep-alive and drain
//! accounting — with no socket, clock, worker or event loop inside. A
//! *driver* owns those and talks to the machine in a fixed vocabulary:
//!
//! ```text
//!            Input (+ the driver's `now`)                 polled back
//!   Bytes(&[u8])  Eof  Written(n)            ┌──────────┐  wants_read()
//!   DeadlineReached  Done(completion)  ────▶ │Connection│  gather() / pending_out()
//!   ShuttingDown  Reset                      └──────────┘  deadline()  half_closed()
//!                                                 │        is_closed() is_idle() is_active()
//!                                      at most one `Job`   resident_bytes()
//! ```
//!
//! [`Connection::handle`] returns at most one [`Job`] per input — the
//! machine keeps one job in flight per connection — and the driver
//! turns it into a [`Done`] with the free function [`run_job`],
//! delivering it back as `Input::Done`. *Where* it runs is the
//! machine's call too: [`Job::bounded`] says whether something bounds
//! the job's cost — the buffer unit (a feed, a streaming finish) or the
//! step budget (a compile) — so a driver with an event loop runs it
//! there, or nothing does (a DTD, an analysis, a fallback evaluation,
//! and a compile that overran its budget — those take its executor
//! lane).
//! What takes microseconds is no job at all: `/healthz`, `/metrics` and
//! an artifact-cache *hit* are decided while routing. Every other
//! effect is *read back*: the frame queue to write, whether to read,
//! when the one deadline expires. Nothing is allocated per input to
//! describe effects.
//!
//! ## A request's life
//!
//! ```text
//! Head ── route ──→ Body (buffered endpoints) → job → reply ────────────────┐
//!   │   └─ prune/query → (miss: Setup →) Prune { decode → feed jobs → frames } ┤
//!   ▲                                                                       │
//!   ├── keep-alive (pipelined bytes already in `in_buf`) ←──────────────────┤
//!   Closing (flush) → Linger (request bytes unread) → Closed ←──────────────┘
//! ```
//!
//! ## Invariants that live here
//!
//! * **One buffer unit, three gates.** `config.chunk_size` is the unit
//!   `u`: the engine is fed `u` bytes at a time and a response commits
//!   to streaming once more than `u` is buffered. Decoded-but-unfed body
//!   bytes (`pending_in`) and the undecoded backlog each stop reads at
//!   2·`u`; the out queue stops feeds, reads and the next pipelined
//!   request at 4·`u`. Residency is therefore a function of `u` alone —
//!   see [`Connection::resident_bytes`].
//! * **One deadline.** Idle keep-alive, absolute whole-head (slowloris),
//!   rolling body, write-stall, or linger — exactly one is live and
//!   [`Connection::deadline`] names it.
//! * **One keep-alive decision**, taken when a response head is
//!   rendered: `client_keep && !shutting_down`. A connection the server
//!   closes after a complete response said `connection: close`, except
//!   a chunked stream whose head was on the wire before shutdown began.
//! * **Lingering close.** Closing with request bytes unconsumed (an
//!   early `413`, a `404` with a body on the way) would make the kernel
//!   answer the client's next write with a reset that can destroy the
//!   reply in flight. The machine instead half-closes once flushed
//!   ([`Connection::half_closed`]) and discards input until `Eof`,
//!   [`LINGER_MAX_BYTES`] or [`LINGER_TIMEOUT`].

use crate::handlers::{
    analyze_reply, artifact_lookup, codes, dtd_reply, fast_forward_param, independence_reply,
    metrics_reply, reply_for_engine_error, reply_for_http_error, route, Reply, HEALTHZ_BODY,
    SHUTDOWN_BODY,
};
use crate::http::{
    body_kind, render_json_error, render_response, response_head,
    BodyKind, HttpError, RequestHead,
};
use crate::metrics::Endpoint;
use crate::state::{ServerState, MAX_DTD_BODY_BYTES};
use crate::wire::{parse_head, BodyDecoder};
use std::collections::VecDeque;
use std::io::{IoSlice, Write as _};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xproj_engine::{
    EngineError, Lookup, PendingCompile, QueryArtifact, QueryMachine, QueryOutput,
    LOOP_COMPILE_STEPS,
};

/// The most bytes a driver hands the machine in one `Input::Bytes`, so
/// one firehose connection cannot starve its neighbours and so the
/// residency bound has a fixed read term.
pub const READ_BUDGET: usize = 64 * 1024;
/// How long a lingering close waits for the peer's `Eof`.
pub const LINGER_TIMEOUT: Duration = Duration::from_secs(1);
/// How many unread request bytes a lingering close discards before it
/// gives up on a peer that never stops sending.
pub const LINGER_MAX_BYTES: usize = 1 << 20;
/// The input gates, in buffer units (`config.chunk_size`): reads stop at
/// this much decoded-but-unfed body, or undecoded backlog behind it.
const IN_GATE_UNITS: usize = 2;
/// The out-queue gate, in buffer units: at this much unsent response the
/// machine stops feeding, reading and starting pipelined requests.
const OUT_GATE_UNITS: usize = 4;

/// A connection's queued response bytes as a list of owned frames.
/// Frames are queued by *move* — a rendered response, a chunk frame, a
/// streamed x-ndjson batch — so nothing is copied into a contiguous
/// staging buffer before the driver's gathered write.
#[derive(Default)]
struct OutQueue {
    frames: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already on the wire.
    head_pos: usize,
    /// Unwritten bytes across all frames (cached).
    len: usize,
}

impl OutQueue {
    /// Queues one frame, taking ownership (empty frames are dropped).
    fn push(&mut self, frame: Vec<u8>) {
        if frame.is_empty() {
            return;
        }
        self.len += frame.len();
        self.frames.push_back(frame);
    }

    fn gather<'a>(&'a self, iov: &mut [IoSlice<'a>]) -> usize {
        let mut n = 0;
        for (i, frame) in self.frames.iter().enumerate() {
            if n >= iov.len() {
                break;
            }
            let slice = if i == 0 {
                &frame[self.head_pos..]
            } else {
                &frame[..]
            };
            iov[n] = IoSlice::new(slice);
            n += 1;
        }
        n
    }

    /// Accounts `written` bytes as flushed, dropping completed frames.
    fn consume(&mut self, written: usize) {
        assert!(
            written <= self.len,
            "driver reported more bytes written than were queued"
        );
        self.len -= written;
        let mut left = written;
        while left > 0 {
            let front = self.frames.front().expect("queue length covers the frames");
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

/// What a connection's single live deadline means when it is reached.
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
    /// A lingering close ran out of patience: close.
    Linger,
}

/// The response framing of an in-progress stream: buffer until the
/// threshold, then commit to `200` + chunked.
enum RespFraming {
    Buffering(Vec<u8>),
    /// The chunked head is on the wire; `keep` is what its `connection`
    /// header promised.
    Streaming {
        keep: bool,
    },
}

/// An in-progress `POST /v1/prune` or `POST /v1/query`.
struct PruneState {
    /// The owned engine pass — emitting pruned XML or x-ndjson match
    /// frames, the streaming phase does not care which; `None` while a
    /// feed job is out (or after a worker panic destroyed it).
    session: Option<Box<QueryMachine>>,
    /// Response `content-type` (fixed by the endpoint).
    content_type: &'static str,
    decoder: BodyDecoder,
    /// Decoded body bytes not yet fed to the engine.
    pending_in: Vec<u8>,
    /// All wire input for the body has been decoded.
    body_done: bool,
    /// A feed/finish job is in flight.
    job_out: bool,
    /// The finish job has been dispatched.
    finishing: bool,
    resp: RespFraming,
    /// The request's own `keep-alive` wish.
    client_keep: bool,
}

impl PruneState {
    fn headers_sent(&self) -> bool {
        matches!(self.resp, RespFraming::Streaming { .. })
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
    /// A reply-building job (DTD parse, analyzer run) is out.
    /// `client_keep` is the request's `head.keep_alive()`.
    Waiting { client_keep: bool },
    /// The compile of a prune's or a query's (`endpoint` says which)
    /// cache miss is out.
    Setup { endpoint: Endpoint },
    /// Streaming a prune or a query: decode → feed jobs → frames.
    Prune(Box<PruneState>),
    /// Response queued; flush the out queue, then linger or close.
    Closing,
    /// Flushed and half-closed; discarding what the peer still sends.
    Linger { discarded: usize },
    /// Done: the driver drops the transport.
    Closed,
}

/// CPU work the machine hands its driver; [`run_job`] turns it into
/// the [`Done`] to deliver back.
pub enum Job {
    /// Parse and register a DTD.
    Dtd {
        /// The request head (parameters).
        head: RequestHead,
        /// The DTD text.
        body: Vec<u8>,
    },
    /// Run the static analyzer.
    Analyze {
        /// The request head (parameters).
        head: RequestHead,
        /// The optional sample document.
        body: Vec<u8>,
    },
    /// Run the independence checker (parameters only).
    Independence {
        /// The request head (parameters).
        head: RequestHead,
    },
    /// Compile the artifact of a prune or a query whose cache lookup
    /// missed (a hit never becomes a job).
    Setup {
        /// The request head, carried for [`Done::Setup`].
        head: RequestHead,
        /// The counted miss: grammar, parsed query, cache key.
        pending: PendingCompile,
    },
    /// Feed decoded body bytes to (and optionally finish) a session.
    /// The session moves to the worker and comes back in the `Done`.
    Prune {
        /// The engine session.
        session: Box<QueryMachine>,
        /// Decoded body bytes.
        input: Vec<u8>,
        /// The body is complete: finish the stream after feeding.
        finish: bool,
        /// Engine feed size.
        chunk: usize,
    },
}

impl Job {
    /// Where a job may run — the placement policy, and the one place
    /// that knows job kinds. `true`: something bounds the cost, so a
    /// driver with an event loop runs it there ([`run_on_loop`]) rather
    /// than pay two thread hand-offs for microseconds of work. That is
    /// a feed (≤ 2`u` decoded bytes — the input gate — through the one
    /// token loop, O(`u` · open depth)), the finish of a pruning or
    /// streaming-plan pass (a flush), and a compile, which the loop runs
    /// under [`LOOP_COMPILE_STEPS`] and hands back if it overruns.
    /// `false`: nothing bounds it — a DTD, an analysis, and the finish
    /// of a *fallback* plan, which runs the tree evaluator (nested-loop
    /// joins) over the pruned tree its feeds built — so it must not
    /// stall a loop's other connections.
    pub fn bounded(&self) -> bool {
        match self {
            Job::Prune { session, finish, .. } => {
                !(*finish && session.plan_label() == "fallback")
            }
            Job::Setup { .. } => true,
            Job::Dtd { .. } | Job::Analyze { .. } | Job::Independence { .. } => false,
        }
    }
}

/// Why a streaming feed/finish job failed.
pub enum PruneFail {
    /// The engine rejected the document (or the evaluation failed).
    Engine(EngineError),
    /// The worker panicked; the session is gone.
    Panic,
}

/// A finished [`Job`], delivered back as `Input::Done`.
pub enum Done {
    /// A decided reply (dtd, analyze, independence).
    Reply(Reply),
    /// Artifact setup finished.
    Setup {
        /// The request head, handed back for framing and parameters.
        head: RequestHead,
        /// The artifact, or the error reply.
        result: Result<Arc<QueryArtifact>, Reply>,
    },
    /// A feed/finish job finished.
    Prune {
        /// The session, home again (`None` after a worker panic).
        session: Option<Box<QueryMachine>>,
        /// Whether the feed (and the finish, if asked for) went through.
        result: Result<(), PruneFail>,
    },
}

fn internal_error() -> Reply {
    Reply::err(500, "internal", "internal error while handling the request")
}

/// Runs `f`, mapping a panic (an engine invariant assertion, say) to
/// `on_panic` so one poisoned request costs one `500`, not a worker.
fn contained<T>(f: impl FnOnce() -> T, on_panic: impl FnOnce() -> T) -> T {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|_| on_panic())
}

/// Runs a [`Job::bounded`] job on an event loop: [`run_job`], except
/// that a compile spends at most [`LOOP_COMPILE_STEPS`]. One that
/// overruns comes back as the job, to be handed to the executor lane,
/// where [`run_job`] starts it over with no budget — so a loop
/// spends at most one budget on any request.
#[allow(clippy::result_large_err)] // the job itself, moved once on an overrun
pub fn run_on_loop(job: Job, state: &ServerState) -> Result<Done, Job> {
    let Job::Setup { head, pending } = job else {
        return Ok(run_job(job, state));
    };
    let compiled = contained(
        || state.cache.compile_within(pending, LOOP_COMPILE_STEPS).map(Ok),
        || Ok(Err(internal_error())),
    );
    match compiled {
        Ok(result) => Ok(Done::Setup { head, result }),
        Err(pending) => Err(Job::Setup { head, pending }),
    }
}

/// Runs one job to completion. Pure CPU work over the shared state —
/// callable from a worker pool or inline.
pub fn run_job(job: Job, state: &ServerState) -> Done {
    match job {
        Job::Dtd { head, body } => {
            Done::Reply(contained(|| dtd_reply(state, &head, &body), internal_error))
        }
        Job::Analyze { head, body } => Done::Reply(contained(
            || analyze_reply(state, &head, &body),
            internal_error,
        )),
        Job::Independence { head } => Done::Reply(contained(
            || independence_reply(state, &head),
            internal_error,
        )),
        Job::Setup { head, pending } => {
            let result = contained(|| Ok(state.cache.compile(pending)), || Err(internal_error()));
            Done::Setup { head, result }
        }
        Job::Prune {
            mut session,
            input,
            finish,
            chunk,
        } => {
            let (session, result) = contained(
                move || {
                    let mut run = || -> Result<(), EngineError> {
                        // Feed in engine-chunk-size slices: the engine's
                        // memory bound is stated per feed call.
                        for piece in input.chunks(chunk.max(1)) {
                            session.feed(piece)?;
                        }
                        if finish {
                            let stats = session.finish()?;
                            state.metrics.record_engine(&stats.engine);
                        }
                        Ok(())
                    };
                    let result = run().map_err(PruneFail::Engine);
                    (Some(session), result)
                },
                || (None, Err(PruneFail::Panic)),
            );
            Done::Prune { session, result }
        }
    }
}

/// One thing that happened to a connection, as its driver saw it.
pub enum Input<'a> {
    /// Bytes arrived (at most [`READ_BUDGET`] of them).
    Bytes(&'a [u8]),
    /// The peer half-closed: no more request bytes will arrive, but
    /// responses may still flush.
    Eof,
    /// The transport accepted this many bytes off the front of the
    /// frame queue.
    Written(usize),
    /// The driver's clock passed [`Connection::deadline`].
    DeadlineReached,
    /// The job the machine handed out earlier finished.
    Done(Done),
    /// Graceful shutdown began (`ServerState::is_shutting_down` is set).
    ShuttingDown,
    /// The transport failed, or the driver is tearing the connection
    /// down (drain deadline): account for it and close.
    Reset,
}

/// The per-call context every transition sees: the driver's clock
/// reading and the shared state.
#[derive(Clone, Copy)]
struct Cx<'s> {
    now: Instant,
    state: &'s ServerState,
}

/// One client connection's protocol state. See the [module docs](self).
pub struct Connection {
    phase: Phase,
    /// Raw wire bytes received but not yet consumed (`in_pos` is the
    /// consumed prefix; pipelined requests simply stay here).
    in_buf: Vec<u8>,
    in_pos: usize,
    /// Serialized response frames not yet written.
    out: OutQueue,
    /// The buffer unit (`config.chunk_size`): the engine feed size, the
    /// response-commit threshold, and what the gates are multiples of.
    unit: usize,
    /// Token-bucket level for the rate limit (unused when disabled).
    rl_tokens: f64,
    /// When the bucket was last refilled.
    rl_last: Instant,
    peer_eof: bool,
    /// A request is in flight (counted in `metrics.in_flight`).
    active: bool,
    /// Endpoint + start time of the in-flight request, for latency.
    timing: Option<(Endpoint, Instant)>,
    /// The in-flight request's body has been decoded to its end, so the
    /// bytes after `in_pos` (if any) belong to a later request.
    body_consumed: bool,
    deadline: Instant,
    deadline_kind: DeadlineKind,
    /// Fixed whole-head deadline of the head being collected: set at
    /// its first byte, cleared when the connection next awaits a head.
    head_deadline: Option<Instant>,
    /// Closing with request bytes possibly unread: linger once flushed.
    linger: bool,
    /// The one job this input produced, taken by `handle` on its way out.
    job: Option<Job>,
    /// Largest `resident_bytes()` already folded into the server gauge.
    peak_resident: usize,
}

impl Connection {
    /// A freshly accepted connection, idle, with a full token bucket.
    pub fn new(state: &ServerState, now: Instant) -> Connection {
        let config = &state.config;
        Connection {
            phase: Phase::Head,
            in_buf: Vec::new(),
            in_pos: 0,
            out: OutQueue::default(),
            unit: config.chunk_size.max(1),
            rl_tokens: config.rate_limit.map_or(0.0, |(_, burst)| burst),
            rl_last: now,
            peer_eof: false,
            active: false,
            timing: None,
            body_consumed: false,
            deadline: now + config.read_timeout,
            deadline_kind: DeadlineKind::Idle,
            head_deadline: None,
            linger: false,
            job: None,
            peak_resident: 0,
        }
    }

    /// A connection that exists only to deliver `reply` (the driver's
    /// admission `503`) and close: flush, linger, done.
    pub fn refusing(reply: Vec<u8>, state: &ServerState, now: Instant) -> Connection {
        let mut conn = Connection::new(state, now);
        conn.out.push(reply);
        conn.phase = Phase::Closing;
        conn.linger = true;
        conn.deadline = now + state.config.write_timeout;
        conn.deadline_kind = DeadlineKind::Write;
        conn
    }

    /// Applies one input at the driver's clock reading `now`. Returns
    /// the job to run, if this input made the machine need one.
    pub fn handle(&mut self, input: Input<'_>, now: Instant, state: &ServerState) -> Option<Job> {
        if self.is_closed() {
            return None; // a completion or a timer that lost the race
        }
        let cx = Cx { now, state };
        let mut wrote = false;
        match input {
            Input::Bytes(data) => self.on_bytes(data, cx),
            Input::Eof => self.on_eof(cx),
            Input::Written(n) => {
                wrote = n > 0;
                self.on_written(n, cx);
            }
            Input::DeadlineReached => {
                if now < self.deadline {
                    return None; // the deadline moved; nothing is due
                }
                self.on_deadline(cx);
            }
            Input::Done(done) => self.on_done(done, cx),
            Input::ShuttingDown => {
                // Flushed and merely lingering: nothing more is owed to
                // the peer, so the drain does not wait for it. (Idle
                // connections are closed below, now and whenever one
                // goes idle under shutdown.)
                if self.half_closed() {
                    self.close(cx);
                }
            }
            Input::Reset => {
                if self.active {
                    state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                }
                self.close(cx);
            }
        }
        // Every input ends by driving the phase over what is buffered:
        // a completed request leaves pipelined bytes to parse, write
        // progress reopens the out-queue gate, `Eof` decides a starved
        // request. (A loop here, not recursion from the transitions, so
        // a read full of pipelined requests cannot deepen the stack.)
        self.advance(cx);
        // Under shutdown an idle connection has nothing left to wait
        // for: a response rendered keep-alive just before the flag
        // flipped ends its connection here, once flushed.
        if self.is_idle() && state.is_shutting_down() {
            self.close(cx);
        }
        self.refresh_deadline(cx, wrote);
        // The shared gauge is only touched when this connection sets a
        // new high-water mark of its own.
        let resident = self.resident_bytes();
        if resident > self.peak_resident {
            self.peak_resident = resident;
            state
                .metrics
                .max_conn_resident
                .fetch_max(resident as u64, Ordering::Relaxed);
        }
        self.job.take()
    }

    /// Whether the driver should read: false while a gate is shut, the
    /// executor owns the request, or nothing more can arrive.
    pub fn wants_read(&self) -> bool {
        let out_open = self.out.len < OUT_GATE_UNITS * self.unit;
        !self.peer_eof
            && match &self.phase {
                Phase::Closing | Phase::Closed => false,
                Phase::Linger { .. } => true,
                // The executor owns the request: anything more the
                // client sends can wait in the transport's buffer.
                Phase::Waiting { .. } | Phase::Setup { .. } => false,
                // A stream drains `in_buf` only as fast as the engine
                // keeps up, so the undecoded backlog gates reads too —
                // otherwise a fast sender turns `in_buf` into an
                // unbounded staging area while jobs lag.
                Phase::Prune(p) => {
                    !p.body_done
                        && p.pending_in.len() < IN_GATE_UNITS * self.unit
                        && self.in_buf.len() - self.in_pos < IN_GATE_UNITS * self.unit
                        && out_open
                }
                Phase::Head | Phase::Body { .. } => out_open,
            }
    }

    /// Response bytes queued and not yet reported `Written`.
    pub fn pending_out(&self) -> usize {
        self.out.len
    }

    /// Fills `iov` with gather slices over the unwritten front of the
    /// frame queue; returns how many were filled.
    pub fn gather<'a>(&'a self, iov: &mut [IoSlice<'a>]) -> usize {
        self.out.gather(iov)
    }

    /// When the connection's one live deadline expires (`None` once
    /// closed). Deliver `Input::DeadlineReached` at or after it.
    pub fn deadline(&self) -> Option<Instant> {
        (!self.is_closed()).then_some(self.deadline)
    }

    /// The machine has written its last byte: the driver half-closes
    /// the write side and keeps reading until the machine closes.
    pub fn half_closed(&self) -> bool {
        matches!(self.phase, Phase::Linger { .. })
    }

    /// Terminal: the driver drops the transport.
    pub fn is_closed(&self) -> bool {
        matches!(self.phase, Phase::Closed)
    }

    /// Between requests with nothing buffered either way.
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, Phase::Head)
            && !self.active
            && self.in_pos >= self.in_buf.len()
            && self.out.len == 0
    }

    /// A request is in flight (what the drain deadline aborts).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Application-level bytes this connection holds: both wire
    /// buffers, a buffered body, the stream's staging buffers and the
    /// engine session's own residency. For a streaming request this is
    /// bounded by configuration alone, independent of document size:
    ///
    /// ```text
    /// in_buf      ≤ 2·READ_BUDGET + max(2u, max_header_bytes)
    ///               (consumed prefix awaiting compaction + one read + the backlog gate)
    /// pending_in  ≤ 2u                            (the input gate)
    /// out         ≤ 4u + one job's frames         (the output gate)
    /// buffering   ≤ u + one job's output          (the commit threshold)
    /// session     ≤ the engine's O(depth + max-token + u) bound
    /// ```
    ///
    /// with `u` = `config.chunk_size`. `tests/simulation.rs` states the
    /// sum as a function of `u` and asserts it after every input.
    pub fn resident_bytes(&self) -> usize {
        let mut bytes = self.in_buf.len() + self.out.len;
        match &self.phase {
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
        bytes
    }

    // ---- inputs ----------------------------------------------------

    fn on_bytes(&mut self, data: &[u8], cx: Cx<'_>) {
        if let Phase::Linger { discarded } = &mut self.phase {
            *discarded += data.len();
            if *discarded > LINGER_MAX_BYTES {
                self.close(cx);
            }
            return;
        }
        // Compact the consumed prefix before growing.
        if self.in_pos > 0 && self.in_pos == self.in_buf.len() {
            self.in_buf.clear();
            self.in_pos = 0;
        } else if self.in_pos > READ_BUDGET {
            self.in_buf.drain(..self.in_pos);
            self.in_pos = 0;
        }
        self.in_buf.extend_from_slice(data);
    }

    /// Between requests `Eof` is a clean close; with a response still
    /// flushing it is a half-close (keep writing); with a job out the
    /// job's result decides; mid-request it is a `400 connection closed
    /// mid-request`. The phase decides at its next "need more input"
    /// point.
    fn on_eof(&mut self, cx: Cx<'_>) {
        self.peer_eof = true;
        if self.half_closed() {
            self.close(cx);
        }
    }

    fn on_written(&mut self, n: usize, cx: Cx<'_>) {
        self.out.consume(n);
        if self.out.len == 0 && matches!(self.phase, Phase::Closing) {
            self.flushed(cx);
        }
    }

    fn on_deadline(&mut self, cx: Cx<'_>) {
        let streaming = matches!(&self.phase, Phase::Prune(p) if p.headers_sent());
        match self.deadline_kind {
            DeadlineKind::Idle | DeadlineKind::Write | DeadlineKind::Linger => self.close(cx),
            DeadlineKind::Head => self.timeout_reply("request head timed out", cx),
            DeadlineKind::Body if streaming => {
                cx.state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                self.close(cx);
            }
            DeadlineKind::Body => self.timeout_reply("body read timed out", cx),
        }
    }

    fn on_done(&mut self, done: Done, cx: Cx<'_>) {
        match (done, &self.phase) {
            (Done::Reply(reply), &Phase::Waiting { client_keep }) => {
                self.send_reply(reply, client_keep, cx)
            }
            (Done::Setup { head, result }, &Phase::Setup { endpoint }) => {
                self.setup_done(head, endpoint, result, cx)
            }
            (Done::Prune { session, result }, Phase::Prune(_)) => {
                self.prune_done(session, result, cx)
            }
            // The request died (a deadline, a reset) while the job ran.
            _ => {}
        }
    }

    // ---- deadlines -------------------------------------------------

    /// Recomputes which deadline the connection carries from its phase
    /// and buffers; runs after every input. `wrote` says the input was
    /// write progress, the only thing that re-arms a write-stall clock.
    fn refresh_deadline(&mut self, cx: Cx<'_>, wrote: bool) {
        let read_t = cx.state.config.read_timeout;
        let write_t = cx.state.config.write_timeout;
        let (kind, deadline) = match &self.phase {
            Phase::Closed => return,
            Phase::Linger { .. } => {
                if self.deadline_kind == DeadlineKind::Linger {
                    return; // absolute, set when the linger began
                }
                (DeadlineKind::Linger, cx.now + LINGER_TIMEOUT)
            }
            // Queued output for a (possibly) unreading client: the
            // write-stall clock dominates.
            _ if self.out.len > 0 => {
                if self.deadline_kind == DeadlineKind::Write && !wrote {
                    return;
                }
                (DeadlineKind::Write, cx.now + write_t)
            }
            Phase::Head if self.in_pos < self.in_buf.len() => {
                // Mid-head: the absolute deadline starts at the first
                // byte and does not move with later ones.
                let d = *self.head_deadline.get_or_insert(cx.now + read_t);
                (DeadlineKind::Head, d)
            }
            Phase::Head => (DeadlineKind::Idle, cx.now + read_t),
            // Mid-request: rolling, refreshed by every input.
            _ => (DeadlineKind::Body, cx.now + read_t),
        };
        self.deadline_kind = kind;
        self.deadline = deadline;
    }

    fn timeout_reply(&mut self, message: &str, cx: Cx<'_>) {
        self.send_reply(Reply::err(408, codes::TIMEOUT, message), false, cx);
    }

    // ---- closing ---------------------------------------------------

    /// Terminal transition; accounts for an abandoned in-flight request.
    fn close(&mut self, cx: Cx<'_>) {
        if self.active {
            self.active = false;
            cx.state.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        }
        self.phase = Phase::Closed;
    }

    fn flushed(&mut self, cx: Cx<'_>) {
        if self.linger && !self.peer_eof {
            self.in_buf = Vec::new();
            self.in_pos = 0;
            self.phase = Phase::Linger { discarded: 0 };
        } else {
            self.close(cx);
        }
    }

    // ---- responses -------------------------------------------------

    /// The one keep-alive decision, taken at the moment a response head
    /// is rendered.
    fn keep_alive(client_keep: bool, cx: Cx<'_>) -> bool {
        client_keep && !cx.state.is_shutting_down()
    }

    /// Ends the in-flight request's accounting (latency, the in-flight
    /// gauge); returns whether there was one.
    fn end_request(&mut self, cx: Cx<'_>) -> bool {
        if let Some((endpoint, t0)) = self.timing.take() {
            let took = cx.now.saturating_duration_since(t0);
            cx.state.metrics.record_latency(endpoint, took);
        }
        let was_request = self.active;
        if was_request {
            self.active = false;
            cx.state.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        }
        was_request
    }

    /// The response is queued and the connection will not serve
    /// another: flush, then linger unless the request was read to its
    /// end with nothing behind it.
    fn close_after_response(&mut self, was_request: bool, cx: Cx<'_>) {
        let consumed = was_request && self.body_consumed && self.in_pos >= self.in_buf.len();
        self.close_when_flushed(!consumed, cx);
    }

    /// No more requests will be served: flush what is queued, then
    /// linger (if asked, and the peer has not said `Eof`) or close.
    fn close_when_flushed(&mut self, linger: bool, cx: Cx<'_>) {
        self.linger = linger;
        self.phase = Phase::Closing;
        if self.out.len == 0 {
            self.flushed(cx);
        }
    }

    /// Marks the in-flight request complete (response fully queued):
    /// latency, drained-under-shutdown accounting, and the transition
    /// to the next request or to `Closing`.
    fn complete_request(&mut self, keep: bool, cx: Cx<'_>) {
        let was_request = self.end_request(cx);
        // Only genuine requests count as drained (a head-parse error
        // under shutdown does not), and only while the drain is still
        // graceful.
        if was_request && cx.state.is_shutting_down() && !cx.state.is_hard_aborting() {
            cx.state.metrics.drained.fetch_add(1, Ordering::Relaxed);
        }
        if keep {
            self.phase = Phase::Head;
            self.head_deadline = None;
        } else {
            self.close_after_response(was_request, cx);
        }
    }

    /// Serializes a decided [`Reply`] into the frame queue and
    /// completes the request. Error replies always close (and count):
    /// the body may be half-read, so the framing cannot be trusted.
    fn send_reply(&mut self, reply: Reply, client_keep: bool, cx: Cx<'_>) {
        let (bytes, keep) = match reply {
            Reply::Ok {
                status,
                content_type,
                body,
            } => {
                let keep = Self::keep_alive(client_keep, cx);
                (
                    render_response(status, content_type, body.as_bytes(), keep, &[]),
                    keep,
                )
            }
            Reply::Err {
                status,
                code,
                message,
            } => {
                cx.state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                (render_json_error(status, &code, &message, &[]), false)
            }
        };
        self.out.push(bytes);
        self.complete_request(keep, cx);
    }

    /// Answers a protocol-level [`HttpError`] and closes.
    fn protocol_error(&mut self, e: &HttpError, cx: Cx<'_>) {
        self.send_reply(reply_for_http_error(e), false, cx);
    }

    fn bad_request(&mut self, message: &str, cx: Cx<'_>) {
        self.send_reply(Reply::err(400, codes::BAD_REQUEST, message), false, cx);
    }

    fn peer_eof_mid_request(&mut self, cx: Cx<'_>) {
        self.bad_request("connection closed mid-request", cx);
    }

    /// Spends one token of the connection's bucket (refilled at `rps`
    /// up to `burst`); on an empty bucket returns the `Retry-After`.
    fn rate_limited(&mut self, cx: Cx<'_>) -> Option<String> {
        let (rps, burst) = cx.state.config.rate_limit?;
        let dt = cx.now.saturating_duration_since(self.rl_last).as_secs_f64();
        self.rl_last = cx.now;
        self.rl_tokens = (self.rl_tokens + dt * rps).min(burst);
        if self.rl_tokens >= 1.0 {
            self.rl_tokens -= 1.0;
            return None;
        }
        let wait = ((1.0 - self.rl_tokens) / rps).ceil().max(1.0);
        Some((wait as u64).to_string())
    }

    // ---- the request pipeline --------------------------------------

    fn dispatch(&mut self, job: Job) {
        debug_assert!(self.job.is_none(), "one job in flight per connection");
        self.job = Some(job);
    }

    /// Drives the phase over whatever is buffered, until it needs more
    /// input, a job's result, or room in the out queue.
    fn advance(&mut self, cx: Cx<'_>) {
        loop {
            let progressed = match self.phase {
                Phase::Head => self.advance_head(cx),
                Phase::Body { .. } => self.advance_body(cx),
                Phase::Prune(_) => {
                    self.pump_prune(cx);
                    false
                }
                _ => false,
            };
            if !progressed {
                return;
            }
        }
    }

    /// Tries to parse and route one request head. Returns whether the
    /// phase moved (so `advance` should look again).
    fn advance_head(&mut self, cx: Cx<'_>) -> bool {
        let buf = &self.in_buf[self.in_pos..];
        if buf.is_empty() {
            if self.peer_eof {
                // A clean end between requests — once the responses
                // still queued have gone out.
                self.close_when_flushed(false, cx);
            }
            return false;
        }
        // The out-queue gate covers pipelining too: the next request is
        // not started while the client leaves a cap's worth unread.
        if self.out.len >= OUT_GATE_UNITS * self.unit {
            return false;
        }
        match parse_head(buf, cx.state.config.max_header_bytes) {
            Ok(None) => {
                if self.peer_eof {
                    self.peer_eof_mid_request(cx);
                }
                false
            }
            Ok(Some((head, consumed))) => {
                self.in_pos += consumed;
                self.active = true;
                self.body_consumed =
                    matches!(body_kind(&head), Ok(BodyKind::None | BodyKind::Length(0)));
                let endpoint = route(&head);
                self.timing = Some((endpoint, cx.now));
                cx.state.metrics.requests.fetch_add(1, Ordering::Relaxed);
                cx.state.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
                match self.rate_limited(cx) {
                    Some(retry_after) => self.rate_limit_reject(&retry_after, cx),
                    None => self.route_request(head, endpoint, cx),
                }
                true
            }
            Err(e) => {
                self.protocol_error(&e, cx);
                false
            }
        }
    }

    /// `429` + `Retry-After`, then close (error replies never keep
    /// alive).
    fn rate_limit_reject(&mut self, retry_after: &str, cx: Cx<'_>) {
        cx.state
            .metrics
            .rate_limited
            .fetch_add(1, Ordering::Relaxed);
        cx.state.metrics.errors.fetch_add(1, Ordering::Relaxed);
        self.out.push(render_json_error(
            429,
            codes::RATE_LIMITED,
            "per-connection rate limit exceeded, slow down",
            &[("retry-after", retry_after)],
        ));
        self.complete_request(false, cx);
    }

    fn route_request(&mut self, head: RequestHead, endpoint: Endpoint, cx: Cx<'_>) {
        match (endpoint, head.method.as_str()) {
            (Endpoint::Healthz, "GET")
            | (Endpoint::Metrics, "GET")
            | (Endpoint::Shutdown, "POST") => self.enter_body(head, endpoint, true, cx),
            (Endpoint::Dtd, "POST")
            | (Endpoint::Analyze, "POST")
            | (Endpoint::Independence, "POST") => self.enter_body(head, endpoint, false, cx),
            // A cache hit is decided here, like `/healthz`: only the
            // compile of a miss is work worth a job.
            (Endpoint::Prune, "POST") | (Endpoint::Query, "POST") => {
                let lookup = || artifact_lookup(cx.state, &head);
                match contained(lookup, || Err(internal_error())) {
                    Ok(Lookup::Hit(artifact)) => self.setup_done(head, endpoint, Ok(artifact), cx),
                    Ok(Lookup::Miss(pending)) => {
                        self.phase = Phase::Setup { endpoint };
                        self.dispatch(Job::Setup { head, pending });
                    }
                    Err(reply) => self.send_reply(reply, false, cx),
                }
            }
            (Endpoint::Other, _) => self.send_reply(
                Reply::err(404, codes::NOT_FOUND, "no such endpoint"),
                false,
                cx,
            ),
            (_, method) => {
                let message = format!("{method} is not supported on {}", head.path);
                self.send_reply(
                    Reply::err(405, codes::METHOD_NOT_ALLOWED, message),
                    false,
                    cx,
                );
            }
        }
    }

    /// Starts collecting a buffered endpoint's body (or draining it for
    /// the bodyless endpoints), honouring `Expect: 100-continue`.
    fn enter_body(&mut self, head: RequestHead, endpoint: Endpoint, discard: bool, cx: Cx<'_>) {
        let kind = match body_kind(&head) {
            Ok(k) => k,
            Err(e) => return self.protocol_error(&e, cx),
        };
        if !discard && kind != BodyKind::None && head.expects_continue() {
            self.out.push(b"HTTP/1.1 100 Continue\r\n\r\n".to_vec());
        }
        let mut limit = cx.state.config.max_body_bytes;
        if endpoint == Endpoint::Dtd {
            limit = limit.min(MAX_DTD_BODY_BYTES);
        }
        self.phase = Phase::Body {
            head,
            endpoint,
            decoder: BodyDecoder::new(kind, limit),
            body: Vec::new(),
            discard,
        };
    }

    /// Decodes buffered wire bytes into the body; finishes the request
    /// when the body is complete. Returns whether the phase moved.
    fn advance_body(&mut self, cx: Cx<'_>) -> bool {
        let Phase::Body {
            decoder,
            body,
            discard,
            ..
        } = &mut self.phase
        else {
            return false;
        };
        let discard = *discard;
        if !decoder.is_done() {
            if self.in_pos >= self.in_buf.len() {
                if self.peer_eof {
                    self.peer_eof_mid_request(cx);
                }
                return false;
            }
            match decoder.decode(&self.in_buf[self.in_pos..], body) {
                Ok(n) => {
                    self.in_pos += n;
                    if discard {
                        body.clear();
                    }
                }
                Err(e) => {
                    self.protocol_error(&e, cx);
                    return false;
                }
            }
            if !decoder.is_done() {
                return false;
            }
        }
        self.finish_body(cx);
        true
    }

    /// The buffered body is complete: answer inline (healthz, metrics,
    /// shutdown) or hand the CPU work out (dtd, analyze, independence).
    fn finish_body(&mut self, cx: Cx<'_>) {
        let Phase::Body {
            head,
            endpoint,
            body,
            ..
        } = std::mem::replace(&mut self.phase, Phase::Head)
        else {
            return;
        };
        self.body_consumed = true;
        let client_keep = head.keep_alive();
        match endpoint {
            Endpoint::Healthz => self.send_reply(Reply::json(HEALTHZ_BODY), client_keep, cx),
            Endpoint::Metrics => self.send_reply(metrics_reply(cx.state, &head), client_keep, cx),
            Endpoint::Shutdown => {
                // Flip the flag first: this response is then rendered
                // `connection: close` and counted as drained, like
                // every other request completing under shutdown.
                cx.state.trigger_shutdown();
                self.send_reply(Reply::json(SHUTDOWN_BODY), client_keep, cx);
            }
            Endpoint::Dtd => {
                self.phase = Phase::Waiting { client_keep };
                self.dispatch(Job::Dtd { head, body });
            }
            Endpoint::Analyze => {
                self.phase = Phase::Waiting { client_keep };
                self.dispatch(Job::Analyze { head, body });
            }
            Endpoint::Independence => {
                // The body (if any) is irrelevant: the checker reads
                // only the parameters.
                self.phase = Phase::Waiting { client_keep };
                self.dispatch(Job::Independence { head });
            }
            Endpoint::Prune | Endpoint::Query | Endpoint::Other => {
                unreachable!("not buffered endpoints")
            }
        }
    }

    /// Artifact setup finished: start the endpoint's pass over the
    /// artifact — pruned XML out, or x-ndjson match frames — validate
    /// framing, and enter the streaming phase.
    fn setup_done(
        &mut self,
        head: RequestHead,
        endpoint: Endpoint,
        result: Result<Arc<QueryArtifact>, Reply>,
        cx: Cx<'_>,
    ) {
        let artifact = match result {
            Ok(artifact) => artifact,
            Err(reply) => return self.send_reply(reply, false, cx),
        };
        let kind = match body_kind(&head) {
            Ok(BodyKind::None) => {
                return self.bad_request("a request body (the XML document) is required", cx)
            }
            Ok(k) => k,
            Err(e) => return self.protocol_error(&e, cx),
        };
        let (mode, content_type) = if endpoint == Endpoint::Query {
            (QueryOutput::Frames, "application/x-ndjson")
        } else {
            (QueryOutput::Pruned, "application/xml")
        };
        let mut session = Box::new(QueryMachine::new(artifact, mode));
        session.set_fast_forward(fast_forward_param(&head));
        if head.expects_continue() {
            self.out.push(b"HTTP/1.1 100 Continue\r\n\r\n".to_vec());
        }
        self.phase = Phase::Prune(Box::new(PruneState {
            content_type,
            session: Some(session),
            decoder: BodyDecoder::new(kind, cx.state.config.max_body_bytes),
            pending_in: Vec::new(),
            body_done: false,
            job_out: false,
            finishing: false,
            resp: RespFraming::Buffering(Vec::new()),
            client_keep: head.keep_alive(),
        }));
    }

    /// The stream pump: decode buffered wire bytes into `pending_in`
    /// (bounded), dispatch a feed job when the engine is free.
    fn pump_prune(&mut self, cx: Cx<'_>) {
        let chunk = self.unit;
        let Phase::Prune(p) = &mut self.phase else {
            return;
        };
        // 1. Decode wire → pending_in, respecting the input gate (a
        //    decoded byte never outnumbers its wire bytes, so capping
        //    the input slice caps the growth).
        let mut framing_error = None;
        while !p.body_done
            && p.pending_in.len() < IN_GATE_UNITS * self.unit
            && self.in_pos < self.in_buf.len()
        {
            let budget = IN_GATE_UNITS * self.unit - p.pending_in.len();
            let end = (self.in_pos + budget).min(self.in_buf.len());
            match p
                .decoder
                .decode(&self.in_buf[self.in_pos..end], &mut p.pending_in)
            {
                Ok(n) => {
                    self.in_pos += n;
                    p.body_done = p.decoder.is_done();
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
        if p.body_done {
            self.body_consumed = true;
        }
        let headers_sent = p.headers_sent();
        if let Some(e) = framing_error {
            if headers_sent {
                self.abort_streaming(cx);
            } else {
                self.protocol_error(&e, cx);
            }
            return;
        }
        // 2. Eof with the body incomplete and nothing left to decode
        //    or feed: the request can never finish.
        let starved = !p.body_done
            && self.peer_eof
            && self.in_pos >= self.in_buf.len()
            && p.pending_in.is_empty()
            && !p.job_out;
        if starved {
            if headers_sent {
                self.abort_streaming(cx);
            } else {
                self.peer_eof_mid_request(cx);
            }
            return;
        }
        // 3. Dispatch engine work when the session is home and there
        //    is something to do — unless the client is not draining
        //    the response (out queue at cap), which pauses the pipeline.
        let want_feed = !p.pending_in.is_empty();
        let want_finish = p.body_done && !p.finishing;
        if !p.job_out && (want_feed || want_finish) && self.out.len < OUT_GATE_UNITS * self.unit {
            let Some(session) = p.session.take() else {
                return;
            };
            let input = std::mem::take(&mut p.pending_in);
            let finish = p.body_done;
            p.job_out = true;
            p.finishing = finish;
            self.dispatch(Job::Prune {
                session,
                input,
                finish,
                chunk,
            });
        }
    }

    /// A feed/finish job came back: move its output into the response
    /// framing, finish or continue.
    fn prune_done(
        &mut self,
        session: Option<Box<QueryMachine>>,
        result: Result<(), PruneFail>,
        cx: Cx<'_>,
    ) {
        let Phase::Prune(p) = &mut self.phase else {
            return;
        };
        p.job_out = false;
        p.session = session;
        let content_type = p.content_type;

        // The session's output is drained straight into the buffer it
        // is going to: the response buffer, or a chunk frame.
        let mut frames: Vec<u8> = Vec::new();
        match (&mut p.resp, p.session.as_mut()) {
            (RespFraming::Buffering(buf), session) => {
                if let Some(s) = session {
                    s.take_output(buf);
                }
                if buf.len() > self.unit {
                    // Commit to streaming: head + everything buffered
                    // so far as the first chunk. This holds even when
                    // the commit happens on the finishing job, so total
                    // output above the threshold is always chunked.
                    let keep = Self::keep_alive(p.client_keep, cx);
                    let head = response_head(200, content_type, None, keep, &[]);
                    frames.extend_from_slice(head.as_bytes());
                    push_chunk_frame(&mut frames, buf.len(), |out| out.extend_from_slice(buf));
                    p.resp = RespFraming::Streaming { keep };
                }
            }
            (RespFraming::Streaming { .. }, Some(s)) => {
                push_chunk_frame(&mut frames, s.pending_output(), |out| s.take_output(out))
            }
            (RespFraming::Streaming { .. }, None) => {}
        }
        let finished = p.finishing;
        let headers_sent = p.headers_sent();
        match result {
            Ok(()) if finished => self.finish_stream(frames, cx),
            Ok(()) => self.out.push(frames),
            Err(_) if headers_sent => {
                self.out.push(frames);
                self.abort_streaming(cx);
            }
            Err(fail) => {
                let reply = match fail {
                    PruneFail::Engine(e) => reply_for_engine_error(&e),
                    PruneFail::Panic => internal_error(),
                };
                self.send_reply(reply, false, cx);
            }
        }
    }

    /// Queues a finished stream's terminating bytes: the buffered
    /// Content-Length response if nothing streamed yet, else the last
    /// frames plus the terminal chunk.
    fn finish_stream(&mut self, frames: Vec<u8>, cx: Cx<'_>) {
        let Phase::Prune(p) = &mut self.phase else {
            return;
        };
        let keep = match std::mem::replace(&mut p.resp, RespFraming::Streaming { keep: false }) {
            RespFraming::Buffering(buf) => {
                // Everything fit: Content-Length framing. Head and body
                // are two gathered frames — the body is moved, not
                // copied.
                let keep = Self::keep_alive(p.client_keep, cx);
                let head = response_head(200, p.content_type, Some(buf.len()), keep, &[]);
                self.out.push(head.into_bytes());
                self.out.push(buf);
                keep
            }
            RespFraming::Streaming { keep } => {
                self.out.push(frames);
                self.out.push(b"0\r\n\r\n".to_vec());
                // The head may predate shutdown: the stream still ends
                // the connection, the one close a header did not announce.
                Self::keep_alive(keep, cx)
            }
        };
        self.complete_request(keep, cx);
    }

    /// Aborts a stream mid-response: flush what is queued (without the
    /// terminating chunk — the client must see the truncation), then
    /// close.
    fn abort_streaming(&mut self, cx: Cx<'_>) {
        cx.state.metrics.errors.fetch_add(1, Ordering::Relaxed);
        let was_request = self.end_request(cx);
        self.close_after_response(was_request, cx);
    }
}

/// Appends one chunked-transfer frame of the `len` bytes `fill` writes
/// (an empty one appends nothing: a zero-length chunk would terminate
/// the stream).
fn push_chunk_frame(out: &mut Vec<u8>, len: usize, fill: impl FnOnce(&mut Vec<u8>)) {
    if len == 0 {
        return;
    }
    let _ = write!(out, "{len:x}\r\n"); // into the `Vec`: infallible
    fill(out);
    out.extend_from_slice(b"\r\n");
}
