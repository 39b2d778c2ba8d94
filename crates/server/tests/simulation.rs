//! Deterministic simulation of the `Connection` machine: no sockets, no
//! sleeps, an injected clock, testkit-seeded schedules.
//!
//! A [`Sim`] holds N machines over one `ServerState` and plays the
//! driver by hand: it delivers request bytes in fragments of 1 B … the
//! read budget (only while `wants_read()`), accepts 0 … all of the
//! queued output per step, runs each job the moment it is handed out
//! but holds its completion back for a random number of steps (so
//! completions reorder across connections), and steps the clock. The
//! properties:
//!
//! 1. the parsed response sequence of any schedule equals the trivial
//!    schedule's (whole input in one `Bytes`, unbounded writes,
//!    completions delivered immediately) and the in-process engine's;
//! 2. `resident_bytes()` stays under [`residency_bound`], written from
//!    `ServerConfig` alone, whatever the document size;
//! 3. liveness — after every input the machine wants input, has a job
//!    out, has output queued, has a deadline armed, or is closed; and
//!    the schedule never needs a timer to finish;
//! 4. timers fire at exact instants of the injected clock;
//! 5. shutdown, `Eof` and executor-panic accounting.
//!
//! The adversarial wall (`fuzz_wall_*`) throws random bytes and mutated
//! valid requests at the same harness and asserts no panic, liveness
//! and the residency bound.
//!
//! `TESTKIT_FUZZ_CASES=n` scales the seeded tests; a failure prints the
//! `TESTKIT_SEED=0x…` that replays it.

mod common;

use common::run_query;
use std::io::IoSlice;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xproj_dtd::parse_dtd;
use xproj_engine::{QueryArtifact, QueryOutput};
use xproj_server::conn::{
    run_job, Connection, Done, Input, PruneFail, LINGER_MAX_BYTES, LINGER_TIMEOUT, READ_BUDGET,
};
use xproj_server::{ServerConfig, ServerState};
use xproj_testkit::{case_seed, urlencode, SplitMix64};

const BIB_DTD: &str = "<!ELEMENT bib (book*)>\
     <!ELEMENT book (title, author*, price?)>\
     <!ELEMENT title (#PCDATA)>\
     <!ELEMENT author (#PCDATA)>\
     <!ELEMENT price (#PCDATA)>";
/// Longest token and deepest nesting of any [`bib_doc`].
const MAX_TOKEN: usize = 64;
const MAX_DEPTH: usize = 4;

/// A `bib` document of `books` books (≈ 90 bytes each).
fn bib_doc(books: usize) -> String {
    let mut doc = String::from("<bib>");
    for i in 0..books {
        doc.push_str(&format!(
            "<book><title>Title {i}</title><author>A{i}</author><author>B</author>\
             <price>{}</price></book>",
            i % 97
        ));
    }
    doc.push_str("</bib>");
    doc
}

/// A configuration small enough that every gate bites on kilobyte
/// documents; deadlines far beyond what a schedule's clock can reach.
fn sim_config() -> ServerConfig {
    ServerConfig {
        chunk_size: 512,
        read_timeout: Duration::from_secs(3600),
        write_timeout: Duration::from_secs(3600),
        ..Default::default()
    }
}

/// Property 2's bound, a function of the one buffer unit `u` =
/// `chunk_size` (plus the three things it does not bound: the head
/// limit, the largest buffered-endpoint body a script sends, and the
/// engine's own O(depth + max-token + u) session bound for the
/// documents used). Term by term:
///
/// * `in_buf`: ≤ one read budget of consumed prefix awaiting
///   compaction, plus the backlog a read is still allowed on top of (an
///   unfinished head, or the stream's 2u backlog gate), plus one read;
/// * `pending_in`: the 2u input gate;
/// * out queue + response buffer: a feed job is only dispatched below
///   the 4u output gate, and its output (≤ its ≤ 2u input, at most
///   doubled by JSON escaping, plus framing) lands either in the buffer
///   (≤ u before it commits) or the queue;
/// * a buffered endpoint's body; the session.
fn residency_bound(config: &ServerConfig, buffered_body: usize) -> usize {
    let u = config.chunk_size;
    let job_output = 4 * u + 512;
    let session = 8 * (MAX_TOKEN + u) + 64 * (1 + MAX_DEPTH) + job_output;
    let in_buf = 2 * READ_BUDGET + (2 * u).max(config.max_header_bytes);
    in_buf + (2 + 4 + 1) * u + 2 * job_output + buffered_body + session
}

// ---- requests ------------------------------------------------------

enum Body<'a> {
    None,
    Length(&'a [u8]),
    Chunked(&'a [u8], usize),
}

fn request(method: &str, target: &str, headers: &[(&str, &str)], body: Body<'_>) -> Vec<u8> {
    let mut out = format!("{method} {target} HTTP/1.1\r\nhost: sim\r\n").into_bytes();
    for (n, v) in headers {
        out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
    }
    match body {
        Body::None => out.extend_from_slice(b"\r\n"),
        Body::Length(b) => {
            out.extend_from_slice(format!("content-length: {}\r\n\r\n", b.len()).as_bytes());
            out.extend_from_slice(b);
        }
        Body::Chunked(b, step) => {
            out.extend_from_slice(b"transfer-encoding: chunked\r\n\r\n");
            for piece in b.chunks(step.max(1)) {
                out.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
                out.extend_from_slice(piece);
                out.extend_from_slice(b"\r\n");
            }
            out.extend_from_slice(b"0\r\n\r\n");
        }
    }
    out
}

fn bib_id() -> String {
    format!("{:016x}", parse_dtd(BIB_DTD, "bib").unwrap().fingerprint())
}

fn register_bib() -> Vec<u8> {
    request(
        "POST",
        "/v1/dtd?root=bib",
        &[],
        Body::Length(BIB_DTD.as_bytes()),
    )
}

fn stream_target(endpoint: &str, query: &str) -> String {
    format!("/v1/{endpoint}?dtd={}&query={}", bib_id(), urlencode(query))
}

// ---- responses -----------------------------------------------------

#[derive(Clone, PartialEq, Eq)]
struct Response {
    status: u16,
    content_type: String,
    connection: String,
    chunked: bool,
    body: Vec<u8>,
    /// A chunked body that ended without its terminal chunk.
    truncated: bool,
    /// Offset just past this response in the connection's output.
    end: usize,
}

impl std::fmt::Debug for Response {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Response {
            status,
            content_type,
            connection,
            chunked,
            body,
            truncated,
            end,
        } = self;
        let preview = String::from_utf8_lossy(&body[..body.len().min(120)]);
        write!(
            f,
            "{status} {content_type} connection={connection} chunked={chunked} \
             truncated={truncated} end={end} body[{}]={preview:?}",
            body.len()
        )
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Parses everything a connection wrote into its response sequence
/// (interim `100 Continue`s are skipped). Returns the responses and
/// whether the byte stream ended exactly at a response boundary.
fn parse_responses(all: &[u8]) -> (Vec<Response>, bool) {
    let mut wire = all;
    let mut out = Vec::new();
    while !wire.is_empty() {
        let Some(end) = find(wire, b"\r\n\r\n") else {
            return (out, false);
        };
        let head = String::from_utf8_lossy(&wire[..end]).into_owned();
        wire = &wire[end + 4..];
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line in {head:?}"));
        if status == 100 {
            continue;
        }
        let header = |name: &str| {
            head.split("\r\n")
                .skip(1)
                .filter_map(|l| l.split_once(": "))
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.to_string())
        };
        let mut resp = Response {
            status,
            content_type: header("content-type").unwrap_or_default(),
            connection: header("connection").unwrap_or_default(),
            chunked: header("transfer-encoding").as_deref() == Some("chunked"),
            body: Vec::new(),
            truncated: false,
            end: 0,
        };
        if resp.chunked {
            loop {
                let Some(eol) = find(wire, b"\r\n") else {
                    resp.truncated = true;
                    break;
                };
                let size = usize::from_str_radix(std::str::from_utf8(&wire[..eol]).unwrap(), 16)
                    .expect("chunk size");
                if wire.len() < eol + 2 + size + 2 {
                    resp.truncated = true;
                    break;
                }
                resp.body.extend_from_slice(&wire[eol + 2..eol + 2 + size]);
                wire = &wire[eol + 2 + size + 2..];
                if size == 0 {
                    break;
                }
            }
        } else {
            let len: usize = header("content-length").expect("framed").parse().unwrap();
            if wire.len() < len {
                return (out, false);
            }
            resp.body = wire[..len].to_vec();
            wire = &wire[len..];
        }
        let truncated = resp.truncated;
        resp.end = all.len() - wire.len();
        out.push(resp);
        if truncated {
            return (out, false);
        }
    }
    (out, true)
}

// ---- the hand-cranked driver ---------------------------------------

/// What made a connection stop serving (closed, or half-closed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ended {
    /// The peer's `Eof`, a reset, a timer, or shutdown finding it idle:
    /// no response owes anyone a `connection: close`.
    External,
    /// The machine's own decision while handling bytes, write progress
    /// or a completion: the last response must have announced it.
    AfterResponse,
}

struct Peer {
    conn: Connection,
    /// Request bytes the client will send, and how many it has.
    script: Vec<u8>,
    sent: usize,
    /// The client half-closes once its script is sent.
    eof_after_script: bool,
    eof_sent: bool,
    /// Everything the machine has written.
    received: Vec<u8>,
    /// The finished job held back from the machine, and for how long.
    done: Option<(Done, u32)>,
    ended: Option<Ended>,
    max_resident: usize,
}

struct Sim {
    state: Arc<ServerState>,
    now: Instant,
    peers: Vec<Peer>,
    /// Largest buffered-endpoint body any script sends.
    buffered_body: usize,
    check_residency: bool,
}

impl Sim {
    fn new(config: ServerConfig) -> Sim {
        let addr = "127.0.0.1:0".parse().unwrap();
        Sim {
            state: Arc::new(ServerState::new(config, addr)),
            now: Instant::now(),
            peers: Vec::new(),
            buffered_body: BIB_DTD.len(),
            check_residency: true,
        }
    }

    fn connect(&mut self, script: Vec<u8>, eof_after_script: bool) -> usize {
        self.peers.push(Peer {
            conn: Connection::new(&self.state, self.now),
            script,
            sent: 0,
            eof_after_script,
            eof_sent: false,
            received: Vec::new(),
            done: None,
            ended: None,
            max_resident: 0,
        });
        self.peers.len() - 1
    }

    /// Feeds one input and checks what must hold after *every* input.
    fn feed(&mut self, i: usize, input: Input<'_>) {
        let p = &mut self.peers[i];
        // Once the peer has said `Eof`, the close is the peer's.
        let external = p.eof_sent
            || matches!(
                input,
                Input::Eof | Input::Reset | Input::DeadlineReached | Input::ShuttingDown
            );
        let was_serving = !p.conn.is_closed() && !p.conn.half_closed();
        let job = p.conn.handle(input, self.now, &self.state);
        if let Some(job) = job {
            assert!(p.done.is_none(), "a second job while one is in flight");
            p.done = Some((run_job(job, &self.state), 0));
        }
        if was_serving && (p.conn.is_closed() || p.conn.half_closed()) {
            p.ended = Some(if external {
                Ended::External
            } else {
                Ended::AfterResponse
            });
        }
        // Property 3.
        assert!(
            p.conn.wants_read()
                || p.done.is_some()
                || p.conn.pending_out() > 0
                || p.conn.deadline().is_some()
                || p.conn.is_closed(),
            "connection {i} is waiting for nothing"
        );
        assert_eq!(p.conn.deadline().is_none(), p.conn.is_closed());
        // Property 2.
        let resident = p.conn.resident_bytes();
        p.max_resident = p.max_resident.max(resident);
        if self.check_residency {
            let bound = residency_bound(&self.state.config, self.buffered_body);
            assert!(
                resident <= bound,
                "connection {i} holds {resident} bytes, bound {bound}"
            );
        }
    }

    /// Accepts up to `cap` bytes of queued output.
    fn write(&mut self, i: usize, cap: usize) {
        let want = cap.min(self.peers[i].conn.pending_out());
        let mut took = 0;
        while took < want {
            let p = &mut self.peers[i];
            let mut iov = [IoSlice::new(&[]); 8];
            let n = p.conn.gather(&mut iov);
            assert!(n > 0, "pending_out() > 0 but nothing to gather");
            let mut batch = 0;
            for slice in &iov[..n] {
                let k = slice.len().min(want - took - batch);
                p.received.extend_from_slice(&slice[..k]);
                batch += k;
            }
            took += batch;
            self.feed(i, Input::Written(batch));
        }
        if want == 0 {
            self.feed(i, Input::Written(0));
        }
    }

    fn deliver_done(&mut self, i: usize) {
        if let Some((done, _)) = self.peers[i].done.take() {
            self.feed(i, Input::Done(done));
        }
    }

    /// The trivial schedule, one connection after the other: the whole
    /// script in one `Bytes`, unbounded writes, completions at once.
    fn run_trivially(&mut self) {
        self.check_residency = false; // one `Bytes` ignores the read budget
        for i in 0..self.peers.len() {
            let script = std::mem::take(&mut self.peers[i].script);
            self.feed(i, Input::Bytes(&script));
            self.peers[i].sent = script.len();
            self.peers[i].script = script;
            self.settle(i);
            if !self.peers[i].conn.is_closed() {
                self.peers[i].eof_sent = true;
                self.feed(i, Input::Eof);
                self.settle(i);
            }
        }
    }

    /// Completions and writes until the connection has neither.
    fn settle(&mut self, i: usize) {
        loop {
            if self.peers[i].done.is_some() {
                self.deliver_done(i);
            } else if self.peers[i].conn.pending_out() > 0 {
                self.write(i, usize::MAX);
            } else {
                return;
            }
        }
    }

    /// One step of a random schedule. Returns `false` when no
    /// connection has anything left to do.
    fn step(&mut self, rng: &mut SplitMix64) -> bool {
        // Every enabled (connection, action) pair; a timer is never one.
        let mut enabled: Vec<(usize, u8)> = Vec::new();
        for (i, p) in self.peers.iter().enumerate() {
            if p.conn.is_closed() {
                continue;
            }
            let reading = p.conn.wants_read();
            if reading && p.sent < p.script.len() {
                enabled.push((i, 0));
            }
            // A client half-closes when it planned to, or when it sees
            // the server's own half-close.
            let done_sending = p.sent == p.script.len();
            if reading
                && !p.eof_sent
                && (p.conn.half_closed() || done_sending && p.eof_after_script)
            {
                enabled.push((i, 1));
            }
            if p.conn.pending_out() > 0 {
                enabled.push((i, 2));
            }
            if p.done.is_some() {
                enabled.push((i, 3));
            }
        }
        if enabled.is_empty() {
            return false;
        }
        if rng.chance(0.1) {
            self.now += Duration::from_micros(rng.below(2000) as u64);
        }
        let (i, action) = *rng.pick(&enabled);
        match action {
            0 => {
                let p = &self.peers[i];
                let left = p.script.len() - p.sent;
                let n = match rng.below(10) {
                    0 => rng.range_incl(1, 8),
                    1..=4 => rng.range_incl(1, 1500),
                    _ => rng.range_incl(1, READ_BUDGET),
                }
                .min(left);
                let fragment = p.script[p.sent..p.sent + n].to_vec();
                self.peers[i].sent += n;
                self.feed(i, Input::Bytes(&fragment));
            }
            1 => {
                self.peers[i].eof_sent = true;
                self.feed(i, Input::Eof);
            }
            2 => {
                let pending = self.peers[i].conn.pending_out();
                let cap = match rng.below(4) {
                    0 => 0,
                    1 => rng.range_incl(1, 64),
                    2 => rng.range_incl(1, pending),
                    _ => pending,
                };
                self.write(i, cap);
            }
            _ => {
                // Hold the completion back a few picks, so completions
                // of different connections overtake one another.
                let (_, held) = self.peers[i].done.as_mut().unwrap();
                *held += 1;
                if *held > 3 || rng.chance(0.5) {
                    self.deliver_done(i);
                }
            }
        }
        true
    }

    /// Runs a random schedule to quiescence. No timer is ever
    /// delivered, so finishing at all is the strong form of liveness.
    fn run(&mut self, rng: &mut SplitMix64) {
        let mut steps = 0u64;
        while self.step(rng) {
            steps += 1;
            assert!(steps < 5_000_000, "schedule does not terminate");
        }
        for (i, p) in self.peers.iter().enumerate() {
            assert!(
                p.conn.is_closed() || p.conn.is_idle(),
                "connection {i} is stuck: no input, write or completion can move it"
            );
        }
    }

    fn responses(&self, i: usize) -> Vec<Response> {
        parse_responses(&self.peers[i].received).0
    }

    fn counter(&self, pick: impl Fn(&xproj_server::ServerMetrics) -> u64) -> u64 {
        pick(&self.state.metrics)
    }
}

/// Runs `case(seed)` over `TESTKIT_FUZZ_CASES` seeds (default
/// `default_cases`), or over the one `TESTKIT_SEED`; a failure names
/// the seed that replays it.
fn seeded(name: &str, default_cases: u64, case: impl Fn(u64)) {
    if let Some(seed) = xproj_testkit::runner::parse_seed_env() {
        return case(seed);
    }
    let cases = std::env::var("TESTKIT_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(default_cases);
    for i in 0..cases {
        let seed = case_seed(name, i as u32);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| case(seed))) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!(
                "{name} failed at case {i}/{cases}:\n{msg}\n\
                 [testkit] replay: TESTKIT_SEED={seed:#x} cargo test -p xproj-server \
                 --test simulation {name}"
            );
        }
    }
}

// ---- property 1–3: any schedule ≡ the trivial one ≡ the engine ------

/// One connection's pipelined script and what the engine says its
/// `200` stream bodies must be.
struct Script {
    bytes: Vec<u8>,
    /// `(index in the response sequence, expected body)`.
    engine_bodies: Vec<(usize, Vec<u8>)>,
    responses: usize,
}

fn random_script(rng: &mut SplitMix64) -> Script {
    let dtd = Arc::new(parse_dtd(BIB_DTD, "bib").unwrap());
    let prune_queries = ["/bib/book/title", "//author", "/descendant-or-self::node()"];
    let query_queries = ["//title", "/bib/book/price"];
    let mut bytes = register_bib();
    let mut engine_bodies = Vec::new();
    let mut responses = 1;
    let requests = rng.range_incl(3, 7);
    for _ in 0..requests {
        // Under the response buffer (1–2 books), or far over it and —
        // sometimes — over the whole residency bound.
        let books = match rng.below(8) {
            0..=2 => rng.range_incl(1, 2),
            3..=6 => rng.range_incl(20, 400),
            _ => rng.range_incl(1900, 2200),
        };
        let doc = bib_doc(books);
        let body = if rng.chance(0.5) {
            Body::Length(doc.as_bytes())
        } else {
            let steps: &[usize] = if books > 400 {
                &[100, 4096, 70_000]
            } else {
                &[1, 7, 100, 4096]
            };
            Body::Chunked(doc.as_bytes(), *rng.pick(steps))
        };
        let expect = if rng.chance(0.3) {
            &[("expect", "100-continue")][..]
        } else {
            &[]
        };
        match rng.below(5) {
            0 => bytes.extend(request("GET", "/healthz", &[], Body::None)),
            1 => bytes.extend(request(
                "POST",
                &format!(
                    "/v1/analyze?dtd={}&query={}",
                    bib_id(),
                    urlencode("//title")
                ),
                &[],
                Body::None,
            )),
            2 | 3 => {
                let q = *rng.pick(&prune_queries);
                let artifact = QueryArtifact::compile(&dtd, q).unwrap();
                let pruned = xproj_core::prune_str(&doc, &dtd, &artifact.projector).unwrap();
                engine_bodies.push((responses, pruned.output.into_bytes()));
                bytes.extend(request("POST", &stream_target("prune", q), expect, body));
            }
            _ => {
                let q = *rng.pick(&query_queries);
                let artifact = QueryArtifact::compile(&dtd, q).unwrap();
                let frames = run_query(&artifact, doc.as_bytes(), QueryOutput::Frames, true, 512);
                engine_bodies.push((responses, frames));
                bytes.extend(request("POST", &stream_target("query", q), expect, body));
            }
        }
        responses += 1;
    }
    // Last, a request that ends the connection with an error reply —
    // most of them with a body the server never reads.
    let doc = bib_doc(30);
    bytes.extend(match rng.below(6) {
        0 => request("GET", "/v2/nothing", &[], Body::None),
        1 => request("DELETE", "/v1/prune", &[], Body::Length(doc.as_bytes())),
        2 => request(
            "POST",
            &stream_target("prune", "/bib["),
            &[],
            Body::Length(doc.as_bytes()),
        ),
        3 => request(
            "POST",
            &stream_target("prune", "//title"),
            &[],
            Body::Chunked(b"<bib><pamphlet/></bib>", 5),
        ),
        4 => request(
            "POST",
            &stream_target("query", "//title"),
            &[("transfer-encoding", "gzip, chunked")],
            Body::Length(doc.as_bytes()),
        ),
        _ => request(
            "POST",
            "/v1/dtd?root=bib",
            &[],
            Body::Length(b"<!ELEMENT bib (unclosed"),
        ),
    });
    Script {
        bytes,
        engine_bodies,
        responses: responses + 1,
    }
}

fn any_schedule_equals_trivial_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let scripts: Vec<Script> = (0..rng.range_incl(1, 4))
        .map(|_| random_script(&mut rng))
        .collect();

    let mut reference = Sim::new(sim_config());
    let mut sim = Sim::new(sim_config());
    for s in &scripts {
        reference.connect(s.bytes.clone(), false);
        sim.connect(s.bytes.clone(), false);
    }
    reference.run_trivially();
    sim.run(&mut rng);

    for (i, script) in scripts.iter().enumerate() {
        let got = sim.responses(i);
        let want = reference.responses(i);
        assert_eq!(got.len(), script.responses, "connection {i}: {got:#?}");
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            // Chunk boundaries (and so `end`) may differ with the
            // schedule; whether a response is chunked may not.
            let same = (g.status, &g.content_type, &g.connection, g.chunked, &g.body)
                == (w.status, &w.content_type, &w.connection, w.chunked, &w.body);
            assert!(
                same,
                "connection {i} response {k} diverged:\n{g:?}\nvs trivial\n{w:?}"
            );
        }
        for (k, body) in &script.engine_bodies {
            assert_eq!(
                got[*k].status, 200,
                "connection {i} response {k}: {:?}",
                got[*k]
            );
            assert!(
                got[*k].body == *body,
                "connection {i} response {k} ≠ the in-process engine"
            );
            assert_eq!(
                got[*k].chunked,
                body.len() > sim.state.config.chunk_size
            );
        }
        // Every response but the last kept the connection; the error
        // reply announced the close the machine then carried out.
        let (last, kept) = got.split_last().unwrap();
        assert!(
            kept.iter().all(|r| r.connection == "keep-alive"),
            "{kept:#?}"
        );
        assert!(last.status >= 400 && last.connection == "close", "{last:?}");
        assert_eq!(sim.peers[i].ended, Some(Ended::AfterResponse));
        assert!(sim.peers[i].conn.is_closed());
    }
    assert_eq!(
        sim.counter(|m| m.in_flight.load(Ordering::Relaxed) as u64),
        0
    );
    assert_eq!(
        sim.counter(|m| m.requests.load(Ordering::Relaxed)),
        reference.counter(|m| m.requests.load(Ordering::Relaxed))
    );
    assert_eq!(
        sim.counter(|m| m.errors.load(Ordering::Relaxed)),
        reference.counter(|m| m.errors.load(Ordering::Relaxed))
    );
}

#[test]
fn any_schedule_equals_the_trivial_schedule_and_the_engine() {
    let name = "any_schedule_equals_the_trivial_schedule_and_the_engine";
    seeded(name, 40, any_schedule_equals_trivial_case);
}

/// Property 2, pointedly: the same bound holds for a 1 KB and a 1 MB
/// document, the larger several times the bound itself, under a client
/// that reads nothing until the server stops reading too.
#[test]
fn residency_is_independent_of_document_size() {
    let config = sim_config();
    let bound = residency_bound(&config, BIB_DTD.len());
    let mut peaks = Vec::new();
    for books in [10, 12_000] {
        let doc = bib_doc(books);
        let mut script = register_bib();
        script.extend(request(
            "POST",
            &stream_target("prune", "/descendant-or-self::node()"),
            &[],
            Body::Chunked(doc.as_bytes(), 8192),
        ));
        let mut sim = Sim::new(config.clone());
        let i = sim.connect(script, true);
        // The slow reader: input and completions only, until stuck.
        loop {
            let p = &sim.peers[i];
            if p.done.is_some() {
                sim.deliver_done(i);
            } else if p.conn.wants_read() && p.sent < p.script.len() {
                let n = READ_BUDGET.min(p.script.len() - p.sent);
                let fragment = p.script[p.sent..p.sent + n].to_vec();
                sim.peers[i].sent += n;
                sim.feed(i, Input::Bytes(&fragment));
            } else {
                break;
            }
        }
        if books > 1000 {
            let p = &sim.peers[i];
            assert!(
                !p.conn.wants_read() && p.sent < p.script.len(),
                "output gate never shut"
            );
            assert!(p.conn.pending_out() >= 4 * config.chunk_size);
            assert!(doc.len() > 4 * bound, "the document must dwarf the bound");
        }
        // Then it drains, and the stream completes byte-identically.
        sim.run(&mut SplitMix64::new(books as u64));
        let got = sim.responses(i);
        assert_eq!((got[1].status, got[1].truncated), (200, false));
        assert_eq!(got[1].body.len(), doc.len());
        peaks.push(sim.peers[i].max_resident);
    }
    assert!(peaks.iter().all(|&p| p <= bound), "{peaks:?} vs {bound}");
}

// ---- property 4: timers with an injected clock ----------------------

fn timer_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(3),
        ..sim_config()
    }
}

#[test]
fn trickled_head_gets_408_at_the_absolute_deadline() {
    let mut sim = Sim::new(timer_config());
    let head =
        b"GET /healthz HTTP/1.1\r\nhost: a-very-slow-client\r\nx: yyyyyyyyyyyyyyyyyyyyyyyy\r\n";
    let i = sim.connect(head.to_vec(), false);
    let t0 = sim.now;
    // One byte every 100 ms: each arrival is well inside any rolling
    // deadline, and the absolute one does not move.
    for k in 0..head.len() {
        sim.feed(i, Input::Bytes(&head[k..k + 1]));
        assert_eq!(
            sim.peers[i].conn.deadline(),
            Some(t0 + Duration::from_secs(5))
        );
        sim.now += Duration::from_millis(100);
        if sim.now >= t0 + Duration::from_secs(5) {
            break;
        }
        // A timer delivered early changes nothing.
        sim.feed(i, Input::DeadlineReached);
        assert_eq!(sim.peers[i].conn.pending_out(), 0);
    }
    assert_eq!(sim.now, t0 + Duration::from_secs(5));
    sim.feed(i, Input::DeadlineReached);
    sim.settle(i);
    let got = sim.responses(i);
    assert_eq!(
        (got.len(), got[0].status, got[0].connection.as_str()),
        (1, 408, "close")
    );
    assert!(String::from_utf8_lossy(&got[0].body).contains("request head timed out"));
    // The head never completed: the machine half-closes and lingers,
    // then gives up at exactly the linger timeout.
    let p = &sim.peers[i];
    assert!(p.conn.half_closed() && p.conn.wants_read());
    assert_eq!(p.conn.deadline(), Some(sim.now + LINGER_TIMEOUT));
    sim.now += LINGER_TIMEOUT;
    sim.feed(i, Input::DeadlineReached);
    assert!(sim.peers[i].conn.is_closed());
    assert_eq!(sim.counter(|m| m.errors.load(Ordering::Relaxed)), 1);
}

#[test]
fn stalled_body_gets_408_at_the_rolling_deadline() {
    let mut sim = Sim::new(timer_config());
    let mut script = register_bib();
    script.extend(request(
        "POST",
        &stream_target("prune", "//title"),
        &[],
        Body::None,
    ));
    script.truncate(script.len() - 2);
    script.extend_from_slice(b"content-length: 4096\r\n\r\n<bib><book>");
    let i = sim.connect(script.clone(), false);
    sim.feed(i, Input::Bytes(&script[..script.len() - 11]));
    sim.settle(i);
    // Each input moves the body deadline: it is rolling.
    sim.now += Duration::from_secs(4);
    sim.feed(i, Input::Bytes(b"<bib><book>"));
    sim.settle(i);
    let due = sim.now + Duration::from_secs(5);
    assert_eq!(sim.peers[i].conn.deadline(), Some(due));
    sim.now = due - Duration::from_nanos(1);
    sim.feed(i, Input::DeadlineReached);
    assert_eq!(sim.responses(i).len(), 1, "fired early");
    sim.now = due;
    sim.feed(i, Input::DeadlineReached);
    sim.settle(i);
    let got = sim.responses(i);
    assert_eq!((got[1].status, got[1].connection.as_str()), (408, "close"));
    assert!(String::from_utf8_lossy(&got[1].body).contains("body read timed out"));
    assert_eq!(
        sim.counter(|m| m.in_flight.load(Ordering::Relaxed) as u64),
        0
    );
}

#[test]
fn stalled_reader_is_closed_at_the_write_deadline_and_idle_silently() {
    let mut sim = Sim::new(timer_config());
    // Idle: a connection that never speaks is closed without a byte.
    let idle = sim.connect(Vec::new(), false);
    let reader = sim.connect(request("GET", "/healthz", &[], Body::None), false);
    let t0 = sim.now;
    let script = sim.peers[reader].script.clone();
    sim.feed(reader, Input::Bytes(&script));
    assert!(sim.peers[reader].conn.pending_out() > 0);
    assert_eq!(
        sim.peers[reader].conn.deadline(),
        Some(t0 + Duration::from_secs(3))
    );
    // More requests arriving do not re-arm a write-stall clock; only
    // write progress does.
    sim.now += Duration::from_secs(1);
    sim.feed(reader, Input::Bytes(&script));
    assert_eq!(
        sim.peers[reader].conn.deadline(),
        Some(t0 + Duration::from_secs(3))
    );
    sim.write(reader, 10);
    assert_eq!(
        sim.peers[reader].conn.deadline(),
        Some(sim.now + Duration::from_secs(3))
    );
    sim.now += Duration::from_secs(3);
    sim.feed(reader, Input::DeadlineReached);
    assert!(sim.peers[reader].conn.is_closed());
    assert_eq!(sim.peers[reader].received.len(), 10);

    assert_eq!(
        sim.peers[idle].conn.deadline(),
        Some(t0 + Duration::from_secs(5))
    );
    sim.now = t0 + Duration::from_secs(5);
    sim.feed(idle, Input::DeadlineReached);
    assert!(sim.peers[idle].conn.is_closed() && sim.peers[idle].received.is_empty());
}

#[test]
fn rate_limit_answers_429_with_the_exact_retry_after() {
    let config = ServerConfig {
        rate_limit: Some((0.5, 2.0)),
        ..timer_config()
    };
    let healthz = request("GET", "/healthz", &[], Body::None);
    // (seconds waited before the third request, expected Retry-After)
    for (wait_ms, retry_after) in [(0, "2"), (1000, "1"), (1999, "1")] {
        let mut sim = Sim::new(config.clone());
        let i = sim.connect(Vec::new(), false);
        sim.feed(i, Input::Bytes(&healthz));
        sim.feed(i, Input::Bytes(&healthz));
        sim.now += Duration::from_millis(wait_ms);
        sim.feed(i, Input::Bytes(&healthz));
        sim.settle(i);
        let got = sim.responses(i);
        assert_eq!(
            got.iter().map(|r| r.status).collect::<Vec<_>>(),
            [200, 200, 429]
        );
        let wire = String::from_utf8_lossy(&sim.peers[i].received).into_owned();
        assert!(
            wire.contains(&format!("\r\nretry-after: {retry_after}\r\n")),
            "{wire}"
        );
        assert_eq!(got[2].connection, "close");
        assert!(
            sim.peers[i].conn.is_closed(),
            "nothing was left unread: no linger"
        );
        assert_eq!(sim.counter(|m| m.rate_limited.load(Ordering::Relaxed)), 1);
    }
    // After two seconds a token is back.
    let mut sim = Sim::new(config);
    let i = sim.connect(Vec::new(), false);
    sim.feed(i, Input::Bytes(&healthz));
    sim.feed(i, Input::Bytes(&healthz));
    sim.now += Duration::from_secs(2);
    sim.feed(i, Input::Bytes(&healthz));
    sim.settle(i);
    assert!(sim.responses(i).iter().all(|r| r.status == 200));
}

// ---- lingering close -----------------------------------------------

/// The `413` regression, without a kernel: the reply lands while the
/// client is still sending. The machine must flush, half-close, keep
/// reading (and discarding) until the client's `Eof`, and only then
/// close — never close with request bytes unread.
#[test]
fn early_error_reply_lingers_until_the_peer_is_done_sending() {
    let config = ServerConfig {
        max_body_bytes: 256,
        ..sim_config()
    };
    let doc = bib_doc(40);
    let mut script = register_bib();
    let head_len = script.len();
    script.extend(request(
        "POST",
        &stream_target("prune", "/bib/book/title"),
        &[],
        Body::Chunked(doc.as_bytes(), 16),
    ));
    seeded(
        "early_error_reply_lingers_until_the_peer_is_done_sending",
        30,
        |seed| {
            let mut sim = Sim::new(config.clone());
            sim.buffered_body = 256;
            let i = sim.connect(script.clone(), false);
            let mut rng = SplitMix64::new(seed);
            let mut lingered = false;
            while sim.step(&mut rng) {
                let p = &sim.peers[i];
                if p.conn.half_closed() {
                    lingered = true;
                    assert_eq!(p.conn.pending_out(), 0, "half-closed with output unflushed");
                    assert!(p.conn.wants_read() || p.eof_sent);
                }
                // Closed means the client finished sending (or said Eof).
                if p.conn.is_closed() {
                    assert!(
                        p.eof_sent,
                        "closed with {} request bytes unsent",
                        p.script.len() - p.sent
                    );
                }
            }
            assert!(lingered && sim.peers[i].conn.is_closed());
            let got = sim.responses(i);
            assert_eq!((got[1].status, got[1].connection.as_str()), (413, "close"));
            assert!(sim.peers[i].sent > head_len + 256);
        },
    );

    // A peer that never stops sending is cut off at the byte cap, and a
    // silent one at the timeout.
    let mut sim = Sim::new(config.clone());
    let i = sim.connect(Vec::new(), false);
    sim.feed(
        i,
        Input::Bytes(b"GET /nope HTTP/1.1\r\ncontent-length: 5000000\r\n\r\n"),
    );
    sim.settle(i);
    assert!(sim.peers[i].conn.half_closed());
    let junk = vec![b'x'; READ_BUDGET];
    for _ in 0..LINGER_MAX_BYTES / READ_BUDGET {
        sim.feed(i, Input::Bytes(&junk));
        assert!(
            sim.peers[i].conn.resident_bytes() < 1024,
            "lingering must not buffer"
        );
    }
    assert!(!sim.peers[i].conn.is_closed());
    sim.feed(i, Input::Bytes(b"x"));
    assert!(sim.peers[i].conn.is_closed());
}

// ---- property 5: shutdown, Eof, executor panics ---------------------

#[test]
fn shutdown_closes_idle_connections_silently() {
    let mut sim = Sim::new(sim_config());
    let fresh = sim.connect(Vec::new(), false);
    let served = sim.connect(request("GET", "/healthz", &[], Body::None), false);
    sim.run(&mut SplitMix64::new(1));
    let before = sim.peers[served].received.len();
    sim.state.trigger_shutdown();
    for i in [fresh, served] {
        sim.feed(i, Input::ShuttingDown);
        assert!(sim.peers[i].conn.is_closed() && sim.peers[i].conn.pending_out() == 0);
        assert_eq!(sim.peers[i].ended, Some(Ended::External));
    }
    assert!(sim.peers[fresh].received.is_empty());
    assert_eq!(sim.peers[served].received.len(), before);
    assert_eq!(sim.counter(|m| m.drained.load(Ordering::Relaxed)), 0);
}

/// Shutdown arrives at a random point of a random request: the request
/// completes, counts as drained, and the connection closes — saying
/// `connection: close` whenever the response head had not been
/// rendered when shutdown began.
fn shutdown_mid_request_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut sim = Sim::new(sim_config());
    let doc = bib_doc(rng.range_incl(1, 300));
    let mut script = register_bib();
    let warmup = script.len();
    script.extend(match rng.below(4) {
        0 => request(
            "POST",
            "/v1/dtd?root=bib",
            &[],
            Body::Length(BIB_DTD.as_bytes()),
        ),
        1 => request(
            "POST",
            &stream_target("query", "//title"),
            &[],
            Body::Length(doc.as_bytes()),
        ),
        _ => request(
            "POST",
            &stream_target("prune", "/descendant-or-self::node()"),
            &[],
            Body::Chunked(doc.as_bytes(), 512),
        ),
    });
    let i = sim.connect(script, false);
    // Get the first request out of the way, then stop somewhere inside
    // the second (or just after it).
    while sim.responses(i).is_empty() || sim.peers[i].sent <= warmup {
        assert!(sim.step(&mut rng));
    }
    for _ in 0..rng.below(400) {
        if !sim.step(&mut rng) {
            break;
        }
    }
    let p = &sim.peers[i];
    let (was_active, was_idle) = (p.conn.is_active(), p.conn.is_idle());
    // Everything the machine has rendered so far, written or queued.
    let rendered = p.received.len() + p.conn.pending_out();
    let first_end = sim.responses(i)[0].end;

    sim.state.trigger_shutdown();
    sim.feed(i, Input::ShuttingDown);
    assert_eq!(
        sim.peers[i].conn.is_closed(),
        was_idle,
        "only an idle connection closes at once"
    );
    sim.run(&mut rng);

    let got = sim.responses(i);
    assert_eq!(got.len(), 2, "{got:#?}");
    assert_eq!((got[1].status, got[1].truncated), (200, false));
    assert!(sim.peers[i].conn.is_closed(), "a drained connection closes");
    assert_eq!(
        sim.counter(|m| m.drained.load(Ordering::Relaxed)),
        was_active as u64
    );
    if rendered == first_end {
        assert_eq!(
            got[1].connection, "close",
            "the head was rendered under shutdown"
        );
        assert_eq!(sim.peers[i].ended, Some(Ended::AfterResponse));
    } else if was_active {
        // The one exception: a chunked head already rendered.
        assert!(
            got[1].chunked && got[1].connection == "keep-alive",
            "{:?}",
            got[1]
        );
    }
}

#[test]
fn shutdown_mid_request_drains_and_says_close() {
    seeded(
        "shutdown_mid_request_drains_and_says_close",
        60,
        shutdown_mid_request_case,
    );
}

#[test]
fn admin_shutdown_reply_announces_its_own_close() {
    let mut sim = Sim::new(sim_config());
    let i = sim.connect(request("POST", "/admin/shutdown", &[], Body::None), false);
    sim.run(&mut SplitMix64::new(7));
    let got = sim.responses(i);
    assert_eq!((got[0].status, got[0].connection.as_str()), (200, "close"));
    assert!(sim.state.is_shutting_down() && sim.peers[i].conn.is_closed());
    assert_eq!(sim.counter(|m| m.drained.load(Ordering::Relaxed)), 1);
}

#[test]
fn eof_mid_body_releases_the_request() {
    for chunked in [false, true] {
        // A buffer unit the output never outgrows: no header is on the
        // wire when the peer vanishes, so a `400` is still possible.
        let mut sim = Sim::new(ServerConfig {
            chunk_size: 1 << 16,
            ..sim_config()
        });
        let doc = bib_doc(50);
        let body = if chunked {
            Body::Chunked(doc.as_bytes(), 64)
        } else {
            Body::Length(doc.as_bytes())
        };
        let mut script = register_bib();
        script.extend(request(
            "POST",
            &stream_target("prune", "//title"),
            &[],
            body,
        ));
        script.truncate(script.len() - 700);
        let i = sim.connect(script, true);
        sim.run(&mut SplitMix64::new(chunked as u64));
        assert!(sim.peers[i].conn.is_closed());
        assert_eq!(
            sim.counter(|m| m.in_flight.load(Ordering::Relaxed) as u64),
            0
        );
        assert_eq!(sim.counter(|m| m.errors.load(Ordering::Relaxed)), 1);
        let got = sim.responses(i);
        assert_eq!((got[1].status, got[1].connection.as_str()), (400, "close"));
    }
}

/// A worker panic is one `500` (or one truncated stream), never a
/// stuck gauge or a poisoned cache.
#[test]
fn executor_panic_is_contained() {
    let panic = || Done::Prune {
        session: None,
        result: Err(PruneFail::Panic),
    };
    let doc = bib_doc(200);
    let prune = request(
        "POST",
        &stream_target("prune", "/descendant-or-self::node()"),
        &[],
        Body::Length(doc.as_bytes()),
    );
    let mut sim = Sim::new(sim_config());
    let mut script = register_bib();
    script.extend(&prune);

    // Before headers: the first feed job "panics".
    let a = sim.connect(script.clone(), false);
    let mut rng = SplitMix64::new(3);
    while !matches!(sim.peers[a].done, Some((Done::Prune { .. }, _))) {
        assert!(sim.step(&mut rng));
    }
    sim.peers[a].done = Some((panic(), 0));
    sim.run(&mut rng);
    let got = sim.responses(a);
    assert_eq!(
        got.len(),
        2,
        "exactly one reply for the poisoned request: {got:#?}"
    );
    assert_eq!((got[1].status, got[1].connection.as_str()), (500, "close"));
    assert!(sim.peers[a].conn.is_closed());

    // After headers: the stream is cut short, without a terminal chunk.
    let b = sim.connect(script.clone(), false);
    while !sim.responses(b).get(1).is_some_and(|r| r.chunked)
        || !matches!(sim.peers[b].done, Some((Done::Prune { .. }, _)))
    {
        assert!(sim.step(&mut rng));
    }
    sim.peers[b].done = Some((panic(), 0));
    sim.run(&mut rng);
    let got = sim.responses(b);
    assert_eq!((got.len(), got[1].status, got[1].truncated), (2, 200, true));
    assert!(sim.peers[b].conn.is_closed());

    assert_eq!(
        sim.counter(|m| m.in_flight.load(Ordering::Relaxed) as u64),
        0
    );
    assert_eq!(sim.counter(|m| m.errors.load(Ordering::Relaxed)), 2);
    // The next connection is served, from the same cache entry.
    let compiles = sim.state.cache.stats().compiles;
    let c = sim.connect(prune, false);
    sim.run(&mut rng);
    let got = sim.responses(c);
    assert_eq!((got[0].status, got[0].body.len()), (200, doc.len()));
    assert_eq!(sim.state.cache.stats().compiles, compiles);
    assert!(sim.state.cache.stats().hits >= 2);
}

// ---- the adversarial wall ------------------------------------------

/// Structure-aware damage to a valid request.
fn mutate(rng: &mut SplitMix64, valid: &[u8]) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    for _ in 0..rng.range_incl(1, 4) {
        let at = rng.below(bytes.len().max(1));
        match rng.below(9) {
            0 => bytes.truncate(at),
            1 => bytes[at..]
                .iter_mut()
                .take(rng.range_incl(1, 8))
                .for_each(|b| *b = 0),
            2 => bytes.insert(at, rng.below(256) as u8),
            3 => {
                // An oversized or malformed chunk-size line.
                let line = *rng.pick(&[
                    "ffffffffffffffff\r\n",
                    "-1\r\n",
                    "zz\r\n",
                    "1;x=\r\n",
                    "\r\n",
                ]);
                bytes.splice(at..at, line.bytes());
            }
            4 => {
                // Content-Length and Transfer-Encoding together.
                if let Some(eol) = find(&bytes, b"\r\n") {
                    let extra = "content-length: 7\r\ntransfer-encoding: chunked\r\n";
                    bytes.splice(eol + 2..eol + 2, extra.bytes());
                }
            }
            5 => {
                if let Some(eol) = find(&bytes, b"\r\n") {
                    let junk = *rng.pick(&[
                        "content-length: 99999999999999999999\r\n",
                        "content-length: -5\r\n",
                        "transfer-encoding: chunked, chunked\r\n",
                        "expect: 100-continue\r\n",
                        "connection: close, te\r\n",
                        ": no-name\r\nno-colon\r\n",
                    ]);
                    bytes.splice(eol + 2..eol + 2, junk.bytes());
                }
            }
            6 => {
                let n = rng.range_incl(1, 64);
                let copy: Vec<u8> = bytes[at..(at + n).min(bytes.len())].to_vec();
                bytes.splice(at..at, copy);
            }
            7 => bytes[at..].iter_mut().take(3).for_each(|b| *b ^= 0x80),
            _ => bytes.extend_from_slice(valid),
        }
        if bytes.is_empty() {
            bytes.push(b'\n');
        }
    }
    bytes
}

fn fuzz_wall_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let doc = bib_doc(rng.range_incl(1, 60));
    let valid = [
        request("GET", "/healthz", &[], Body::None),
        request("GET", "/metrics", &[], Body::None),
        register_bib(),
        request(
            "POST",
            &stream_target("prune", "//title"),
            &[],
            Body::Length(doc.as_bytes()),
        ),
        request(
            "POST",
            &stream_target("query", "//title"),
            &[],
            Body::Chunked(doc.as_bytes(), 37),
        ),
        request(
            "POST",
            &format!(
                "/v1/independence?dtd={}&query=//title&update=delete%20//price",
                bib_id()
            ),
            &[],
            Body::None,
        ),
    ];
    let mut sim = Sim::new(ServerConfig {
        max_body_bytes: 64 * 1024,
        ..sim_config()
    });
    sim.buffered_body = 64 * 1024;
    for _ in 0..rng.range_incl(1, 3) {
        let mut script = if rng.chance(0.7) {
            register_bib()
        } else {
            Vec::new()
        };
        for _ in 0..rng.range_incl(1, 4) {
            match rng.below(8) {
                0 => script.extend((0..rng.range_incl(1, 300)).map(|_| rng.below(256) as u8)),
                1 => script.extend(rng.pick::<Vec<u8>>(&valid).iter()),
                // A stream request twice running: the second finds its
                // artifact resident and goes from routed to streaming
                // with no job in between (a hit is not a job).
                2 => script.extend(valid[rng.range_incl(3, 4)].repeat(2)),
                _ => {
                    let base = rng.pick(&valid).clone();
                    script.extend(mutate(&mut rng, &base));
                }
            }
        }
        sim.connect(script, true);
    }
    sim.run(&mut rng);
    for (i, p) in sim.peers.iter().enumerate() {
        // The client said `Eof` in the end: nothing may be left open.
        assert!(p.conn.is_closed(), "connection {i} survived its peer's Eof");
        let (responses, _) = parse_responses(&p.received);
        // A close the machine decided on was announced.
        if p.ended == Some(Ended::AfterResponse) {
            let last = responses.last().expect("closed after a response");
            assert!(last.connection == "close" || last.truncated, "{last:?}");
        }
    }
    assert_eq!(
        sim.counter(|m| m.in_flight.load(Ordering::Relaxed) as u64),
        0
    );
}

/// Random bytes and mutated valid requests: no panic, liveness, the
/// residency bound, no leaked in-flight count.
#[test]
fn fuzz_wall_raw_http_bytes_never_panic() {
    seeded("fuzz_wall_raw_http_bytes_never_panic", 300, fuzz_wall_case);
}

/// Framing a strict proxy in front would read differently is refused,
/// not guessed at: Rust's number parsers take a leading `+`, and a
/// first-wins `Content-Length` or a kept-alive `Content-Length` +
/// `Transfer-Encoding` request is how two parsers come to disagree on
/// where the next request starts. Each probe is followed by a pipelined
/// `GET /healthz` that must never be answered: the connection closes.
#[test]
fn fuzz_wall_framing_disagreements_are_refused_and_close() {
    let doc = bib_doc(2);
    let (len, id) = (doc.len(), bib_id());
    let target = stream_target("prune", "//title");
    let with_head = |target: &str, framing: &str, body: &str| {
        format!("POST {target} HTTP/1.1\r\nhost: sim\r\n{framing}\r\n{body}").into_bytes()
    };
    let chunked = format!("{len:x}\r\n{doc}\r\n0\r\n\r\n");
    let length = format!("content-length: {len}\r\n");
    let id_target = |dtd: &str| format!("/v1/prune?dtd={dtd}&query=//title");
    // (probe, status, what the body must contain)
    let probes = [
        (
            with_head(&target, &format!("content-length: +{len}\r\n"), &doc),
            400,
            "bad content-length",
        ),
        (
            with_head(&target, &format!("{length}content-length: 3\r\n"), &doc),
            400,
            "conflicting content-length",
        ),
        (
            with_head(&target, "transfer-encoding: chunked\r\n", &format!("+{chunked}")),
            400,
            "bad chunk size",
        ),
        (
            with_head(
                &target,
                &format!("{length}transfer-encoding: chunked\r\n"),
                &chunked,
            ),
            200,
            "<title>Title 1</title>",
        ),
        // `%+f` is not the byte 0x0F: the `%` stays, `+` is a space.
        (with_head(&id_target("1%+f"), &length, &doc), 400, "'1% f' is not a DTD id"),
        (with_head(&id_target(&format!("+{id}")), &length, &doc), 400, "is not a DTD id"),
        (with_head(&id_target(&format!("0x0x{id}")), &length, &doc), 400, "is not a DTD id"),
    ];
    seeded(
        "fuzz_wall_framing_disagreements_are_refused_and_close",
        20,
        |seed| {
            let mut sim = Sim::new(sim_config());
            for (probe, _, _) in &probes {
                let mut script = register_bib();
                script.extend_from_slice(probe);
                script.extend(request("GET", "/healthz", &[], Body::None));
                sim.connect(script, true);
            }
            sim.run(&mut SplitMix64::new(seed));
            for (i, (_, status, needle)) in probes.iter().enumerate() {
                assert!(sim.peers[i].conn.is_closed(), "probe {i}");
                let got = sim.responses(i);
                assert_eq!(got.len(), 2, "probe {i}: the connection served on: {got:?}");
                let last = &got[1];
                assert_eq!((last.status, last.connection.as_str()), (*status, "close"), "probe {i}");
                let body = String::from_utf8_lossy(&last.body);
                assert!(body.contains(needle), "probe {i}: {body}");
            }
            assert_eq!(
                sim.counter(|m| m.in_flight.load(Ordering::Relaxed) as u64),
                0
            );
        },
    );
}

/// The large shapes a random mutation will not find: 10⁵ headers, a
/// read budget of NULs, a head that never ends, 10⁴ pipelined requests.
#[test]
fn fuzz_wall_oversized_shapes() {
    let mut many_headers = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for k in 0..100_000 {
        many_headers.extend_from_slice(format!("x-{k}: v\r\n").as_bytes());
    }
    many_headers.extend_from_slice(b"\r\n");
    let endless = [b"GET /".to_vec(), vec![b'a'; 200_000]].concat();
    let pipelined = request("GET", "/healthz", &[], Body::None).repeat(10_000);
    for (script, status) in [
        (many_headers, Some(431)),
        (vec![0u8; READ_BUDGET], Some(431)),
        (endless, Some(431)),
        (pipelined, None),
    ] {
        let mut sim = Sim::new(sim_config());
        let i = sim.connect(script, true);
        sim.run(&mut SplitMix64::new(11));
        assert!(sim.peers[i].conn.is_closed());
        let got = sim.responses(i);
        match status {
            Some(status) => assert_eq!(got.last().map(|r| r.status), Some(status)),
            None => assert!(got.len() == 10_000 && got.iter().all(|r| r.status == 200)),
        }
    }
}
