//! The closed-loop load generator: a fixed number of client threads,
//! one keep-alive connection each, every next request sent only after
//! the previous reply was read and checked.

use crate::http::Client;
use crate::workloads::Prepared;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One traced interval. `parent` indexes the span list (`u32::MAX` for a
/// root); spans of one request share `request_id`.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request_id: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

/// The spans of one run, timed against a common origin.
pub struct Trace {
    pub origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Appends a span; returns its index, for children to name as parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request_id: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request_id,
        });
        (self.spans.len() - 1) as u32
    }
}

/// When a window ends: after `duration`, and not before `min_requests`
/// were attempted (the warm-up's "100 requests or 2 s, whichever is
/// longer").
#[derive(Clone, Copy)]
pub struct Stop {
    pub duration: Duration,
    pub min_requests: u64,
}

/// What one window of traffic produced.
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    /// Client-side latency of every verified request, in no particular
    /// order.
    pub latencies_ns: Vec<u64>,
    /// First request written → last client finished.
    pub elapsed: Duration,
    /// The first failure, for the report.
    pub first_error: Option<String>,
    /// The client threads' own CPU time, and the time they were runnable
    /// but waiting for a CPU (`/proc/thread-self/schedstat`).
    pub client_cpu_ns: u64,
    pub client_runq_ns: u64,
}

/// `(on-CPU ns, runnable-but-waiting ns)` of the calling thread.
fn thread_schedstat() -> (u64, u64) {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut f = s.split_whitespace().map(|x| x.parse().unwrap_or(0));
    (f.next().unwrap_or(0), f.next().unwrap_or(0))
}

impl Window {
    pub fn verified(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// A client gives up after this many failures: a daemon that is down
/// fails every request instantly, and a window of those measures nothing.
const MAX_FAILURES_PER_CLIENT: u64 = 50;

/// The clients' connections, kept across warm-up and timed windows.
pub struct Clients {
    addr: SocketAddr,
    conns: Vec<Option<Client>>,
    /// Position in the query cycle, shared so that the *union* of the
    /// clients' requests walks the cycle in order — what keeps
    /// `small_query_cold` an LRU miss on every request.
    next: AtomicUsize,
}

impl Clients {
    pub fn connect(addr: SocketAddr, n: usize) -> Clients {
        Clients {
            addr,
            conns: (0..n).map(|_| None).collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// Drives one window. With `trace`, every request leaves a `request`
    /// span and its three phases.
    pub fn run(
        &mut self,
        prepared: &Prepared,
        stop: Stop,
        mut trace: Option<&mut Trace>,
    ) -> Window {
        let origin = trace.as_ref().map(|t| t.origin);
        let attempted = AtomicU64::new(0);
        let start = Instant::now();
        let addr = self.addr;
        let next = &self.next;
        let attempted_ref = &attempted;
        let per_client: Vec<ClientResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    scope.spawn(move || {
                        client_loop(
                            conn,
                            addr,
                            prepared,
                            next,
                            attempted_ref,
                            start,
                            stop,
                            origin,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let end = per_client.iter().map(|r| r.finished).max().unwrap_or(start);
        let mut window = Window {
            attempted: 0,
            failed: 0,
            latencies_ns: Vec::new(),
            elapsed: end - start,
            first_error: None,
            client_cpu_ns: 0,
            client_runq_ns: 0,
        };
        for r in per_client {
            window.attempted += r.attempted;
            window.failed += r.failed;
            window.client_cpu_ns += r.cpu_ns;
            window.client_runq_ns += r.runq_ns;
            window.latencies_ns.extend(r.latencies_ns);
            window.first_error = window.first_error.or(r.first_error);
            if let Some(t) = trace.as_deref_mut() {
                // Re-base parents: each client numbered its spans from 0.
                let base = t.spans.len() as u32;
                t.spans.extend(r.spans.into_iter().map(|mut s| {
                    if s.parent != NO_PARENT {
                        s.parent += base;
                    }
                    s
                }));
            }
        }
        window
    }
}

struct ClientResult {
    attempted: u64,
    failed: u64,
    latencies_ns: Vec<u64>,
    spans: Vec<Span>,
    finished: Instant,
    first_error: Option<String>,
    cpu_ns: u64,
    runq_ns: u64,
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    conn: &mut Option<Client>,
    addr: SocketAddr,
    prepared: &Prepared,
    next: &AtomicUsize,
    total_attempted: &AtomicU64,
    start: Instant,
    stop: Stop,
    trace_origin: Option<Instant>,
) -> ClientResult {
    let deadline = start + stop.duration;
    let mut r = ClientResult {
        attempted: 0,
        failed: 0,
        latencies_ns: Vec::with_capacity(1 << 16),
        spans: Vec::new(),
        finished: Instant::now(),
        first_error: None,
        cpu_ns: 0,
        runq_ns: 0,
    };
    let (cpu0, runq0) = thread_schedstat();
    let body = prepared.body();
    while r.failed < MAX_FAILURES_PER_CLIENT
        && (Instant::now() < deadline
            || total_attempted.load(Ordering::Relaxed) < stop.min_requests)
    {
        let request_id = next.fetch_add(1, Ordering::Relaxed);
        let cell = &prepared.cells[request_id % prepared.cells.len()];
        total_attempted.fetch_add(1, Ordering::Relaxed);
        r.attempted += 1;
        let outcome = match conn {
            Some(c) => Ok(c),
            None => Client::connect(addr).map(|c| conn.insert(c)),
        }
        .and_then(|c| {
            let timing = c.exchange(&cell.head, body, false)?;
            let resp = c.response();
            Ok((timing, resp.status, resp.body_len, resp.body_fnv))
        });
        match outcome {
            Ok((t, 200, len, fnv)) if len == cell.expect_len && fnv == cell.expect_fnv => {
                r.latencies_ns.push((t.done - t.start).as_nanos() as u64);
                if let Some(origin) = trace_origin {
                    let ns = |i: Instant| i.saturating_duration_since(origin).as_nanos() as u64;
                    let parent = r.spans.len() as u32;
                    let id = request_id as u64;
                    let mut push = |name, start, end, parent| {
                        r.spans.push(Span {
                            name,
                            start_ns: ns(start),
                            end_ns: ns(end),
                            parent,
                            request_id: id,
                        })
                    };
                    push("request", t.start, t.done, NO_PARENT);
                    push("write_request", t.start, t.write_end, parent);
                    push(
                        "await_first_byte",
                        t.write_end,
                        t.first_byte.max(t.write_end),
                        parent,
                    );
                    push("read_response", t.first_byte, t.done, parent);
                }
            }
            other => {
                r.failed += 1;
                // The connection's framing state is unknown: start afresh.
                *conn = None;
                r.first_error.get_or_insert_with(|| match other {
                    Ok((_, status, len, _)) => format!(
                        "{}: status {status}, {len} body bytes (expected 200, {}) or hash mismatch",
                        cell.query, cell.expect_len
                    ),
                    Err(e) => format!("{}: {e}", cell.query),
                });
            }
        }
    }
    r.finished = Instant::now();
    let (cpu1, runq1) = thread_schedstat();
    (r.cpu_ns, r.runq_ns) = (cpu1.saturating_sub(cpu0), runq1.saturating_sub(runq0));
    r
}
