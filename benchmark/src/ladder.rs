//! The per-crate ladder: each layer timed from outside, through the
//! public calls the serving path itself makes, on the same documents and
//! queries as the workloads. Nothing in the libraries is instrumented.
//!
//! Only surfaces the roadmap keeps are touched — the `PushTokenizer`
//! raw cursor, `PruneMachine`, `ChunkedPruner`, `QueryMachine`,
//! `QueryArtifact`, `ArtifactCache`, `Reactor`, `TimerWheel`.

use crate::http::FRAME;
use crate::loadgen::{Trace, NO_PARENT};
use crate::metrics::Rows;
use crate::workloads::{
    cold_queries, reference_prune, reference_query, Endpoint, Prepared, PIPELINE_QUERIES,
};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xproj_core::{PruneMachine, StaticAnalyzer};
use xproj_dtd::Dtd;
use xproj_engine::{ChunkedPruner, QueryMachine, QueryOutput};
use xproj_qc::{ArtifactCache, QueryArtifact};
use xproj_reactor::{Event, Interest, Mode, Reactor, TimerWheel, Token};
use xproj_xmltree::push::{parse_end_tag_name, split_start_tag, PushEvent, PushTokenizer, RawKind};
use xproj_xmltree::scan;

/// Median per-call time of `f` in ns, calling it for `budget` (and at
/// least three times).
fn median_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy allocations
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    crate::stats::median(&samples)
}

/// `<`-to-`<` sweep with the SWAR scanner: the floor under tokenizing.
fn scan_pass(doc: &[u8]) -> usize {
    let (mut pos, mut hits) = (0, 0);
    while let Some(i) = scan::memchr(b'<', &doc[pos..]) {
        hits += 1;
        pos += i + 1;
    }
    hits
}

/// The raw token cursor alone, in daemon-sized feeds. Returns the token
/// count and the tokenizer's peak buffering.
fn tokenize_pass(doc: &[u8]) -> (usize, usize) {
    let mut t = PushTokenizer::new();
    let mut tokens = 0;
    for chunk in doc.chunks(FRAME) {
        t.push_bytes(chunk).expect("tokenize: push");
        while let Some(tok) = t.peek_token().expect("tokenize: peek") {
            tokens += 1;
            t.advance(tok).expect("tokenize: advance");
        }
    }
    t.finish().expect("tokenize: finish");
    (tokens, t.peak_buffered())
}

enum Ev {
    Start {
        name: Range<usize>,
        attrs: Range<usize>,
    },
    End {
        name: Range<usize>,
    },
    Text(Range<usize>),
}

/// A document tokenized once, so the machine can be timed without the
/// tokenizer: names, attribute regions and text runs live in one arena.
struct EventList {
    arena: String,
    events: Vec<Ev>,
}

impl EventList {
    fn intern(&mut self, s: &str) -> Range<usize> {
        let start = self.arena.len();
        self.arena.push_str(s);
        start..self.arena.len()
    }

    fn text(&mut self, raw: &str) {
        // The generated documents carry no entity references, so raw
        // text is already what the machine expects (decoded).
        assert!(!raw.contains('&'), "event replay does not decode entities");
        let r = self.intern(raw);
        self.events.push(Ev::Text(r));
    }

    fn tokenize(doc: &[u8]) -> EventList {
        let mut list = EventList {
            arena: String::with_capacity(doc.len()),
            events: Vec::new(),
        };
        let mut t = PushTokenizer::new();
        for chunk in doc.chunks(FRAME) {
            t.push_bytes(chunk).expect("replay: push");
            while let Some(tok) = t.peek_token().expect("replay: peek") {
                let raw = t.token_str(&tok);
                match tok.kind {
                    RawKind::StartTag { self_closing } => {
                        let (name, attrs, _) = split_start_tag(raw).expect("replay: start tag");
                        let (name, attrs) = (list.intern(name), list.intern(attrs));
                        list.events.push(Ev::Start {
                            name: name.clone(),
                            attrs,
                        });
                        if self_closing {
                            list.events.push(Ev::End { name });
                        }
                    }
                    RawKind::EndTag => {
                        let name = list.intern(parse_end_tag_name(raw).expect("replay: end tag"));
                        list.events.push(Ev::End { name });
                    }
                    RawKind::Text if t.depth() == 0 && raw.trim().is_empty() => {}
                    RawKind::Text => list.text(raw),
                    RawKind::Cdata => list.text(&raw["<![CDATA[".len()..raw.len() - "]]>".len()]),
                    RawKind::Comment | RawKind::Pi | RawKind::Doctype | RawKind::XmlDecl => {}
                }
                t.advance(tok).expect("replay: advance");
            }
        }
        for ev in t.finish().expect("replay: finish") {
            match ev {
                PushEvent::EndElement { name } => {
                    let name = list.intern(&name);
                    list.events.push(Ev::End { name });
                }
                PushEvent::Text(text) => list.text(&text),
                _ => {}
            }
        }
        list
    }

    /// Feeds every event to a fresh machine (no fast-forward: the
    /// machine sees, and discards, pruned subtrees event by event).
    fn replay(&self, artifact: &QueryArtifact, out: &mut String) {
        out.clear();
        let mut m = PruneMachine::with_table(&*artifact.dtd, artifact.table.clone());
        for ev in &self.events {
            match ev {
                Ev::Start { name, attrs } => {
                    m.start_element_raw(&self.arena[name.clone()], &self.arena[attrs.clone()], out)
                        .expect("replay: start");
                }
                Ev::End { name } => m.end_element(&self.arena[name.clone()], out),
                Ev::Text(r) => m.text(&self.arena[r.clone()], out),
            }
        }
        m.finish().expect("replay: finish");
    }
}

fn wait_readable(reactor: &mut Reactor, events: &mut Vec<Event>, token: Token) {
    loop {
        events.clear();
        reactor
            .poll(Some(Duration::from_secs(5)), events)
            .expect("reactor poll");
        if events.iter().any(|e| e.token == token && e.readable) {
            return;
        }
    }
}

fn reactor_rows(budget: Duration, rows: &mut Rows) {
    const BATCH: usize = 256;
    let mut reactor = Reactor::new().expect("reactor");
    let mut events: Vec<Event> = Vec::new();

    // wake → poll on one thread: the syscall cost of an executor
    // completion, without the scheduler's share.
    let waker = reactor.waker();
    let ns = median_ns(budget, || {
        for _ in 0..BATCH {
            waker.wake().expect("wake");
            events.clear();
            let woken = reactor
                .poll(Some(Duration::ZERO), &mut events)
                .expect("poll");
            assert!(woken, "waker interrupt lost");
        }
    });
    rows.push("reactor.wake_poll_ns", ns / BATCH as f64);

    // One byte there and back over a registered loopback pair.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let a = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (b, _) = listener.accept().expect("accept");
    for s in [&a, &b] {
        s.set_nodelay(true).expect("nodelay");
    }
    let (ta, tb) = (Token(1), Token(2));
    reactor
        .register(a.as_raw_fd(), ta, Interest::READABLE, Mode::Level)
        .expect("register");
    reactor
        .register(b.as_raw_fd(), tb, Interest::READABLE, Mode::Level)
        .expect("register");
    let mut byte = [0u8; 1];
    let ns = median_ns(budget, || {
        for _ in 0..BATCH {
            (&a).write_all(&[1]).expect("ping");
            wait_readable(&mut reactor, &mut events, tb);
            (&b).read_exact(&mut byte).expect("read ping");
            (&b).write_all(&[2]).expect("pong");
            wait_readable(&mut reactor, &mut events, ta);
            (&a).read_exact(&mut byte).expect("read pong");
        }
    });
    rows.push("reactor.echo_rtt_ns", ns / BATCH as f64);
    reactor.deregister(a.as_raw_fd()).expect("deregister");
    reactor.deregister(b.as_raw_fd()).expect("deregister");

    // Arm a revolution's worth of deadlines, then collect them all.
    let mut wheel = TimerWheel::new(256, xproj_reactor::DEFAULT_TICK);
    let mut fired = Vec::with_capacity(1024);
    let mut now = Instant::now();
    let ns = median_ns(budget, || {
        for i in 0..1024u64 {
            wheel.arm(now + Duration::from_millis(5 * i), i, 0);
        }
        now += Duration::from_secs(7);
        fired.clear();
        assert_eq!(
            wheel.advance(now, &mut fired),
            1024,
            "timer wheel lost entries"
        );
    });
    rows.push("reactor.timer_arm_advance_ns", ns / 1024.0);
}

fn compile_rows(dtd: &Arc<Dtd>, budget: Duration, rows: &mut Rows) {
    let cold = cold_queries();
    let mut i = 0usize;
    let mut next = || {
        i += 1;
        cold[i % cold.len()].as_str()
    };
    let ns = median_ns(budget, || {
        black_box(
            StaticAnalyzer::new(dtd)
                .project_query(next())
                .expect("infer"),
        );
    });
    rows.push("core.infer_us_per_query", ns / 1e3);
    let ns = median_ns(budget, || {
        black_box(QueryArtifact::compile(dtd, next()).expect("compile"));
    });
    rows.push("qc.compile_us", ns / 1e3);

    const BATCH: usize = 1024;
    let cache = ArtifactCache::new(64);
    let ns = median_ns(budget, || {
        for _ in 0..BATCH {
            black_box(cache.get_or_compile(dtd, "//keyword").expect("cache hit"));
        }
    });
    rows.push("qc.cache_hit_ns", ns / BATCH as f64);
    // 96 keys cycling through 64 slots: LRU evicts each before its reuse.
    let cache = ArtifactCache::new(64);
    let ns = median_ns(budget, || {
        black_box(cache.get_or_compile(dtd, next()).expect("cache miss"));
    });
    let stats = cache.stats();
    assert_eq!(stats.hits, 0, "the cold cycle must never hit");
    rows.push("qc.cache_miss_us", ns / 1e3);
}

/// The document-independent and large-document rungs.
pub fn global_rows(dtd: &Arc<Dtd>, big: &[u8], onepass: &Prepared, budget: Duration) -> Rows {
    let mid = &onepass.body[..];
    let mut rows = Rows::default();
    let bytes = big.len() as f64;

    let ns = median_ns(budget, || {
        black_box(scan_pass(black_box(big)));
    });
    rows.push("xmltree.scan_ns_per_byte", ns / bytes);
    let (tokens, peak) = tokenize_pass(big);
    let ns = median_ns(budget, || {
        black_box(tokenize_pass(black_box(big)));
    });
    rows.push("xmltree.tokenize_ns_per_byte", ns / bytes);
    rows.push("xmltree.tokens_per_kib", tokens as f64 / (bytes / 1024.0));
    rows.push("xmltree.peak_buffered_bytes", peak as f64);

    let events = EventList::tokenize(big);
    let mut text = String::new();
    let mut out = Vec::new();
    let (mut peak_resident, mut ff, mut pruned) = (0usize, 0u64, 0usize);
    for (i, query) in PIPELINE_QUERIES.iter().enumerate() {
        let q = i + 1;
        let artifact = QueryArtifact::compile(dtd, query).expect("pipeline query compiles");
        let stats = reference_prune(&artifact, big, &mut out);
        events.replay(&artifact, &mut text);
        assert_eq!(
            text.as_bytes(),
            &out[..],
            "machine replay diverged from the chunked pruner on {query}"
        );
        rows.push(
            format!("core.retained_fraction.q{q}"),
            out.len() as f64 / bytes,
        );
        peak_resident = peak_resident.max(stats.peak_resident_bytes);
        ff += stats.subtrees_fast_forwarded;
        pruned += stats.counters.elements_pruned;

        let ns = median_ns(budget, || events.replay(&artifact, &mut text));
        rows.push(
            format!("core.machine_ns_per_event.q{q}"),
            ns / events.events.len() as f64,
        );
        let ns = median_ns(budget, || {
            black_box(reference_prune(&artifact, black_box(big), &mut out));
        });
        rows.push(format!("engine.prune_ns_per_byte.q{q}"), ns / bytes);
    }
    compile_rows(dtd, budget, &mut rows);
    rows.push("engine.prune_peak_resident_bytes", peak_resident as f64);
    rows.push(
        "engine.fast_forward_share",
        ff as f64 / pruned.max(1) as f64,
    );

    // One-pass query on the mid document, grouped by the plan that ran.
    for plan in ["streaming", "fallback"] {
        let cells: Vec<_> = onepass
            .cells
            .iter()
            .filter(|c| c.artifact.plan.label() == plan)
            .collect();
        let mut total = 0.0;
        for cell in &cells {
            total += median_ns(budget / cells.len().max(1) as u32, || {
                black_box(reference_query(&cell.artifact, black_box(mid), &mut out));
            });
        }
        rows.push(
            format!("engine.query_ns_per_byte.{plan}"),
            total / (cells.len().max(1) * mid.len()) as f64,
        );
    }

    // Peak extra heap while one document goes through, output discarded
    // (prune) or collected (query: the answer is the product).
    let keyword = QueryArtifact::compile(dtd, "//keyword").expect("//keyword compiles");
    let (_, peak) = xproj_bench::ALLOCATOR.measure(|| {
        let mut p = ChunkedPruner::new(&**dtd, &keyword.projector, std::io::sink());
        for chunk in big.chunks(FRAME) {
            p.feed(chunk).expect("alloc probe: feed");
        }
        p.finish().expect("alloc probe: finish");
    });
    rows.push("engine.prune_peak_alloc_bytes", peak as f64);
    let (_, peak) = xproj_bench::ALLOCATOR.measure(|| {
        let mut answer = Vec::new();
        let mut m = QueryMachine::new(Arc::clone(&keyword), QueryOutput::Frames);
        for chunk in mid.chunks(FRAME) {
            m.feed(chunk).expect("alloc probe: feed");
            m.take_output(&mut answer);
        }
        m.finish().expect("alloc probe: finish");
        m.take_output(&mut answer);
        black_box(answer.len());
    });
    rows.push("engine.query_peak_alloc_bytes", peak as f64);

    reactor_rows(budget, &mut rows);
    rows
}

/// One request's worth of engine work for `prepared`, in-process, from
/// the cache state the workload runs in: a hot workload runs the cached
/// artifact, the cold one compiles first.
fn cell_pass(dtd: &Arc<Dtd>, prepared: &Prepared, i: usize, out: &mut Vec<u8>) {
    let cell = &prepared.cells[i];
    let compiled;
    let artifact = if prepared.workload.hot {
        &cell.artifact
    } else {
        compiled = QueryArtifact::compile(dtd, &cell.query).expect("cell compiles");
        &compiled
    };
    match prepared.workload.endpoint {
        Endpoint::Prune => {
            black_box(reference_prune(artifact, black_box(&prepared.body), out));
        }
        Endpoint::Query => {
            black_box(reference_query(artifact, black_box(&prepared.body), out));
        }
    }
}

/// Mean in-process engine µs per request of the workload's mix: the
/// denominator of `server.tax_ratio`.
pub fn cell_us_per_req(dtd: &Arc<Dtd>, prepared: &Prepared, budget: Duration) -> f64 {
    let mut out = Vec::new();
    let n = prepared.cells.len();
    let cycle_ns = median_ns(budget, || {
        for i in 0..n {
            cell_pass(dtd, prepared, i, &mut out);
        }
    });
    cycle_ns / n as f64 / 1e3
}

/// One pass of every layer over every cell of the workload, as spans:
/// `cell` → `scan`, `tokenize`, `machine`, `chunked` | `query`, each on
/// identical bytes, so a layer's self time is its span minus the one
/// below it.
pub fn cell_spans(dtd: &Arc<Dtd>, prepared: &Prepared, trace: &mut Trace) {
    let body = &prepared.body;
    let events = EventList::tokenize(body);
    let mut text = String::new();
    let mut out = Vec::new();
    for (i, cell) in prepared.cells.iter().enumerate() {
        let id = i as u64;
        let cell_start = Instant::now();
        let parent = trace.push("cell", cell_start, cell_start, NO_PARENT, id);
        let mut layer = |name: &'static str, f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            trace.push(name, t, Instant::now(), parent, id);
        };
        layer("scan", &mut || {
            black_box(scan_pass(body));
        });
        layer("tokenize", &mut || {
            black_box(tokenize_pass(body));
        });
        layer("machine", &mut || events.replay(&cell.artifact, &mut text));
        let top = match prepared.workload.endpoint {
            Endpoint::Prune => "chunked",
            Endpoint::Query => "query",
        };
        layer(top, &mut || cell_pass(dtd, prepared, i, &mut out));
        trace.spans[parent as usize].end_ns = trace.ns(Instant::now());
    }
}
