//! Driver-level cases the socket tests cannot force. (In a file of its
//! own because it builds a job by hand, and `epoll.rs` itself never
//! names a job variant — a gate in tests/surface.rs.)

use super::*;
use crate::state::ServerConfig;
use std::io::Write;
use xproj_engine::{QueryMachine, QueryOutput};

const BIB_DTD: &str = "<!ELEMENT bib (book*)> <!ELEMENT book (title)> <!ELEMENT title (#PCDATA)>";

fn read_all(client: &mut TcpStream) -> String {
    let mut reply = String::new();
    client
        .read_to_string(&mut reply)
        .expect("the loop closes a failed request's connection");
    reply
}

/// A job that panics while the loop thread runs it is contained like
/// one on a lane thread: `place` returns, the request is answered `500`
/// and closed, and the loop serves its next connection.
#[test]
fn a_panicking_loop_job_costs_one_500_not_the_loop() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let state = ServerState::new(ServerConfig::default(), addr);
    let (id, _) = state.register_dtd(xproj_dtd::parse_dtd(BIB_DTD, "bib").unwrap());
    let artifact = state
        .cache
        .get_or_compile(&state.dtd(id).unwrap(), "//title")
        .unwrap();
    let (jobs_tx, _jobs_rx) = mpsc::channel();
    let mut lp = EventLoop {
        state: &state,
        reactor: Reactor::new().unwrap(),
        wheel: TimerWheel::new(WHEEL_SLOTS, DEFAULT_TICK),
        conns: Slab::new(),
        jobs_tx,
        read_buf: vec![0; READ_BUDGET],
    };
    let accept = |lp: &mut EventLoop<'_>| {
        let client = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        lp.install(stream, Instant::now());
        (client, *lp.conns.tokens().last().unwrap())
    };

    // A cached prune with half its body sent: the machine has a feed
    // job out.
    let (mut client, token) = accept(&mut lp);
    let head = format!(
        "POST /v1/prune?dtd={id:016x}&query=//title HTTP/1.1\r\ncontent-length: 64\r\n\r\n<bib>"
    );
    let now = Instant::now();
    let slot = lp.conns.get_mut(token).unwrap();
    let real = slot.conn.handle(Input::Bytes(head.as_bytes()), now, &state);
    assert!(
        real.is_some_and(|job| job.bounded()),
        "a feed is the loop's own work"
    );
    // Swap in a feed that trips an engine assertion: a finished machine.
    let mut session = Box::new(QueryMachine::new(artifact, QueryOutput::Pruned));
    session.feed(b"<bib/>").unwrap();
    session.finish().unwrap();
    let poisoned = Job::Prune {
        session,
        input: b"<bib>".to_vec(),
        finish: false,
        chunk: 64,
    };
    let mut turn = Turn::at(now);
    lp.place(token, Some(poisoned), &mut turn);
    lp.settle(token, &mut turn);
    assert_eq!(state.metrics.loop_jobs.load(Ordering::Relaxed), 1);
    assert_eq!(state.metrics.executor_jobs.load(Ordering::Relaxed), 0);
    drop(client.shutdown(Shutdown::Write));
    lp.read_ready(token, Instant::now()); // the peer's `Eof` ends the linger
    let reply = read_all(&mut client);
    assert!(reply.starts_with("HTTP/1.1 500 "), "{reply}");
    assert!(reply.contains("connection: close"), "{reply}");
    assert_eq!(lp.conns.len(), 0);
    assert_eq!(state.metrics.in_flight.load(Ordering::Relaxed), 0);

    let (mut client, token) = accept(&mut lp);
    client
        .write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    lp.read_ready(token, Instant::now());
    let reply = read_all(&mut client);
    assert!(reply.starts_with("HTTP/1.1 200 "), "{reply}");
}

/// Every feed and every finish is the loop's own work, a fallback
/// plan's finish included: its evaluation runs under the loop's step
/// budget, and only an overrun takes the lane.
#[test]
fn a_fallback_finish_is_bounded() {
    let dtd = std::sync::Arc::new(xproj_dtd::parse_dtd(BIB_DTD, "bib").unwrap());
    let artifact = xproj_engine::QueryArtifact::compile(&dtd, "count(//title)").unwrap();
    let session = Box::new(QueryMachine::new(artifact, QueryOutput::Frames));
    assert_eq!(session.plan_label(), "fallback");
    let finish = Job::Prune {
        session,
        input: b"<bib/>".to_vec(),
        finish: true,
        chunk: 64,
    };
    assert!(finish.bounded());
}
