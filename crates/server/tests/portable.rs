//! The portable driver's own tests, once. `Server::serve()` picks the
//! driver by target, so on Linux the thread-per-connection driver is
//! reachable only through `Server::serve_portable()`. The protocol is
//! the shared `Connection` machine (`simulation.rs` and
//! `integration.rs` cover it); these cases cover what the portable
//! driver itself does: blocking reads and writes, deadlines as socket
//! timeouts, inline jobs, the accept loop and its drain.

mod common;

use common::*;
use std::io::{Read, Write};
use std::time::{Duration, Instant};
use xproj_server::{Server, ServerConfig};
use xproj_testkit::urlencode;

fn start(config: ServerConfig) -> TestServer {
    TestServer::start_on(config, Driver::Portable)
}

fn prune_target(srv: &TestServer, query: &str) -> String {
    let id = srv.register_dtd(BIB_DTD, "bib");
    format!("/v1/prune?dtd={id}&query={}", urlencode(query))
}

#[test]
fn chunked_prune_round_trip_streams_response() {
    // A tiny buffer unit forces the response into chunked streaming
    // mode even for a small document.
    let srv = start(ServerConfig {
        chunk_size: 16,
        ..small_config()
    });
    let target = prune_target(&srv, "/bib/book/title");
    let chunks: Vec<&[u8]> = BIB_DOC.as_bytes().chunks(7).collect();
    let resp = srv
        .client()
        .request_chunked("POST", &target, &[], &chunks)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
    assert_eq!(resp.body, expected_bib_prune("/bib/book/title").as_bytes());
    assert_eq!(srv.shutdown().aborted, 0);
}

#[test]
fn pipelined_keep_alive_requests() {
    let srv = start(small_config());
    let target = prune_target(&srv, "/bib/book/title");
    // Three requests on the wire before reading any response; the
    // server must answer them in order on the same connection.
    let mut c = srv.client();
    c.send_request("GET", "/healthz", &[], None).unwrap();
    c.send_request("POST", &target, &[], Some(BIB_DOC.as_bytes()))
        .unwrap();
    c.send_request("GET", "/healthz", &[], None).unwrap();
    let (r1, r2, r3) = (
        c.read_response().unwrap(),
        c.read_response().unwrap(),
        c.read_response().unwrap(),
    );
    assert_eq!((r1.status, r2.status, r3.status), (200, 200, 200));
    assert_eq!(r2.body, expected_bib_prune("/bib/book/title").as_bytes());
    assert_eq!(r3.header("connection"), Some("keep-alive"));
    assert_eq!(srv.shutdown().aborted, 0);
}

/// The machine's absolute head deadline must reach the blocking read
/// as its timeout: a trickled head gets `408` at the deadline, not at
/// the trickle's pace.
#[test]
fn slowloris_head_times_out_408() {
    let read_timeout = Duration::from_millis(600);
    let srv = start(ServerConfig {
        read_timeout,
        ..small_config()
    });
    let mut stream = std::net::TcpStream::connect(srv.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let t0 = Instant::now();
    stream.write_all(b"GET /healthz HT").unwrap();
    let trickler = {
        let mut s = stream.try_clone().unwrap();
        std::thread::spawn(move || {
            for _ in 0..160 {
                std::thread::sleep(Duration::from_millis(50));
                if s.write_all(b"T").is_err() {
                    return;
                }
            }
        })
    };
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read 408");
    let elapsed = t0.elapsed();
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "expected a 408 head, got: {text}"
    );
    assert!(elapsed >= read_timeout, "timed out early: {elapsed:?}");
    assert!(
        elapsed < read_timeout + Duration::from_millis(600),
        "408 came {elapsed:?} after the first byte (deadline {read_timeout:?})"
    );
    drop(stream);
    srv.shutdown();
    trickler.join().unwrap();
}

/// Twenty rounds of shutdown under four mid-body requests: the accept
/// backlog is emptied before the listener closes and every request in
/// flight completes.
#[test]
fn graceful_shutdown_drains_in_flight_load() {
    for _ in 0..20 {
        common::graceful_shutdown_drains_in_flight_load(Driver::Portable);
    }
}

/// The accept loop sleeps out fd exhaustion instead of exiting. The
/// server is this test binary re-executed under `ulimit -n 48`, running
/// [`portable_server_child`].
#[test]
#[cfg(target_os = "linux")]
fn accept_backs_off_under_fd_exhaustion() {
    let exe = std::env::current_exe().expect("test binary path");
    accept_survives_fd_exhaustion("portable", |port_file| {
        format!(
            "env XPROJ_PORTABLE_CHILD_PORT_FILE='{}' '{}' --exact portable_server_child \
             --ignored --nocapture",
            port_file.display(),
            exe.display()
        )
    });
}

/// Not a test: the child process of the case above.
#[test]
#[ignore = "helper process for accept_backs_off_under_fd_exhaustion"]
fn portable_server_child() {
    let Ok(port_file) = std::env::var("XPROJ_PORTABLE_CHILD_PORT_FILE") else {
        return;
    };
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        reactor_threads: 1, // one listener for the one accept loop
        ..Default::default()
    };
    let server = Server::bind(config).expect("bind");
    std::fs::write(&port_file, server.local_addr().port().to_string()).expect("port file");
    let report = server.serve_portable().expect("serve");
    assert_eq!(report.aborted, 0);
}
