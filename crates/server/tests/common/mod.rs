//! Shared scaffolding for the server's socket-level test binaries: an
//! in-process [`TestServer`] on an ephemeral port (on the target's
//! driver, or on the portable one), the paper's running-example
//! grammar, and the scenarios that run against both drivers.
#![allow(dead_code)] // each test binary uses its own subset

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;
use xproj_dtd::parse_dtd;
use xproj_engine::{QueryArtifact, QueryMachine, QueryOutput};
use xproj_server::{Server, ServerConfig, ServerState, ShutdownReport};
use xproj_testkit::{urlencode, HttpClient};

/// The paper's running-example grammar, as DTD text.
pub const BIB_DTD: &str = "<!ELEMENT bib (book*)>\
     <!ELEMENT book (title, author*, price?)>\
     <!ELEMENT title (#PCDATA)>\
     <!ELEMENT author (#PCDATA)>\
     <!ELEMENT price (#PCDATA)>";

pub const BIB_DOC: &str = "<bib><book><title>T1</title><author>A</author><author>B</author>\
     <price>12</price></book><book><title>T2</title><author>C</author></book></bib>";

/// Which driver a [`TestServer`] runs on.
#[derive(Clone, Copy)]
pub enum Driver {
    /// `Server::serve`: the target's own.
    Default,
    /// `Server::serve_portable`: thread per connection.
    Portable,
}

pub struct TestServer {
    pub addr: SocketAddr,
    pub state: Arc<ServerState>,
    pub handle: thread::JoinHandle<ShutdownReport>,
}

thread_local! {
    /// Overrides `ServerConfig::reactor_threads` for every server the
    /// current test starts; lets a case re-run against a sharded
    /// multi-loop server without threading a knob through its body.
    static TEST_REACTOR_THREADS: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// Runs `f` with every started server forced to `n` event loops.
pub fn with_reactor_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    TEST_REACTOR_THREADS.with(|c| c.set(Some(n)));
    let out = f();
    TEST_REACTOR_THREADS.with(|c| c.set(None));
    out
}

impl TestServer {
    pub fn start(config: ServerConfig) -> TestServer {
        TestServer::start_on(config, Driver::Default)
    }

    pub fn start_on(mut config: ServerConfig, driver: Driver) -> TestServer {
        config.addr = "127.0.0.1:0".to_string();
        if let Some(n) = TEST_REACTOR_THREADS.with(|c| c.get()) {
            config.reactor_threads = n;
        }
        if let Driver::Portable = driver {
            // One accept loop: bind one listener, not an `SO_REUSEPORT`
            // group whose other members nobody would accept from.
            config.reactor_threads = 1;
        }
        let server = Server::bind(config).expect("bind ephemeral port");
        let addr = server.local_addr();
        let state = server.state();
        let handle = thread::spawn(move || {
            match driver {
                Driver::Default => server.serve(),
                Driver::Portable => server.serve_portable(),
            }
            .expect("serve")
        });
        TestServer {
            addr,
            state,
            handle,
        }
    }

    pub fn client(&self) -> HttpClient {
        let c = HttpClient::connect(self.addr).expect("connect");
        c.set_timeout(Duration::from_secs(10)).unwrap();
        c
    }

    /// Registers DTD text, returning the fingerprint id as sent back.
    pub fn register_dtd(&self, text: &str, root: &str) -> String {
        let mut c = self.client();
        let resp = c
            .request(
                "POST",
                &format!("/v1/dtd?root={}", urlencode(root)),
                &[],
                Some(text.as_bytes()),
            )
            .expect("register dtd");
        assert_eq!(
            resp.status,
            200,
            "dtd registration failed: {}",
            resp.body_str()
        );
        extract_json_str(&resp.body_str(), "id")
    }

    /// Graceful shutdown + join; returns the report.
    pub fn shutdown(self) -> ShutdownReport {
        let mut c = self.client();
        let resp = c
            .request("POST", "/admin/shutdown", &[], None)
            .expect("shutdown");
        assert_eq!(resp.status, 200);
        self.handle.join().expect("serve thread")
    }
}

/// Pulls `"key":"value"` out of a flat JSON object (the server emits
/// flat objects; no parser needed).
pub fn extract_json_str(json: &str, key: &str) -> String {
    let needle = format!("\"{key}\":\"");
    let start = json
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + needle.len();
    let end = json[start..].find('"').expect("unterminated string") + start;
    json[start..end].to_string()
}

pub fn small_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        drain_deadline: Duration::from_secs(10),
        ..Default::default()
    }
}

/// What `prune_str` makes of [`BIB_DOC`] under `query`.
pub fn expected_bib_prune(query: &str) -> String {
    let dtd = Arc::new(parse_dtd(BIB_DTD, "bib").unwrap());
    let projector = &QueryArtifact::compile(&dtd, query).unwrap().projector;
    xproj_core::prune_str(BIB_DOC, &dtd, projector)
        .unwrap()
        .output
}

/// What the in-process engine makes of `doc` under `artifact`, fed
/// `chunk` bytes at a time: the bytes a `/v1/query` response must equal.
pub fn run_query(
    artifact: &Arc<QueryArtifact>,
    doc: &[u8],
    mode: QueryOutput,
    fast_forward: bool,
    chunk: usize,
) -> Vec<u8> {
    let mut machine = QueryMachine::new(Arc::clone(artifact), mode);
    machine.set_fast_forward(fast_forward);
    let mut out = Vec::new();
    for piece in doc.chunks(chunk) {
        machine.feed(piece).unwrap();
        machine.take_output(&mut out);
    }
    machine.finish().unwrap();
    machine.take_output(&mut out);
    out
}

/// The drain criterion: `POST /admin/shutdown` under in-flight
/// load completes every accepted request within the drain deadline.
pub fn graceful_shutdown_drains_in_flight_load(driver: Driver) {
    let config = ServerConfig {
        workers: 6,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        drain_deadline: Duration::from_secs(10),
        ..Default::default()
    };
    let srv = TestServer::start_on(config, driver);
    let id = srv.register_dtd(BIB_DTD, "bib");
    let target = format!("/v1/prune?dtd={id}&query={}", urlencode("/bib/book/title"));

    let expected = expected_bib_prune("/bib/book/title");

    const CLIENTS: usize = 4;
    let started = Arc::new(Barrier::new(CLIENTS + 1));
    let completed = Arc::new(AtomicUsize::new(0));
    let addr = srv.addr;
    let mut joins = Vec::new();
    for _ in 0..CLIENTS {
        let started = Arc::clone(&started);
        let completed = Arc::clone(&completed);
        let target = target.clone();
        let expected = expected.clone();
        joins.push(thread::spawn(move || {
            let mut c = HttpClient::connect(addr).unwrap();
            c.set_timeout(Duration::from_secs(10)).unwrap();
            // Open the request and send the first body chunk, so the
            // request is in flight when shutdown fires...
            c.write_raw(
                format!("POST {target} HTTP/1.1\r\nhost: t\r\ntransfer-encoding: chunked\r\n\r\n")
                    .as_bytes(),
            )
            .unwrap();
            let bytes = BIB_DOC.as_bytes();
            let (head, tail) = bytes.split_at(bytes.len() / 2);
            c.write_raw(format!("{:x}\r\n", head.len()).as_bytes())
                .unwrap();
            c.write_raw(head).unwrap();
            c.write_raw(b"\r\n").unwrap();
            started.wait();
            // ...then keep feeding slowly while the server drains.
            thread::sleep(Duration::from_millis(120));
            c.write_raw(format!("{:x}\r\n", tail.len()).as_bytes())
                .unwrap();
            c.write_raw(tail).unwrap();
            c.write_raw(b"\r\n0\r\n\r\n").unwrap();
            let resp = c.read_response().expect("in-flight request must complete");
            assert_eq!(resp.status, 200, "{}", resp.body_str());
            assert_eq!(resp.body, expected.as_bytes());
            completed.fetch_add(1, Ordering::SeqCst);
        }));
    }
    started.wait();
    // All four requests are mid-body: pull the plug.
    let report = srv.shutdown();
    for j in joins {
        j.join().expect("client thread");
    }
    assert_eq!(
        completed.load(Ordering::SeqCst),
        CLIENTS,
        "every accepted request completes"
    );
    assert_eq!(report.aborted, 0, "drain must not abort in-flight requests");
    assert!(
        report.drained >= CLIENTS as u64,
        "the in-flight prunes count as drained (drained = {})",
        report.drained
    );
}

/// Accept must survive fd exhaustion (EMFILE). The server runs in a
/// child process under a tiny `ulimit -n` — `exec` is the shell command
/// that becomes it, given the port file it must write — and a
/// connection flood exhausts its descriptors: the accept loop must back
/// off and retry instead of spinning on a level-triggered listener or
/// exiting. Pre-existing connections keep answering during the stall,
/// the stall is counted in `/metrics`, and once the flood closes the
/// listener serves fresh connections again.
#[cfg(target_os = "linux")]
pub fn accept_survives_fd_exhaustion(tag: &str, exec: impl Fn(&std::path::Path) -> String) {
    use std::process::{Command, Stdio};

    let port_file =
        std::env::temp_dir().join(format!("xproj-emfile-{}-{tag}.port", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let child = Command::new("sh")
        .arg("-c")
        .arg(format!("ulimit -n 48 && exec {}", exec(&port_file)))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn the server under a tight fd limit");
    // Reap the child even when an assertion below panics.
    struct Reap(std::process::Child);
    impl Drop for Reap {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut child = Reap(child);

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let port: u16 = loop {
        if let Some(p) = std::fs::read_to_string(&port_file)
            .ok()
            .and_then(|s| s.trim().parse().ok())
        {
            break p;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "child never wrote its port file"
        );
        thread::sleep(Duration::from_millis(20));
    };
    let _ = std::fs::remove_file(&port_file);
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();

    let mut keep = HttpClient::connect(addr).expect("pre-flood connection");
    keep.set_timeout(Duration::from_secs(5))
        .expect("set timeout");
    assert_eq!(
        keep.request("GET", "/healthz", &[], None).unwrap().status,
        200
    );

    // Exhaust the child's descriptors: its budget under `ulimit -n 48`
    // is a few dozen sockets, so 80 queued handshakes guarantee accept
    // sees EMFILE. (connect() succeeds client-side once the handshake
    // reaches the backlog, whether or not the server ever accepts it.)
    let flood: Vec<std::net::TcpStream> = (0..80)
        .filter_map(|_| std::net::TcpStream::connect(addr).ok())
        .collect();
    assert!(flood.len() >= 40, "flood fizzled: {} connects", flood.len());
    thread::sleep(Duration::from_millis(300));

    // A stalled listener must not take established connections with it.
    let resp = keep
        .request("GET", "/metrics", &[], None)
        .expect("metrics during fd exhaustion");
    assert_eq!(resp.status, 200);
    assert!(
        accept_stalls_in(&resp.body_str()) >= 1,
        "accept stall not detected: {}",
        resp.body_str()
    );

    // Free the descriptors: the backoff must re-arm the listener, and
    // the stall counter must have registered the episode. The server
    // churns through the flood's backlogged handshakes first, so each
    // probe retries on a new connection.
    drop(flood);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stalls = HttpClient::connect(addr).ok().and_then(|mut c| {
            c.set_timeout(Duration::from_secs(2)).ok()?;
            let resp = c.request("GET", "/metrics", &[], None).ok()?;
            (resp.status == 200).then(|| accept_stalls_in(&resp.body_str()))
        });
        if let Some(stalls) = stalls {
            assert!(stalls >= 1, "accept stall never counted");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "listener never recovered after the flood closed"
        );
        thread::sleep(Duration::from_millis(50));
    }

    // Shut down (retrying the same way) and require a
    // clean exit: nothing in flight was lost to the stall episode.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let down = HttpClient::connect(addr).ok().and_then(|mut c| {
            c.set_timeout(Duration::from_secs(2)).ok()?;
            Some(c.request("POST", "/admin/shutdown", &[], None).ok()?.status == 200)
        });
        // A lost response with the shutdown already under way shows up
        // as the child exiting rather than a 200.
        if down == Some(true) || child.0.try_wait().expect("wait on child").is_some() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "shutdown request never got through"
        );
        thread::sleep(Duration::from_millis(50));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    loop {
        match child.0.try_wait().expect("wait on child") {
            Some(status) => {
                assert!(status.success(), "child exited with {status}");
                break;
            }
            None => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "child did not exit after shutdown"
                );
                thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Extracts the `accept_stalls` counter from a `/metrics` JSON body.
#[cfg(target_os = "linux")]
pub fn accept_stalls_in(body: &str) -> u64 {
    body.split("\"accept_stalls\":")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .expect("accept_stalls counter in /metrics")
}
