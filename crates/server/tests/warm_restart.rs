//! Warm-restart round trip for the compiled-artifact cache.
//!
//! `--artifact-dir` persists compiled `QueryArtifact`s at graceful
//! shutdown and loads them at bind, so a restarted daemon answers a
//! repeat (DTD, query) pair from the cache without recompiling. This
//! test drives the full cycle in-process: serve, query, shut down
//! (saving), restart on the same directory, and assert the first
//! request is a cache **hit** — the compile counter stays at zero
//! while the load counter shows the artifacts came from disk — with a
//! byte-identical answer.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use xproj_server::{ServeMode, Server, ServerConfig, ServerState, ShutdownReport};
use xproj_testkit::{urlencode, HttpClient};

const BIB_DTD: &str = "<!ELEMENT bib (book*)>\
     <!ELEMENT book (title, author*, price?)>\
     <!ELEMENT title (#PCDATA)>\
     <!ELEMENT author (#PCDATA)>\
     <!ELEMENT price (#PCDATA)>";

const BIB_DOC: &str = "<bib><book><title>T1</title><author>A</author><price>9</price></book>\
     <book><title>T2</title></book></bib>";

struct TestServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    handle: thread::JoinHandle<ShutdownReport>,
}

impl TestServer {
    fn start(mode: ServeMode, artifact_dir: &std::path::Path) -> TestServer {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            mode,
            workers: 2,
            artifact_dir: Some(artifact_dir.to_path_buf()),
            ..Default::default()
        };
        let server = Server::bind(config).expect("bind ephemeral port");
        let addr = server.local_addr();
        let state = server.state();
        let handle = thread::spawn(move || server.serve().expect("serve"));
        TestServer { addr, state, handle }
    }

    fn client(&self) -> HttpClient {
        let c = HttpClient::connect(self.addr).expect("connect");
        c.set_timeout(Duration::from_secs(10)).unwrap();
        c
    }

    fn register_bib(&self) -> String {
        let mut c = self.client();
        let resp = c
            .request("POST", "/v1/dtd?root=bib", &[], Some(BIB_DTD.as_bytes()))
            .expect("register dtd");
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let body = resp.body_str();
        let start = body.find("\"id\":\"").expect("id in response") + 6;
        let end = body[start..].find('"').unwrap() + start;
        body[start..end].to_string()
    }

    fn query(&self, id: &str, query: &str) -> Vec<u8> {
        let mut c = self.client();
        let resp = c
            .request(
                "POST",
                &format!("/v1/query?dtd={id}&query={}", urlencode(query)),
                &[],
                Some(BIB_DOC.as_bytes()),
            )
            .expect("query");
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        resp.body
    }

    fn shutdown(self) -> ShutdownReport {
        let mut c = self.client();
        let resp = c.request("POST", "/admin/shutdown", &[], None).expect("shutdown");
        assert_eq!(resp.status, 200);
        self.handle.join().expect("serve thread")
    }
}

fn warm_restart_round_trip(mode: ServeMode) {
    let dir = std::env::temp_dir().join(format!(
        "xproj_warm_restart_{}_{mode:?}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold boot: the first query compiles its artifact.
    let srv = TestServer::start(mode, &dir);
    let id = srv.register_bib();
    let cold = srv.query(&id, "//title");
    let s = srv.state.cache.stats();
    assert_eq!(s.compiles, 1, "cold boot compiles exactly once: {s:?}");
    assert_eq!(s.loads, 0, "nothing on disk yet: {s:?}");
    srv.shutdown(); // persists the artifact cache to `dir`

    // Warm boot on the same directory: the artifact is resident before
    // the first request, which must therefore be a hit — no compile.
    let srv = TestServer::start(mode, &dir);
    let before = srv.state.cache.stats();
    assert!(before.loads >= 1, "restart loads saved artifacts: {before:?}");
    assert_eq!(before.compiles, 0, "restart must not recompile: {before:?}");
    assert!(before.entries >= 1 && before.resident_bytes > 0, "{before:?}");

    let id = srv.register_bib(); // content-derived id: same as before
    let warm = srv.query(&id, "//title");
    assert_eq!(warm, cold, "warm answer must match the cold answer");
    let after = srv.state.cache.stats();
    assert_eq!(after.compiles, 0, "first warm request is a hit: {after:?}");
    assert!(after.hits >= 1, "{after:?}");

    // The counters are also visible over the wire.
    let mut c = srv.client();
    let resp = c.request("GET", "/metrics", &[], None).unwrap();
    let body = resp.body_str();
    assert!(body.contains("\"loads\":"), "metrics expose loads: {body}");

    let report = srv.shutdown();
    assert_eq!(report.aborted, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_restart_round_trip_reactor() {
    warm_restart_round_trip(ServeMode::Reactor);
}

#[test]
fn warm_restart_round_trip_threaded() {
    warm_restart_round_trip(ServeMode::Threaded);
}
