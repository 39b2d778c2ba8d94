//! End-to-end tests of the `xmlpruned` HTTP surface over real sockets,
//! on the target's default driver, driven through the zero-dependency
//! `xproj_testkit::HttpClient`.
//!
//! Covers the protocol edges — chunked request/response round-trips,
//! oversized-header/body rejection, pipelined keep-alive requests,
//! mid-body client disconnect — plus the two differential oracles:
//! bytes pruned over HTTP are identical to [`xproj_core::prune_str`],
//! and `/v1/query` answers are identical to the reference evaluator
//! over the unpruned tree, on testkit-generated (DTD, document, query)
//! triples; and the drain, backpressure, admission, rate-limit,
//! accept-stall and thousand-idle-connection behaviour that needs a kernel
//! to show. Schedules no
//! socket can force (read fragmentation, partial writes, completion
//! order, exact timer instants) are `simulation.rs`'s.

mod common;

use common::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use xproj_dtd::generate::{generate, GenConfig, RANDOM_DTD_TAGS};
use xproj_dtd::{parse_dtd, Dtd};
use xproj_engine::{QueryArtifact, QueryOutput};
use xproj_server::ServerConfig;
use xproj_testkit::{urlencode, HttpClient, SplitMix64};
use xproj_xquery::{evaluate_query, parse_xquery};

#[test]
fn healthz_metrics_and_prometheus() {
    let srv = TestServer::start(small_config());
    let mut c = srv.client();
    let resp = c.request("GET", "/healthz", &[], None).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body_str(), "{\"status\":\"ok\"}");

    // Keep-alive: same connection serves the metrics request.
    let resp = c.request("GET", "/metrics", &[], None).unwrap();
    assert_eq!(resp.status, 200);
    let body = resp.body_str();
    for key in ["\"server\"", "\"engine\"", "\"cache\"", "\"endpoints\"", "\"in_flight\""] {
        assert!(body.contains(key), "metrics JSON missing {key}: {body}");
    }

    let resp = c.request("GET", "/metrics?format=prometheus", &[], None).unwrap();
    assert_eq!(resp.status, 200);
    let text = resp.body_str();
    assert!(text.contains("xmlpruned_requests_total"), "{text}");
    assert!(text.contains("# TYPE xmlpruned_in_flight gauge"), "{text}");

    let report = srv.shutdown();
    assert_eq!(report.aborted, 0);
}

#[test]
fn dtd_registration_is_idempotent() {
    let srv = TestServer::start(small_config());
    let id1 = srv.register_dtd(BIB_DTD, "bib");
    let id2 = srv.register_dtd(BIB_DTD, "bib");
    assert_eq!(id1, id2, "content-derived ids must match");
    // Clients keep ids across daemon versions: the value is pinned.
    assert_eq!(id1, "984dac3ff52cdcf0");
    assert_eq!(srv.state.dtd_count(), 1);

    // A broken DTD gets a structured 400.
    let mut c = srv.client();
    let resp = c
        .request("POST", "/v1/dtd?root=bib", &[], Some(b"<!ELEMENT bib (unclosed"))
        .unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(extract_json_str(&resp.body_str(), "code"), "dtd-parse");

    // Missing root parameter.
    let mut c = srv.client();
    let resp = c.request("POST", "/v1/dtd", &[], Some(BIB_DTD.as_bytes())).unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(extract_json_str(&resp.body_str(), "code"), "bad-request");

    srv.shutdown();
}

/// The registry holds at most `DTD_REGISTRY_CAPACITY` grammars, evicts
/// the least recently *used*, and an evicted id is an unknown one until
/// the same text is registered again — under the same id, with the same
/// answers.
#[test]
fn the_dtd_registry_is_a_bounded_lru() {
    use xproj_server::state::DTD_REGISTRY_CAPACITY as CAP;
    let srv = TestServer::start(small_config());
    let prune = |id: &str, query: &str, doc: &str| {
        let target = format!("/v1/prune?dtd={id}&query={}", urlencode(query));
        srv.client().request("POST", &target, &[], Some(doc.as_bytes())).unwrap()
    };
    let filler = |i: usize| srv.register_dtd(&format!("<!ELEMENT g{i} (#PCDATA)>"), &format!("g{i}"));

    let bib = srv.register_dtd(BIB_DTD, "bib");
    let bib_answer = prune(&bib, "//title", BIB_DOC);
    assert_eq!(bib_answer.status, 200, "{}", bib_answer.body_str());
    let first = filler(0);
    let first_answer = prune(&first, "/g0", "<g0>kept</g0>");
    assert_eq!(first_answer.body_str(), "<g0>kept</g0>");

    for i in 1..2 * CAP {
        filler(i);
        assert!(srv.state.dtd_count() <= CAP, "{} grammars after {i}", srv.state.dtd_count());
        if i % (CAP / 4) == 0 {
            // Used between registrations: never the least recently used.
            assert_eq!(prune(&bib, "//title", BIB_DOC).body, bib_answer.body);
        }
    }
    assert_eq!(srv.state.dtd_count(), CAP);
    assert_eq!(prune(&bib, "//title", BIB_DOC).body, bib_answer.body);

    // The first filler was not used again: evicted, unknown, and back
    // under the same id with the same bytes once its text is re-sent.
    let gone = prune(&first, "/g0", "<g0>kept</g0>");
    assert_eq!(gone.status, 404);
    assert_eq!(extract_json_str(&gone.body_str(), "code"), "unknown-dtd");
    assert_eq!(filler(0), first);
    let back = prune(&first, "/g0", "<g0>kept</g0>");
    assert_eq!((back.status, &back.body), (200, &first_answer.body));
    srv.shutdown();
}

/// Nothing is persisted, so a restart costs one registration and one
/// compile per (DTD, query) — and changes no answer and no id.
#[test]
fn restarted_daemon_recompiles_once_and_answers_identically() {
    let run = || {
        let srv = TestServer::start(small_config());
        let id = srv.register_dtd(BIB_DTD, "bib");
        let resp = srv
            .client()
            .request(
                "POST",
                &format!("/v1/query?dtd={id}&query={}", urlencode("//title")),
                &[],
                Some(BIB_DOC.as_bytes()),
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let s = srv.state.cache.stats();
        assert_eq!((s.compiles, s.misses, s.hits), (1, 1, 0), "{s:?}");
        assert_eq!(srv.shutdown().aborted, 0);
        (id, resp.body)
    };
    let first = run();
    assert_eq!(run(), first);
}

#[test]
fn prune_content_length_roundtrip() {
    let srv = TestServer::start(small_config());
    let id = srv.register_dtd(BIB_DTD, "bib");

    let dtd = Arc::new(parse_dtd(BIB_DTD, "bib").unwrap());
    let query = "/bib/book/title";
    let projector = &QueryArtifact::compile(&dtd, query).unwrap().projector;
    let expected = xproj_core::prune_str(BIB_DOC, &dtd, projector).unwrap().output;

    let mut c = srv.client();
    let resp = c
        .request(
            "POST",
            &format!("/v1/prune?dtd={id}&query={}", urlencode(query)),
            &[],
            Some(BIB_DOC.as_bytes()),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(resp.body, expected.as_bytes(), "HTTP prune diverged from prune_str");
    assert!(!expected.contains("author"), "projection should drop authors");
    srv.shutdown();
}

#[test]
fn prune_chunked_roundtrip_streams_response() {
    // A tiny buffer unit forces the response into chunked streaming
    // mode even for a small document.
    let config = ServerConfig { chunk_size: 16, ..small_config() };
    let srv = TestServer::start(config);
    let id = srv.register_dtd(BIB_DTD, "bib");

    let dtd = Arc::new(parse_dtd(BIB_DTD, "bib").unwrap());
    let query = "/bib/book/title";
    let projector = &QueryArtifact::compile(&dtd, query).unwrap().projector;
    let expected = xproj_core::prune_str(BIB_DOC, &dtd, projector).unwrap().output;

    // Feed the document in deliberately awkward 7-byte chunks so HTTP
    // chunk boundaries land mid-token.
    let bytes = BIB_DOC.as_bytes();
    let chunks: Vec<&[u8]> = bytes.chunks(7).collect();
    let mut c = srv.client();
    let resp = c
        .request_chunked(
            "POST",
            &format!("/v1/prune?dtd={id}&query={}", urlencode(query)),
            &[],
            &chunks,
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(
        resp.header("transfer-encoding").map(str::to_ascii_lowercase).as_deref(),
        Some("chunked"),
        "response should stream once it outgrows the buffer"
    );
    assert_eq!(resp.body, expected.as_bytes());
    srv.shutdown();
}

#[test]
fn transfer_coding_list_and_connection_tokens() {
    let srv = TestServer::start(small_config());
    let id = srv.register_dtd(BIB_DTD, "bib");
    let target = format!("/v1/prune?dtd={id}&query={}", urlencode("/bib/book/title"));

    // A transfer coding this server does not implement → 501, before
    // any body byte is consumed.
    let mut c = srv.client();
    let resp = c
        .request(
            "POST",
            &target,
            &[("transfer-encoding", "gzip, chunked")],
            Some(BIB_DOC.as_bytes()),
        )
        .unwrap();
    assert_eq!(resp.status, 501, "{}", resp.body_str());
    assert_eq!(extract_json_str(&resp.body_str(), "code"), "not-implemented");

    // `chunked` applied anywhere but last is a framing error, not 501.
    let mut c = srv.client();
    let resp = c
        .request(
            "POST",
            &target,
            &[("transfer-encoding", "chunked, chunked")],
            Some(BIB_DOC.as_bytes()),
        )
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body_str());

    // A `close` token in a Connection list closes even when it is not
    // the whole header value.
    let mut c = srv.client();
    let resp = c
        .request("GET", "/healthz", &[("connection", "close, te")], None)
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("connection"), Some("close"));

    srv.shutdown();
}

#[test]
fn oversized_header_rejected_431() {
    let config = ServerConfig { max_header_bytes: 256, ..small_config() };
    let srv = TestServer::start(config);
    let mut c = srv.client();
    let huge = "x".repeat(1024);
    let resp = c
        .request("GET", "/healthz", &[("x-padding", huge.as_str())], None)
        .unwrap();
    assert_eq!(resp.status, 431);
    assert_eq!(extract_json_str(&resp.body_str(), "code"), "headers-too-large");
    srv.shutdown();
}

#[test]
fn oversized_body_rejected_413() {
    // Big enough for the DTD registration, smaller than the documents.
    let config = ServerConfig { max_body_bytes: 256, ..small_config() };
    let srv = TestServer::start(config);
    let id = srv.register_dtd(BIB_DTD, "bib");

    let big_doc = format!(
        "<bib>{}</bib>",
        "<book><title>T</title></book>".repeat(40)
    );

    // Content-Length over the limit.
    let mut c = srv.client();
    let resp = c
        .request(
            "POST",
            &format!("/v1/prune?dtd={id}&query={}", urlencode("/bib/book/title")),
            &[],
            Some(big_doc.as_bytes()),
        )
        .unwrap();
    assert_eq!(resp.status, 413);
    assert_eq!(extract_json_str(&resp.body_str(), "code"), "body-too-large");

    // Chunked body crossing the limit mid-stream: the `413` lands while
    // the client is still sending chunks. Twenty rounds, because the
    // failure this pins was a race — a server that closes with the
    // rest of the body unread resets the client (`EPIPE` on its next
    // write, or the reply lost to the RST); the lingering close reads
    // the client out instead.
    let chunks: Vec<&[u8]> = big_doc.as_bytes().chunks(16).collect();
    for round in 0..20 {
        let resp = srv
            .client()
            .request_chunked(
                "POST",
                &format!("/v1/prune?dtd={id}&query={}", urlencode("/bib/book/title")),
                &[],
                &chunks,
            )
            .unwrap_or_else(|e| panic!("round {round}: early 413 lost to a reset: {e}"));
        assert_eq!(resp.status, 413);
        assert_eq!(extract_json_str(&resp.body_str(), "code"), "body-too-large");
    }
    srv.shutdown();
}

/// A grammar is buffered whole, so `/v1/dtd` has its own cap far below
/// the default `--max-body-bytes`: a DTD of exactly 64 KiB registers, one
/// byte more is `413 body-too-large`.
#[test]
fn dtd_bodies_over_64_kib_are_rejected_413() {
    use xproj_server::state::MAX_DTD_BODY_BYTES as CAP;
    let srv = TestServer::start(small_config());
    assert!(srv.state.config.max_body_bytes > CAP);
    let padded = |len: u64| BIB_DTD.to_string() + &" ".repeat(len as usize - BIB_DTD.len());
    let mut c = srv.client();
    let resp = c.request("POST", "/v1/dtd?root=bib", &[], Some(padded(CAP).as_bytes())).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(extract_json_str(&resp.body_str(), "id"), srv.register_dtd(BIB_DTD, "bib"));

    let mut c = srv.client();
    let resp = c
        .request("POST", "/v1/dtd?root=bib", &[], Some(padded(CAP + 1).as_bytes()))
        .unwrap();
    assert_eq!(resp.status, 413);
    assert_eq!(extract_json_str(&resp.body_str(), "code"), "body-too-large");
    assert_eq!(srv.state.dtd_count(), 1);
    srv.shutdown();
}

#[test]
fn structured_errors_unknown_dtd_bad_query_malformed_xml() {
    let srv = TestServer::start(small_config());
    let id = srv.register_dtd(BIB_DTD, "bib");

    // Unknown DTD id → 404 unknown-dtd.
    let mut c = srv.client();
    let resp = c
        .request(
            "POST",
            "/v1/prune?dtd=00000000deadbeef&query=%2Fbib",
            &[],
            Some(BIB_DOC.as_bytes()),
        )
        .unwrap();
    assert_eq!(resp.status, 404);
    assert_eq!(extract_json_str(&resp.body_str(), "code"), "unknown-dtd");

    // Unparsable query → 400 bad-query (the engine ErrorCode).
    let mut c = srv.client();
    let resp = c
        .request(
            "POST",
            &format!("/v1/prune?dtd={id}&query={}", urlencode("/bib[")),
            &[],
            Some(BIB_DOC.as_bytes()),
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(extract_json_str(&resp.body_str(), "code"), "bad-query");

    // 3 000 nested parentheses (well inside the head limit) used to
    // overflow an executor thread's stack and abort the whole process;
    // now it is one more bad query, and the daemon keeps serving.
    let deep = format!("{}/bib{}", "(".repeat(3000), ")".repeat(3000));
    for endpoint in ["query", "prune"] {
        let mut c = srv.client();
        let resp = c
            .request(
                "POST",
                &format!("/v1/{endpoint}?dtd={id}&query={deep}"),
                &[],
                Some(BIB_DOC.as_bytes()),
            )
            .unwrap();
        assert_eq!(resp.status, 400, "{}", resp.body_str());
        assert_eq!(extract_json_str(&resp.body_str(), "code"), "bad-query");
        let resp = srv.client().request("GET", "/healthz", &[], None).unwrap();
        assert_eq!(resp.status, 200);
    }

    // Malformed document → 400 malformed-xml (buffered, so the
    // structured body is still possible).
    let mut c = srv.client();
    let resp = c
        .request(
            "POST",
            &format!("/v1/prune?dtd={id}&query={}", urlencode("/bib/book/title")),
            &[],
            Some(b"<bib><book><title>T</title>"),
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(extract_json_str(&resp.body_str(), "code"), "malformed-xml");

    // Undeclared element → 422 undeclared-element.
    let mut c = srv.client();
    let resp = c
        .request(
            "POST",
            &format!("/v1/prune?dtd={id}&query={}", urlencode("/bib/book/title")),
            &[],
            Some(b"<bib><pamphlet/></bib>"),
        )
        .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body_str());
    assert_eq!(extract_json_str(&resp.body_str(), "code"), "undeclared-element");

    // Unroutable path / wrong method.
    let mut c = srv.client();
    let resp = c.request("GET", "/v2/prune", &[], None).unwrap();
    assert_eq!(resp.status, 404);
    assert_eq!(extract_json_str(&resp.body_str(), "code"), "not-found");
    let mut c = srv.client();
    let resp = c.request("DELETE", "/v1/prune", &[], None).unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(extract_json_str(&resp.body_str(), "code"), "method-not-allowed");

    srv.shutdown();
}

#[test]
fn pipelined_keep_alive_requests() {
    let srv = TestServer::start(small_config());
    let id = srv.register_dtd(BIB_DTD, "bib");
    let target = format!("/v1/prune?dtd={id}&query={}", urlencode("/bib/book/title"));

    let dtd = Arc::new(parse_dtd(BIB_DTD, "bib").unwrap());
    let projector = &QueryArtifact::compile(&dtd, "/bib/book/title").unwrap().projector;
    let expected = xproj_core::prune_str(BIB_DOC, &dtd, projector).unwrap().output;

    // Three requests on the wire before reading any response; the
    // server must answer them in order on the same connection.
    let mut c = srv.client();
    c.send_request("GET", "/healthz", &[], None).unwrap();
    c.send_request("POST", &target, &[], Some(BIB_DOC.as_bytes())).unwrap();
    c.send_request("GET", "/healthz", &[], None).unwrap();
    let r1 = c.read_response().unwrap();
    let r2 = c.read_response().unwrap();
    let r3 = c.read_response().unwrap();
    assert_eq!((r1.status, r3.status), (200, 200));
    assert_eq!(r2.status, 200);
    assert_eq!(r2.body, expected.as_bytes());
    srv.shutdown();
}

#[test]
fn mid_body_disconnect_leaves_server_healthy() {
    let config = ServerConfig { read_timeout: Duration::from_millis(500), ..small_config() };
    let srv = TestServer::start(config);
    let id = srv.register_dtd(BIB_DTD, "bib");

    // Promise 4096 bytes, send 10, vanish.
    {
        let mut c = srv.client();
        c.write_raw(
            format!(
                "POST /v1/prune?dtd={id}&query={} HTTP/1.1\r\nhost: t\r\n\
                 content-length: 4096\r\n\r\n<bib><book",
                urlencode("/bib/book/title")
            )
            .as_bytes(),
        )
        .unwrap();
        // Drop: TCP FIN mid-body.
    }
    // Same with a chunked body cut off mid-chunk.
    {
        let mut c = srv.client();
        c.write_raw(
            format!(
                "POST /v1/prune?dtd={id}&query={} HTTP/1.1\r\nhost: t\r\n\
                 transfer-encoding: chunked\r\n\r\nff\r\n<bib>",
                urlencode("/bib/book/title")
            )
            .as_bytes(),
        )
        .unwrap();
    }

    // Give the workers a moment to notice, then prove the pool still
    // serves: a full round-trip must succeed.
    thread::sleep(Duration::from_millis(100));
    let mut c = srv.client();
    let resp = c
        .request(
            "POST",
            &format!("/v1/prune?dtd={id}&query={}", urlencode("/bib/book/title")),
            &[],
            Some(BIB_DOC.as_bytes()),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let report = srv.shutdown();
    assert_eq!(report.aborted, 0);
}

/// The differential criterion: HTTP-streamed pruning is
/// byte-identical to `core::prune_str` on testkit-generated
/// (DTD, document, query) triples.
#[test]
fn differential_http_prune_matches_prune_str() {
    let srv = TestServer::start(small_config());
    let mut rng = SplitMix64::new(0x9e3779b97f4a7c15);
    let mut cases = 0;
    for case in 0..24u64 {
        // Generate a random grammar as DTD *text* (what the server
        // parses), then a valid document and a query.
        let text = random_dtd_text(&mut rng);
        let root = "r";
        let dtd: Dtd = parse_dtd(&text, root)
            .unwrap_or_else(|e| panic!("case {case}: generated DTD failed to parse: {e}\n{text}"));
        let doc = generate(
            &dtd,
            rng.next_u64(),
            &GenConfig { fanout: 1.6, max_depth: 7, text_words: 2 },
        );
        let xml = doc.to_xml();
        let query = random_query(&mut rng);

        let dtd = Arc::new(dtd);
        let artifact = match QueryArtifact::compile(&dtd, &query) {
            Ok(a) => a,
            Err(_) => continue, // not a projectable query; skip
        };
        let expected = xproj_core::prune_str(&xml, &dtd, &artifact.projector)
            .unwrap_or_else(|e| panic!("case {case}: prune_str failed: {e}"))
            .output;

        let id = srv.register_dtd(&text, root);
        // Chunk size varies per case so boundaries shift around.
        let step = [1usize, 3, 7, 64, 255, 1024][case as usize % 6];
        let chunks: Vec<&[u8]> = xml.as_bytes().chunks(step).collect();
        let mut c = srv.client();
        let resp = c
            .request_chunked(
                "POST",
                &format!("/v1/prune?dtd={id}&query={}", urlencode(&query)),
                &[],
                &chunks,
            )
            .unwrap();
        assert_eq!(resp.status, 200, "case {case} query {query}: {}", resp.body_str());
        assert_eq!(
            resp.body,
            expected.as_bytes(),
            "case {case}: HTTP prune diverged from prune_str\nquery: {query}\ndoc: {xml}"
        );
        cases += 1;
    }
    assert!(cases >= 16, "too many skipped cases: only {cases} ran");
    let report = srv.shutdown();
    assert_eq!(report.aborted, 0);
}

/// `/v1/prune` honours `fast_forward=0`: by default a dead subtree is
/// raw-scanned, so a mismatched end tag inside it goes unseen; with
/// fast-forward off the same pass is a full well-formedness check.
#[test]
fn prune_fast_forward_param_makes_the_pass_a_full_check() {
    let srv = TestServer::start(small_config());
    let id = srv.register_dtd(BIB_DTD, "bib");
    let doc = "<bib><book><title>T</title><author><b>x</i></author></book></bib>";
    let target = format!("/v1/prune?dtd={id}&query={}", urlencode("/bib/book/title"));

    let mut c = srv.client();
    let resp = c.request("POST", &target, &[], Some(doc.as_bytes())).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(resp.body_str(), "<bib><book><title>T</title></book></bib>");

    let mut c = srv.client();
    let resp = c
        .request("POST", &format!("{target}&fast_forward=0"), &[], Some(doc.as_bytes()))
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body_str());
    assert_eq!(extract_json_str(&resp.body_str(), "code"), "malformed-xml");
    srv.shutdown();
}

/// `/v1/query` answers in one pass: the response must be byte-for-byte
/// the `QueryMachine`'s x-ndjson frame stream, under both fast-forward
/// modes, and the endpoint must surface in the metrics (its own
/// latency label plus the artifact-cache counters).
#[test]
fn query_one_pass_roundtrip_and_metrics() {
    let srv = TestServer::start(small_config());
    let id = srv.register_dtd(BIB_DTD, "bib");
    let dtd = Arc::new(parse_dtd(BIB_DTD, "bib").unwrap());
    let query = "//title";
    let artifact = QueryArtifact::compile(&dtd, query).unwrap();

    for ff in [true, false] {
        let expected = run_query(&artifact, BIB_DOC.as_bytes(), QueryOutput::Frames, ff, 7);
        let target = format!(
            "/v1/query?dtd={id}&query={}{}",
            urlencode(query),
            if ff { "" } else { "&fast_forward=0" }
        );
        let mut c = srv.client();
        let resp = c.request("POST", &target, &[], Some(BIB_DOC.as_bytes())).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        assert_eq!(
            resp.header("content-type"),
            Some("application/x-ndjson"),
            "query responses are ndjson frames"
        );
        assert_eq!(resp.body, expected, "HTTP query diverged from QueryMachine (ff={ff})");
    }

    // Protocol edges: a missing query parameter and an unparseable
    // query are both structured 400s, before any body is consumed.
    let mut c = srv.client();
    let resp = c
        .request("POST", &format!("/v1/query?dtd={id}"), &[], Some(BIB_DOC.as_bytes()))
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body_str());
    let mut c = srv.client();
    let resp = c
        .request(
            "POST",
            &format!("/v1/query?dtd={id}&query={}", urlencode("///[")),
            &[],
            Some(BIB_DOC.as_bytes()),
        )
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body_str());
    assert!(resp.body_str().contains("bad-query"), "{}", resp.body_str());
    let mut c = srv.client();

    // Observability: the query endpoint has its own latency label, the
    // artifact cache reports compiles in both metric formats, and the
    // engine counters count the two documents queried (the 400s above
    // never reached the engine).
    let resp = c.request("GET", "/metrics", &[], None).unwrap();
    let body = resp.body_str();
    let engine = srv.state.metrics.engine_snapshot();
    assert_eq!(engine.documents, 2, "one engine document per /v1/query");
    assert_eq!(engine.bytes_in, 2 * BIB_DOC.len() as u64);
    assert!(engine.events > 0 && engine.bytes_out > 0, "{engine:?}");
    assert!(body.contains("\"engine\":{\"documents\":2,"), "{body}");
    assert!(body.contains("\"query\""), "metrics JSON missing query label: {body}");
    assert!(body.contains("\"compiles\""), "metrics JSON missing compiles: {body}");
    assert!(body.contains("\"resident_bytes\""), "{body}");
    let resp = c.request("GET", "/metrics?format=prometheus", &[], None).unwrap();
    let text = resp.body_str();
    assert!(text.contains("xmlpruned_cache_compiles_total"), "{text}");
    assert!(text.contains("endpoint=\"query\""), "{text}");

    let report = srv.shutdown();
    assert_eq!(report.aborted, 0);
}

/// The acceptance gate: `/v1/query` over HTTP (chunked bodies, varying
/// chunk sizes) answers byte-identically to the `QueryMachine`, whose
/// `Answer` form in turn matches the reference evaluator run over the
/// **unpruned** in-memory tree, on random (DTD, document, query)
/// triples.
#[test]
fn differential_http_query_matches_reference() {
    let srv = TestServer::start(small_config());
    let mut rng = SplitMix64::new(0x517cc1b727220a95);
    let mut cases = 0;
    for case in 0..24u64 {
        let text = random_dtd_text(&mut rng);
        let root = "r";
        let dtd: Dtd = parse_dtd(&text, root)
            .unwrap_or_else(|e| panic!("case {case}: generated DTD failed to parse: {e}\n{text}"));
        let doc = generate(
            &dtd,
            rng.next_u64(),
            &GenConfig { fanout: 1.6, max_depth: 7, text_words: 2 },
        );
        let xml = doc.to_xml();
        let query = random_query(&mut rng);

        let dtd = Arc::new(dtd);
        let artifact = match QueryArtifact::compile(&dtd, &query) {
            Ok(a) => a,
            Err(_) => continue, // not a compilable query; skip
        };
        // The reference leg: the machine's answer must equal the
        // evaluator over the unpruned tree (projection soundness).
        let reference = match evaluate_query(&doc, &parse_xquery(&query).unwrap()) {
            Ok(r) => r,
            Err(_) => continue,
        };
        let answer = run_query(&artifact, xml.as_bytes(), QueryOutput::Answer, true, 101);
        assert_eq!(
            String::from_utf8(answer).unwrap(),
            reference,
            "case {case}: one-pass answer diverged from unpruned reference\nquery: {query}\ndoc: {xml}"
        );
        let expected = run_query(&artifact, xml.as_bytes(), QueryOutput::Frames, true, 101);

        let id = srv.register_dtd(&text, root);
        let step = [1usize, 3, 7, 64, 255, 1024][case as usize % 6];
        let chunks: Vec<&[u8]> = xml.as_bytes().chunks(step).collect();
        let mut c = srv.client();
        let resp = c
            .request_chunked(
                "POST",
                &format!("/v1/query?dtd={id}&query={}", urlencode(&query)),
                &[],
                &chunks,
            )
            .unwrap();
        assert_eq!(resp.status, 200, "case {case} query {query}: {}", resp.body_str());
        assert_eq!(
            resp.body,
            expected,
            "case {case}: HTTP query diverged from QueryMachine\nquery: {query}\ndoc: {xml}"
        );
        cases += 1;
    }
    assert!(cases >= 16, "too many skipped cases: only {cases} ran");
    let report = srv.shutdown();
    assert_eq!(report.aborted, 0);
}

/// A random but always-parseable DTD over a fixed tag alphabet.
/// Element `i`'s content model only references tags with index `> i`,
/// so the grammar is acyclic and document generation terminates even
/// through mandatory (`+`/bare) children.
fn random_dtd_text(rng: &mut SplitMix64) -> String {
    const TAGS: [&str; 6] = ["r", "a", "b", "c", "d", "e"];
    let mut out = String::new();
    for (i, tag) in TAGS.iter().enumerate() {
        let rest = &TAGS[i + 1..];
        let model = if rest.is_empty() || (i > 0 && rng.below(4) == 0) {
            "(#PCDATA)".to_string()
        } else if i > 0 && rng.below(8) == 0 {
            "EMPTY".to_string()
        } else if rest.len() >= 2 && rng.below(4) == 0 {
            let x = *rng.pick(rest);
            let y = *rng.pick(rest);
            format!("(({x} | {y})*)")
        } else {
            let n = rng.range_incl(1, rest.len().min(3));
            let items: Vec<String> = (0..n)
                .map(|_| format!("{}{}", rng.pick(rest), rng.pick(&["", "?", "*", "+"])))
                .collect();
            format!("({})", items.join(", "))
        };
        out.push_str(&format!("<!ELEMENT {tag} {model}>"));
    }
    out
}

/// A random XPathℓ query over the random-DTD tag alphabet (the same
/// shape the soundness fuzzer uses, restricted to downward axes so
/// every query is projectable).
fn random_query(rng: &mut SplitMix64) -> String {
    let axes = ["child::", "descendant::", "descendant-or-self::", "self::"];
    let nsteps = rng.range_incl(1, 3);
    let mut parts = Vec::new();
    for _ in 0..nsteps {
        let axis = *rng.pick(&axes);
        let test = match rng.below(5) {
            0 => "node()".to_string(),
            1 => "text()".to_string(),
            2 => "*".to_string(),
            _ => rng.pick(RANDOM_DTD_TAGS).to_string(),
        };
        parts.push(format!("{axis}{test}"));
    }
    format!("/{}", parts.join("/"))
}

/// An idle keep-alive connection costs the server nothing it needs for
/// anyone else: with a single executor worker and a served client left
/// open and idle, a second client's request (and a shutdown request)
/// must be answered at once, not when the idle read deadline expires.
#[test]
fn idle_keep_alive_peer_does_not_delay_a_second_connection_or_shutdown() {
    let config = ServerConfig {
        workers: 1,
        // Long idle deadline: a quick pass cannot be the deadline.
        read_timeout: Duration::from_secs(30),
        write_timeout: Duration::from_secs(5),
        drain_deadline: Duration::from_secs(10),
        ..Default::default()
    };
    let srv = TestServer::start(config);

    // Serve one request, then leave the connection open and idle.
    let mut idle = srv.client();
    let resp = idle.request("GET", "/healthz", &[], None).unwrap();
    assert_eq!(resp.status, 200);

    let t0 = std::time::Instant::now();
    let mut c2 = srv.client();
    c2.set_timeout(Duration::from_secs(5)).unwrap();
    let resp = c2.request("GET", "/healthz", &[], None).unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "second connection starved for {:?} behind an idle keep-alive peer",
        t0.elapsed()
    );

    // Shutdown must also get through (this was the original symptom).
    let report = srv.shutdown();
    assert_eq!(report.aborted, 0);
}

const SITE_DOC: &[u8] = b"<site><regions><africa><item id=\"i\"><location>L</location>\
    <quantity>1</quantity><name>n</name><payment>p</payment><description><text>t \
    <keyword>k</keyword></text></description><shipping>s</shipping><mailbox/></item></africa>\
    <asia/><australia/><europe/><namerica/><samerica/></regions><categories/><catgraph/>\
    <people/><open_auctions/><closed_auctions/></site>";

/// ROADMAP item 1's up/down family: `//keyword` + k × `/ancestor::*/descendant::*`.
fn up_down(k: usize) -> String {
    format!("//keyword{}", "/ancestor::*/descendant::*".repeat(k))
}

/// Lane isolation: work nothing bounds parks the executor lane, never a
/// loop. One loop, one lane thread: connection A's slow job (a cold
/// query's compile past the loop's step budget — ROADMAP item 1's
/// `ancestor`/`descendant` family, over a second at k = 5 in a debug
/// build — then the same query under
/// `/v1/analyze`) is on the lane when connection B asks for a prune
/// whose artifact is cached, which is the loop's own work. Asserted by
/// order, not by clock: B's complete `200` is read while A's job is
/// still out and A's socket has nothing to read; then A answers too.
#[test]
fn a_parked_executor_lane_does_not_delay_a_cached_prune() {
    let srv = TestServer::start(ServerConfig {
        workers: 1,
        reactor_threads: 1,
        read_timeout: Duration::from_secs(60),
        ..small_config()
    });
    let id = srv.register_dtd(xproj_xmark::AUCTION_DTD, "site");
    let slow = urlencode(&up_down(5));
    let cached = format!("/v1/prune?dtd={id}&query={}", urlencode("//keyword"));
    let warm = srv.client().request("POST", &cached, &[], Some(SITE_DOC)).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.body_str());
    let lane_depth = || srv.state.metrics.executor_queue_depth.load(Ordering::Relaxed);

    for endpoint in ["query", "analyze"] {
        let mut a = srv.client();
        a.set_timeout(Duration::from_secs(60)).unwrap();
        let target = format!("/v1/{endpoint}?dtd={id}&query={slow}");
        a.send_request("POST", &target, &[], Some(SITE_DOC)).unwrap();
        let t0 = std::time::Instant::now();
        while lane_depth() == 0 {
            assert!(t0.elapsed() < Duration::from_secs(10), "{endpoint}: no job reached the lane");
            thread::sleep(Duration::from_millis(1));
        }

        let resp = srv.client().request("POST", &cached, &[], Some(SITE_DOC)).unwrap();
        assert_eq!((resp.status, &resp.body), (200, &warm.body));
        assert_eq!(lane_depth(), 1, "{endpoint}: B's 200 was read after A's job came back");
        a.stream_ref().set_nonblocking(true).unwrap();
        match a.stream_ref().peek(&mut [0u8; 1]) {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            other => panic!("{endpoint}: A answered before B's cached prune: {other:?}"),
        }
        a.stream_ref().set_nonblocking(false).unwrap();
        let resp = a.read_response().unwrap();
        assert_eq!(resp.status, 200, "{endpoint}: {}", resp.body_str());
    }
    assert_eq!(srv.shutdown().aborted, 0);
}

/// Where a cold compile runs. Within `LOOP_COMPILE_STEPS` it runs on the
/// loop, with no lane job. Past the budget (the family's k = 1, the
/// smallest member that overruns: `tests/compile_steps.rs`) the loop
/// hands it to the lane, counted in `cache.lane_compiles`, and the answer
/// is the same. Then, while a slower member's compile is on the lane, a
/// `/healthz` on a second connection to the same loop is answered
/// first. That is asserted by order, as above: A's job is still out and
/// A's socket has nothing to read.
#[test]
fn cold_compiles_run_on_the_loop_within_the_step_budget() {
    let srv = TestServer::start(ServerConfig {
        workers: 1,
        reactor_threads: 1,
        read_timeout: Duration::from_secs(60),
        ..small_config()
    });
    let id = srv.register_dtd(xproj_xmark::AUCTION_DTD, "site");
    let dtd = Arc::new(parse_dtd(xproj_xmark::AUCTION_DTD, "site").unwrap());
    let counters = || {
        let m = &srv.state.metrics;
        let lane_compiles = srv.state.cache.stats().lane_compiles;
        (m.executor_jobs.load(Ordering::Relaxed), m.loop_jobs.load(Ordering::Relaxed), lane_compiles)
    };
    // (lane jobs, loop jobs, lane compiles) one request moved.
    let request = |endpoint: &str, q: &str| {
        let target = format!("/v1/{endpoint}?dtd={id}&query={}", urlencode(q));
        let before = counters();
        let resp = srv.client().request("POST", &target, &[], Some(SITE_DOC)).unwrap();
        assert_eq!(resp.status, 200, "{q}: {}", resp.body_str());
        let artifact = QueryArtifact::compile(&dtd, q).unwrap();
        let expected = if endpoint == "query" {
            run_query(&artifact, SITE_DOC, QueryOutput::Frames, true, 7)
        } else {
            let doc = std::str::from_utf8(SITE_DOC).unwrap();
            xproj_core::prune_str(doc, &dtd, &artifact.projector).unwrap().output.into_bytes()
        };
        assert_eq!(resp.body, expected, "{endpoint} {q}");
        let after = counters();
        (after.0 - before.0, after.1 - before.1, after.2 - before.2)
    };

    let (lane, on_loop, overruns) = request("query", "/site/regions/africa/item/location");
    assert_eq!((lane, overruns), (0, 0), "a friendly compile took the lane");
    assert!(on_loop >= 1, "the compile and the feed ran on the loop");
    let (lane, _, overruns) = request("prune", &up_down(1));
    assert_eq!((lane, overruns), (1, 1), "an over-budget compile stayed on the loop");
    // Now a hit: its one lane job is the finish of the fallback plan (an
    // upward axis does not stream), which nothing bounds.
    let (lane, _, overruns) = request("query", &up_down(1));
    assert_eq!((lane, overruns), (1, 0));

    let lane_depth = || srv.state.metrics.executor_queue_depth.load(Ordering::Relaxed);
    let mut a = srv.client();
    a.set_timeout(Duration::from_secs(60)).unwrap();
    let target = format!("/v1/query?dtd={id}&query={}", urlencode(&up_down(5)));
    a.send_request("POST", &target, &[], Some(SITE_DOC)).unwrap();
    let t0 = std::time::Instant::now();
    while lane_depth() == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "the compile never reached the lane");
        thread::sleep(Duration::from_millis(1));
    }
    let resp = srv.client().request("GET", "/healthz", &[], None).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(lane_depth(), 1, "/healthz was read after A's compile came back");
    a.stream_ref().set_nonblocking(true).unwrap();
    match a.stream_ref().peek(&mut [0u8; 1]) {
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
        other => panic!("A answered before /healthz: {other:?}"),
    }
    a.stream_ref().set_nonblocking(false).unwrap();
    let resp = a.read_response().unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(srv.state.cache.stats().lane_compiles, 2);
    assert_eq!(srv.shutdown().aborted, 0);
}

/// The fairness bound and its overflow path. One event gives one
/// connection a fixed number of loop-run jobs (`epoll.rs`'s
/// `LOOP_JOBS_PER_EVENT`, 8), each feeding at most two buffer units;
/// the job after that takes the executor lane, like every job did
/// before. 64 cached prunes pipelined in a single write are far over
/// the budget even if the kernel delivers the write in two reads:
/// answers come back in order and byte-exact, and both placements ran.
#[test]
fn pipelined_cached_prunes_overflow_the_loop_budget_onto_the_lane() {
    const PIPELINED: u64 = 64;
    let srv = TestServer::start(ServerConfig {
        reactor_threads: 1,
        ..small_config()
    });
    let id = srv.register_dtd(BIB_DTD, "bib");
    let target = format!("/v1/prune?dtd={id}&query={}", urlencode("/bib/book/title"));
    let expected = expected_bib_prune("/bib/book/title");
    let mut c = srv.client();
    let warm = c.request("POST", &target, &[], Some(BIB_DOC.as_bytes())).unwrap();
    assert_eq!(warm.body, expected.as_bytes());
    let jobs = || {
        let m = &srv.state.metrics;
        (m.executor_jobs.load(Ordering::Relaxed), m.loop_jobs.load(Ordering::Relaxed))
    };
    let (lane0, loop0) = jobs();

    let one = format!(
        "POST {target} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{BIB_DOC}",
        BIB_DOC.len()
    );
    c.write_raw(one.repeat(PIPELINED as usize).as_bytes()).unwrap();
    for i in 0..PIPELINED {
        let resp = c.read_response().unwrap();
        assert_eq!(resp.status, 200, "response {i}");
        assert_eq!(resp.body, expected.as_bytes(), "response {i}");
    }
    let (lane1, loop1) = jobs();
    // A hit is no job; each request is one feed-and-finish (two, if a
    // read boundary split its body).
    assert!((lane1 - lane0) + (loop1 - loop0) >= PIPELINED);
    assert!(loop1 > loop0, "no job ran on the loop");
    assert!(lane1 > lane0, "the overflow never took the lane");
    let stats = srv.state.cache.stats();
    assert_eq!((stats.hits, stats.misses), (PIPELINED, 1));
    srv.shutdown();
}

/// `POST /v1/analyze`: the JSON-lines report comes back parseable, with
/// per-name provenance, a Def. 4.3 verdict, and a retention prediction;
/// posting a sample body calibrates the model; analyzer failures carry
/// the stable wire codes.
#[test]
fn analyze_endpoint_reports_and_calibrates() {
    let srv = TestServer::start(small_config());
    let id = srv.register_dtd(BIB_DTD, "bib");

    // Plain analysis, no sample.
    let mut c = srv.client();
    let resp = c
        .request(
            "POST",
            &format!("/v1/analyze?dtd={id}&query={}", urlencode("/bib/book/title")),
            &[],
            None,
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let body = resp.body_str();
    let mut types = Vec::new();
    for line in body.lines() {
        let v = xproj_testkit::parse_json(line)
            .unwrap_or_else(|e| panic!("bad JSON ({e}): {line}"));
        types.push(v.get("type").and_then(|t| t.as_str()).unwrap().to_string());
    }
    for t in ["meta", "path", "name", "dtd", "optimality", "retention"] {
        assert!(types.iter().any(|x| x == t), "missing {t} record:\n{body}");
    }
    // The bib DTD satisfies Def. 4.3 and the query is strongly
    // specified, so optimality must be claimed.
    let opt = body
        .lines()
        .find(|l| l.contains("\"type\":\"optimality\""))
        .expect("optimality record");
    let opt = xproj_testkit::parse_json(opt).unwrap();
    assert_eq!(opt.get("applies").and_then(|v| v.as_bool()), Some(true));

    // A sample body calibrates the retention model.
    let mut c = srv.client();
    let resp = c
        .request(
            "POST",
            &format!("/v1/analyze?dtd={id}&query={}", urlencode("/bib/book/title")),
            &[],
            Some(BIB_DOC.as_bytes()),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let body = resp.body_str();
    let ret = body
        .lines()
        .find(|l| l.contains("\"type\":\"retention\""))
        .expect("retention record");
    let ret = xproj_testkit::parse_json(ret).unwrap();
    assert_eq!(ret.get("calibrated").and_then(|v| v.as_bool()), Some(true));
    let predicted = ret.get("predicted").and_then(|v| v.as_f64()).unwrap();
    assert!(predicted > 0.0 && predicted < 1.0, "{predicted}");

    // A bad query carries the stable code.
    let mut c = srv.client();
    let resp = c
        .request(
            "POST",
            &format!("/v1/analyze?dtd={id}&query={}", urlencode("/bib/book[")),
            &[],
            None,
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body_str().contains("bad-query"), "{}", resp.body_str());

    // Latency shows up under the analyze endpoint's label.
    let mut c = srv.client();
    let resp = c.request("GET", "/metrics", &[], None).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body_str().contains("\"analyze\""), "{}", resp.body_str());

    srv.shutdown();
}

/// `POST /v1/independence`: one x-ndjson verdict line per (query,
/// update) pair, `independent` or `may-conflict` with witnesses; a
/// request without `update=` is a `400`.
#[test]
fn independence_endpoint_gives_one_verdict_per_pair() {
    let srv = TestServer::start(small_config());
    let id = srv.register_dtd(BIB_DTD, "bib");
    let mut c = srv.client();
    let target = format!(
        "/v1/independence?dtd={id}&query={}&update={}&update={}",
        urlencode("/bib/book/title"),
        urlencode("delete /bib/book/author"),
        urlencode("delete /bib/book/title"),
    );
    let resp = c.request("POST", &target, &[], None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let verdicts: Vec<String> = resp
        .body_str()
        .lines()
        .map(|l| {
            let v = xproj_testkit::parse_json(l).unwrap_or_else(|e| panic!("bad JSON ({e}): {l}"));
            assert_eq!(v.get("type").and_then(|t| t.as_str()), Some("independence"));
            v.get("verdict").and_then(|t| t.as_str()).unwrap().to_string()
        })
        .collect();
    assert_eq!(verdicts, ["independent", "may-conflict"]);

    let mut c = srv.client();
    let resp = c
        .request("POST", &format!("/v1/independence?dtd={id}&query=//title"), &[], None)
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body_str());
    assert!(resp.body_str().contains("bad-request"), "{}", resp.body_str());
    srv.shutdown();
}

/// Shrinks a test socket's kernel send/receive buffers so flow
/// control becomes observable at test-sized payloads (Linux-only
/// direct syscall, mirroring the reactor's zero-dependency FFI).
/// 128 KiB is deliberate: far below the multi-megabyte loopback
/// autotune, but comfortably above the ~64 KiB loopback MSS —
/// clamping below one segment after connect makes the kernel drop
/// segments the window no longer covers, collapsing the transfer
/// into retransmission backoff.
fn clamp_socket_buffers(stream: &std::net::TcpStream) {
    use std::os::fd::AsRawFd;
    xproj_reactor::set_socket_buffers(stream.as_raw_fd(), 128 * 1024).unwrap();
}

/// A streaming prune against a client that writes a large body but
/// does not read the response: the output gate must stop the pipeline
/// (flow control reaches the sender instead of response bytes piling
/// up in server memory), and draining the response afterwards must
/// resume and complete it byte-identically.
#[test]
fn slow_reader_backpressure_bounds_residency() {
    let config = ServerConfig {
        chunk_size: 8 * 1024, // output gate: 4 units = 32 KiB
        ..small_config()
    };
    let srv = TestServer::start(config);
    let id = srv.register_dtd(BIB_DTD, "bib");
    // A retain-everything query: output ≈ input, so an unread response
    // must throttle the request body.
    let query = "/descendant-or-self::node()";
    let target = format!("/v1/prune?dtd={id}&query={}", urlencode(query));

    let one_book = "<book><title>backpressure backpressure</title><author>A</author></book>";
    let books = 120_000; // ≈ 8.5 MB body
    let dtd = Arc::new(parse_dtd(BIB_DTD, "bib").unwrap());
    let projector = &QueryArtifact::compile(&dtd, query).unwrap().projector;
    let mut doc = String::with_capacity(books * one_book.len() + 16);
    doc.push_str("<bib>");
    for _ in 0..books {
        doc.push_str(one_book);
    }
    doc.push_str("</bib>");
    let expected = xproj_core::prune_str(&doc, &dtd, projector).unwrap().output;
    assert!(
        expected.len() > doc.len() / 2,
        "the query must retain most of the document for output \
         backpressure to exist (retained {}/{})",
        expected.len(),
        doc.len()
    );

    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(srv.addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    // Clamp the client's kernel socket buffers: loopback TCP otherwise
    // absorbs tens of MB (rmem autotune), hiding the backpressure this
    // test exists to exercise. The server-side buffers stay untouched
    // — its own caps are what is under test.
    clamp_socket_buffers(&stream);
    stream
        .write_all(
            format!("POST {target} HTTP/1.1\r\nhost: t\r\ntransfer-encoding: chunked\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();

    // Writer thread pushes the whole body; it stalls on TCP flow
    // control while the main thread refuses to read the response.
    let written = Arc::new(AtomicUsize::new(0));
    let writer = {
        let written = Arc::clone(&written);
        let doc = doc.clone();
        let mut w = stream.try_clone().unwrap();
        thread::spawn(move || {
            for piece in doc.as_bytes().chunks(8 * 1024) {
                w.write_all(format!("{:x}\r\n", piece.len()).as_bytes()).unwrap();
                w.write_all(piece).unwrap();
                w.write_all(b"\r\n").unwrap();
                written.fetch_add(piece.len(), Ordering::SeqCst);
            }
            w.write_all(b"0\r\n\r\n").unwrap();
        })
    };
    // Let the pipeline run against the unread response for a while:
    // response bytes stack up to the output cap, feeds pause, reads
    // pause, TCP pushes back. (The kernel's own socket buffers absorb
    // an unbounded-looking amount on loopback, so the bound is
    // asserted on the server's application-level residency below, not
    // on the sender's progress.)
    thread::sleep(Duration::from_millis(1200));
    let written_during_stall = written.load(Ordering::SeqCst);
    // Drain the response concurrently with the writer finishing: the
    // stall must clear (paused reads and partial writes must re-arm)
    // and the pruned body must come back complete and correct.
    let mut c = HttpClient::from_stream(stream);
    let resp = c.read_response().expect("response after stall");
    writer.join().expect("writer");
    eprintln!(
        "slow-reader stall: {written_during_stall}/{} body bytes sent \
         before the response drain began",
        doc.len()
    );
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(resp.body.len(), expected.len());
    assert_eq!(resp.body, expected.as_bytes(), "stalled prune diverged");

    // The acceptance bound: per-connection residency stays
    // O(chunk size + depth) — a small constant against the
    // 8.5 MB document — no matter how the client behaves.
    let max_resident = srv.state.metrics.max_conn_resident.load(Ordering::SeqCst);
    assert!(max_resident > 0, "residency tracking never ran");
    assert!(
        max_resident < 192 * 1024,
        "per-connection residency should stay near the output gate \
         (32 KiB) + read budget, got {max_resident} bytes against a \
         {} byte document",
        doc.len()
    );

    let report = srv.shutdown();
    assert_eq!(report.aborted, 0);
}

#[test]
fn graceful_shutdown_drains_in_flight_load() {
    common::graceful_shutdown_drains_in_flight_load(Driver::Default);
}

/// The hardest cases re-run against a 2-loop server
/// (`--reactor-threads 2`): the kernel shards accepts over two
/// `SO_REUSEPORT` listeners, so drain, slowloris deadlines, and
/// backpressure must hold with connections spread across loops.
mod multi_reactor_mode {
    use super::*;

    /// Twenty rounds: which loop's listener the kernel hands each of
    /// the four connections (and the shutdown request) to varies run to
    /// run, and the drain must hold for every split — including a
    /// connection still queued on one loop when the other sees shutdown.
    #[test]
    fn graceful_shutdown_drains_in_flight_load() {
        with_reactor_threads(2, || {
            for _ in 0..20 {
                super::graceful_shutdown_drains_in_flight_load();
            }
        });
    }

    #[test]
    fn slowloris_head_times_out_408() {
        with_reactor_threads(2, super::slowloris_head_times_out_408_impl);
    }

    #[test]
    fn slow_reader_backpressure_bounds_residency() {
        with_reactor_threads(2, super::slow_reader_backpressure_bounds_residency);
    }
}

/// Slowloris regression: a head arriving one byte at a time must get
/// `408` once the *absolute* head deadline passes —
/// within one timer-wheel tick plus scheduling slack, not at the
/// trickle's pace.
#[test]
fn slowloris_head_times_out_408() {
    slowloris_head_times_out_408_impl();
}

fn slowloris_head_times_out_408_impl() {
    use std::io::{Read, Write};
    let read_timeout = Duration::from_millis(600);
    let config = ServerConfig {
        read_timeout,
        ..small_config()
    };
    let srv = TestServer::start(config);
    let mut stream = std::net::TcpStream::connect(srv.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let t0 = std::time::Instant::now();
    stream.write_all(b"GET /healthz HT").unwrap();
    // Trickle a byte every 50 ms from another thread: each arrival is
    // well inside any per-read deadline, so only the absolute
    // whole-head deadline can fire.
    let trickler = {
        let mut s = stream.try_clone().unwrap();
        thread::spawn(move || {
            for _ in 0..160 {
                thread::sleep(Duration::from_millis(50));
                if s.write_all(b"T").is_err() {
                    return;
                }
            }
        })
    };
    // The server answers 408 and closes; read to EOF.
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read 408");
    let elapsed = t0.elapsed();
    trickler.join().unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "expected a 408 head, got: {text}"
    );
    assert!(text.contains("\"code\":\"timeout\""), "{text}");
    assert!(
        elapsed >= read_timeout,
        "timed out before the deadline: {elapsed:?} < {read_timeout:?}"
    );
    // One wheel tick is 25 ms; the fire must land within the deadline
    // plus one tick and generous scheduling slack — not at the
    // trickle's pace (which would take 8 s to run dry).
    assert!(
        elapsed < read_timeout + Duration::from_millis(600),
        "408 came {elapsed:?} after the first byte (deadline {read_timeout:?})"
    );
    srv.shutdown();
}

/// Reactor admission control: connections past `max_connections` get
/// an immediate `503` with `Retry-After`, and the rejection shows up
/// in the metrics.
#[test]
fn admission_limit_rejects_with_503_retry_after() {
    let config = ServerConfig {
        max_connections: 2,
        ..small_config()
    };
    let srv = TestServer::start(config);
    // Two idle keep-alive connections occupy the whole admission
    // budget (in reactor mode idle connections are nearly free, so the
    // cap is the only thing refusing the third).
    let mut c1 = srv.client();
    assert_eq!(c1.request("GET", "/healthz", &[], None).unwrap().status, 200);
    let mut c2 = srv.client();
    assert_eq!(c2.request("GET", "/healthz", &[], None).unwrap().status, 200);

    let mut c3 = srv.client();
    let resp = c3.read_response().expect("immediate 503");
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert_eq!(extract_json_str(&resp.body_str(), "code"), "overloaded");

    // An admitted connection still serves, and the reject is counted.
    let resp = c1.request("GET", "/metrics", &[], None).unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        resp.body_str().contains("\"admission_rejects\":1"),
        "{}",
        resp.body_str()
    );
    drop(c2);
    drop(c3);
    // Shut down over the admitted connection: a fresh one would race
    // the server noticing c2's close for the freed admission slot.
    let resp = c1.request("POST", "/admin/shutdown", &[], None).unwrap();
    assert_eq!(resp.status, 200);
    let report = srv.handle.join().expect("serve thread");
    assert_eq!(report.aborted, 0);
}

/// Shutdown wake regression (the waker replaced the self-connect
/// hack): with idle keep-alive connections parked on the reactor and
/// nothing else happening, `POST /admin/shutdown` must complete the
/// whole serve loop promptly — not after an idle deadline expires.
#[test]
fn shutdown_wakes_idle_reactor_promptly() {
    let config = ServerConfig {
        // Long deadlines: a prompt exit proves the waker worked.
        read_timeout: Duration::from_secs(30),
        write_timeout: Duration::from_secs(30),
        ..small_config()
    };
    let srv = TestServer::start(config);
    // Park a few idle keep-alive connections on the event loop.
    let mut parked = Vec::new();
    for _ in 0..4 {
        let mut c = srv.client();
        assert_eq!(c.request("GET", "/healthz", &[], None).unwrap().status, 200);
        parked.push(c);
    }
    let t0 = std::time::Instant::now();
    let report = srv.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown took {:?} — the serve loop was not woken",
        t0.elapsed()
    );
    assert_eq!(report.aborted, 0);
    drop(parked);
}

/// With accepts sharded across two reactor loops, `/metrics` must
/// still account for every request exactly once: per-loop counters are
/// summed at scrape time, so after 1000 requests over many
/// connections the aggregate is exact — nothing lost to a loop-local
/// view, nothing double-counted by the aggregation.
#[test]
fn metrics_counters_sum_exactly_across_reactors() {
    let srv = with_reactor_threads(2, || TestServer::start(small_config()));
    const CONNS: usize = 20;
    const REQS: usize = 50;
    for _ in 0..CONNS {
        let mut c = srv.client();
        for _ in 0..REQS {
            let resp = c.request("GET", "/healthz", &[], None).unwrap();
            assert_eq!(resp.status, 200);
        }
    }
    let mut c = srv.client();
    let resp = c.request("GET", "/metrics", &[], None).unwrap();
    assert_eq!(resp.status, 200);
    let body = resp.body_str();
    // 1000 healthz + this metrics request itself, counted at head
    // parse before the body renders.
    let expected = format!("\"requests\":{}", CONNS * REQS + 1);
    assert!(body.contains(&expected), "exact request count lost in aggregation: {body}");
    assert!(body.contains("\"reactor_threads\":2"), "{body}");

    let resp = c.request("GET", "/metrics?format=prometheus", &[], None).unwrap();
    let text = resp.body_str();
    assert!(text.contains("xmlpruned_reactor_threads 2"), "{text}");

    let report = srv.shutdown();
    assert_eq!(report.aborted, 0);
    assert_eq!(report.requests, (CONNS * REQS) as u64 + 3);
}

/// The overload reply regression: at `--max-connections 1` the `503`
/// must arrive through the normal buffered write path as a complete,
/// well-framed response — status line, `Retry-After`, content-length
/// and the full JSON body — not a truncated best-effort splice.
#[test]
fn overload_503_delivers_complete_body_at_max_connections_1() {
    let config = ServerConfig {
        max_connections: 1,
        ..small_config()
    };
    let srv = TestServer::start(config);
    let mut c1 = srv.client();
    assert_eq!(c1.request("GET", "/healthz", &[], None).unwrap().status, 200);

    let mut c2 = srv.client();
    let resp = c2.read_response().expect("full 503 response");
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert_eq!(extract_json_str(&resp.body_str(), "code"), "overloaded");
    assert!(
        resp.body_str().contains("retry shortly"),
        "message truncated: {}",
        resp.body_str()
    );
    // The reject closes the socket after the flush: EOF, not a hang.
    use std::io::Read;
    let mut rest = Vec::new();
    (&mut c2.stream_ref()).read_to_end(&mut rest).expect("clean close after 503");
    assert!(rest.is_empty(), "bytes after the framed 503: {rest:?}");

    // Free the single admission slot so the shutdown request itself is
    // not refused (the server notices the hangup via epoll).
    drop(c1);
    drop(c2);
    thread::sleep(Duration::from_millis(100));
    let report = srv.shutdown();
    assert_eq!(report.aborted, 0);
}

/// `--rate-limit rps:burst`: a connection gets `burst` requests up
/// front, then a `429` with a `Retry-After` derived from the refill
/// rate, and the limiter shows up in both metric formats.
#[test]
fn rate_limit_429_after_burst_with_retry_after() {
    let config = ServerConfig {
        rate_limit: Some((0.5, 2.0)),
        ..small_config()
    };
    let srv = TestServer::start(config);
    let mut c = srv.client();
    // The burst: two immediate requests pass.
    assert_eq!(c.request("GET", "/healthz", &[], None).unwrap().status, 200);
    assert_eq!(c.request("GET", "/healthz", &[], None).unwrap().status, 200);
    // The bucket is dry: the third is refused and the connection
    // closes after the reply.
    let resp = c.request("GET", "/healthz", &[], None).unwrap();
    assert_eq!(resp.status, 429, "{}", resp.body_str());
    assert_eq!(extract_json_str(&resp.body_str(), "code"), "rate-limited");
    let retry: u64 = resp
        .header("retry-after")
        .expect("429 must carry retry-after")
        .parse()
        .expect("retry-after is whole seconds");
    // One token at 0.5 rps is 2 s away.
    assert!((1..=3).contains(&retry), "retry-after {retry} out of range");

    // A fresh connection has a fresh bucket, and the refusal counted.
    let mut c = srv.client();
    let resp = c.request("GET", "/metrics", &[], None).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body_str().contains("\"rate_limited\":1"), "{}", resp.body_str());
    let resp = c.request("GET", "/metrics?format=prometheus", &[], None).unwrap();
    assert!(
        resp.body_str().contains("xmlpruned_rate_limited_total 1"),
        "{}",
        resp.body_str()
    );

    let report = srv.shutdown();
    assert_eq!(report.aborted, 0);
}

/// An idle keep-alive connection costs the epoll driver a slab slot and a
/// registration, never service. With a thousand of them open and warmed,
/// four hot connections get 200 cached prunes, each byte-identical to
/// `prune_str`; afterwards every idle connection is still open, and
/// `/metrics` counts exactly N + 4 connections, no error, no accept stall
/// and one compile; shutdown aborts nothing. Once on one event loop, once
/// on two. Both ends of every socket live in this process, so N shrinks
/// to what the fd limit allows.
#[test]
#[cfg(target_os = "linux")]
fn a_thousand_idle_keep_alive_connections_cost_slots_not_service() {
    use std::io::Read;
    const HOT: usize = 4;
    const REQUESTS: usize = 200;
    let want = 2 * 1000 + 512;
    let limit = xproj_reactor::raise_nofile_limit(want).expect("raise RLIMIT_NOFILE");
    let idle = limit.min(want).saturating_sub(512) as usize / 2;
    let query = "/bib/book/title";
    let expected = expected_bib_prune(query);

    for loops in [1, 2] {
        let config = ServerConfig { read_timeout: Duration::from_secs(60), ..small_config() };
        let srv = with_reactor_threads(loops, || TestServer::start(config));
        // Registration, the one compile and the scrape ride hot connection
        // 0, so the server sees exactly idle + HOT connections.
        let mut hot: Vec<HttpClient> = (0..HOT).map(|_| srv.client()).collect();
        let resp = hot[0]
            .request("POST", "/v1/dtd?root=bib", &[], Some(BIB_DTD.as_bytes()))
            .unwrap();
        let target = format!(
            "/v1/prune?dtd={}&query={}",
            extract_json_str(&resp.body_str(), "id"),
            urlencode(query)
        );
        let resp = hot[0].request("POST", &target, &[], Some(BIB_DOC.as_bytes())).unwrap();
        assert_eq!(resp.body_str(), expected);

        let parked: Vec<HttpClient> = (0..idle)
            .map(|_| {
                let mut c = srv.client();
                assert_eq!(c.request("GET", "/healthz", &[], None).unwrap().status, 200);
                c.stream_ref().set_nonblocking(true).unwrap();
                c
            })
            .collect();
        let (target, expected) = (&target, &expected);
        thread::scope(|s| {
            for c in &mut hot {
                s.spawn(move || {
                    for _ in 0..REQUESTS / HOT {
                        let resp = c.request("POST", target, &[], Some(BIB_DOC.as_bytes())).unwrap();
                        assert_eq!(resp.status, 200, "{}", resp.body_str());
                        assert_eq!(resp.body_str(), *expected);
                    }
                });
            }
        });
        for (i, c) in parked.iter().enumerate() {
            let probe = (&mut c.stream_ref()).read(&mut [0u8; 64]);
            assert!(
                matches!(&probe, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
                "{loops} loop(s): idle connection {i} of {idle} was dropped: {probe:?}"
            );
        }

        let body = hot[0].request("GET", "/metrics", &[], None).unwrap().body_str();
        let metrics = xproj_testkit::parse_json(&body).unwrap();
        let count = |section: &str, key: &str| {
            let v = metrics.get(section).and_then(|s| s.get(key)).and_then(|v| v.as_f64());
            v.unwrap_or_else(|| panic!("no {section}.{key} in {body}")) as usize
        };
        assert_eq!(count("server", "connections"), idle + HOT, "{body}");
        assert_eq!(count("server", "errors"), 0, "{body}");
        assert_eq!(count("server", "accept_stalls"), 0, "{body}");
        assert_eq!(count("reactor", "reactor_threads"), loops, "{body}");
        assert_eq!((count("cache", "misses"), count("cache", "hits")), (1, REQUESTS), "{body}");
        assert_eq!(srv.shutdown().aborted, 0, "{loops} loop(s)");
        drop(parked);
    }
}

/// The epoll driver parks its listener for a backoff instead of
/// spinning on level-triggered readiness.
#[test]
#[cfg(target_os = "linux")]
fn accept_fd_exhaustion_pauses_reactor_listener() {
    let bin = env!("CARGO_BIN_EXE_xmlpruned");
    accept_survives_fd_exhaustion("epoll", |port_file| {
        format!(
            "'{bin}' --addr 127.0.0.1:0 --workers 2 --reactor-threads 2 --port-file '{}'",
            port_file.display()
        )
    });
}
