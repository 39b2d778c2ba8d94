//! Endpoint implementations and the per-connection request loop.
//!
//! Routing is a match on `(method, path)`; every handler is written
//! against the incremental [`BodyReader`] so no request body is ever
//! materialized unless the endpoint is inherently small (DTD texts).
//! Error responses carry the stable machine-readable codes from
//! [`xproj_core::ErrorCode`] plus the HTTP-layer codes defined here,
//! and always close the connection (the body may be half-read, so the
//! keep-alive framing cannot be trusted afterwards).

use crate::http::{
    body_kind, read_head, write_json_error, write_response, BodyKind, BodyReader, Conn,
    HttpError, RequestHead, StreamingBody,
};
use crate::metrics::Endpoint;
use crate::state::ServerState;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use xproj_core::ErrorCode;
use xproj_engine::{
    ChunkedPruner, EngineError, QueryArtifact, QueryError, QueryMachine, QueryOutput,
};

/// HTTP-layer error codes (the engine-layer ones come from
/// [`ErrorCode`]). Stable, like everything serialized in error bodies.
pub mod codes {
    /// Unroutable path.
    pub const NOT_FOUND: &str = "not-found";
    /// Known path, wrong method.
    pub const METHOD_NOT_ALLOWED: &str = "method-not-allowed";
    /// Missing/invalid parameter or unparsable request framing.
    pub const BAD_REQUEST: &str = "bad-request";
    /// `?dtd=` names no registered DTD.
    pub const UNKNOWN_DTD: &str = "unknown-dtd";
    /// The DTD text failed to parse.
    pub const DTD_PARSE: &str = "dtd-parse";
    /// Request head over the configured limit.
    pub const HEADERS_TOO_LARGE: &str = "headers-too-large";
    /// Request body over the configured limit.
    pub const BODY_TOO_LARGE: &str = "body-too-large";
    /// A read deadline expired mid-request.
    pub const TIMEOUT: &str = "timeout";
    /// The connection's token bucket ran dry (`--rate-limit`).
    pub const RATE_LIMITED: &str = "rate-limited";
    /// The request used a transfer coding this server does not
    /// implement.
    pub const NOT_IMPLEMENTED: &str = "not-implemented";
}

/// Outcome of one handled request, as far as the connection goes.
enum Handled {
    /// Response written; connection may serve another request.
    KeepAlive,
    /// Response written (or impossible); close the connection.
    Close,
}

/// A fully-decided response, independent of how it reaches the wire.
/// The blocking loop writes it straight to the socket; the reactor
/// serializes it into a connection's output buffer. Both serve modes
/// build their responses here, which is what keeps them byte-identical
/// under the differential tests.
pub(crate) enum Reply {
    /// A success payload. Whether the connection stays open is the
    /// caller's keep-alive decision.
    Ok {
        /// HTTP status (2xx).
        status: u16,
        /// `content-type` header value.
        content_type: &'static str,
        /// Response body.
        body: String,
    },
    /// A structured JSON error. Always closes the connection (the
    /// request body may be half-read, so framing cannot be trusted).
    Err {
        /// HTTP status (4xx/5xx).
        status: u16,
        /// Stable machine-readable code.
        code: String,
        /// Human-oriented message.
        message: String,
    },
}

impl Reply {
    fn err(status: u16, code: &str, message: impl Into<String>) -> Reply {
        Reply::Err {
            status,
            code: code.to_string(),
            message: message.into(),
        }
    }

    fn json(body: impl Into<String>) -> Reply {
        Reply::Ok {
            status: 200,
            content_type: "application/json",
            body: body.into(),
        }
    }
}

/// `GET /healthz` body.
pub(crate) const HEALTHZ_BODY: &str = "{\"status\":\"ok\"}";
/// `POST /admin/shutdown` body.
pub(crate) const SHUTDOWN_BODY: &str =
    "{\"status\":\"draining\",\"message\":\"no longer accepting connections\"}";

/// Builds the `GET /metrics` response.
pub(crate) fn metrics_reply(state: &ServerState, head: &RequestHead) -> Reply {
    if head.query_param("format").as_deref() == Some("prometheus") {
        Reply::Ok {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: state
                .metrics
                .render_prometheus(state.cache.stats()),
        }
    } else {
        Reply::json(state.metrics.render_json(state.cache.stats()))
    }
}

/// Builds the `POST /v1/dtd` response from the (complete) body.
pub(crate) fn dtd_reply(state: &ServerState, head: &RequestHead, body: &[u8]) -> Reply {
    let Some(root) = head.query_param("root").filter(|r| !r.is_empty()) else {
        return Reply::err(
            400,
            codes::BAD_REQUEST,
            "the 'root' query parameter (DOCTYPE name) is required",
        );
    };
    let Ok(text) = std::str::from_utf8(body) else {
        return Reply::err(400, codes::DTD_PARSE, "DTD text is not UTF-8");
    };
    match xproj_dtd::parse_dtd(text, &root) {
        Ok(dtd) => {
            let (id, names) = state.register_dtd(dtd);
            Reply::json(format!(
                "{{\"id\":\"{id:016x}\",\"root\":\"{}\",\"names\":{names}}}",
                crate::http::json_escape(&root)
            ))
        }
        Err(e) => Reply::err(400, codes::DTD_PARSE, e.to_string()),
    }
}

/// Builds the `POST /v1/analyze` response from the (complete) optional
/// sample body.
pub(crate) fn analyze_reply(state: &ServerState, head: &RequestHead, body: &[u8]) -> Reply {
    let (_dtd_id, dtd) = match lookup_dtd(state, head) {
        Ok(d) => d,
        Err(r) => return r,
    };
    let queries: Vec<String> = head
        .query_params()
        .into_iter()
        .filter(|(k, v)| k == "query" && !v.is_empty())
        .map(|(_, v)| v)
        .collect();
    if queries.is_empty() {
        return Reply::err(
            400,
            codes::BAD_REQUEST,
            "at least one 'query' parameter (XPath/XQuery workload) is required",
        );
    }
    let sample = if body.is_empty() {
        None
    } else {
        match std::str::from_utf8(body) {
            Ok(s) => Some(s),
            Err(_) => {
                return Reply::err(400, codes::BAD_REQUEST, "the sample document is not UTF-8")
            }
        }
    };
    let opts = xproj_analyzer::AnalysisOptions {
        sample,
        ..xproj_analyzer::AnalysisOptions::default()
    };
    match xproj_analyzer::analyze(&dtd, &queries, &opts) {
        Ok(analysis) => Reply::Ok {
            status: 200,
            content_type: "application/x-ndjson",
            body: xproj_analyzer::render_json_lines(&analysis),
        },
        Err(e) => Reply::err(400, e.code().as_str(), e.to_string()),
    }
}

/// Builds the `POST /v1/independence` response: one JSON line per
/// (query, update) pair from the request's parameters.
pub(crate) fn independence_reply(state: &ServerState, head: &RequestHead) -> Reply {
    let (_dtd_id, dtd) = match lookup_dtd(state, head) {
        Ok(d) => d,
        Err(r) => return r,
    };
    let mut queries = Vec::new();
    let mut updates = Vec::new();
    for (k, v) in head.query_params() {
        if v.is_empty() {
            continue;
        }
        match k.as_str() {
            "query" => queries.push(v),
            "update" => updates.push(v),
            _ => {}
        }
    }
    if queries.is_empty() {
        return Reply::err(
            400,
            codes::BAD_REQUEST,
            "at least one 'query' parameter (XPath/XQuery) is required",
        );
    }
    if updates.is_empty() {
        return Reply::err(
            400,
            codes::BAD_REQUEST,
            "at least one 'update' parameter (insert/delete/replace) is required",
        );
    }
    let mut body = String::new();
    for q in &queries {
        for u in &updates {
            match xproj_analyzer::check_independence(&dtd, q, u) {
                Ok(report) => {
                    body.push_str(&xproj_analyzer::render_independence_json(&report));
                    body.push('\n');
                }
                Err(e) => return Reply::err(400, e.code().as_str(), e.to_string()),
            }
        }
    }
    Reply::Ok {
        status: 200,
        content_type: "application/x-ndjson",
        body,
    }
}

/// Resolves `?dtd=<id>` to a registered DTD.
fn lookup_dtd(
    state: &ServerState,
    head: &RequestHead,
) -> Result<(u64, std::sync::Arc<xproj_dtd::Dtd>), Reply> {
    let Some(id_hex) = head.query_param("dtd") else {
        return Err(Reply::err(
            400,
            codes::BAD_REQUEST,
            "the 'dtd' query parameter (id from POST /v1/dtd) is required",
        ));
    };
    let Ok(id) = u64::from_str_radix(id_hex.trim_start_matches("0x"), 16) else {
        return Err(Reply::err(
            400,
            codes::BAD_REQUEST,
            format!("'{id_hex}' is not a DTD id (expected 16 hex digits)"),
        ));
    };
    let Some(dtd) = state.dtd(id) else {
        return Err(Reply::err(
            404,
            codes::UNKNOWN_DTD,
            format!("no DTD registered under id {id_hex} (register via POST /v1/dtd)"),
        ));
    };
    Ok((id, dtd))
}

/// Validates the parameters `POST /v1/prune` and `POST /v1/query`
/// share: resolves the DTD and the compiled artifact for the query
/// (through the shared cache), or decides the error reply.
pub(crate) fn artifact_setup(
    state: &ServerState,
    head: &RequestHead,
) -> Result<Arc<QueryArtifact>, Reply> {
    let (_, dtd) = lookup_dtd(state, head)?;
    let Some(query) = head.query_param("query").filter(|q| !q.is_empty()) else {
        return Err(Reply::err(
            400,
            codes::BAD_REQUEST,
            "the 'query' parameter (XPath/XQuery workload) is required",
        ));
    };
    state
        .cache
        .get_or_compile(&dtd, &query)
        .map_err(|e| Reply::err(400, ErrorCode::BadQuery.as_str(), e))
}

/// `/v1/query`'s `fast_forward=0|false` toggle (default on).
pub(crate) fn fast_forward_param(head: &RequestHead) -> bool {
    !matches!(
        head.query_param("fast_forward").as_deref(),
        Some("0") | Some("false")
    )
}

/// The reply for a query failure (only usable before response headers
/// are on the wire).
pub(crate) fn reply_for_query_error(e: &QueryError) -> Reply {
    let status = match e.code() {
        ErrorCode::MalformedXml => 400,
        ErrorCode::UndeclaredElement => 422,
        ErrorCode::BadQuery | ErrorCode::BadDtd => 400,
        _ => 500,
    };
    Reply::err(status, e.code().as_str(), e.to_string())
}

/// The reply for a protocol-level [`HttpError`], or `None` when no
/// response is possible (I/O failure, clean close).
pub(crate) fn reply_for_http_error(e: &HttpError) -> Option<Reply> {
    match e {
        HttpError::BadRequest(m) => Some(Reply::err(400, codes::BAD_REQUEST, m.clone())),
        HttpError::BodyTooLarge => Some(Reply::err(
            413,
            codes::BODY_TOO_LARGE,
            "request body exceeds the configured limit",
        )),
        HttpError::HeadersTooLarge => Some(Reply::err(
            431,
            codes::HEADERS_TOO_LARGE,
            "request head exceeds the configured limit",
        )),
        HttpError::NotImplemented(m) => Some(Reply::err(501, codes::NOT_IMPLEMENTED, m.clone())),
        HttpError::Timeout => Some(Reply::err(408, codes::TIMEOUT, "body read timed out")),
        HttpError::Io(_) | HttpError::Closed => None,
    }
}

/// The reply for an engine failure (only usable before response headers
/// are on the wire).
pub(crate) fn reply_for_engine_error(e: &EngineError) -> Reply {
    let status = match e.code() {
        ErrorCode::MalformedXml => 400,
        ErrorCode::UndeclaredElement => 422,
        ErrorCode::BadQuery => 400,
        ErrorCode::Io => 500,
        _ => 500,
    };
    Reply::err(status, e.code().as_str(), e.to_string())
}

/// Routes a parsed head to its endpoint (shared by both serve modes).
pub(crate) fn route_endpoint(head: &RequestHead) -> Endpoint {
    route(head)
}

/// Serves one accepted connection to completion: a keep-alive loop of
/// parse → route → respond. Returns when the peer closes, an error
/// forces a close, or shutdown drains it.
pub fn serve_connection(stream: TcpStream, state: &ServerState) {
    let flags = state.flags();
    let mut conn = match Conn::new(
        stream,
        flags,
        state.config.read_timeout,
        state.config.write_timeout,
    ) {
        Ok(c) => c,
        Err(_) => return,
    };
    // One read buffer for the connection's whole keep-alive lifetime:
    // the prune endpoint sizes it once and reuses it per request.
    let mut scratch: Vec<u8> = Vec::new();
    loop {
        let head = match read_head(&mut conn, state.config.max_header_bytes) {
            Ok(h) => h,
            Err(HttpError::Closed) => return,
            Err(HttpError::HeadersTooLarge) => {
                state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                let _ = write_json_error(
                    conn.stream(),
                    431,
                    codes::HEADERS_TOO_LARGE,
                    "request head exceeds the configured limit",
                );
                return;
            }
            Err(HttpError::BadRequest(m)) => {
                state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                let _ = write_json_error(conn.stream(), 400, codes::BAD_REQUEST, &m);
                return;
            }
            Err(HttpError::Timeout) => {
                state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                let _ =
                    write_json_error(conn.stream(), 408, codes::TIMEOUT, "request head timed out");
                return;
            }
            Err(HttpError::Io(_) | HttpError::BodyTooLarge | HttpError::NotImplemented(_)) => {
                return
            }
        };

        state.metrics.requests.fetch_add(1, Ordering::Relaxed);
        state.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        let endpoint = route(&head);
        let t0 = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle(&mut conn, &head, endpoint, state, &mut scratch)
        }));
        state.metrics.record_latency(endpoint, t0.elapsed());
        state.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        // A request that completes during graceful shutdown was drained;
        // one that only "completes" because the drain deadline flipped
        // the hard-abort flag was not.
        if state.is_shutting_down() && !flags.hard_abort.load(Ordering::Relaxed) {
            state.metrics.drained.fetch_add(1, Ordering::Relaxed);
        }
        match outcome {
            Ok(Handled::KeepAlive) if !state.is_shutting_down() => {
                // Having served a request, this connection now yields
                // to accepted connections queued behind the fixed pool
                // instead of pinning a worker while idle.
                conn.yield_to_waiters(&state.queued);
                continue;
            }
            Ok(_) => return,
            Err(_) => {
                // A handler panicked (e.g. an engine invariant assertion).
                state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                let _ = write_json_error(
                    conn.stream(),
                    500,
                    "internal",
                    "internal error while handling the request",
                );
                return;
            }
        }
    }
}

fn route(head: &RequestHead) -> Endpoint {
    match head.path.as_str() {
        "/healthz" => Endpoint::Healthz,
        "/metrics" => Endpoint::Metrics,
        "/v1/dtd" => Endpoint::Dtd,
        "/v1/prune" => Endpoint::Prune,
        "/v1/query" => Endpoint::Query,
        "/v1/analyze" => Endpoint::Analyze,
        "/v1/independence" => Endpoint::Independence,
        "/admin/shutdown" => Endpoint::Shutdown,
        _ => Endpoint::Other,
    }
}

fn handle(
    conn: &mut Conn,
    head: &RequestHead,
    endpoint: Endpoint,
    state: &ServerState,
    scratch: &mut Vec<u8>,
) -> Handled {
    // A response can only reuse the connection if the request body has
    // been fully consumed; handlers that bail early must close.
    let method = head.method.as_str();
    match (endpoint, method) {
        (Endpoint::Healthz, "GET") => respond_after_drain(conn, head, state, 200, HEALTHZ_BODY),
        (Endpoint::Metrics, "GET") => match drain_body(conn, head, state) {
            Some(keep) => send_reply(conn, state, metrics_reply(state, head), keep),
            None => Handled::Close,
        },
        (Endpoint::Dtd, "POST") => handle_dtd(conn, head, state),
        (Endpoint::Prune, "POST") => handle_prune(conn, head, state, scratch),
        (Endpoint::Query, "POST") => handle_query(conn, head, state, scratch),
        (Endpoint::Analyze, "POST") => handle_analyze(conn, head, state),
        (Endpoint::Independence, "POST") => match drain_body(conn, head, state) {
            Some(keep) => send_reply(conn, state, independence_reply(state, head), keep),
            None => Handled::Close,
        },
        (Endpoint::Shutdown, "POST") => {
            // Write the response first: this request itself must drain
            // cleanly before the trigger stops the accept loop.
            let handled = respond_after_drain(conn, head, state, 200, SHUTDOWN_BODY);
            state.trigger_shutdown();
            handled
        }
        (Endpoint::Other, _) => {
            error_response(conn, state, 404, codes::NOT_FOUND, "no such endpoint")
        }
        _ => error_response(
            conn,
            state,
            405,
            codes::METHOD_NOT_ALLOWED,
            &format!("{method} is not supported on {}", head.path),
        ),
    }
}

/// Writes a decided [`Reply`] to a blocking connection.
fn send_reply(conn: &mut Conn, state: &ServerState, reply: Reply, keep_alive: bool) -> Handled {
    match reply {
        Reply::Ok {
            status,
            content_type,
            body,
        } => write_or_close(conn, status, content_type, body.as_bytes(), keep_alive),
        Reply::Err {
            status,
            code,
            message,
        } => error_response(conn, state, status, &code, &message),
    }
}

/// `POST /v1/dtd?root=NAME`: registers the body as a DTD, keyed by its
/// FNV fingerprint. Idempotent — re-registering returns the same id.
fn handle_dtd(conn: &mut Conn, head: &RequestHead, state: &ServerState) -> Handled {
    let text = match read_full_body(conn, head, state) {
        Ok(t) => t,
        Err(h) => return h,
    };
    send_reply(conn, state, dtd_reply(state, head, &text), head.keep_alive())
}

/// `POST /v1/prune?dtd=<id>&query=<path>`: streams the request body
/// through the chunked pruning engine and the pruned bytes back out.
/// The body is fed to the push tokenizer as it arrives off the wire —
/// a chunked request is pruned chunk by chunk, and the response streams
/// as chunked transfer once it outgrows the response buffer, so
/// document size never enters resident memory.
fn handle_prune(
    conn: &mut Conn,
    head: &RequestHead,
    state: &ServerState,
    scratch: &mut Vec<u8>,
) -> Handled {
    let artifact = match artifact_setup(state, head) {
        Ok(artifact) => artifact,
        Err(reply) => return send_reply(conn, state, reply, false),
    };

    let kind = match body_kind(head) {
        Ok(k) => k,
        Err(e) => return protocol_error(conn, state, e),
    };
    if kind == BodyKind::None {
        return error_response(
            conn,
            state,
            400,
            codes::BAD_REQUEST,
            "a request body (the XML document) is required",
        );
    }
    if head.expects_continue()
        && conn.stream().write_all(b"HTTP/1.1 100 Continue\r\n\r\n").is_err()
    {
        return Handled::Close;
    }

    // Decide keep-alive before any response byte is written (the
    // streaming body commits to a Connection header up front). The
    // response writes through an independent handle to the same socket
    // so the body reader and the pruner's sink don't alias.
    let keep_alive = head.keep_alive() && !state.is_shutting_down();
    let mut out_stream = match conn.stream().try_clone() {
        Ok(s) => s,
        Err(_) => return Handled::Close,
    };
    let mut response = StreamingBody::new(
        &mut out_stream,
        state.config.response_buffer_bytes,
        keep_alive,
    );
    let mut body = BodyReader::new(conn, kind, state.config.max_body_bytes);
    let mut pruner =
        ChunkedPruner::with_table(&*artifact.dtd, artifact.table.clone(), &mut response);
    // The connection-lifetime read buffer, sized on first use (the
    // configured chunk size is fixed, so keep-alive requests after the
    // first allocate nothing here).
    let want = state.config.chunk_size.max(1);
    if scratch.len() != want {
        scratch.resize(want, 0);
    }
    let chunk = &mut scratch[..];

    // The streaming core: each chunk of decoded body bytes is fed to
    // the push tokenizer the moment it arrives off the wire.
    let fed = loop {
        match body.read_some(chunk) {
            Ok(0) => break Ok(()),
            Ok(n) => {
                if let Err(e) = pruner.feed(&chunk[..n]) {
                    break Err(PruneAbort::Engine(e));
                }
            }
            Err(e) => break Err(PruneAbort::Protocol(e)),
        }
    };
    let finished = fed.and_then(|()| pruner.finish().map_err(PruneAbort::Engine));
    match finished {
        Ok(stats) => {
            state.metrics.record_engine(&stats);
            match response.finish_ok() {
                Ok(()) if keep_alive => Handled::KeepAlive,
                _ => Handled::Close,
            }
        }
        Err(abort) => {
            let headers_sent = response.headers_sent();
            drop(response);
            if headers_sent {
                // The 200 is already on the wire: all we can do is cut
                // the chunked stream short so the client sees the
                // truncation instead of a silently short document.
                state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                return Handled::Close;
            }
            match abort {
                PruneAbort::Engine(e) => engine_error_response(conn, state, &e),
                PruneAbort::Protocol(e) => protocol_error(conn, state, e),
            }
        }
    }
}

/// `POST /v1/query?dtd=<id>&query=<path>`: prunes **and answers** in
/// one streaming pass. The body feeds the compiled [`QueryMachine`] as
/// it arrives off the wire; match frames stream back as x-ndjson (one
/// JSON object per match, then a summary line), so resident memory is
/// O(depth + chunk + pending answers), never O(document).
fn handle_query(
    conn: &mut Conn,
    head: &RequestHead,
    state: &ServerState,
    scratch: &mut Vec<u8>,
) -> Handled {
    let artifact = match artifact_setup(state, head) {
        Ok(artifact) => artifact,
        Err(reply) => return send_reply(conn, state, reply, false),
    };

    let kind = match body_kind(head) {
        Ok(k) => k,
        Err(e) => return protocol_error(conn, state, e),
    };
    if kind == BodyKind::None {
        return error_response(
            conn,
            state,
            400,
            codes::BAD_REQUEST,
            "a request body (the XML document) is required",
        );
    }
    if head.expects_continue()
        && conn.stream().write_all(b"HTTP/1.1 100 Continue\r\n\r\n").is_err()
    {
        return Handled::Close;
    }

    let keep_alive = head.keep_alive() && !state.is_shutting_down();
    let mut out_stream = match conn.stream().try_clone() {
        Ok(s) => s,
        Err(_) => return Handled::Close,
    };
    let mut response = StreamingBody::with_content_type(
        &mut out_stream,
        state.config.response_buffer_bytes,
        keep_alive,
        "application/x-ndjson",
    );
    let mut body = BodyReader::new(conn, kind, state.config.max_body_bytes);
    let mut machine = QueryMachine::new(artifact, QueryOutput::Frames);
    machine.set_fast_forward(fast_forward_param(head));
    let want = state.config.chunk_size.max(1);
    if scratch.len() != want {
        scratch.resize(want, 0);
    }
    let chunk = &mut scratch[..];

    let mut frames: Vec<u8> = Vec::new();
    let fed = loop {
        match body.read_some(chunk) {
            Ok(0) => break Ok(()),
            Ok(n) => {
                if let Err(e) = machine.feed(&chunk[..n]) {
                    break Err(QueryAbort::Engine(e));
                }
                if machine.pending_output() > 0 {
                    frames.clear();
                    machine.take_output(&mut frames);
                    if response.write_all(&frames).is_err() {
                        break Err(QueryAbort::Protocol(HttpError::Closed));
                    }
                }
            }
            Err(e) => break Err(QueryAbort::Protocol(e)),
        }
    };
    let finished = fed.and_then(|()| machine.finish().map_err(QueryAbort::Engine));
    match finished {
        Ok(_stats) => {
            frames.clear();
            machine.take_output(&mut frames);
            if response.write_all(&frames).is_err() {
                return Handled::Close;
            }
            match response.finish_ok() {
                Ok(()) if keep_alive => Handled::KeepAlive,
                _ => Handled::Close,
            }
        }
        Err(abort) => {
            let headers_sent = response.headers_sent();
            drop(response);
            if headers_sent {
                state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                return Handled::Close;
            }
            match abort {
                QueryAbort::Engine(e) => send_reply(conn, state, reply_for_query_error(&e), false),
                QueryAbort::Protocol(e) => protocol_error(conn, state, e),
            }
        }
    }
}

/// Why a query stream stopped early.
enum QueryAbort {
    /// The machine rejected the document or the evaluation failed.
    Engine(QueryError),
    /// The HTTP body framing failed.
    Protocol(HttpError),
}

/// `POST /v1/analyze?dtd=<id>&query=<path>[&query=…]`: runs the static
/// analyzer over the registered DTD and the workload and returns the
/// JSON-lines report (per-name provenance, Def. 4.3 verdict with
/// witnesses, predicted retention, lints). An optional request body is
/// treated as a sample document that calibrates the retention model.
fn handle_analyze(conn: &mut Conn, head: &RequestHead, state: &ServerState) -> Handled {
    // The body, if any, is a sample document for calibration.
    let sample_bytes = match read_full_body(conn, head, state) {
        Ok(b) => b,
        Err(h) => return h,
    };
    send_reply(
        conn,
        state,
        analyze_reply(state, head, &sample_bytes),
        head.keep_alive() && !state.is_shutting_down(),
    )
}

/// Why a prune stream stopped early.
enum PruneAbort {
    /// The engine rejected the document (malformed, undeclared, …).
    Engine(EngineError),
    /// The HTTP body framing failed (bad chunk, over limit, timeout,
    /// client disconnect).
    Protocol(HttpError),
}

/// Reads a whole (small) body into memory, for endpoints whose payload
/// is inherently bounded (DTD texts). Errors are already responded to.
fn read_full_body(
    conn: &mut Conn,
    head: &RequestHead,
    state: &ServerState,
) -> Result<Vec<u8>, Handled> {
    let kind = match body_kind(head) {
        Ok(k) => k,
        Err(e) => return Err(protocol_error(conn, state, e)),
    };
    if head.expects_continue()
        && kind != BodyKind::None
        && conn.stream().write_all(b"HTTP/1.1 100 Continue\r\n\r\n").is_err()
    {
        return Err(Handled::Close);
    }
    let mut reader = BodyReader::new(conn, kind, state.config.max_body_bytes);
    let mut out = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match reader.read_some(&mut chunk) {
            Ok(0) => return Ok(out),
            Ok(n) => out.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(protocol_error(conn, state, e)),
        }
    }
}

/// Consumes any request body, then returns the keep-alive decision
/// (`None` means the drain failed and the connection must close).
fn drain_body(conn: &mut Conn, head: &RequestHead, state: &ServerState) -> Option<bool> {
    let kind = body_kind(head).ok()?;
    if kind != BodyKind::None {
        let mut reader = BodyReader::new(conn, kind, state.config.max_body_bytes);
        reader.drain().ok()?;
    }
    Some(head.keep_alive() && !state.is_shutting_down())
}

fn respond_after_drain(
    conn: &mut Conn,
    head: &RequestHead,
    state: &ServerState,
    status: u16,
    body: &str,
) -> Handled {
    match drain_body(conn, head, state) {
        Some(keep) => write_or_close(conn, status, "application/json", body.as_bytes(), keep),
        None => Handled::Close,
    }
}

fn write_or_close(
    conn: &mut Conn,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> Handled {
    match write_response(conn.stream(), status, content_type, body, keep_alive) {
        Ok(()) if keep_alive => Handled::KeepAlive,
        _ => Handled::Close,
    }
}

fn error_response(
    conn: &mut Conn,
    state: &ServerState,
    status: u16,
    code: &str,
    message: &str,
) -> Handled {
    state.metrics.errors.fetch_add(1, Ordering::Relaxed);
    let _ = write_json_error(conn.stream(), status, code, message);
    Handled::Close
}

/// Maps a protocol-level [`HttpError`] to its response (when one is
/// still possible) and closes.
fn protocol_error(conn: &mut Conn, state: &ServerState, e: HttpError) -> Handled {
    match reply_for_http_error(&e) {
        Some(reply) => send_reply(conn, state, reply, false),
        None => {
            state.metrics.errors.fetch_add(1, Ordering::Relaxed);
            Handled::Close
        }
    }
}

/// Maps an engine failure to its structured response, used only before
/// response headers have been written.
fn engine_error_response(conn: &mut Conn, state: &ServerState, e: &EngineError) -> Handled {
    send_reply(conn, state, reply_for_engine_error(e), false)
}
