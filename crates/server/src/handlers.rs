//! Endpoint logic: routing, parameter validation, the reply each
//! endpoint builds, and the mapping from engine and protocol errors to
//! structured responses.
//!
//! Everything here is a pure function over the shared [`ServerState`]
//! and a parsed head; [`crate::conn`] is the only caller — the machine
//! decides *when* a reply is built (inline, or as a job's result) and
//! how it is framed. Error responses carry the stable machine-readable
//! codes from [`xproj_core::ErrorCode`] plus the HTTP-layer codes
//! defined here, and always close the connection (the body may be
//! half-read, so the keep-alive framing cannot be trusted afterwards).

use crate::http::{parse_digits, HttpError, RequestHead};
use crate::metrics::Endpoint;
use crate::state::ServerState;
use std::sync::Arc;
use xproj_core::ErrorCode;
use xproj_engine::{EngineError, Lookup};

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

/// A fully-decided response, independent of how it is framed and when
/// it reaches the wire.
pub enum Reply {
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
    pub(crate) fn err(status: u16, code: &str, message: impl Into<String>) -> Reply {
        Reply::Err {
            status,
            code: code.to_string(),
            message: message.into(),
        }
    }

    pub(crate) fn json(body: impl Into<String>) -> Reply {
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
    if head.query_param("format") == Some("prometheus") {
        Reply::Ok {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: state.metrics.render_prometheus(state.cache.stats()),
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
    match xproj_dtd::parse_dtd(text, root) {
        Ok(dtd) => {
            let (id, names) = state.register_dtd(dtd);
            Reply::json(format!(
                "{{\"id\":\"{id:016x}\",\"root\":\"{}\",\"names\":{names}}}",
                xproj_core::json_escape(root)
            ))
        }
        Err(e) => Reply::err(400, codes::DTD_PARSE, e.to_string()),
    }
}

/// Builds the `POST /v1/analyze` response from the (complete) optional
/// sample body.
pub(crate) fn analyze_reply(state: &ServerState, head: &RequestHead, body: &[u8]) -> Reply {
    let dtd = match lookup_dtd(state, head) {
        Ok(d) => d,
        Err(r) => return r,
    };
    let queries: Vec<String> = head
        .query_params()
        .iter()
        .filter(|(k, v)| k == "query" && !v.is_empty())
        .map(|(_, v)| v.clone())
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
    let opts = xproj_analyzer::AnalysisOptions { sample };
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
    let dtd = match lookup_dtd(state, head) {
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
            "query" => queries.push(v.as_str()),
            "update" => updates.push(v.as_str()),
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

/// Resolves `?dtd=<id>` — 1 to 16 hex digits after at most one `0x` —
/// to a registered DTD.
fn lookup_dtd(state: &ServerState, head: &RequestHead) -> Result<Arc<xproj_dtd::Dtd>, Reply> {
    let Some(id_hex) = head.query_param("dtd") else {
        return Err(Reply::err(
            400,
            codes::BAD_REQUEST,
            "the 'dtd' query parameter (id from POST /v1/dtd) is required",
        ));
    };
    let digits = id_hex.strip_prefix("0x").unwrap_or(id_hex);
    let Some(id) = parse_digits(digits, 16).filter(|_| digits.len() <= 16) else {
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
    Ok(dtd)
}

/// Validates the parameters `POST /v1/prune` and `POST /v1/query`
/// share and probes the shared cache — microseconds, so the machine
/// calls it inline: the resident artifact, the counted miss whose
/// compile is still to run, or the error reply (unknown DTD, missing or
/// unparsable query).
pub(crate) fn artifact_lookup(state: &ServerState, head: &RequestHead) -> Result<Lookup, Reply> {
    let dtd = lookup_dtd(state, head)?;
    let Some(query) = head.query_param("query").filter(|q| !q.is_empty()) else {
        return Err(Reply::err(
            400,
            codes::BAD_REQUEST,
            "the 'query' parameter (XPath/XQuery workload) is required",
        ));
    };
    state
        .cache
        .lookup(&dtd, query)
        .map_err(|e| Reply::err(400, ErrorCode::BadQuery.as_str(), e))
}

/// The `fast_forward=0|false` toggle of `/v1/prune` and `/v1/query`
/// (default on).
pub(crate) fn fast_forward_param(head: &RequestHead) -> bool {
    !matches!(head.query_param("fast_forward"), Some("0") | Some("false"))
}

/// The reply for a protocol-level [`HttpError`].
pub(crate) fn reply_for_http_error(e: &HttpError) -> Reply {
    match e {
        HttpError::BadRequest(m) => Reply::err(400, codes::BAD_REQUEST, m.clone()),
        HttpError::BodyTooLarge => Reply::err(
            413,
            codes::BODY_TOO_LARGE,
            "request body exceeds the configured limit",
        ),
        HttpError::HeadersTooLarge => Reply::err(
            431,
            codes::HEADERS_TOO_LARGE,
            format!(
                "request head exceeds {} bytes",
                crate::wire::MAX_HEADER_BYTES
            ),
        ),
        HttpError::NotImplemented(m) => Reply::err(501, codes::NOT_IMPLEMENTED, m.clone()),
    }
}

/// The reply for an engine failure (only usable before response headers
/// are on the wire).
pub(crate) fn reply_for_engine_error(e: &EngineError) -> Reply {
    let status = match e.code() {
        ErrorCode::MalformedXml | ErrorCode::BadQuery => 400,
        ErrorCode::UndeclaredElement => 422,
        _ => 500,
    };
    Reply::err(status, e.code().as_str(), e.to_string())
}

/// Routes a parsed head to its endpoint.
pub(crate) fn route(head: &RequestHead) -> Endpoint {
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
