//! Hand-rolled HTTP/1.1 vocabulary: the parsed request head, body
//! framing rules, and response rendering. Everything here works on
//! strings and byte buffers; [`crate::wire`] holds the incremental
//! parsers and [`crate::conn`] the connection state machine that uses
//! both.

use xproj_core::json_escape;

/// Protocol-level failures of one request.
#[derive(Debug)]
pub enum HttpError {
    /// Unparsable request line, header, or chunked framing → `400`.
    BadRequest(String),
    /// The request head exceeded the configured limit → `431`.
    HeadersTooLarge,
    /// The request body exceeded the configured limit → `413`.
    BodyTooLarge,
    /// The request used a transfer coding this server does not
    /// implement → `501`.
    NotImplemented(String),
}

/// A parsed request head.
#[derive(Debug)]
pub struct RequestHead {
    /// Upper-cased method.
    pub method: String,
    /// Decoded path (before `?`).
    pub path: String,
    /// The query string (after `?`), split and percent-decoded once, in
    /// order; a parameter without `=` has an empty value.
    params: Vec<(String, String)>,
    /// Headers in arrival order, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
}

impl RequestHead {
    /// First value of a (case-insensitive) header.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Decoded query parameters in order.
    pub fn query_params(&self) -> &[(String, String)] {
        &self.params
    }

    /// First decoded value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// All comma-separated tokens of a (case-insensitive) header,
    /// across every occurrence of it, trimmed and lowercased — the
    /// RFC 9110 list syntax, so `Connection: close, te` yields the
    /// tokens `close` and `te`.
    pub fn header_tokens(&self, name: &str) -> Vec<String> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .filter(|(n, _)| *n == name)
            .flat_map(|(_, v)| v.split(','))
            .map(|t| t.trim().to_ascii_lowercase())
            .filter(|t| !t.is_empty())
            .collect()
    }

    /// Whether the connection may stay open after this request:
    /// HTTP/1.1 default yes, overridden by a `close` token in any
    /// `Connection` header (`Connection: close, te` still closes) and by
    /// `Content-Length` alongside `Transfer-Encoding` — a proxy that
    /// framed such a request by its length would read what follows the
    /// chunked body as the next request, so nothing may follow it
    /// (RFC 9112 §6.1).
    pub fn keep_alive(&self) -> bool {
        let has = |name: &str| self.headers.iter().any(|(n, _)| n == name);
        let ambiguous_framing = has("transfer-encoding") && has("content-length");
        !ambiguous_framing
            && !self
                .header_tokens("connection")
                .iter()
                .any(|t| t == "close")
    }

    /// Whether the client sent `Expect: 100-continue`.
    pub fn expects_continue(&self) -> bool {
        matches!(self.header("expect"), Some(v) if v.eq_ignore_ascii_case("100-continue"))
    }
}

/// Parses an unsigned number written as one or more digits of `radix`
/// and nothing else. Every number that frames or addresses a request
/// (`Content-Length`, chunk sizes, `%XX`, DTD ids) goes through here:
/// `str::parse` and `from_str_radix` also accept a leading `+`, which a
/// strict proxy in front would read differently.
pub(crate) fn parse_digits(s: &str, radix: u32) -> Option<u64> {
    if s.is_empty() || !s.chars().all(|c| c.is_digit(radix)) {
        return None;
    }
    u64::from_str_radix(s, radix).ok()
}

/// Decodes `%XX` escapes (exactly two hex digits; any other `%` stays
/// literal) and `+`-as-space in a query component.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = s.get(i + 1..i + 3).and_then(|h| parse_digits(h, 16));
                match hex {
                    Some(b) => {
                        out.push(b as u8);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parses a complete request head (everything before `CRLFCRLF`); the
/// buffer-level entry point is [`crate::wire::parse_head`].
pub(crate) fn parse_head_str(head: &str) -> Result<RequestHead, HttpError> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request line".to_string()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("request line has no target".to_string()))?;
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol version '{version}'"
        )));
    }
    let (path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (n, v) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header line '{line}'")))?;
        // A field name is a token, flush against the colon and the line
        // start (RFC 9112 §5.1, §5.2: no obsolete line folding). A proxy
        // that read `Transfer-Encoding : chunked` or a folded line another
        // way would frame the body, and so the next request, differently.
        if n.is_empty() || !n.bytes().all(is_tchar) {
            return Err(HttpError::BadRequest(format!(
                "malformed header field name in '{line}'"
            )));
        }
        headers.push((n.to_ascii_lowercase(), v.trim().to_string()));
    }
    let params = raw_query
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(k), percent_decode(v))
        })
        .collect();
    Ok(RequestHead {
        method,
        path: percent_decode(path),
        params,
        headers,
    })
}

/// RFC 9110's `tchar`: the bytes a header field name is made of.
fn is_tchar(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

pub(crate) fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// How the request body is framed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyKind {
    /// No body (no framing headers present).
    None,
    /// `Content-Length: n`.
    Length(u64),
    /// `Transfer-Encoding: chunked`.
    Chunked,
}

/// Determines the body framing from the head.
///
/// `Transfer-Encoding` is parsed as the RFC 9112 coding list: the body
/// is chunked only when `chunked` is the **final** coding. Any coding
/// this server does not implement (gzip, deflate, …) is a `501`;
/// `chunked` anywhere but last (the framing would be ambiguous) is a
/// `400`. A chunked body ignores any `Content-Length` (and
/// [`RequestHead::keep_alive`] closes after it); otherwise every
/// `Content-Length` must be `1*DIGIT` and all must agree, else `400`.
pub fn body_kind(head: &RequestHead) -> Result<BodyKind, HttpError> {
    let codings = head.header_tokens("transfer-encoding");
    if !codings.is_empty() {
        if let Some(other) = codings.iter().find(|c| *c != "chunked") {
            return Err(HttpError::NotImplemented(format!(
                "transfer coding '{other}' is not supported"
            )));
        }
        if codings.len() > 1 {
            return Err(HttpError::BadRequest(
                "chunked must be the final transfer coding, applied once".to_string(),
            ));
        }
        return Ok(BodyKind::Chunked);
    }
    let mut kind = BodyKind::None;
    for (_, v) in head.headers.iter().filter(|(n, _)| n == "content-length") {
        let n = parse_digits(v, 10)
            .ok_or_else(|| HttpError::BadRequest(format!("bad content-length '{v}'")))?;
        if kind != BodyKind::None && kind != BodyKind::Length(n) {
            return Err(HttpError::BadRequest(
                "conflicting content-length headers".to_string(),
            ));
        }
        kind = BodyKind::Length(n);
    }
    Ok(kind)
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// A response head through its blank line — the single source of the
/// response wire format. `body_len` frames the body: `Some(n)` is
/// `Content-Length: n`, `None` chunked. Extra headers (name, value) go
/// in before the blank line — how `Retry-After` gets onto 429/503
/// replies without hand-editing rendered bytes.
pub(crate) fn response_head(
    status: u16,
    content_type: &str,
    body_len: Option<usize>,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> String {
    use std::fmt::Write as _;
    let mut head = String::with_capacity(128);
    let _ = write!(
        head,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\n",
        reason(status)
    );
    let _ = match body_len {
        Some(n) => write!(head, "content-length: {n}\r\n"),
        None => head.write_str("transfer-encoding: chunked\r\n"),
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let _ = write!(head, "connection: {connection}\r\n");
    for (name, value) in extra_headers {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    head.push_str("\r\n");
    head
}

/// Serializes a complete `Content-Length`-framed response.
pub(crate) fn render_response(
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    let mut out = response_head(
        status,
        content_type,
        Some(body.len()),
        keep_alive,
        extra_headers,
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Serializes the structured JSON error body:
/// `{"error":{"code":"…","message":"…"}}` (always `connection: close`),
/// with any extra response headers, e.g. `Retry-After` on overload (503)
/// and rate-limit (429) replies.
pub(crate) fn render_json_error(
    status: u16,
    code: &str,
    message: &str,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    let body = format!(
        "{{\"error\":{{\"code\":\"{code}\",\"message\":\"{}\"}}}}",
        json_escape(message)
    );
    render_response(
        status,
        "application/json",
        body.as_bytes(),
        false,
        extra_headers,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("%2Fa%2Fb"), "/a/b");
        assert_eq!(percent_decode("a+b%20c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        // `from_str_radix("+f", 16)` is 15: a sign is not a hex digit,
        // so the `%` stays and the `+` is the usual space.
        assert_eq!(percent_decode("%+f"), "% f");
        assert_eq!(percent_decode("%-1"), "%-1");
        assert_eq!(percent_decode("%4"), "%4");
        assert_eq!(percent_decode("%é"), "%é");
    }

    #[test]
    fn numbers_are_digits_only() {
        assert_eq!(parse_digits("19", 10), Some(19));
        assert_eq!(parse_digits("1F", 16), Some(0x1f));
        assert_eq!(parse_digits("ffffffffffffffff", 16), Some(u64::MAX));
        for bad in ["", "+19", "-0", " 19", "19 ", "0x13", "1_9", "٣"] {
            assert_eq!(parse_digits(bad, 10), None, "{bad:?}");
            assert_eq!(parse_digits(bad, 16), None, "{bad:?}");
        }
        assert_eq!(parse_digits("1f", 10), None);
        assert_eq!(parse_digits("10000000000000000", 16), None, "overflow");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn query_param_parsing() {
        let head =
            parse_head_str("GET /x?dtd=abc&query=%2Fsite%2F%2Fitem&&flag&dtd=2 HTTP/1.1").unwrap();
        assert_eq!(head.path, "/x");
        assert_eq!(head.query_param("dtd"), Some("abc"));
        assert_eq!(head.query_param("query"), Some("/site//item"));
        assert_eq!(head.query_param("flag"), Some(""));
        assert_eq!(head.query_param("missing"), None);
        let keys: Vec<&str> = head
            .query_params()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["dtd", "query", "flag", "dtd"]);
    }

    fn head_with(headers: &[(&str, &str)]) -> RequestHead {
        RequestHead {
            method: "GET".to_string(),
            path: "/".to_string(),
            params: Vec::new(),
            headers: headers
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// Whitespace around or inside a field name, and folded lines, are
    /// refused: each of these once framed the body as chunked (or hid a
    /// `Content-Length`) where a strict proxy would not.
    #[test]
    fn header_names_are_tokens_and_lines_never_fold() {
        for field in [
            "Transfer-Encoding : chunked",
            "X-Pad: a\r\n Transfer-Encoding: chunked",
            "X-Pad: a\r\n\tTransfer-Encoding: chunked",
            "Content Length: 5",
        ] {
            let head = format!("POST /v1/prune HTTP/1.1\r\nContent-Length: 5\r\n{field}");
            assert!(
                matches!(parse_head_str(&head), Err(HttpError::BadRequest(_))),
                "{field:?}"
            );
        }
        let head = parse_head_str("GET / HTTP/1.1\r\nX-A_b.c~1:  v  ").unwrap();
        assert_eq!(head.header("x-a_b.c~1"), Some("v"));
    }

    #[test]
    fn keep_alive_defaults() {
        let mut head = head_with(&[]);
        assert!(head.keep_alive());
        head.headers
            .push(("connection".to_string(), "close".to_string()));
        assert!(!head.keep_alive());
    }

    #[test]
    fn extra_headers_land_before_the_blank_line() {
        let bytes = render_json_error(503, "overloaded", "try later", &[("retry-after", "1")]);
        let text = String::from_utf8(bytes).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(
            head.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{head}"
        );
        assert!(head.contains("\r\nretry-after: 1"), "{head}");
        assert!(head.contains("\r\nconnection: close"), "{head}");
        assert_eq!(
            body,
            "{\"error\":{\"code\":\"overloaded\",\"message\":\"try later\"}}"
        );
        // content-length frames the body exactly.
        assert!(
            head.contains(&format!("content-length: {}", body.len())),
            "{head}"
        );
        // 429 has a proper reason phrase for the rate limiter.
        assert_eq!(reason(429), "Too Many Requests");
    }

    #[test]
    fn connection_header_is_a_token_list() {
        // `close` anywhere in the list closes, case-insensitively.
        assert!(!head_with(&[("connection", "close, te")]).keep_alive());
        assert!(!head_with(&[("connection", "te, Close")]).keep_alive());
        assert!(!head_with(&[("connection", " keep-alive ,CLOSE")]).keep_alive());
        // Tokens merely *containing* "close" do not close.
        assert!(head_with(&[("connection", "closed")]).keep_alive());
        assert!(head_with(&[("connection", "keep-alive")]).keep_alive());
        // Repeated Connection headers are one combined list.
        assert!(!head_with(&[("connection", "te"), ("connection", "close")]).keep_alive());
    }

    #[test]
    fn transfer_encoding_coding_list() {
        // Plain chunked, any case and padding.
        assert_eq!(
            body_kind(&head_with(&[("transfer-encoding", "chunked")])).unwrap(),
            BodyKind::Chunked
        );
        assert_eq!(
            body_kind(&head_with(&[("transfer-encoding", "  Chunked ")])).unwrap(),
            BodyKind::Chunked
        );
        // Unknown codings are 501, even alongside a final chunked.
        assert!(matches!(
            body_kind(&head_with(&[("transfer-encoding", "gzip, chunked")])),
            Err(HttpError::NotImplemented(_))
        ));
        assert!(matches!(
            body_kind(&head_with(&[("transfer-encoding", "identity")])),
            Err(HttpError::NotImplemented(_))
        ));
        // `chunked` token substrings don't count as chunked.
        assert!(matches!(
            body_kind(&head_with(&[("transfer-encoding", "notchunked")])),
            Err(HttpError::NotImplemented(_))
        ));
        // chunked-not-final (or applied twice) is unambiguous framing
        // abuse: 400, not 501.
        assert!(matches!(
            body_kind(&head_with(&[("transfer-encoding", "chunked, chunked")])),
            Err(HttpError::BadRequest(_))
        ));
        // Repeated headers form one list.
        assert!(matches!(
            body_kind(&head_with(&[
                ("transfer-encoding", "gzip"),
                ("transfer-encoding", "chunked"),
            ])),
            Err(HttpError::NotImplemented(_))
        ));
        // An empty Transfer-Encoding contributes no codings: fall back
        // to Content-Length / no body.
        assert_eq!(
            body_kind(&head_with(&[("transfer-encoding", "")])).unwrap(),
            BodyKind::None
        );
        assert_eq!(
            body_kind(&head_with(&[("content-length", "12")])).unwrap(),
            BodyKind::Length(12)
        );
    }

    #[test]
    fn content_length_is_digits_and_unanimous() {
        for bad in ["+19", "-5", "", "19, 19", "0x13", "99999999999999999999"] {
            assert!(
                matches!(
                    body_kind(&head_with(&[("content-length", bad)])),
                    Err(HttpError::BadRequest(_))
                ),
                "{bad:?}"
            );
        }
        assert!(matches!(
            body_kind(&head_with(&[
                ("content-length", "19"),
                ("content-length", "3")
            ])),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            body_kind(&head_with(&[
                ("content-length", "0"),
                ("content-length", "3")
            ])),
            Err(HttpError::BadRequest(_))
        ));
        assert_eq!(
            body_kind(&head_with(&[
                ("content-length", "19"),
                ("content-length", "19")
            ]))
            .unwrap(),
            BodyKind::Length(19)
        );
    }

    #[test]
    fn content_length_with_transfer_encoding_is_chunked_and_closes() {
        let both = head_with(&[("content-length", "7"), ("transfer-encoding", "chunked")]);
        assert_eq!(body_kind(&both).unwrap(), BodyKind::Chunked);
        assert!(!both.keep_alive());
        assert!(head_with(&[("transfer-encoding", "chunked")]).keep_alive());
        assert!(head_with(&[("content-length", "7")]).keep_alive());
    }
}
