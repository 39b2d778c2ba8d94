//! Sans-I/O HTTP/1.1 parsing over plain byte buffers: [`parse_head`]
//! over a connection's receive buffer, and [`BodyDecoder`] as an
//! incremental decoder that consumes input as it arrives. Both return
//! "need more input" instead of reading; [`crate::conn`] feeds them.

use crate::http::{
    find_subsequence, parse_digits, parse_head_str, BodyKind, HttpError, RequestHead,
};

/// Max bytes of a request head (request line + headers) → `431`.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Tries to parse one request head from the front of `buf`.
///
/// Returns `Ok(Some((head, consumed)))` when a complete head is present
/// (`consumed` covers the terminating blank line; body bytes start
/// there), `Ok(None)` when more input is needed, and an error for an
/// oversized or malformed head.
pub fn parse_head(buf: &[u8]) -> Result<Option<(RequestHead, usize)>, HttpError> {
    match find_subsequence(buf, b"\r\n\r\n") {
        Some(i) if i <= MAX_HEADER_BYTES => {
            let head = parse_head_str(&String::from_utf8_lossy(&buf[..i]))?;
            Ok(Some((head, i + 4)))
        }
        None if buf.len() <= MAX_HEADER_BYTES => Ok(None),
        _ => Err(HttpError::HeadersTooLarge),
    }
}

enum DecodeState {
    Length {
        remaining: u64,
    },
    /// Next on the wire: a chunk-size line.
    ChunkSize,
    /// Inside a chunk's data.
    ChunkData {
        remaining: u64,
    },
    /// The CRLF that terminates a chunk's data.
    ChunkDataEnd,
    /// Trailer lines after the `0` chunk, up to a blank line.
    Trailers,
    Done,
}

/// An incremental decoder of one request body: push wire bytes in,
/// decoded document bytes come out, bounded by `max_body_bytes`.
pub struct BodyDecoder {
    state: DecodeState,
    max_body_bytes: u64,
    total: u64,
    /// Partial framing line carried across inputs.
    line: Vec<u8>,
}

impl BodyDecoder {
    /// A decoder for the body framing `kind`.
    pub fn new(kind: BodyKind, max_body_bytes: u64) -> BodyDecoder {
        let state = match kind {
            BodyKind::None | BodyKind::Length(0) => DecodeState::Done,
            BodyKind::Length(n) => DecodeState::Length { remaining: n },
            BodyKind::Chunked => DecodeState::ChunkSize,
        };
        BodyDecoder {
            state,
            max_body_bytes,
            total: 0,
            line: Vec::new(),
        }
    }

    /// Whether the body (including chunked trailers) is complete —
    /// keep-alive framing is intact and the next request may follow.
    pub fn is_done(&self) -> bool {
        matches!(self.state, DecodeState::Done)
    }

    /// Consumes wire bytes from the front of `input`, appending decoded
    /// body bytes to `out`. Returns how many input bytes were consumed;
    /// anything less than `input.len()` with [`Self::is_done`] false
    /// cannot happen — the decoder always consumes everything it is
    /// given or finishes. After `is_done`, leftover input is the start
    /// of the next pipelined request and is *not* consumed.
    pub fn decode(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<usize, HttpError> {
        let mut pos = 0;
        loop {
            match self.state {
                DecodeState::Done => return Ok(pos),
                DecodeState::Length { remaining } => {
                    let n = ((input.len() - pos) as u64).min(remaining) as usize;
                    out.extend_from_slice(&input[pos..pos + n]);
                    pos += n;
                    self.bump_total(n)?;
                    let remaining = remaining - n as u64;
                    if remaining == 0 {
                        self.state = DecodeState::Done;
                    } else {
                        self.state = DecodeState::Length { remaining };
                        return Ok(pos);
                    }
                }
                DecodeState::ChunkSize => match self.take_line(input, &mut pos)? {
                    None => return Ok(pos),
                    Some(line) => {
                        let size_hex = line.split(';').next().unwrap_or("").trim();
                        let size = parse_digits(size_hex, 16).ok_or_else(|| {
                            HttpError::BadRequest(format!("bad chunk size line '{line}'"))
                        })?;
                        self.state = if size == 0 {
                            DecodeState::Trailers
                        } else {
                            DecodeState::ChunkData { remaining: size }
                        };
                    }
                },
                DecodeState::ChunkData { remaining } => {
                    let n = ((input.len() - pos) as u64).min(remaining) as usize;
                    out.extend_from_slice(&input[pos..pos + n]);
                    pos += n;
                    self.bump_total(n)?;
                    let remaining = remaining - n as u64;
                    if remaining == 0 {
                        self.state = DecodeState::ChunkDataEnd;
                    } else {
                        self.state = DecodeState::ChunkData { remaining };
                        return Ok(pos);
                    }
                }
                DecodeState::ChunkDataEnd => match self.take_line(input, &mut pos)? {
                    None => return Ok(pos),
                    Some(line) if line.is_empty() => self.state = DecodeState::ChunkSize,
                    Some(_) => {
                        return Err(HttpError::BadRequest(
                            "chunk data not CRLF-terminated".to_string(),
                        ))
                    }
                },
                DecodeState::Trailers => match self.take_line(input, &mut pos)? {
                    None => return Ok(pos),
                    Some(line) if line.is_empty() => self.state = DecodeState::Done,
                    Some(_) => {}
                },
            }
        }
    }

    fn bump_total(&mut self, n: usize) -> Result<(), HttpError> {
        self.total += n as u64;
        if self.total > self.max_body_bytes {
            return Err(HttpError::BodyTooLarge);
        }
        Ok(())
    }

    /// Pulls one CRLF-terminated framing line out of `input`, carrying
    /// partial lines across calls. `None` means the line is incomplete.
    fn take_line(&mut self, input: &[u8], pos: &mut usize) -> Result<Option<String>, HttpError> {
        while *pos < input.len() {
            let b = input[*pos];
            *pos += 1;
            if b == b'\n' {
                if self.line.last() == Some(&b'\r') {
                    self.line.pop();
                }
                let s = String::from_utf8_lossy(&self.line).into_owned();
                self.line.clear();
                return Ok(Some(s));
            }
            self.line.push(b);
            if self.line.len() > 1024 {
                return Err(HttpError::BadRequest("over-long framing line".to_string()));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_incremental_then_complete_with_pipelined_leftover() {
        let wire = b"GET /metrics?x=1 HTTP/1.1\r\nhost: a\r\n\r\nGET /next";
        // Every strict prefix short of the blank line: need more input.
        for cut in 0..wire.len() - "\r\n\r\nGET /next".len() {
            assert!(parse_head(&wire[..cut]).unwrap().is_none(), "cut {cut}");
        }
        let (head, consumed) = parse_head(wire).unwrap().unwrap();
        assert_eq!(head.method, "GET");
        assert_eq!(head.path, "/metrics");
        assert_eq!(head.query_param("x"), Some("1"));
        assert_eq!(head.header("host"), Some("a"));
        assert_eq!(&wire[consumed..], b"GET /next");
    }

    #[test]
    fn head_limits_and_errors() {
        assert!(matches!(
            parse_head(&[b'a'; MAX_HEADER_BYTES + 1]),
            Err(HttpError::HeadersTooLarge)
        ));
        assert!(matches!(
            parse_head(b"GET / SPDY/3\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        // A too-large but complete head is still rejected.
        let wire = format!(
            "GET / HTTP/1.1\r\nh: {}\r\n\r\n",
            "v".repeat(MAX_HEADER_BYTES)
        );
        assert!(matches!(
            parse_head(wire.as_bytes()),
            Err(HttpError::HeadersTooLarge)
        ));
    }

    fn decode_all(kind: BodyKind, wire: &[u8], step: usize) -> Result<(Vec<u8>, usize), HttpError> {
        let mut d = BodyDecoder::new(kind, 1 << 20);
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < wire.len() && !d.is_done() {
            let end = (pos + step).min(wire.len());
            let n = d.decode(&wire[pos..end], &mut out)?;
            assert!(
                d.is_done() || pos + n == end,
                "decoder must consume all input"
            );
            pos += n;
        }
        Ok((out, pos))
    }

    #[test]
    fn chunked_decoding_at_every_split_granularity() {
        let wire = b"4\r\nWiki\r\n5\r\npedia\r\nE;ext=1\r\n in\r\n\r\nchunks.\r\n0\r\nx-trailer: v\r\n\r\nNEXT";
        for step in 1..=wire.len() {
            let (out, consumed) = decode_all(BodyKind::Chunked, wire, step).unwrap();
            assert_eq!(out, b"Wikipedia in\r\n\r\nchunks.", "step {step}");
            // The pipelined "NEXT" stays unconsumed.
            assert_eq!(&wire[consumed..], b"NEXT", "step {step}");
        }
    }

    #[test]
    fn content_length_decoding() {
        let wire = b"hello worldNEXT";
        let (out, consumed) = decode_all(BodyKind::Length(11), wire, 3).unwrap();
        assert_eq!(out, b"hello world");
        assert_eq!(&wire[consumed..], b"NEXT");
        // Zero-length and no body are done immediately.
        assert!(BodyDecoder::new(BodyKind::Length(0), 10).is_done());
        assert!(BodyDecoder::new(BodyKind::None, 10).is_done());
    }

    #[test]
    fn framing_errors() {
        // A chunk size is `1*HEXDIG`: no sign, no prefix, no blank.
        for size_line in ["zz", "+13", "-1", "0x13", "", ";ext"] {
            let wire = format!("{size_line}\r\ndata");
            assert!(
                matches!(
                    decode_all(BodyKind::Chunked, wire.as_bytes(), 1),
                    Err(HttpError::BadRequest(_))
                ),
                "{size_line:?}"
            );
        }
        // Missing CRLF after chunk data.
        assert!(matches!(
            decode_all(BodyKind::Chunked, b"3\r\nabcXX\r\n", 1),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn body_size_limit_enforced() {
        let mut d = BodyDecoder::new(BodyKind::Length(100), 10);
        let mut out = Vec::new();
        assert!(matches!(
            d.decode(&[0u8; 50], &mut out),
            Err(HttpError::BodyTooLarge)
        ));

        let mut d = BodyDecoder::new(BodyKind::Chunked, 4);
        let mut out = Vec::new();
        assert!(matches!(
            d.decode(b"9\r\nlongbody!\r\n", &mut out),
            Err(HttpError::BodyTooLarge)
        ));
    }
}
