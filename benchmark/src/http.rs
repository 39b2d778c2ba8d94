//! The load generator's own HTTP/1.1 client.
//!
//! Deliberately not `xproj_testkit::HttpClient`: the instrument must not
//! change when testkit does, and it must be cheap enough not to be the
//! bottleneck. One keep-alive connection with `TCP_NODELAY`; a request
//! head and its body (or its first chunked frame) leave in one `write`;
//! the response is parsed incrementally out of one reusable read buffer
//! and hashed as it arrives, so a verified request allocates nothing.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Size of one `Transfer-Encoding: chunked` request frame — the daemon's
/// default engine feed size.
pub const FRAME: usize = 64 * 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a (64-bit) of `bytes`, continuing from `h`.
pub fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a (64-bit) of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// How a request body is framed on the wire.
#[derive(Clone, Copy)]
pub enum Body<'a> {
    /// No body (`GET`, bodiless `POST`).
    None,
    /// `Content-Length`, sent with the head in one write.
    Full(&'a [u8]),
    /// `Transfer-Encoding: chunked` in [`FRAME`]-sized frames; the
    /// response is drained between frames, like any streaming caller.
    Chunked(&'a [u8]),
}

/// Builds the request head matching `body`'s framing.
pub fn request_head(method: &str, target: &str, body: Body<'_>) -> Vec<u8> {
    let framing = match body {
        Body::None => String::new(),
        Body::Full(b) => format!("content-length: {}\r\n", b.len()),
        Body::Chunked(_) => "transfer-encoding: chunked\r\n".to_string(),
    };
    format!("{method} {target} HTTP/1.1\r\nhost: ledger\r\n{framing}\r\n").into_bytes()
}

/// Appends one chunked-transfer frame carrying `data` (non-empty).
pub fn encode_frame(out: &mut Vec<u8>, data: &[u8]) {
    let _ = write!(out, "{:x}\r\n", data.len());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// Percent-encodes a query-string value.
pub fn urlencode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Head,
    /// `Content-Length` body, bytes still to come.
    Sized(u64),
    ChunkSize,
    ChunkData(u64),
    /// The CRLF after a chunk's data, bytes still to come.
    ChunkEnd(u8),
    Trailer,
    Done,
}

/// Incremental response parser: feed it whatever the socket returned.
/// The decoded body is hashed and counted, and stored only on request.
pub struct ResponseParser {
    state: State,
    /// Head bytes, then reused for chunk-size and trailer lines.
    line: Vec<u8>,
    pub status: u16,
    pub body_len: u64,
    pub body_fnv: u64,
    capture: Option<Vec<u8>>,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg.into())
}

impl ResponseParser {
    pub fn new(capture: bool) -> Self {
        ResponseParser {
            state: State::Head,
            line: Vec::new(),
            status: 0,
            body_len: 0,
            body_fnv: FNV_OFFSET,
            capture: capture.then(Vec::new),
        }
    }

    /// Starts the next response, keeping the line buffer's allocation.
    fn reset(&mut self, capture: bool) {
        let mut line = std::mem::take(&mut self.line);
        line.clear();
        *self = ResponseParser {
            line,
            ..ResponseParser::new(capture)
        };
    }

    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// The decoded body, when capture was requested.
    pub fn take_body(&mut self) -> Vec<u8> {
        self.capture.take().unwrap_or_default()
    }

    fn body_bytes(&mut self, data: &[u8]) {
        self.body_len += data.len() as u64;
        self.body_fnv = fnv1a_update(self.body_fnv, data);
        if let Some(c) = &mut self.capture {
            c.extend_from_slice(data);
        }
    }

    /// Accumulates into `self.line` up to and including the next LF.
    /// Returns the bytes consumed and whether the line is complete.
    fn take_line(&mut self, data: &[u8]) -> (usize, bool) {
        match data.iter().position(|&b| b == b'\n') {
            Some(i) => {
                self.line.extend_from_slice(&data[..=i]);
                (i + 1, true)
            }
            None => {
                self.line.extend_from_slice(data);
                (data.len(), false)
            }
        }
    }

    fn parse_head(&mut self) -> io::Result<()> {
        let head = std::str::from_utf8(&self.line).map_err(|_| bad("non-UTF-8 response head"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        self.status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line: {status_line:?}")))?;
        let mut next = State::Sized(0);
        for l in lines {
            let Some((name, value)) = l.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let n = value
                    .parse()
                    .map_err(|_| bad(format!("bad content-length: {value:?}")))?;
                next = State::Sized(n);
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && value.to_ascii_lowercase().contains("chunked")
            {
                next = State::ChunkSize;
            }
        }
        self.state = if next == State::Sized(0) {
            State::Done
        } else {
            next
        };
        self.line.clear();
        Ok(())
    }

    /// Consumes `data`; bytes after the end of the response are an error
    /// (the client never pipelines).
    pub fn feed(&mut self, mut data: &[u8]) -> io::Result<()> {
        while !data.is_empty() {
            match self.state {
                State::Head => {
                    // The head ends at the first empty line.
                    let (n, complete) = self.take_line(data);
                    data = &data[n..];
                    if complete && self.line.ends_with(b"\r\n\r\n") {
                        self.parse_head()?;
                    } else if self.line.len() > 64 * 1024 {
                        return Err(bad("response head too large"));
                    }
                }
                State::Sized(left) | State::ChunkData(left) => {
                    let take = (left.min(data.len() as u64)) as usize;
                    self.body_bytes(&data[..take]);
                    data = &data[take..];
                    let left = left - take as u64;
                    self.state = match (self.state, left) {
                        (State::Sized(_), 0) => State::Done,
                        (State::Sized(_), n) => State::Sized(n),
                        (_, 0) => State::ChunkEnd(2),
                        (_, n) => State::ChunkData(n),
                    };
                }
                State::ChunkSize => {
                    let (n, complete) = self.take_line(data);
                    data = &data[n..];
                    if complete {
                        let text = String::from_utf8_lossy(&self.line);
                        let hex = text.split(';').next().unwrap_or("").trim();
                        let size = u64::from_str_radix(hex, 16)
                            .map_err(|_| bad(format!("bad chunk size: {text:?}")))?;
                        self.line.clear();
                        self.state = if size == 0 {
                            State::Trailer
                        } else {
                            State::ChunkData(size)
                        };
                    }
                }
                State::ChunkEnd(left) => {
                    if data[0] != if left == 2 { b'\r' } else { b'\n' } {
                        return Err(bad("chunk not CRLF-terminated"));
                    }
                    data = &data[1..];
                    self.state = if left == 1 {
                        State::ChunkSize
                    } else {
                        State::ChunkEnd(1)
                    };
                }
                State::Trailer => {
                    let (n, complete) = self.take_line(data);
                    data = &data[n..];
                    if complete {
                        let empty = self.line == b"\r\n";
                        self.line.clear();
                        if empty {
                            self.state = State::Done;
                        }
                    }
                }
                State::Done => return Err(bad("bytes after the end of the response")),
            }
        }
        Ok(())
    }
}

/// Client-side timestamps of one exchange.
#[derive(Clone, Copy)]
pub struct Timing {
    /// Just before the first request byte was written.
    pub start: Instant,
    /// The last request byte was handed to the kernel.
    pub write_end: Instant,
    /// The first response byte was read (may precede `write_end` on a
    /// chunked request, whose response streams back meanwhile).
    pub first_byte: Instant,
    /// The last response byte was read.
    pub done: Instant,
}

/// One keep-alive connection.
pub struct Client {
    stream: TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    parser: ResponseParser,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            wbuf: Vec::with_capacity(FRAME + 512),
            rbuf: vec![0u8; FRAME],
            parser: ResponseParser::new(false),
        })
    }

    /// Reads whatever the socket holds right now into the parser.
    fn drain_available(&mut self, first_byte: &mut Option<Instant>) -> io::Result<()> {
        self.stream.set_nonblocking(true)?;
        let result = loop {
            match self.stream.read(&mut self.rbuf) {
                Ok(0) => break Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    first_byte.get_or_insert_with(Instant::now);
                    if let Err(e) = self.parser.feed(&self.rbuf[..n]) {
                        break Err(e);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        self.stream.set_nonblocking(false)?;
        result
    }

    /// Sends `head` + `body` and reads the whole response. The parsed
    /// status, body length and body hash are left in [`Self::response`].
    pub fn exchange(&mut self, head: &[u8], body: Body<'_>, capture: bool) -> io::Result<Timing> {
        self.parser.reset(capture);
        let mut first_byte = None;
        let start = Instant::now();
        self.wbuf.clear();
        self.wbuf.extend_from_slice(head);
        match body {
            Body::None => self.stream.write_all(&self.wbuf)?,
            Body::Full(b) => {
                self.wbuf.extend_from_slice(b);
                self.stream.write_all(&self.wbuf)?;
            }
            Body::Chunked(b) => {
                let mut frames = b.chunks(FRAME).peekable();
                while let Some(frame) = frames.next() {
                    encode_frame(&mut self.wbuf, frame);
                    if frames.peek().is_none() {
                        self.wbuf.extend_from_slice(b"0\r\n\r\n");
                    }
                    self.stream.write_all(&self.wbuf)?;
                    self.wbuf.clear();
                    self.drain_available(&mut first_byte)?;
                }
            }
        }
        let write_end = Instant::now();
        while !self.parser.is_done() {
            let n = match self.stream.read(&mut self.rbuf) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            first_byte.get_or_insert_with(Instant::now);
            self.parser.feed(&self.rbuf[..n])?;
        }
        let done = Instant::now();
        Ok(Timing {
            start,
            write_end,
            first_byte: first_byte.unwrap_or(done),
            done,
        })
    }

    /// The response of the last [`Self::exchange`].
    pub fn response(&mut self) -> &mut ResponseParser {
        &mut self.parser
    }
}

/// One request on a fresh connection, returning status and body. Admin
/// traffic (`/metrics`, `/admin/shutdown`, DTD registration) always goes
/// this way: an idle keep-alive connection is closed by the daemon's
/// read timeout, which outlasts no 30 s window.
pub fn oneshot(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: Body<'_>,
) -> io::Result<(u16, Vec<u8>)> {
    let mut c = Client::connect(addr)?;
    c.exchange(&request_head(method, target, body), body, true)?;
    let r = c.response();
    Ok((r.status, r.take_body()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_in_splits(wire: &[u8], split: usize) -> ResponseParser {
        let mut p = ResponseParser::new(true);
        for piece in wire.chunks(split) {
            p.feed(piece).unwrap();
        }
        assert!(p.is_done(), "split {split}");
        p
    }

    #[test]
    fn chunked_codec_round_trips_at_every_split() {
        let body: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let mut wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        for frame in body.chunks(FRAME) {
            encode_frame(&mut wire, frame);
        }
        wire.extend_from_slice(b"0\r\n\r\n");
        for split in [1, 2, 3, 7, 4096, FRAME, wire.len()] {
            let mut p = parse_in_splits(&wire, split);
            assert_eq!(p.status, 200);
            assert_eq!(p.body_len, body.len() as u64);
            assert_eq!(p.body_fnv, fnv1a(&body));
            assert_eq!(p.take_body(), body);
        }
    }

    #[test]
    fn content_length_and_empty_bodies() {
        let mut p = parse_in_splits(b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello", 3);
        assert_eq!((p.status, p.body_len), (200, 5));
        assert_eq!(p.take_body(), b"hello");
        let p = parse_in_splits(b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n", 5);
        assert_eq!((p.status, p.body_len), (404, 0));
    }

    #[test]
    fn trailing_bytes_and_bad_framing_are_errors() {
        let mut p = ResponseParser::new(false);
        assert!(p
            .feed(b"HTTP/1.1 200 OK\r\ncontent-length: 1\r\n\r\nab")
            .is_err());
        let mut p = ResponseParser::new(false);
        assert!(p
            .feed(b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n2\r\nabXX")
            .is_err());
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_update(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn head_and_first_frame_share_one_buffer() {
        let head = request_head("POST", "/v1/prune?dtd=1", Body::Chunked(b"x"));
        assert!(head.ends_with(b"transfer-encoding: chunked\r\n\r\n"));
        let head = request_head("POST", "/x", Body::Full(b"abc"));
        assert!(head.ends_with(b"content-length: 3\r\n\r\n"));
        assert_eq!(
            urlencode("//item[location='Italy']/name"),
            "%2F%2Fitem%5Blocation%3D%27Italy%27%5D%2Fname"
        );
    }
}
