//! The XML tokenizer: one incremental, *push*-mode token loop.
//!
//! Bytes are pushed in with [`PushTokenizer::push_bytes`] in
//! arbitrarily-sized pieces (down to one byte) and every complete token
//! is handed to a [`TokenSink`] by [`PushTokenizer::drain`] as soon as
//! its closing delimiter has arrived. Chunk boundaries may fall anywhere
//! — in the middle of a tag name, an attribute value, an `&amp;`-style
//! entity, a CDATA section, a comment, a processing instruction, or a
//! multi-byte UTF-8 sequence — and the calls the sink sees are identical
//! to a one-chunk run over the concatenated input. A whole in-memory
//! document is that one-chunk case: [`drain_str`].
//!
//! `drain` is the only place tokens are interpreted. Per token it
//! classifies, validates UTF-8, parses names and attribute syntax,
//! checks the open-element stack, decodes entities, counts the event and
//! — when the sink says a subtree holds nothing it wants — engages the
//! raw fast-forward scanner. Everything that consumes XML (the pruning
//! machine, the query matcher, the validating pruner, the tree parser,
//! the retention sampler, the CLI's DOCTYPE sniff) is a sink over it.
//!
//! The hot loop is *bulk-scanning*, not byte-stepping: tokens are
//! delimited by finding the next structural byte (`<`, `>`, quotes,
//! `-`, `]`, `?` depending on state) with the word-at-a-time scanners
//! in [`crate::scan`], and the buffer keeps a cursor instead of
//! draining per token, so consuming a token is O(1). Sinks see borrowed
//! slices of that buffer: no per-event allocation.
//!
//! The memory contract that makes constant-memory pruning possible
//! (paper §6): the tokenizer retains only the bytes of the single
//! incomplete token at the end of the last chunk. The consumed prefix
//! is compacted away on the next push, so resident buffering is bounded
//! by the largest single token in the document plus one chunk (one tag,
//! one comment, one text run, …), never by the document size.
//! [`PushTokenizer::buffered`] and [`PushTokenizer::max_token_bytes`]
//! expose the accounting so downstream code can *assert* the bound.

use crate::entities::{decode_entities, validate_entities, ParseError};
use crate::scan;

/// The consumer side of [`PushTokenizer::drain`]: one call per event, in
/// document order, with names and text borrowed from the tokenizer's
/// buffer. By the time a method runs, the token has passed every
/// well-formedness check the tokenizer makes (UTF-8, name and attribute
/// syntax, entity validity, tag balance).
///
/// Comments and processing instructions are counted but not delivered;
/// the XML declaration is neither.
pub trait TokenSink {
    /// What the sink fails with. The tokenizer's own [`ParseError`]s are
    /// converted into it, so `drain` has a single error channel.
    type Error: From<ParseError>;

    /// `<name …>` or `<name …/>`. `attrs_raw` is the still-encoded
    /// attribute region (iterate it with [`RawAttrs`]); its syntax and
    /// entities have already been validated. A self-closing tag is
    /// followed immediately by the matching [`Self::end`].
    ///
    /// Return `true` when the sink wants nothing from inside this
    /// element: with fast-forward on, the tokenizer then delivers
    /// [`Self::end`] at once and raw-scans past the subtree. With
    /// fast-forward off the subtree's events arrive normally, which must
    /// be equally correct for the sink.
    fn start(&mut self, name: &str, attrs_raw: &str) -> Result<bool, Self::Error>;

    /// `</name>`, already matched against the open element.
    fn end(&mut self, name: &str) -> Result<(), Self::Error>;

    /// A character-data run with entities decoded, or the contents of a
    /// CDATA section. Whitespace outside the root element is dropped
    /// before it gets here.
    fn text(&mut self, decoded: &str) -> Result<(), Self::Error>;

    /// `<!DOCTYPE name … [internal subset]>`.
    fn doctype(&mut self, _name: &str, _internal_subset: Option<&str>) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// What one [`PushTokenizer::drain`] (or [`PushTokenizer::finish_into`])
/// call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Drained {
    /// Events processed: start, end (a self-closing tag is both), text,
    /// CDATA, comment, PI and DOCTYPE count one each; the XML
    /// declaration and whitespace outside the root count zero.
    pub events: u64,
    /// Subtrees handed to the raw fast-forward scanner.
    pub fast_forwarded: u64,
}

impl std::ops::AddAssign for Drained {
    fn add_assign(&mut self, other: Drained) {
        self.events += other.events;
        self.fast_forwarded += other.fast_forwarded;
    }
}

/// An owned event, as returned by [`PushTokenizer::finish`]. Part of the
/// frozen cursor surface (see [`PushTokenizer::peek_token`]); sinks get
/// borrowed data through [`TokenSink`] instead.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PushEvent {
    /// `</name>`.
    EndElement {
        /// Element name.
        name: String,
    },
    /// Character data (entities decoded).
    Text(String),
}

/// What kind of token starts at the cursor, and where it ends
/// (exclusive, relative to the cursor) once fully buffered.
enum Token {
    /// Not enough bytes yet to finish (or even classify) the token.
    Incomplete,
    /// A complete token of `len` bytes at the cursor.
    Complete { kind: TokenKind, len: usize },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TokenKind {
    Text,
    StartOrEmptyTag,
    EndTag,
    Comment,
    Cdata,
    Pi,
    XmlDecl,
    Doctype,
}

/// Classification of a raw token exposed by [`PushTokenizer::peek_token`]
/// (the frozen cursor; [`PushTokenizer::drain`] never surfaces it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawKind {
    /// A character-data run (still entity-encoded; may be pure
    /// whitespace between top-level constructs).
    Text,
    /// `<![CDATA[ … ]]>`, delimiters included.
    Cdata,
    /// `<name …>` or `<name …/>`. Only the self-closing flag has been
    /// computed; name and attributes are parsed on demand with
    /// [`split_start_tag`] / [`RawAttrs`].
    StartTag {
        /// Whether the token ends in `/>`.
        self_closing: bool,
    },
    /// `</name>`; validated against the open-element stack by
    /// [`PushTokenizer::advance`].
    EndTag,
    /// `<!-- … -->`, delimiters included.
    Comment,
    /// `<? … ?>`, delimiters included (not the XML declaration).
    Pi,
    /// The `<?xml … ?>` declaration (produces no event downstream).
    XmlDecl,
    /// `<!DOCTYPE … >`; syntax is checked by [`PushTokenizer::advance`].
    Doctype,
}

/// A complete raw token at the front of the tokenizer's buffer, handed
/// out by [`PushTokenizer::peek_token`]. Its text is read with
/// [`PushTokenizer::token_str`] and it is consumed with
/// [`PushTokenizer::advance`].
#[derive(Debug, Clone, Copy)]
pub struct RawToken {
    /// What the token is.
    pub kind: RawKind,
    /// Token length in bytes (private: only `peek_token` may mint one,
    /// which is what guarantees the UTF-8 check already ran).
    len: usize,
}

/// Where the raw-scanning skip mode is within the markup of a skipped
/// subtree. Partial delimiter matches are encoded in the state itself, so
/// a chunk boundary can fall anywhere (even inside `]]>` or `-->`)
/// without buffering a single byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SkipState {
    /// Character data: scanning for the next `<`.
    Content,
    /// Saw `<`.
    Lt,
    /// Saw `<!`.
    LtBang,
    /// Saw `<!-`.
    LtBangDash,
    /// Saw `<![` plus `n` bytes of `CDATA[`.
    CdataOpen(u8),
    /// Inside `<!-- … -->`; `n` = trailing `-` count (capped at 2).
    InComment(u8),
    /// Inside `<![CDATA[ … ]]>`; `n` = trailing `]` count (capped at 2).
    InCdata(u8),
    /// Inside `<? … ?>`; `true` iff the previous byte was `?`.
    InPi(bool),
    /// Inside a start tag; quote context plus whether the previous
    /// unquoted byte was the `/` of an empty-element tag.
    InStartTag {
        /// Active attribute-value quote, if any.
        quote: Option<u8>,
        /// Previous unquoted byte was `/`.
        slash: bool,
    },
    /// Inside `</ … >`.
    InEndTag,
    /// Inside an unrecognised `<! … >` declaration (permissive).
    InMisc,
}

/// Progress of an active pruned-subtree fast-forward.
#[derive(Debug, Clone, Copy)]
struct SkipScan {
    /// Unclosed element count within the skipped subtree (starts at 1).
    depth: usize,
    state: SkipState,
}

/// Result of driving the skip scanner over one byte run.
struct SkipOutcome {
    /// Bytes of the run consumed by the scan (all of it unless `done`).
    consumed: usize,
    /// The skipped subtree's end tag was fully consumed.
    done: bool,
}

/// Advances the skip scanner over `chunk` with bulk scans: each state
/// knows the single byte that can change it (`<` in content, the quote
/// or `>` in a tag, `-`/`]`/`?` before a closing delimiter) and jumps
/// straight to it. Returns how much was consumed and whether the
/// subtree closed; the caller pops the element stack on `done`.
fn run_skip(scan: &mut SkipScan, chunk: &[u8]) -> SkipOutcome {
    use SkipState::*;
    const CDATA_OPEN: &[u8] = b"CDATA[";
    let n = chunk.len();
    let mut i = 0;
    while i < n {
        match scan.state {
            Content => match scan::memchr(b'<', &chunk[i..]) {
                Some(j) => {
                    i += j + 1;
                    scan.state = Lt;
                }
                None => i = n,
            },
            Lt => {
                let b = chunk[i];
                i += 1;
                scan.state = match b {
                    b'/' => InEndTag,
                    b'?' => InPi(false),
                    b'!' => LtBang,
                    b'>' => {
                        scan.depth += 1;
                        Content
                    }
                    _ => InStartTag {
                        quote: None,
                        slash: false,
                    },
                };
            }
            LtBang => {
                let b = chunk[i];
                i += 1;
                scan.state = match b {
                    b'-' => LtBangDash,
                    b'[' => CdataOpen(0),
                    b'>' => Content,
                    _ => InMisc,
                };
            }
            LtBangDash => {
                let b = chunk[i];
                i += 1;
                scan.state = match b {
                    b'-' => InComment(0),
                    b'>' => Content,
                    _ => InMisc,
                };
            }
            CdataOpen(k) => {
                let b = chunk[i];
                i += 1;
                scan.state = if b == CDATA_OPEN[k as usize] {
                    if k as usize + 1 == CDATA_OPEN.len() {
                        InCdata(0)
                    } else {
                        CdataOpen(k + 1)
                    }
                } else if b == b'>' {
                    Content
                } else {
                    InMisc
                };
            }
            InComment(k) => {
                if k >= 1 {
                    let b = chunk[i];
                    i += 1;
                    scan.state = match b {
                        b'-' => InComment(2),
                        b'>' if k >= 2 => Content,
                        _ => InComment(0),
                    };
                } else {
                    // No partial `-->`: jump to the next '-'.
                    match scan::memchr(b'-', &chunk[i..]) {
                        Some(j) => {
                            i += j + 1;
                            scan.state = InComment(1);
                        }
                        None => i = n,
                    }
                }
            }
            InCdata(k) => {
                if k >= 1 {
                    let b = chunk[i];
                    i += 1;
                    scan.state = match b {
                        b']' => InCdata(2),
                        b'>' if k >= 2 => Content,
                        _ => InCdata(0),
                    };
                } else {
                    match scan::memchr(b']', &chunk[i..]) {
                        Some(j) => {
                            i += j + 1;
                            scan.state = InCdata(1);
                        }
                        None => i = n,
                    }
                }
            }
            InPi(prev) => {
                if prev {
                    let b = chunk[i];
                    i += 1;
                    scan.state = if b == b'>' { Content } else { InPi(b == b'?') };
                } else {
                    match scan::memchr(b'?', &chunk[i..]) {
                        Some(j) => {
                            i += j + 1;
                            scan.state = InPi(true);
                        }
                        None => i = n,
                    }
                }
            }
            InStartTag { quote: Some(q), .. } => match scan::memchr(q, &chunk[i..]) {
                Some(j) => {
                    i += j + 1;
                    scan.state = InStartTag {
                        quote: None,
                        slash: false,
                    };
                }
                None => i = n,
            },
            InStartTag { quote: None, slash } => {
                match scan::memchr3(b'>', b'"', b'\'', &chunk[i..]) {
                    Some(j) => {
                        let b = chunk[i + j];
                        // Whether the byte *before* the structural one
                        // was the '/' of an empty-element tag; at the
                        // very front of the run that is the carried
                        // cross-chunk state.
                        let prev_slash = if j == 0 { slash } else { chunk[i + j - 1] == b'/' };
                        i += j + 1;
                        scan.state = if b == b'>' {
                            if !prev_slash {
                                scan.depth += 1;
                            }
                            Content
                        } else {
                            InStartTag {
                                quote: Some(b),
                                slash: false,
                            }
                        };
                    }
                    None => {
                        scan.state = InStartTag {
                            quote: None,
                            slash: chunk[n - 1] == b'/',
                        };
                        i = n;
                    }
                }
            }
            InEndTag => match scan::memchr(b'>', &chunk[i..]) {
                Some(j) => {
                    i += j + 1;
                    scan.depth -= 1;
                    if scan.depth == 0 {
                        return SkipOutcome {
                            consumed: i,
                            done: true,
                        };
                    }
                    scan.state = Content;
                }
                None => i = n,
            },
            InMisc => match scan::memchr(b'>', &chunk[i..]) {
                Some(j) => {
                    i += j + 1;
                    scan.state = Content;
                }
                None => i = n,
            },
        }
    }
    SkipOutcome {
        consumed: n,
        done: false,
    }
}

/// Open-element stack stored as one contiguous arena (all names
/// concatenated, `ends[i]` = end offset of the i-th), so pushing a name
/// never allocates once warm — the per-element `String` churn of a
/// `Vec<String>` stack is what this replaces.
#[derive(Debug, Default)]
struct NameStack {
    bytes: String,
    ends: Vec<u32>,
}

impl NameStack {
    fn push(&mut self, name: &str) {
        self.bytes.push_str(name);
        self.ends.push(self.bytes.len() as u32);
    }

    fn pop(&mut self) {
        if self.ends.pop().is_some() {
            let start = self.ends.last().copied().unwrap_or(0) as usize;
            self.bytes.truncate(start);
        }
    }

    fn top(&self) -> Option<&str> {
        let &end = self.ends.last()?;
        let start = if self.ends.len() >= 2 {
            self.ends[self.ends.len() - 2] as usize
        } else {
            0
        };
        Some(&self.bytes[start..end as usize])
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// A resumable chunk-at-a-time XML tokenizer.
///
/// ```
/// use xproj_xmltree::push::{PushTokenizer, TokenSink};
/// use xproj_xmltree::ParseError;
///
/// /// Counts elements and collects text.
/// #[derive(Default)]
/// struct Words(usize, String);
/// impl TokenSink for Words {
///     type Error = ParseError;
///     fn start(&mut self, _: &str, _: &str) -> Result<bool, ParseError> {
///         self.0 += 1;
///         Ok(false)
///     }
///     fn end(&mut self, _: &str) -> Result<(), ParseError> {
///         Ok(())
///     }
///     fn text(&mut self, t: &str) -> Result<(), ParseError> {
///         self.1.push_str(t);
///         Ok(())
///     }
/// }
///
/// let mut t = PushTokenizer::new();
/// let mut sink = Words::default();
/// // Feed a document in two pieces split mid-tag:
/// for chunk in [&b"<greeting kind=\"hel"[..], b"lo\">hi &amp; bye</greeting>"] {
///     t.push_bytes(chunk).unwrap();
///     t.drain(&mut sink, false).unwrap();
/// }
/// t.finish_into(&mut sink).unwrap();
/// assert_eq!((sink.0, sink.1.as_str()), (1, "hi & bye"));
/// ```
#[derive(Debug, Default)]
pub struct PushTokenizer {
    /// The incomplete-token tail of the input plus the latest chunk.
    /// `buf[pos..]` is the unconsumed part; the consumed prefix is
    /// compacted away on the next push (never `drain`ed per token).
    buf: Vec<u8>,
    /// Cursor: start of the unconsumed bytes within `buf`.
    pos: usize,
    /// Absolute offset of `buf[pos]` in the overall stream (for errors).
    consumed: usize,
    /// Open-element stack, for well-formedness checking.
    stack: NameStack,
    /// Active pruned-subtree fast-forward, if any.
    skip: Option<SkipScan>,
    seen_root: bool,
    finished: bool,
    /// Largest single complete token seen, in bytes: the memory bound.
    max_token: usize,
    /// High-water mark of `buf.len()`.
    peak_buffered: usize,
}

impl PushTokenizer {
    /// Creates an empty tokenizer.
    pub fn new() -> Self {
        PushTokenizer::default()
    }

    /// Bytes currently buffered (the unconsumed tail).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// High-water mark of resident buffer bytes over the whole run
    /// (incomplete-token tail plus the freshest chunk).
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Size in bytes of the largest single complete token seen so far.
    /// After a successful [`Self::finish_into`], resident buffering only
    /// ever held one partial token plus one chunk, and every partial
    /// token eventually completed.
    pub fn max_token_bytes(&self) -> usize {
        self.max_token
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// True while a fast-forward is still consuming input (the skipped
    /// subtree's end tag has not arrived).
    pub fn is_skipping(&self) -> bool {
        self.skip.is_some()
    }

    /// A parse error at the cursor.
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.consumed,
            message: message.into(),
        }
    }

    /// Makes one chunk available for tokenization. While a fast-forward
    /// is active the chunk is raw-scanned immediately and **not**
    /// buffered; any suffix past the skipped subtree's end tag resumes
    /// normal tokenization.
    pub fn push_bytes(&mut self, chunk: &[u8]) -> Result<(), ParseError> {
        if self.finished {
            return Err(self.error("feed after finish"));
        }
        let mut rest = chunk;
        if let Some(scan) = self.skip.as_mut() {
            let outcome = run_skip(scan, chunk);
            self.consumed += outcome.consumed;
            if outcome.done {
                self.skip = None;
                self.stack.pop();
                rest = &chunk[outcome.consumed..];
            } else {
                debug_assert_eq!(outcome.consumed, chunk.len());
                return Ok(());
            }
        }
        // Compact: drop the consumed prefix in one move so the buffer
        // holds only the incomplete-token tail plus this chunk.
        if self.pos > 0 {
            let tail = self.buf.len() - self.pos;
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(tail);
            self.pos = 0;
        }
        self.buf.extend_from_slice(rest);
        self.peak_buffered = self.peak_buffered.max(self.buf.len());
        Ok(())
    }

    /// Runs every complete token buffered so far through `sink` — **the**
    /// token loop. Stops when the remaining bytes are mid-token (push
    /// more) or a fast-forward has swallowed the rest of the buffer.
    ///
    /// Each token is classified, UTF-8 checked and parsed exactly once,
    /// in this order: structural position (content after the root, CDATA
    /// outside it), name syntax, attribute syntax and entity validity,
    /// *then* the sink (so an undeclared element is reported before a
    /// later mismatched end tag, and an attribute error before the sink
    /// sees the tag), then the element stack.
    ///
    /// With `fast_forward` on, a non-self-closing start tag for which
    /// [`TokenSink::start`] returned `true` gets its [`TokenSink::end`]
    /// at once and every byte up to the matching end tag is consumed by
    /// a raw scan — delimiter matching and a depth counter, no
    /// tokenization, no buffering, across as many later
    /// [`Self::push_bytes`] calls as it takes (a chunk boundary may fall
    /// anywhere, even inside `-->` or `]]>`: partial delimiter matches
    /// live in the scan state, not in the buffer). End-tag names,
    /// attribute syntax and entity validity inside the skipped region
    /// are **not** checked, so it must stay off when the pass doubles as
    /// validation.
    pub fn drain<S: TokenSink>(
        &mut self,
        sink: &mut S,
        fast_forward: bool,
    ) -> Result<Drained, S::Error> {
        let mut done = Drained::default();
        // UTF-8 is validated a window at a time, not per token: `window`
        // is the valid text of the bytes from `window_at` on, and a token
        // inside it is a plain slice of it. A token sticking out of the
        // window (it straddles the window's end, is larger than one, or
        // overlaps invalid bytes) starts a new window; if it does not
        // fit that either it is validated on its own — which is where
        // invalid input gets its error.
        let (mut window, mut window_at) = ("", self.pos);
        while self.skip.is_none() {
            let Token::Complete { kind, len } = classify(&self.buf[self.pos..]) else {
                break;
            };
            self.max_token = self.max_token.max(len);
            let offset = self.consumed;
            let fail = |message: String| ParseError { offset, message };
            let mut at = self.pos - window_at;
            if window.get(at..at + len).is_none() {
                (window, window_at, at) = (valid_window(&self.buf[self.pos..]), self.pos, 0);
            }
            // All markup tokens are delimited by ASCII, so a complete
            // token over valid UTF-8 input is itself valid UTF-8.
            let tok = match window.get(at..at + len) {
                Some(tok) => tok,
                None => match std::str::from_utf8(&self.buf[self.pos..self.pos + len]) {
                    Ok(tok) => tok,
                    Err(e) => {
                        let what = if kind == TokenKind::Text { "text" } else { "markup" };
                        return Err(fail(format!("invalid UTF-8 in {what}: {e}")).into());
                    }
                },
            };
            let mut skip_subtree = false;
            match kind {
                TokenKind::Text => {
                    if !(self.stack.is_empty() && tok.trim().is_empty()) {
                        let decoded = decode_entities(tok).map_err(fail)?;
                        sink.text(&decoded)?;
                        done.events += 1;
                    }
                }
                TokenKind::StartOrEmptyTag => {
                    if self.stack.is_empty() && self.seen_root {
                        return Err(fail("content after the root element".to_string()).into());
                    }
                    let (name, attrs_raw, self_closing) = split_start_tag(tok).map_err(fail)?;
                    for attr in RawAttrs::new(attrs_raw) {
                        let (_, value) = attr.map_err(fail)?;
                        validate_entities(value).map_err(fail)?;
                    }
                    let skippable = sink.start(name, attrs_raw)?;
                    self.seen_root = true;
                    done.events += 1;
                    if self_closing {
                        sink.end(name)?;
                        done.events += 1;
                    } else {
                        self.stack.push(name);
                        if fast_forward && skippable {
                            sink.end(name)?;
                            done.fast_forwarded += 1;
                            skip_subtree = true;
                        }
                    }
                }
                TokenKind::EndTag => {
                    let name = parse_end_tag_name(tok).map_err(fail)?;
                    match self.stack.top() {
                        Some(open) if open == name => {}
                        Some(open) => {
                            return Err(fail(format!(
                                "mismatched end tag </{name}>, expected </{open}>"
                            ))
                            .into())
                        }
                        None => {
                            return Err(
                                fail(format!("end tag </{name}> with no open element")).into()
                            )
                        }
                    }
                    sink.end(name)?;
                    done.events += 1;
                    self.stack.pop();
                }
                TokenKind::Cdata => {
                    if self.stack.is_empty() {
                        return Err(fail("CDATA outside the root element".to_string()).into());
                    }
                    sink.text(&tok["<![CDATA[".len()..tok.len() - "]]>".len()])?;
                    done.events += 1;
                }
                TokenKind::Comment | TokenKind::Pi => done.events += 1,
                TokenKind::Doctype => {
                    let (name, internal_subset) = parse_doctype(tok).map_err(fail)?;
                    sink.doctype(name, internal_subset)?;
                    done.events += 1;
                }
                // The declaration produces no event.
                TokenKind::XmlDecl => {}
            }
            self.pos += len;
            self.consumed += len;
            if skip_subtree {
                // Raw-scan from the cursor to the end tag closing the
                // element just pushed. Already-buffered bytes are
                // scanned right away; if the subtree extends past them
                // the skip stays active and `push_bytes` continues it.
                let mut scan = SkipScan {
                    depth: 1,
                    state: SkipState::Content,
                };
                let outcome = run_skip(&mut scan, &self.buf[self.pos..]);
                self.pos += outcome.consumed;
                self.consumed += outcome.consumed;
                if outcome.done {
                    self.stack.pop();
                } else {
                    self.skip = Some(scan);
                }
            }
        }
        if self.skip.is_some() {
            // The whole tail fell inside the skipped subtree: nothing
            // stays buffered while the fast-forward is active.
            debug_assert_eq!(self.pos, self.buf.len());
            self.buf.clear();
            self.pos = 0;
        }
        Ok(done)
    }

    /// Signals end of input. A trailing text run has no terminating `<`
    /// and only completes here (delivered to `sink` and counted, unless
    /// it is whitespace outside the root). Errors if the input ends
    /// mid-token or with unclosed elements — including an unfinished
    /// fast-forward, whose element is still on the stack.
    pub fn finish_into<S: TokenSink>(&mut self, sink: &mut S) -> Result<Drained, S::Error> {
        let mut done = Drained::default();
        if self.finished {
            return Ok(done);
        }
        self.finished = true;
        let tail_len = self.buf.len() - self.pos;
        let mut trailing = None;
        if tail_len > 0 {
            if self.buf[self.pos] == b'<' {
                return Err(match self.stack.top() {
                    Some(open) => self.error(format!(
                        "unexpected end of input inside markup, <{open}> not closed"
                    )),
                    None => self.error("unexpected end of input inside markup"),
                }
                .into());
            }
            self.max_token = self.max_token.max(tail_len);
            let offset = self.consumed;
            let fail = |message: String| ParseError { offset, message };
            let raw = std::str::from_utf8(&self.buf[self.pos..])
                .map_err(|e| fail(format!("invalid UTF-8 in text: {e}")))?;
            if !(self.stack.is_empty() && raw.trim().is_empty()) {
                trailing = Some(decode_entities(raw).map_err(fail)?);
            }
            self.consumed += tail_len;
        }
        if let Some(open) = self.stack.top() {
            return Err(self
                .error(format!("unexpected end of input, <{open}> not closed"))
                .into());
        }
        if let Some(text) = trailing {
            sink.text(&text)?;
            done.events += 1;
        }
        self.pos = self.buf.len();
        Ok(done)
    }

    // -----------------------------------------------------------------
    // The frozen raw cursor. `benchmark/src/ladder.rs` builds `--locked`
    // against `peek_token` / `token_str` / `advance` / `finish`, so they
    // stay — a second cursor over the same `classify` — until the next
    // benchmark re-baseline, and go then. Nothing under `crates/` or
    // `src/` may call them: use `drain`.
    // -----------------------------------------------------------------

    /// Looks at the next complete token without consuming it: `None`
    /// when the buffered bytes are mid-token (push more) or a subtree
    /// fast-forward is active. Benchmark ladder only; see [`Self::drain`].
    pub fn peek_token(&mut self) -> Result<Option<RawToken>, ParseError> {
        if self.skip.is_some() {
            return Ok(None);
        }
        let Token::Complete { kind, len } = classify(&self.buf[self.pos..]) else {
            return Ok(None);
        };
        self.max_token = self.max_token.max(len);
        let t = &self.buf[self.pos..self.pos + len];
        if let Err(e) = std::str::from_utf8(t) {
            let what = if kind == TokenKind::Text { "text" } else { "markup" };
            return Err(self.error(format!("invalid UTF-8 in {what}: {e}")));
        }
        let raw = match kind {
            TokenKind::Text => RawKind::Text,
            TokenKind::Cdata => {
                if self.stack.is_empty() {
                    return Err(self.error("CDATA outside the root element"));
                }
                RawKind::Cdata
            }
            TokenKind::StartOrEmptyTag => {
                if self.stack.is_empty() && self.seen_root {
                    return Err(self.error("content after the root element"));
                }
                RawKind::StartTag {
                    self_closing: t.ends_with(b"/>"),
                }
            }
            TokenKind::EndTag => RawKind::EndTag,
            TokenKind::Comment => RawKind::Comment,
            TokenKind::Pi => RawKind::Pi,
            TokenKind::XmlDecl => RawKind::XmlDecl,
            TokenKind::Doctype => RawKind::Doctype,
        };
        Ok(Some(RawToken { kind: raw, len }))
    }

    /// The raw text of a token minted by [`Self::peek_token`] (and not
    /// yet advanced past), delimiters included, entities still encoded.
    pub fn token_str(&self, tok: &RawToken) -> &str {
        std::str::from_utf8(&self.buf[self.pos..self.pos + tok.len])
            .expect("token UTF-8 validated in peek_token")
    }

    /// Consumes a token minted by [`Self::peek_token`], running the
    /// well-formedness checks that need the element stack. Attribute
    /// syntax is **not** checked here.
    pub fn advance(&mut self, tok: RawToken) -> Result<(), ParseError> {
        let offset = self.consumed;
        let fail = |message: String| ParseError { offset, message };
        let text = std::str::from_utf8(&self.buf[self.pos..self.pos + tok.len])
            .expect("token UTF-8 validated in peek_token");
        match tok.kind {
            RawKind::Doctype => {
                parse_doctype(text).map_err(fail)?;
            }
            RawKind::EndTag => {
                let name = parse_end_tag_name(text).map_err(fail)?;
                match self.stack.top() {
                    Some(open) if open == name => {}
                    Some(open) => {
                        return Err(fail(format!(
                            "mismatched end tag </{name}>, expected </{open}>"
                        )))
                    }
                    None => return Err(fail(format!("end tag </{name}> with no open element"))),
                }
                self.stack.pop();
            }
            RawKind::StartTag { self_closing } => {
                let (name, _, _) = split_start_tag(text).map_err(fail)?;
                self.seen_root = true;
                if !self_closing {
                    self.stack.push(name);
                }
            }
            RawKind::Text | RawKind::Cdata | RawKind::Comment | RawKind::Pi | RawKind::XmlDecl => {}
        }
        self.pos += tok.len;
        self.consumed += tok.len;
        Ok(())
    }

    /// [`Self::finish_into`] returning the trailing text run, if any, as
    /// an owned event. Benchmark ladder only; see [`Self::drain`].
    pub fn finish(&mut self) -> Result<Vec<PushEvent>, ParseError> {
        struct Trailing(Vec<PushEvent>);
        impl TokenSink for Trailing {
            type Error = ParseError;
            fn start(&mut self, _: &str, _: &str) -> Result<bool, ParseError> {
                Ok(false)
            }
            fn end(&mut self, _: &str) -> Result<(), ParseError> {
                Ok(())
            }
            fn text(&mut self, decoded: &str) -> Result<(), ParseError> {
                self.0.push(PushEvent::Text(decoded.to_string()));
                Ok(())
            }
        }
        let mut sink = Trailing(Vec::new());
        self.finish_into(&mut sink)?;
        Ok(sink.0)
    }
}

/// Chunk size [`drain_str`] feeds a whole string in: one 3 MiB push is
/// slower than fifty 64 KiB ones (the buffer stays cache-resident).
const STR_CHUNK: usize = 64 * 1024;

/// Runs a complete in-memory document through `sink`: the one-chunk
/// case of the push loop, for callers that hold the whole input (the
/// tree parser, `prune_str*`, the retention sampler, the CLI).
pub fn drain_str<S: TokenSink>(
    input: &str,
    sink: &mut S,
    fast_forward: bool,
) -> Result<Drained, S::Error> {
    let mut tokenizer = PushTokenizer::new();
    let mut done = Drained::default();
    for chunk in input.as_bytes().chunks(STR_CHUNK) {
        tokenizer.push_bytes(chunk)?;
        done += tokenizer.drain(sink, fast_forward)?;
    }
    done += tokenizer.finish_into(sink)?;
    Ok(done)
}

/// Bytes [`PushTokenizer::drain`] validates as UTF-8 in one go.
const WINDOW: usize = 4096;

/// The longest valid-UTF-8 prefix of the first [`WINDOW`] bytes of
/// `bytes`, as text.
fn valid_window(bytes: &[u8]) -> &str {
    let mut end = bytes.len().min(WINDOW);
    // Do not cut a multi-byte scalar in half: back off to its lead byte.
    while end < bytes.len() && end > 0 && bytes[end] & 0xC0 == 0x80 {
        end -= 1;
    }
    match std::str::from_utf8(&bytes[..end]) {
        Ok(text) => text,
        Err(e) => std::str::from_utf8(&bytes[..e.valid_up_to()]).unwrap_or_default(),
    }
}

/// Looks for one complete token at the front of `buf` (the unconsumed
/// bytes). Shared by [`PushTokenizer::drain`] and the frozen cursor.
fn classify(buf: &[u8]) -> Token {
    if buf.is_empty() {
        return Token::Incomplete;
    }
    if buf[0] != b'<' {
        // Text run: complete once the next '<' is visible ('<' is
        // ASCII, so it can never be a UTF-8 continuation byte).
        return match scan::memchr(b'<', buf) {
            Some(i) => Token::Complete {
                kind: TokenKind::Text,
                len: i,
            },
            None => Token::Incomplete,
        };
    }
    // Markup. Some openers share prefixes ("<!" starts comments,
    // CDATA and DOCTYPE), so with very short buffers we must wait
    // rather than misclassify.
    for (opener, closer, kind) in [
        (&b"<!--"[..], &b"-->"[..], TokenKind::Comment),
        (&b"<![CDATA["[..], &b"]]>"[..], TokenKind::Cdata),
    ] {
        if prefix_matches(buf, opener) {
            if buf.len() < opener.len() {
                return Token::Incomplete;
            }
            return match scan::find_seq(buf, closer, opener.len()) {
                Some(i) => Token::Complete {
                    kind,
                    len: i + closer.len(),
                },
                None => Token::Incomplete,
            };
        }
    }
    if prefix_matches(buf, b"<!DOCTYPE") {
        if buf.len() < b"<!DOCTYPE".len() {
            return Token::Incomplete;
        }
        // '>' ends the DOCTYPE only outside quotes and outside the
        // `[…]` internal subset, which (like `parse_doctype`) is
        // treated as raw up to the first ']'. At most one DOCTYPE per
        // document: per-byte is fine here.
        let mut in_subset = false;
        let mut quote: Option<u8> = None;
        for (i, &b) in buf.iter().enumerate().skip(b"<!DOCTYPE".len()) {
            match (in_subset, quote) {
                (true, _) => in_subset = b != b']',
                (false, Some(q)) => {
                    if b == q {
                        quote = None;
                    }
                }
                (false, None) => match b {
                    b'[' => in_subset = true,
                    b'"' | b'\'' => quote = Some(b),
                    b'>' => {
                        return Token::Complete {
                            kind: TokenKind::Doctype,
                            len: i + 1,
                        }
                    }
                    _ => {}
                },
            }
        }
        return Token::Incomplete;
    }
    if prefix_matches(buf, b"<?xml") {
        // Anything starting "<?xml" is the declaration and is skipped
        // wholesale.
        if buf.len() < b"<?xml".len() {
            return Token::Incomplete;
        }
        return match scan::find_seq(buf, b"?>", 2) {
            Some(i) => Token::Complete {
                kind: TokenKind::XmlDecl,
                len: i + 2,
            },
            None => Token::Incomplete,
        };
    }
    if buf.len() >= 2 && buf[1] == b'?' {
        return match scan::find_seq(buf, b"?>", 2) {
            Some(i) => Token::Complete {
                kind: TokenKind::Pi,
                len: i + 2,
            },
            None => Token::Incomplete,
        };
    }
    if buf.len() >= 2 && buf[1] == b'!' {
        // "<!" not (yet) matching a comment/CDATA/DOCTYPE opener:
        // either we need more bytes, or it is genuinely malformed.
        // Waiting is always safe; malformed input surfaces as an
        // "unexpected end of input" at finish() or as a parse error
        // once the opener is complete and recognisably wrong.
        if prefix_of_any(buf, &[b"<!--", b"<![CDATA[", b"<!DOCTYPE"]) {
            return Token::Incomplete;
        }
        // Complete enough to know it matches no opener: report at
        // the '>' (scan like a tag) so the parse error is precise.
        return match scan::memchr(b'>', &buf[1..]) {
            Some(i) => Token::Complete {
                kind: TokenKind::StartOrEmptyTag,
                len: i + 2,
            },
            None => Token::Incomplete,
        };
    }
    // Start or end tag: ends at the first '>' outside quotes
    // (attribute values may legally contain '>'). Jump from
    // structural byte to structural byte instead of stepping.
    let kind = if buf.len() >= 2 && buf[1] == b'/' {
        TokenKind::EndTag
    } else if buf.len() < 2 {
        return Token::Incomplete;
    } else {
        TokenKind::StartOrEmptyTag
    };
    let mut i = 1;
    let mut quote: Option<u8> = None;
    loop {
        match quote {
            Some(q) => match scan::memchr(q, &buf[i..]) {
                Some(j) => {
                    i += j + 1;
                    quote = None;
                }
                None => return Token::Incomplete,
            },
            None => match scan::memchr3(b'>', b'"', b'\'', &buf[i..]) {
                Some(j) => {
                    let b = buf[i + j];
                    i += j + 1;
                    if b == b'>' {
                        return Token::Complete { kind, len: i };
                    }
                    quote = Some(b);
                }
                None => return Token::Incomplete,
            },
        }
    }
}

/// `haystack` starts with `prefix`, or is a proper prefix of it (i.e.
/// could still become it with more bytes).
fn prefix_matches(haystack: &[u8], prefix: &[u8]) -> bool {
    let n = haystack.len().min(prefix.len());
    haystack[..n] == prefix[..n]
}

/// `buf` (shorter than every candidate) is a prefix of at least one.
fn prefix_of_any(buf: &[u8], candidates: &[&[u8]]) -> bool {
    candidates
        .iter()
        .any(|c| buf.len() < c.len() && c[..buf.len()] == *buf)
}

/// Extracts the name from a complete `</name>` token without allocating.
pub fn parse_end_tag_name(token: &str) -> Result<&str, String> {
    let inner = &token[2..token.len() - 1];
    let (name, rest) = read_name(inner)?;
    if !rest.trim_start().is_empty() {
        return Err(format!("unexpected '{}' in end tag", rest.trim_start()));
    }
    Ok(name)
}

/// Splits a complete `<name a="v" …>` / `<name …/>` token into its name,
/// the raw (unparsed) attribute region, and the self-closing flag —
/// without allocating. Iterate the attribute region with [`RawAttrs`].
pub fn split_start_tag(token: &str) -> Result<(&str, &str, bool), String> {
    let self_closing = token.ends_with("/>");
    let inner = &token[1..token.len() - if self_closing { 2 } else { 1 }];
    let (name, rest) = read_name(inner)?;
    Ok((name, rest, self_closing))
}

/// Iterator over the raw attribute region of a start tag (the middle
/// value of [`split_start_tag`]), yielding `(name, raw_value)` pairs
/// with the value still entity-encoded and borrowed from the token.
/// Fuses after yielding an error.
#[derive(Debug, Clone)]
pub struct RawAttrs<'a> {
    rest: &'a str,
    failed: bool,
}

impl<'a> RawAttrs<'a> {
    /// Starts iterating an attribute region.
    pub fn new(attrs_rest: &'a str) -> Self {
        RawAttrs {
            rest: attrs_rest,
            failed: false,
        }
    }
}

impl<'a> Iterator for RawAttrs<'a> {
    type Item = Result<(&'a str, &'a str), String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let trimmed = self.rest.trim_start();
        if trimmed.is_empty() {
            return None;
        }
        let step = (|| {
            let (aname, after) = read_name(trimmed)?;
            let after = after.trim_start();
            let Some(after) = after.strip_prefix('=') else {
                return Err(format!("expected '=' after attribute name '{aname}'"));
            };
            let after = after.trim_start();
            let quote = match after.bytes().next() {
                Some(q @ (b'"' | b'\'')) => q,
                _ => return Err("expected quoted attribute value".to_string()),
            };
            let vstart = &after[1..];
            let Some(vlen) = scan::memchr(quote, vstart.as_bytes()) else {
                return Err("unterminated attribute value".to_string());
            };
            Ok((aname, &vstart[..vlen], &vstart[vlen + 1..]))
        })();
        match step {
            Ok((aname, value, rest)) => {
                self.rest = rest;
                Some(Ok((aname, value)))
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Parses a complete `<!DOCTYPE …>` token into its name and raw
/// internal subset (the text between `[` and `]`), if present.
fn parse_doctype(token: &str) -> Result<(&str, Option<&str>), String> {
    let body = token["<!DOCTYPE".len()..token.len() - 1].trim_start();
    let (name, mut rest) = read_name(body)?;
    let mut internal = None;
    loop {
        rest = rest.trim_start();
        let mut chars = rest.chars();
        match chars.next() {
            None => return Ok((name, internal)),
            Some('[') => {
                let after = &rest[1..];
                let Some(end) = after.find(']') else {
                    return Err("unterminated DOCTYPE internal subset".to_string());
                };
                internal = Some(&after[..end]);
                rest = &after[end + 1..];
            }
            Some(q @ ('"' | '\'')) => {
                let after = &rest[1..];
                let Some(end) = after.find(q) else {
                    return Err("unterminated literal in DOCTYPE".to_string());
                };
                rest = &after[end + 1..];
            }
            Some(c) => rest = &rest[c.len_utf8()..],
        }
    }
}

/// Reads an XML name from the front of `s`, returning the name and the
/// remainder.
fn read_name(s: &str) -> Result<(&str, &str), String> {
    let mut end = 0;
    for (i, c) in s.char_indices() {
        let ok = if i == 0 {
            c.is_alphabetic() || c == '_' || c == ':'
        } else {
            c.is_alphanumeric() || matches!(c, '_' | ':' | '-' | '.')
        };
        if !ok {
            end = i;
            break;
        }
        end = i + c.len_utf8();
    }
    if end == 0 {
        return Err("expected a name".to_string());
    }
    Ok((&s[..end], &s[end..]))
}
