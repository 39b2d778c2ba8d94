//! The XML tokenizer: one incremental, *push*-mode token loop.
//!
//! Bytes are fed in with [`PushTokenizer::feed`] in arbitrarily-sized
//! pieces (down to one byte) and every complete token is handed to a
//! [`TokenSink`] as soon as its closing delimiter has arrived. Chunk
//! boundaries may fall anywhere — in the middle of a tag name, an
//! attribute value, an `&amp;`-style entity, a CDATA section, a comment,
//! a processing instruction, or a multi-byte UTF-8 sequence — and the
//! calls the sink sees are identical to a one-chunk run over the
//! concatenated input. A whole in-memory document is that one-chunk
//! case: [`drain_str`].
//!
//! Where a token ends is decided by one private, resumable `Scanner` —
//! the only delimiter grammar in the crate — and one loop interprets
//! tokens. Per token it validates UTF-8, parses names (a byte-class
//! table per ASCII byte) and attribute syntax, checks the open-element
//! stack (an end tag spelling the open name is one byte compare),
//! decodes entities (only in a text run the scanner saw an `&` in),
//! counts the event and — when the sink says a subtree holds nothing it
//! wants — lets the same scanner run on to the matching end tag,
//! interpreting nothing. Everything that consumes XML — the pruning
//! machine, the query matcher, the validating pruner, the tree parser,
//! the retention sampler, the CLI's DOCTYPE sniff — is a sink over it.
//!
//! The scanner is *bulk-scanning*, not byte-stepping: tokens are
//! delimited by finding the next structural byte (`<`, `&`, `>`, quotes,
//! `-`, `]`, `?` depending on state) with the word-at-a-time scanners
//! in [`crate::scan`]. And it resumes: a token cut short by the end of a
//! chunk is continued from that byte on the next feed, not rescanned, so
//! every byte is examined once at any chunk size
//! ([`PushTokenizer::scanned_bytes`] counts them).
//!
//! A chunk is tokenized where it lies: sinks see borrowed slices of it,
//! with no per-event allocation, and only the bytes of the one token
//! that straddles its end are copied into a carry buffer, where the next
//! feed completes it ([`PushTokenizer::carried_bytes`] counts them).
//! That is the memory contract that makes constant-memory pruning
//! possible (paper §6): resident buffering is bounded by the largest
//! single token in the document (one tag, one comment, one text run,
//! …), never by the document size or the chunk size.
//! [`PushTokenizer::buffered`] and [`PushTokenizer::max_token_bytes`]
//! expose the accounting so downstream code can *assert* the bound.
//! (The frozen cursor's [`PushTokenizer::push_bytes`] copies whole
//! chunks into the carry instead.)

use crate::entities::{decode_entities, validate_entities, ParseError};
use crate::scan;
use std::collections::HashSet;

/// The consumer side of [`PushTokenizer::feed`]: one call per event, in
/// document order, with names and text borrowed from the tokenizer's
/// buffer. By the time a method runs, the token has passed every
/// well-formedness check the tokenizer makes (UTF-8, name and attribute
/// syntax, unique attribute names, entity validity, tag balance).
///
/// Comments and processing instructions are counted but not delivered;
/// the XML declaration is neither.
pub trait TokenSink {
    /// What the sink fails with. The tokenizer's own [`ParseError`]s are
    /// converted into it, so `feed` has a single error channel.
    type Error: From<ParseError>;

    /// `<name …>` or `<name …/>`. `attrs_raw` is the still-encoded
    /// attribute region (iterate it with [`RawAttrs`]); its syntax and
    /// entities have already been validated. A self-closing tag is
    /// followed immediately by the matching [`Self::end`].
    ///
    /// Return `true` when the sink wants nothing from inside this
    /// element: with fast-forward on, the tokenizer then delivers
    /// [`Self::end`] at once and scans past the subtree. With
    /// fast-forward off the subtree's events arrive normally, which must
    /// be equally correct for the sink.
    fn start(&mut self, name: &str, attrs_raw: &str) -> Result<bool, Self::Error>;

    /// `</name>`, already matched against the open element.
    fn end(&mut self, name: &str) -> Result<(), Self::Error>;

    /// A character-data run with entities decoded, or the contents of a
    /// CDATA section. Whitespace (XML's `S`) outside the root element is
    /// dropped before it gets here; other text before the root is an
    /// error, after it is delivered.
    fn text(&mut self, decoded: &str) -> Result<(), Self::Error>;

    /// `<!DOCTYPE name … [internal subset]>`.
    fn doctype(&mut self, _name: &str, _internal_subset: Option<&str>) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// What one [`PushTokenizer::feed`] (or [`PushTokenizer::finish_into`])
/// call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Drained {
    /// Events processed: start, end (a self-closing tag is both), text,
    /// CDATA, comment, PI and DOCTYPE count one each; the XML
    /// declaration and whitespace outside the root count zero.
    pub events: u64,
    /// Subtrees fast-forwarded.
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

/// What the boundary scanner found at the cursor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TokenKind {
    Text {
        /// The run holds an `&` (looked for only when tokenizing).
        amp: bool,
    },
    StartTag {
        /// The byte before the closing `>` was `/`.
        self_closing: bool,
    },
    EndTag,
    Comment,
    Cdata,
    /// `<? … ?>`, the XML declaration included.
    Pi,
    Doctype,
    /// Any other `<! … >`: no XML token, the token loop rejects it.
    Misc,
}

/// Classification of a raw token exposed by [`PushTokenizer::peek_token`]
/// (the frozen cursor; [`PushTokenizer::feed`] never surfaces it).
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

/// Where the boundary scanner is within the token at the cursor. Partial
/// delimiter matches are encoded in the state itself, so the input may
/// stop anywhere (even inside `]]>` or `-->`) and resume without a byte
/// being looked at again.
#[derive(Debug, Clone, Copy, Default)]
enum Scan {
    /// Between tokens.
    #[default]
    Start,
    /// Character data: scanning for the next `<` — and, until one turns
    /// up, for an `&`.
    Text { amp: bool },
    /// Saw `<`.
    Lt,
    /// Saw `<!`.
    LtBang,
    /// Saw `<!` plus the first `at` bytes of `word` (`--`, `[CDATA[` or
    /// `DOCTYPE`).
    Opener { word: &'static [u8], at: u8 },
    /// Inside a comment, CDATA section or PI, which ends at `need` or
    /// more `close` bytes followed by `>`; `run` counts the `close`
    /// bytes just seen (capped at `need`).
    Body {
        kind: TokenKind,
        close: u8,
        need: u8,
        run: u8,
    },
    /// Inside `<!DOCTYPE … >`, where `>` counts only outside a quoted
    /// literal and outside the `[…]` subset (raw up to the first `]`,
    /// like `parse_doctype`): the byte that ends the one the scan is in.
    Doctype(Option<u8>),
    /// Inside a start tag: the open attribute-value quote, and whether
    /// the last byte of the previous feed was an unquoted `/`.
    StartTag { quote: Option<u8>, slash: bool },
    /// Inside `</ … >`.
    EndTag,
    /// Inside an unrecognised `<! … >`.
    Misc,
}

impl Scan {
    fn body(kind: TokenKind, close: u8, need: u8) -> Scan {
        Scan::Body {
            kind,
            close,
            need,
            run: 0,
        }
    }
}

/// The one grammar for token boundaries: a resumable state machine that
/// finds where the token at the cursor ends and interprets nothing. The
/// token loop hands it the unexamined bytes of its buffer, fast-forward
/// hands it the input unbuffered; either way each byte is examined once,
/// by a bulk scan for the one byte that can change the state.
#[derive(Debug, Default)]
struct Scanner {
    state: Scan,
    /// Bytes of the current, still incomplete token examined so far.
    examined: usize,
    /// Bytes examined in total.
    scanned: u64,
}

impl Scanner {
    /// Continues over `bytes`, which follow the ones of earlier calls,
    /// asking `stop` at the end of each token whether to go on to the
    /// next one: the kind of the token it stopped at and where in
    /// `bytes` that ends (exclusive), or `None` when `bytes` ran out.
    /// With `AMP` a text run is also searched for `&`, up to the first.
    fn feed<const AMP: bool>(
        &mut self,
        bytes: &[u8],
        mut stop: impl FnMut(TokenKind) -> bool,
    ) -> Option<(TokenKind, usize)> {
        use Scan::*;
        let n = bytes.len();
        let mut state = self.state;
        // The cursor; where the token it is in starts, and how much of
        // that token earlier calls examined.
        let (mut i, mut token_at, mut examined) = (0, 0, self.examined);
        // Moves `i` past the next `needle`, or to the end if there is none.
        let seek = |needle: u8, i: &mut usize| match scan::memchr(needle, &bytes[*i..]) {
            Some(j) => {
                *i += j + 1;
                true
            }
            None => {
                *i = n;
                false
            }
        };
        // What the byte after `<` opens, and whether that byte is part
        // of the opener (a start tag examines its first byte itself).
        let open = |b: u8| match b {
            b'/' => (EndTag, 1),
            b'!' => (LtBang, 1),
            b'?' => (Scan::body(TokenKind::Pi, b'?', 1), 1),
            _ => (
                StartTag {
                    quote: None,
                    slash: false,
                },
                0,
            ),
        };
        loop {
            let kind = 'token: loop {
                if i == n {
                    self.state = state;
                    self.examined = examined + (n - token_at);
                    self.scanned += n as u64;
                    return None;
                }
                // Each arm scans as far as it can: every trip round
                // this loop is an indirect jump, and a small token
                // should cost two. An arm that does not advance `i`
                // leaves the byte to the state it switches to.
                match state {
                    Start if bytes[i] == b'<' => {
                        (state, i) = (Lt, i + 1);
                        if let Some(&b) = bytes.get(i) {
                            let (opened, used) = open(b);
                            (state, i) = (opened, i + used);
                        }
                    }
                    // Until its first `&` a run is searched for both
                    // bytes, after it (or fast-forwarding) for `<` only.
                    Start | Text { amp: false } if AMP => {
                        match scan::memchr2(b'<', b'&', &bytes[i..]) {
                            Some(j) if bytes[i + j] == b'&' => {
                                (state, i) = (Text { amp: true }, i + j + 1);
                            }
                            Some(j) => {
                                i += j;
                                break TokenKind::Text { amp: false };
                            }
                            None => (state, i) = (Text { amp: false }, n),
                        }
                    }
                    Start | Text { .. } => {
                        let amp = matches!(state, Text { amp: true });
                        state = Text { amp };
                        if seek(b'<', &mut i) {
                            // The `<` belongs to the next token.
                            i -= 1;
                            break TokenKind::Text { amp };
                        }
                    }
                    Lt => {
                        let (opened, used) = open(bytes[i]);
                        (state, i) = (opened, i + used);
                    }
                    LtBang => {
                        state = match bytes[i] {
                            b'-' => Opener { word: b"--", at: 0 },
                            b'[' => Opener {
                                word: b"[CDATA[",
                                at: 0,
                            },
                            b'D' => Opener {
                                word: b"DOCTYPE",
                                at: 0,
                            },
                            _ => Misc,
                        }
                    }
                    Opener { word, at } => {
                        if bytes[i] != word[at as usize] {
                            state = Misc;
                            continue;
                        }
                        i += 1;
                        state = match word[0] {
                            _ if at as usize + 1 < word.len() => Opener { word, at: at + 1 },
                            b'-' => Scan::body(TokenKind::Comment, b'-', 2),
                            b'[' => Scan::body(TokenKind::Cdata, b']', 2),
                            _ => Doctype(None),
                        };
                    }
                    Body {
                        kind,
                        close,
                        need,
                        run: 0,
                    } => {
                        if seek(close, &mut i) {
                            state = Body {
                                kind,
                                close,
                                need,
                                run: 1,
                            };
                        }
                    }
                    Body {
                        kind,
                        close,
                        need,
                        run,
                    } => {
                        let b = bytes[i];
                        i += 1;
                        if b == b'>' && run == need {
                            break kind;
                        }
                        let run = if b == close { need.min(run + 1) } else { 0 };
                        state = Body {
                            kind,
                            close,
                            need,
                            run,
                        };
                    }
                    Doctype(Some(end)) => {
                        if seek(end, &mut i) {
                            state = Doctype(None);
                        }
                    }
                    Doctype(None) => {
                        let structural = |b: &u8| matches!(b, b'>' | b'[' | b'"' | b'\'');
                        let Some(j) = bytes[i..].iter().position(structural) else {
                            i = n;
                            continue;
                        };
                        i += j + 1;
                        match bytes[i - 1] {
                            b'>' => break TokenKind::Doctype,
                            b'[' => state = Doctype(Some(b']')),
                            quote => state = Doctype(Some(quote)),
                        }
                    }
                    // `>` ends the tag only outside quotes (attribute
                    // values may contain it): jump from structural byte
                    // to structural byte.
                    StartTag { mut quote, slash } => loop {
                        if quote.is_some_and(|q| !seek(q, &mut i)) {
                            state = StartTag {
                                quote,
                                slash: false,
                            };
                            break;
                        }
                        let Some(j) = scan::memchr3(b'>', b'"', b'\'', &bytes[i..]) else {
                            state = StartTag {
                                quote: None,
                                slash: bytes[n - 1] == b'/',
                            };
                            i = n;
                            break;
                        };
                        let at = i + j;
                        i = at + 1;
                        if bytes[at] == b'>' {
                            // The byte before it; at the very front of
                            // `bytes` that is the carried state.
                            let self_closing = if at == 0 {
                                slash
                            } else {
                                bytes[at - 1] == b'/'
                            };
                            break 'token TokenKind::StartTag { self_closing };
                        }
                        quote = Some(bytes[at]);
                    },
                    EndTag => {
                        if seek(b'>', &mut i) {
                            break TokenKind::EndTag;
                        }
                    }
                    Misc => {
                        if seek(b'>', &mut i) {
                            break TokenKind::Misc;
                        }
                    }
                }
            };
            if stop(kind) {
                self.state = Start;
                self.examined = 0;
                self.scanned += i as u64;
                return Some((kind, i));
            }
            (state, token_at, examined) = (Start, i, 0);
        }
    }

    /// The token at the cursor, for a caller that holds it whole:
    /// `unconsumed` holds it from its first byte, only the part not yet
    /// examined is fed, and the end is relative to `unconsumed`.
    #[inline]
    fn token_end(&mut self, unconsumed: &[u8]) -> Option<(TokenKind, usize)> {
        let seen = self.examined;
        let (kind, end) = self.resume(&unconsumed[seen..])?;
        Some((kind, seen + end))
    }

    /// Continues the token at the cursor over `more`, the bytes after
    /// the ones examined so far: its kind and where in `more` it ends.
    /// (Not inlined, nor is [`Self::skip`]: each is the state machine
    /// compiled once, with registers of its own, rather than into every
    /// `feed::<S>`.)
    #[inline(never)]
    fn resume(&mut self, more: &[u8]) -> Option<(TokenKind, usize)> {
        self.feed::<true>(more, |_| true)
    }

    /// Fast-forward: runs over `bytes` interpreting nothing but the
    /// nesting `depth` (the unclosed elements of the skipped subtree, 1
    /// on entry) until the end tag that takes it to 0 has been consumed.
    /// Returns how many bytes that took — all of them while `depth > 0`.
    #[inline(never)]
    fn skip(&mut self, depth: &mut usize, bytes: &[u8]) -> usize {
        let closed = self.feed::<false>(bytes, |kind| {
            match kind {
                TokenKind::StartTag {
                    self_closing: false,
                } => *depth += 1,
                TokenKind::EndTag => *depth -= 1,
                _ => {}
            }
            *depth == 0
        });
        closed.map_or(bytes.len(), |(_, end)| end)
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
///     t.feed(chunk, &mut sink, false).unwrap();
/// }
/// t.finish_into(&mut sink).unwrap();
/// assert_eq!((sink.0, sink.1.as_str()), (1, "hi & bye"));
/// ```
#[derive(Debug, Default)]
pub struct PushTokenizer {
    /// The carry: the bytes of the token the last [`Self::feed`] could
    /// not complete, from its first byte — or, under the frozen cursor,
    /// everything [`Self::push_bytes`] buffered. `buf[pos..]` is the
    /// unconsumed part; the consumed prefix is compacted away on the
    /// next copy in (never removed per token).
    buf: Vec<u8>,
    /// Cursor: start of the unconsumed bytes within `buf`.
    pos: usize,
    /// Absolute offset of the token at the cursor in the overall stream
    /// (for errors).
    consumed: usize,
    /// Open-element stack, for well-formedness checking.
    stack: NameStack,
    /// Where the token at the cursor ends: the one boundary grammar.
    scanner: Scanner,
    /// Unclosed elements of the subtree being fast-forwarded; 0 when no
    /// fast-forward is active.
    skip_depth: usize,
    seen_root: bool,
    seen_doctype: bool,
    finished: bool,
    /// Largest single complete token seen, in bytes: the memory bound.
    max_token: usize,
    /// High-water mark of `buf.len()`.
    peak_buffered: usize,
    /// Bytes copied into `buf` in total.
    carried: u64,
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

    /// High-water mark of resident buffer bytes over the whole run: one
    /// incomplete token under [`Self::feed`], that plus the freshest
    /// chunk under [`Self::push_bytes`].
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
        self.skip_depth > 0
    }

    /// Bytes the boundary scanner has examined in total. Every byte is
    /// examined once however the input is chunked, so this tracks the
    /// bytes pushed — the linear-work promise, as a counter tests assert.
    pub fn scanned_bytes(&self) -> u64 {
        self.scanner.scanned
    }

    /// Bytes copied into the carry buffer in total. [`Self::feed`]
    /// tokenizes a chunk where it lies and copies only the bytes of a
    /// token that straddles the chunk's end (a text run straddles it
    /// until its `<` has come); [`Self::push_bytes`] copies everything.
    pub fn carried_bytes(&self) -> u64 {
        self.carried
    }

    /// A parse error at the cursor.
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.consumed,
            message: message.into(),
        }
    }

    /// Whether the text run at the cursor, outside the root element,
    /// reaches the sink. XML whitespace there is dropped; before the root
    /// nothing else may come but a byte-order mark opening the input,
    /// after it anything goes.
    fn keeps_outside_root(&self, run: &str) -> Result<bool, String> {
        let run = match self.consumed {
            0 => run.strip_prefix('\u{FEFF}').unwrap_or(run),
            _ => run,
        };
        if run.bytes().all(is_xml_space) {
            Ok(false)
        } else if self.seen_root {
            Ok(true)
        } else {
            Err("text before the root element".to_string())
        }
    }

    /// The name a complete end tag closes, checked against the open
    /// element. A token spelling exactly `</` + that element's name + `>`
    /// is one byte compare — the name was read when it was pushed — and
    /// any other is parsed.
    fn closed_name<'t>(&self, tok: &'t str) -> Result<&'t str, String> {
        let raw = &tok[2..tok.len() - 1];
        if self.stack.top() == Some(raw) {
            return Ok(raw);
        }
        let name = parse_end_tag_name(tok)?;
        match self.stack.top() {
            Some(open) if open == name => Ok(name),
            Some(open) => Err(format!("mismatched end tag </{name}>, expected </{open}>")),
            None => Err(format!("end tag </{name}> with no open element")),
        }
    }

    /// Runs the active fast-forward over `bytes`: how many it consumed,
    /// all of them while the skipped subtree's end tag has not come.
    fn skip(&mut self, bytes: &[u8]) -> usize {
        let skipped = self.scanner.skip(&mut self.skip_depth, bytes);
        self.consumed += skipped;
        if self.skip_depth == 0 {
            self.stack.pop();
        }
        skipped
    }

    /// Copies `bytes` to the end of the carry, first compacting away the
    /// consumed prefix in one move.
    fn carry(&mut self, bytes: &[u8]) {
        if self.pos > 0 {
            let tail = self.buf.len() - self.pos;
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(tail);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
        self.carried += bytes.len() as u64;
        self.peak_buffered = self.peak_buffered.max(self.buf.len());
    }

    /// Tokenizes one chunk where it lies — **the** token loop. Every
    /// token the chunk completes runs through `sink`; only the bytes of
    /// a token that straddles its end are copied, into the carry, and a
    /// subtree being fast-forwarded is scanned past and never copied.
    ///
    /// Each token is delimited, UTF-8 checked and parsed exactly once,
    /// in this order: structural position (content after the root, CDATA
    /// or text other than whitespace before it, a late or second
    /// DOCTYPE), name syntax, attribute syntax and entity validity,
    /// *then* the sink (so an undeclared element is reported before a
    /// later mismatched end tag, and an attribute error before the sink
    /// sees the tag), then the element stack.
    ///
    /// With `fast_forward` on, a non-self-closing start tag for which
    /// [`TokenSink::start`] returned `true` gets its [`TokenSink::end`]
    /// at once and every byte up to the matching end tag is consumed by
    /// the boundary scanner alone — the same token boundaries and a
    /// depth counter, no interpretation, no buffering, across as many
    /// later feeds as it takes (a chunk boundary may fall anywhere, even
    /// inside `-->` or `]]>`: partial delimiter matches live in the scan
    /// state, not in the buffer). End-tag names, attribute syntax and
    /// entity validity inside the skipped region are **not** checked, so
    /// it must stay off when the pass doubles as validation.
    ///
    /// Between feeds the carry holds at most that one partial token.
    ///
    /// # Panics
    ///
    /// If the frozen cursor left complete or unexamined bytes in the
    /// carry: a [`Self::push_bytes`] must be read with
    /// [`Self::peek_token`] / [`Self::advance`] until `peek_token` says
    /// the rest is mid-token, before the next feed.
    pub fn feed<S: TokenSink>(
        &mut self,
        chunk: &[u8],
        sink: &mut S,
        fast_forward: bool,
    ) -> Result<Drained, S::Error> {
        if self.finished {
            return Err(self.error("feed after finish").into());
        }
        let mut done = Drained::default();
        let mut rest = chunk;
        if self.skip_depth > 0 {
            rest = &rest[self.skip(rest)..];
        }
        if self.pos < self.buf.len() {
            assert_eq!(
                self.scanner.examined,
                self.buf.len() - self.pos,
                "feed after push_bytes left unread tokens in the carry"
            );
            let Some((kind, end)) = self.scanner.resume(rest) else {
                self.carry(rest);
                return Ok(done);
            };
            self.carry(&rest[..end]);
            rest = &rest[end..];
            let carried = std::mem::take(&mut self.buf);
            let token = &carried[self.pos..];
            let interpreted = match std::str::from_utf8(token) {
                Ok(tok) => self.token(kind, tok, sink, fast_forward, &mut done),
                Err(e) => Err(self.invalid_utf8(kind, e).into()),
            };
            self.buf = carried;
            self.buf.clear();
            self.pos = 0;
            interpreted?;
            if self.skip_depth > 0 {
                rest = &rest[self.skip(rest)..];
            }
        }
        let used = self.run(rest, sink, fast_forward, &mut done)?;
        self.carry(&rest[used..]);
        Ok(done)
    }

    /// Makes one chunk available to the frozen cursor by copying it
    /// into the carry. The frozen cursor never fast-forwards, so nothing
    /// is skipped here.
    pub fn push_bytes(&mut self, chunk: &[u8]) -> Result<(), ParseError> {
        if self.finished {
            return Err(self.error("feed after finish"));
        }
        self.carry(chunk);
        Ok(())
    }

    /// The token loop over `bytes`, which start a token: interprets
    /// every token completed there and fast-forwards where the sink says
    /// so, and returns how many bytes that used. What it leaves is one
    /// incomplete token, or nothing while a fast-forward is active.
    fn run<S: TokenSink>(
        &mut self,
        bytes: &[u8],
        sink: &mut S,
        fast_forward: bool,
        done: &mut Drained,
    ) -> Result<usize, S::Error> {
        // UTF-8 is validated a window at a time, not per token: `window`
        // is the valid text of the bytes from `window_at` on, and a token
        // inside it is a plain slice of it. A token sticking out of the
        // window (it straddles the window's end, is larger than one, or
        // overlaps invalid bytes) starts a new window; if it does not
        // fit that either it is validated on its own — which is where
        // invalid input gets its error.
        let (mut window, mut window_at) = ("", 0);
        let mut used = 0;
        while self.skip_depth == 0 {
            let at = used;
            let Some((kind, len)) = self.scanner.token_end(&bytes[at..]) else {
                break;
            };
            // All markup tokens are delimited by ASCII, so a complete
            // token over valid UTF-8 input is itself valid UTF-8.
            let tok = match window.get(at - window_at..at - window_at + len) {
                Some(tok) => tok,
                None => {
                    (window, window_at) = (valid_window(&bytes[at..]), at);
                    match window.get(..len) {
                        Some(tok) => tok,
                        None => std::str::from_utf8(&bytes[at..at + len])
                            .map_err(|e| self.invalid_utf8(kind, e))?,
                    }
                }
            };
            self.token(kind, tok, sink, fast_forward, done)?;
            used += len;
            if self.skip_depth > 0 {
                // Scan from the cursor to the end tag closing the
                // element just pushed. The bytes at hand are scanned
                // right away; if the subtree extends past them the skip
                // stays active and the next feed continues it.
                used += self.skip(&bytes[used..]);
            }
        }
        Ok(used)
    }

    /// The error for a token that is not UTF-8.
    fn invalid_utf8(&self, kind: TokenKind, e: std::str::Utf8Error) -> ParseError {
        let what = if matches!(kind, TokenKind::Text { .. }) {
            "text"
        } else {
            "markup"
        };
        self.error(format!("invalid UTF-8 in {what}: {e}"))
    }

    /// Interprets one complete token at the cursor and moves the cursor
    /// past it; a start tag the sink lets go sets `skip_depth` to 1.
    #[inline]
    fn token<S: TokenSink>(
        &mut self,
        kind: TokenKind,
        tok: &str,
        sink: &mut S,
        fast_forward: bool,
        done: &mut Drained,
    ) -> Result<(), S::Error> {
        self.max_token = self.max_token.max(tok.len());
        let offset = self.consumed;
        let fail = |message: String| ParseError { offset, message };
        match kind {
            TokenKind::Text { amp } => {
                if !self.stack.is_empty() || self.keeps_outside_root(tok).map_err(fail)? {
                    // The scanner saw every byte of the run: no `&`,
                    // nothing to decode.
                    let decoded = if amp {
                        decode_entities(tok).map_err(fail)?
                    } else {
                        tok.into()
                    };
                    sink.text(&decoded)?;
                    done.events += 1;
                }
            }
            // `<!foo>` fails the name check like `<1bad>` does.
            TokenKind::StartTag { .. } | TokenKind::Misc => {
                if self.stack.is_empty() && self.seen_root {
                    return Err(fail("content after the root element".to_string()).into());
                }
                let (name, attrs_raw, self_closing) = split_start_tag(tok).map_err(fail)?;
                if !attrs_raw.is_empty() {
                    let mut seen = AttrNames::default();
                    for attr in RawAttrs::new(attrs_raw) {
                        let (aname, value) = attr.map_err(fail)?;
                        if !seen.insert(aname) {
                            return Err(fail(format!("duplicate attribute '{aname}'")).into());
                        }
                        validate_entities(value).map_err(fail)?;
                    }
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
                        self.skip_depth = 1;
                    }
                }
            }
            TokenKind::EndTag => {
                let name = self.closed_name(tok).map_err(fail)?;
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
            // Anything starting `<?xml` is the declaration: no event.
            TokenKind::Pi if tok.starts_with(XML_DECL) => {}
            TokenKind::Comment | TokenKind::Pi => done.events += 1,
            TokenKind::Doctype => {
                if self.seen_root {
                    let late = "DOCTYPE after the start of the root element";
                    return Err(fail(late.to_string()).into());
                }
                if self.seen_doctype {
                    return Err(fail("more than one DOCTYPE".to_string()).into());
                }
                let (name, internal_subset) = parse_doctype(tok).map_err(fail)?;
                sink.doctype(name, internal_subset)?;
                self.seen_doctype = true;
                done.events += 1;
            }
        }
        self.consumed += tok.len();
        Ok(())
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
            if !self.stack.is_empty() || self.keeps_outside_root(raw).map_err(fail)? {
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
    // stay — a second cursor over the same `Scanner` — until the next
    // benchmark re-baseline, and go then. Nothing under `crates/` or
    // `src/` may call them: use `feed`.
    // -----------------------------------------------------------------

    /// Looks at the next complete token without consuming it: `None`
    /// when the buffered bytes are mid-token (push more) or a subtree
    /// fast-forward is active. Benchmark ladder only; see [`Self::feed`].
    pub fn peek_token(&mut self) -> Result<Option<RawToken>, ParseError> {
        if self.skip_depth > 0 {
            return Ok(None);
        }
        let Some((kind, len)) = self.scanner.token_end(&self.buf[self.pos..]) else {
            return Ok(None);
        };
        self.max_token = self.max_token.max(len);
        let t = &self.buf[self.pos..self.pos + len];
        if let Err(e) = std::str::from_utf8(t) {
            let what = if matches!(kind, TokenKind::Text { .. }) {
                "text"
            } else {
                "markup"
            };
            return Err(self.error(format!("invalid UTF-8 in {what}: {e}")));
        }
        let raw = match kind {
            TokenKind::Text { .. } => RawKind::Text,
            TokenKind::Cdata => {
                if self.stack.is_empty() {
                    return Err(self.error("CDATA outside the root element"));
                }
                RawKind::Cdata
            }
            TokenKind::StartTag { .. } | TokenKind::Misc => {
                if self.stack.is_empty() && self.seen_root {
                    return Err(self.error("content after the root element"));
                }
                RawKind::StartTag {
                    self_closing: kind == TokenKind::StartTag { self_closing: true },
                }
            }
            TokenKind::EndTag => RawKind::EndTag,
            TokenKind::Comment => RawKind::Comment,
            TokenKind::Pi if t.starts_with(XML_DECL.as_bytes()) => RawKind::XmlDecl,
            TokenKind::Pi => RawKind::Pi,
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
                self.closed_name(text).map_err(fail)?;
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
    /// an owned event. Benchmark ladder only; see [`Self::feed`].
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

/// Runs a complete in-memory document through `sink`: the one-chunk
/// case of the push loop, for callers that hold the whole input and
/// render no pruned bytes (the tree parser, the retention sampler, the
/// CLI's DOCTYPE sniff). Only a trailing text run is copied.
pub fn drain_str<S: TokenSink>(
    input: &str,
    sink: &mut S,
    fast_forward: bool,
) -> Result<Drained, S::Error> {
    let mut tokenizer = PushTokenizer::new();
    let mut done = tokenizer.feed(input.as_bytes(), sink, fast_forward)?;
    done += tokenizer.finish_into(sink)?;
    Ok(done)
}

/// How the XML declaration starts — and, as far as this tokenizer cares,
/// any PI whose target starts with `xml`.
const XML_DECL: &str = "<?xml";

/// Bytes the token loop validates as UTF-8 in one go.
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

/// Extracts the name from a complete `</name>` token without allocating.
pub fn parse_end_tag_name(token: &str) -> Result<&str, String> {
    let inner = &token[2..token.len() - 1];
    let (name, rest) = read_name(inner)?;
    match trim_xml_space(rest) {
        "" => Ok(name),
        rest => Err(format!("unexpected '{rest}' in end tag")),
    }
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
        let trimmed = trim_xml_space(self.rest);
        if trimmed.is_empty() {
            return None;
        }
        let step = (|| {
            let (aname, after) = read_name(trimmed)?;
            // Only after a value can a name follow with no space before
            // it: the tag name's reader stops at no name character.
            if trimmed.len() == self.rest.len() {
                return Err(format!("missing whitespace before attribute '{aname}'"));
            }
            let after = trim_xml_space(after);
            let Some(after) = after.strip_prefix('=') else {
                return Err(format!("expected '=' after attribute name '{aname}'"));
            };
            let after = trim_xml_space(after);
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

/// A start tag's attribute names so far, for XML's "Unique Att Spec".
/// The first [`LINEAR_ATTRS`] are compared linearly, without allocating;
/// a tag with more moves them into a hash set, so a tag of 10⁵
/// attributes is still checked in linear time.
#[derive(Default)]
struct AttrNames<'a> {
    linear: [&'a str; LINEAR_ATTRS],
    len: usize,
    spilled: Option<HashSet<&'a str>>,
}

const LINEAR_ATTRS: usize = 8;

impl<'a> AttrNames<'a> {
    /// Adds `name`; `false` when the tag already named it.
    fn insert(&mut self, name: &'a str) -> bool {
        if let Some(set) = &mut self.spilled {
            return set.insert(name);
        }
        if self.linear[..self.len].contains(&name) {
            return false;
        }
        if self.len < LINEAR_ATTRS {
            self.linear[self.len] = name;
            self.len += 1;
        } else {
            self.spilled = Some(self.linear.iter().copied().chain([name]).collect());
        }
        true
    }
}

/// Parses a complete `<!DOCTYPE …>` token into its name and raw
/// internal subset (the text between `[` and `]`), if present.
fn parse_doctype(token: &str) -> Result<(&str, Option<&str>), String> {
    let body = trim_xml_space(&token["<!DOCTYPE".len()..token.len() - 1]);
    let (name, mut rest) = read_name(body)?;
    let mut internal = None;
    loop {
        rest = trim_xml_space(rest);
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

/// XML's `S` production: space, tab, CR, LF — not Unicode White_Space,
/// so U+00A0 is character data. The one whitespace test of every text
/// run: a run that is all `S` is no text node in a tree, and fused
/// validation does not step a content model on it.
pub fn is_xml_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\n')
}

/// `s` without its leading `S`.
fn trim_xml_space(s: &str) -> &str {
    let n = s.bytes().take_while(|&b| is_xml_space(b)).count();
    &s[n..]
}

/// [`read_name`]'s byte classes: an ASCII byte that may start a name (a
/// letter, `_`, `:`), one that may continue it (those, a digit, `-`,
/// `.`), and a non-ASCII byte, whose char the Unicode predicates decide.
const FIRST: u8 = 1;
const LATER: u8 = 2;
const WIDE: u8 = 4;
static NAME_BYTES: [u8; 256] = {
    let mut classes = [0; 256];
    let mut b = 0;
    while b < 256 {
        classes[b] = match b as u8 {
            b'A'..=b'Z' | b'a'..=b'z' | b'_' | b':' => FIRST | LATER,
            b'0'..=b'9' | b'-' | b'.' => LATER,
            0x80..=0xff => WIDE,
            _ => 0,
        };
        b += 1;
    }
    classes
};

/// Reads an XML name from the front of `s`, returning the name and the
/// remainder: a table load per ASCII byte, the Unicode predicates from
/// the first non-ASCII one on.
fn read_name(s: &str) -> Result<(&str, &str), String> {
    let class = |i: usize| s.as_bytes().get(i).map_or(0, |&b| NAME_BYTES[b as usize]);
    let mut end = 0;
    if class(0) & FIRST != 0 {
        end = 1;
        while class(end) & LATER != 0 {
            end += 1;
        }
    }
    if class(end) == WIDE {
        end = read_wide_name(s, end);
    }
    if end == 0 {
        return Err("expected a name".to_string());
    }
    Ok((&s[..end], &s[end..]))
}

/// Where the name in `s` ends, reading char by char from `from`, the
/// first non-ASCII byte.
fn read_wide_name(s: &str, from: usize) -> usize {
    let mut end = from;
    for c in s[from..].chars() {
        let ok = if end == 0 {
            c.is_alphabetic() || c == '_' || c == ':'
        } else {
            c.is_alphanumeric() || matches!(c, '_' | ':' | '-' | '.')
        };
        if !ok {
            break;
        }
        end += c.len_utf8();
    }
    end
}
