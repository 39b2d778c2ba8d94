//! Streaming π-projection: the per-event machine of a single bufferless
//! pass over SAX events.
//!
//! This is the deployment mode the paper's §6 measures: pruning time is
//! linear in the document size, memory is bounded by the element-nesting
//! depth (one name per open element, one skip counter), and the pass can
//! be fused with parsing/validation. Because a DTD is a *local* tree
//! grammar the decision per start-tag is one tag lookup (tag → name, a
//! binary search among the grammar's tags of that length, hashing
//! nothing) plus one indexed load (the verdict); a discarded element
//! just bumps a depth counter until its end tag. The pass that drives
//! the machine under the token loop, and checks its memory bound, is
//! `xproj-engine`'s.

use crate::projector::{Projector, ProjectorTable, Verdict};
use std::borrow::Borrow;
use xproj_dtd::{Dtd, NameId};
use xproj_xmltree::entities::ParseError;
use xproj_xmltree::KeptEvents;

/// Stable machine-readable error codes for pruning failures.
///
/// These are the contract between every surface that reports a pruning
/// error — the CLI's `--stats` JSON lines and the HTTP server's `4xx`
/// bodies both serialize [`ErrorCode::as_str`] instead of a `Display`
/// string, so clients can switch on the code while the human-readable
/// message stays free to change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The input is not well-formed XML (or failed fused validation).
    MalformedXml,
    /// An element is not declared by the DTD.
    UndeclaredElement,
    /// The workload query failed to parse.
    BadQuery,
    /// Reading the source or writing the sink failed.
    Io,
}

impl ErrorCode {
    /// The stable wire spelling of this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedXml => "malformed-xml",
            ErrorCode::UndeclaredElement => "undeclared-element",
            ErrorCode::BadQuery => "bad-query",
            ErrorCode::Io => "io",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Escapes `s` into `out` as JSON string contents: the one escaper of
/// every JSON line and body the workspace writes (error objects around
/// an [`ErrorCode`], match frames, analysis reports). UTF-8 passes
/// through verbatim; only quotes, backslashes and control bytes are
/// escaped.
pub fn json_escape_into(s: &str, out: &mut String) {
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        // The escaped byte is ASCII, so a char boundary follows it.
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// [`json_escape_into`] a new `String`.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(s, &mut out);
    out
}

/// Errors from streaming pruning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamPruneError {
    /// The input is not well-formed XML.
    Xml(String),
    /// An element is not declared by the DTD (the document cannot be
    /// valid, so the projector gives no guarantee).
    UndeclaredElement(String),
}

impl StreamPruneError {
    /// The stable machine-readable code for this error.
    pub fn code(&self) -> ErrorCode {
        match self {
            StreamPruneError::Xml(_) => ErrorCode::MalformedXml,
            StreamPruneError::UndeclaredElement(_) => ErrorCode::UndeclaredElement,
        }
    }
}

impl std::fmt::Display for StreamPruneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamPruneError::Xml(m) => write!(f, "streaming prune: {m}"),
            StreamPruneError::UndeclaredElement(t) => {
                write!(f, "streaming prune: element '{t}' not declared in DTD")
            }
        }
    }
}

impl std::error::Error for StreamPruneError {}

impl From<ParseError> for StreamPruneError {
    fn from(e: ParseError) -> Self {
        StreamPruneError::Xml(e.to_string())
    }
}

/// Per-event pruning counters of a [`PruneMachine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneCounters {
    /// Elements written.
    pub elements_kept: usize,
    /// Elements discarded (with their whole subtrees).
    pub elements_pruned: usize,
    /// Text nodes written.
    pub text_kept: usize,
    /// Text nodes discarded.
    pub text_pruned: usize,
    /// Maximum element nesting depth seen (the memory bound).
    pub max_depth: usize,
}

/// The source-generic core of streaming π-projection.
///
/// This is the per-event keep/discard state machine, decoupled from
/// where events come from (the engine's pass sits it under the one
/// token loop) and where kept events go (any [`KeptEvents`] the caller
/// hands in: a `String` it may drain to an `io::Write` between events,
/// or a tree).
/// Resident state is O(depth): one [`NameId`] per open kept element
/// plus a skip counter for pruned subtrees.
///
/// `D` is how the machine holds its grammar: `&Dtd` for callers with a
/// borrowed grammar on the stack (a `ChunkedPruner` over `&Dtd`), `Arc<Dtd>`
/// for owned, movable machines (the engine's sessions) — the latter is
/// what lets long-lived pruners avoid `unsafe` lifetime extension.
pub struct PruneMachine<D: Borrow<Dtd>> {
    dtd: D,
    /// Dense per-name verdicts: one indexed load per start tag / text
    /// node instead of bitset probes and text-children iteration.
    table: ProjectorTable,
    /// Names of open *kept* elements (for text decisions).
    stack: Vec<NameId>,
    /// When > 0 we are inside a pruned subtree.
    skip_depth: usize,
    /// The innermost kept element has no kept child yet (lets a
    /// rendering emit `<x/>` for kept elements that end up empty,
    /// matching the tree serializer).
    open_pending: bool,
    saw_root: bool,
    counters: PruneCounters,
}

/// What [`PruneMachine::start_element_raw`] decided about the element,
/// so a driver that owns the byte source can fast-forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartOutcome {
    /// The element is kept (and went to `out`).
    Kept,
    /// The element is pruned; its subtree events must still be fed (they
    /// are discarded by the skip counter).
    Pruned,
    /// The element is pruned **and** no name reachable from it is in π:
    /// the driver *may* skip the raw bytes of the subtree without
    /// tokenizing them, then call [`PruneMachine::end_element`] once to
    /// rebalance. Feeding the subtree's events normally is equally
    /// correct (just slower).
    PrunedSubtree,
}

impl<D: Borrow<Dtd>> PruneMachine<D> {
    /// Creates a machine for one document pass, precomputing the dense
    /// verdict table for this (DTD, π) pair.
    pub fn new(dtd: D, projector: &Projector) -> Self {
        let table = ProjectorTable::new(dtd.borrow(), projector);
        Self::with_table(dtd, table)
    }

    /// Creates a machine from an already-built verdict table (lets a
    /// cache share one table across many document passes).
    pub fn with_table(dtd: D, table: ProjectorTable) -> Self {
        PruneMachine {
            dtd,
            table,
            stack: Vec::with_capacity(32),
            skip_depth: 0,
            open_pending: false,
            saw_root: false,
            counters: PruneCounters::default(),
        }
    }

    /// The grammar the machine decides against.
    pub fn dtd(&self) -> &Dtd {
        self.dtd.borrow()
    }

    /// Handles a start tag held as raw bytes: `attrs_raw` is the
    /// unparsed attribute region from
    /// `xproj_xmltree::push::split_start_tag` (what
    /// [`TokenSink::start`](xproj_xmltree::push::TokenSink::start)
    /// delivers); a kept element goes to `out`.
    /// The returned [`StartOutcome`] tells a byte-owning driver whether
    /// the subtree is eligible for raw fast-forward.
    ///
    /// Attributes are only parsed — and their values only decoded, and
    /// even then only when they contain an entity — for *kept*
    /// elements, so pruned start tags cost one tag lookup, one verdict
    /// load and zero allocation. The caller is expected to have
    /// validated attribute syntax and entities already (the token loop
    /// does, to report precise parse errors); syntax errors surfacing
    /// here still fail cleanly.
    pub fn start_element_raw(
        &mut self,
        name: &str,
        attrs_raw: &str,
        out: &mut impl KeptEvents,
    ) -> Result<StartOutcome, StreamPruneError> {
        self.saw_root = true;
        if self.skip_depth > 0 {
            self.skip_depth += 1;
            return Ok(StartOutcome::Pruned);
        }
        let nm = self
            .dtd
            .borrow()
            .name_of_tag_str(name)
            .ok_or_else(|| StreamPruneError::UndeclaredElement(name.to_string()))?;
        match self.table.verdict(nm) {
            Verdict::Keep => {
                self.stack.push(nm);
                self.counters.max_depth = self.counters.max_depth.max(self.stack.len());
                self.counters.elements_kept += 1;
                out.start(name, attrs_raw, self.open_pending)?;
                self.open_pending = true;
                Ok(StartOutcome::Kept)
            }
            Verdict::PruneDescend => {
                self.counters.elements_pruned += 1;
                self.skip_depth = 1;
                Ok(StartOutcome::Pruned)
            }
            Verdict::PruneSubtree => {
                self.counters.elements_pruned += 1;
                self.skip_depth = 1;
                Ok(StartOutcome::PrunedSubtree)
            }
        }
    }

    /// Handles an end tag.
    pub fn end_element(&mut self, name: &str, out: &mut impl KeptEvents) {
        if self.skip_depth > 0 {
            self.skip_depth -= 1;
            return;
        }
        self.stack.pop();
        out.end(name, self.open_pending);
        self.open_pending = false;
    }

    /// Handles a text node (already entity-decoded).
    pub fn text(&mut self, t: &str, out: &mut impl KeptEvents) {
        if self.skip_depth > 0 {
            self.counters.text_pruned += 1;
            return;
        }
        let Some(&parent) = self.stack.last() else {
            return;
        };
        // Keep text iff some String-name of the parent's content
        // model is in π (unique under the splitting heuristic) —
        // precomputed into one indexed load.
        let keep = self.table.keep_text_under(parent);
        if keep {
            out.text(t, self.open_pending);
            self.open_pending = false;
            self.counters.text_kept += 1;
        } else {
            self.counters.text_pruned += 1;
        }
    }

    /// Ends the pass, checking that a root element was seen.
    pub fn finish(self) -> Result<PruneCounters, StreamPruneError> {
        if !self.saw_root {
            return Err(StreamPruneError::Xml(
                "document has no root element".to_string(),
            ));
        }
        Ok(self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_testkit::{parse_json, seeded, SplitMix64};

    #[test]
    fn json_escape_pins_every_ascii_byte() {
        for b in 0u8..0x80 {
            let want = match b {
                b'"' => "\\\"".to_string(),
                b'\\' => "\\\\".to_string(),
                b'\n' => "\\n".to_string(),
                b'\r' => "\\r".to_string(),
                b'\t' => "\\t".to_string(),
                0..=0x1f => format!("\\u{b:04x}"),
                _ => char::from(b).to_string(),
            };
            assert_eq!(
                json_escape(&char::from(b).to_string()),
                want,
                "byte {b:#04x}"
            );
        }
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}é\u{7f}"), "\\u0001é\u{7f}");
    }

    #[test]
    fn json_escape_round_trips_through_a_json_parser() {
        let alphabet: Vec<char> = (0u8..0x80)
            .map(char::from)
            .chain("éß€😀\u{a0}".chars())
            .collect();
        let round_trip = |seed| {
            let mut rng = SplitMix64::new(seed);
            let s: String = (0..rng.below(40)).map(|_| *rng.pick(&alphabet)).collect();
            let line = format!("{{\"s\":\"{}\"}}", json_escape(&s));
            let parsed = parse_json(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(
                parsed.get("s").and_then(|v| v.as_str()),
                Some(s.as_str()),
                "{line}"
            );
        };
        seeded(
            "json_escape_round_trips_through_a_json_parser",
            500,
            round_trip,
        );
    }
}
