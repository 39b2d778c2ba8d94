//! Chunked push-mode pruning: `io::Read` → `io::Write` in O(depth +
//! max-token) memory, and the one pass every engine driver runs.
//!
//! This is the deployment mode the paper's §6 (and the journal version's
//! streaming emphasis) actually measures: π-pruning as a single fused
//! pass that never holds the document in memory. Bytes are pushed into a
//! [`PushTokenizer`] in arbitrary chunks; its one token loop runs every
//! completed event through a sink — here the [`PruneMachine`] (as a
//! [`MachineSink`]), whose kept bytes are flushed to the writer after
//! every feed; in a [`crate::QueryMachine`] that or the path NFA. The
//! only engine-resident state is the tokenizer's incomplete-token tail,
//! the sink's open-element stack, and the bytes the sink has rendered
//! but not yet handed on — every pass's `finish` *asserts* the resulting
//! [`residency_bound`].

use crate::metrics::EngineStats;
use std::borrow::Borrow;
use std::io::{Read, Write};
use xproj_core::{
    MachineSink, Projector, PruneCounters, PruneMachine, StreamPruneError, Validator,
};
use xproj_dtd::Dtd;
use xproj_xmltree::entities::ParseError;
use xproj_xmltree::push::{Drained, PushTokenizer, TokenSink};
use xproj_xmltree::KeptEvents;

/// Default read size for [`ChunkedPruner::run`].
pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;

/// Errors from the chunked engine.
#[derive(Debug)]
pub enum EngineError {
    /// The input is not well-formed XML.
    Xml(ParseError),
    /// The pruning machine rejected the document (undeclared element, no
    /// root, …).
    Prune(StreamPruneError),
    /// Reading the source or writing the sink failed.
    Io(std::io::Error),
    /// The reference evaluator rejected the query against this document
    /// (a [`crate::QueryMachine`] on a fallback plan only; e.g. a type
    /// error in a comparison).
    Eval(String),
}

impl EngineError {
    /// The stable machine-readable code for this error (see
    /// [`xproj_core::ErrorCode`]): serialized in CLI `--stats` JSON
    /// lines and in the HTTP server's `4xx` bodies.
    pub fn code(&self) -> xproj_core::ErrorCode {
        match self {
            EngineError::Xml(_) => xproj_core::ErrorCode::MalformedXml,
            EngineError::Prune(e) => e.code(),
            EngineError::Io(_) => xproj_core::ErrorCode::Io,
            EngineError::Eval(_) => xproj_core::ErrorCode::BadQuery,
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Xml(e) => write!(f, "chunked prune: {e}"),
            EngineError::Prune(e) => write!(f, "chunked prune: {e}"),
            EngineError::Io(e) => write!(f, "chunked prune: I/O: {e}"),
            EngineError::Eval(e) => write!(f, "query evaluation: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Xml(e)
    }
}

impl From<StreamPruneError> for EngineError {
    fn from(e: StreamPruneError) -> Self {
        EngineError::Prune(e)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

/// The engine's memory bound on what a pass holds resident, from its
/// largest token, largest chunk and deepest nesting — never the document
/// size. Tokenizer bytes are one partial token plus one chunk; staged
/// bytes, what one feed's events render to: a chunk plus a token, times
/// the ≤ 6× escaping expansion; the element stack, a few words a level.
pub fn residency_bound(max_token_bytes: usize, max_chunk: usize, max_depth: usize) -> usize {
    8 * (max_token_bytes + max_chunk) + 64 * (1 + max_depth)
}

/// A sink under the [`Pass`], which also reports the bytes it rendered
/// and has not handed on: the most it held at once during the drain
/// just run (a running maximum over earlier drains is as good).
pub(crate) trait Stage: TokenSink<Error = EngineError> {
    fn staged(&self) -> usize;
}

/// The one driver of the token loop, owned by every per-document pass
/// ([`ChunkedPruner`], [`crate::QueryMachine`]), which differ only in the
/// [`Stage`] each call hands it: it pushes the bytes, drains them through
/// the sink, books the [`EngineStats`] and, when they are taken, asserts
/// the [`residency_bound`].
pub(crate) struct Pass {
    tokenizer: PushTokenizer,
    /// Pruned-subtree fast-forward: the tokenizer raw-scans past every
    /// subtree the sink says nothing under can matter.
    pub(crate) fast_forward: bool,
    stats: EngineStats,
    /// Largest chunk fed: the caller's term of the bound.
    max_chunk: usize,
    peak_staged: usize,
}

impl Pass {
    pub(crate) fn new() -> Pass {
        Pass {
            tokenizer: PushTokenizer::new(),
            fast_forward: true,
            stats: EngineStats {
                documents: 1,
                ..Default::default()
            },
            max_chunk: 0,
            peak_staged: 0,
        }
    }

    /// Feeds one chunk: every token it completes runs through `sink`.
    pub(crate) fn feed(&mut self, chunk: &[u8], sink: &mut impl Stage) -> Result<(), EngineError> {
        self.stats.bytes_in += chunk.len() as u64;
        self.max_chunk = self.max_chunk.max(chunk.len());
        self.tokenizer.push_bytes(chunk)?;
        let done = self.tokenizer.drain(sink, self.fast_forward)?;
        self.book(done, sink);
        Ok(())
    }

    /// Ends the input: a trailing text run goes through `sink`, and the
    /// tokenizer checks that every element was closed.
    pub(crate) fn finish(&mut self, sink: &mut impl Stage) -> Result<(), EngineError> {
        let done = self.tokenizer.finish_into(sink)?;
        self.book(done, sink);
        Ok(())
    }

    fn book(&mut self, done: Drained, sink: &impl Stage) {
        self.stats.events += done.events;
        self.stats.subtrees_fast_forwarded += done.fast_forwarded;
        self.peak_staged = self.peak_staged.max(sink.staged());
        self.stats.peak_resident_bytes = self
            .stats
            .peak_resident_bytes
            .max(self.tokenizer.peak_buffered() + self.peak_staged);
    }

    /// Tokenizer bytes resident right now.
    pub(crate) fn buffered(&self) -> usize {
        self.tokenizer.buffered()
    }

    /// The finished pass's stats, with the sink's `counters`, after
    /// **asserting the memory bound**: a violation means some path
    /// buffered the document, the bug this engine exists to rule out.
    pub(crate) fn stats(&mut self, counters: PruneCounters) -> EngineStats {
        let stats = EngineStats {
            counters,
            max_token_bytes: self.tokenizer.max_token_bytes(),
            ..std::mem::take(&mut self.stats)
        };
        let bound = residency_bound(stats.max_token_bytes, self.max_chunk, counters.max_depth);
        assert!(
            stats.peak_resident_bytes <= bound,
            "engine memory bound violated: resident {} > bound {bound} (max token {}, max chunk {}, depth {})",
            stats.peak_resident_bytes,
            stats.max_token_bytes,
            self.max_chunk,
            counters.max_depth,
        );
        stats
    }
}

/// The pruning sink stages the kept bytes it rendered and has not
/// handed on — none when it builds a tree, which is answer-side.
impl<D: Borrow<Dtd>, K: KeptEvents> Stage for MachineSink<'_, D, EngineError, K> {
    fn staged(&self) -> usize {
        self.rendered()
    }
}

/// An incremental push-mode pruner writing kept bytes to an `io::Write`
/// sink.
///
/// ```
/// use xproj_engine::ChunkedPruner;
/// use xproj_core::StaticAnalyzer;
///
/// let dtd = xproj_dtd::parse_dtd(
///     "<!ELEMENT a (b, c)> <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)>",
///     "a",
/// ).unwrap();
/// let mut sa = StaticAnalyzer::new(&dtd);
/// let projector = sa.project_query("/a/b").unwrap();
///
/// let mut out = Vec::new();
/// let mut p = ChunkedPruner::new(&dtd, &projector, &mut out);
/// // Chunk boundaries may fall anywhere — here, mid-tag:
/// p.feed(b"<a><b>keep</b><c>dr").unwrap();
/// p.feed(b"op</c></a>").unwrap();
/// p.finish().unwrap();
/// assert_eq!(out, b"<a><b>keep</b></a>");
/// ```
pub struct ChunkedPruner<D: Borrow<Dtd>, W: Write> {
    pass: Pass,
    machine: PruneMachine<D>,
    /// Fused validation (§6): the open-element automaton states, carried
    /// from feed to feed. `None` when the pass only prunes.
    validator: Option<Validator>,
    sink: W,
    /// Kept bytes of the current feed, written to the sink afterwards.
    kept: String,
    bytes_out: u64,
}

impl<D: Borrow<Dtd>, W: Write> ChunkedPruner<D, W> {
    /// Creates a pruner for one document, writing kept bytes to `sink`.
    /// Pruned-subtree fast-forward is **on**; see
    /// [`Self::set_fast_forward`] for the tradeoff.
    pub fn new(dtd: D, projector: &Projector, sink: W) -> Self {
        ChunkedPruner {
            pass: Pass::new(),
            machine: PruneMachine::new(dtd, projector),
            validator: None,
            sink,
            kept: String::new(),
            bytes_out: 0,
        }
    }

    /// Enables or disables pruned-subtree fast-forward (default on).
    ///
    /// With it on, subtrees whose names can reach nothing in π are
    /// consumed by a raw delimiter scan: end-tag names, attribute syntax
    /// and entity validity inside them go unchecked, and the
    /// `text_pruned` counter undercounts (never-tokenized text is never
    /// counted). Kept output is identical either way. Turn it off when
    /// the pass doubles as a well-formedness check of the whole input.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.pass.fast_forward = on;
    }

    /// Makes the pass validate the document against the DTD while
    /// pruning it (§6's "prune while validating"; default off). Call
    /// before the first feed. A validating pass sees every event —
    /// pruned subtrees must be valid too — so fast-forward does not
    /// engage, and `max_depth` reports the document's nesting depth, not
    /// just the kept spine's. Costs one content-model state set per open
    /// element: still O(depth).
    pub fn set_validate(&mut self, on: bool) {
        self.validator = on.then(Validator::default);
    }

    /// Feeds one chunk of the serialized document: every token it
    /// completes runs through the machine, then the kept bytes go to the
    /// sink.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), EngineError> {
        let validator = self.validator.as_mut();
        self.pass.feed(chunk, &mut MachineSink::new(&mut self.machine, &mut self.kept, validator))?;
        self.flush()
    }

    /// Feeds all of `input` in `chunk_size`-byte reads, then finishes.
    pub fn run<R: Read>(mut self, mut input: R, chunk_size: usize) -> Result<EngineStats, EngineError> {
        let mut buf = vec![0; chunk_size.max(1)];
        loop {
            let n = input.read(&mut buf)?;
            if n == 0 {
                return self.finish();
            }
            self.feed(&buf[..n])?;
        }
    }

    /// Hands the feed's kept bytes to the sink.
    fn flush(&mut self) -> Result<(), EngineError> {
        self.sink.write_all(self.kept.as_bytes())?;
        self.bytes_out += self.kept.len() as u64;
        self.kept.clear();
        Ok(())
    }

    /// Ends the document: flushes the sink, checks well-formedness (and
    /// validity), and **asserts the memory bound** — engine-resident
    /// buffering never exceeded [`residency_bound`] of the largest single
    /// token, the largest chunk and the depth.
    pub fn finish(mut self) -> Result<EngineStats, EngineError> {
        // Only a trailing text run can surface here; subtree starts
        // always complete before EOF.
        let validator = self.validator.as_mut();
        self.pass.finish(&mut MachineSink::new(&mut self.machine, &mut self.kept, validator))?;
        self.flush()?;
        let validated_depth = self.validator.map(|v| v.finish()).transpose()?;
        let mut counters = self.machine.finish()?;
        if let Some(depth) = validated_depth {
            counters.max_depth = depth;
        }
        self.sink.flush()?;
        Ok(EngineStats {
            bytes_out: self.bytes_out,
            ..self.pass.stats(counters)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_core::{prune_str, StaticAnalyzer};
    use xproj_dtd::parse_dtd;

    const DTD: &str = "\
        <!ELEMENT bib (book*)>\
        <!ELEMENT book (title, author*, price?)>\
        <!ATTLIST book id CDATA #IMPLIED>\
        <!ELEMENT title (#PCDATA)>\
        <!ELEMENT author (#PCDATA)>\
        <!ELEMENT price (#PCDATA)>";

    const DOC: &str = "<bib>\
        <book id=\"b1\"><title>T1</title><author>A</author><price>10</price></book>\
        <book id=\"b2\"><title>T2</title></book>\
        </bib>";

    fn chunked(doc: &str, dtd: &xproj_dtd::Dtd, p: &Projector, size: usize) -> (Vec<u8>, EngineStats) {
        let mut out = Vec::new();
        let stats = ChunkedPruner::new(dtd, p, &mut out)
            .run(doc.as_bytes(), size)
            .unwrap();
        (out, stats)
    }

    #[test]
    fn chunked_matches_prune_str_at_every_chunk_size() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        for q in ["/bib/book/title", "/bib/book[price]/author", "//price"] {
            let p = sa.project_query(q).unwrap();
            let whole = prune_str(DOC, &dtd, &p).unwrap();
            for size in [1, 2, 3, 7, 16, 64, 4096] {
                let (out, stats) = chunked(DOC, &dtd, &p, size);
                assert_eq!(
                    String::from_utf8(out).unwrap(),
                    whole.output,
                    "query {q}, chunk size {size}"
                );
                assert_eq!(stats.counters.elements_kept, whole.elements_kept);
                assert_eq!(stats.counters.text_kept, whole.text_kept);
                assert_eq!(stats.counters.max_depth, whole.max_depth);
                assert_eq!(stats.bytes_in, DOC.len() as u64);
                assert_eq!(stats.bytes_out, whole.output.len() as u64);
            }
        }
    }

    #[test]
    fn resident_memory_stays_token_bounded() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        // A long document streamed in tiny chunks: peak residency must
        // track token size, not document size.
        let body: String = (0..500)
            .map(|i| format!("<book id=\"b{i}\"><title>Title {i}</title></book>"))
            .collect();
        let doc = format!("<bib>{body}</bib>");
        let (_, stats) = chunked(&doc, &dtd, &p, 7);
        assert!(
            stats.peak_resident_bytes < 1024,
            "peak resident {} should be token-scale, document is {} bytes",
            stats.peak_resident_bytes,
            doc.len()
        );
    }

    #[test]
    fn fast_forward_engages_at_high_retention_and_matches() {
        // A //keyword-style workload: retention well above 25% with many
        // small pruned subtrees. Fast-forward must still engage (this is
        // the regression test for the inversion where entering it at
        // high retention cost throughput) and stay byte-identical to
        // the fully tokenized run.
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/title").unwrap();
        let run = |ff: bool| {
            let mut out = Vec::new();
            let mut pruner = ChunkedPruner::new(&dtd, &p, &mut out);
            pruner.set_fast_forward(ff);
            for chunk in DOC.as_bytes().chunks(16) {
                pruner.feed(chunk).unwrap();
            }
            let stats = pruner.finish().unwrap();
            (String::from_utf8(out).unwrap(), stats)
        };
        let (fast_out, fast_stats) = run(true);
        let (plain_out, plain_stats) = run(false);
        assert!(
            fast_stats.retention() >= 0.25,
            "retention {:.2} should be well above the FF-entry threshold",
            fast_stats.retention()
        );
        assert_eq!(fast_out, plain_out);
        assert!(fast_stats.subtrees_fast_forwarded > 0);
        assert_eq!(plain_stats.subtrees_fast_forwarded, 0);
        assert_eq!(
            fast_stats.counters.elements_kept,
            plain_stats.counters.elements_kept
        );
        assert_eq!(fast_stats.bytes_out, plain_stats.bytes_out);
    }

    #[test]
    fn undeclared_element_reported() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        let mut out = Vec::new();
        let err = ChunkedPruner::new(&dtd, &p, &mut out)
            .run("<bib><zzz/></bib>".as_bytes(), 4)
            .unwrap_err();
        assert!(matches!(err, EngineError::Prune(StreamPruneError::UndeclaredElement(_))));
    }

    #[test]
    fn malformed_input_reported() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        let mut out = Vec::new();
        assert!(matches!(
            ChunkedPruner::new(&dtd, &p, &mut out).run("<bib><book>".as_bytes(), 3),
            Err(EngineError::Xml(_))
        ));
    }

    #[test]
    fn empty_document_is_an_error() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        let mut out = Vec::new();
        assert!(matches!(
            ChunkedPruner::new(&dtd, &p, &mut out).run("".as_bytes(), 8),
            Err(EngineError::Prune(_))
        ));
    }

    #[test]
    fn sink_io_errors_surface() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        let mut pruner = ChunkedPruner::new(&dtd, &p, Failing);
        let err = pruner.feed(DOC.as_bytes()).unwrap_err();
        assert!(matches!(err, EngineError::Io(_)));
    }
}
