//! Streaming π-projection: a single bufferless pass over SAX events.
//!
//! This is the deployment mode the paper's §6 measures: pruning time is
//! linear in the document size, memory is bounded by the element-nesting
//! depth (one name per open element, one skip counter), and the pass can
//! be fused with parsing/validation. Because a DTD is a *local* tree
//! grammar the decision per start-tag is one tag lookup (tag → name, a
//! binary search among the grammar's tags of that length, hashing
//! nothing) plus one indexed load (the verdict); a discarded element
//! just bumps a depth counter until its end tag.

use crate::projector::{Projector, ProjectorTable, Verdict};
use std::borrow::Borrow;
use std::marker::PhantomData;
use xproj_dtd::{Dtd, LivePositions, NameId};
use xproj_xmltree::entities::ParseError;
use xproj_xmltree::push::{drain_str, is_xml_space, TokenSink};
use xproj_xmltree::KeptEvents;

/// Outcome of a streaming prune.
#[derive(Debug, Clone)]
pub struct StreamPruneResult {
    /// The pruned serialized document.
    pub output: String,
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

impl StreamPruneResult {
    /// Fraction of the input retained, in bytes, against `input_len`.
    pub fn retention(&self, input_len: usize) -> f64 {
        if input_len == 0 {
            return 1.0;
        }
        self.output.len() as f64 / input_len as f64
    }
}

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

/// Per-event pruning counters, shared by every driver of a
/// [`PruneMachine`] (in-memory strings, chunked engines).
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
/// where events come from (as a [`MachineSink`] it sits under the one
/// token loop, whole-string or chunked) and where kept events go (any
/// [`KeptEvents`] the caller hands in: a `String` it may drain to an
/// `io::Write` between events, or a tree).
/// Resident state is O(depth): one [`NameId`] per open kept element
/// plus a skip counter for pruned subtrees.
///
/// `D` is how the machine holds its grammar: `&Dtd` for callers with a
/// borrowed grammar on the stack (the free functions here), `Arc<Dtd>`
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

    /// Handles a start tag held as raw bytes: `attrs_raw` is the
    /// unparsed attribute region from
    /// `xproj_xmltree::push::split_start_tag` (what
    /// [`TokenSink::start`] delivers); a kept element goes to `out`.
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

/// A [`PruneMachine`] under the token loop: each event runs the machine,
/// kept events go to `out`. `E` is the driver's error type — the
/// whole-string functions here use [`StreamPruneError`], the chunked
/// engine its own — so one sink serves every driver.
///
/// With a [`Validator`] attached the pass also validates (§6: "prune the
/// document while validating it"): every event first advances the
/// content-model automaton of the open element — pruned elements
/// included, they must still be valid — and only then reaches the
/// machine, and no subtree is ever reported skippable.
pub struct MachineSink<'a, D: Borrow<Dtd>, E, K> {
    machine: &'a mut PruneMachine<D>,
    out: &'a mut K,
    /// What `out` had rendered when the sink was made.
    from: usize,
    validator: Option<&'a mut Validator>,
    error: PhantomData<E>,
}

impl<'a, D: Borrow<Dtd>, E, K: KeptEvents> MachineSink<'a, D, E, K> {
    /// Sits `machine` under a drain, sending kept events to `out`;
    /// `validator`, if any, checks every event against the machine's
    /// grammar first.
    pub fn new(
        machine: &'a mut PruneMachine<D>,
        out: &'a mut K,
        validator: Option<&'a mut Validator>,
    ) -> Self {
        MachineSink {
            machine,
            from: out.rendered(),
            out,
            validator,
            error: PhantomData,
        }
    }

    /// Kept bytes this sink has rendered into `out` (none into a tree).
    pub fn rendered(&self) -> usize {
        self.out.rendered() - self.from
    }
}

impl<D: Borrow<Dtd>, E: From<ParseError> + From<StreamPruneError>, K: KeptEvents> TokenSink
    for MachineSink<'_, D, E, K>
{
    type Error = E;

    fn start(&mut self, name: &str, attrs_raw: &str) -> Result<bool, E> {
        if let Some(v) = &mut self.validator {
            v.start(self.machine.dtd.borrow(), name)?;
        }
        let outcome = self.machine.start_element_raw(name, attrs_raw, self.out)?;
        // A validating pass must see every event.
        Ok(self.validator.is_none() && outcome == StartOutcome::PrunedSubtree)
    }

    fn end(&mut self, name: &str) -> Result<(), E> {
        if let Some(v) = &mut self.validator {
            v.end(self.machine.dtd.borrow(), name)?;
        }
        self.machine.end_element(name, self.out);
        Ok(())
    }

    fn text(&mut self, decoded: &str) -> Result<(), E> {
        if let Some(v) = &mut self.validator {
            v.text(self.machine.dtd.borrow(), decoded)?;
        }
        self.machine.text(decoded, self.out);
        Ok(())
    }
}

/// The state of a fused validating pass: one `(name, live positions)`
/// pair per open element, kept or pruned — O(depth). It lives outside
/// the per-drain [`MachineSink`] so a chunked driver can carry it from
/// one feed to the next.
#[derive(Debug, Default)]
pub struct Validator {
    open: Vec<(NameId, LivePositions)>,
    max_depth: usize,
}

fn invalid(m: String) -> StreamPruneError {
    StreamPruneError::Xml(format!("validation: {m}"))
}

impl Validator {
    fn start(&mut self, dtd: &Dtd, name: &str) -> Result<(), StreamPruneError> {
        let nm = dtd
            .name_of_tag_str(name)
            .ok_or_else(|| StreamPruneError::UndeclaredElement(name.to_string()))?;
        // The root must match; children advance the parent's automaton.
        match self.open.last_mut() {
            None => {
                if nm != dtd.root() {
                    return Err(invalid(format!(
                        "root element '{name}' does not match DTD root '{}'",
                        dtd.label(dtd.root())
                    )));
                }
            }
            Some((parent, states)) => {
                let auto = dtd
                    .automaton(*parent)
                    .expect("open elements have content models");
                if !auto.step(states, nm) {
                    return Err(invalid(format!(
                        "element '{name}' not allowed here inside '{}'",
                        dtd.label(*parent)
                    )));
                }
            }
        }
        let states = dtd
            .automaton(nm)
            .expect("element names have content models")
            .start();
        self.open.push((nm, states));
        self.max_depth = self.max_depth.max(self.open.len());
        Ok(())
    }

    fn end(&mut self, dtd: &Dtd, name: &str) -> Result<(), StreamPruneError> {
        let (nm, states) = self.open.pop().expect("the token loop guarantees balance");
        let auto = dtd.automaton(nm).expect("content model");
        if !auto.accepts(&states) {
            return Err(invalid(format!(
                "content of '{name}' does not match its model"
            )));
        }
        Ok(())
    }

    /// Steps the open element's model on a text run. A run that is all
    /// XML `S` is no text node (the tree parser drops it too), so it is
    /// valid anywhere.
    fn text(&mut self, dtd: &Dtd, decoded: &str) -> Result<(), StreamPruneError> {
        let Some((parent, states)) = self.open.last_mut() else {
            return Ok(());
        };
        if decoded.bytes().all(is_xml_space) {
            return Ok(());
        }
        let Some(tn) = dtd.text_children_of(*parent).iter().next() else {
            return Err(invalid(format!(
                "text not allowed inside '{}'",
                dtd.label(*parent)
            )));
        };
        let auto = dtd.automaton(*parent).expect("content model");
        if !auto.step(states, tn) {
            return Err(invalid(format!(
                "text not allowed at this position inside '{}'",
                dtd.label(*parent)
            )));
        }
        Ok(())
    }

    /// Ends the pass: the document's nesting depth (pruned elements
    /// included), or the error for a document with no root element.
    pub fn finish(&self) -> Result<usize, StreamPruneError> {
        if self.max_depth == 0 {
            return Err(invalid("document has no root element".to_string()));
        }
        Ok(self.max_depth)
    }
}

/// What a whole-string pass does besides pruning.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Tokenize everything.
    Plain,
    /// Raw-scan past subtrees that can reach nothing in π.
    FastForward,
    /// Validate against the DTD (every event: fast-forward stays off).
    Validate,
}

/// The whole-string driver: a complete input is the one-chunk case of
/// the push loop the chunked engine drives.
fn prune_whole(
    input: &str,
    dtd: &Dtd,
    projector: &Projector,
    pass: Pass,
) -> Result<StreamPruneResult, StreamPruneError> {
    let mut output = String::with_capacity(input.len() / 2);
    let mut machine = PruneMachine::new(dtd, projector);
    let mut validator = (pass == Pass::Validate).then(Validator::default);
    drain_str(
        input,
        &mut MachineSink::<_, StreamPruneError, _>::new(&mut machine, &mut output, validator.as_mut()),
        pass == Pass::FastForward,
    )?;
    // Validation tracks pruned elements too, so its depth is the
    // document's, not just the kept spine's.
    let validated_depth = validator.map(|v| v.finish()).transpose()?;
    let c = machine.finish()?;
    Ok(StreamPruneResult {
        output,
        elements_kept: c.elements_kept,
        elements_pruned: c.elements_pruned,
        text_kept: c.text_kept,
        text_pruned: c.text_pruned,
        max_depth: validated_depth.unwrap_or(c.max_depth),
    })
}

/// Prunes a serialized document in one pass.
///
/// Only the open-element name stack is retained (O(depth) memory); kept
/// events are appended to the output as they arrive. The chunked
/// `io::Read` → `io::Write` driver of the same loop lives in
/// `xproj-engine`.
pub fn prune_str(
    input: &str,
    dtd: &Dtd,
    projector: &Projector,
) -> Result<StreamPruneResult, StreamPruneError> {
    prune_whole(input, dtd, projector, Pass::Plain)
}

/// [`prune_str`] with the pruned-subtree **fast-forward** engaged: when
/// the machine reports [`StartOutcome::PrunedSubtree`] (the element's
/// name can reach no π name under ⇒E*), the tokenizer skips the
/// subtree's raw bytes with a depth counter instead of tokenizing it.
///
/// Output is byte-identical to [`prune_str`] on well-formed input, and
/// the counters agree except `text_pruned`, which undercounts (text that
/// is never tokenized is never counted). Inside skipped subtrees,
/// end-tag names and entity validity are not checked — this path trades
/// dead-subtree diagnostics for throughput. It never validates; when
/// fused validation is requested use [`prune_validate_str`], which must
/// see every event.
pub fn prune_str_fast(
    input: &str,
    dtd: &Dtd,
    projector: &Projector,
) -> Result<StreamPruneResult, StreamPruneError> {
    prune_whole(input, dtd, projector, Pass::FastForward)
}

/// Prunes and *validates* in the same single pass (§6: "an optional
/// validation option … makes it possible to prune the document while
/// validating it. Programs that use an external validator can therefore
/// prune their document without any overhead").
///
/// Memory stays O(depth): one `(name, live positions)` pair per open
/// element — including pruned ones, which must still be validated.
pub fn prune_validate_str(
    input: &str,
    dtd: &Dtd,
    projector: &Projector,
) -> Result<StreamPruneResult, StreamPruneError> {
    prune_whole(input, dtd, projector, Pass::Validate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::StaticAnalyzer;
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

    #[test]
    fn stream_matches_in_memory_prune() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        for q in ["/bib/book/title", "/bib/book[price]/author", "//price"] {
            let p = sa.project_query(q).unwrap();
            let streamed = prune_str(DOC, &dtd, &p).unwrap();
            // reparse + in-memory prune must agree
            let doc = xproj_xmltree::parse_with_interner(DOC, dtd.tags.clone()).unwrap();
            let interp = xproj_dtd::validate(&doc, &dtd).unwrap();
            let in_mem = crate::prune::prune_document(&doc, &dtd, &interp, &p);
            assert_eq!(streamed.output, in_mem.to_xml(), "query {q}");
        }
    }

    #[test]
    fn stats_reflect_pruning() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/title").unwrap();
        let r = prune_str(DOC, &dtd, &p).unwrap();
        assert_eq!(r.elements_kept, 5); // bib, 2×book, 2×title
        assert_eq!(r.elements_pruned, 2); // author, price
        assert_eq!(r.text_kept, 2); // the two titles
        assert!(r.retention(DOC.len()) < 1.0);
        assert_eq!(r.max_depth, 3);
    }

    #[test]
    fn whitespace_outside_kept_regions() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/title").unwrap();
        let r = prune_str(
            "<bib>\n  <book><title>T</title><author>A</author></book>\n</bib>",
            &dtd,
            &p,
        )
        .unwrap();
        // bib allows no text: whitespace dropped
        assert_eq!(r.output, "<bib><book><title>T</title></book></bib>");
    }

    #[test]
    fn undeclared_element_is_an_error() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        let err = prune_str("<bib><pamphlet/></bib>", &dtd, &p).unwrap_err();
        assert!(matches!(err, StreamPruneError::UndeclaredElement(_)));
    }

    #[test]
    fn malformed_xml_is_an_error() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        assert!(matches!(
            prune_str("<bib><book>", &dtd, &p),
            Err(StreamPruneError::Xml(_))
        ));
    }

    #[test]
    fn empty_projector_streams_to_empty() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::empty(&dtd);
        let r = prune_str(DOC, &dtd, &p).unwrap();
        assert_eq!(r.output, "");
        assert_eq!(r.elements_kept, 0);
    }

    #[test]
    fn doctype_and_comments_are_dropped() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        let r = prune_str(
            "<!DOCTYPE bib SYSTEM \"b.dtd\"><!-- hi --><bib/>",
            &dtd,
            &p,
        )
        .unwrap();
        assert_eq!(r.output, "<bib/>");
    }

    #[test]
    fn fast_path_matches_reference_on_every_query() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        for q in ["/bib/book/title", "/bib/book[price]/author", "//price", "/bib"] {
            let p = sa.project_query(q).unwrap();
            let slow = prune_str(DOC, &dtd, &p).unwrap();
            let fast = prune_str_fast(DOC, &dtd, &p).unwrap();
            assert_eq!(fast.output, slow.output, "query {q}");
            assert_eq!(fast.elements_kept, slow.elements_kept, "query {q}");
            assert_eq!(fast.elements_pruned, slow.elements_pruned, "query {q}");
            assert_eq!(fast.text_kept, slow.text_kept, "query {q}");
            assert_eq!(fast.max_depth, slow.max_depth, "query {q}");
        }
    }

    /// For `/bib/book/title`, the `author` subtrees are
    /// fast-forward-eligible (no name reachable from `author` is in π);
    /// the raw scanner must step over markup full of fake end tags.
    #[test]
    fn fast_path_skips_subtrees_with_tricky_markup() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/title").unwrap();
        let doc = "<bib><book id=\"b1\"><title>T</title>\
                   <author a=\"a &gt; b\"><!-- </author> -->\
                   <price><![CDATA[</author>]]></price>A&amp;B</author>\
                   <author/></book></bib>";
        let slow = prune_str(doc, &dtd, &p).unwrap();
        let fast = prune_str_fast(doc, &dtd, &p).unwrap();
        assert_eq!(fast.output, slow.output);
        assert_eq!(fast.output, "<bib><book id=\"b1\"><title>T</title></book></bib>");
        assert_eq!(fast.elements_pruned, slow.elements_pruned);
    }

    #[test]
    fn fast_path_reports_truncation_inside_skipped_subtree() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/title").unwrap();
        assert!(matches!(
            prune_str_fast("<bib><book><title>T</title><author>unfinished", &dtd, &p),
            Err(StreamPruneError::Xml(_))
        ));
    }
}

#[cfg(test)]
mod validate_tests {
    use super::*;
    use crate::infer::StaticAnalyzer;
    use xproj_dtd::parse_dtd;

    const DTD: &str = "\
        <!ELEMENT bib (book*)>\
        <!ELEMENT book (title, author*, price?)>\
        <!ELEMENT title (#PCDATA)>\
        <!ELEMENT author (#PCDATA)>\
        <!ELEMENT price (#PCDATA)>";

    #[test]
    fn valid_document_prunes_identically() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/title").unwrap();
        let doc = "<bib><book><title>T</title><author>A</author></book></bib>";
        let plain = prune_str(doc, &dtd, &p).unwrap();
        let validated = prune_validate_str(doc, &dtd, &p).unwrap();
        assert_eq!(plain.output, validated.output);
        assert_eq!(plain.elements_kept, validated.elements_kept);
    }

    #[test]
    fn invalid_content_detected_even_inside_pruned_subtrees() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/title").unwrap();
        // author before title: invalid, although author is pruned anyway
        let doc = "<bib><book><author>A</author><title>T</title></book></bib>";
        assert!(prune_str(doc, &dtd, &p).is_ok()); // plain pruner ignores it
        let err = prune_validate_str(doc, &dtd, &p).unwrap_err();
        assert!(matches!(err, StreamPruneError::Xml(m) if m.contains("not allowed")));
    }

    #[test]
    fn missing_required_child_detected() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        let err = prune_validate_str("<bib><book><author>A</author></book></bib>", &dtd, &p)
            .unwrap_err();
        assert!(matches!(err, StreamPruneError::Xml(_)));
    }

    #[test]
    fn wrong_root_detected() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        assert!(prune_validate_str("<book/>", &dtd, &p).is_err());
    }

    #[test]
    fn stray_text_detected() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        assert!(prune_validate_str("<bib>oops</bib>", &dtd, &p).is_err());
        // U+00A0 is character data, not XML whitespace.
        assert!(prune_validate_str("<bib>\u{A0}</bib>", &dtd, &p).is_err());
    }

    #[test]
    fn indentation_is_not_text() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        let doc = "<bib>\n<book>\r\n\t<title>T</title> </book>\n</bib>";
        assert!(prune_validate_str(doc, &dtd, &p).is_ok());
    }

    #[test]
    fn agrees_with_tree_validation_on_xmark() {
        let dtd = xproj_xmark_stub::auction_dtd();
        let doc = xproj_xmark_stub::generate(&dtd, 0.05);
        let xml = doc.to_xml();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("//keyword").unwrap();
        let r = prune_validate_str(&xml, &dtd, &p).unwrap();
        let plain = prune_str(&xml, &dtd, &p).unwrap();
        assert_eq!(r.output, plain.output);
    }

    /// Tiny local stand-ins to avoid a dev-dependency cycle with the
    /// xmark crate: a miniature auction-like recursive DTD and generator.
    mod xproj_xmark_stub {
        use xproj_dtd::generate::{generate as gen, GenConfig};
        use xproj_dtd::{parse_dtd, Dtd};
        use xproj_xmltree::Document;

        pub fn auction_dtd() -> Dtd {
            parse_dtd(
                "<!ELEMENT site (item*)>\
                 <!ELEMENT item (name, description)>\
                 <!ELEMENT name (#PCDATA)>\
                 <!ELEMENT description (#PCDATA | keyword | bold)*>\
                 <!ELEMENT keyword (#PCDATA)>\
                 <!ELEMENT bold (#PCDATA | keyword)*>",
                "site",
            )
            .unwrap()
        }

        pub fn generate(dtd: &Dtd, _scale: f64) -> Document {
            gen(dtd, 7, &GenConfig::default())
        }
    }
}
