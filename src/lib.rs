//! **xml-projection** — type-based XML projection for XPath and XQuery.
//!
//! A from-scratch Rust implementation of *"Type-Based XML Projection"*
//! (Benzaken, Castagna, Colazzo, Nguyên — VLDB 2006). Given a DTD and a
//! workload of XPath/XQuery queries, a static analysis infers a **type
//! projector**: the set of DTD names whose nodes can possibly matter to
//! the workload. Pruning a document down to those names is a single
//! bufferless pass, and running the *original* queries on the pruned
//! document provably yields the same answers.
//!
//! ```
//! use xml_projection::Projection;
//!
//! let dtd = xml_projection::dtd::parse_dtd(
//!     "<!ELEMENT bib (book*)>\
//!      <!ELEMENT book (title, author*, price?)>\
//!      <!ELEMENT title (#PCDATA)>\
//!      <!ELEMENT author (#PCDATA)>\
//!      <!ELEMENT price (#PCDATA)>",
//!     "bib",
//! ).unwrap();
//!
//! // One projector for a whole workload (XPath and XQuery mixed):
//! let projection = Projection::for_queries(&dtd, [
//!     "/bib/book/title",
//!     "for $b in /bib/book where $b/price > 10 return $b/title",
//! ]).unwrap();
//!
//! let doc = "<bib><book><title>T</title><author>A</author>\
//!            <price>12</price></book></bib>";
//! let (pruned, stats) = projection.prune_str(doc).unwrap();
//! // authors are irrelevant to the workload:
//! assert_eq!(pruned, "<bib><book><title>T</title><price>12</price></book></bib>");
//! assert!(stats.retention() < 1.0);
//! ```
//!
//! The crates re-exported here:
//!
//! * [`xmltree`] — arena XML documents, parser, the one push token loop;
//! * [`dtd`] — DTDs as local tree grammars, validation, Def. 4.3 props;
//! * [`xpath`] — XPath 1.0 parser/evaluator, XPathℓ, approximations;
//! * [`core`] — the type system (Fig. 1), projector inference (Fig. 2),
//!   in-memory and streaming pruning;
//! * [`xquery`] — the FLWR core, its evaluator, path extraction (Fig. 3);
//! * [`xmark`] — the XMark/XPathMark benchmark substrate;
//! * [`engine`] — the serving pipeline: chunked push-mode pruning over
//!   `io::Read`/`io::Write` (optionally validating), the owned
//!   per-document `QueryMachine`, metrics;
//! * [`server`] — `xmlpruned`, a zero-dependency HTTP/1.1 daemon that
//!   serves streaming pruning with live metrics and graceful shutdown;
//! * [`qc`] — the query compiler: `(DTD, query)` → immutable artifact
//!   (projector tables + evaluator plan) with an LRU cache;
//! * [`xupdate`] — a minimal XQuery-Update-style language (insert /
//!   delete / replace) with a reference tree-update executor;
//! * [`analyzer`] — static analysis of (DTD, workload) pairs: projector
//!   provenance, Def. 4.3 witness diagnostics, retention estimation,
//!   lints, and query–update independence checking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use xproj_analyzer as analyzer;
pub use xproj_core as core;
pub use xproj_dtd as dtd;
pub use xproj_engine as engine;
pub use xproj_qc as qc;
pub use xproj_server as server;
pub use xproj_xmark as xmark;
pub use xproj_xmltree as xmltree;
pub use xproj_xpath as xpath;
pub use xproj_xquery as xquery;
pub use xproj_xupdate as xupdate;

use xproj_core::{Projector, StaticAnalyzer};
use xproj_dtd::{Dtd, Interpretation};
use xproj_engine::{ChunkedPruner, EngineStats};
use xproj_xmltree::Document;

/// Errors from the high-level facade.
#[derive(Debug, Clone)]
pub enum ProjectionError {
    /// A workload query failed to parse.
    Query(String),
    /// Pruning failed (malformed input or undeclared elements).
    Prune(String),
}

impl std::fmt::Display for ProjectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProjectionError::Query(m) => write!(f, "workload error: {m}"),
            ProjectionError::Prune(m) => write!(f, "pruning error: {m}"),
        }
    }
}

impl std::error::Error for ProjectionError {}

/// A compiled projection: a DTD together with the inferred projector for
/// a query workload. This is the "one analysis, many documents" API — the
/// analysis runs once, pruning streams any number of documents.
pub struct Projection<'d> {
    dtd: &'d Dtd,
    projector: Projector,
}

impl<'d> Projection<'d> {
    /// Analyses a workload (any mix of XPath location paths and XQuery
    /// FLWR queries — everything is parsed as XQuery, of which XPath is a
    /// sub-language here) and returns the union projector (§5).
    pub fn for_queries<I, S>(dtd: &'d Dtd, queries: I) -> Result<Self, ProjectionError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut sa = StaticAnalyzer::new(dtd);
        let mut projector = Projector::empty(dtd);
        for q in queries {
            let p = xproj_xquery::project_xquery_str(&mut sa, q.as_ref())
                .map_err(|e| ProjectionError::Query(format!("{}: {e}", q.as_ref())))?;
            projector = projector.union(&p);
        }
        Ok(Projection { dtd, projector })
    }

    /// Wraps an explicitly-constructed projector.
    pub fn from_projector(dtd: &'d Dtd, projector: Projector) -> Self {
        Projection { dtd, projector }
    }

    /// The inferred projector.
    pub fn projector(&self) -> &Projector {
        &self.projector
    }

    /// The DTD.
    pub fn dtd(&self) -> &'d Dtd {
        self.dtd
    }

    /// Streaming prune of a serialized document (one pass, O(depth)
    /// memory — §6's deployment mode): the pruned document and the pass's
    /// stats. Every byte is tokenized, so malformed markup fails the call
    /// even inside a pruned subtree.
    pub fn prune_str(&self, xml: &str) -> Result<(String, EngineStats), ProjectionError> {
        self.one_pass(xml, false)
    }

    /// Streaming prune fused with DTD validation (§6's "prune while
    /// validating" option): same single pass, rejects invalid input.
    pub fn prune_validate_str(&self, xml: &str) -> Result<(String, EngineStats), ProjectionError> {
        self.one_pass(xml, true)
    }

    /// The engine's pass over `xml` as one feed, fast-forward off.
    fn one_pass(
        &self,
        xml: &str,
        validate: bool,
    ) -> Result<(String, EngineStats), ProjectionError> {
        let mut out = Vec::with_capacity(xml.len() / 2);
        let mut pruner = ChunkedPruner::new(self.dtd, &self.projector, &mut out);
        pruner.set_validate(validate);
        let stats = pruner
            .run_one_feed(xml)
            .map_err(|e| ProjectionError::Prune(e.to_string()))?;
        Ok((String::from_utf8(out).expect("kept bytes are UTF-8"), stats))
    }

    /// In-memory prune of a validated document.
    pub fn prune_document(&self, doc: &Document, interp: &Interpretation) -> Document {
        xproj_core::prune_document(doc, self.dtd, interp, &self.projector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_workload() {
        let dtd = xproj_dtd::parse_dtd(
            "<!ELEMENT a (b, c)> <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)>",
            "a",
        )
        .unwrap();
        let p = Projection::for_queries(&dtd, ["/a/b"]).unwrap();
        let (pruned, _) = p.prune_str("<a><b>x</b><c>y</c></a>").unwrap();
        assert_eq!(pruned, "<a><b>x</b></a>");
    }

    /// Every byte is tokenized: malformed markup inside a subtree the
    /// projector prunes whole (`c`) fails the call, as it would anywhere.
    #[test]
    fn facade_checks_markup_inside_pruned_subtrees() {
        let dtd = xproj_dtd::parse_dtd(
            "<!ELEMENT a (b, c)> <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)>",
            "a",
        )
        .unwrap();
        let p = Projection::for_queries(&dtd, ["/a/b"]).unwrap();
        for doc in ["<a><b>x</b><c>y</b></a>", "<a><b>x</b><c>&bogus;</c></a>"] {
            assert!(
                matches!(p.prune_str(doc), Err(ProjectionError::Prune(_))),
                "{doc}"
            );
            assert!(p.prune_validate_str(doc).is_err(), "{doc}");
        }
    }

    #[test]
    fn bad_query_reported() {
        let dtd = xproj_dtd::parse_dtd("<!ELEMENT a EMPTY>", "a").unwrap();
        assert!(matches!(
            Projection::for_queries(&dtd, ["///"]),
            Err(ProjectionError::Query(_))
        ));
    }
}
