//! Shared measurement machinery for the experiment binaries.

use std::time::{Duration, Instant};
use xproj_core::{Projector, StaticAnalyzer};
use xproj_dtd::Dtd;
use xproj_engine::{ChunkedPruner, EngineStats};
use xproj_xmark::{generate_auction, BenchQuery, QueryKind, XMarkConfig};
use xproj_xmltree::Document;
use xproj_xpath::ast::Expr;
use xproj_xpath::LocationPath;
use xproj_xquery::XQuery;

/// A compiled benchmark query.
pub enum AnyQuery {
    /// XPath location path.
    XPath(LocationPath),
    /// XQuery FLWR query.
    XQuery(XQuery),
}

impl AnyQuery {
    /// Parses a [`BenchQuery`].
    pub fn compile(q: &BenchQuery) -> AnyQuery {
        match q.kind {
            QueryKind::XPath => match xproj_xpath::parse_xpath(q.text) {
                Ok(Expr::Path(p)) => AnyQuery::XPath(p),
                other => panic!("{}: not a path ({other:?})", q.id),
            },
            QueryKind::XQuery => {
                AnyQuery::XQuery(xproj_xquery::parse_xquery(q.text).expect("query parses"))
            }
        }
    }

    /// Infers the (materialised / extraction-based) projector.
    pub fn projector(&self, sa: &mut StaticAnalyzer<'_>, text: &str) -> Projector {
        match self {
            AnyQuery::XPath(_) => sa.project_query(text).expect("analysable"),
            AnyQuery::XQuery(q) => xproj_xquery::project_xquery(sa, q),
        }
    }

    /// Evaluates against a document, returning a result fingerprint
    /// (count of nodes / bytes of serialisation) so work cannot be
    /// optimised away.
    pub fn run(&self, doc: &Document) -> usize {
        match self {
            AnyQuery::XPath(p) => xproj_xpath::evaluate(doc, p).expect("evaluates").len(),
            AnyQuery::XQuery(q) => xproj_xquery::evaluate_query(doc, q)
                .expect("evaluates")
                .len(),
        }
    }
}

/// Result of processing (parse + evaluate) a serialized document.
pub struct Processed {
    /// Wall-clock time to parse the document into a DOM.
    pub parse_time: Duration,
    /// Wall-clock time to evaluate the query.
    pub eval_time: Duration,
    /// Peak additional bytes allocated across parse + eval.
    pub peak_bytes: usize,
    /// Result fingerprint.
    pub fingerprint: usize,
}

impl Processed {
    /// parse + eval.
    pub fn total_time(&self) -> Duration {
        self.parse_time + self.eval_time
    }
}

/// Parses `xml` and evaluates `q` on it, tracking time and peak memory —
/// the paper's "processing" of a query by a main-memory engine.
pub fn process(xml: &str, q: &AnyQuery) -> Processed {
    let ((parse_time, eval_time, fingerprint), peak_bytes) = crate::ALLOCATOR.measure(|| {
        let t0 = Instant::now();
        let doc = xproj_xmltree::parse(xml).expect("well-formed");
        let parse_time = t0.elapsed();
        let t1 = Instant::now();
        let fingerprint = q.run(&doc);
        (parse_time, t1.elapsed(), fingerprint)
    });
    Processed {
        parse_time,
        eval_time,
        peak_bytes,
        fingerprint,
    }
}

/// The full benchmark workload (XMark then XPathMark).
pub fn workload() -> Vec<BenchQuery> {
    let mut v = xproj_xmark::xmark_queries();
    v.extend(xproj_xmark::xpathmark_queries());
    v
}

/// Generates (and serialises) the auction document at `scale`.
pub fn document_at(dtd: &Dtd, scale: f64) -> String {
    generate_auction(dtd, &XMarkConfig { scale, seed: 42 }).to_xml()
}

/// Prunes `xml` with `projector` in one streaming pass with fast-forward
/// off (every byte is tokenized): the output and the pass's stats.
pub fn pruned_document(xml: &str, dtd: &Dtd, projector: &Projector) -> (String, EngineStats) {
    let mut out = Vec::with_capacity(xml.len() / 2);
    let stats = ChunkedPruner::new(dtd, projector, &mut out)
        .run_one_feed(xml)
        .expect("valid input");
    (String::from_utf8(out).expect("kept bytes are UTF-8"), stats)
}

/// Environment knobs shared by the binaries.
pub struct Knobs {
    /// Scale of the reference document (paper: a 56 MB document;
    /// default here: `XPROJ_SCALE` or 4.0 ≈ 5 MB).
    pub ref_scale: f64,
    /// Memory budget modelling the paper's 512 MB machine
    /// (`XPROJ_BUDGET_MB`, default 48 — small enough that the ceiling
    /// binds within the default ladder, so the pruned-vs-unpruned
    /// contrast of Table 1 is visible).
    pub budget_bytes: usize,
    /// Ladder of scales probed for "largest processable document"
    /// (`XPROJ_MAX_SCALE` caps it, default 32).
    pub ladder: Vec<f64>,
}

impl Knobs {
    /// Reads knobs from the environment.
    pub fn from_env() -> Knobs {
        let ref_scale = std::env::var("XPROJ_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(4.0);
        let budget_mb: usize = std::env::var("XPROJ_BUDGET_MB")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(48);
        let max_scale: f64 = std::env::var("XPROJ_MAX_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(32.0);
        let mut ladder = vec![];
        let mut s = 1.0;
        while s <= max_scale {
            ladder.push(s);
            s *= 2.0;
        }
        Knobs {
            ref_scale,
            budget_bytes: budget_mb << 20,
            ladder,
        }
    }
}

/// Pretty MB.
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}
