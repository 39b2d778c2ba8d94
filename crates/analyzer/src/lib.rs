//! Static analysis over (DTD, query) pairs — the "explain" layer on top
//! of the projector inference.
//!
//! Where `xproj-core` answers *what* the projector is, this crate
//! answers *why* and *how much it buys*:
//!
//! * [`provenance`] — provenance-tracked inference: every name admitted
//!   into π carries the query step, Figure 2 rule, and `⇒E` chain that
//!   pulled it in;
//! * the Def. 4.3 witness diagnostics of `xproj_dtd::diagnostics`,
//!   combined with a per-query strong-specification check into an
//!   [`OptimalityClaim`]: whether the Thm. 4.7 optimality guarantee
//!   applies to this (DTD, workload) pair, and if not, the concrete
//!   witnesses that break it;
//! * [`retention`] — a DTD-driven expected-size model predicting the
//!   retention ratio before any document is pruned, optionally
//!   calibrated against a sample document;
//! * [`lints`] — undeclared query tags, recursive blowup, weak pruning;
//! * [`report`] — text and JSON-lines rendering shared by the CLI and
//!   the HTTP server.
//!
//! Everything here is advisory: the analyzer never changes what the
//! projector pipeline computes — [`provenance::trace_workload`] runs the
//! *same* extraction and inference as `project_xquery`, with tracing on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod independence;
pub mod lints;
pub mod provenance;
pub mod report;
pub mod retention;

pub use independence::{
    check_independence, update_footprint, IndependenceReport, IndependenceVerdict,
    IndependenceWitness, UpdateFootprint,
};
pub use lints::{run_lints, Lint, LintLevel};
pub use provenance::{trace_workload, ExtractedPath, Provenance, ProvenanceEntry};
pub use report::{
    render_independence_json, render_independence_text, render_json_lines, render_text,
};
pub use retention::{
    calibrate, estimate, estimate_calibrated, NameWeight, RetentionEstimate, SampleStats,
};

use xproj_core::stream::ErrorCode;
use xproj_dtd::{diagnostics, Dtd, DtdDiagnostics};
use xproj_xpath::ast::{Axis, Expr, LocationPath, NodeTest};
use xproj_xpath::check_strongly_specified;
use xproj_xquery::{parse_xquery, XQuery};

/// Analyzer failure. Maps onto the workspace's stable wire codes via
/// [`AnalyzerError::code`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzerError {
    /// A workload query failed to parse.
    BadQuery(String),
    /// An update failed to parse (independence analysis only).
    BadUpdate(String),
}

impl AnalyzerError {
    /// The stable error code for this failure.
    pub fn code(&self) -> ErrorCode {
        match self {
            // Updates share the query wire code: both are "the
            // workload side of the request failed to parse".
            AnalyzerError::BadQuery(_) | AnalyzerError::BadUpdate(_) => ErrorCode::BadQuery,
        }
    }
}

impl std::fmt::Display for AnalyzerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzerError::BadQuery(m) => write!(f, "bad query: {m}"),
            AnalyzerError::BadUpdate(m) => write!(f, "bad update: {m}"),
        }
    }
}

impl std::error::Error for AnalyzerError {}

/// Options for [`analyze`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisOptions<'a> {
    /// Sample document for calibrating the retention model.
    pub sample: Option<&'a str>,
}

/// Whether Thm. 4.7 (optimality of the inferred projector) applies to a
/// (DTD, workload) pair, and the concrete reasons when it does not.
#[derive(Debug, Clone)]
pub struct OptimalityClaim {
    /// Conjunction of the two sides.
    pub applies: bool,
    /// The DTD side: Def. 4.3 holds (no witness found).
    pub dtd_ok: bool,
    /// The query side: every workload query is a strongly-specified
    /// downward XPath path.
    pub query_ok: bool,
    /// One line per violated precondition, with witnesses.
    pub reasons: Vec<String>,
}

/// The full analysis of a (DTD, workload) pair.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The DTD root's label.
    pub root: String,
    /// Number of root-reachable names.
    pub reachable: usize,
    /// The workload, verbatim.
    pub queries: Vec<String>,
    /// Traced inference result (paths, projector, per-name provenance).
    pub provenance: Provenance,
    /// Def. 4.3 witnesses.
    pub diagnostics: DtdDiagnostics,
    /// The optimality verdict.
    pub optimality: OptimalityClaim,
    /// The retention prediction.
    pub retention: RetentionEstimate,
    /// Lint findings.
    pub lints: Vec<Lint>,
}

/// Runs the whole static analysis for a workload against a DTD.
pub fn analyze(
    dtd: &Dtd,
    queries: &[String],
    opts: &AnalysisOptions<'_>,
) -> Result<Analysis, AnalyzerError> {
    let provenance = trace_workload(dtd, queries)?;
    let diags = diagnostics(dtd);
    let optimality = optimality_claim(dtd, &diags, queries);
    let retention = match opts.sample {
        Some(sample) => estimate_calibrated(dtd, &provenance.projector, sample),
        None => estimate(dtd, &provenance.projector),
    };
    let lints = run_lints(dtd, &provenance.projector, &provenance.paths, &retention);
    Ok(Analysis {
        root: dtd.label(dtd.root()).to_string(),
        reachable: dtd.reachable_from_root().len(),
        queries: queries.to_vec(),
        provenance,
        diagnostics: diags,
        optimality,
        retention,
        lints,
    })
}

/// Combines the Def. 4.3 witnesses with a per-query strong-specification
/// check into the Thm. 4.7 verdict.
pub fn optimality_claim(dtd: &Dtd, diags: &DtdDiagnostics, queries: &[String]) -> OptimalityClaim {
    let mut reasons = Vec::new();
    let dtd_ok = diags.completeness_ready();
    if let Some(w) = &diags.star_guard {
        reasons.push(format!(
            "DTD is not *-guarded: content model of '{}' — {} — has the unguarded union {}",
            dtd.label(w.name),
            w.content,
            w.factor
        ));
    }
    if let Some(w) = &diags.recursion {
        reasons.push(format!(
            "DTD is recursive: {}",
            xproj_dtd::chains::chain_labels(dtd, &w.cycle)
        ));
    }
    if let Some(w) = &diags.parent_ambiguity {
        reasons.push(format!(
            "DTD is parent-ambiguous: '{}' occurs both directly under '{}' and deeper via {}",
            dtd.label(w.child),
            dtd.label(w.direct),
            xproj_dtd::chains::chain_labels(dtd, &w.chain)
        ));
    }
    let mut query_ok = true;
    for (qi, q) in queries.iter().enumerate() {
        let verdict = match parse_xquery(q) {
            Ok(parsed) => strongly_specified(&parsed),
            Err(e) => Err(format!("does not parse ({e})")),
        };
        if let Err(why) = verdict {
            query_ok = false;
            reasons.push(format!(
                "query #{} is not a strongly-specified downward path: {why}",
                qi + 1
            ));
        }
    }
    OptimalityClaim {
        applies: dtd_ok && query_ok,
        dtd_ok,
        query_ok,
        reasons,
    }
}

/// The Thm. 4.7 query-side precondition: Def. 4.6
/// ([`check_strongly_specified`]) on a single absolute location path,
/// plus restrictions beyond the paper that keep the claim conservative:
/// downward axes, tag and `text()` tests (`node()` only on `self`), and
/// each predicate a single relative path obeying the same. `Err` carries
/// the first violation found.
fn strongly_specified(q: &XQuery) -> Result<(), String> {
    let XQuery::Expr(Expr::Path(lp)) = q else {
        return Err("it is a FLWR/expression query, not a location path".to_string());
    };
    if !lp.absolute {
        return Err("the path is relative".to_string());
    }
    check_strongly_specified(lp).map_err(|v| v.to_string())?;
    downward_steps(lp)
}

fn downward_steps(lp: &LocationPath) -> Result<(), String> {
    for step in &lp.steps {
        match step.axis {
            Axis::Child | Axis::Descendant | Axis::DescendantOrSelf | Axis::SelfAxis => {}
            other => return Err(format!("it uses the {} axis", other.name())),
        }
        match (&step.test, step.axis) {
            (NodeTest::Tag(_) | NodeTest::Text, _) => {}
            (NodeTest::Node, Axis::SelfAxis) => {}
            (NodeTest::Node, axis) => {
                return Err(format!("it uses node() on the {} axis", axis.name()))
            }
            (NodeTest::Element, _) => return Err("it uses the element wildcard '*'".to_string()),
        }
        for pred in &step.predicates {
            match pred {
                Expr::Path(p) if !p.absolute => downward_steps(p)?,
                Expr::Path(_) => return Err("a predicate contains an absolute path".to_string()),
                other => return Err(format!("a predicate is not a single path ({other})")),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_core::{prune_document, Projector};
    use xproj_dtd::generate::{generate, GenConfig};
    use xproj_dtd::{interpret, parse_dtd};
    use xproj_xquery::evaluate_query;

    fn books() -> Dtd {
        parse_dtd(
            "<!ELEMENT bib (book*)>\
             <!ELEMENT book (title, author+)>\
             <!ELEMENT title (#PCDATA)>\
             <!ELEMENT author (#PCDATA)>",
            "bib",
        )
        .unwrap()
    }

    #[test]
    fn optimality_applies_on_clean_pair() {
        let d = books();
        let a = analyze(
            &d,
            &["/bib/book/title".to_string()],
            &AnalysisOptions::default(),
        )
        .unwrap();
        assert!(a.optimality.applies, "{:?}", a.optimality.reasons);
        assert!(a.optimality.reasons.is_empty());
        assert!(a.diagnostics.completeness_ready());
    }

    #[test]
    fn failing_dtd_yields_concrete_witness() {
        let d = parse_dtd(
            "<!ELEMENT c (a | b)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>",
            "c",
        )
        .unwrap();
        let a = analyze(&d, &["/c/a".to_string()], &AnalysisOptions::default()).unwrap();
        assert!(!a.optimality.applies);
        assert!(!a.optimality.dtd_ok);
        assert!(a.optimality.query_ok);
        assert!(
            a.optimality.reasons.iter().any(|r| r.contains("(a | b)")),
            "{:?}",
            a.optimality.reasons
        );
    }

    #[test]
    fn flwr_query_never_claims_optimality() {
        let d = books();
        let a = analyze(
            &d,
            &["for $b in /bib/book return $b/title".to_string()],
            &AnalysisOptions::default(),
        )
        .unwrap();
        assert!(!a.optimality.applies);
        assert!(a.optimality.dtd_ok);
        assert!(!a.optimality.query_ok);
    }

    #[test]
    fn upward_axis_breaks_strong_specification() {
        let d = books();
        let a = analyze(
            &d,
            &["/bib/book/title/parent::node()".to_string()],
            &AnalysisOptions::default(),
        )
        .unwrap();
        assert!(!a.optimality.query_ok);
        assert!(
            a.optimality.reasons.iter().any(|r| r.contains("parent")),
            "{:?}",
            a.optimality.reasons
        );
    }

    #[test]
    fn structural_predicates_are_allowed() {
        let d = books();
        let a = analyze(
            &d,
            &["/bib/book[author]/title".to_string()],
            &AnalysisOptions::default(),
        )
        .unwrap();
        assert!(a.optimality.applies, "{:?}", a.optimality.reasons);
    }

    /// A disjunctive predicate breaks Def. 4.6(iii), and it matters: π
    /// keeps `note`, which no valid document needs to answer the query.
    #[test]
    fn disjunctive_predicate_breaks_strong_specification() {
        let d = parse_dtd(
            "<!ELEMENT bib (book*)>\
             <!ELEMENT book (title, author+, note?)>\
             <!ELEMENT title (#PCDATA)>\
             <!ELEMENT author (#PCDATA)>\
             <!ELEMENT note (#PCDATA)>",
            "bib",
        )
        .unwrap();
        let q = "/bib/book[title or note]/author";
        let a = analyze(&d, &[q.to_string()], &AnalysisOptions::default()).unwrap();
        assert!(a.optimality.dtd_ok);
        assert!(!a.optimality.applies);
        assert!(
            a.optimality
                .reasons
                .iter()
                .any(|r| r.contains("Def. 4.6(iii)")),
            "{:?}",
            a.optimality.reasons
        );

        // The witness that π is not optimal: t∖(π∖{note}) answers as t.
        let note = d.name_of_tag_str("note").unwrap();
        let mut names = a.provenance.projector.names().clone();
        assert!(names.remove(note));
        let smaller = Projector::normalized(&d, names);
        let query = parse_xquery(q).unwrap();
        let mut notes = 0;
        for seed in 0..50 {
            let doc = generate(&d, seed, &GenConfig::default());
            let pruned = prune_document(&doc, &d, &interpret(&doc, &d).unwrap(), &smaller);
            notes += doc.to_xml().matches("<note>").count();
            assert_eq!(
                evaluate_query(&pruned, &query).unwrap(),
                evaluate_query(&doc, &query).unwrap(),
                "seed {seed}"
            );
        }
        assert!(notes > 0, "no generated document has a note");
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(
            AnalyzerError::BadQuery(String::new()).code().as_str(),
            "bad-query"
        );
    }
}
