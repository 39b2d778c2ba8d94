//! Workload lints, one per way the paper says projection stops paying:
//! `undeclared-element` (Fig. 1 types the step to the empty type: it can
//! never match), `recursive-blowup` (§6: a descendant axis over a
//! recursive DTD keeps unbounded depth) and `weak-pruning` (§6, Table 1:
//! the pruned document is nearly the whole one).
//!
//! Lints are advisory — the projector stays sound regardless — but each
//! one flags a (DTD, query) interaction that usually means the workload
//! or the grammar is not what the author intended.

use crate::provenance::ExtractedPath;
use crate::retention::RetentionEstimate;
use xproj_core::Projector;
use xproj_dtd::Dtd;
use xproj_xpath::xpathl::{LAxis, LStep, LTest};

/// Lint severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintLevel {
    /// Worth knowing, nothing wrong.
    Info,
    /// Likely a mistake or a performance hazard.
    Warning,
}

impl LintLevel {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            LintLevel::Info => "info",
            LintLevel::Warning => "warning",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Lint {
    /// Stable kebab-case code.
    pub code: &'static str,
    /// Severity.
    pub level: LintLevel,
    /// Human-readable message.
    pub message: String,
}

/// Retention at or above this fraction flags the `weak-pruning` lint.
pub const WEAK_PRUNING_THRESHOLD: f64 = 0.9;

/// Runs every lint over an analysed workload.
pub fn run_lints(
    dtd: &Dtd,
    projector: &Projector,
    paths: &[ExtractedPath],
    retention: &RetentionEstimate,
) -> Vec<Lint> {
    let mut out = Vec::new();
    undeclared_tags(dtd, paths, &mut out);
    recursive_blowup(dtd, projector, paths, &mut out);
    if retention.predicted >= WEAK_PRUNING_THRESHOLD {
        out.push(Lint {
            code: "weak-pruning",
            level: LintLevel::Info,
            message: format!(
                "predicted retention is {:.0}% — the projector keeps almost \
                 everything, pruning will not pay for itself on this workload",
                retention.predicted * 100.0
            ),
        });
    }
    out
}

/// Tags tested by the query that no DTD production declares: the step
/// can never select anything, which usually means a typo.
fn undeclared_tags(dtd: &Dtd, paths: &[ExtractedPath], out: &mut Vec<Lint>) {
    let mut seen: Vec<String> = Vec::new();
    let visit = |steps: &[LStep], seen: &mut Vec<String>, out: &mut Vec<Lint>| {
        for s in steps {
            let mut tags: Vec<&str> = Vec::new();
            if let LTest::Tag(t) = &s.step.test {
                tags.push(t);
            }
            for cond in &s.cond {
                for cs in cond {
                    if let LTest::Tag(t) = &cs.test {
                        tags.push(t);
                    }
                }
            }
            for t in tags {
                if dtd.name_of_tag_str(t).is_none() && !seen.iter().any(|x| x == t) {
                    seen.push(t.to_string());
                    out.push(Lint {
                        code: "undeclared-element",
                        level: LintLevel::Warning,
                        message: format!(
                            "the query tests element '{t}', which the DTD does not \
                             declare — the step can never match"
                        ),
                    });
                }
            }
        }
    };
    for p in paths {
        visit(&p.lpath.steps, &mut seen, out);
    }
}

/// A descendant axis in the workload combined with recursive names in π
/// means the pruned document can still be arbitrarily deep — the usual
/// source of "projection did not help" surprises.
fn recursive_blowup(
    dtd: &Dtd,
    projector: &Projector,
    paths: &[ExtractedPath],
    out: &mut Vec<Lint>,
) {
    // Extraction appends a final descendant-or-self::node() step to
    // materialise result subtrees; only descendant axes *before* that
    // mean the query itself walks unbounded depth.
    let uses_descendant = paths.iter().any(|p| {
        let steps = &p.lpath.steps;
        let end = match steps.last() {
            Some(last)
                if last.cond.is_empty() && last.step == xproj_xpath::xpathl::SimpleStep::dos() =>
            {
                steps.len() - 1
            }
            _ => steps.len(),
        };
        steps[..end].iter().any(|s| {
            matches!(s.step.axis, LAxis::Descendant | LAxis::DescendantOrSelf)
                || s.cond
                    .iter()
                    .flatten()
                    .any(|cs| matches!(cs.axis, LAxis::Descendant | LAxis::DescendantOrSelf))
        })
    });
    if !uses_descendant {
        return;
    }
    let recursive: Vec<&str> = projector
        .names()
        .iter()
        .filter(|&n| dtd.descendants_of(n).contains(n))
        .map(|n| dtd.label(n))
        .collect();
    if recursive.is_empty() {
        return;
    }
    let shown = recursive[..recursive.len().min(5)].join(", ");
    let suffix = if recursive.len() > 5 { ", …" } else { "" };
    out.push(Lint {
        code: "recursive-blowup",
        level: LintLevel::Warning,
        message: format!(
            "the workload uses a descendant axis and the projector keeps \
             recursive name(s) {shown}{suffix} — pruned documents can still \
             nest unboundedly under them"
        ),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::trace_workload;
    use crate::retention::estimate;
    use xproj_dtd::parse_dtd;

    fn lints_for(dtd_src: &str, root: &str, query: &str) -> Vec<Lint> {
        let d = parse_dtd(dtd_src, root).unwrap();
        let qs = [query.to_string()];
        let p = trace_workload(&d, &qs).unwrap();
        let r = estimate(&d, &p.projector);
        run_lints(&d, &p.projector, &p.paths, &r)
    }

    #[test]
    fn undeclared_tag_is_flagged_once() {
        let ls = lints_for(
            "<!ELEMENT bib (book*)> <!ELEMENT book (#PCDATA)>",
            "bib",
            "/bib/boook | /bib/boook",
        );
        let hits: Vec<_> = ls
            .iter()
            .filter(|l| l.code == "undeclared-element")
            .collect();
        assert_eq!(hits.len(), 1, "{ls:?}");
        assert!(hits[0].message.contains("boook"));
    }

    #[test]
    fn recursive_descendant_blowup_is_flagged() {
        let ls = lints_for(
            "<!ELEMENT part (part*, name)> <!ELEMENT name (#PCDATA)>",
            "part",
            "//name",
        );
        assert!(ls.iter().any(|l| l.code == "recursive-blowup"), "{ls:?}");
    }

    #[test]
    fn no_blowup_without_descendant_axis() {
        let ls = lints_for(
            "<!ELEMENT part (part*, name)> <!ELEMENT name (#PCDATA)>",
            "part",
            "/part/name",
        );
        assert!(!ls.iter().any(|l| l.code == "recursive-blowup"), "{ls:?}");
    }

    #[test]
    fn weak_pruning_flagged_for_keep_everything_query() {
        // `//node()` puts every name in π: the structural extreme of the
        // same finding.
        for q in ["/bib", "//node()"] {
            let ls = lints_for("<!ELEMENT bib (book*)> <!ELEMENT book (#PCDATA)>", "bib", q);
            assert!(ls.iter().any(|l| l.code == "weak-pruning"), "{q}: {ls:?}");
        }
        let ls = lints_for(
            "<!ELEMENT bib (book*, note*)> <!ELEMENT book (#PCDATA)>\
             <!ELEMENT note (#PCDATA)>",
            "bib",
            "/bib/book",
        );
        assert!(!ls.iter().any(|l| l.code == "weak-pruning"), "{ls:?}");
    }
}
