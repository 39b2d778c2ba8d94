//! Provenance-tracked projector inference.
//!
//! Runs the extraction + Figure 2 inference pipeline the facade and the
//! artifact compiler use (`extract_paths` into
//! [`StaticAnalyzer::project_paths`]) with the trace recorder on, then
//! condenses the
//! raw event log into one human-readable derivation per projector name:
//! which query, which extracted path, which step and rule admitted it,
//! and through which `⇒E` chain it hangs off the root.

use crate::AnalyzerError;
use xproj_core::{NormPaths, Projector, StaticAnalyzer, TraceEvent, TraceRule};
use xproj_dtd::{Dtd, NameId};
use xproj_xpath::xpathl::LPath;
use xproj_xquery::extract::extract_paths;
use xproj_xquery::parse_xquery;

/// One extracted data-need path, remembering which workload query it
/// came from.
#[derive(Debug, Clone)]
pub struct ExtractedPath {
    /// Index of the originating query in the workload.
    pub query: usize,
    /// The XPathℓ path.
    pub lpath: LPath,
    /// Rendered form (`/child::site/…`).
    pub text: String,
}

/// The provenance of one projector name.
#[derive(Debug, Clone)]
pub struct ProvenanceEntry {
    /// The name's label.
    pub name: String,
    /// Stable label of the admitting Figure 2 rule (first event wins).
    pub rule: &'static str,
    /// Index into [`Provenance::paths`] of the path whose inference
    /// admitted the name.
    pub source: usize,
    /// The primitive step being inferred when the name was admitted.
    pub step: String,
    /// The name the step was applied from, when distinct.
    pub via: Option<String>,
    /// A `⇒E` chain from the root to the name, entirely inside π — the
    /// witness that the projector is chain-closed through this name.
    pub chain: Vec<String>,
    /// Total number of admission events recorded for the name.
    pub events: usize,
}

/// Result of a provenance-tracked inference over a workload.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Extracted paths, flattened across queries in workload order.
    pub paths: Vec<ExtractedPath>,
    /// The inferred (normalised) projector — identical to what
    /// `project_xquery` computes for the same workload.
    pub projector: Projector,
    /// One entry per projector name, sorted root-outward (by chain
    /// length, then label).
    pub entries: Vec<ProvenanceEntry>,
}

/// Runs extraction and traced inference for a workload of XQuery (or
/// XPath — every XPath path is an XQuery) strings.
pub fn trace_workload(dtd: &Dtd, queries: &[String]) -> Result<Provenance, AnalyzerError> {
    let mut paths = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let parsed = parse_xquery(q)
            .map_err(|e| AnalyzerError::BadQuery(format!("query #{}: {e}", qi + 1)))?;
        for lpath in extract_paths(&parsed) {
            let text = lpath.to_string();
            paths.push(ExtractedPath {
                query: qi,
                lpath,
                text,
            });
        }
    }

    let mut sa = StaticAnalyzer::new(dtd);
    sa.enable_trace();
    let projector = sa.project_paths(paths.iter().map(|p| (&p.lpath, true)), false);
    let events = sa.take_trace();

    // (pid, idx) pairs in events refer to the NormPaths arena of the
    // path being inferred; normalisation is deterministic, so rebuild.
    let arenas: Vec<NormPaths> = paths.iter().map(|p| NormPaths::new(&p.lpath)).collect();

    let mut entries = Vec::new();
    for n in projector.names() {
        let Some(first) = events.iter().find(|e| e.name == n) else {
            continue; // only reachable via normalisation, should not happen
        };
        let count = events.iter().filter(|e| e.name == n).count();
        entries.push(render_entry(dtd, &projector, &arenas, first, count));
    }
    entries.sort_by(|a, b| (a.chain.len(), &a.name).cmp(&(b.chain.len(), &b.name)));

    Ok(Provenance {
        paths,
        projector,
        entries,
    })
}

fn render_entry(
    dtd: &Dtd,
    projector: &Projector,
    arenas: &[NormPaths],
    event: &TraceEvent,
    count: usize,
) -> ProvenanceEntry {
    let np = &arenas[event.source];
    let step = if event.rule == TraceRule::Materialize {
        "result-subtree materialisation".to_string()
    } else {
        np.render_step(event.pid, event.idx)
    };
    let via = event.via.map(|v| {
        if v == dtd.doc_name() {
            "the document node".to_string()
        } else {
            dtd.label(v).to_string()
        }
    });
    ProvenanceEntry {
        name: dtd.label(event.name).to_string(),
        rule: event.rule.label(),
        source: event.source,
        step,
        via,
        chain: root_chain(dtd, projector, event.name),
        events: count,
    }
}

/// Shortest `⇒E` chain root → `target` staying inside the projector
/// (exists for every member of a normalised projector).
pub(crate) fn root_chain(dtd: &Dtd, projector: &Projector, target: NameId) -> Vec<String> {
    let root = dtd.root();
    if target == root {
        return vec![dtd.label(root).to_string()];
    }
    let mut prev: Vec<Option<NameId>> = vec![None; dtd.name_count()];
    let mut seen = dtd.singleton(root);
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(x) = queue.pop_front() {
        for c in dtd.children_of(x) {
            if projector.contains(c) && seen.insert(c) {
                prev[c.index()] = Some(x);
                if c == target {
                    let mut chain = vec![c];
                    let mut cur = c;
                    while let Some(p) = prev[cur.index()] {
                        chain.push(p);
                        cur = p;
                    }
                    chain.reverse();
                    return chain.iter().map(|&m| dtd.label(m).to_string()).collect();
                }
                queue.push_back(c);
            }
        }
    }
    vec![dtd.label(target).to_string()] // unchained (defensive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_dtd::parse_dtd;

    fn books() -> Dtd {
        parse_dtd(
            "<!ELEMENT bib (book*)>\
             <!ELEMENT book (title, author+, price?)>\
             <!ELEMENT title (#PCDATA)>\
             <!ELEMENT author (#PCDATA)>\
             <!ELEMENT price (#PCDATA)>",
            "bib",
        )
        .unwrap()
    }

    #[test]
    fn every_projector_name_has_provenance() {
        let d = books();
        let p = trace_workload(&d, &["/bib/book/title".to_string()]).unwrap();
        assert_eq!(p.entries.len(), p.projector.len());
        let names: Vec<&str> = p.entries.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"bib"));
        assert!(names.contains(&"book"));
        assert!(names.contains(&"title"));
        assert!(names.contains(&"title#text")); // materialised via dos
        assert!(!names.contains(&"author"));
    }

    #[test]
    fn chains_are_rooted_and_inside_projector() {
        let d = books();
        let p = trace_workload(
            &d,
            &["for $b in /bib/book where $b/price > 10 return $b/title".to_string()],
        )
        .unwrap();
        for e in &p.entries {
            assert_eq!(e.chain.first().map(String::as_str), Some("bib"), "{e:?}");
            assert_eq!(e.chain.last(), Some(&e.name), "{e:?}");
            assert!(e.events >= 1);
            for label in &e.chain {
                let n = d
                    .all_names()
                    .find(|&n| d.label(n) == label)
                    .expect("chain label resolves");
                assert!(p.projector.contains(n), "{label} not in projector");
            }
        }
    }

    #[test]
    fn projector_matches_untraced_inference() {
        let d = books();
        let queries = vec!["for $b in /bib/book return $b/author".to_string()];
        let p = trace_workload(&d, &queries).unwrap();
        let mut sa = StaticAnalyzer::new(&d);
        let expected = xproj_xquery::project_xquery_str(&mut sa, &queries[0]).unwrap();
        assert_eq!(p.projector, expected);
    }

    #[test]
    fn bad_query_reports_index() {
        let d = books();
        let err = trace_workload(&d, &["/bib".into(), "//[".into()]).unwrap_err();
        match err {
            AnalyzerError::BadQuery(m) => assert!(m.contains("#2"), "{m}"),
            other => panic!("{other:?}"),
        }
    }
}
