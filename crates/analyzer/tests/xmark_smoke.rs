//! End-to-end analyzer check on the XMark benchmark: the JSON report is
//! well-formed, every projector name carries provenance, and the
//! predicted retention is within a factor of two of what pruning the
//! generated document actually retains.

use xproj_analyzer::{analyze, AnalysisOptions};
use xproj_engine::ChunkedPruner;
use xproj_testkit::parse_json;
use xproj_xmark::{auction_dtd, generate_auction, xmark_queries, XMarkConfig};

fn workload(ids: &[&str]) -> Vec<String> {
    xmark_queries()
        .into_iter()
        .filter(|q| ids.contains(&q.id))
        .map(|q| q.text.to_string())
        .collect()
}

#[test]
fn xmark_report_is_complete_and_well_formed() {
    let dtd = auction_dtd();
    let queries = workload(&["QM15"]);
    assert_eq!(queries.len(), 1);
    let a = analyze(&dtd, &queries, &AnalysisOptions::default()).unwrap();

    // Every projector name has a provenance entry with a rooted chain.
    assert_eq!(a.provenance.entries.len(), a.provenance.projector.len());
    assert!(a.provenance.projector.len() > 5);
    for e in &a.provenance.entries {
        assert_eq!(e.chain.first().map(String::as_str), Some("site"), "{e:?}");
        assert_eq!(e.chain.last(), Some(&e.name));
    }

    // The XMark DTD is recursive (parlist/listitem), so optimality must
    // not be claimed, with a concrete cycle in the reasons.
    assert!(!a.optimality.dtd_ok);
    assert!(a.optimality.reasons.iter().any(|r| r.contains("recursive")));

    // The JSON report parses line by line and covers the record types.
    let json = xproj_analyzer::render_json_lines(&a);
    let mut types = Vec::new();
    for line in json.lines() {
        let v = parse_json(line).unwrap_or_else(|e| panic!("bad JSON ({e}): {line}"));
        types.push(v.get("type").and_then(|t| t.as_str()).unwrap().to_string());
    }
    for t in ["meta", "path", "name", "dtd", "optimality", "retention"] {
        assert!(types.iter().any(|x| x == t), "missing {t} record");
    }
}

#[test]
fn predicted_retention_within_2x_of_observed() {
    let dtd = auction_dtd();
    let doc = generate_auction(&dtd, &XMarkConfig::default());
    let xml = doc.to_xml();

    for ids in [&["QM01"][..], &["QM13"], &["QM15"]] {
        let queries = workload(ids);
        let opts = AnalysisOptions { sample: Some(&xml) };
        let a = analyze(&dtd, &queries, &opts).unwrap();
        assert!(a.retention.calibrated);

        let observed = ChunkedPruner::new(&dtd, &a.provenance.projector, std::io::sink())
            .run_one_feed(&xml)
            .unwrap()
            .retention();
        let predicted = a.retention.predicted;
        assert!(observed > 0.0, "{ids:?}: pruning kept nothing");
        let ratio = predicted / observed;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "{ids:?}: predicted {predicted:.4}, observed {observed:.4}, ratio {ratio:.2}"
        );
    }
}

#[test]
fn structural_estimate_is_sane_without_a_sample() {
    let dtd = auction_dtd();
    let queries = workload(&["QM15"]);
    let a = analyze(&dtd, &queries, &AnalysisOptions::default()).unwrap();
    assert!(!a.retention.calibrated);
    assert!(a.retention.predicted > 0.0 && a.retention.predicted < 1.0);
    assert!(a.retention.total_weight.is_finite());
}
