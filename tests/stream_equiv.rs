//! The two pruning implementations — the in-memory Def. 2.7 projection
//! and the one-pass streaming pruner of §6 — must produce byte-identical
//! documents for every benchmark projector.

use xml_projection::core::{prune_document, prune_str, StaticAnalyzer};
use xml_projection::dtd::validate;
use xml_projection::xmark::{
    auction_dtd, generate_auction, xmark_queries, xpathmark_queries, XMarkConfig,
};
use xml_projection::xquery;

#[test]
fn streaming_equals_in_memory_on_the_whole_workload() {
    let dtd = auction_dtd();
    let doc = generate_auction(&dtd, &XMarkConfig { scale: 0.06, seed: 77 });
    let xml = doc.to_xml();
    let interp = validate(&doc, &dtd).unwrap();
    let mut sa = StaticAnalyzer::new(&dtd);

    for q in xpathmark_queries() {
        let p = sa.project_query(q.text).unwrap();
        let streamed = prune_str(&xml, &dtd, &p).unwrap();
        let in_memory = prune_document(&doc, &dtd, &interp, &p);
        assert_eq!(streamed.output, in_memory.to_xml(), "{}", q.id);
    }
    for q in xmark_queries() {
        let parsed = xquery::parse_xquery(q.text).unwrap();
        let p = xquery::project_xquery(&mut sa, &parsed);
        let streamed = prune_str(&xml, &dtd, &p).unwrap();
        let in_memory = prune_document(&doc, &dtd, &interp, &p);
        assert_eq!(streamed.output, in_memory.to_xml(), "{}", q.id);
    }
}

#[test]
fn streaming_stats_are_consistent() {
    let dtd = auction_dtd();
    let doc = generate_auction(&dtd, &XMarkConfig { scale: 0.05, seed: 4 });
    let xml = doc.to_xml();
    let mut sa = StaticAnalyzer::new(&dtd);
    let p = sa.project_query("/site/people/person/name").unwrap();
    let r = prune_str(&xml, &dtd, &p).unwrap();
    // elements_pruned counts discarded subtree *roots* (inner elements
    // are skipped without event processing), so kept + pruned ≤ total.
    let total_elements = doc.element_count();
    assert!(r.elements_kept + r.elements_pruned <= total_elements);
    assert!(r.elements_kept > 0 && r.elements_pruned > 0);
    assert!(r.retention(xml.len()) < 0.5, "people-only keeps little");
    // depth bound: the streaming pruner's memory is O(depth)
    assert!(r.max_depth <= 4); // site/people/person/name
}

#[test]
fn streamed_prune_reparses_and_revalidates_interpretation() {
    // The streamed output parses, and every element is still declared.
    let dtd = auction_dtd();
    let doc = generate_auction(&dtd, &XMarkConfig { scale: 0.05, seed: 9 });
    let xml = doc.to_xml();
    let mut sa = StaticAnalyzer::new(&dtd);
    let p = sa.project_query("//keyword").unwrap();
    let r = prune_str(&xml, &dtd, &p).unwrap();
    let reparsed = xml_projection::xmltree::parse(&r.output).unwrap();
    assert!(xml_projection::dtd::interpret(&reparsed, &dtd).is_ok());
}

/// What a pruned element's verdict decides, under `large_prune_stream`'s
/// q1 (`/site/people/person/name`): never what is kept — nothing under a
/// pruned element is, not even a π name like `<regions>`' item `name` —
/// only whether its subtree is tokenized, and so checked. `regions` can
/// reach `name` (PruneDescend): a mismatched end tag or a bad attribute
/// inside it fails with the same message and offset, fast-forward on or
/// off. `catgraph` can reach nothing in π (PruneSubtree): the same
/// faults pass with fast-forward on and fail with it off.
#[test]
fn verdicts_decide_what_is_checked_not_what_is_kept() {
    use xml_projection::core::{prune_str_fast, ProjectorTable, StreamPruneError, Verdict};
    let dtd = auction_dtd();
    let p = StaticAnalyzer::new(&dtd)
        .project_query("/site/people/person/name")
        .unwrap();
    let table = ProjectorTable::new(&dtd, &p);
    let verdict = |tag: &str| table.verdict(dtd.name_of_tag_str(tag).unwrap());
    assert_eq!(verdict("regions"), Verdict::PruneDescend);
    assert_eq!(verdict("catgraph"), Verdict::PruneSubtree);

    let doc = |regions: &str, catgraph: &str| {
        format!(
            "<site><regions>{regions}</regions><catgraph>{catgraph}</catgraph>\
             <people><person id=\"p0\"><name>Kept</name></person></people></site>"
        )
    };
    let good = doc(
        "<africa><item id=\"i0\"><name>Dropped</name></item></africa>",
        "<edge/>",
    );
    let kept = "<site><people><person id=\"p0\"><name>Kept</name></person></people></site>";
    assert_eq!(prune_str(&good, &dtd, &p).unwrap().output, kept);
    assert_eq!(prune_str_fast(&good, &dtd, &p).unwrap().output, kept);

    // A fault under `regions`, where it is reported, and the same
    // fault under `catgraph`.
    let faults = [
        (
            "<africa></asia>",
            "</asia>",
            "mismatched end tag </asia>, expected </africa>",
            "<edge></asia>",
        ),
        (
            "<africa><item id/></africa>",
            "<item",
            "expected '=' after attribute name 'id'",
            "<edge from/>",
        ),
    ];
    for (under_regions, at, message, under_catgraph) in faults {
        let faulty = doc(under_regions, "");
        let offset = faulty.find(at).unwrap();
        let expected =
            StreamPruneError::Xml(format!("XML parse error at byte {offset}: {message}"));
        assert_eq!(prune_str(&faulty, &dtd, &p).unwrap_err(), expected);
        assert_eq!(prune_str_fast(&faulty, &dtd, &p).unwrap_err(), expected);
        let skipped = doc("", under_catgraph);
        assert_eq!(
            prune_str_fast(&skipped, &dtd, &p).unwrap().output,
            kept,
            "{under_catgraph}"
        );
        assert!(prune_str(&skipped, &dtd, &p).is_err(), "{under_catgraph}");
    }
}
