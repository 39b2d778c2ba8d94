//! The two pruning implementations — the in-memory Def. 2.7 projection
//! and the one-pass streaming pruner of §6 (`Projection::prune_str`, the
//! engine's pass over the whole string as one feed) — must produce
//! byte-identical documents for every benchmark projector.

use xml_projection::core::{prune_document, StaticAnalyzer};
use xml_projection::dtd::validate;
use xml_projection::xmark::{
    auction_dtd, generate_auction, xmark_queries, xpathmark_queries, XMarkConfig,
};
use xml_projection::xquery;
use xml_projection::Projection;

#[test]
fn streaming_equals_in_memory_on_the_whole_workload() {
    let dtd = auction_dtd();
    let doc = generate_auction(
        &dtd,
        &XMarkConfig {
            scale: 0.06,
            seed: 77,
        },
    );
    let xml = doc.to_xml();
    let interp = validate(&doc, &dtd).unwrap();
    let mut sa = StaticAnalyzer::new(&dtd);

    for q in xpathmark_queries() {
        let p = sa.project_query(q.text).unwrap();
        let in_memory = prune_document(&doc, &dtd, &interp, &p);
        let (streamed, _) = Projection::from_projector(&dtd, p).prune_str(&xml).unwrap();
        assert_eq!(streamed, in_memory.to_xml(), "{}", q.id);
    }
    for q in xmark_queries() {
        let parsed = xquery::parse_xquery(q.text).unwrap();
        let p = xquery::project_xquery(&mut sa, &parsed);
        let in_memory = prune_document(&doc, &dtd, &interp, &p);
        let (streamed, _) = Projection::from_projector(&dtd, p).prune_str(&xml).unwrap();
        assert_eq!(streamed, in_memory.to_xml(), "{}", q.id);
    }
}

#[test]
fn streaming_stats_are_consistent() {
    let dtd = auction_dtd();
    let doc = generate_auction(
        &dtd,
        &XMarkConfig {
            scale: 0.05,
            seed: 4,
        },
    );
    let xml = doc.to_xml();
    let mut sa = StaticAnalyzer::new(&dtd);
    let p = sa.project_query("/site/people/person/name").unwrap();
    let (_, stats) = Projection::from_projector(&dtd, p).prune_str(&xml).unwrap();
    let r = stats.counters;
    // elements_pruned counts discarded subtree *roots* (inner elements
    // are skipped without event processing), so kept + pruned ≤ total.
    let total_elements = doc.element_count();
    assert!(r.elements_kept + r.elements_pruned <= total_elements);
    assert!(r.elements_kept > 0 && r.elements_pruned > 0);
    assert!(stats.retention() < 0.5, "people-only keeps little");
    // depth bound: the streaming pruner's memory is O(depth)
    assert!(r.max_depth <= 4); // site/people/person/name
}

#[test]
fn streamed_prune_reparses_and_revalidates_interpretation() {
    // The streamed output parses, and every element is still declared.
    let dtd = auction_dtd();
    let doc = generate_auction(
        &dtd,
        &XMarkConfig {
            scale: 0.05,
            seed: 9,
        },
    );
    let xml = doc.to_xml();
    let mut sa = StaticAnalyzer::new(&dtd);
    let p = sa.project_query("//keyword").unwrap();
    let (pruned, _) = Projection::from_projector(&dtd, p).prune_str(&xml).unwrap();
    let reparsed = xml_projection::xmltree::parse(&pruned).unwrap();
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
    use xml_projection::core::{ProjectorTable, Verdict};
    use xml_projection::engine::{ChunkedPruner, EngineError};
    use xml_projection::xmltree::entities::ParseError;
    let dtd = auction_dtd();
    let p = StaticAnalyzer::new(&dtd)
        .project_query("/site/people/person/name")
        .unwrap();
    // The document as one feed: the kept bytes, or the error's variant
    // and message.
    let prune = |doc: &str, fast_forward: bool| -> Result<String, String> {
        let mut out = Vec::new();
        let mut pruner = ChunkedPruner::new(&dtd, &p, &mut out);
        pruner.set_fast_forward(fast_forward);
        let done = pruner.feed(doc.as_bytes()).and_then(|()| pruner.finish());
        done.map_err(|e| format!("{e:?}"))?;
        Ok(String::from_utf8(out).unwrap())
    };
    let prune_str = |doc: &str| prune(doc, false);
    let prune_fast = |doc: &str| prune(doc, true);
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
    assert_eq!(prune_str(&good).unwrap(), kept);
    assert_eq!(prune_fast(&good).unwrap(), kept);

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
        let expected = format!(
            "{:?}",
            EngineError::Xml(ParseError {
                offset,
                message: message.to_string()
            })
        );
        assert_eq!(prune_str(&faulty).unwrap_err(), expected);
        assert_eq!(prune_fast(&faulty).unwrap_err(), expected);
        let skipped = doc("", under_catgraph);
        assert_eq!(prune_fast(&skipped).unwrap(), kept, "{under_catgraph}");
        assert!(prune_str(&skipped).is_err(), "{under_catgraph}");
    }
}
