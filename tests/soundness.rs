//! End-to-end soundness (Theorem 4.5): for every benchmark query, running
//! it on the pruned document yields the same answer as on the original.
//!
//! * XPath queries are checked at the node-identity level using the
//!   `src_id` mapping maintained by the pruner, with the *exact*
//!   (non-materialised) projector — the sharp statement of Thm. 4.5.
//! * XQuery queries are checked at the serialisation level with the
//!   extraction-based projector of §5 (which materialises results).

use xml_projection::core::{prune_document, StaticAnalyzer};
use xml_projection::dtd::validate;
use xml_projection::xmark::{
    auction_dtd, generate_auction, xmark_queries, xpathmark_queries, XMarkConfig,
};
use xml_projection::xmltree::{Document, NodeId};
use xml_projection::xpath::ast::Expr;
use xml_projection::xpath::eval::XNode;
use xml_projection::xquery;

fn gen_doc(scale: f64, seed: u64) -> Document {
    let dtd = auction_dtd();
    generate_auction(&dtd, &XMarkConfig { scale, seed })
}

/// Maps a result node of `doc` to the original document's node identity.
fn canonical(doc: &Document, n: XNode) -> (NodeId, Option<u32>) {
    match n {
        XNode::Tree(id) => (doc.src_id(id), None),
        XNode::Attr(id, i) => (doc.src_id(id), Some(i)),
    }
}

#[test]
fn xpathmark_queries_are_sound_under_exact_projectors() {
    let dtd = auction_dtd();
    for seed in [3u64, 17] {
        let doc = generate_auction(&dtd, &XMarkConfig { scale: 0.08, seed });
        let interp = validate(&doc, &dtd).expect("generated documents validate");
        let mut sa = StaticAnalyzer::new(&dtd);
        for q in xpathmark_queries() {
            let projector = sa
                .project_query_exact(q.text)
                .unwrap_or_else(|e| panic!("{}: {e}", q.id));
            let pruned = prune_document(&doc, &dtd, &interp, &projector);

            let Expr::Path(path) = xml_projection::xpath::parse_xpath(q.text).unwrap() else {
                unreachable!()
            };
            let on_original = xml_projection::xpath::evaluate(&doc, &path).unwrap();
            let on_pruned = xml_projection::xpath::evaluate(&pruned, &path).unwrap();

            let mut orig: Vec<_> = on_original.iter().map(|&n| canonical(&doc, n)).collect();
            let mut prun: Vec<_> = on_pruned.iter().map(|&n| canonical(&pruned, n)).collect();
            orig.sort();
            prun.sort();
            assert_eq!(
                orig,
                prun,
                "{} (seed {seed}): pruning changed the result \
                 ({} vs {} nodes)",
                q.id,
                orig.len(),
                prun.len()
            );
        }
    }
}

#[test]
fn xmark_queries_are_sound_under_extracted_projectors() {
    let dtd = auction_dtd();
    for seed in [5u64, 23] {
        let doc = generate_auction(&dtd, &XMarkConfig { scale: 0.08, seed });
        let interp = validate(&doc, &dtd).expect("generated documents validate");
        let mut sa = StaticAnalyzer::new(&dtd);
        for q in xmark_queries() {
            let parsed = xquery::parse_xquery(q.text).unwrap();
            let projector = xquery::project_xquery(&mut sa, &parsed);
            let pruned = prune_document(&doc, &dtd, &interp, &projector);

            let on_original = xquery::evaluate_query(&doc, &parsed)
                .unwrap_or_else(|e| panic!("{} original: {e}", q.id));
            let on_pruned = xquery::evaluate_query(&pruned, &parsed)
                .unwrap_or_else(|e| panic!("{} pruned: {e}", q.id));
            assert_eq!(
                on_original, on_pruned,
                "{} (seed {seed}): serialised results differ",
                q.id
            );
        }
    }
}

#[test]
fn union_projector_is_sound_for_every_member_query() {
    // §5: a single projector serves a whole workload.
    let dtd = auction_dtd();
    let doc = gen_doc(0.06, 11);
    let interp = validate(&doc, &dtd).unwrap();
    let workload: Vec<&str> = xpathmark_queries()
        .iter()
        .map(|q| q.text)
        .collect::<Vec<_>>();
    let projection =
        xml_projection::Projection::for_queries(&dtd, workload.iter().copied()).unwrap();
    let pruned = projection.prune_document(&doc, &interp);
    for q in xpathmark_queries() {
        let Expr::Path(path) = xml_projection::xpath::parse_xpath(q.text).unwrap() else {
            unreachable!()
        };
        let mut orig: Vec<_> = xml_projection::xpath::evaluate(&doc, &path)
            .unwrap()
            .iter()
            .map(|&n| canonical(&doc, n))
            .collect();
        let mut prun: Vec<_> = xml_projection::xpath::evaluate(&pruned, &path)
            .unwrap()
            .iter()
            .map(|&n| canonical(&pruned, n))
            .collect();
        orig.sort();
        prun.sort();
        assert_eq!(orig, prun, "{} under the union projector", q.id);
    }
}

#[test]
fn pruning_is_idempotent() {
    let dtd = auction_dtd();
    let doc = gen_doc(0.05, 2);
    let interp = validate(&doc, &dtd).unwrap();
    let mut sa = StaticAnalyzer::new(&dtd);
    for text in ["//keyword", "/site/people/person[phone]/name"] {
        let p = sa.project_query(text).unwrap();
        let once = prune_document(&doc, &dtd, &interp, &p);
        // A pruned document generally no longer satisfies content models;
        // its interpretation is still determined tag-locally.
        let interp2 = xml_projection::dtd::interpret(&once, &dtd).unwrap();
        let twice = prune_document(&once, &dtd, &interp2, &p);
        assert_eq!(once.to_xml(), twice.to_xml(), "{text}");
    }
}
