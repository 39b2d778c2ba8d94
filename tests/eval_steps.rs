//! The evaluation step counter (`xquery::Steps`, summed into
//! `QueryStats::eval_steps`) and the event loop's budget for it
//! (`LOOP_EVAL_STEPS`).
//!
//! * The steps of every fallback-plan query among the 43 XMark/XPathMark
//!   queries, on the ledger's `mid_query_onepass` document (XMark scale
//!   0.02, seed 42), are pinned as counts, and the answers are the
//!   reference evaluator's over the unpruned document. Each fits a
//!   fifth of the loop budget.
//! * The count prices the work: on a join family the steps grow with
//!   the nested-loop work (people × closed auctions) when the scale
//!   doubles, at least nine steps for every pair added, and are pinned.

use std::sync::Arc;
use xml_projection::engine::{QueryArtifact, QueryMachine, QueryOutput, QueryStats};
use xml_projection::qc::{Plan, LOOP_EVAL_STEPS};
use xml_projection::xmark::{
    auction_dtd, generate_auction, xmark_queries, xpathmark_queries, XMarkConfig,
};
use xml_projection::xquery::{evaluate_query, parse_xquery};

/// `artifact` over `doc` in one feed: the bare answer and the stats.
fn answer(artifact: &Arc<QueryArtifact>, doc: &[u8]) -> (String, QueryStats) {
    let mut machine = QueryMachine::new(Arc::clone(artifact), QueryOutput::Answer);
    machine.feed(doc).unwrap();
    let stats = machine.finish().unwrap();
    let mut out = Vec::new();
    machine.take_output(&mut out);
    (String::from_utf8(out).unwrap(), stats)
}

/// (id, steps) of every fallback-plan query, in benchmark order.
const PINNED: [(&str, u64); 37] = [
    ("QM01", 27),
    ("QM02", 39),
    ("QM03", 71),
    ("QM04", 71),
    ("QM05", 20),
    ("QM06", 35),
    ("QM07", 330),
    ("QM08", 227),
    ("QM09", 260),
    ("QM10", 149),
    ("QM11", 224),
    ("QM12", 121),
    ("QM13", 46),
    ("QM14", 1_204),
    ("QM15", 5),
    ("QM16", 14),
    ("QM17", 31),
    ("QM18", 17),
    ("QM19", 332),
    ("QM20", 94),
    ("QP04", 11),
    ("QP05", 14),
    ("QP06", 38),
    ("QP07", 34),
    ("QP08", 49),
    ("QP09", 33),
    ("QP10", 452),
    ("QP11", 86),
    ("QP12", 86),
    ("QP14", 184),
    ("QP15", 219),
    ("QP16", 61),
    ("QP17", 51),
    ("QP18", 586),
    ("QP21", 59),
    ("QP22", 1_698),
    ("QP23", 107),
];

#[test]
fn every_fallback_query_spends_its_pinned_steps() {
    let dtd = Arc::new(auction_dtd());
    let tree = generate_auction(&dtd, &XMarkConfig::at_scale(0.02));
    let doc = tree.to_xml();
    let mut steps = Vec::new();
    for q in xmark_queries().into_iter().chain(xpathmark_queries()) {
        let artifact = QueryArtifact::compile(&dtd, q.text).unwrap();
        if artifact.plan != Plan::Fallback {
            continue;
        }
        let (got, stats) = answer(&artifact, doc.as_bytes());
        let want = evaluate_query(&tree, &parse_xquery(q.text).unwrap()).unwrap();
        assert_eq!(got, want, "{}", q.id);
        assert!(stats.eval_steps <= LOOP_EVAL_STEPS / 5, "{}", q.id);
        steps.push((q.id, stats.eval_steps));
    }
    assert_eq!(steps, PINNED);
}

/// The join family: each person with the closed auctions they bought.
const JOIN: &str = "for $p in /site/people/person for $t in /site/closed_auctions/closed_auction \
                    where $t/buyer/@person = $p/@id return <sale>{$p/name/text()}</sale>";

/// The join's nested-loop work (people × closed auctions) and steps at
/// XMark scales 0.05, 0.1 and 0.2, pinned.
const JOIN_ROWS: [(u64, u64); 3] = [(80, 886), (320, 3_367), (1_280, 13_140)];

/// Each doubling of the scale quadruples the pairs, and every pair it
/// adds costs at least the nine steps of its `where`: bind `$t`, read
/// `$t` and `$p`, visit `buyer`, `@person` and `@id`, walk both
/// strings and compare them. A count that grew only with the document
/// would fall behind by the second doubling.

#[test]
fn join_steps_grow_at_least_as_fast_as_the_nested_loop_work() {
    let dtd = Arc::new(auction_dtd());
    let artifact = QueryArtifact::compile(&dtd, JOIN).unwrap();
    assert_eq!(artifact.plan, Plan::Fallback);
    let count = |tree: &xml_projection::xmltree::Document, path: &str| {
        let q = parse_xquery(&format!("count({path})")).unwrap();
        evaluate_query(tree, &q).unwrap().parse::<u64>().unwrap()
    };
    let mut rows = Vec::new();
    for scale in [0.05, 0.1, 0.2] {
        let tree = generate_auction(&dtd, &XMarkConfig::at_scale(scale));
        let work = count(&tree, "/site/people/person")
            * count(&tree, "/site/closed_auctions/closed_auction");
        let (_, stats) = answer(&artifact, tree.to_xml().as_bytes());
        rows.push((work, stats.eval_steps));
    }
    assert_eq!(rows, JOIN_ROWS);
    for pair in rows.windows(2) {
        let [(w0, s0), (w1, s1)] = pair else {
            unreachable!()
        };
        assert!(s1 - s0 >= 9 * (w1 - w0), "{rows:?}");
    }
}
