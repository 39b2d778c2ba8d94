//! Differential testing of the evaluator against an independent,
//! deliberately naive implementation of the paper's Definitions 3.1–3.3
//! (set comprehension over all node pairs — O(n²) per step, obviously
//! correct).

use std::collections::BTreeSet;
use xproj_testkit::forall;
use xproj_testkit::strategy::{one_of, recursive, vec_of, weighted, Just, RcStrategy, StrategyExt};
use xproj_xmltree::{Document, NodeId};
use xproj_xpath::ast::{Axis, Expr, NodeTest};
use xproj_xpath::eval::XNode;

/// Reference: all nodes of the tree (document node included).
fn all_nodes(doc: &Document) -> Vec<NodeId> {
    doc.all_nodes().collect()
}

fn is_ancestor(doc: &Document, a: NodeId, n: NodeId) -> bool {
    doc.ancestors(n).any(|x| x == a)
}

/// `[[Axis]]_t(S)` by direct set comprehension.
fn ref_axis(doc: &Document, s: &BTreeSet<NodeId>, axis: Axis) -> BTreeSet<NodeId> {
    let mut out = BTreeSet::new();
    for &ctx in s {
        for n in all_nodes(doc) {
            let selected = match axis {
                Axis::SelfAxis => n == ctx,
                Axis::Child => doc.parent(n) == Some(ctx),
                Axis::Parent => doc.parent(ctx) == Some(n),
                Axis::Descendant => is_ancestor(doc, ctx, n),
                Axis::Ancestor => is_ancestor(doc, n, ctx),
                Axis::DescendantOrSelf => n == ctx || is_ancestor(doc, ctx, n),
                Axis::AncestorOrSelf => n == ctx || is_ancestor(doc, n, ctx),
                Axis::FollowingSibling => {
                    doc.parent(n) == doc.parent(ctx) && doc.parent(n).is_some() && n.0 > ctx.0
                }
                Axis::PrecedingSibling => {
                    doc.parent(n) == doc.parent(ctx) && doc.parent(n).is_some() && n.0 < ctx.0
                }
                Axis::Following => {
                    // after ctx in document order, not a descendant of ctx
                    n.0 > ctx.0 && !is_ancestor(doc, ctx, n) && n != NodeId::DOCUMENT
                }
                Axis::Preceding => {
                    n.0 < ctx.0 && !is_ancestor(doc, n, ctx) && n != NodeId::DOCUMENT
                }
                Axis::Attribute => false,
            };
            if selected {
                out.insert(n);
            }
        }
    }
    out
}

fn ref_test(doc: &Document, s: &BTreeSet<NodeId>, test: &NodeTest) -> BTreeSet<NodeId> {
    s.iter()
        .copied()
        .filter(|&n| match test {
            NodeTest::Node => true,
            NodeTest::Text => doc.is_text(n),
            NodeTest::Element => doc.is_element(n),
            NodeTest::Tag(t) => doc.tag_name(n) == Some(t.as_str()),
        })
        .collect()
}

fn ref_eval(doc: &Document, steps: &[(Axis, NodeTest)]) -> BTreeSet<NodeId> {
    let mut cur: BTreeSet<NodeId> = std::iter::once(NodeId::DOCUMENT).collect();
    for (axis, test) in steps {
        cur = ref_test(doc, &ref_axis(doc, &cur, *axis), test);
    }
    cur
}

/// Random small trees, built strictly in document order (the arena-order
/// invariant every real constructor maintains).
#[derive(Debug, Clone)]
enum GenNode {
    Text,
    Elem(u8, Vec<GenNode>),
}

fn node_strategy() -> RcStrategy<GenNode> {
    let leaf = weighted(vec![
        (3, (0u8..3).prop_map(|t| GenNode::Elem(t, vec![])).rc()),
        (1, Just(GenNode::Text).rc()),
    ])
    .rc();
    recursive(leaf, 3, |inner| {
        (0u8..3, vec_of(inner, 0..4))
            .prop_map(|(t, c)| GenNode::Elem(t, c))
            .rc()
    })
}

fn build_doc(children: &[GenNode]) -> Document {
    let mut doc = Document::new();
    let root = doc.push_named_element(NodeId::DOCUMENT, "a");
    fn build(doc: &mut Document, parent: NodeId, n: &GenNode) {
        match n {
            GenNode::Text => {
                doc.push_text(parent, "t");
            }
            GenNode::Elem(t, cs) => {
                let tags = ["a", "b", "c"];
                let e = doc.push_named_element(parent, tags[(*t % 3) as usize]);
                for c in cs {
                    build(doc, e, c);
                }
            }
        }
    }
    for c in children {
        build(&mut doc, root, c);
    }
    doc
}

fn steps_strategy() -> RcStrategy<Vec<(Axis, NodeTest)>> {
    let axis = one_of(vec![
        Just(Axis::Child).rc(),
        Just(Axis::Descendant).rc(),
        Just(Axis::DescendantOrSelf).rc(),
        Just(Axis::Parent).rc(),
        Just(Axis::Ancestor).rc(),
        Just(Axis::AncestorOrSelf).rc(),
        Just(Axis::SelfAxis).rc(),
        Just(Axis::FollowingSibling).rc(),
        Just(Axis::PrecedingSibling).rc(),
        Just(Axis::Following).rc(),
        Just(Axis::Preceding).rc(),
    ]);
    let test = one_of(vec![
        Just(NodeTest::Node).rc(),
        Just(NodeTest::Text).rc(),
        Just(NodeTest::Element).rc(),
        Just(NodeTest::Tag("a".into())).rc(),
        Just(NodeTest::Tag("b".into())).rc(),
    ]);
    vec_of((axis, test), 1..4).rc()
}

forall! {
    #![cases(384)]

    /// The production evaluator agrees with the naive reference on every
    /// axis/test combination over random trees.
    fn evaluator_matches_reference(
        children in vec_of(node_strategy(), 0..5),
        steps in steps_strategy(),
    ) {
        let doc = build_doc(&children);
        let path = xproj_xpath::ast::LocationPath {
            absolute: true,
            steps: steps
                .iter()
                .map(|(a, t)| xproj_xpath::ast::Step::new(*a, t.clone()))
                .collect(),
        };
        let got: BTreeSet<NodeId> = xproj_xpath::evaluate(&doc, &path)
            .unwrap()
            .into_iter()
            .map(|n| match n {
                XNode::Tree(id) => id,
                XNode::Attr(..) => unreachable!("no attribute steps generated"),
            })
            .collect();
        let expected = ref_eval(&doc, &steps);
        assert_eq!(
            &got, &expected,
            "path {} on\n{}", path, doc.to_xml()
        );
        // sanity: parse of the rendered path agrees too
        if let Ok(Expr::Path(p2)) = xproj_xpath::parse_xpath(&path.to_string()) {
            let got2: BTreeSet<NodeId> = xproj_xpath::evaluate(&doc, &p2)
                .unwrap()
                .into_iter()
                .map(|n| match n {
                    XNode::Tree(id) => id,
                    XNode::Attr(..) => unreachable!(),
                })
                .collect();
            assert_eq!(got2, expected);
        }
    }
}
