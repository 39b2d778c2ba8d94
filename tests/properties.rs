//! Property-based tests (testkit) over the public API.
//!
//! Strategy: draw (DTD from a fixed corpus, document seed, query from a
//! generated query space) and check the paper's invariants — soundness of
//! pruning, projector monotonicity under union, serialisation round
//! trips, and streaming/in-memory agreement.

use xml_projection::core::{prune_document, Projector, StaticAnalyzer};
use xml_projection::dtd::generate::{generate, GenConfig};
use xml_projection::dtd::{parse_dtd, validate, Dtd};
use xml_projection::xpath::ast::Expr;
use xml_projection::Projection;
use xproj_testkit::forall;
use xproj_testkit::strategy::{one_of, vec_of, Just, RcStrategy, StrategyExt};

const DTDS: &[(&str, &str)] = &[
    (
        "bib",
        "<!ELEMENT bib (book*)>\
         <!ELEMENT book (title, author*, price?)>\
         <!ELEMENT title (#PCDATA)>\
         <!ELEMENT author (#PCDATA)>\
         <!ELEMENT price (#PCDATA)>",
    ),
    (
        // recursive, with upward-axis traps
        "c",
        "<!ELEMENT c (a, b)>\
         <!ELEMENT a (d, #PCDATA)>\
         <!ELEMENT b (#PCDATA)>\
         <!ELEMENT d (a?)>",
    ),
    (
        // parent-ambiguous (paper §4.1)
        "a",
        "<!ELEMENT a (b, c)> <!ELEMENT b (c)> <!ELEMENT c EMPTY>",
    ),
    (
        // wide with options
        "r",
        "<!ELEMENT r (x*, y?)>\
         <!ELEMENT x (u?, v?)>\
         <!ELEMENT y (v*)>\
         <!ELEMENT u (#PCDATA)>\
         <!ELEMENT v (#PCDATA)>",
    ),
];

fn just_strs(options: &[&'static str]) -> RcStrategy<&'static str> {
    one_of(options.iter().map(|s| Just(*s).rc()).collect()).rc()
}

/// A small query space over the corpus tags, covering every XPathℓ shape
/// plus approximated constructs.
fn query_strategy() -> RcStrategy<String> {
    let tags = just_strs(&[
        "a", "b", "c", "d", "x", "y", "u", "v", "book", "title", "author", "price",
    ]);
    let step = (
        just_strs(&[
            "child::",
            "descendant::",
            "descendant-or-self::",
            "parent::",
            "ancestor::",
            "self::",
            "following-sibling::",
            "preceding-sibling::",
        ]),
        one_of(vec![
            tags.clone().prop_map(|t| t.to_string()).rc(),
            Just("node()".to_string()).rc(),
            Just("text()".to_string()).rc(),
            Just("*".to_string()).rc(),
        ]),
    )
        .prop_map(|(a, t)| format!("{a}{t}"))
        .rc();
    let pred_path = (Just("child::"), tags)
        .prop_map(|(a, t)| format!("{a}{t}"))
        .rc();
    let pred = one_of(vec![
        pred_path.clone().prop_map(|p| format!("[{p}]")).rc(),
        (pred_path.clone(), pred_path.clone())
            .prop_map(|(a, b)| format!("[{a} or {b}]"))
            .rc(),
        pred_path.clone().prop_map(|p| format!("[not({p})]")).rc(),
        pred_path.prop_map(|p| format!("[count({p}) > 1]")).rc(),
        Just("[1]".to_string()).rc(),
        Just("".to_string()).rc(),
    ])
    .rc();
    vec_of((step, pred), 1..4)
        .prop_map(|steps| {
            let mut q = String::from("/");
            let body: Vec<String> = steps.into_iter().map(|(s, p)| format!("{s}{p}")).collect();
            q.push_str(&body.join("/"));
            q
        })
        .rc()
}

fn corpus_dtd(ix: usize) -> Dtd {
    let (root, text) = DTDS[ix % DTDS.len()];
    parse_dtd(text, root).unwrap()
}

fn eval_ids(
    doc: &xml_projection::xmltree::Document,
    path: &xml_projection::xpath::ast::LocationPath,
) -> Vec<(u32, Option<u32>)> {
    use xml_projection::xpath::eval::XNode;
    let mut v: Vec<(u32, Option<u32>)> = xml_projection::xpath::evaluate(doc, path)
        .unwrap()
        .into_iter()
        .map(|n| match n {
            XNode::Tree(id) => (doc.src_id(id).0, None),
            XNode::Attr(id, i) => (doc.src_id(id).0, Some(i)),
        })
        .collect();
    v.sort();
    v
}

forall! {
    #![cases(96)]

    /// Theorem 4.5 as a property: any generated query on any corpus DTD
    /// is preserved by pruning with its exact projector.
    fn pruning_preserves_query_results(
        dtd_ix in 0usize..DTDS.len(),
        seed in 0u64..2000,
        q in query_strategy(),
    ) {
        let dtd = corpus_dtd(dtd_ix);
        let mut sa = StaticAnalyzer::new(&dtd);
        let Ok(projector) = sa.project_query_exact(&q) else {
            return; // query text invalid for this grammar — skip
        };
        let doc = generate(&dtd, seed, &GenConfig::default());
        let interp = validate(&doc, &dtd).unwrap();
        let pruned = prune_document(&doc, &dtd, &interp, &projector);
        let Expr::Path(path) = xml_projection::xpath::parse_xpath(&q).unwrap() else {
            unreachable!()
        };
        assert_eq!(
            eval_ids(&doc, &path),
            eval_ids(&pruned, &path),
            "query {} on DTD #{} seed {}", q, dtd_ix, seed
        );
    }

    /// Pruning with the union projector also preserves each query.
    fn union_projector_preserves_both(
        dtd_ix in 0usize..DTDS.len(),
        seed in 0u64..500,
        q1 in query_strategy(),
        q2 in query_strategy(),
    ) {
        let dtd = corpus_dtd(dtd_ix);
        let mut sa = StaticAnalyzer::new(&dtd);
        let (Ok(p1), Ok(p2)) = (sa.project_query_exact(&q1), sa.project_query_exact(&q2)) else {
            return;
        };
        let u = p1.union(&p2);
        let doc = generate(&dtd, seed, &GenConfig::default());
        let interp = validate(&doc, &dtd).unwrap();
        let pruned = prune_document(&doc, &dtd, &interp, &u);
        for q in [&q1, &q2] {
            let Expr::Path(path) = xml_projection::xpath::parse_xpath(q).unwrap() else {
                unreachable!()
            };
            assert_eq!(eval_ids(&doc, &path), eval_ids(&pruned, &path));
        }
    }

    /// Streaming and in-memory pruning agree byte-for-byte.
    fn stream_matches_memory(
        dtd_ix in 0usize..DTDS.len(),
        seed in 0u64..1000,
        q in query_strategy(),
    ) {
        let dtd = corpus_dtd(dtd_ix);
        let mut sa = StaticAnalyzer::new(&dtd);
        let Ok(projector) = sa.project_query(&q) else { return; };
        let doc = generate(&dtd, seed, &GenConfig::default());
        let interp = validate(&doc, &dtd).unwrap();
        let in_mem = prune_document(&doc, &dtd, &interp, &projector).to_xml();
        let (streamed, _) = Projection::from_projector(&dtd, projector).prune_str(&doc.to_xml()).unwrap();
        assert_eq!(in_mem, streamed);
    }

    /// Serialise → parse → serialise is the identity on generated docs.
    fn serialisation_round_trips(dtd_ix in 0usize..DTDS.len(), seed in 0u64..2000) {
        let dtd = corpus_dtd(dtd_ix);
        let doc = generate(&dtd, seed, &GenConfig::default());
        let xml = doc.to_xml();
        let reparsed = xml_projection::xmltree::parse(&xml).unwrap();
        assert_eq!(xml, reparsed.to_xml());
    }

    /// The pruned document is a projection of the original: its size never
    /// exceeds the original's and every kept node maps to an original node
    /// with the same content.
    fn pruned_is_a_projection(
        dtd_ix in 0usize..DTDS.len(),
        seed in 0u64..1000,
        q in query_strategy(),
    ) {
        let dtd = corpus_dtd(dtd_ix);
        let mut sa = StaticAnalyzer::new(&dtd);
        let Ok(projector) = sa.project_query_exact(&q) else { return; };
        let doc = generate(&dtd, seed, &GenConfig::default());
        let interp = validate(&doc, &dtd).unwrap();
        let pruned = prune_document(&doc, &dtd, &interp, &projector);
        assert!(pruned.len() <= doc.len());
        for n in pruned.all_nodes().skip(1) {
            let src = pruned.src_id(n);
            assert_eq!(pruned.tag_name(n), doc.tag_name(src));
            assert_eq!(pruned.text(n), doc.text(src));
            // parent relationships are preserved through src ids
            if let (Some(pp), Some(op)) = (pruned.parent(n), Some(doc.parent(src).unwrap())) {
                if pp != xml_projection::xmltree::NodeId::DOCUMENT {
                    assert_eq!(pruned.src_id(pp), op);
                }
            }
        }
    }

    /// Type soundness (Thm 4.4): every name that actually appears in a
    /// query result on a generated document is in the inferred type.
    fn inferred_type_covers_results(
        dtd_ix in 0usize..DTDS.len(),
        seed in 0u64..1000,
        q in query_strategy(),
    ) {
        let dtd = corpus_dtd(dtd_ix);
        let Ok(expr) = xml_projection::xpath::parse_xpath(&q) else { return; };
        let Expr::Path(path) = expr else { return; };
        let approx = xml_projection::xpath::approx::approximate_query(&path);
        let sa = StaticAnalyzer::new(&dtd);
        let tau = sa.type_of_lpath(&approx.path, approx.absolute);
        let doc = generate(&dtd, seed, &GenConfig::default());
        let interp = validate(&doc, &dtd).unwrap();
        for n in xml_projection::xpath::evaluate(&doc, &path).unwrap() {
            use xml_projection::xpath::eval::XNode;
            if let XNode::Tree(id) = n {
                if let Some(name) = interp.name_of(id) {
                    assert!(
                        tau.contains(name),
                        "result name {} not in inferred type for {}",
                        dtd.label(name), q
                    );
                }
            }
        }
    }

    /// An empty inferred type means the query is empty on every document.
    fn empty_type_means_empty_result(
        dtd_ix in 0usize..DTDS.len(),
        seed in 0u64..300,
        q in query_strategy(),
    ) {
        let dtd = corpus_dtd(dtd_ix);
        let Ok(Expr::Path(path)) = xml_projection::xpath::parse_xpath(&q) else {
            return;
        };
        let approx = xml_projection::xpath::approx::approximate_query(&path);
        let sa = StaticAnalyzer::new(&dtd);
        let tau = sa.type_of_lpath(&approx.path, approx.absolute);
        if tau.is_empty() {
            let doc = generate(&dtd, seed, &GenConfig::default());
            let r = xml_projection::xpath::evaluate(&doc, &path).unwrap();
            assert!(r.is_empty(), "{} typed empty but selected nodes", q);
        }
    }

    /// Projector normalisation keeps the chain property.
    fn projectors_are_chain_closed(
        dtd_ix in 0usize..DTDS.len(),
        q in query_strategy(),
    ) {
        let dtd = corpus_dtd(dtd_ix);
        let mut sa = StaticAnalyzer::new(&dtd);
        let Ok(projector) = sa.project_query(&q) else { return; };
        for n in projector.names().iter() {
            assert!(
                n == dtd.root()
                    || dtd.parents_of(n).iter().any(|p| projector.contains(p)),
                "{} has no parent in the projector",
                dtd.label(n)
            );
        }
        // the formal Def. 2.6 characterisation
        assert!(xml_projection::dtd::chains::is_projector_set(
            &dtd,
            projector.names()
        ));
        let _ = Projector::empty(&dtd);
    }
}
