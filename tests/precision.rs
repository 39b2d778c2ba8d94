//! Precision and completeness (Theorem 4.7) checks.
//!
//! On \*-guarded, non-recursive, parent-unambiguous DTDs and
//! strongly-specified queries the inferred projector is *optimal*: making
//! it any smaller (removing a name and its descendants) changes the
//! result of the query on some valid document. We check this empirically
//! by sampling documents, and we pin down exact projector contents on
//! hand-computed examples (including the paper's own).

use xml_projection::core::{prune_document, Projector, StaticAnalyzer};
use xml_projection::dtd::generate::generate;
use xml_projection::dtd::{parse_dtd, props, validate, Dtd};
use xml_projection::xpath::ast::Expr;

const BOOKS: &str = "\
    <!ELEMENT bib (book*)>\
    <!ELEMENT book (title, author*, price?)>\
    <!ELEMENT title (#PCDATA)>\
    <!ELEMENT author (#PCDATA)>\
    <!ELEMENT price (#PCDATA)>";

fn labels(dtd: &Dtd, p: &Projector) -> Vec<String> {
    p.labels(dtd).iter().map(|s| s.to_string()).collect()
}

#[test]
fn books_dtd_is_completeness_ready() {
    let dtd = parse_dtd(BOOKS, "bib").unwrap();
    assert!(props::properties(&dtd).completeness_ready());
}

#[test]
fn golden_projectors_on_books() {
    let dtd = parse_dtd(BOOKS, "bib").unwrap();
    let mut sa = StaticAnalyzer::new(&dtd);
    let cases: &[(&str, &[&str])] = &[
        ("/bib/book/title", &["bib", "book", "title"]),
        ("/bib/book/author", &["author", "bib", "book"]),
        ("/bib/book[price]/title", &["bib", "book", "price", "title"]),
        ("//title", &["bib", "book", "title"]),
        (
            "/bib/book/title/text()",
            &["bib", "book", "title", "title#text"],
        ),
        (
            "/bib/book/author/parent::node()",
            &["author", "bib", "book"],
        ),
        // impossible query: everything is pruned
        ("/bib/zzz", &[]),
    ];
    for (q, expected) in cases {
        let p = sa.project_query_exact(q).unwrap();
        assert_eq!(&labels(&dtd, &p), expected, "query {q}");
    }
}

#[test]
fn golden_projectors_materialized() {
    let dtd = parse_dtd(BOOKS, "bib").unwrap();
    let mut sa = StaticAnalyzer::new(&dtd);
    let p = sa.project_query("/bib/book/title").unwrap();
    assert_eq!(labels(&dtd, &p), vec!["bib", "book", "title", "title#text"]);
    let p2 = sa.project_query("/bib/book").unwrap();
    // whole book subtrees survive
    assert_eq!(
        labels(&dtd, &p2),
        vec![
            "author",
            "author#text",
            "bib",
            "book",
            "price",
            "price#text",
            "title",
            "title#text"
        ]
    );
}

/// The condition `[price]` is purely structural: only the `price`
/// element itself is needed to decide it, not its text content — the
/// exact projector stays at the 4-name optimum.
#[test]
fn predicate_condition_overhead_is_bounded() {
    let dtd = parse_dtd(BOOKS, "bib").unwrap();
    let mut sa = StaticAnalyzer::new(&dtd);
    let p = sa.project_query_exact("/bib/book[price]/title").unwrap();
    assert_eq!(p.len(), 4);
}

/// Empirical Thm 4.7: dropping any name (with its descendants) from the
/// exact projector changes some query answer on some sampled document.
#[test]
fn exact_projectors_are_empirically_minimal() {
    let dtd = parse_dtd(BOOKS, "bib").unwrap();
    let mut sa = StaticAnalyzer::new(&dtd);
    let queries = [
        "/bib/book/title",
        "/bib/book[price]/title",
        "/bib/book/author",
    ];
    for q in queries {
        let projector = sa.project_query_exact(q).unwrap();
        let Expr::Path(path) = xml_projection::xpath::parse_xpath(q).unwrap() else {
            unreachable!()
        };
        for y in projector.names().iter() {
            // π \ ({Y} ∪ descendants(Y))
            let mut smaller = projector.names().clone();
            smaller.remove(y);
            smaller.difference_with(dtd.descendants_of(y));
            let smaller = Projector::normalized(&dtd, smaller);
            // find a witness document among samples
            let mut witnessed = false;
            for seed in 0..40u64 {
                let doc = generate(&dtd, seed, &Default::default());
                let interp = validate(&doc, &dtd).unwrap();
                let full = prune_document(&doc, &dtd, &interp, &projector);
                let cut = prune_document(&doc, &dtd, &interp, &smaller);
                let rf: Vec<_> = xml_projection::xpath::evaluate(&full, &path)
                    .unwrap()
                    .iter()
                    .map(|n| full.src_id(n.tree_node()))
                    .collect();
                let rc: Vec<_> = xml_projection::xpath::evaluate(&cut, &path)
                    .unwrap()
                    .iter()
                    .map(|n| cut.src_id(n.tree_node()))
                    .collect();
                if rf != rc {
                    witnessed = true;
                    break;
                }
            }
            assert!(
                witnessed,
                "query {q}: removing {} from the projector is undetected — \
                 projector not minimal",
                dtd.label(y)
            );
        }
    }
}

/// The paper's §4.2 motivating example: for `descendant::node()/Path` the
/// naive union-of-step-types keeps everything; the Fig. 2 rules discard
/// descendants that are not ancestors-of-matches.
#[test]
fn descendant_inference_is_selective() {
    let dtd = parse_dtd(
        "<!ELEMENT r (x, y)>\
         <!ELEMENT x (u?)>\
         <!ELEMENT y (v?)>\
         <!ELEMENT u EMPTY>\
         <!ELEMENT v EMPTY>",
        "r",
    )
    .unwrap();
    let mut sa = StaticAnalyzer::new(&dtd);
    let p = sa.project_query_exact("//v").unwrap();
    let l = labels(&dtd, &p);
    assert_eq!(l, vec!["r", "v", "y"]);
}

/// The paper's strong-specification counterexamples (§4.2): queries that
/// are *not* strongly specified lose completeness but stay sound.
#[test]
fn non_strongly_specified_queries_stay_sound() {
    // {X → a[Y,W], W → c[], Y → b[Z], Z → d[]}
    let dtd = parse_dtd(
        "<!ELEMENT a (b, c)> <!ELEMENT b (d)> <!ELEMENT c EMPTY> <!ELEMENT d EMPTY>",
        "a",
    )
    .unwrap();
    let mut sa = StaticAnalyzer::new(&dtd);
    // self::a[child::node()] — condition Test is node: keeps c too
    let p = sa.project_query_exact("self::a[child::node()]").unwrap();
    let l = labels(&dtd, &p);
    assert!(l.contains(&"a".to_string()));
    // optimal would be {a, b}; the paper predicts c creeps in
    assert!(l.contains(&"c".to_string()) || l.contains(&"b".to_string()));
    // soundness on samples
    for seed in 0..10u64 {
        let doc = generate(&dtd, seed, &Default::default());
        let interp = validate(&doc, &dtd).unwrap();
        let pruned = prune_document(&doc, &dtd, &interp, &p);
        let Expr::Path(path) =
            xml_projection::xpath::parse_xpath("self::a[child::node()]").unwrap()
        else {
            unreachable!()
        };
        // relative query: evaluate from the root element
        let root = doc.root_element().unwrap();
        let proot = pruned.root_element();
        let orig = eval_from(&doc, root, &path);
        let prun = proot
            .map(|r| eval_from(&pruned, r, &path))
            .unwrap_or_default();
        let orig_ids: Vec<_> = orig.iter().map(|n| doc.src_id(n.tree_node())).collect();
        let prun_ids: Vec<_> = prun.iter().map(|n| pruned.src_id(n.tree_node())).collect();
        assert_eq!(orig_ids, prun_ids, "seed {seed}");
    }
}

fn eval_from(
    doc: &xml_projection::xmltree::Document,
    start: xml_projection::xmltree::NodeId,
    path: &xml_projection::xpath::ast::LocationPath,
) -> Vec<xml_projection::xpath::eval::XNode> {
    use xml_projection::xpath::eval::{evaluate_expr_within, unbound, Steps, Value, XNode};
    let expr = Expr::Path(path.clone());
    let steps = Steps::unbounded();
    match evaluate_expr_within(doc, &expr, XNode::Tree(start), &unbound, &steps).unwrap() {
        Value::Nodes(ns) => ns,
        _ => unreachable!(),
    }
}

#[test]
fn table_query_types_match_paper_discussion() {
    // XMark: queries over people only never keep descriptions (the
    // size-dominating part) — this is what drives the big Table 1 gains.
    let dtd = xml_projection::xmark::auction_dtd();
    let mut sa = StaticAnalyzer::new(&dtd);
    let p = sa
        .project_query("/site/people/person[phone or homepage]/name")
        .unwrap();
    let l = labels(&dtd, &p);
    assert!(!l.contains(&"description".to_string()), "{l:?}");
    assert!(!l.contains(&"keyword".to_string()));
    assert!(l.contains(&"phone".to_string()));
    // while description-hungry queries do keep them
    let p2 = sa.project_query("//item/description").unwrap();
    let l2 = labels(&dtd, &p2);
    assert!(l2.contains(&"description".to_string()));
    assert!(l2.contains(&"keyword".to_string()));
    assert!(!l2.contains(&"person".to_string()), "{l2:?}");
}
