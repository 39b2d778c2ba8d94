//! W3C XPath 1.0 semantics battery: positional predicates along reverse
//! axes, comparison coercions, function edge cases, document order.

use xproj_xmltree::parse;
use xproj_xpath::ast::Expr;
use xproj_xpath::eval::{
    evaluate, evaluate_expr_within, string_value, unbound, Steps, Value, XNode,
};
use xproj_xpath::parse_xpath;

const DOC: &str = "<r>\
    <a id=\"1\"><x>one</x></a>\
    <a id=\"2\"><x>two</x><x>three</x></a>\
    <a id=\"3\"/>\
    <b><c><d/></c></b>\
    </r>";

fn run(doc: &xproj_xmltree::Document, q: &str) -> Vec<XNode> {
    match parse_xpath(q).unwrap() {
        Expr::Path(p) => evaluate(doc, &p).unwrap(),
        other => panic!("{other:?}"),
    }
}

fn values(doc: &xproj_xmltree::Document, q: &str) -> Vec<String> {
    run(doc, q).iter().map(|&n| string_value(doc, n)).collect()
}

fn expr(doc: &xproj_xmltree::Document, q: &str) -> Value {
    evaluate_expr_within(
        doc,
        &parse_xpath(q).unwrap(),
        XNode::Tree(xproj_xmltree::NodeId::DOCUMENT),
        &unbound,
        &Steps::unbounded(),
    )
    .unwrap()
}

#[test]
fn position_counts_along_reverse_axes() {
    let doc = parse(DOC).unwrap();
    // ancestor::*[1] is the nearest ancestor (reverse document order)
    let r = values(&doc, "//d/ancestor::*[1]");
    assert_eq!(run(&doc, "//d/ancestor::*[1]").len(), 1);
    assert_eq!(
        doc.tag_name(match run(&doc, "//d/ancestor::*[1]")[0] {
            XNode::Tree(id) => id,
            _ => unreachable!(),
        }),
        Some("c")
    );
    let _ = r;
    // preceding-sibling::a[1] from <b> is the *nearest* preceding a (id=3)
    let r2 = run(&doc, "/r/b/preceding-sibling::a[1]");
    assert_eq!(r2.len(), 1);
    let id_attr = doc.tags.get("id").unwrap();
    let XNode::Tree(n) = r2[0] else {
        unreachable!()
    };
    assert_eq!(doc.attribute(n, id_attr), Some("3"));
}

#[test]
fn positional_on_forward_axes() {
    let doc = parse(DOC).unwrap();
    let r = run(&doc, "/r/a[2]/x[2]");
    assert_eq!(values(&doc, "/r/a[2]/x[2]"), vec!["three"]);
    assert_eq!(r.len(), 1);
    assert_eq!(values(&doc, "/r/a[last()]/@id"), vec!["3"]);
}

#[test]
fn predicate_per_context_node() {
    let doc = parse(DOC).unwrap();
    // [1] applies per context node: first x of EACH a
    assert_eq!(values(&doc, "/r/a/x[1]"), vec!["one", "two"]);
}

#[test]
fn results_in_document_order_even_from_reverse_axes() {
    let doc = parse(DOC).unwrap();
    let r = run(&doc, "//d/ancestor::node()");
    // document node, r, b, c — in document order
    let keys: Vec<_> = r.iter().map(|n| n.order_key()).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
    assert_eq!(r.len(), 4);
}

#[test]
fn union_dedups_and_orders() {
    let doc = parse(DOC).unwrap();
    let v = expr(&doc, "count(//x | //a/x | //a)");
    assert_eq!(v, Value::Num(6.0)); // 3 a's + 3 x's
}

#[test]
fn equality_coercions() {
    let doc = parse(DOC).unwrap();
    // number = node-set: existential over string-values converted to num
    assert_eq!(expr(&doc, "//a/@id = 2"), Value::Bool(true));
    assert_eq!(expr(&doc, "//a/@id = 7"), Value::Bool(false));
    // string = node-set
    assert_eq!(expr(&doc, "//x = \"two\""), Value::Bool(true));
    // boolean = node-set (effective boolean of the set)
    assert_eq!(expr(&doc, "(//zzz) = false()"), Value::Bool(true));
    // node-set vs node-set: exists a pair with equal string values
    assert_eq!(expr(&doc, "//x = //x"), Value::Bool(true));
    assert_eq!(expr(&doc, "//x = //a/@id"), Value::Bool(false));
}

#[test]
fn relational_flipping() {
    let doc = parse(DOC).unwrap();
    assert_eq!(expr(&doc, "//a/@id < 3"), Value::Bool(true));
    assert_eq!(expr(&doc, "3 > //a/@id"), Value::Bool(true));
    assert_eq!(expr(&doc, "3 < //a/@id"), Value::Bool(false));
    assert_eq!(expr(&doc, "0 >= //a/@id"), Value::Bool(false));
    // node-set vs boolean: the node-set is boolean() first (§3.4)
    let doc = parse("<r><a>0</a></r>").unwrap();
    assert_eq!(expr(&doc, "/r/a > false()"), Value::Bool(true));
    assert_eq!(expr(&doc, "/r/a >= true()"), Value::Bool(true));
    assert_eq!(expr(&doc, "/r/a < true()"), Value::Bool(false));
    assert_eq!(expr(&doc, "true() <= /r/a"), Value::Bool(true));
    assert_eq!(expr(&doc, "/r/zzz < true()"), Value::Bool(true));
}

#[test]
fn arithmetic_and_nan() {
    let doc = parse(DOC).unwrap();
    assert_eq!(expr(&doc, "7 mod 3"), Value::Num(1.0));
    assert_eq!(expr(&doc, "7 div 2"), Value::Num(3.5));
    // string-value of <a id="1"> is "one" → NaN
    match expr(&doc, "number(/r/a)") {
        Value::Num(n) => assert!(n.is_nan()),
        other => panic!("{other:?}"),
    }
    // NaN comparisons are false
    assert_eq!(expr(&doc, "number(/r/a) < 1"), Value::Bool(false));
    assert_eq!(expr(&doc, "number(/r/a) >= 1"), Value::Bool(false));
}

#[test]
fn boolean_functions() {
    let doc = parse(DOC).unwrap();
    assert_eq!(expr(&doc, "not(//zzz)"), Value::Bool(true));
    assert_eq!(expr(&doc, "boolean(//a)"), Value::Bool(true));
    assert_eq!(expr(&doc, "boolean(0)"), Value::Bool(false));
    assert_eq!(expr(&doc, "boolean(\"\")"), Value::Bool(false));
    assert_eq!(expr(&doc, "true() and not(false())"), Value::Bool(true));
}

#[test]
fn string_value_of_elements_concatenates() {
    let doc = parse(DOC).unwrap();
    assert_eq!(expr(&doc, "string(/r/a[2])"), Value::Str("twothree".into()));
    assert_eq!(expr(&doc, "string-length(/r/a[2])"), Value::Num(8.0));
}

#[test]
fn attribute_results_and_names() {
    let doc = parse(DOC).unwrap();
    assert_eq!(values(&doc, "//a/@id"), vec!["1", "2", "3"]);
    assert_eq!(expr(&doc, "name(//a/@id)"), Value::Str("id".into()));
    assert_eq!(expr(&doc, "name(//a)"), Value::Str("a".into()));
    assert_eq!(expr(&doc, "count(//@id)"), Value::Num(3.0));
}

#[test]
fn descendant_or_self_vs_descendant() {
    let doc = parse(DOC).unwrap();
    assert_eq!(run(&doc, "/r/b/descendant::*").len(), 2);
    assert_eq!(run(&doc, "/r/b/descendant-or-self::*").len(), 3);
}

#[test]
fn following_and_preceding_partition() {
    let doc = parse(DOC).unwrap();
    // for any node: self + ancestors + descendants + following + preceding
    // partition the tree nodes (excluding attrs and the document node)
    let all = run(&doc, "//node()").len() + 1; // + document node
    for probe in ["//c", "/r/a[2]/x[1]", "/r"] {
        let selfn = 1;
        let anc = run(&doc, &format!("{probe}/ancestor::node()")).len();
        let desc = run(&doc, &format!("{probe}/descendant::node()")).len();
        let fol = run(&doc, &format!("{probe}/following::node()")).len();
        let pre = run(&doc, &format!("{probe}/preceding::node()")).len();
        assert_eq!(selfn + anc + desc + fol + pre, all, "{probe}");
    }
}

#[test]
fn substring_edge_cases() {
    let doc = parse("<a>hello</a>").unwrap();
    assert_eq!(expr(&doc, "substring(/a, 0)"), Value::Str("hello".into()));
    assert_eq!(expr(&doc, "substring(/a, 2)"), Value::Str("ello".into()));
    assert_eq!(expr(&doc, "substring(/a, 1, 0)"), Value::Str("".into()));
    assert_eq!(expr(&doc, "substring(/a, 99)"), Value::Str("".into()));
    // the worked examples of XPath 1.0 §4.2
    for (q, want) in [
        ("substring(\"12345\", 2, 3)", "234"),
        ("substring(\"12345\", 2)", "2345"),
        ("substring(\"12345\", 1.5, 2.6)", "234"),
        ("substring(\"12345\", 0, 3)", "12"),
        ("substring(\"12345\", 0 div 0, 3)", ""),
        ("substring(\"12345\", 1, 0 div 0)", ""),
        ("substring(\"12345\", -42, 1 div 0)", "12345"),
        ("substring(\"12345\", -1 div 0, 1 div 0)", ""),
    ] {
        assert_eq!(expr(&doc, q), Value::Str(want.into()), "{q}");
    }
}

#[test]
fn sum_and_round() {
    let doc = parse("<r><v>1.4</v><v>2.6</v></r>").unwrap();
    assert_eq!(expr(&doc, "sum(//v)"), Value::Num(4.0));
    assert_eq!(expr(&doc, "round(2.5)"), Value::Num(3.0));
    assert_eq!(expr(&doc, "floor(2.9)"), Value::Num(2.0));
    assert_eq!(expr(&doc, "ceiling(2.1)"), Value::Num(3.0));
    // XPath 1.0 §4.4: halves round toward +∞, [-0.5, 0) rounds to -0
    assert_eq!(expr(&doc, "round(-1.5)"), Value::Num(-1.0));
    assert_eq!(expr(&doc, "round(-2.5)"), Value::Num(-2.0));
    assert_eq!(expr(&doc, "round(0.5)"), Value::Num(1.0));
    assert_eq!(expr(&doc, "round(-0.6)"), Value::Num(-1.0));
    assert_eq!(
        expr(&doc, "1 div round(-0.5)"),
        Value::Num(f64::NEG_INFINITY)
    );
    assert_eq!(
        expr(&doc, "1 div round(-0.2)"),
        Value::Num(f64::NEG_INFINITY)
    );
    assert_eq!(expr(&doc, "1 div round(0.2)"), Value::Num(f64::INFINITY));
    assert_eq!(expr(&doc, "round(1 div 0)"), Value::Num(f64::INFINITY));
    assert_eq!(expr(&doc, "round(-1 div 0)"), Value::Num(f64::NEG_INFINITY));
    match expr(&doc, "round(0 div 0)") {
        Value::Num(n) => assert!(n.is_nan()),
        other => panic!("{other:?}"),
    }
}

#[test]
fn chained_predicates_apply_in_order() {
    let doc = parse("<r><a/><a k=\"1\"/><a/><a k=\"1\"/></r>").unwrap();
    // [@k][2]: second among those with @k
    let r = run(&doc, "/r/a[@k][2]");
    assert_eq!(r.len(), 1);
    let XNode::Tree(n) = r[0] else { unreachable!() };
    // it is the 4th a overall
    assert_eq!(run(&doc, "/r/a[4]"), vec![XNode::Tree(n)]);
    // [2][@k]: the second a, if it has @k
    assert_eq!(run(&doc, "/r/a[2][@k]").len(), 1);
    assert_eq!(run(&doc, "/r/a[3][@k]").len(), 0);
}

#[test]
fn substring_before_after() {
    let doc = parse("<a>1999/04/01</a>").unwrap();
    assert_eq!(
        expr(&doc, "substring-before(/a, \"/\")"),
        Value::Str("1999".into())
    );
    assert_eq!(
        expr(&doc, "substring-after(/a, \"/\")"),
        Value::Str("04/01".into())
    );
    assert_eq!(
        expr(&doc, "substring-before(/a, \"x\")"),
        Value::Str("".into())
    );
    assert_eq!(
        expr(&doc, "substring-after(/a, \"x\")"),
        Value::Str("".into())
    );
}

#[test]
fn translate() {
    let doc = parse("<a>bar</a>").unwrap();
    assert_eq!(
        expr(&doc, "translate(/a, \"abc\", \"ABC\")"),
        Value::Str("BAr".into())
    );
    // shorter replacement removes characters
    assert_eq!(
        expr(&doc, "translate(/a, \"ar\", \"A\")"),
        Value::Str("bA".into())
    );
}

/// `number()` reads XPath 1.0's `Number` production (§4.4): optional
/// whitespace and minus sign around digits with an optional fraction.
/// Exponents, a plus sign and the names of infinities are NaN, in
/// `number()` and in a comparison on document text alike.
#[test]
fn number_reads_the_xpath_number_production() {
    let doc = parse("<r><q>1e3</q><q>+5</q><q>infinity</q><q> -2.5 </q></r>").unwrap();
    let num = |q: &str| match expr(&doc, q) {
        Value::Num(n) => n,
        other => panic!("{q}: {other:?}"),
    };
    for q in [
        "number('1e3')",
        "number('+5')",
        "number('infinity')",
        "number('Infinity')",
        "number('')",
        "number('-')",
        "number('.')",
        "number('1.2.3')",
        "number('0x10')",
    ] {
        assert!(num(q).is_nan(), "{q}");
    }
    assert_eq!(num("number(' -2.5 ')"), -2.5);
    assert_eq!(num("number('\t7.\n')"), 7.0);
    assert_eq!(num("number('.5')"), 0.5);
    assert_eq!(num("number(/r/q[4])"), -2.5);
    assert_eq!(expr(&doc, "number('infinity') > 1"), Value::Bool(false));
    assert_eq!(expr(&doc, "count(/r/q[. > 1])"), Value::Num(0.0));
    assert_eq!(expr(&doc, "count(/r/q[. < 0])"), Value::Num(1.0));
}

/// Every call names a function of the one table with an arity it
/// takes, or the query does not parse (XQuery's XPST0017), wherever the
/// call sits.
#[test]
fn unknown_functions_and_bad_arities_do_not_parse() {
    for (q, offset) in [
        ("foo(1)", 0),
        ("true(1)", 0),
        ("/a[count() = 1]", 3),
        ("/a[false() and foo(1)]", 15),
        ("fn:substring('a')", 0),
        ("concat()", 0),
        ("fn:text(.)", 0),
    ] {
        let err = parse_xpath(q).unwrap_err();
        assert_eq!(err.offset, offset, "{q}");
        assert!(err.message.contains("XPST0017"), "{q}: {err}");
    }
    assert_eq!(parse_xpath("fn:count(/a)"), parse_xpath("count(/a)"));
    assert_eq!(parse_xpath("data(/a)"), parse_xpath("string(/a)"));
}

/// A sequence XPath 1.0 cannot produce is read by the node-set rules.
#[test]
fn other_sequences_read_by_the_node_set_rules() {
    let doc = parse(DOC).unwrap();
    let seq = Value::Items(vec![
        xproj_xpath::eval::Item::Num(1.0),
        xproj_xpath::eval::Item::Str("two".into()),
    ]);
    let with = |q: &str| {
        let vars = |name: &str| match name {
            "s" => Ok(seq.clone()),
            other => unbound(other),
        };
        let e = parse_xpath(q).unwrap();
        let ctx = XNode::Tree(xproj_xmltree::NodeId::DOCUMENT);
        evaluate_expr_within(&doc, &e, ctx, &vars, &Steps::unbounded()).unwrap()
    };
    assert_eq!(with("$s = 1"), Value::Bool(true));
    assert_eq!(with("$s = 'two'"), Value::Bool(true));
    assert_eq!(with("$s = 'one'"), Value::Bool(false));
    assert_eq!(with("$s = //x"), Value::Bool(true));
    assert_eq!(with("$s = false()"), Value::Bool(false));
    assert_eq!(with("string($s)"), Value::Str("1".into()));
    assert_eq!(with("number($s) + 1"), Value::Num(2.0));
    assert_eq!(with("boolean($s)"), Value::Bool(true));
    assert_eq!(with("count($s)"), Value::Num(2.0));
    assert_eq!(with("exists($s) and not(empty($s))"), Value::Bool(true));
}
