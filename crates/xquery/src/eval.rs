//! Evaluator for the XQuery FLWR core.
//!
//! Produces a serialised result sequence. In the experiments this plays
//! the same role Galax plays in the paper: the engine we run over the
//! original and the pruned document, whose outputs must be identical
//! (the XQuery extraction of Fig. 3 adds `descendant-or-self::node()` to
//! every materialised path precisely so that serialisation survives
//! pruning).

use crate::ast::XQuery;
use std::fmt::Write as _;
use std::slice;
use xproj_xmltree::document::{escape_attr, escape_text};
use xproj_xmltree::Document;
use xproj_xmltree::NodeId;
use xproj_xpath::ast::Expr;
use xproj_xpath::eval::{evaluate_expr_within, string_value, unbound, Halt, Steps, Value, XNode};

/// Evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XQueryError(pub String);

impl std::fmt::Display for XQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XQuery evaluation error: {}", self.0)
    }
}

impl std::error::Error for XQueryError {}

/// A constructed tree (element construction builds these bottom-up).
enum OutTree {
    /// Element with (copied) attributes and children.
    Elem {
        /// Tag name.
        tag: String,
        /// Attributes (name, value).
        attrs: Vec<(String, String)>,
        /// Children in order.
        children: Vec<OutTree>,
    },
    /// Text node.
    Text(String),
}

impl OutTree {
    fn serialize_into(&self, out: &mut String) {
        match self {
            OutTree::Text(s) => escape_text(s, out),
            OutTree::Elem {
                tag,
                attrs,
                children,
            } => {
                out.push('<');
                out.push_str(tag);
                for (k, v) in attrs {
                    let _ = write!(out, " {k}=\"");
                    escape_attr(v, out);
                    out.push('"');
                }
                if children.is_empty() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    for c in children {
                        c.serialize_into(out);
                    }
                    out.push_str("</");
                    out.push_str(tag);
                    out.push('>');
                }
            }
        }
    }
}

/// One item of a result sequence.
enum Item {
    /// A node of the queried document.
    Node(XNode),
    /// A constructed tree.
    Built(OutTree),
    /// An atomic string.
    Str(String),
    /// An atomic number.
    Num(f64),
    /// An atomic boolean.
    Bool(bool),
}

impl Item {
    /// True for atomic (non-node, non-constructed) items.
    fn is_atom(&self) -> bool {
        matches!(self, Item::Str(_) | Item::Num(_) | Item::Bool(_))
    }

    /// The atom's string, or a node's string-value, its walk or the
    /// string's bytes charged.
    fn atom_string(&self, doc: &Document, steps: &Steps) -> Result<String, Halt> {
        Ok(match self {
            Item::Str(s) => {
                steps.charge_bytes(s.len())?;
                s.clone()
            }
            Item::Num(n) => Value::Num(*n).to_str(doc),
            Item::Bool(b) => b.to_string(),
            Item::Node(n) => {
                steps.charge_walk(doc, *n)?;
                string_value(doc, *n)
            }
            Item::Built(_) => unreachable!("atom_string on built tree"),
        })
    }
}

/// Evaluates a query against a document and serialises the result
/// sequence (nodes serialise their whole subtree; adjacent atoms are
/// separated by a single space, per XQuery serialisation).
pub fn evaluate_query(doc: &Document, q: &XQuery) -> Result<String, XQueryError> {
    match eval(doc, q, None, &Steps::unbounded()) {
        Ok(items) => Ok(serialize_items(doc, &items)),
        Err(Halt::Error(m)) => Err(XQueryError(m)),
        Err(Halt::OverBudget) => unreachable!("an unbudgeted evaluation cannot overrun"),
    }
}

/// Evaluates a query and serialises each result item on its own (the
/// per-frame form `/v1/query` ships), with whether it is an atom,
/// charging `steps` for the evaluation, for the nodes serialisation
/// walks and for the bytes it writes. An error is [`Halt::Error`] with the message
/// [`XQueryError`] would carry.
pub fn evaluate_query_within(
    doc: &Document,
    q: &XQuery,
    steps: &Steps,
) -> Result<Vec<(bool, String)>, Halt> {
    let items = eval(doc, q, None, steps)?;
    let mut out = Vec::with_capacity(items.len());
    for it in &items {
        if let Item::Node(n) = it {
            steps.charge_walk(doc, *n)?;
        }
        let text = serialize_item(doc, it);
        // Writing it, and the caller's framing of it, read it again.
        steps.charge_bytes(text.len())?;
        out.push((it.is_atom(), text));
    }
    Ok(out)
}

/// Serialises one result item in isolation — the per-frame form the
/// streaming `/v1/query` endpoint ships as x-ndjson match frames. The
/// caller owns the sequence-level spacing rule: a single space goes
/// between *adjacent atoms* ([`Item::is_atom`]), nothing elsewhere, so
/// concatenating per-item strings under that rule reproduces
/// [`serialize_items`] exactly.
fn serialize_item(doc: &Document, item: &Item) -> String {
    let mut out = String::new();
    match item {
        Item::Node(n) => match n {
            XNode::Tree(id) => out.push_str(&doc.subtree_to_xml(*id)),
            XNode::Attr(id, i) => {
                // serialise an attribute result as its value
                let a = &doc.attributes(*id)[*i as usize];
                escape_text(&a.value, &mut out);
            }
        },
        Item::Built(t) => t.serialize_into(&mut out),
        Item::Str(s) => escape_text(s, &mut out),
        Item::Num(n) => escape_text(&Value::Num(*n).to_str(doc), &mut out),
        Item::Bool(b) => escape_text(&b.to_string(), &mut out),
    }
    out
}

/// Serialises a result sequence.
fn serialize_items(doc: &Document, items: &[Item]) -> String {
    let mut out = String::new();
    let mut prev_atom = false;
    for it in items {
        if prev_atom && it.is_atom() {
            out.push(' ');
        }
        out.push_str(&serialize_item(doc, it));
        prev_atom = it.is_atom();
    }
    out
}

/// A variable scope: its innermost frame, or `None` outside every
/// binding.
type Scope<'a> = Option<&'a Frame<'a>>;

/// One `for`, `let`, `order by` or quantifier binding: the variable,
/// the items it borrows from the evaluation that bound it, and the scope
/// it shadows.
struct Frame<'a> {
    var: &'a str,
    items: &'a [Item],
    outer: Scope<'a>,
}

impl<'a> Frame<'a> {
    fn new(var: &'a str, items: &'a [Item], outer: Scope<'a>) -> Frame<'a> {
        Frame { var, items, outer }
    }
}

/// The value XPath reads for `$name`: the items of the innermost frame
/// binding it, in place — nodes as a node-set, one atom as that atom.
fn lookup(scope: Scope<'_>, name: &str) -> Result<Value, Halt> {
    let Some(frame) = std::iter::successors(scope, |f| f.outer).find(|f| f.var == name) else {
        return unbound(name);
    };
    Ok(match frame.items {
        [Item::Str(s)] => Value::Str(s.clone()),
        [Item::Num(n)] => Value::Num(*n),
        [Item::Bool(b)] => Value::Bool(*b),
        items => Value::Nodes(
            items
                .iter()
                .map(|it| match it {
                    Item::Node(n) => Ok(*n),
                    _ => Err(Halt::Error(format!(
                        "variable ${name} holds constructed content and cannot be navigated"
                    ))),
                })
                .collect::<Result<_, _>>()?,
        ),
    })
}

/// Evaluates an XPath expression from the document node in `scope`.
fn xpath(doc: &Document, e: &Expr, scope: Scope<'_>, steps: &Steps) -> Result<Value, Halt> {
    let ctx = XNode::Tree(NodeId::DOCUMENT);
    evaluate_expr_within(doc, e, ctx, &|name| lookup(scope, name), steps)
}

/// Effective boolean value of a condition query. Expressions use the
/// XPath rules; other queries use their item sequence (empty = false,
/// single atom = its boolean, otherwise true).
fn query_bool(doc: &Document, q: &XQuery, scope: Scope<'_>, steps: &Steps) -> Result<bool, Halt> {
    match q {
        XQuery::Expr(e) => Ok(xpath(doc, e, scope, steps)?.to_bool()),
        other => {
            let items = eval(doc, other, scope, steps)?;
            Ok(match items.as_slice() {
                [] => false,
                [Item::Bool(b)] => *b,
                [Item::Num(n)] => *n != 0.0 && !n.is_nan(),
                [Item::Str(s)] => !s.is_empty(),
                _ => true,
            })
        }
    }
}

fn eval(doc: &Document, q: &XQuery, scope: Scope<'_>, steps: &Steps) -> Result<Vec<Item>, Halt> {
    match q {
        XQuery::Empty => Ok(Vec::new()),
        // Literal constructor text is verbatim content, not an atomised
        // value: it must not participate in atom space-separation.
        XQuery::Text(s) => {
            steps.charge_bytes(s.len())?;
            Ok(vec![Item::Built(OutTree::Text(s.clone()))])
        }
        XQuery::Sequence(qs) => {
            let mut out = Vec::new();
            for sub in qs {
                out.extend(eval(doc, sub, scope, steps)?);
            }
            Ok(out)
        }
        XQuery::Element { tag, content } => {
            let items = eval(doc, content, scope, steps)?;
            let mut children = Vec::new();
            let mut atom_buf = String::new();
            for it in items {
                match it {
                    Item::Node(n @ XNode::Tree(id)) => {
                        flush_atoms(&mut atom_buf, &mut children);
                        steps.charge_walk(doc, n)?;
                        children.push(copy_subtree(doc, id));
                    }
                    Item::Node(n @ XNode::Attr(id, i)) => {
                        steps.charge_walk(doc, n)?;
                        let a = &doc.attributes(id)[i as usize];
                        push_atom(&mut atom_buf, a.value.as_ref());
                    }
                    Item::Built(t) => {
                        flush_atoms(&mut atom_buf, &mut children);
                        children.push(t);
                    }
                    atom => push_atom(&mut atom_buf, &atom.atom_string(doc, steps)?),
                }
            }
            flush_atoms(&mut atom_buf, &mut children);
            Ok(vec![Item::Built(OutTree::Elem {
                tag: tag.clone(),
                attrs: Vec::new(),
                children,
            })])
        }
        XQuery::Expr(e) => Ok(match xpath(doc, e, scope, steps)? {
            Value::Nodes(ns) => ns.into_iter().map(Item::Node).collect(),
            Value::Str(s) => vec![Item::Str(s)],
            Value::Num(n) => vec![Item::Num(n)],
            Value::Bool(b) => vec![Item::Bool(b)],
        }),
        XQuery::If { cond, then, els } => {
            if query_bool(doc, cond, scope, steps)? {
                eval(doc, then, scope, steps)
            } else {
                eval(doc, els, scope, steps)
            }
        }
        XQuery::Quantified {
            every,
            var,
            source,
            cond,
        } => {
            let src = eval(doc, source, scope, steps)?;
            // every: all-true over ∅; some: false. A binding whose
            // condition differs from `every` decides it.
            for it in &src {
                steps.charge(1)?;
                let frame = Frame::new(var, slice::from_ref(it), scope);
                if query_bool(doc, cond, Some(&frame), steps)? != *every {
                    return Ok(vec![Item::Bool(!*every)]);
                }
            }
            Ok(vec![Item::Bool(*every)])
        }
        XQuery::For { var, source, body } => {
            let src = eval(doc, source, scope, steps)?;
            let mut out = Vec::new();
            for it in &src {
                steps.charge(1)?;
                let frame = Frame::new(var, slice::from_ref(it), scope);
                out.extend(eval(doc, body, Some(&frame), steps)?);
            }
            Ok(out)
        }
        XQuery::SortedFor {
            var,
            source,
            key,
            descending,
            body,
        } => {
            let src = eval(doc, source, scope, steps)?;
            // Evaluate the sort key per binding; numeric keys sort
            // numerically when every key parses as a number, else
            // lexicographically (XQuery's untyped-atomic behaviour,
            // simplified). Each key is parsed once.
            let mut keyed: Vec<(Option<f64>, String, &Item)> = Vec::with_capacity(src.len());
            for it in &src {
                steps.charge(1)?;
                let frame = Frame::new(var, slice::from_ref(it), scope);
                let k = match xpath(doc, key, Some(&frame), steps)? {
                    Value::Nodes(ns) => match ns.first() {
                        Some(&n) => Item::Node(n).atom_string(doc, steps)?,
                        None => String::new(),
                    },
                    other => other.to_str(doc),
                };
                keyed.push((k.trim().parse().ok(), k, it));
            }
            // The sort makes about n·⌈log₂ n⌉ comparisons, each reading
            // two keys: a step each, and the keys' bytes once a level.
            let levels = (usize::BITS - keyed.len().leading_zeros()) as usize;
            let key_bytes: usize = keyed.iter().map(|(_, k, _)| k.len()).sum();
            steps.charge((keyed.len() * levels) as u64)?;
            steps.charge_bytes(key_bytes.saturating_mul(levels))?;
            if keyed.iter().all(|(x, _, _)| x.is_some()) {
                keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            } else {
                keyed.sort_by(|a, b| a.1.cmp(&b.1));
            }
            if *descending {
                keyed.reverse();
            }
            let mut out = Vec::new();
            for (_, _, it) in keyed {
                steps.charge(1)?;
                let frame = Frame::new(var, slice::from_ref(it), scope);
                out.extend(eval(doc, body, Some(&frame), steps)?);
            }
            Ok(out)
        }
        XQuery::Let { var, value, body } => {
            let items = eval(doc, value, scope, steps)?;
            steps.charge(1)?;
            let frame = Frame::new(var, &items, scope);
            eval(doc, body, Some(&frame), steps)
        }
    }
}

fn push_atom(buf: &mut String, s: &str) {
    if !buf.is_empty() {
        buf.push(' ');
    }
    buf.push_str(s);
}

fn flush_atoms(buf: &mut String, children: &mut Vec<OutTree>) {
    if !buf.is_empty() {
        children.push(OutTree::Text(std::mem::take(buf)));
    }
}

/// Deep copy of an input subtree into a constructed tree.
fn copy_subtree(doc: &Document, id: NodeId) -> OutTree {
    match doc.kind(id) {
        xproj_xmltree::NodeKind::Text(s) => OutTree::Text(s.to_string()),
        xproj_xmltree::NodeKind::Element { tag, attrs } => OutTree::Elem {
            tag: doc.tags.resolve(*tag).to_string(),
            attrs: attrs
                .iter()
                .map(|a| (doc.tags.resolve(a.name).to_string(), a.value.to_string()))
                .collect(),
            children: doc.children(id).map(|c| copy_subtree(doc, c)).collect(),
        },
        xproj_xmltree::NodeKind::Document => OutTree::Elem {
            tag: "#document".to_string(),
            attrs: Vec::new(),
            children: doc.children(id).map(|c| copy_subtree(doc, c)).collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_xquery;
    use xproj_xmltree::parse;

    const DOC: &str = "<site><people>\
        <person><name>Alice</name><age>30</age></person>\
        <person><name>Bob</name><age>20</age></person>\
        </people></site>";

    fn run(doc_src: &str, q: &str) -> String {
        let doc = parse(doc_src).unwrap();
        let query = parse_xquery(q).unwrap();
        evaluate_query(&doc, &query).unwrap()
    }

    #[test]
    fn path_query() {
        assert_eq!(
            run(DOC, "/site/people/person/name"),
            "<name>Alice</name><name>Bob</name>"
        );
    }

    #[test]
    fn for_with_constructor() {
        assert_eq!(
            run(
                DOC,
                "for $p in /site/people/person return <n>{$p/name/text()}</n>"
            ),
            "<n>Alice</n><n>Bob</n>"
        );
    }

    #[test]
    fn where_filter() {
        assert_eq!(
            run(
                DOC,
                "for $p in /site/people/person where $p/age > 25 return $p/name"
            ),
            "<name>Alice</name>"
        );
    }

    #[test]
    fn let_count() {
        assert_eq!(
            run(
                DOC,
                "let $n := count(/site/people/person) return <total>{$n}</total>"
            ),
            "<total>2</total>"
        );
    }

    #[test]
    fn if_else() {
        assert_eq!(
            run(
                DOC,
                "if (count(/site/people/person) > 5) then <big/> else <small/>"
            ),
            "<small/>"
        );
    }

    #[test]
    fn sequences_and_atoms() {
        assert_eq!(run(DOC, "(1, 2, \"x\")"), "1 2 x");
        assert_eq!(run(DOC, "()"), "");
    }

    #[test]
    fn nested_for() {
        let out = run(
            DOC,
            "for $p in /site/people/person return \
             for $n in $p/name return <x>{$n/text()}</x>",
        );
        assert_eq!(out, "<x>Alice</x><x>Bob</x>");
    }

    #[test]
    fn element_deep_copy() {
        let out = run(DOC, "<copy>{/site/people/person[1]}</copy>");
        assert_eq!(
            out,
            "<copy><person><name>Alice</name><age>30</age></person></copy>"
        );
    }

    #[test]
    fn multiplicity_preserved() {
        // one output element per binding, even when content is constant
        assert_eq!(
            run(DOC, "for $p in /site/people/person return <hit/>"),
            "<hit/><hit/>"
        );
    }

    #[test]
    fn unbound_variable() {
        let doc = parse(DOC).unwrap();
        let q = parse_xquery("$nope/name").unwrap();
        assert!(evaluate_query(&doc, &q).is_err());
    }

    #[test]
    fn variable_as_value() {
        assert_eq!(run(DOC, "let $n := 21 return <v>{$n * 2}</v>"), "<v>42</v>");
    }

    #[test]
    fn mixed_text_and_splice() {
        assert_eq!(
            run(DOC, "<r>count: {count(/site/people/person)}!</r>"),
            "<r>count: 2!</r>"
        );
    }
}

#[cfg(test)]
mod order_by_eval_tests {
    use crate::parser::parse_xquery;
    use xproj_xmltree::parse;

    #[test]
    fn sorts_by_string_key() {
        let doc = parse("<r><p><n>carol</n></p><p><n>alice</n></p><p><n>bob</n></p></r>").unwrap();
        let q = parse_xquery("for $p in /r/p order by $p/n/text() return <k>{$p/n/text()}</k>")
            .unwrap();
        assert_eq!(
            super::evaluate_query(&doc, &q).unwrap(),
            "<k>alice</k><k>bob</k><k>carol</k>"
        );
    }

    #[test]
    fn sorts_numerically_when_all_keys_numeric() {
        let doc = parse("<r><v>10</v><v>9</v><v>100</v></r>").unwrap();
        let q = parse_xquery("for $v in /r/v order by $v return <k>{$v/text()}</k>").unwrap();
        // numeric, not lexicographic ("10" < "100" < "9")
        assert_eq!(
            super::evaluate_query(&doc, &q).unwrap(),
            "<k>9</k><k>10</k><k>100</k>"
        );
    }

    #[test]
    fn numeric_keys_with_whitespace_and_signs_sort_as_numbers() {
        let doc = parse("<r><v> 3 </v><v>-10</v><v>+2</v><v> -0.5</v></r>").unwrap();
        let q = parse_xquery("for $v in /r/v order by $v return <k>{$v/text()}</k>").unwrap();
        // numeric, not lexicographic (" -0.5" < " 3 " < "+2" < "-10")
        assert_eq!(
            super::evaluate_query(&doc, &q).unwrap(),
            "<k>-10</k><k> -0.5</k><k>+2</k><k> 3 </k>"
        );
    }

    #[test]
    fn descending_reverses() {
        let doc = parse("<r><v>1</v><v>3</v><v>2</v></r>").unwrap();
        let q = parse_xquery("for $v in /r/v order by $v descending return <k>{$v/text()}</k>")
            .unwrap();
        assert_eq!(
            super::evaluate_query(&doc, &q).unwrap(),
            "<k>3</k><k>2</k><k>1</k>"
        );
    }
}

#[cfg(test)]
mod quantifier_eval_tests {
    use crate::parser::parse_xquery;
    use xproj_xmltree::parse;

    fn run(doc: &str, q: &str) -> String {
        let d = parse(doc).unwrap();
        let p = parse_xquery(q).unwrap();
        super::evaluate_query(&d, &p).unwrap()
    }

    const DOC: &str = "<r><a><v>1</v><v>5</v></a><a><v>1</v></a><a/></r>";

    #[test]
    fn some_is_existential() {
        assert_eq!(
            run(
                DOC,
                "for $a in /r/a where some $v in $a/v satisfies $v > 3 return <hit/>"
            ),
            "<hit/>"
        );
    }

    #[test]
    fn every_is_universal_and_true_on_empty() {
        assert_eq!(
            run(
                DOC,
                "for $a in /r/a where every $v in $a/v satisfies $v >= 1 return <hit/>"
            ),
            "<hit/><hit/><hit/>" // includes the empty <a/>
        );
        assert_eq!(
            run(
                DOC,
                "for $a in /r/a where every $v in $a/v satisfies $v > 1 return <hit/>"
            ),
            "<hit/>" // only the empty one
        );
    }

    #[test]
    fn quantifier_as_value() {
        assert_eq!(run(DOC, "some $v in /r/a/v satisfies $v = 5"), "true");
        assert_eq!(run(DOC, "every $v in /r/a/v satisfies $v = 5"), "false");
    }
}

#[cfg(test)]
mod scoping_tests {
    use crate::parser::parse_xquery;
    use xproj_xmltree::parse;

    fn run(doc: &str, q: &str) -> String {
        let d = parse(doc).unwrap();
        let p = parse_xquery(q).unwrap();
        super::evaluate_query(&d, &p).unwrap()
    }

    #[test]
    fn let_shadows_outer_binding() {
        assert_eq!(
            run("<a/>", "let $x := 1 return (let $x := 2 return $x, $x)"),
            "2 1"
        );
    }

    #[test]
    fn for_over_atom_sequence() {
        assert_eq!(
            run("<a/>", "for $x in (1, 2, 3) return <v>{$x}</v>"),
            "<v>1</v><v>2</v><v>3</v>"
        );
    }

    #[test]
    fn for_variable_not_visible_outside() {
        let d = parse("<a/>").unwrap();
        let q = parse_xquery("(for $x in (1) return $x, $x)").unwrap();
        assert!(super::evaluate_query(&d, &q).is_err());
    }

    #[test]
    fn for_shadows_outer_binding() {
        assert_eq!(
            run(
                "<a/>",
                "for $x in (1, 2) return (for $x in (10) return $x, $x)"
            ),
            "10 1 10 2"
        );
    }

    #[test]
    fn quantifier_shadows_outer_binding() {
        assert_eq!(
            run(
                "<a/>",
                "let $x := 5 return (some $x in (1, 2) satisfies $x = 5, $x)"
            ),
            "false 5"
        );
        assert_eq!(
            run(
                "<a/>",
                "let $x := 5 return every $x in (1) satisfies $x = 1"
            ),
            "true"
        );
    }

    #[test]
    fn let_and_quantifier_variables_not_visible_outside() {
        let d = parse("<a/>").unwrap();
        for q in [
            "(let $x := 1 return $x, $x)",
            "(some $x in (1) satisfies $x = 1, $x)",
            "(for $x in (1) order by $x return $x, $x)",
        ] {
            let err = super::evaluate_query(&d, &parse_xquery(q).unwrap()).unwrap_err();
            assert_eq!(err.0, "unbound variable $x", "{q}");
        }
    }

    #[test]
    fn a_variable_is_resolved_when_it_is_read() {
        assert_eq!(run("<a/>", "false() and $y"), "false");
        assert_eq!(run("<a/>", "if (false()) then $y else 1"), "1");
        let d = parse("<a/>").unwrap();
        let err = super::evaluate_query(&d, &parse_xquery("$y").unwrap()).unwrap_err();
        assert_eq!(err.0, "unbound variable $y");
    }

    #[test]
    fn constructed_content_cannot_be_navigated() {
        let d = parse("<a/>").unwrap();
        for q in [
            "let $x := <b/> return $x/c",
            "for $x in (<b/>) return string($x)",
        ] {
            let err = super::evaluate_query(&d, &parse_xquery(q).unwrap()).unwrap_err();
            assert_eq!(
                err.0, "variable $x holds constructed content and cannot be navigated",
                "{q}"
            );
        }
    }

    #[test]
    fn nested_let_in_for() {
        assert_eq!(
            run(
                "<r><v>2</v><v>3</v></r>",
                "for $v in /r/v let $d := $v * 2 return <x>{$d}</x>"
            ),
            "<x>4</x><x>6</x>"
        );
    }

    #[test]
    fn empty_source_for_loop() {
        assert_eq!(run("<a/>", "for $x in /a/zzz return <v/>"), "");
    }
}
