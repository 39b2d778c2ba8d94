//! Evaluator for the XQuery FLWR core.
//!
//! Produces a serialised result sequence. In the experiments this plays
//! the same role Galax plays in the paper: the engine we run over the
//! original and the pruned document, whose outputs must be identical
//! (the XQuery extraction of Fig. 3 adds `descendant-or-self::node()` to
//! every materialised path precisely so that serialisation survives
//! pruning). Queries and the XPath expressions inside them compute one
//! value model, `xproj_xpath`'s [`Value`] sequences of [`Item`]s.

use crate::ast::XQuery;
use std::rc::Rc;
use xproj_xmltree::document::escape_text;
use xproj_xmltree::Document;
use xproj_xmltree::NodeId;
use xproj_xpath::ast::Expr;
use xproj_xpath::eval::{
    evaluate_expr_within, num_to_str, str_to_num, unbound, Built, Halt, Item, Steps, Value, XNode,
};

/// Evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XQueryError(pub String);

impl std::fmt::Display for XQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XQuery evaluation error: {}", self.0)
    }
}

impl std::error::Error for XQueryError {}

/// Evaluates a query against a document and serialises the result
/// sequence (nodes serialise their whole subtree; adjacent atoms are
/// separated by a single space, per XQuery serialisation).
pub fn evaluate_query(doc: &Document, q: &XQuery) -> Result<String, XQueryError> {
    let items = match eval(doc, q, None, &Steps::unbounded()) {
        Ok(value) => value.into_items(),
        Err(Halt::Error(m)) => return Err(XQueryError(m)),
        Err(Halt::OverBudget) => unreachable!("an unbudgeted evaluation cannot overrun"),
    };
    let mut out = String::new();
    for (i, it) in items.iter().enumerate() {
        if i > 0 && it.is_atom() && items[i - 1].is_atom() {
            out.push(' ');
        }
        serialize(doc, it, &mut out);
    }
    Ok(out)
}

/// Evaluates a query and serialises each result item on its own (the
/// per-frame form `/v1/query` ships), with whether it is an atom (a
/// space goes between adjacent atoms), charging `steps` for the
/// evaluation, the nodes serialisation walks and the bytes it writes. An
/// error is [`Halt::Error`] with the message [`XQueryError`] would carry.
pub fn evaluate_query_within(
    doc: &Document,
    q: &XQuery,
    steps: &Steps,
) -> Result<Vec<(bool, String)>, Halt> {
    let items = eval(doc, q, None, steps)?.into_items();
    let mut out = Vec::with_capacity(items.len());
    for it in &items {
        if let Item::Node(n) = it {
            steps.charge_walk(doc, *n)?;
        }
        let mut text = String::new();
        serialize(doc, it, &mut text);
        // Writing it, and the caller's framing of it, read it again.
        steps.charge_bytes(text.len())?;
        out.push((it.is_atom(), text));
    }
    Ok(out)
}

/// Serialises one item.
fn serialize(doc: &Document, item: &Item, out: &mut String) {
    match item {
        Item::Node(XNode::Tree(id)) => out.push_str(&doc.subtree_to_xml(*id)),
        // An attribute serialises as its value.
        Item::Node(XNode::Attr(id, i)) => escape_text(&doc.attributes(*id)[*i as usize].value, out),
        Item::Built(t) => match &**t {
            Built::Text(s) => escape_text(s, out),
            Built::Elem(tag, children) if children.is_empty() => out.push_str(&format!("<{tag}/>")),
            Built::Elem(tag, children) => {
                out.push_str(&format!("<{tag}>"));
                for c in children {
                    serialize(doc, c, out);
                }
                out.push_str(&format!("</{tag}>"));
            }
        },
        Item::Str(s) => escape_text(s, out),
        Item::Num(n) => escape_text(&num_to_str(*n), out),
        Item::Bool(b) => escape_text(&b.to_string(), out),
    }
}

/// A variable scope: its innermost frame, or `None` outside every
/// binding.
type Scope<'a> = Option<&'a Frame<'a>>;

/// One `for`, `let`, `order by` or quantifier binding: the variable,
/// the value it borrows from the evaluation that bound it, and the scope
/// it shadows.
struct Frame<'a> {
    var: &'a str,
    value: &'a Value,
    outer: Scope<'a>,
}

/// Evaluates an XPath expression from the document node in `scope`: a
/// `$name` it reads is the value of the innermost frame binding it.
fn xpath(doc: &Document, e: &Expr, scope: Scope<'_>, steps: &Steps) -> Result<Value, Halt> {
    let read = |name: &str| match std::iter::successors(scope, |f| f.outer).find(|f| f.var == name)
    {
        Some(frame) => Ok(frame.value.clone()),
        None => unbound(name),
    };
    evaluate_expr_within(doc, e, XNode::Tree(NodeId::DOCUMENT), &read, steps)
}

/// The sequence of the values `parts` produce, in order.
fn concat(parts: impl Iterator<Item = Result<Value, Halt>>) -> Result<Value, Halt> {
    let mut items = Vec::new();
    for part in parts {
        items.extend(part?.into_items());
    }
    Ok(Value::from_items(items))
}

fn eval(doc: &Document, q: &XQuery, scope: Scope<'_>, steps: &Steps) -> Result<Value, Halt> {
    // Evaluates `body` with `var` bound to one item, held in `slot`, a
    // step.
    let each = |slot: &mut Value, var: &str, item: Item, body: &XQuery| {
        steps.charge(1)?;
        slot.set_item(item);
        let frame = Frame {
            var,
            value: slot,
            outer: scope,
        };
        eval(doc, body, Some(&frame), steps)
    };
    let mut slot = Value::Nodes(Vec::new());
    Ok(match q {
        XQuery::Empty => Value::Nodes(Vec::new()),
        // Literal constructor text is verbatim content, not an atomised
        // value: it must not participate in atom space-separation.
        XQuery::Text(s) => {
            steps.charge_bytes(s.len())?;
            Item::Built(Rc::new(Built::Text(s.clone()))).into()
        }
        XQuery::Sequence(qs) => concat(qs.iter().map(|sub| eval(doc, sub, scope, steps)))?,
        XQuery::Element { tag, content } => {
            let mut children = Vec::new();
            let mut atoms = String::new();
            for it in eval(doc, content, scope, steps)?.into_items() {
                match it {
                    Item::Node(XNode::Tree(_)) | Item::Built(_) => {
                        if let Item::Node(n) = it {
                            steps.charge_walk(doc, n)?;
                        }
                        flush_atoms(&mut atoms, &mut children);
                        children.push(it);
                    }
                    // Attributes and atoms join into text.
                    atom => {
                        if !atoms.is_empty() {
                            atoms.push(' ');
                        }
                        atoms.push_str(&Value::from(atom).to_str(doc, steps)?);
                    }
                }
            }
            flush_atoms(&mut atoms, &mut children);
            Item::Built(Rc::new(Built::Elem(tag.clone(), children))).into()
        }
        XQuery::Expr(e) => xpath(doc, e, scope, steps)?,
        XQuery::If { cond, then, els } => {
            let branch = if eval(doc, cond, scope, steps)?.to_bool() {
                then
            } else {
                els
            };
            eval(doc, branch, scope, steps)?
        }
        XQuery::Quantified {
            every,
            var,
            source,
            cond,
        } => {
            // every: all-true over ∅; some: false. A binding whose
            // condition differs from `every` decides it.
            for item in eval(doc, source, scope, steps)?.into_items() {
                if each(&mut slot, var, item, cond)?.to_bool() != *every {
                    return Ok(Value::Bool(!*every));
                }
            }
            Value::Bool(*every)
        }
        XQuery::For { var, source, body } => {
            let items = eval(doc, source, scope, steps)?.into_items();
            concat(
                items
                    .into_iter()
                    .map(|item| each(&mut slot, var, item, body)),
            )?
        }
        XQuery::SortedFor {
            var,
            source,
            key,
            descending,
            body,
        } => {
            let items = eval(doc, source, scope, steps)?.into_items();
            // Evaluate the sort key per binding; keys sort as numbers
            // when every key is one (XPath's string-to-number rule),
            // else as strings (XQuery's untyped-atomic behaviour,
            // simplified). Each key is converted once.
            let mut keyed: Vec<(f64, String, usize)> = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                steps.charge(1)?;
                slot.set_item(item.clone());
                let frame = Frame {
                    var,
                    value: &slot,
                    outer: scope,
                };
                let k = xpath(doc, key, Some(&frame), steps)?.to_str(doc, steps)?;
                keyed.push((str_to_num(&k), k, i));
            }
            // The sort makes about n·⌈log₂ n⌉ comparisons, each reading
            // two keys: a step each, and the keys' bytes once a level.
            let levels = (usize::BITS - keyed.len().leading_zeros()) as usize;
            let key_bytes: usize = keyed.iter().map(|(_, k, _)| k.len()).sum();
            steps.charge((keyed.len() * levels) as u64)?;
            steps.charge_bytes(key_bytes.saturating_mul(levels))?;
            if keyed.iter().all(|(x, _, _)| !x.is_nan()) {
                keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
            } else {
                keyed.sort_by(|a, b| a.1.cmp(&b.1));
            }
            if *descending {
                keyed.reverse();
            }
            concat(
                keyed
                    .into_iter()
                    .map(|(_, _, i)| each(&mut slot, var, items[i].clone(), body)),
            )?
        }
        XQuery::Let { var, value, body } => {
            let value = eval(doc, value, scope, steps)?;
            steps.charge(1)?;
            let frame = Frame {
                var,
                value: &value,
                outer: scope,
            };
            eval(doc, body, Some(&frame), steps)?
        }
    })
}

/// Ends a run of atoms as one text child.
fn flush_atoms(atoms: &mut String, children: &mut Vec<Item>) {
    if !atoms.is_empty() {
        let text = Built::Text(std::mem::take(atoms));
        children.push(Item::Built(Rc::new(text)));
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
        let doc = parse("<r><v> 3 </v><v>-10</v><v>2</v><v> -0.5</v></r>").unwrap();
        let q = parse_xquery("for $v in /r/v order by $v return <k>{$v/text()}</k>").unwrap();
        // numeric, not lexicographic (" -0.5" < " 3 " < "-10" < "2")
        assert_eq!(
            super::evaluate_query(&doc, &q).unwrap(),
            "<k>-10</k><k> -0.5</k><k>2</k><k> 3 </k>"
        );
        // "+2" is no XPath number, so the keys sort as strings.
        let doc = parse("<r><v>3</v><v>+2</v><v>10</v></r>").unwrap();
        assert_eq!(
            super::evaluate_query(&doc, &q).unwrap(),
            "<k>+2</k><k>10</k><k>3</k>"
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
        let q = parse_xquery("let $x := <b/> return $x/c").unwrap();
        let err = super::evaluate_query(&d, &q).unwrap_err();
        assert_eq!(
            err.0,
            "variable $x holds constructed content and cannot be navigated"
        );
        assert_eq!(run("<a/>", "for $x in (<b/>) return string($x)"), "");
    }

    /// A variable holds any sequence, and XPath reads it as it is.
    #[test]
    fn variables_hold_any_sequence() {
        assert_eq!(run("<a/>", "let $x := (1, 2) return $x"), "1 2");
        assert_eq!(run("<a/>", "for $x in (<b/>) return $x"), "<b/>");
        assert_eq!(run("<a/>", "let $x := (1,2) return count($x)"), "2");
        assert_eq!(run("<a/>", "let $x := <b>hi</b> return string($x)"), "hi");
        assert_eq!(
            run("<r><a>1</a><a>2</a></r>", "let $x := (/r/a, 3) return $x"),
            "<a>1</a><a>2</a>3"
        );
        let d = parse("<a/>").unwrap();
        let q = parse_xquery("let $x := (1, 2) return $x").unwrap();
        let frames = super::evaluate_query_within(&d, &q, &super::Steps::unbounded()).unwrap();
        assert_eq!(frames, [(true, "1".to_string()), (true, "2".to_string())]);
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
