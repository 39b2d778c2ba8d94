//! Parser for the XQuery FLWR core.
//!
//! Supports multi-binding `for`/`let` heads, `where` (desugared to `if`),
//! `if/then/else`, element constructors with `{…}` enclosed expressions,
//! sequences, and arbitrary embedded XPath expressions. The productions
//! run on `xproj-xpath`'s [`Parser`], so a query and the XPath
//! expressions inside it share one lexer, one error type and one depth
//! counter.

use crate::ast::XQuery;
use xproj_xpath::parser::{Parser, QueryParseError};

/// Parses a complete query.
pub fn parse_xquery(input: &str) -> Result<XQuery, QueryParseError> {
    let mut p = Parser::new(input);
    let q = parse_sequence(&mut p)?;
    p.end()?;
    Ok(q)
}

/// `q₁, q₂, …`
fn parse_sequence(p: &mut Parser<'_>) -> Result<XQuery, QueryParseError> {
    let mut items = vec![parse_item(p)?];
    while p.eat(",") {
        items.push(parse_item(p)?);
    }
    Ok(if items.len() == 1 {
        items.pop().unwrap()
    } else {
        XQuery::Sequence(items)
    })
}

/// One item — the entry point of every nested construct, hence
/// where nesting is counted (and restored on failure: a failed
/// parenthesised sequence is retried as XPath).
fn parse_item(p: &mut Parser<'_>) -> Result<XQuery, QueryParseError> {
    p.nested(parse_item_at_depth)
}

fn parse_item_at_depth(p: &mut Parser<'_>) -> Result<XQuery, QueryParseError> {
    p.skip_ws();
    if p.peek_kw("for") || p.peek_kw("let") {
        return parse_flwr(p);
    }
    if p.peek_kw("if") {
        return parse_if(p);
    }
    if p.peek_kw("some") || p.peek_kw("every") {
        return parse_quantified(p);
    }
    if p.rest().starts_with('<') && !p.rest().starts_with("<=") {
        return parse_constructor(p);
    }
    if p.rest().starts_with('(') {
        // Either `()`, a parenthesised XQuery sequence, or a
        // parenthesised XPath expression. Try XQuery first; sequences
        // subsume single expressions. When both fail, the error that got
        // further into the text is the one to report.
        let save = p.pos();
        p.eat("(");
        if p.eat(")") {
            return Ok(XQuery::Empty);
        }
        let sequence_error = match parse_sequence(p) {
            Ok(q) if p.eat(")") => return Ok(q),
            Ok(_) => p.err::<()>("expected ')'").unwrap_err(),
            Err(e) => e,
        };
        p.set_pos(save);
        return parse_xpath_item(p).map_err(|e| {
            if sequence_error.offset > e.offset {
                sequence_error
            } else {
                e
            }
        });
    }
    parse_xpath_item(p)
}

/// An XPath expression, on the same cursor and depth counter.
fn parse_xpath_item(p: &mut Parser<'_>) -> Result<XQuery, QueryParseError> {
    p.skip_ws();
    p.parse_or().map(XQuery::Expr)
}

fn parse_flwr(p: &mut Parser<'_>) -> Result<XQuery, QueryParseError> {
    // One or more for/let clauses, optional where, then return.
    enum Clause {
        For(String, XQuery),
        Let(String, XQuery),
    }
    let mut clauses: Vec<Clause> = Vec::new();
    while let Some(kw) = ["for", "let"].into_iter().find(|kw| p.eat_kw(kw)) {
        loop {
            if !p.eat("$") {
                return p.err(format!("expected '$variable' after '{kw}'"));
            }
            let var = p.read_name()?.to_string();
            if kw == "for" && !p.eat_kw("in") {
                return p.err("expected 'in'");
            }
            if kw == "let" && !p.eat(":=") && !p.eat("=") {
                return p.err("expected ':='");
            }
            let item = parse_item(p)?;
            clauses.push(if kw == "for" {
                Clause::For(var, item)
            } else {
                Clause::Let(var, item)
            });
            if !p.eat(",") {
                break;
            }
        }
    }
    if clauses.is_empty() {
        return p.err("expected 'for' or 'let'");
    }
    let cond = if p.eat_kw("where") {
        Some(parse_condition(p)?)
    } else {
        None
    };
    // `order by key [ascending|descending]` — attached to the
    // innermost for-clause.
    let order = if p.eat_kw("order") {
        if !p.eat_kw("by") {
            return p.err("expected 'by' after 'order'");
        }
        let key = match parse_xpath_item(p)? {
            XQuery::Expr(k) => k,
            _ => return p.err("order key must be an expression"),
        };
        let descending = if p.eat_kw("descending") {
            true
        } else {
            let _ = p.eat_kw("ascending");
            false
        };
        Some((key, descending))
    } else {
        None
    };
    if !p.eat_kw("return") {
        return p.err("expected 'return'");
    }
    // Each clause wraps the body one binder deeper.
    let mut body = p.nested(|p| {
        for _ in 1..clauses.len() {
            p.deepen()?;
        }
        parse_item(p)
    })?;
    if let Some(c) = cond {
        body = XQuery::If {
            cond: Box::new(c),
            then: Box::new(body),
            els: Box::new(XQuery::Empty),
        };
    }
    let mut order = order;
    for clause in clauses.into_iter().rev() {
        body = match clause {
            Clause::For(var, source) => match order.take() {
                Some((key, descending)) => XQuery::SortedFor {
                    var,
                    source: Box::new(source),
                    key,
                    descending,
                    body: Box::new(body),
                },
                None => XQuery::For {
                    var,
                    source: Box::new(source),
                    body: Box::new(body),
                },
            },
            Clause::Let(var, value) => XQuery::Let {
                var,
                value: Box::new(value),
                body: Box::new(body),
            },
        };
    }
    if order.is_some() {
        return p.err("'order by' requires a 'for' clause");
    }
    Ok(body)
}

fn parse_if(p: &mut Parser<'_>) -> Result<XQuery, QueryParseError> {
    if !p.eat_kw("if") {
        return p.err("expected 'if'");
    }
    if !p.eat("(") {
        return p.err("expected '(' after 'if'");
    }
    let cond = parse_condition(p)?;
    if !p.eat(")") {
        return p.err("expected ')' after condition");
    }
    if !p.eat_kw("then") {
        return p.err("expected 'then'");
    }
    let then = parse_item(p)?;
    if !p.eat_kw("else") {
        return p.err("expected 'else'");
    }
    let els = parse_item(p)?;
    Ok(XQuery::If {
        cond: Box::new(cond),
        then: Box::new(then),
        els: Box::new(els),
    })
}

/// A `where` or `if` condition: a quantified expression or a plain
/// XPath expression.
fn parse_condition(p: &mut Parser<'_>) -> Result<XQuery, QueryParseError> {
    if p.peek_kw("some") || p.peek_kw("every") {
        parse_quantified(p)
    } else {
        parse_xpath_item(p)
    }
}

fn parse_quantified(p: &mut Parser<'_>) -> Result<XQuery, QueryParseError> {
    let every = if p.eat_kw("every") {
        true
    } else if p.eat_kw("some") {
        false
    } else {
        return p.err("expected 'some' or 'every'");
    };
    if !p.eat("$") {
        return p.err("expected '$variable'");
    }
    let var = p.read_name()?.to_string();
    if !p.eat_kw("in") {
        return p.err("expected 'in'");
    }
    let source = parse_item(p)?;
    if !p.eat_kw("satisfies") {
        return p.err("expected 'satisfies'");
    }
    let cond = parse_item(p)?;
    Ok(XQuery::Quantified {
        every,
        var,
        source: Box::new(source),
        cond: Box::new(cond),
    })
}

fn parse_constructor(p: &mut Parser<'_>) -> Result<XQuery, QueryParseError> {
    if !p.eat("<") {
        return p.err("expected '<'");
    }
    let tag = p.read_name()?.to_string();
    // Constant attributes are parsed and discarded for analysis
    // purposes (they carry no data needs); XMark constructors use none.
    loop {
        p.skip_ws();
        if p.eat("/>") {
            return Ok(XQuery::Element {
                tag,
                content: Box::new(XQuery::Empty),
            });
        }
        if p.eat(">") {
            break;
        }
        let _att = p.read_name()?;
        if !p.eat("=") {
            return p.err("expected '=' in constructor attribute");
        }
        p.skip_ws();
        let q = p.rest().chars().next();
        match q {
            Some(q @ ('"' | '\'')) => {
                p.set_pos(p.pos() + 1);
                match p.rest().find(q) {
                    Some(i) => p.set_pos(p.pos() + i + 1),
                    None => return p.err("unterminated attribute value"),
                }
            }
            _ => return p.err("expected quoted attribute value"),
        }
    }
    // Content: text chunks, nested constructors, { expr } splices.
    let mut parts: Vec<XQuery> = Vec::new();
    loop {
        if p.rest().is_empty() {
            return p.err(format!("unterminated <{tag}> constructor"));
        }
        if p.rest().starts_with("</") {
            p.set_pos(p.pos() + 2);
            let close = p.read_name()?;
            if close != tag {
                return p.err(format!("mismatched </{close}>, expected </{tag}>"));
            }
            p.skip_ws();
            if !p.eat(">") {
                return p.err("expected '>'");
            }
            break;
        }
        if p.rest().starts_with('<') {
            // A nested constructor, through the nesting counter.
            parts.push(parse_item(p)?);
            continue;
        }
        if p.rest().starts_with('{') {
            p.set_pos(p.pos() + 1);
            let q = parse_sequence(p)?;
            if !p.eat("}") {
                return p.err("expected '}'");
            }
            parts.push(q);
            continue;
        }
        // literal text until the next markup
        let end = p.rest().find(['<', '{']).unwrap_or(p.rest().len());
        let text = &p.rest()[..end];
        p.set_pos(p.pos() + end);
        if !text.trim().is_empty() {
            parts.push(XQuery::Text(text.to_string()));
        }
    }
    let content = match parts.len() {
        0 => XQuery::Empty,
        1 => parts.pop().unwrap(),
        _ => XQuery::Sequence(parts),
    };
    Ok(XQuery::Element {
        tag,
        content: Box::new(content),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_xpath::ast::Expr;

    #[test]
    fn simple_for() {
        let q = parse_xquery("for $b in /site/people/person return $b/name").unwrap();
        match q {
            XQuery::For { var, source, body } => {
                assert_eq!(var, "b");
                assert!(matches!(*source, XQuery::Expr(Expr::Path(_))));
                assert!(matches!(*body, XQuery::Expr(Expr::RootedPath(_, _))));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn where_desugars_to_if() {
        let q = parse_xquery("for $x in /a/b where $x/c > 3 return $x/d").unwrap();
        match q {
            XQuery::For { body, .. } => assert!(matches!(*body, XQuery::If { .. })),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_binding_for() {
        let q = parse_xquery("for $a in /x/y, $b in $a/z return $b").unwrap();
        match q {
            XQuery::For { var, body, .. } => {
                assert_eq!(var, "a");
                assert!(matches!(*body, XQuery::For { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn let_binding() {
        let q = parse_xquery("let $n := count(/a/b) return <total>{$n}</total>").unwrap();
        match q {
            XQuery::Let { var, value, body } => {
                assert_eq!(var, "n");
                assert!(matches!(*value, XQuery::Expr(Expr::Call(_, _))));
                assert!(matches!(*body, XQuery::Element { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn element_constructor_content() {
        let q = parse_xquery("<r>hello {(/a/b)} world</r>").unwrap();
        match q {
            XQuery::Element { tag, content } => {
                assert_eq!(tag, "r");
                match *content {
                    XQuery::Sequence(ref parts) => assert_eq!(parts.len(), 3),
                    ref other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nested_constructors() {
        let q = parse_xquery("<a><b/><c>{1}</c></a>").unwrap();
        match q {
            XQuery::Element { content, .. } => match *content {
                XQuery::Sequence(ref parts) => assert_eq!(parts.len(), 2),
                ref other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_then_else() {
        let q = parse_xquery("if (count(/a/b) > 1) then <big/> else <small/>").unwrap();
        assert!(matches!(q, XQuery::If { .. }));
    }

    #[test]
    fn empty_sequence_and_commas() {
        assert_eq!(parse_xquery("()").unwrap(), XQuery::Empty);
        let q = parse_xquery("(/a, /b)").unwrap();
        assert!(matches!(q, XQuery::Sequence(ref v) if v.len() == 2));
    }

    #[test]
    fn constructor_attributes_skipped() {
        let q = parse_xquery("<r kind=\"x\">{/a}</r>").unwrap();
        assert!(matches!(q, XQuery::Element { .. }));
    }

    #[test]
    fn comments_ignored() {
        let q = parse_xquery("(: hi :) for $x in /a return (: there :) $x").unwrap();
        assert!(matches!(q, XQuery::For { .. }));
    }

    #[test]
    fn errors() {
        assert!(parse_xquery("for $x in").is_err());
        assert!(parse_xquery("for x in /a return x").is_err());
        assert!(parse_xquery("<a>{1}</b>").is_err());
        assert!(parse_xquery("if (1) then 2").is_err());
        assert!(parse_xquery("let $x = 1").is_err());
    }

    /// An error inside an embedded XPath expression reports its byte
    /// offset in the whole query.
    #[test]
    fn embedded_xpath_errors_report_query_offsets() {
        for (query, offset, message) in [
            ("for $x in /a[ return $x", 21, "expected ']'"),
            (
                "for $b in /bib/book return $b/title[",
                36,
                "unexpected end of expression",
            ),
            ("<r>{ /a/b[1 }</r>", 12, "expected ']'"),
            ("if (count(/a/) > 1) then 1 else 2", 13, "expected a name"),
            ("some $x in /a/b satisfies $x/c[ = 1", 32, "expected a name"),
            (
                "<a>{ for $p in //person return $p/name[foo(] }</a>",
                43,
                "expected a name",
            ),
            ("for $i in /a order by $i/b[ return $i", 35, "expected ']'"),
        ] {
            let err = parse_xquery(query).unwrap_err();
            assert_eq!(
                (err.offset, err.message.as_str()),
                (offset, message),
                "{query}"
            );
        }
    }

    /// A parenthesised sequence that fails is retried as one XPath
    /// expression; when the retry fails too, the error that got further
    /// into the text is the one reported.
    #[test]
    fn a_failed_sequence_reports_the_error_that_got_furthest() {
        for (query, offset, message) in [
            // The sequence's own errors, where the retry reported byte 3
            // and byte 2: "expected ')'".
            ("(/a, /b[)", 8, "expected a name"),
            ("(1, 2", 5, "expected ')'"),
            ("(/a, <b>{ /c[ }</b>)", 14, "expected a name"),
            // One expression: both attempts fail at the same byte.
            ("(/a[)", 4, "expected a name"),
            ("(/a b)", 4, "expected ')'"),
        ] {
            let err = parse_xquery(query).unwrap_err();
            assert_eq!(
                (err.offset, err.message.as_str()),
                (offset, message),
                "{query}"
            );
        }
    }

    /// A query's items and the XPath expressions inside it charge one
    /// depth counter: each alone is under the bound, their sum is past it.
    #[test]
    fn items_and_embedded_paths_share_one_nesting_bound() {
        let flwr = "for $x in /bib return ".repeat(30);
        let path = format!("{}a{}", "a[".repeat(100), "]".repeat(100));
        assert!(parse_xquery(&format!("{flwr}1")).is_ok());
        assert!(parse_xquery(&path).is_ok());
        let err = parse_xquery(&format!("{flwr}{path}")).unwrap_err();
        assert!(err.message.contains("nesting exceeds"), "{err}");
    }

    #[test]
    fn nested_flwr_in_constructor() {
        let q = parse_xquery(
            "<results>{ for $p in /site/people/person return <name>{$p/name/text()}</name> }</results>",
        )
        .unwrap();
        match q {
            XQuery::Element { content, .. } => assert!(matches!(*content, XQuery::For { .. })),
            other => panic!("{other:?}"),
        }
    }
}

#[cfg(test)]
mod order_by_tests {
    use super::*;

    #[test]
    fn order_by_parses() {
        let q = parse_xquery(
            "for $i in /site/regions//item order by $i/name/text() return $i/location",
        )
        .unwrap();
        assert!(matches!(
            q,
            XQuery::SortedFor {
                descending: false,
                ..
            }
        ));
    }

    #[test]
    fn order_by_descending() {
        let q = parse_xquery("for $i in /a order by $i descending return $i").unwrap();
        assert!(matches!(
            q,
            XQuery::SortedFor {
                descending: true,
                ..
            }
        ));
    }

    #[test]
    fn order_by_with_where() {
        let q = parse_xquery("for $i in /a/b where $i/c order by $i/d return $i").unwrap();
        // the where-condition wraps the body inside the sorted for
        match q {
            XQuery::SortedFor { body, .. } => assert!(matches!(*body, XQuery::If { .. })),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn order_by_needs_for() {
        assert!(parse_xquery("let $x := /a order by $x return $x").is_err());
    }
}

#[cfg(test)]
mod quantifier_tests {
    use super::*;
    use xproj_xmltree::MAX_NESTING;

    #[test]
    fn some_satisfies_parses() {
        let q = parse_xquery("some $x in /a/b satisfies $x/c > 1").unwrap();
        assert!(matches!(q, XQuery::Quantified { every: false, .. }));
    }

    #[test]
    fn every_satisfies_parses() {
        let q = parse_xquery("every $x in /a/b satisfies $x/c").unwrap();
        assert!(matches!(q, XQuery::Quantified { every: true, .. }));
    }

    #[test]
    fn quantifier_in_where() {
        let q =
            parse_xquery("for $a in /x where some $b in $a/y satisfies $b = 1 return $a").unwrap();
        match q {
            XQuery::For { body, .. } => match *body {
                XQuery::If { cond, .. } => {
                    assert!(matches!(*cond, XQuery::Quantified { .. }))
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn quantifier_in_if() {
        let q = parse_xquery("if (every $x in /a satisfies $x/b) then <y/> else <n/>").unwrap();
        assert!(matches!(q, XQuery::If { .. }));
    }

    #[test]
    fn quantifier_errors() {
        assert!(parse_xquery("some $x in /a").is_err());
        assert!(parse_xquery("some x in /a satisfies 1").is_err());
    }

    /// Every way a query can nest is held to `MAX_NESTING`: a parse
    /// error, never a stack overflow, however long the input.
    #[test]
    fn nesting_is_bounded() {
        // Comfortably inside the budget (a FLWR level costs two: its
        // clause and its body item), on a test thread's 2 MiB stack.
        let under = MAX_NESTING / 4;
        assert!(parse_xquery(&format!("{}/a{}", "(".repeat(under), ")".repeat(under))).is_ok());
        assert!(parse_xquery(&format!("{}1", "for $x in /a return ".repeat(under))).is_ok());
        for deep in [
            format!("{}/a{}", "(".repeat(40_000), ")".repeat(40_000)),
            format!("{}1", "for $x in /a return ".repeat(5_000)),
            format!("for {} return 1", vec!["$x in /a"; 5_000].join(", ")),
            format!("let {} return 1", vec!["$x := /a"; 5_000].join(", ")),
            format!(
                "{}1{}",
                "if (a) then ".repeat(5_000),
                " else 1".repeat(5_000)
            ),
            format!("{}1{}", "<a>{".repeat(5_000), "}</a>".repeat(5_000)),
            format!("{}{}", "<a>".repeat(5_000), "</a>".repeat(5_000)),
            format!("{}1", "some $x in /a satisfies ".repeat(5_000)),
        ] {
            let err = parse_xquery(&deep).unwrap_err();
            assert!(err.message.contains("nesting exceeds"), "{err}");
        }
        // Flat sequences are not nesting.
        assert!(parse_xquery(&vec!["/a"; 2_000].join(", ")).is_ok());
    }
}
