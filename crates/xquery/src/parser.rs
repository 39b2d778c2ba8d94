//! Parser for the XQuery FLWR core.
//!
//! Supports multi-binding `for`/`let` heads, `where` (desugared to `if`),
//! `if/then/else`, element constructors with `{…}` enclosed expressions,
//! sequences, and arbitrary embedded XPath expressions (delegated to the
//! `xproj-xpath` parser via [`xproj_xpath::parse_expr_prefix`]).

use crate::ast::XQuery;
use std::fmt;
use xproj_xpath::parse_expr_prefix;

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XQueryParseError {
    /// Byte offset into the query text.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for XQueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XQuery error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XQueryParseError {}

/// Deepest query tree the parser builds: each nested item
/// (parenthesised sequences, FLWR/`if`/quantifier bodies, constructor
/// content) and each `for`/`let` clause (they desugar into nested
/// binders) is one level. The same bound as every other
/// recursive-descent parser in the workspace (see `xproj_xpath`'s).
const MAX_NESTING: usize = 128;

/// Parses a complete query.
pub fn parse_xquery(input: &str) -> Result<XQuery, XQueryParseError> {
    let mut p = P {
        input,
        pos: 0,
        depth: 0,
    };
    let q = p.parse_sequence()?;
    p.skip_ws();
    if p.pos != input.len() {
        return p.err("trailing input");
    }
    Ok(q)
}

struct P<'a> {
    input: &'a str,
    pos: usize,
    /// Depth of the tree under construction, against [`MAX_NESTING`].
    depth: usize,
}

impl<'a> P<'a> {
    fn err<T>(&self, m: impl Into<String>) -> Result<T, XQueryParseError> {
        Err(XQueryParseError {
            offset: self.pos,
            message: m.into(),
        })
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        loop {
            let n = self
                .rest()
                .find(|c: char| !c.is_ascii_whitespace())
                .unwrap_or(self.rest().len());
            self.pos += n;
            // XQuery comments (: … :)
            if self.rest().starts_with("(:") {
                match self.rest().find(":)") {
                    Some(i) => self.pos += i + 2,
                    None => {
                        self.pos = self.input.len();
                        return;
                    }
                }
            } else {
                return;
            }
        }
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        self.skip_ws();
        if let Some(rest) = self.rest().strip_prefix(kw) {
            if rest
                .chars()
                .next()
                .is_none_or(|c| !(c.is_alphanumeric() || c == '_' || c == '-'))
            {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn peek_kw(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let r = self.rest();
        r.starts_with(kw)
            && r[kw.len()..]
                .chars()
                .next()
                .is_none_or(|c| !(c.is_alphanumeric() || c == '_' || c == '-'))
    }

    fn read_name(&mut self) -> Result<&'a str, XQueryParseError> {
        self.skip_ws();
        let rest = self.rest();
        let mut end = 0;
        for (i, c) in rest.char_indices() {
            let ok = if i == 0 {
                c.is_alphabetic() || c == '_'
            } else {
                c.is_alphanumeric() || matches!(c, '_' | '-' | '.')
            };
            if !ok {
                end = i;
                break;
            }
            end = i + c.len_utf8();
        }
        if end == 0 {
            return self.err("expected a name");
        }
        let n = &rest[..end];
        self.pos += end;
        Ok(n)
    }

    /// `q₁, q₂, …`
    fn parse_sequence(&mut self) -> Result<XQuery, XQueryParseError> {
        let mut items = vec![self.parse_item()?];
        while self.eat(",") {
            items.push(self.parse_item()?);
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
    fn parse_item(&mut self) -> Result<XQuery, XQueryParseError> {
        if self.depth == MAX_NESTING {
            return self.err(format!("query nesting exceeds {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let item = self.parse_item_at_depth();
        self.depth -= 1;
        item
    }

    fn parse_item_at_depth(&mut self) -> Result<XQuery, XQueryParseError> {
        self.skip_ws();
        if self.peek_kw("for") || self.peek_kw("let") {
            return self.parse_flwr();
        }
        if self.peek_kw("if") {
            return self.parse_if();
        }
        if self.peek_kw("some") || self.peek_kw("every") {
            return self.parse_quantified();
        }
        if self.rest().starts_with('<') && !self.rest().starts_with("<=") {
            return self.parse_constructor();
        }
        if self.rest().starts_with('(') {
            // Either `()`, a parenthesised XQuery sequence, or a
            // parenthesised XPath expression. Try XQuery first; sequences
            // subsume single expressions.
            let save = self.pos;
            self.pos += 1;
            self.skip_ws();
            if self.eat(")") {
                return Ok(XQuery::Empty);
            }
            match self.parse_sequence() {
                Ok(q) => {
                    if self.eat(")") {
                        return Ok(q);
                    }
                    self.pos = save;
                }
                Err(_) => self.pos = save,
            }
            // fall through to XPath
        }
        self.parse_xpath_item()
    }

    fn parse_xpath_item(&mut self) -> Result<XQuery, XQueryParseError> {
        self.skip_ws();
        match parse_expr_prefix(self.rest()) {
            Ok((e, used)) => {
                self.pos += used;
                Ok(XQuery::Expr(e))
            }
            Err(e) => Err(XQueryParseError {
                offset: self.pos + e.offset,
                message: e.message,
            }),
        }
    }

    fn parse_flwr(&mut self) -> Result<XQuery, XQueryParseError> {
        // One or more for/let clauses, optional where, then return.
        enum Clause {
            For(String, XQuery),
            Let(String, XQuery),
        }
        let mut clauses: Vec<Clause> = Vec::new();
        loop {
            if self.eat_kw("for") {
                loop {
                    if !self.eat("$") {
                        return self.err("expected '$variable' after 'for'");
                    }
                    let var = self.read_name()?.to_string();
                    if !self.eat_kw("in") {
                        return self.err("expected 'in'");
                    }
                    let src = self.parse_item()?;
                    clauses.push(Clause::For(var, src));
                    if !self.eat(",") {
                        break;
                    }
                }
            } else if self.eat_kw("let") {
                loop {
                    if !self.eat("$") {
                        return self.err("expected '$variable' after 'let'");
                    }
                    let var = self.read_name()?.to_string();
                    if !self.eat(":=") && !self.eat("=") {
                        return self.err("expected ':='");
                    }
                    let val = self.parse_item()?;
                    clauses.push(Clause::Let(var, val));
                    if !self.eat(",") {
                        break;
                    }
                }
            } else {
                break;
            }
        }
        if clauses.is_empty() {
            return self.err("expected 'for' or 'let'");
        }
        let cond = if self.eat_kw("where") {
            // a quantified expression or a plain XPath expression
            self.skip_ws();
            if self.peek_kw("some") || self.peek_kw("every") {
                Some(self.parse_quantified()?)
            } else {
                Some(self.parse_xpath_item()?)
            }
        } else {
            None
        };
        // `order by key [ascending|descending]` — attached to the
        // innermost for-clause.
        let order = if self.eat_kw("order") {
            if !self.eat_kw("by") {
                return self.err("expected 'by' after 'order'");
            }
            let key = match self.parse_xpath_item()? {
                XQuery::Expr(k) => k,
                _ => return self.err("order key must be an expression"),
            };
            let descending = if self.eat_kw("descending") {
                true
            } else {
                let _ = self.eat_kw("ascending");
                false
            };
            Some((key, descending))
        } else {
            None
        };
        if !self.eat_kw("return") {
            return self.err("expected 'return'");
        }
        // Each clause wraps the body one binder deeper.
        if self.depth + clauses.len() > MAX_NESTING {
            return self.err(format!("query nesting exceeds {MAX_NESTING} levels"));
        }
        self.depth += clauses.len();
        let body = self.parse_item();
        self.depth -= clauses.len();
        let mut body = body?;
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
            return self.err("'order by' requires a 'for' clause");
        }
        Ok(body)
    }

    fn parse_if(&mut self) -> Result<XQuery, XQueryParseError> {
        if !self.eat_kw("if") {
            return self.err("expected 'if'");
        }
        if !self.eat("(") {
            return self.err("expected '(' after 'if'");
        }
        self.skip_ws();
        let cond = if self.peek_kw("some") || self.peek_kw("every") {
            self.parse_quantified()?
        } else {
            self.parse_xpath_item()?
        };
        if !self.eat(")") {
            return self.err("expected ')' after condition");
        }
        if !self.eat_kw("then") {
            return self.err("expected 'then'");
        }
        let then = self.parse_item()?;
        if !self.eat_kw("else") {
            return self.err("expected 'else'");
        }
        let els = self.parse_item()?;
        Ok(XQuery::If {
            cond: Box::new(cond),
            then: Box::new(then),
            els: Box::new(els),
        })
    }

    fn parse_quantified(&mut self) -> Result<XQuery, XQueryParseError> {
        let every = if self.eat_kw("every") {
            true
        } else if self.eat_kw("some") {
            false
        } else {
            return self.err("expected 'some' or 'every'");
        };
        if !self.eat("$") {
            return self.err("expected '$variable'");
        }
        let var = self.read_name()?.to_string();
        if !self.eat_kw("in") {
            return self.err("expected 'in'");
        }
        let source = self.parse_item()?;
        if !self.eat_kw("satisfies") {
            return self.err("expected 'satisfies'");
        }
        let cond = self.parse_item()?;
        Ok(XQuery::Quantified {
            every,
            var,
            source: Box::new(source),
            cond: Box::new(cond),
        })
    }

    fn parse_constructor(&mut self) -> Result<XQuery, XQueryParseError> {
        if !self.eat("<") {
            return self.err("expected '<'");
        }
        let tag = self.read_name()?.to_string();
        // Constant attributes are parsed and discarded for analysis
        // purposes (they carry no data needs); XMark constructors use none.
        loop {
            self.skip_ws();
            if self.eat("/>") {
                return Ok(XQuery::Element {
                    tag,
                    content: Box::new(XQuery::Empty),
                });
            }
            if self.eat(">") {
                break;
            }
            let _att = self.read_name()?;
            if !self.eat("=") {
                return self.err("expected '=' in constructor attribute");
            }
            self.skip_ws();
            let q = self.rest().chars().next();
            match q {
                Some(q @ ('"' | '\'')) => {
                    self.pos += 1;
                    match self.rest().find(q) {
                        Some(i) => self.pos += i + 1,
                        None => return self.err("unterminated attribute value"),
                    }
                }
                _ => return self.err("expected quoted attribute value"),
            }
        }
        // Content: text chunks, nested constructors, { expr } splices.
        let mut parts: Vec<XQuery> = Vec::new();
        loop {
            if self.rest().is_empty() {
                return self.err(format!("unterminated <{tag}> constructor"));
            }
            if self.rest().starts_with("</") {
                self.pos += 2;
                let close = self.read_name()?;
                if close != tag {
                    return self.err(format!("mismatched </{close}>, expected </{tag}>"));
                }
                self.skip_ws();
                if !self.eat(">") {
                    return self.err("expected '>'");
                }
                break;
            }
            if self.rest().starts_with('<') {
                // A nested constructor, through the nesting counter.
                parts.push(self.parse_item()?);
                continue;
            }
            if self.rest().starts_with('{') {
                self.pos += 1;
                let q = self.parse_sequence()?;
                if !self.eat("}") {
                    return self.err("expected '}'");
                }
                parts.push(q);
                continue;
            }
            // literal text until the next markup
            let end = self
                .rest()
                .find(['<', '{'])
                .unwrap_or(self.rest().len());
            let text = &self.rest()[..end];
            self.pos += end;
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
        let q = parse_xquery(
            "for $x in /a/b where $x/c > 3 return $x/d",
        )
        .unwrap();
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
        assert!(matches!(q, XQuery::SortedFor { descending: false, .. }));
    }

    #[test]
    fn order_by_descending() {
        let q = parse_xquery("for $i in /a order by $i descending return $i").unwrap();
        assert!(matches!(q, XQuery::SortedFor { descending: true, .. }));
    }

    #[test]
    fn order_by_with_where() {
        let q = parse_xquery(
            "for $i in /a/b where $i/c order by $i/d return $i",
        )
        .unwrap();
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
        let q = parse_xquery(
            "for $a in /x where some $b in $a/y satisfies $b = 1 return $a",
        )
        .unwrap();
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
        let q = parse_xquery(
            "if (every $x in /a satisfies $x/b) then <y/> else <n/>",
        )
        .unwrap();
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
            format!("{}1{}", "if (a) then ".repeat(5_000), " else 1".repeat(5_000)),
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
