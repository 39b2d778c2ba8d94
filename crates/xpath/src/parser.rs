//! The recursive-descent cursor for query text, and the XPath 1.0
//! expressions on it.
//!
//! Supports the full grammar used by the XMark / XPathMark workloads:
//! abbreviated syntax (`//`, `@`, `.`, `..`, bare names), all axes,
//! predicates, the boolean/relational/arithmetic operator hierarchy,
//! node-set union, function calls, string and number literals, variables
//! (`$x`, resolved by the XQuery layer) and variable-rooted paths.
//!
//! Disambiguation of `*`, `div`, `mod`, `and`, `or` follows the XPath
//! spec: they are operators exactly when encountered in operator position.
//!
//! [`Parser`] is public because the XQuery productions (`xproj-xquery`)
//! run on the same cursor: one lexer, one error type with absolute
//! offsets, and one depth counter across a query and every XPath
//! expression inside it.

use crate::ast::{ArithOp, Axis, CmpOp, Expr, Func, LocationPath, NodeTest, Step};
use std::fmt;
use xproj_xmltree::MAX_NESTING;

/// A parse error of an XPath expression or an XQuery query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    /// Byte offset in the query text.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for QueryParseError {}

/// Parses a complete XPath expression.
pub fn parse_xpath(input: &str) -> Result<Expr, QueryParseError> {
    let mut p = Parser::new(input);
    let e = p.parse_or()?;
    p.end()?;
    Ok(e)
}

/// A cursor over query text. Each nested sub-expression (parentheses,
/// predicates, function arguments, unary minus, and in XQuery each item
/// and binder) and each further operand of an operator chain (`a | b |
/// c` parses left-deep) charges one level of one counter, held to
/// [`MAX_NESTING`]: that bounds the parser's recursion and the depth of
/// the tree its recursive consumers walk, so no input can overflow a
/// stack.
pub struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Depth of the tree under construction, against [`MAX_NESTING`].
    depth: usize,
}

impl<'a> Parser<'a> {
    /// A cursor at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Parser {
            input,
            pos: 0,
            depth: 0,
        }
    }

    /// Charges one tree level, failing instead of growing (and
    /// recursing) past [`MAX_NESTING`].
    pub fn deepen(&mut self) -> Result<(), QueryParseError> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nesting exceeds {MAX_NESTING} levels"));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `f` one level down; whatever `f` charged (its own level and
    /// its operator chains) is released when the sub-expression ends.
    pub fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, QueryParseError>,
    ) -> Result<T, QueryParseError> {
        let outer = self.depth;
        self.deepen()?;
        let result = f(self);
        self.depth = outer;
        result
    }

    /// An error at the cursor.
    pub fn err<T>(&self, m: impl Into<String>) -> Result<T, QueryParseError> {
        Err(QueryParseError {
            offset: self.pos,
            message: m.into(),
        })
    }

    /// Fails unless only whitespace and comments are left.
    pub fn end(&mut self) -> Result<(), QueryParseError> {
        self.skip_ws();
        if self.pos != self.input.len() {
            return self.err("trailing input");
        }
        Ok(())
    }

    /// The byte offset of the cursor.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Moves the cursor to `pos`, a char boundary of the input: back to
    /// an offset [`pos`](Self::pos) returned, or past bytes
    /// [`rest`](Self::rest) showed.
    pub fn set_pos(&mut self, pos: usize) {
        assert!(self.input.is_char_boundary(pos), "cursor off a char");
        self.pos = pos;
    }

    /// The input from the cursor on.
    pub fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    /// Skips whitespace and `(: … :)` comments (an unterminated comment
    /// runs to the end of the input).
    pub fn skip_ws(&mut self) {
        loop {
            let rest = self.rest();
            self.pos += rest.len()
                - rest
                    .trim_start_matches(|c: char| c.is_ascii_whitespace())
                    .len();
            if !self.rest().starts_with("(:") {
                return;
            }
            self.pos = match self.rest().find(":)") {
                Some(i) => self.pos + i + 2,
                None => self.input.len(),
            };
        }
    }

    /// Consumes `tok` if present (after whitespace).
    pub fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    /// Whether the keyword `kw` comes next (after whitespace): `kw`
    /// followed by a non-name character or the end, so `or` is not the
    /// head of `order`.
    pub fn peek_kw(&mut self, kw: &str) -> bool {
        self.skip_ws();
        self.rest()
            .strip_prefix(kw)
            .is_some_and(|rest| rest.chars().next().is_none_or(|c| !is_name_char(c)))
    }

    /// Consumes the keyword `kw` if it comes next (see
    /// [`peek_kw`](Self::peek_kw)).
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        let found = self.peek_kw(kw);
        if found {
            self.pos += kw.len();
        }
        found
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest().chars().next()
    }

    /// Consumes a name (after whitespace).
    pub fn read_name(&mut self) -> Result<&'a str, QueryParseError> {
        self.skip_ws();
        let rest = self.rest();
        let mut end = 0;
        for (i, c) in rest.char_indices() {
            let ok = if i == 0 {
                c.is_alphabetic() || c == '_'
            } else {
                is_name_char(c)
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

    /// A full expression (XPath's `OrExpr`) — the entry point of every
    /// nested sub-expression, hence where nesting is counted. It stops at
    /// the first token that cannot extend it (e.g. XQuery's `return`).
    pub fn parse_or(&mut self) -> Result<Expr, QueryParseError> {
        self.nested(|p| {
            let mut left = p.parse_and()?;
            while p.eat_kw("or") {
                p.deepen()?;
                let right = p.parse_and()?;
                left = Expr::Or(Box::new(left), Box::new(right));
            }
            Ok(left)
        })
    }

    fn parse_and(&mut self) -> Result<Expr, QueryParseError> {
        let mut left = self.parse_equality()?;
        while self.eat_kw("and") {
            self.deepen()?;
            let right = self.parse_equality()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_equality(&mut self) -> Result<Expr, QueryParseError> {
        let mut left = self.parse_relational()?;
        loop {
            let op = if self.eat("!=") || self.eat_kw("ne") {
                CmpOp::Ne
            } else if self.eat("=") || self.eat_kw("eq") {
                CmpOp::Eq
            } else {
                break;
            };
            self.deepen()?;
            let right = self.parse_relational()?;
            left = Expr::Compare(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_relational(&mut self) -> Result<Expr, QueryParseError> {
        let mut left = self.parse_additive()?;
        loop {
            let op = if self.eat("<=") {
                CmpOp::Le
            } else if self.eat(">=") {
                CmpOp::Ge
            } else if self.eat("<") {
                CmpOp::Lt
            } else if self.eat(">") {
                CmpOp::Gt
            } else if self.eat_kw("le") {
                CmpOp::Le
            } else if self.eat_kw("ge") {
                CmpOp::Ge
            } else if self.eat_kw("lt") {
                CmpOp::Lt
            } else if self.eat_kw("gt") {
                CmpOp::Gt
            } else {
                break;
            };
            self.deepen()?;
            let right = self.parse_additive()?;
            left = Expr::Compare(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr, QueryParseError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = if self.eat("+") {
                ArithOp::Add
            } else if self.peek_minus_op() {
                self.eat("-");
                ArithOp::Sub
            } else {
                break;
            };
            self.deepen()?;
            let right = self.parse_multiplicative()?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    /// `-` is a subtraction operator here (we are in operator position).
    fn peek_minus_op(&mut self) -> bool {
        self.skip_ws();
        self.rest().starts_with('-')
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, QueryParseError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = if self.eat("*") {
                ArithOp::Mul
            } else if self.eat_kw("div") {
                ArithOp::Div
            } else if self.eat_kw("mod") {
                ArithOp::Mod
            } else {
                break;
            };
            self.deepen()?;
            let right = self.parse_unary()?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, QueryParseError> {
        if self.eat("-") {
            let e = self.nested(Self::parse_unary)?;
            Ok(Expr::Neg(Box::new(e)))
        } else {
            self.parse_union()
        }
    }

    fn parse_union(&mut self) -> Result<Expr, QueryParseError> {
        let mut left = self.parse_path_expr()?;
        while self.eat("|") {
            self.deepen()?;
            let right = self.parse_path_expr()?;
            left = Expr::Union(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    /// PathExpr: a location path, or a filter expression possibly
    /// continued by `/` RelativeLocationPath.
    fn parse_path_expr(&mut self) -> Result<Expr, QueryParseError> {
        self.skip_ws();
        let c = match self.rest().chars().next() {
            Some(c) => c,
            None => return self.err("unexpected end of expression"),
        };
        // Primary expressions that are not location paths.
        if c == '"' || c == '\'' {
            return self.parse_literal();
        }
        if c.is_ascii_digit()
            || (c == '.' && self.rest()[1..].starts_with(|d: char| d.is_ascii_digit()))
        {
            return self.parse_number();
        }
        if c == '$' {
            self.pos += 1;
            let name = self.read_name()?.to_string();
            return self.maybe_rooted(Expr::Var(name));
        }
        if c == '(' {
            self.pos += 1;
            let inner = self.parse_or()?;
            if !self.eat(")") {
                return self.err("expected ')'");
            }
            return self.maybe_rooted(inner);
        }
        if c.is_alphabetic() || c == '_' {
            if let Some(call) = self.parse_call()? {
                return self.maybe_rooted(call);
            }
        }
        // Otherwise: a location path.
        Ok(Expr::Path(self.parse_location_path()?))
    }

    /// After a primary expression, allow `/relative/path` continuations.
    fn maybe_rooted(&mut self, base: Expr) -> Result<Expr, QueryParseError> {
        self.skip_ws();
        if self.rest().starts_with('/') {
            let mut steps = Vec::new();
            if self.rest().starts_with("//") {
                self.pos += 2;
                steps.push(Step::new(Axis::DescendantOrSelf, NodeTest::Node));
            } else {
                self.pos += 1;
            }
            self.parse_relative_into(&mut steps)?;
            return Ok(Expr::RootedPath(
                Box::new(base),
                LocationPath {
                    absolute: false,
                    steps,
                },
            ));
        }
        Ok(base)
    }

    /// A name (`fn:` optional) followed by `(` is a function call,
    /// except for the node-test names: the call, its function resolved
    /// against the function table, or `None` with the cursor unmoved.
    fn parse_call(&mut self) -> Result<Option<Expr>, QueryParseError> {
        let start = self.pos;
        let mut name = self.read_name()?.to_string();
        if self.rest().starts_with(':') && !self.rest().starts_with("::") {
            let prefix_end = self.pos;
            self.pos += 1;
            match self.read_name() {
                Ok(local) => name = format!("{name}:{local}"),
                Err(_) => self.pos = prefix_end,
            }
        }
        let node_test = matches!(
            name.as_str(),
            "node" | "text" | "element" | "comment" | "processing-instruction"
        );
        if node_test || !self.eat("(") {
            self.pos = start;
            return Ok(None);
        }
        let mut args = Vec::new();
        if !self.eat(")") {
            loop {
                args.push(self.parse_or()?);
                if self.eat(")") {
                    break;
                }
                if !self.eat(",") {
                    return self.err("expected ',' or ')' in arguments");
                }
            }
        }
        let func = Func::resolve(&name, args.len()).map_err(|message| QueryParseError {
            offset: start,
            message,
        })?;
        Ok(Some(Expr::Call(func, args)))
    }

    fn parse_location_path(&mut self) -> Result<LocationPath, QueryParseError> {
        self.skip_ws();
        let mut steps = Vec::new();
        let absolute = if self.rest().starts_with("//") {
            self.pos += 2;
            steps.push(Step::new(Axis::DescendantOrSelf, NodeTest::Node));
            self.parse_relative_into(&mut steps)?;
            true
        } else if self.rest().starts_with('/') {
            self.pos += 1;
            // "/" alone selects the document node.
            if self.can_start_step() {
                self.parse_relative_into(&mut steps)?;
            }
            true
        } else {
            self.parse_relative_into(&mut steps)?;
            false
        };
        Ok(LocationPath { absolute, steps })
    }

    fn can_start_step(&mut self) -> bool {
        match self.peek() {
            Some(c) => c.is_alphabetic() || matches!(c, '_' | '*' | '@' | '.'),
            None => false,
        }
    }

    fn parse_relative_into(&mut self, steps: &mut Vec<Step>) -> Result<(), QueryParseError> {
        loop {
            steps.push(self.parse_step()?);
            self.skip_ws();
            if self.rest().starts_with("//") {
                self.pos += 2;
                steps.push(Step::new(Axis::DescendantOrSelf, NodeTest::Node));
            } else if self.rest().starts_with('/') {
                self.pos += 1;
            } else {
                return Ok(());
            }
        }
    }

    fn parse_step(&mut self) -> Result<Step, QueryParseError> {
        self.skip_ws();
        let mut s = if self.rest().starts_with("..") {
            self.pos += 2;
            Step::new(Axis::Parent, NodeTest::Node)
        } else if self.rest().starts_with('.') {
            self.pos += 1;
            Step::new(Axis::SelfAxis, NodeTest::Node)
        } else {
            let axis = if self.rest().starts_with('@') {
                self.pos += 1;
                Axis::Attribute
            } else {
                self.try_axis().unwrap_or(Axis::Child)
            };
            Step::new(axis, self.parse_node_test(axis)?)
        };
        self.parse_predicates(&mut s)?;
        Ok(s)
    }

    fn try_axis(&mut self) -> Option<Axis> {
        const AXES: &[(&str, Axis)] = &[
            ("ancestor-or-self", Axis::AncestorOrSelf),
            ("ancestor", Axis::Ancestor),
            ("attribute", Axis::Attribute),
            ("child", Axis::Child),
            ("descendant-or-self", Axis::DescendantOrSelf),
            ("descendant", Axis::Descendant),
            ("following-sibling", Axis::FollowingSibling),
            ("following", Axis::Following),
            ("parent", Axis::Parent),
            ("preceding-sibling", Axis::PrecedingSibling),
            ("preceding", Axis::Preceding),
            ("self", Axis::SelfAxis),
        ];
        self.skip_ws();
        for (kw, axis) in AXES {
            if self.rest().starts_with(kw) {
                let after = &self.rest()[kw.len()..];
                let trimmed = after.trim_start();
                if trimmed.starts_with("::") {
                    let ws = after.len() - trimmed.len();
                    self.pos += kw.len() + ws + 2;
                    return Some(*axis);
                }
            }
        }
        None
    }

    fn parse_node_test(&mut self, axis: Axis) -> Result<NodeTest, QueryParseError> {
        self.skip_ws();
        if self.eat("*") {
            // On the attribute axis `@*` means any attribute; elsewhere any
            // element.
            return Ok(if axis == Axis::Attribute {
                NodeTest::Node
            } else {
                NodeTest::Element
            });
        }
        let name = self.read_name()?;
        self.skip_ws();
        if !self.rest().starts_with('(') {
            return Ok(NodeTest::Tag(name.to_string()));
        }
        let test = match name {
            "node" => NodeTest::Node,
            "text" => NodeTest::Text,
            "element" => NodeTest::Element,
            _ => return self.err(format!("unknown node test '{name}()'")),
        };
        self.expect_empty_parens()?;
        Ok(test)
    }

    fn expect_empty_parens(&mut self) -> Result<(), QueryParseError> {
        if !self.eat("(") {
            return self.err("expected '('");
        }
        if !self.eat(")") {
            return self.err("expected ')'");
        }
        Ok(())
    }

    fn parse_predicates(&mut self, step: &mut Step) -> Result<(), QueryParseError> {
        while self.eat("[") {
            let e = self.parse_or()?;
            if !self.eat("]") {
                return self.err("expected ']'");
            }
            step.predicates.push(e);
        }
        Ok(())
    }

    fn parse_literal(&mut self) -> Result<Expr, QueryParseError> {
        let quote = self.rest().chars().next().unwrap();
        self.pos += 1;
        let end = match self.rest().find(quote) {
            Some(i) => i,
            None => return self.err("unterminated string literal"),
        };
        let s = self.rest()[..end].to_string();
        self.pos += end + 1;
        Ok(Expr::Literal(s))
    }

    fn parse_number(&mut self) -> Result<Expr, QueryParseError> {
        let rest = self.rest();
        let mut end = 0;
        let mut seen_dot = false;
        for (i, c) in rest.char_indices() {
            if c.is_ascii_digit() {
                end = i + 1;
            } else if c == '.' && !seen_dot {
                seen_dot = true;
                end = i + 1;
            } else {
                break;
            }
        }
        let n: f64 = rest[..end].parse().map_err(|_| QueryParseError {
            offset: self.pos,
            message: "bad number".to_string(),
        })?;
        self.pos += end;
        Ok(Expr::Number(n))
    }
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Axis, Expr, NodeTest};

    fn path(input: &str) -> LocationPath {
        match parse_xpath(input).unwrap() {
            Expr::Path(p) => p,
            other => panic!("expected a path, got {other:?}"),
        }
    }

    #[test]
    fn abbreviated_absolute() {
        let p = path("/site/regions");
        assert!(p.absolute);
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].axis, Axis::Child);
        assert_eq!(p.steps[0].test, NodeTest::Tag("site".into()));
    }

    #[test]
    fn double_slash_expansion() {
        let p = path("//keyword");
        assert!(p.absolute);
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].axis, Axis::DescendantOrSelf);
        assert_eq!(p.steps[0].test, NodeTest::Node);
        assert_eq!(p.steps[1].test, NodeTest::Tag("keyword".into()));

        let p2 = path("a//b");
        assert_eq!(p2.steps.len(), 3);
        assert_eq!(p2.steps[1].axis, Axis::DescendantOrSelf);
    }

    #[test]
    fn explicit_axes() {
        let p = path("ancestor::listitem/child::text/self::node()");
        assert_eq!(p.steps[0].axis, Axis::Ancestor);
        assert_eq!(p.steps[1].axis, Axis::Child);
        assert_eq!(p.steps[2].axis, Axis::SelfAxis);
        assert_eq!(p.steps[2].test, NodeTest::Node);
    }

    #[test]
    fn dot_and_dotdot() {
        let p = path("../.");
        assert_eq!(p.steps[0].axis, Axis::Parent);
        assert_eq!(p.steps[1].axis, Axis::SelfAxis);
    }

    #[test]
    fn attribute_abbreviation() {
        let p = path("person/@income");
        assert_eq!(p.steps[1].axis, Axis::Attribute);
        assert_eq!(p.steps[1].test, NodeTest::Tag("income".into()));
        let p2 = path("a/@*");
        assert_eq!(p2.steps[1].test, NodeTest::Node);
    }

    #[test]
    fn predicates() {
        let p = path("person[profile/gender and profile/age]/name");
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].predicates.len(), 1);
        assert!(matches!(p.steps[0].predicates[0], Expr::And(_, _)));
    }

    #[test]
    fn numeric_predicate() {
        let p = path("bidder[1]");
        assert_eq!(p.steps[0].predicates, vec![Expr::Number(1.0)]);
    }

    #[test]
    fn comparison_and_literal() {
        let e = parse_xpath("author = \"Dante\"").unwrap();
        assert!(matches!(e, Expr::Compare(crate::ast::CmpOp::Eq, _, _)));
    }

    #[test]
    fn function_calls() {
        let e = parse_xpath("count(bidder) > 5").unwrap();
        match e {
            Expr::Compare(_, l, _) => match *l {
                Expr::Call(func, args) => {
                    assert_eq!(func, Func::Count);
                    assert_eq!(args.len(), 1);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        assert!(parse_xpath("not(x)").is_ok());
        assert!(parse_xpath("contains(text(), \"gold\")").is_ok());
        assert!(parse_xpath("position() = last()").is_ok());
    }

    #[test]
    fn node_test_vs_function() {
        // text() in step position is a node test, not a call
        let p = path("a/text()");
        assert_eq!(p.steps[1].test, NodeTest::Text);
    }

    #[test]
    fn star_disambiguation() {
        // step wildcard
        let p = path("regions/*/item");
        assert_eq!(p.steps[1].test, NodeTest::Element);
        // multiplication
        let e = parse_xpath("2 * 3").unwrap();
        assert!(matches!(e, Expr::Arith(crate::ast::ArithOp::Mul, _, _)));
    }

    #[test]
    fn or_vs_name_prefix() {
        // 'order' must not be parsed as the operator 'or' + 'der'
        let p = path("order");
        assert_eq!(p.steps[0].test, NodeTest::Tag("order".into()));
    }

    #[test]
    fn arithmetic_precedence() {
        let e = parse_xpath("1 + 2 * 3").unwrap();
        match e {
            Expr::Arith(ArithOp::Add, _, r) => {
                assert!(matches!(*r, Expr::Arith(ArithOp::Mul, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn variables_and_rooted_paths() {
        let e = parse_xpath("$b/name/text()").unwrap();
        match e {
            Expr::RootedPath(v, p) => {
                assert_eq!(*v, Expr::Var("b".into()));
                assert_eq!(p.steps.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        let e2 = parse_xpath("$p//keyword").unwrap();
        match e2 {
            Expr::RootedPath(_, p) => assert_eq!(p.steps[0].axis, Axis::DescendantOrSelf),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn union_paths() {
        let e = parse_xpath("phone | homepage").unwrap();
        assert!(matches!(e, Expr::Union(_, _)));
    }

    #[test]
    fn root_only() {
        let p = path("/");
        assert!(p.absolute);
        assert!(p.steps.is_empty());
    }

    #[test]
    fn namespaced_function() {
        let e = parse_xpath("fn:count(x)").unwrap();
        assert_eq!(e, parse_xpath("count(x)").unwrap());
    }

    #[test]
    fn errors() {
        assert!(parse_xpath("").is_err());
        assert!(parse_xpath("a[").is_err());
        assert!(parse_xpath("a]").is_err());
        assert!(parse_xpath("foo(").is_err());
        assert!(parse_xpath("'unterminated").is_err());
    }

    #[test]
    fn whitespace_tolerance() {
        let p = path("  /site / open_auctions\n/ open_auction [ bidder ] ");
        assert_eq!(p.steps.len(), 3);
        assert_eq!(p.steps[2].predicates.len(), 1);
    }

    /// XQuery's `(: … :)` comments (XPath 2.0 has the same) are
    /// whitespace; an unterminated one runs to the end.
    #[test]
    fn comments_are_whitespace() {
        assert_eq!(
            parse_xpath("(: lead :)/a(: in :)[ (: c :) b ] (: end"),
            parse_xpath("/a[b]")
        );
    }

    #[test]
    fn nested_predicates() {
        let p = path("a[b[c]/d]");
        match &p.steps[0].predicates[0] {
            Expr::Path(inner) => {
                assert_eq!(inner.steps.len(), 2);
                assert_eq!(inner.steps[0].predicates.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn negative_numbers() {
        let e = parse_xpath("-1 + 2").unwrap();
        assert!(matches!(e, Expr::Arith(ArithOp::Add, _, _)));
    }

    #[test]
    fn parenthesised_expr_with_rooted_path() {
        let e = parse_xpath("(a | b)/c").unwrap();
        assert!(matches!(e, Expr::RootedPath(_, _)));
    }

    /// Nesting and operator chains share one depth budget: at the
    /// limit the parse succeeds (on a test thread's 2 MiB stack, in a
    /// debug build), one past it is a parse error — never an overflow,
    /// however long the input.
    #[test]
    fn nesting_is_bounded() {
        let parens = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        // The outermost expression is level 1, each parenthesis one more.
        assert!(parse_xpath(&parens(MAX_NESTING - 1)).is_ok());
        for deep in [
            parens(MAX_NESTING),
            parens(40_000),
            format!("{}1", "-".repeat(40_000)),
            format!("a{}{}", "[a".repeat(40_000), "]".repeat(40_000)),
            format!("{}a{}", "count(".repeat(40_000), ")".repeat(40_000)),
            vec!["a"; 40_000].join("|"),
            vec!["a"; 40_000].join(" or "),
            vec!["1"; 40_000].join("+"),
        ] {
            let err = parse_xpath(&deep).unwrap_err();
            assert!(err.message.contains("nesting exceeds"), "{err}");
        }
        // Flat constructs are not nesting: long paths and many
        // predicates on one step stay accepted.
        assert!(parse_xpath(&"/a".repeat(1000)).is_ok());
        assert!(parse_xpath(&format!("a{}", "[b]".repeat(1000))).is_ok());
        // A chain's charge is released with its sub-expression.
        let chain = vec!["a"; 100].join("|");
        assert!(parse_xpath(&format!("({chain}) and ({chain})")).is_ok());
    }
}
