//! Abstract syntax for (a large subset of) XPath 1.0.
//!
//! This is the `Q` grammar of §3.3: location paths whose steps carry
//! arbitrary predicate expressions built from paths, operators, function
//! calls, literals and numbers.

use std::fmt;

/// The thirteen XPath axes minus `namespace`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `child::`
    Child,
    /// `descendant::`
    Descendant,
    /// `descendant-or-self::`
    DescendantOrSelf,
    /// `parent::`
    Parent,
    /// `ancestor::`
    Ancestor,
    /// `ancestor-or-self::`
    AncestorOrSelf,
    /// `self::`
    SelfAxis,
    /// `following-sibling::`
    FollowingSibling,
    /// `preceding-sibling::`
    PrecedingSibling,
    /// `following::`
    Following,
    /// `preceding::`
    Preceding,
    /// `attribute::`
    Attribute,
}

impl Axis {
    /// Forward axes order candidates in document order; reverse axes
    /// (`parent`, `ancestor*`, `preceding*`) in reverse document order —
    /// `position()` counts along this direction.
    pub fn is_reverse(self) -> bool {
        matches!(
            self,
            Axis::Parent
                | Axis::Ancestor
                | Axis::AncestorOrSelf
                | Axis::PrecedingSibling
                | Axis::Preceding
        )
    }

    /// Concrete syntax name.
    pub fn name(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::SelfAxis => "self",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
            Axis::Attribute => "attribute",
        }
    }
}

/// Node tests.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// A tag name (or attribute name on the attribute axis).
    Tag(String),
    /// `node()`.
    Node,
    /// `text()`.
    Text,
    /// `element()` — any element (the §6 wildcard; also what `*` means
    /// on element axes).
    Element,
}

/// One step: axis, test, and zero or more predicate expressions.
#[derive(Clone, Debug, PartialEq)]
pub struct Step {
    /// The axis.
    pub axis: Axis,
    /// The node test.
    pub test: NodeTest,
    /// Predicates, applied in order.
    pub predicates: Vec<Expr>,
}

impl Step {
    /// A predicate-free step.
    pub fn new(axis: Axis, test: NodeTest) -> Self {
        Step {
            axis,
            test,
            predicates: Vec::new(),
        }
    }
}

/// A location path.
#[derive(Clone, Debug, PartialEq)]
pub struct LocationPath {
    /// `true` for `/a/b` (rooted at the document node).
    pub absolute: bool,
    /// Steps in order.
    pub steps: Vec<Step>,
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `div`
    Div,
    /// `mod`
    Mod,
}

/// Expressions (the `Exp` grammar of §3.3).
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A location path.
    Path(LocationPath),
    /// String literal.
    Literal(String),
    /// Numeric literal.
    Number(f64),
    /// `e₁ or e₂`
    Or(Box<Expr>, Box<Expr>),
    /// `e₁ and e₂`
    And(Box<Expr>, Box<Expr>),
    /// Comparison.
    Compare(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// Function call.
    Call(String, Vec<Expr>),
    /// Node-set union `e₁ | e₂`.
    Union(Box<Expr>, Box<Expr>),
    /// A free variable `$x` (resolved only inside XQuery; evaluating one
    /// directly is an error).
    Var(String),
    /// A path rooted at the value of an expression, e.g. `$x/a/b` or
    /// `(…)/c`. The path is always relative.
    RootedPath(Box<Expr>, LocationPath),
}

impl fmt::Display for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTest::Tag(t) => write!(f, "{t}"),
            NodeTest::Node => write!(f, "node()"),
            NodeTest::Text => write!(f, "text()"),
            NodeTest::Element => write!(f, "element()"),
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}::{}", self.axis.name(), self.test)?;
        for p in &self.predicates {
            write!(f, "[{p}]")?;
        }
        Ok(())
    }
}

impl fmt::Display for LocationPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.absolute {
            write!(f, "/")?;
        }
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Path(p) => write!(f, "{p}"),
            Expr::Literal(s) => write!(f, "\"{s}\""),
            Expr::Number(n) => write!(f, "{n}"),
            Expr::Or(a, b) => write!(f, "({a} or {b})"),
            Expr::And(a, b) => write!(f, "({a} and {b})"),
            Expr::Compare(op, a, b) => {
                let s = match op {
                    CmpOp::Eq => "=",
                    CmpOp::Ne => "!=",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                };
                write!(f, "({a} {s} {b})")
            }
            Expr::Arith(op, a, b) => {
                let s = match op {
                    ArithOp::Add => "+",
                    ArithOp::Sub => "-",
                    ArithOp::Mul => "*",
                    ArithOp::Div => "div",
                    ArithOp::Mod => "mod",
                };
                write!(f, "({a} {s} {b})")
            }
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Union(a, b) => write!(f, "({a} | {b})"),
            Expr::Var(v) => write!(f, "${v}"),
            Expr::RootedPath(e, p) => write!(f, "{e}/{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_direction() {
        assert!(!Axis::Child.is_reverse());
        assert!(!Axis::Following.is_reverse());
        assert!(Axis::Ancestor.is_reverse());
        assert!(Axis::PrecedingSibling.is_reverse());
    }

    #[test]
    fn display_round() {
        let p = LocationPath {
            absolute: true,
            steps: vec![
                Step::new(Axis::Child, NodeTest::Tag("site".into())),
                Step {
                    axis: Axis::Descendant,
                    test: NodeTest::Node,
                    predicates: vec![Expr::Path(LocationPath {
                        absolute: false,
                        steps: vec![Step::new(Axis::Child, NodeTest::Tag("a".into()))],
                    })],
                },
            ],
        };
        assert_eq!(p.to_string(), "/child::site/descendant::node()[child::a]");
    }
}
