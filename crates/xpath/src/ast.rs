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
    /// Call of a built-in function, resolved when it was parsed.
    Call(Func, Vec<Expr>),
    /// Node-set union `e₁ | e₂`.
    Union(Box<Expr>, Box<Expr>),
    /// A variable `$x`: the items of the XQuery binding in scope, handed
    /// to XPath as they are (outside XQuery nothing is bound, and reading
    /// one is an error).
    Var(String),
    /// A path rooted at the value of an expression, e.g. `$x/a/b` or
    /// `(…)/c`. The path is always relative.
    RootedPath(Box<Expr>, LocationPath),
}

/// A built-in function: the XPath 1.0 core library and the XQuery
/// functions the XMark workload uses. Each is a row of [`FUNCTIONS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Func {
    /// `position()`
    Position,
    /// `last()`
    Last,
    /// `count(s)`
    Count,
    /// `not(b)`
    Not,
    /// `true()`
    True,
    /// `false()`
    False,
    /// `boolean(b)`
    Boolean,
    /// `string(s?)`, also spelled `data`
    String,
    /// `number(s?)`
    Number,
    /// `contains(s, t)`
    Contains,
    /// `starts-with(s, t)`
    StartsWith,
    /// `string-length(s?)`
    StringLength,
    /// `normalize-space(s?)`
    NormalizeSpace,
    /// `concat(s, …)`, one argument or more (XPath 1.0 asks for two)
    Concat,
    /// `substring(s, from, length?)`
    Substring,
    /// `substring-before(s, t)`
    SubstringBefore,
    /// `substring-after(s, t)`
    SubstringAfter,
    /// `translate(s, from, to)`
    Translate,
    /// `sum(s)`
    Sum,
    /// `floor(n)`
    Floor,
    /// `ceiling(n)`
    Ceiling,
    /// `round(n)`
    Round,
    /// `name(s?)`, also spelled `local-name`
    Name,
    /// `empty(s)`
    Empty,
    /// `exists(s)`
    Exists,
    /// `zero-or-one(s)`, `exactly-one`, `one-or-more`: `s`, unchecked
    ZeroOrOne,
}

/// The function table, the one place that knows function names: name
/// (without `fn:`), function, fewest and most arguments, and whether it
/// reads its arguments' string values — the `F(f, i)` table of §3.3: a
/// path flowing into such a function needs its whole subtree. A
/// function's first row is its canonical name.
pub const FUNCTIONS: &[(&str, Func, usize, usize, bool)] = &[
    ("position", Func::Position, 0, 0, false),
    ("last", Func::Last, 0, 0, false),
    ("count", Func::Count, 1, 1, false),
    ("not", Func::Not, 1, 1, false),
    ("true", Func::True, 0, 0, true),
    ("false", Func::False, 0, 0, true),
    ("boolean", Func::Boolean, 1, 1, false),
    ("string", Func::String, 0, 1, true),
    ("data", Func::String, 0, 1, true),
    ("number", Func::Number, 0, 1, true),
    ("contains", Func::Contains, 2, 2, true),
    ("starts-with", Func::StartsWith, 2, 2, true),
    ("string-length", Func::StringLength, 0, 1, true),
    ("normalize-space", Func::NormalizeSpace, 0, 1, true),
    ("concat", Func::Concat, 1, usize::MAX, true),
    ("substring", Func::Substring, 2, 3, true),
    ("substring-before", Func::SubstringBefore, 2, 2, true),
    ("substring-after", Func::SubstringAfter, 2, 2, true),
    ("translate", Func::Translate, 3, 3, true),
    ("sum", Func::Sum, 1, 1, true),
    ("floor", Func::Floor, 1, 1, true),
    ("ceiling", Func::Ceiling, 1, 1, true),
    ("round", Func::Round, 1, 1, true),
    ("name", Func::Name, 0, 1, false),
    ("local-name", Func::Name, 0, 1, false),
    ("empty", Func::Empty, 1, 1, false),
    ("exists", Func::Exists, 1, 1, false),
    ("zero-or-one", Func::ZeroOrOne, 1, 1, false),
    ("exactly-one", Func::ZeroOrOne, 1, 1, false),
    ("one-or-more", Func::ZeroOrOne, 1, 1, false),
];

impl Func {
    /// The function a call of `name` (`fn:` optional) with `arity`
    /// arguments names; an unknown name or a wrong arity is XQuery's
    /// static error XPST0017.
    pub fn resolve(name: &str, arity: usize) -> Result<Func, String> {
        let plain = name.strip_prefix("fn:").unwrap_or(name);
        let Some(&(_, f, min, max, _)) = FUNCTIONS.iter().find(|row| row.0 == plain) else {
            return Err(format!("unknown function {name}() (XPST0017)"));
        };
        if !(min..=max).contains(&arity) {
            return Err(format!(
                "{plain}() cannot take {arity} arguments (XPST0017)"
            ));
        }
        Ok(f)
    }

    /// The row of its canonical name.
    fn row(self) -> &'static (&'static str, Func, usize, usize, bool) {
        FUNCTIONS
            .iter()
            .find(|row| row.1 == self)
            .expect("every function has a row")
    }

    /// Whether a path flowing into an argument needs its whole subtree.
    pub fn reads_strings(self) -> bool {
        self.row().4
    }
}

impl Expr {
    /// Whether `pred` holds for this expression or for one inside it: an
    /// operand, an argument, a path's base or a predicate of its steps.
    pub fn any(&self, pred: &mut impl FnMut(&Expr) -> bool) -> bool {
        fn in_steps(p: &LocationPath, pred: &mut impl FnMut(&Expr) -> bool) -> bool {
            p.steps
                .iter()
                .flat_map(|s| &s.predicates)
                .any(|e| e.any(pred))
        }
        pred(self)
            || match self {
                Expr::Path(p) => in_steps(p, pred),
                Expr::RootedPath(base, p) => base.any(pred) || in_steps(p, pred),
                Expr::Or(a, b)
                | Expr::And(a, b)
                | Expr::Compare(_, a, b)
                | Expr::Arith(_, a, b)
                | Expr::Union(a, b) => a.any(pred) || b.any(pred),
                Expr::Neg(a) => a.any(pred),
                Expr::Call(_, args) => args.iter().any(|a| a.any(pred)),
                Expr::Literal(_) | Expr::Number(_) | Expr::Var(_) => false,
            }
    }
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
            // `/` alone would run into a following operator or name.
            Expr::Path(p) if p.absolute && p.steps.is_empty() => write!(f, "(/)"),
            Expr::Path(p) => write!(f, "{p}"),
            // A literal cannot escape its quote: it takes the other one.
            Expr::Literal(s) if s.contains('"') => write!(f, "'{s}'"),
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
            Expr::Call(func, args) => {
                write!(f, "{}(", func.row().0)?;
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
            Expr::RootedPath(e, p) if matches!(**e, Expr::Var(_) | Expr::Call(..)) => {
                write!(f, "{e}/{p}")
            }
            // Bare, a path or a literal base would read differently.
            Expr::RootedPath(e, p) => write!(f, "({e})/{p}"),
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

    /// Every row resolves, under its name and with `fn:`, at each end of
    /// its arity range and nowhere outside it, and prints as a name of
    /// its own function.
    #[test]
    fn every_function_row_resolves() {
        for &(name, f, min, max, _) in FUNCTIONS {
            let most = max.min(min + 2);
            for arity in [min, most] {
                assert_eq!(Func::resolve(name, arity), Ok(f), "{name}/{arity}");
                assert_eq!(Func::resolve(&format!("fn:{name}"), arity), Ok(f));
            }
            assert_eq!(Func::resolve(f.row().0, min), Ok(f), "{name}");
            if min > 0 {
                assert!(Func::resolve(name, min - 1).is_err(), "{name}");
            }
            if max < usize::MAX {
                assert!(Func::resolve(name, max + 1).is_err(), "{name}");
            }
        }
        assert!(Func::resolve("fn:fn:count", 1).is_err());
        assert!(Func::resolve("text", 0).is_err());
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
