//! XPathℓ — the sublanguage the static analysis operates on (paper §3).
//!
//! XPathℓ restricts XPath to upward/downward axes and *unnested
//! disjunctive structural predicates*:
//!
//! ```text
//! Axis  ::= self | child | descendant | parent | ancestor
//!         | descendant-or-self | ancestor-or-self        (§6 extension)
//! Test  ::= tag | node | text | element() | @attr        (§6 extensions)
//! SPath ::= Step | SPath/SPath          Step ::= Axis :: Test
//! Cond  ::= SPath | Cond or Cond
//! Path  ::= Step | Step[Cond] | Path/Path
//! ```
//!
//! Arbitrary XPath queries are *soundly approximated* into this language
//! by [`crate::approx`]; the projector inferred for the approximation is
//! a sound projector for the original query.

use std::fmt;

/// XPathℓ axes: the paper's five plus the `-or-self` variants handled by
/// the implementation (§6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LAxis {
    /// `self::`
    SelfAxis,
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
}

impl LAxis {
    /// Concrete syntax.
    pub fn name(self) -> &'static str {
        match self {
            LAxis::SelfAxis => "self",
            LAxis::Child => "child",
            LAxis::Descendant => "descendant",
            LAxis::DescendantOrSelf => "descendant-or-self",
            LAxis::Parent => "parent",
            LAxis::Ancestor => "ancestor",
            LAxis::AncestorOrSelf => "ancestor-or-self",
        }
    }
}

/// XPathℓ node tests.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum LTest {
    /// Element tag.
    Tag(String),
    /// `node()`.
    Node,
    /// `text()`.
    Text,
    /// `element()` / `*`.
    Element,
    /// Element carrying attribute `Some(name)` (or any attribute for
    /// `None`) — how attribute steps are folded into the analysis.
    HasAttribute(Option<String>),
}

/// A predicate-free step.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SimpleStep {
    /// Axis.
    pub axis: LAxis,
    /// Test.
    pub test: LTest,
}

impl SimpleStep {
    /// Convenience constructor.
    pub fn new(axis: LAxis, test: LTest) -> Self {
        SimpleStep { axis, test }
    }

    /// `descendant-or-self::node()` — the "whole subtree" marker used by
    /// the predicate approximation and the materialisation extension.
    pub fn dos() -> Self {
        SimpleStep::new(LAxis::DescendantOrSelf, LTest::Node)
    }

    /// `self::node()` — the "just this node" marker.
    pub fn self_node() -> Self {
        SimpleStep::new(LAxis::SelfAxis, LTest::Node)
    }
}

/// A simple path: a sequence of predicate-free steps (the `SPath` of §3.1
/// used inside conditions).
pub type SimplePath = Vec<SimpleStep>;

/// A conditional step of XPathℓ: a step plus an optional disjunction of
/// simple paths.
#[derive(Clone, Debug, PartialEq)]
pub struct LStep {
    /// The step itself.
    pub step: SimpleStep,
    /// Disjunction of structural conditions; empty = unconditioned.
    pub cond: Vec<SimplePath>,
}

impl LStep {
    /// An unconditioned step.
    pub fn plain(step: SimpleStep) -> Self {
        LStep {
            step,
            cond: Vec::new(),
        }
    }
}

/// An XPathℓ path. All paths handed to the static analysis are rooted at
/// the document node (the analysis starts from the synthetic document
/// name whose single child is the DTD root).
#[derive(Clone, Debug, PartialEq)]
pub struct LPath {
    /// Steps in order.
    pub steps: Vec<LStep>,
}

impl LPath {
    /// The empty path (selects the starting node).
    pub fn empty() -> Self {
        LPath { steps: Vec::new() }
    }
}

impl fmt::Display for SimpleStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}::", self.axis.name())?;
        match &self.test {
            LTest::Tag(t) => write!(f, "{t}"),
            LTest::Node => write!(f, "node()"),
            LTest::Text => write!(f, "text()"),
            LTest::Element => write!(f, "element()"),
            LTest::HasAttribute(Some(a)) => write!(f, "node()[@{a}]"),
            LTest::HasAttribute(None) => write!(f, "node()[@*]"),
        }
    }
}

impl fmt::Display for LStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.step)?;
        if !self.cond.is_empty() {
            write!(f, "[")?;
            for (i, p) in self.cond.iter().enumerate() {
                if i > 0 {
                    write!(f, " or ")?;
                }
                for (j, s) in p.iter().enumerate() {
                    if j > 0 {
                        write!(f, "/")?;
                    }
                    write!(f, "{s}")?;
                }
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

impl fmt::Display for LPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "/")?;
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let p = LPath {
            steps: vec![
                LStep::plain(SimpleStep::new(LAxis::Child, LTest::Tag("site".into()))),
                LStep {
                    step: SimpleStep::new(LAxis::Descendant, LTest::Node),
                    cond: vec![vec![SimpleStep::new(LAxis::Child, LTest::Tag("a".into()))]],
                },
            ],
        };
        assert_eq!(p.to_string(), "/child::site/descendant::node()[child::a]");
    }
}
