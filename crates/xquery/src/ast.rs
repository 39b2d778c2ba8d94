//! Abstract syntax of the XQuery FLWR core.

use std::fmt;
use xproj_xpath::ast::Expr;

/// An XQuery query (the `q` grammar of §5).
#[derive(Clone, Debug, PartialEq)]
pub enum XQuery {
    /// `()`
    Empty,
    /// `q₁, q₂, …`
    Sequence(Vec<XQuery>),
    /// `<tag>q</tag>` — element construction. Attributes with constant
    /// values are supported (XMark uses none on constructors we cover).
    Element {
        /// The constructed tag.
        tag: String,
        /// Content query.
        content: Box<XQuery>,
    },
    /// A literal text chunk inside a constructor (only there).
    Text(String),
    /// An embedded XPath expression (paths, variables, calls, operators).
    Expr(Expr),
    /// `if q then q₁ else q₂` — the condition is a full query so that
    /// quantified expressions can appear in `where` clauses; plain
    /// expression conditions are `XQuery::Expr` inside.
    If {
        /// The condition.
        cond: Box<XQuery>,
        /// Then-branch.
        then: Box<XQuery>,
        /// Else-branch.
        els: Box<XQuery>,
    },
    /// `some|every $x in q satisfies q` — evaluates to a boolean.
    Quantified {
        /// `true` for `every`, `false` for `some`.
        every: bool,
        /// Bound variable (without `$`).
        var: String,
        /// Source query.
        source: Box<XQuery>,
        /// Condition, evaluated per binding.
        cond: Box<XQuery>,
    },
    /// `for $x in q₁ return q₂`
    For {
        /// Bound variable (without `$`).
        var: String,
        /// Source query.
        source: Box<XQuery>,
        /// Body.
        body: Box<XQuery>,
    },
    /// `for $x in q₁ order by k [descending] return q₂` — the XQuery
    /// FLWOR `order by` clause, attached to its innermost `for`.
    SortedFor {
        /// Bound variable (without `$`).
        var: String,
        /// Source query.
        source: Box<XQuery>,
        /// Sort key, evaluated with the variable bound to each item.
        key: Expr,
        /// Descending order?
        descending: bool,
        /// Body.
        body: Box<XQuery>,
    },
    /// `let $x := q₁ return q₂`
    Let {
        /// Bound variable (without `$`).
        var: String,
        /// Bound query.
        value: Box<XQuery>,
        /// Body.
        body: Box<XQuery>,
    },
}

impl fmt::Display for XQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XQuery::Empty => write!(f, "()"),
            XQuery::Sequence(qs) => {
                write!(f, "(")?;
                for (i, q) in qs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{q}")?;
                }
                write!(f, ")")
            }
            // Constructor content prints as such, so the text parses
            // back to the same query.
            XQuery::Element { tag, content } => {
                let parts = match content.as_ref() {
                    XQuery::Sequence(parts) => parts.as_slice(),
                    XQuery::Empty => &[],
                    one => std::slice::from_ref(one),
                };
                write!(f, "<{tag}>")?;
                for part in parts {
                    match part {
                        XQuery::Text(_) | XQuery::Element { .. } => write!(f, "{part}")?,
                        _ => write!(f, "{{{part}}}")?,
                    }
                }
                write!(f, "</{tag}>")
            }
            XQuery::Text(s) => write!(f, "{s}"),
            XQuery::Expr(e) => write!(f, "{e}"),
            XQuery::If { cond, then, els } => {
                write!(f, "if ({cond}) then {then} else {els}")
            }
            XQuery::Quantified {
                every,
                var,
                source,
                cond,
            } => {
                let kw = if *every { "every" } else { "some" };
                write!(f, "{kw} ${var} in {source} satisfies {cond}")
            }
            XQuery::For { var, source, body } => {
                write!(f, "for ${var} in {source} return {body}")
            }
            XQuery::SortedFor {
                var,
                source,
                key,
                descending,
                body,
            } => {
                let dir = if *descending { " descending" } else { "" };
                write!(
                    f,
                    "for ${var} in {source} order by {key}{dir} return {body}"
                )
            }
            XQuery::Let { var, value, body } => {
                write!(f, "let ${var} := {value} return {body}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round() {
        let q = XQuery::For {
            var: "b".into(),
            source: Box::new(XQuery::Expr(
                xproj_xpath::parse_xpath("/site/people/person").unwrap(),
            )),
            body: Box::new(XQuery::Element {
                tag: "item".into(),
                content: Box::new(XQuery::Expr(xproj_xpath::parse_xpath("$b/name").unwrap())),
            }),
        };
        let s = q.to_string();
        assert!(s.starts_with("for $b in /"));
        assert!(s.contains("<item>"));
    }
}
