//! Strong specification of queries (paper Def. 4.6) — the query-side
//! precondition of the completeness theorem (Thm. 4.7).
//!
//! A query is *strongly specified* when:
//!
//! 1. its predicates use no backward axes;
//! 2. along the query and along each predicate path there are no two
//!    consecutive (possibly conditional) steps whose test is `node()`;
//! 3. each predicate contains at most one path, and that path does not
//!    terminate with a `node()` test.
//!
//! The paper observes that almost every XMark / XPathMark path satisfies
//! this; the checker lets a user know whether the optimality guarantee
//! applies to their query or only the (always valid) soundness one.

use crate::ast::{Axis, Expr, LocationPath, NodeTest, Step};

/// Why a query fails to be strongly specified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecViolation {
    /// A predicate uses `parent`, `ancestor*`, `preceding*` (cond. i).
    BackwardAxisInPredicate(Axis),
    /// Two consecutive steps test `node()` (cond. ii).
    ConsecutiveNodeTests,
    /// A predicate contains more than one path (cond. iii).
    MultiplePathsInPredicate,
    /// A predicate path ends with a `node()` test (cond. iii).
    PredicatePathEndsInNode,
}

impl std::fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecViolation::BackwardAxisInPredicate(a) => {
                write!(
                    f,
                    "Def. 4.6(i): predicate uses the backward axis {}",
                    a.name()
                )
            }
            SpecViolation::ConsecutiveNodeTests => {
                write!(f, "Def. 4.6(ii): two consecutive steps test node()")
            }
            SpecViolation::MultiplePathsInPredicate => {
                write!(f, "Def. 4.6(iii): a predicate contains more than one path")
            }
            SpecViolation::PredicatePathEndsInNode => {
                write!(
                    f,
                    "Def. 4.6(iii): a predicate path terminates with a node() test"
                )
            }
        }
    }
}

/// Checks Def. 4.6; `Ok(())` means the Thm. 4.7 query-side precondition
/// holds.
pub fn check_strongly_specified(q: &LocationPath) -> Result<(), SpecViolation> {
    check_consecutive(&q.steps)?;
    for step in &q.steps {
        for pred in &step.predicates {
            check_predicate(pred)?;
        }
    }
    Ok(())
}

fn is_node_test(s: &Step) -> bool {
    s.test == NodeTest::Node
}

fn check_consecutive(steps: &[Step]) -> Result<(), SpecViolation> {
    for w in steps.windows(2) {
        if is_node_test(&w[0]) && is_node_test(&w[1]) {
            return Err(SpecViolation::ConsecutiveNodeTests);
        }
    }
    Ok(())
}

fn check_predicate(e: &Expr) -> Result<(), SpecViolation> {
    let mut paths = Vec::new();
    collect_paths(e, &mut paths);
    if paths.len() > 1 {
        return Err(SpecViolation::MultiplePathsInPredicate);
    }
    for p in paths {
        for step in &p.steps {
            if step.axis.is_reverse() {
                return Err(SpecViolation::BackwardAxisInPredicate(step.axis));
            }
            for nested in &step.predicates {
                check_predicate(nested)?;
            }
        }
        check_consecutive(&p.steps)?;
        if let Some(last) = p.steps.last() {
            if is_node_test(last) {
                return Err(SpecViolation::PredicatePathEndsInNode);
            }
        }
    }
    Ok(())
}

fn collect_paths<'e>(e: &'e Expr, out: &mut Vec<&'e LocationPath>) {
    match e {
        Expr::Path(p) => out.push(p),
        Expr::RootedPath(base, p) => {
            collect_paths(base, out);
            out.push(p);
        }
        Expr::Or(a, b)
        | Expr::And(a, b)
        | Expr::Compare(_, a, b)
        | Expr::Arith(_, a, b)
        | Expr::Union(a, b) => {
            collect_paths(a, out);
            collect_paths(b, out);
        }
        Expr::Neg(a) => collect_paths(a, out),
        Expr::Call(_, args) => {
            for a in args {
                collect_paths(a, out);
            }
        }
        Expr::Literal(_) | Expr::Number(_) | Expr::Var(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_xpath;

    fn check(q: &str) -> Result<(), SpecViolation> {
        match parse_xpath(q).unwrap() {
            Expr::Path(p) => check_strongly_specified(&p),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn paper_examples() {
        // the paper's five examples after Def. 4.6: first two are strongly
        // specified, the rest are not
        assert!(check("descendant::node()/self::a/ancestor::node()").is_ok());
        assert!(check("descendant::node()[child::b]/self::a/parent::node()").is_ok());
        assert_eq!(
            check("descendant::node()/ancestor::node()/self::a"),
            Err(SpecViolation::ConsecutiveNodeTests)
        );
        assert_eq!(
            check("descendant::node()[child::b/child::node()]/self::a"),
            Err(SpecViolation::PredicatePathEndsInNode)
        );
        assert!(matches!(
            check("child::a[descendant::node()/parent::b]/child::c"),
            Err(SpecViolation::BackwardAxisInPredicate(_))
        ));
    }

    #[test]
    fn disjunction_is_two_paths() {
        assert_eq!(
            check("self::a[child::b or child::c]"),
            Err(SpecViolation::MultiplePathsInPredicate)
        );
    }

    #[test]
    fn self_node_condition_fails() {
        assert_eq!(
            check("self::a[child::node()]"),
            Err(SpecViolation::PredicatePathEndsInNode)
        );
    }

    #[test]
    fn workload_ratio_matches_paper_claim() {
        // the paper: "almost all paths in the XMark and XPathMark
        // benchmarks are strongly specified"
        let qs = [
            "/site/closed_auctions/closed_auction/annotation/description/text/keyword",
            "//closed_auction//keyword",
            "/site/closed_auctions/closed_auction[annotation/description/text/keyword]/date",
            "/site/closed_auctions/closed_auction[descendant::keyword]/date",
            "/site/people/person[profile/gender]/name",
            "//open_auction/bidder/increase",
        ];
        for q in qs {
            assert!(check(q).is_ok(), "{q}");
        }
    }

    #[test]
    fn abbreviated_descendant_is_fine() {
        // //a = descendant-or-self::node()/child::a — alternating tests
        assert!(check("//a//b").is_ok());
        // //node() has two consecutive node() steps
        assert_eq!(check("//node()"), Err(SpecViolation::ConsecutiveNodeTests));
    }
}
