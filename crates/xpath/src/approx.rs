//! Sound approximation of full XPath into XPathℓ (paper §3.3 and §4.3).
//!
//! Two stages:
//!
//! 1. **Axis elimination (§4.3)** — `following`/`preceding` are rewritten
//!    through the W3C equivalence to sibling axes, and sibling axes are
//!    over-approximated by `parent::node()/child::Test`.
//! 2. **Predicate extraction (§3.3)** — every predicate expression `Exp`
//!    is rewritten to a disjunction of *simple paths* by the extraction
//!    function **P**. Structural conditions keep their paths (suffixed
//!    with `descendant-or-self::node()` when the consuming operator needs
//!    the node's whole string value, per the `F(f, i)` table); any
//!    non-structural condition adds the always-true `self::node()`
//!    disjunct so the inferred projector is never restricted unsoundly.
//!
//! The result is an [`Approximation`]: a main [`LPath`] plus auxiliary
//! absolute paths discovered inside predicates (e.g. `[/site/x]`), all of
//! which must be fed to projector inference and unioned.

use crate::ast::{Axis, Expr, LocationPath, NodeTest, Step};
use crate::xpathl::{LAxis, LPath, LStep, LTest, SimplePath, SimpleStep};

/// Result of approximating one query.
#[derive(Clone, Debug, PartialEq)]
pub struct Approximation {
    /// The main XPathℓ path.
    pub path: LPath,
    /// Whether the original path was absolute (rooted at `/`). Relative
    /// queries are analysed from the DTD root element instead of the
    /// synthetic document name.
    pub absolute: bool,
    /// Absolute paths found inside predicates; each is a self-contained
    /// data need whose projector must be unioned with the main one.
    pub auxiliary: Vec<LPath>,
}

/// Outcome of extracting the data needs of one predicate expression
/// (the function **P** of §3.3).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PredicatePaths {
    /// Simple paths whose disjunction approximates the predicate.
    pub disjuncts: Vec<SimplePath>,
    /// Absolute data needs found inside.
    pub auxiliary: Vec<LPath>,
    /// True when a non-structural condition occurred, requiring the
    /// always-true `self::node()` disjunct (no pruning of the filter).
    pub needs_self: bool,
}

impl PredicatePaths {
    fn merge(&mut self, other: PredicatePaths) {
        self.disjuncts.extend(other.disjuncts);
        self.auxiliary.extend(other.auxiliary);
        self.needs_self |= other.needs_self;
    }

    /// The final condition: disjuncts plus `self::node()` when needed.
    pub fn into_condition(mut self) -> (Vec<SimplePath>, Vec<LPath>) {
        if self.needs_self || self.disjuncts.is_empty() {
            self.disjuncts.push(vec![SimpleStep::self_node()]);
        }
        (self.disjuncts, self.auxiliary)
    }
}

/// Approximates a full XPath location path into XPathℓ.
pub fn approximate_query(q: &LocationPath) -> Approximation {
    let (steps, auxiliary) = approximate_steps(&q.steps);
    Approximation {
        path: LPath { steps },
        absolute: q.absolute,
        auxiliary,
    }
}

/// Approximates a step sequence; returns XPathℓ steps plus auxiliary
/// absolute data needs. Exposed for the XQuery path extractor.
pub fn approximate_steps(steps: &[Step]) -> (Vec<LStep>, Vec<LPath>) {
    let mut out: Vec<LStep> = Vec::new();
    let mut aux: Vec<LPath> = Vec::new();
    for (idx, step) in steps.iter().enumerate() {
        let is_last = idx + 1 == steps.len();
        let spine = rewrite_axis(step, is_last);
        let n = spine.len();
        for (j, s) in spine.into_iter().enumerate() {
            if j + 1 == n && !step.predicates.is_empty() {
                // Attach the (approximated) predicates to the final step
                // of the rewritten group: Step[Exp] ⇒ Step[or(P(Exp))].
                let mut pp = PredicatePaths::default();
                for pred in &step.predicates {
                    pp.merge(extract_expr(pred));
                }
                let (cond, extra_aux) = pp.into_condition();
                aux.extend(extra_aux);
                out.push(LStep { step: s, cond });
            } else {
                out.push(LStep::plain(s));
            }
        }
    }
    (out, aux)
}

/// §4.3 axis rewriting. Produces the XPathℓ spine for one step; the
/// node test lands on the last produced step.
fn rewrite_axis(step: &Step, is_last: bool) -> Vec<SimpleStep> {
    let test = convert_test(&step.test);
    match step.axis {
        Axis::Child => vec![SimpleStep::new(LAxis::Child, test)],
        Axis::Descendant => vec![SimpleStep::new(LAxis::Descendant, test)],
        Axis::DescendantOrSelf => vec![SimpleStep::new(LAxis::DescendantOrSelf, test)],
        Axis::Parent => vec![SimpleStep::new(LAxis::Parent, test)],
        Axis::Ancestor => vec![SimpleStep::new(LAxis::Ancestor, test)],
        Axis::AncestorOrSelf => vec![SimpleStep::new(LAxis::AncestorOrSelf, test)],
        Axis::SelfAxis => vec![SimpleStep::new(LAxis::SelfAxis, test)],
        // preceding-sibling :: T  ≈  parent::node()/child::T  (§4.3)
        Axis::FollowingSibling | Axis::PrecedingSibling => vec![
            SimpleStep::new(LAxis::Parent, LTest::Node),
            SimpleStep::new(LAxis::Child, test),
        ],
        // following :: T = ancestor-or-self::node()/following-sibling::
        // node()/descendant-or-self::T, then the sibling rewriting.
        Axis::Following | Axis::Preceding => vec![
            SimpleStep::new(LAxis::AncestorOrSelf, LTest::Node),
            SimpleStep::new(LAxis::Parent, LTest::Node),
            SimpleStep::new(LAxis::Child, LTest::Node),
            SimpleStep::new(LAxis::DescendantOrSelf, test),
        ],
        Axis::Attribute => {
            // Attributes live and die with their element: keeping the
            // element suffices. A final attribute step refines the filter
            // to elements that declare the attribute.
            if is_last {
                let name = match &step.test {
                    NodeTest::Tag(t) => Some(t.clone()),
                    _ => None,
                };
                vec![SimpleStep::new(LAxis::SelfAxis, LTest::HasAttribute(name))]
            } else {
                vec![SimpleStep::new(LAxis::SelfAxis, LTest::Node)]
            }
        }
    }
}

fn convert_test(t: &NodeTest) -> LTest {
    match t {
        NodeTest::Tag(s) => LTest::Tag(s.clone()),
        NodeTest::Node => LTest::Node,
        NodeTest::Text => LTest::Text,
        NodeTest::Element => LTest::Element,
    }
}

/// The extraction function **P** (§3.3): data needs of an expression.
pub fn extract_expr(e: &Expr) -> PredicatePaths {
    match e {
        Expr::Path(lp) => {
            if lp.absolute {
                // A predicate rooted at `/` is a global data need; the
                // local filter must not restrict anything.
                let a = approximate_query(lp);
                let mut aux = a.auxiliary;
                aux.push(a.path);
                PredicatePaths {
                    disjuncts: Vec::new(),
                    auxiliary: aux,
                    needs_self: true,
                }
            } else {
                relative_path_needs(&lp.steps)
            }
        }
        Expr::Literal(_) | Expr::Number(_) => PredicatePaths::default(),
        Expr::Or(a, b) | Expr::And(a, b) | Expr::Union(a, b) => {
            let mut pa = extract_expr(a);
            pa.merge(extract_expr(b));
            pa
        }
        Expr::Compare(_, a, b) | Expr::Arith(_, a, b) => {
            // Value comparisons and arithmetic read the *string values* of
            // node-set operands: suffix those paths with
            // descendant-or-self::node(). Operands that already produce
            // atomic values (count(…), literals, arithmetic) keep their
            // own needs untouched.
            let mut pa = comparison_operand(a);
            pa.merge(comparison_operand(b));
            pa
        }
        Expr::Neg(inner) => comparison_operand(inner),
        Expr::Call(f, args) => {
            let mut out = PredicatePaths {
                // A function application is never purely structural.
                needs_self: true,
                ..Default::default()
            };
            for a in args {
                let pa = extract_expr(a);
                out.merge(if f.reads_strings() {
                    suffix_dos(pa)
                } else {
                    pa
                });
            }
            out
        }
        // Variables are resolved by the XQuery extractor; encountering one
        // here means we cannot reason locally.
        Expr::Var(_) => PredicatePaths {
            needs_self: true,
            ..Default::default()
        },
        Expr::RootedPath(base, _) => {
            // $x/p inside a predicate: the path contributes needs relative
            // to $x, which the XQuery layer accounts for; locally we only
            // know the filter is non-structural.
            let mut pb = extract_expr(base);
            pb.needs_self = true;
            pb
        }
    }
}

/// Data needs of a relative path used as a condition: its spine plus the
/// (prefixed) needs of every nested predicate.
fn relative_path_needs(steps: &[Step]) -> PredicatePaths {
    let mut out = PredicatePaths::default();
    let mut spine: SimplePath = Vec::new();
    for (idx, step) in steps.iter().enumerate() {
        let is_last = idx + 1 == steps.len();
        spine.extend(rewrite_axis(step, is_last));
        for pred in &step.predicates {
            let inner = extract_expr(pred);
            out.auxiliary.extend(inner.auxiliary);
            for p in inner.disjuncts {
                let mut q = spine.clone();
                q.extend(p);
                out.disjuncts.push(q);
            }
            // Inner `needs_self` is covered by the spine disjunct below.
        }
    }
    out.disjuncts.push(spine);
    out
}

/// Extracts one comparison/arithmetic operand, dos-suffixing its paths
/// exactly when the operand is node-set-valued (its string value is read).
fn comparison_operand(e: &Expr) -> PredicatePaths {
    match e {
        Expr::Path(_) | Expr::RootedPath(_, _) | Expr::Union(_, _) | Expr::Var(_) => {
            suffix_dos(extract_expr(e))
        }
        _ => extract_expr(e),
    }
}

fn suffix_dos(mut p: PredicatePaths) -> PredicatePaths {
    for d in &mut p.disjuncts {
        if needs_dos(d.last(), true) {
            d.push(SimpleStep::dos());
        }
    }
    p
}

/// The dos-suffix rule, shared with the XQuery extractor: a path read for
/// its whole subtree gets a final `descendant-or-self::node()` step,
/// unless it ends in an attribute test (the value lives on the element
/// itself) or already ends in that step — with no condition attached
/// (`last_plain`).
pub fn needs_dos(last: Option<&SimpleStep>, last_plain: bool) -> bool {
    match last {
        Some(s) if matches!(s.test, LTest::HasAttribute(_)) => false,
        Some(s) => !(last_plain && *s == SimpleStep::dos()),
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_xpath;

    fn approx(q: &str) -> Approximation {
        match parse_xpath(q).unwrap() {
            Expr::Path(p) => approximate_query(&p),
            other => panic!("expected path, got {other:?}"),
        }
    }

    #[test]
    fn plain_path_is_unchanged() {
        let a = approx("/site/people/person");
        assert!(a.absolute);
        assert!(a.auxiliary.is_empty());
        assert_eq!(
            a.path.to_string(),
            "/child::site/child::people/child::person"
        );
    }

    #[test]
    fn structural_predicate_kept() {
        let a = approx("/site/people/person[profile/gender]/name");
        assert_eq!(
            a.path.to_string(),
            "/child::site/child::people/child::person\
             [child::profile/child::gender]/child::name"
        );
    }

    #[test]
    fn disjunctive_predicate() {
        let a = approx("//person[phone or homepage]");
        let s = a.path.to_string();
        assert!(s.contains("child::phone or child::homepage"), "{s}");
    }

    #[test]
    fn nonstructural_adds_self() {
        // position() is non-structural: the filter must not restrict.
        let a = approx("//bidder[position() > 1]");
        let s = a.path.to_string();
        assert!(s.contains("self::node()"), "{s}");
    }

    #[test]
    fn paper_example_mixed_predicate() {
        // [position()>1 and parent::node()/book/author="Dante" and year>1313]
        let a = approx("//x[position()>1 and parent::node()/book/author=\"Dante\" and year>1313]");
        let cond = &a.path.steps.last().unwrap().cond;
        // three disjuncts: the two structural paths (dos-suffixed for the
        // string comparisons) + self::node() for position()
        assert_eq!(cond.len(), 3);
        let strs: Vec<String> = cond
            .iter()
            .map(|p| {
                p.iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join("/")
            })
            .collect();
        assert!(strs
            .iter()
            .any(|s| s.starts_with("parent::node()/child::book/child::author")));
        assert!(strs.iter().any(|s| s.starts_with("child::year")));
        assert!(strs.iter().any(|s| s == "self::node()"));
        // value comparisons read string values
        assert!(strs
            .iter()
            .filter(|s| *s != "self::node()")
            .all(|s| s.ends_with("descendant-or-self::node()")));
    }

    #[test]
    fn count_does_not_need_subtree() {
        let a = approx("//open_auction[count(bidder) > 5]");
        let cond = &a.path.steps.last().unwrap().cond;
        let strs: Vec<String> = cond
            .iter()
            .map(|p| {
                p.iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join("/")
            })
            .collect();
        // count's argument path is NOT dos-suffixed …
        assert!(strs.iter().any(|s| s == "child::bidder"), "{strs:?}");
        // … but the predicate is non-structural, so self::node() appears.
        assert!(strs.iter().any(|s| s == "self::node()"));
    }

    #[test]
    fn contains_needs_subtree() {
        let a = approx("//item[contains(description, \"gold\")]");
        let cond = &a.path.steps.last().unwrap().cond;
        let strs: Vec<String> = cond
            .iter()
            .map(|p| {
                p.iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join("/")
            })
            .collect();
        assert!(strs
            .iter()
            .any(|s| s == "child::description/descendant-or-self::node()"));
    }

    #[test]
    fn not_keeps_self_and_paths() {
        // descendant::node()[not(child::a)] — paper §3.3 example
        let a = approx("//x[not(child::a)]");
        let cond = &a.path.steps.last().unwrap().cond;
        let strs: Vec<String> = cond
            .iter()
            .map(|p| {
                p.iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join("/")
            })
            .collect();
        assert!(strs.iter().any(|s| s == "child::a"));
        assert!(strs.iter().any(|s| s == "self::node()"));
    }

    #[test]
    fn sibling_axis_rewriting() {
        let a = approx("//bidder[following-sibling::bidder]");
        let cond = &a.path.steps.last().unwrap().cond;
        let strs: Vec<String> = cond
            .iter()
            .map(|p| {
                p.iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join("/")
            })
            .collect();
        assert!(
            strs.iter().any(|s| s == "parent::node()/child::bidder"),
            "{strs:?}"
        );
    }

    #[test]
    fn following_axis_rewriting() {
        let a = approx("/site/regions/following::item");
        let s = a.path.to_string();
        assert!(
            s.ends_with(
                "ancestor-or-self::node()/parent::node()/child::node()\
                 /descendant-or-self::item"
            ),
            "{s}"
        );
    }

    #[test]
    fn attribute_final_step() {
        let a = approx("//person/@id");
        let s = a.path.to_string();
        assert!(s.ends_with("self::node()[@id]"), "{s}");
    }

    #[test]
    fn attribute_in_predicate() {
        let a = approx("//person[@income]/name");
        // steps: descendant-or-self::node(), child::person[…], child::name
        let cond = &a.path.steps[1].cond;
        assert_eq!(cond.len(), 1);
        assert_eq!(cond[0].len(), 1);
        assert_eq!(cond[0][0].test, LTest::HasAttribute(Some("income".into())));
    }

    #[test]
    fn nested_predicates_flattened() {
        // a[b[c]/d]: needs are child::b/child::d (spine) and child::b/child::c
        let a = approx("//a[b[c]/d]");
        let cond = &a.path.steps.last().unwrap().cond;
        let strs: Vec<String> = cond
            .iter()
            .map(|p| {
                p.iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join("/")
            })
            .collect();
        assert!(strs.iter().any(|s| s == "child::b/child::d"), "{strs:?}");
        assert!(strs.iter().any(|s| s == "child::b/child::c"), "{strs:?}");
    }

    #[test]
    fn absolute_predicate_goes_auxiliary() {
        let a = approx("//item[/site/people/person]");
        assert_eq!(a.auxiliary.len(), 1);
        assert_eq!(
            a.auxiliary[0].to_string(),
            "/child::site/child::people/child::person"
        );
        let cond = &a.path.steps.last().unwrap().cond;
        // locally: just self::node() (no restriction)
        assert_eq!(cond.len(), 1);
        assert_eq!(cond[0], vec![SimpleStep::self_node()]);
    }

    #[test]
    fn multiple_predicates_union() {
        let a = approx("//person[phone][homepage]");
        let cond = &a.path.steps.last().unwrap().cond;
        assert_eq!(cond.len(), 2);
    }

    #[test]
    fn numeric_predicate_is_positional() {
        let a = approx("//bidder[1]");
        let cond = &a.path.steps.last().unwrap().cond;
        assert_eq!(cond.len(), 1);
        assert_eq!(cond[0], vec![SimpleStep::self_node()]);
    }
}
