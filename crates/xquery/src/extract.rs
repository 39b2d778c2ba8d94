//! Path extraction for XQuery — the function **E**(q, Γ, m) of Figure 3,
//! plus the §5 rewriting heuristic.
//!
//! Extraction turns a query into a set of *absolute* XPathℓ paths
//! describing its data needs. The flag `m` records whether the sub-query
//! contributes to a materialised result (`m = 1`, paths are extended with
//! `descendant-or-self::node()` so whole result subtrees survive) or only
//! selects nodes whose descendants are not needed (`m = 0`). The
//! environment Γ maps in-scope variables to the paths of their bindings,
//! tagged `for` or `let`.
//!
//! The heuristic extracts
//! `for $y in Q/descendant-or-self::node() return if C($y) then q else ()`
//! as `for $y in Q/descendant-or-self::node()[C(self)] return q`
//! *for extraction only* — evaluation uses the original query, and the
//! query itself is never rewritten — which is what lets predicates keep
//! pruning where purely path-based extraction (Marian–Siméon)
//! degenerates to "keep everything" (§5).

use crate::ast::XQuery;
use std::collections::HashMap;
use xproj_core::{Projector, StaticAnalyzer};
use xproj_xpath::approx::{approximate_steps, needs_dos};
use xproj_xpath::ast::{Axis, Expr, LocationPath, NodeTest, Step};
use xproj_xpath::xpathl::{LPath, LStep, SimpleStep};

/// How a variable was bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BindKind {
    For,
    Let,
}

#[derive(Clone, Default)]
struct Gamma {
    vars: HashMap<String, (BindKind, Vec<LPath>)>,
}

impl Gamma {
    fn for_paths(&self) -> Vec<LPath> {
        self.vars
            .values()
            .filter(|(k, _)| *k == BindKind::For)
            .flat_map(|(_, ps)| ps.iter().cloned())
            .collect()
    }

    fn all_paths(&self) -> Vec<LPath> {
        self.vars
            .values()
            .flat_map(|(_, ps)| ps.iter().cloned())
            .collect()
    }

    fn paths_of(&self, var: &str) -> Vec<LPath> {
        self.vars
            .get(var)
            .map(|(_, ps)| ps.clone())
            .unwrap_or_default()
    }
}

/// Extracts the data-need paths of a closed query (`E(q, ∅, 1)`).
pub fn extract_paths(q: &XQuery) -> Vec<LPath> {
    let mut out = extract(q, &Gamma::default(), 1);
    dedup_paths(&mut out);
    out
}

/// Infers the projector for a parsed query: the union of the projectors
/// of every extracted path (§5).
pub fn project_xquery(sa: &mut StaticAnalyzer<'_>, q: &XQuery) -> Projector {
    sa.project_paths(extract_paths(q).iter().map(|p| (p, true)), false)
}

/// Parses and projects a query string.
pub fn project_xquery_str(
    sa: &mut StaticAnalyzer<'_>,
    query: &str,
) -> Result<Projector, xproj_xpath::QueryParseError> {
    let q = crate::parser::parse_xquery(query)?;
    Ok(project_xquery(sa, &q))
}

/// Drops every path equal to an earlier one, keeping the first.
fn dedup_paths(paths: &mut Vec<LPath>) {
    let mut kept: Vec<LPath> = Vec::with_capacity(paths.len());
    for p in paths.drain(..) {
        if !kept.contains(&p) {
            kept.push(p);
        }
    }
    *paths = kept;
}

fn dos_step() -> LStep {
    LStep::plain(SimpleStep::dos())
}

fn with_dos(mut p: LPath) -> LPath {
    let last = p.steps.last();
    if needs_dos(
        last.map(|s| &s.step),
        last.is_some_and(|s| s.cond.is_empty()),
    ) {
        p.steps.push(dos_step());
    }
    p
}

/// E(q, Γ, m) — Figure 3.
fn extract(q: &XQuery, gamma: &Gamma, m: u8) -> Vec<LPath> {
    match q {
        // 1. E((), Γ, m) = ∅
        XQuery::Empty => Vec::new(),
        // literal text behaves like AExp (rules 2–3)
        XQuery::Text(_) => {
            if m == 1 {
                gamma.for_paths()
            } else {
                Vec::new()
            }
        }
        // 4. sequences
        XQuery::Sequence(qs) => qs.iter().flat_map(|s| extract(s, gamma, m)).collect(),
        // 5. constructors: for-paths ∪ E(content, Γ, 1)
        XQuery::Element { content, .. } => {
            let mut out = gamma.for_paths();
            out.extend(extract(content, gamma, 1));
            out
        }
        // 15. if: condition with m = 0, branches with m = 1, plus the
        // paths of all bindings in scope.
        XQuery::If { cond, then, els } => {
            let mut out = extract(cond, gamma, 0);
            out.extend(extract(then, gamma, 1));
            out.extend(extract(els, gamma, 1));
            out.extend(gamma.all_paths());
            out
        }
        // quantifiers: like a for whose body is a condition
        XQuery::Quantified {
            var, source, cond, ..
        } => {
            let src = extract(source, gamma, 0);
            let mut g2 = gamma.clone();
            g2.vars.insert(var.clone(), (BindKind::For, src.clone()));
            let mut out = src;
            out.extend(extract(cond, &g2, 0));
            out
        }
        // 16. for, with the §5 heuristic applied in place
        XQuery::For { var, source, body } => {
            let filtered = filtered_for(var, source, body);
            let (source, body) = match &filtered {
                Some((source, then)) => (source, *then),
                None => (source.as_ref(), body.as_ref()),
            };
            let src = extract(source, gamma, 0);
            let mut g2 = gamma.clone();
            g2.vars.insert(var.clone(), (BindKind::For, src.clone()));
            let mut out = src;
            out.extend(extract(body, &g2, m));
            out
        }
        // order by: as `for`, plus the sort key's data needs (read as
        // string values, hence dos-suffixed).
        XQuery::SortedFor {
            var,
            source,
            key,
            body,
            ..
        } => {
            let src = extract(source, gamma, 0);
            let mut g2 = gamma.clone();
            g2.vars.insert(var.clone(), (BindKind::For, src.clone()));
            let mut out = src;
            out.extend(extract_from_expr(key, &g2, 0).into_iter().map(with_dos));
            out.extend(extract(body, &g2, m));
            out
        }
        // 17. let
        XQuery::Let { var, value, body } => {
            let val = extract(value, gamma, 0);
            let mut g2 = gamma.clone();
            g2.vars.insert(var.clone(), (BindKind::Let, val.clone()));
            let mut out = val;
            out.extend(extract(body, &g2, m));
            out
        }
        XQuery::Expr(e) => extract_from_expr(e, gamma, m),
    }
}

/// Rules 2, 6–14 — expressions.
fn extract_from_expr(e: &Expr, gamma: &Gamma, m: u8) -> Vec<LPath> {
    match e {
        // 6/7. variables
        Expr::Var(x) => {
            let ps = gamma.paths_of(x);
            if m == 1 {
                ps.into_iter().map(with_dos).collect()
            } else {
                ps
            }
        }
        // 8/9. absolute paths
        Expr::Path(lp) => path_needs(None, lp, gamma, m),
        // 10. variable-rooted paths
        Expr::RootedPath(base, lp) => match base.as_ref() {
            Expr::Var(x) => path_needs(Some(&gamma.paths_of(x)), lp, gamma, m),
            other => {
                // e.g. (expr)/path — extract the base's needs with the
                // whole subtree (we cannot track the navigation statically)
                let mut out: Vec<LPath> = extract_from_expr(other, gamma, 0)
                    .into_iter()
                    .map(with_dos)
                    .collect();
                if m == 1 {
                    out.extend(gamma.for_paths());
                }
                out
            }
        },
        // 13. binary operators: operands contribute with their string
        // values (dos) — sound refinement of the figure's rule.
        Expr::Compare(_, a, b) | Expr::Arith(_, a, b) => {
            let mut out = operand_needs(a, gamma);
            out.extend(operand_needs(b, gamma));
            out
        }
        Expr::Or(a, b) | Expr::And(a, b) => {
            let mut out = extract_from_expr(a, gamma, 0);
            out.extend(extract_from_expr(b, gamma, 0));
            out
        }
        Expr::Neg(a) => operand_needs(a, gamma),
        Expr::Union(a, b) => {
            let mut out = extract_from_expr(a, gamma, m);
            out.extend(extract_from_expr(b, gamma, m));
            out
        }
        // 14. function calls: arguments with m = 0, dos-suffixed when the
        // function reads string values (the F table).
        Expr::Call(f, args) => {
            let mut out = Vec::new();
            for a in args {
                let needs = extract_from_expr(a, gamma, 0);
                if f.reads_strings() {
                    out.extend(needs.into_iter().map(with_dos));
                } else {
                    out.extend(needs);
                }
            }
            if m == 1 {
                out.extend(gamma.for_paths());
            }
            out
        }
        // 2/3. base values
        Expr::Literal(_) | Expr::Number(_) => {
            if m == 1 {
                gamma.for_paths()
            } else {
                Vec::new()
            }
        }
    }
}

fn operand_needs(e: &Expr, gamma: &Gamma) -> Vec<LPath> {
    match e {
        Expr::Path(_) | Expr::RootedPath(_, _) | Expr::Var(_) | Expr::Union(_, _) => {
            extract_from_expr(e, gamma, 0)
                .into_iter()
                .map(with_dos)
                .collect()
        }
        _ => extract_from_expr(e, gamma, 0),
    }
}

/// Data needs of a path, optionally rooted at variable binding paths.
/// Returns the main paths plus auxiliary absolute needs from predicates.
fn path_needs(roots: Option<&[LPath]>, lp: &LocationPath, gamma: &Gamma, m: u8) -> Vec<LPath> {
    // Resolve any nested variable-rooted needs inside predicates first.
    let mut out: Vec<LPath> = Vec::new();
    for step in &lp.steps {
        for pred in &step.predicates {
            out.extend(nested_var_needs(pred, gamma));
        }
    }
    let (steps, aux) = approximate_steps(&lp.steps);
    out.extend(aux);
    let mains: Vec<LPath> = match roots {
        None => vec![LPath { steps }],
        Some(rs) => rs
            .iter()
            .map(|r| {
                let mut s = r.steps.clone();
                s.extend(steps.iter().cloned());
                LPath { steps: s }
            })
            .collect(),
    };
    out.extend(if m == 1 {
        mains.into_iter().map(with_dos).collect::<Vec<_>>()
    } else {
        mains
    });
    out
}

/// Finds `$x/p` sub-expressions inside a predicate and resolves them
/// against Γ (the xpath-level approximation treats them as opaque).
fn nested_var_needs(e: &Expr, gamma: &Gamma) -> Vec<LPath> {
    match e {
        Expr::RootedPath(base, lp) => match base.as_ref() {
            Expr::Var(x) => path_needs(Some(&gamma.paths_of(x)), lp, gamma, 0)
                .into_iter()
                .map(with_dos)
                .collect(),
            other => nested_var_needs(other, gamma),
        },
        Expr::Var(x) => gamma.paths_of(x),
        Expr::Or(a, b)
        | Expr::And(a, b)
        | Expr::Compare(_, a, b)
        | Expr::Arith(_, a, b)
        | Expr::Union(a, b) => {
            let mut out = nested_var_needs(a, gamma);
            out.extend(nested_var_needs(b, gamma));
            out
        }
        Expr::Neg(a) => nested_var_needs(a, gamma),
        Expr::Call(_, args) => args
            .iter()
            .flat_map(|a| nested_var_needs(a, gamma))
            .collect(),
        Expr::Path(p) => p
            .steps
            .iter()
            .flat_map(|s| {
                s.predicates
                    .iter()
                    .flat_map(|pr| nested_var_needs(pr, gamma))
            })
            .collect(),
        Expr::Literal(_) | Expr::Number(_) => Vec::new(),
    }
}

/// The §5 heuristic's pattern: a path `source` and a `body` of
/// `if C($var) then q else ()`, where `C` refers to no other variable and
/// `q` is not an `if`. Returns the source with `[C(self)]` on its last
/// step, and `q`.
fn filtered_for<'q>(var: &str, source: &XQuery, body: &'q XQuery) -> Option<(XQuery, &'q XQuery)> {
    let XQuery::If { cond, then, els } = body else {
        return None;
    };
    let XQuery::Expr(cond) = cond.as_ref() else {
        return None;
    };
    if !matches!(els.as_ref(), XQuery::Empty)
        || matches!(then.as_ref(), XQuery::If { .. })
        || !only_refers_to(cond, var)
    {
        return None;
    }
    let filtered = match source {
        XQuery::Expr(Expr::Path(p)) => Expr::Path(push_predicate(p, cond, var)?),
        XQuery::Expr(Expr::RootedPath(base, p)) => {
            Expr::RootedPath(base.clone(), push_predicate(p, cond, var)?)
        }
        _ => return None,
    };
    Some((XQuery::Expr(filtered), then))
}

/// Appends `[C(self)]` to the last step of `p`.
fn push_predicate(p: &LocationPath, cond: &Expr, var: &str) -> Option<LocationPath> {
    if p.steps.is_empty() {
        return None;
    }
    let mut p2 = p.clone();
    let rewritten = substitute_self(cond, var);
    p2.steps.last_mut().unwrap().predicates.push(rewritten);
    Some(p2)
}

/// `C(self::node())`: replaces `$var`-rooted paths by relative paths and
/// bare `$var` by `self::node()`.
fn substitute_self(e: &Expr, var: &str) -> Expr {
    match e {
        Expr::Var(x) if x == var => Expr::Path(LocationPath {
            absolute: false,
            steps: vec![Step::new(Axis::SelfAxis, NodeTest::Node)],
        }),
        Expr::RootedPath(base, p) => match base.as_ref() {
            Expr::Var(x) if x == var => {
                let mut p2 = p.clone();
                p2.steps = p
                    .steps
                    .iter()
                    .map(|s| Step {
                        axis: s.axis,
                        test: s.test.clone(),
                        predicates: s
                            .predicates
                            .iter()
                            .map(|pr| substitute_self(pr, var))
                            .collect(),
                    })
                    .collect();
                Expr::Path(p2)
            }
            other => Expr::RootedPath(Box::new(substitute_self(other, var)), p.clone()),
        },
        Expr::Or(a, b) => Expr::Or(
            Box::new(substitute_self(a, var)),
            Box::new(substitute_self(b, var)),
        ),
        Expr::And(a, b) => Expr::And(
            Box::new(substitute_self(a, var)),
            Box::new(substitute_self(b, var)),
        ),
        Expr::Compare(op, a, b) => Expr::Compare(
            *op,
            Box::new(substitute_self(a, var)),
            Box::new(substitute_self(b, var)),
        ),
        Expr::Arith(op, a, b) => Expr::Arith(
            *op,
            Box::new(substitute_self(a, var)),
            Box::new(substitute_self(b, var)),
        ),
        Expr::Neg(a) => Expr::Neg(Box::new(substitute_self(a, var))),
        Expr::Union(a, b) => Expr::Union(
            Box::new(substitute_self(a, var)),
            Box::new(substitute_self(b, var)),
        ),
        Expr::Call(f, args) => {
            Expr::Call(*f, args.iter().map(|a| substitute_self(a, var)).collect())
        }
        other => other.clone(),
    }
}

/// True when every variable occurring in `e` is `var`.
fn only_refers_to(e: &Expr, var: &str) -> bool {
    !e.any(&mut |x| matches!(x, Expr::Var(v) if v != var))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_xquery;
    use xproj_dtd::parse_dtd;

    fn paths_of(q: &str) -> Vec<String> {
        let parsed = parse_xquery(q).unwrap();
        extract_paths(&parsed)
            .iter()
            .map(|p| p.to_string())
            .collect()
    }

    #[test]
    fn bare_path_gets_dos() {
        let ps = paths_of("/site/regions");
        assert_eq!(
            ps,
            vec!["/child::site/child::regions/descendant-or-self::node()"]
        );
    }

    #[test]
    fn for_source_is_selective() {
        let ps = paths_of("for $p in /site/people/person return $p/name");
        // source with m=0 (no dos), body path with dos
        assert!(ps.contains(&"/child::site/child::people/child::person".to_string()));
        assert!(ps.contains(
            &"/child::site/child::people/child::person/child::name\
              /descendant-or-self::node()"
                .to_string()
        ));
    }

    #[test]
    fn let_paths_only_when_used() {
        let ps = paths_of("let $x := /site/people return <r/>");
        // value extracted with m=0; body has no variable use
        assert_eq!(ps, vec!["/child::site/child::people"]);
    }

    #[test]
    fn count_argument_not_materialised() {
        let ps = paths_of("let $n := count(/site/people/person) return <t>{$n}</t>");
        // the count argument itself is extracted with m = 0 (no dos) …
        assert!(ps.contains(&"/child::site/child::people/child::person".to_string()));
        // … while rule 6 conservatively dos-extends the binding when $n is
        // materialised (extraction cannot see that count() is atomic).
    }

    #[test]
    fn unused_count_binding_is_not_materialised() {
        let ps = paths_of("let $n := count(/site/people/person) return <t/>");
        assert_eq!(
            ps,
            vec!["/child::site/child::people/child::person".to_string()]
        );
    }

    #[test]
    fn where_condition_paths_extracted() {
        let ps = paths_of("for $p in /site/people/person where $p/age > 25 return $p/name");
        // the condition contributes $p/age with string value
        assert!(
            ps.iter()
                .any(|p| p.contains("child::age/descendant-or-self")),
            "{ps:?}"
        );
    }

    #[test]
    fn dos_filter_heuristic_applies() {
        let ps = paths_of("for $y in /site//node() return if ($y/k) then <hit/> else ()");
        // condition pushed into the source path predicate
        assert!(ps.iter().any(|p| p.contains("[child::k]")), "{ps:?}");
        // the body is `<hit/>`, not the `if`: its condition is no path of
        // its own
        assert!(!ps.iter().any(|p| p.ends_with("child::k")), "{ps:?}");
    }

    #[test]
    fn heuristic_respects_foreign_variables() {
        let ps = paths_of(
            "for $a in /x/y return for $b in /x/z return \
             if ($a/w) then <h/> else ()",
        );
        // inner if refers to $a, not $b: must NOT be pushed into $b's source
        assert!(ps.contains(&"/child::x/child::z".to_string()), "{ps:?}");
        assert!(!ps.iter().any(|p| p.contains('[')), "{ps:?}");
    }

    #[test]
    fn projector_end_to_end() {
        let dtd = parse_dtd(
            "<!ELEMENT site (people)> <!ELEMENT people (person*)>\
             <!ELEMENT person (name, age, watch*)>\
             <!ELEMENT name (#PCDATA)> <!ELEMENT age (#PCDATA)>\
             <!ELEMENT watch (#PCDATA)>",
            "site",
        )
        .unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = project_xquery_str(
            &mut sa,
            "for $p in /site/people/person where $p/age > 25 return <n>{$p/name/text()}</n>",
        )
        .unwrap();
        let l = p.labels(&dtd);
        assert!(l.contains(&"name"));
        assert!(l.contains(&"name#text"));
        assert!(l.contains(&"age"));
        assert!(!l.contains(&"watch"), "{l:?}");
    }

    #[test]
    fn multiplicity_source_kept_for_constant_bodies() {
        let ps = paths_of("for $p in /site/people/person return <hit/>");
        assert!(ps.contains(&"/child::site/child::people/child::person".to_string()));
    }

    #[test]
    fn nested_var_in_predicate() {
        let ps =
            paths_of("for $p in /site/people/person return /site/items/item[id = $p/target]/name");
        assert!(
            ps.iter()
                .any(|p| p.contains("child::target/descendant-or-self")),
            "{ps:?}"
        );
    }
}

#[cfg(test)]
mod order_by_extract_tests {
    use super::*;
    use crate::parser::parse_xquery;

    #[test]
    fn sort_key_paths_are_extracted() {
        let q =
            parse_xquery("for $i in /site/regions order by $i/name/text() return <r/>").unwrap();
        let ps: Vec<String> = extract_paths(&q).iter().map(|p| p.to_string()).collect();
        assert!(
            ps.iter().any(|p| p.contains("child::name")),
            "sort key needs missing: {ps:?}"
        );
    }
}
