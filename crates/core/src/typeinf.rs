//! The XPathℓ type system of Figure 1.
//!
//! Judgements have the form `(τ, κ) ⊢E Path : (τ′, κ′)` where τ is the set
//! of names the current nodes may have and κ — the *context* — the set of
//! names that may appear on chains from the root to those nodes. Downward
//! axes extend the context; upward axes and tests intersect with it. It is
//! the context that makes the analysis precise in the presence of upward
//! axes (see the paper's `{X → c[Y,Z], Y → a[W,String], Z → b[String],
//! W → d[Y?]}` example, reproduced in the tests below).
//!
//! Environments are well-formed when κ ⊆ τ ∪ A_E(τ, ancestor) **and**
//! τ ⊆ κ; both are preserved by every rule (the second makes the
//! downward-context update `κ ∪ τ′` sufficient).

use crate::analysis::{Analyzer, NormPaths, PStep, PathId};
use xproj_dtd::{NameId, NameSet};
use xproj_xpath::xpathl::LAxis;

/// A typing environment `(τ, κ)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Env {
    /// The type: names the current nodes may have.
    pub tau: NameSet,
    /// The context: names on chains from the root to the current nodes.
    pub kappa: NameSet,
}

impl Env {
    /// Builds an environment (callers must ensure well-formedness).
    pub fn new(tau: NameSet, kappa: NameSet) -> Self {
        Env { tau, kappa }
    }

    /// The environment with both components empty.
    pub fn empty(an: &Analyzer) -> Self {
        Env {
            tau: an.dtd.empty_set(),
            kappa: an.dtd.empty_set(),
        }
    }

    /// Whether the type is empty (the path can never select anything).
    pub fn is_empty(&self) -> bool {
        self.tau.is_empty()
    }
}

/// Types a whole normalised path from `env`: the sequent
/// `env ⊢E steps[idx..] : result`.
pub fn type_path(an: &Analyzer, np: &NormPaths, env: Env, pid: PathId, idx: usize) -> Env {
    let steps = np.steps(pid);
    let mut cur = env;
    for step in &steps[idx..] {
        if cur.tau.is_empty() {
            return Env::empty(an);
        }
        cur = type_step(an, np, cur, step);
    }
    cur
}

/// Applies one primitive step.
fn type_step(an: &Analyzer, np: &NormPaths, env: Env, step: &PStep) -> Env {
    match step {
        PStep::AxisNode(axis) => type_axis(an, env, *axis),
        PStep::SelfTest(test) => {
            let tau = an.test(&env.tau, test);
            let kappa = an.restrict_context(&env.kappa, &tau);
            Env { tau, kappa }
        }
        PStep::Cond(paths) => type_cond(an, np, env, paths),
    }
}

/// The `Axis::node()` rules: downward axes extend the context, upward
/// axes intersect with it.
pub fn type_axis(an: &Analyzer, env: Env, axis: LAxis) -> Env {
    match axis {
        LAxis::SelfAxis => env,
        LAxis::Child | LAxis::Descendant | LAxis::DescendantOrSelf => {
            let tau = an.axis(&env.tau, axis);
            let kappa = if an.use_contexts {
                an.charge(1);
                let mut kappa = env.kappa;
                kappa.union_with(&tau);
                kappa
            } else {
                // ablation: maximal well-formed context, no history
                an.restrict_context(&env.kappa, &tau)
            };
            Env { tau, kappa }
        }
        LAxis::Parent | LAxis::Ancestor => {
            let mut tau = an.axis(&env.tau, axis);
            if an.use_contexts {
                an.charge(1);
                tau.intersect_with(&env.kappa);
            }
            let kappa = an.restrict_context(&env.kappa, &tau);
            Env { tau, kappa }
        }
        LAxis::AncestorOrSelf => {
            // self part stays; the strict-ancestor part is context-pruned.
            let mut anc = an.axis(&env.tau, LAxis::Ancestor);
            if an.use_contexts {
                anc.intersect_with(&env.kappa);
            }
            an.charge(2);
            let mut tau = env.tau.clone();
            tau.union_with(&anc);
            let kappa = an.restrict_context(&env.kappa, &tau);
            Env { tau, kappa }
        }
    }
}

/// The `self::node()[P₁ or … or Pₙ]` rule: keep a name iff at least one
/// disjunct may select something from it; the conditions are typed one
/// context-name at a time.
fn type_cond(an: &Analyzer, np: &NormPaths, env: Env, paths: &[PathId]) -> Env {
    let mut tau = an.dtd.empty_set();
    for x in &env.tau {
        if an.over_budget() {
            break;
        }
        if cond_may_hold(an, np, x, &env.kappa, paths) {
            tau.insert(x);
        }
    }
    let kappa = an.restrict_context(&env.kappa, &tau);
    Env { tau, kappa }
}

/// `∃ i. ({X}, κ|X) ⊢ Pᵢ : (τᵢ, _) with τᵢ ≠ ∅`.
pub fn cond_may_hold(
    an: &Analyzer,
    np: &NormPaths,
    x: NameId,
    kappa: &NameSet,
    paths: &[PathId],
) -> bool {
    let singleton = an.dtd.singleton(x);
    let kx = an.restrict_context(kappa, &singleton);
    paths.iter().any(|&pid| {
        an.charge(1);
        !type_path(an, np, Env::new(singleton.clone(), kx.clone()), pid, 0).is_empty()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_dtd::{parse_dtd, Dtd};
    use xproj_xpath::approx::approximate_query;
    use xproj_xpath::ast::Expr;
    use xproj_xpath::parse_xpath;

    /// Types a full XPath query string; relative queries start from
    /// `({X}, {X})`, absolute ones from `({DOC}, {DOC})`.
    fn type_of(dtd: &Dtd, q: &str) -> Vec<String> {
        let an = Analyzer::new(dtd);
        let Expr::Path(p) = parse_xpath(q).unwrap() else {
            panic!("not a path");
        };
        let a = approximate_query(&p);
        let np = NormPaths::new(&a.path);
        let (tau, kappa) = an.start_env(a.absolute);
        let res = type_path(&an, &np, Env::new(tau, kappa), np.main(), 0);
        let mut v: Vec<String> = res
            .tau
            .iter()
            .filter(|&n| n != dtd.doc_name())
            .map(|n| dtd.label(n).to_string())
            .collect();
        v.sort();
        v
    }

    /// The paper's §4.1 running example:
    /// `{X → c[Y,Z], Y → a[W,String], Z → b[String], W → d[Y?]}`.
    fn paper_dtd() -> Dtd {
        parse_dtd(
            "<!ELEMENT c (a, b)>\
             <!ELEMENT a (d, #PCDATA)>\
             <!ELEMENT b (#PCDATA)>\
             <!ELEMENT d (a?)>",
            "c",
        )
        .unwrap()
    }

    #[test]
    fn downward_steps() {
        let d = paper_dtd();
        assert_eq!(type_of(&d, "self::c/child::a"), vec!["a"]);
        assert_eq!(type_of(&d, "self::c/child::node()"), vec!["a", "b"]);
        assert_eq!(
            type_of(&d, "self::c/descendant::node()"),
            vec!["a", "a#text", "b", "b#text", "d"]
        );
    }

    #[test]
    fn paper_context_example() {
        // Without contexts, self::c/child::a/parent::node() would be typed
        // {X, W}; the context intersection restores the precise {X}.
        let d = paper_dtd();
        assert_eq!(type_of(&d, "self::c/child::a/parent::node()"), vec!["c"]);
    }

    #[test]
    fn recursion_keeps_backward_sound() {
        // With the recursion a ⇄ d, a's parents are both c and d.
        let d = paper_dtd();
        assert_eq!(
            type_of(&d, "self::c/descendant::a/parent::node()"),
            vec!["c", "d"]
        );
    }

    #[test]
    fn text_test() {
        let d = paper_dtd();
        assert_eq!(
            type_of(&d, "self::c/child::b/child::text()"),
            vec!["b#text"]
        );
        // text() under c directly: nothing (c has only element children)
        assert_eq!(type_of(&d, "self::c/child::text()"), Vec::<String>::new());
    }

    #[test]
    fn failing_tag_gives_empty() {
        let d = paper_dtd();
        assert_eq!(type_of(&d, "self::c/child::zzz"), Vec::<String>::new());
        assert_eq!(type_of(&d, "self::b"), Vec::<String>::new());
    }

    #[test]
    fn absolute_paths_via_doc_name() {
        let d = paper_dtd();
        assert_eq!(type_of(&d, "/c"), vec!["c"]);
        assert_eq!(type_of(&d, "/c/a"), vec!["a"]);
        assert_eq!(type_of(&d, "//a"), vec!["a"]);
        // the root has no parent in the data model but DOC in the analysis;
        // no DTD name is selected
        assert_eq!(type_of(&d, "/c/parent::node()"), Vec::<String>::new());
    }

    #[test]
    fn conditions_filter_names() {
        let d = paper_dtd();
        // which children of c can have a d child? only a
        assert_eq!(type_of(&d, "self::c/child::node()[child::d]"), vec!["a"]);
        // which can have text? both
        assert_eq!(
            type_of(&d, "self::c/child::node()[child::text()]"),
            vec!["a", "b"]
        );
        // impossible condition empties the type
        assert_eq!(
            type_of(&d, "self::c/child::node()[child::c]"),
            Vec::<String>::new()
        );
    }

    #[test]
    fn condition_disjunction() {
        let d = paper_dtd();
        assert_eq!(
            type_of(&d, "self::c/child::node()[child::c or child::d]"),
            vec!["a"]
        );
    }

    #[test]
    fn ancestor_axis() {
        // The precise answer would be {a, c}, but this DTD is recursive
        // (a ⇄ d), and the paper's §4.1 discussion shows completeness is
        // lost for backward axes under recursion: d stays in the type.
        // Soundness (⊇ {a, c}) is what matters.
        let d = paper_dtd();
        let t = type_of(&d, "self::c/child::a/child::d/ancestor::node()");
        assert_eq!(t, vec!["a", "c", "d"]);
    }

    #[test]
    fn ancestor_or_self_keeps_self() {
        let d = paper_dtd();
        assert_eq!(
            type_of(&d, "self::c/child::a/ancestor-or-self::node()"),
            vec!["a", "c"]
        );
    }

    #[test]
    fn completeness_failure_example_is_still_sound() {
        // Paper end of §4.1: recursive DTD, backward axis over-approximates
        // but must stay sound.
        let d = parse_dtd(
            "<!ELEMENT c (a | b)> <!ELEMENT a (a*, #PCDATA)> <!ELEMENT b (#PCDATA)>",
            "c",
        )
        .unwrap();
        let t = type_of(&d, "self::c/child::a/parent::node()");
        assert!(t.contains(&"c".to_string()));
        // over-approximation may add "a" (the paper explains why) — both
        // are allowed by soundness; c must be present.
    }

    #[test]
    fn star_guard_failure_example() {
        // self::c[child::a]/child::b on {X → c[Y | Z], …}: empty semantics
        // but non-\*-guarded union makes the type non-empty — soundness
        // only requires ⊇, and this is precisely the paper's
        // incompleteness witness.
        let d = parse_dtd(
            "<!ELEMENT c (a | b)> <!ELEMENT a (a*, #PCDATA)> <!ELEMENT b (#PCDATA)>",
            "c",
        )
        .unwrap();
        let t = type_of(&d, "self::c[child::a]/child::b");
        assert_eq!(t, vec!["b"]);
    }

    #[test]
    fn parent_ambiguous_example() {
        // Paper: {X → a[Y,Z], Y → b[Z], Z → c[]} and
        // self::a/child::b/child::c/parent::node() types {X, Y} instead of
        // the precise {Y}.
        let d = parse_dtd(
            "<!ELEMENT a (b, c)> <!ELEMENT b (c)> <!ELEMENT c EMPTY>",
            "a",
        )
        .unwrap();
        let t = type_of(&d, "self::a/child::b/child::c/parent::node()");
        assert_eq!(t, vec!["a", "b"]); // sound but (knowingly) imprecise
    }

    #[test]
    fn empty_short_circuit() {
        let d = paper_dtd();
        assert_eq!(
            type_of(&d, "self::zzz/descendant::node()/child::a"),
            Vec::<String>::new()
        );
    }

    #[test]
    fn attribute_test_typing() {
        let d = parse_dtd(
            "<!ELEMENT a (b, c)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>\
             <!ATTLIST b id CDATA #REQUIRED>",
            "a",
        )
        .unwrap();
        assert_eq!(type_of(&d, "self::a/child::node()[@id]"), vec!["b"]);
        assert_eq!(type_of(&d, "//b/@id"), vec!["b"]);
        assert_eq!(
            type_of(&d, "self::a/child::node()[@nope]"),
            Vec::<String>::new()
        );
    }
}
