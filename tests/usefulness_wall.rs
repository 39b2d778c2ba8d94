//! The usefulness sets (`Analyzer::usefulness`) are exact: for every
//! suffix that reads no context, a name is in `U(pid, idx)` iff the
//! suffix types non-empty from it, `({x}, κ) ⊢ steps[idx..] : Σ` with
//! `Σ_τ ≠ ∅` — for κ the start context restricted to `x` and for κ =
//! anc-or-self(x), contexts on and off. The sets the descendant rule
//! reads (`A_E(U, ancestor)`) are checked against the rule's own premise
//! the same way, and every suffix with no upward axis must have a set,
//! so the inference never falls back to per-name typing where it need
//! not.
//!
//! The suffixes are those of every path the compiler infers for the 43
//! XMark/XPathMark queries and the 96 `small_query_cold` queries on the
//! auction grammar, of the Use Cases grammars' axis family, and of the
//! query shapes `fuzz_soundness.rs` draws over random grammars. (The
//! wall sits here rather than in `xproj-core`, which cannot reach the
//! XMark corpus or XQuery extraction without a dependency cycle.)

use xml_projection::core::typeinf::{type_axis, type_path, Env};
use xml_projection::core::{Analyzer, NormPaths, PStep};
use xml_projection::dtd::generate::{random_dtd, RandomDtdConfig, RANDOM_DTD_TAGS};
use xml_projection::dtd::Dtd;
use xml_projection::xmark::{
    auction_dtd, parse_use_case, use_case_dtds, xmark_queries, xpathmark_queries,
};
use xml_projection::xpath::approx::approximate_query;
use xml_projection::xpath::ast::Expr;
use xml_projection::xpath::parse_xpath;
use xml_projection::xpath::xpathl::{LAxis, LPath};
use xml_projection::xquery::{extract_paths, parse_xquery};
use xproj_testkit::{seeded, SplitMix64};

const REGIONS: [&str; 6] = [
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];
const ITEM_PATHS: [&str; 16] = [
    "location",
    "quantity",
    "name",
    "payment",
    "shipping",
    "incategory",
    "description",
    "description/text",
    "description/parlist",
    "description/parlist/listitem",
    "mailbox",
    "mailbox/mail",
    "mailbox/mail/from",
    "mailbox/mail/to",
    "mailbox/mail/date",
    "mailbox/mail/text",
];
const AXIS_FAMILY: [&str; 5] = [
    "//*",
    "/*/*",
    "//*/parent::*",
    "//text()/ancestor::*",
    "//*[*]/following-sibling::*",
];

/// Whether a suffix, or a condition in it, holds an upward axis.
fn reads_context(np: &NormPaths, steps: &[PStep]) -> bool {
    steps.iter().any(|step| match step {
        PStep::AxisNode(axis) => {
            matches!(
                axis,
                LAxis::Parent | LAxis::Ancestor | LAxis::AncestorOrSelf
            )
        }
        PStep::SelfTest(_) => false,
        PStep::Cond(ids) => ids.iter().any(|&c| reads_context(np, np.steps(c))),
    })
}

/// Checks every suffix of `path` on `dtd`; returns how many had a set.
fn check_path(dtd: &Dtd, path: &LPath, absolute: bool, what: &str) -> usize {
    let np = NormPaths::new(path);
    let mut decided = 0;
    for contexts in [true, false] {
        let mut an = Analyzer::new(dtd);
        an.use_contexts = contexts;
        let useful = an.usefulness(&np);
        let (_, start) = an.start_env(absolute);
        for pid in np.path_ids() {
            let steps = np.steps(pid);
            for idx in 0..=steps.len() {
                let slot = np.slot(pid, idx);
                let at = format!("{what}: {path} suffix ({pid:?}, {idx}), contexts {contexts}");
                let Some(u) = useful.of(slot) else {
                    assert!(reads_context(&np, &steps[idx..]), "{at}: no set");
                    continue;
                };
                assert!(
                    !reads_context(&np, &steps[idx..]),
                    "{at}: a set for a suffix going up"
                );
                decided += 1;
                let below = useful.below(slot);
                let after_down = idx > 0
                    && matches!(
                        steps[idx - 1],
                        PStep::AxisNode(LAxis::Descendant | LAxis::DescendantOrSelf)
                    );
                assert_eq!(below.is_some(), after_down, "{at}: A_E(U, ancestor)");
                for x in dtd.all_names().chain([dtd.doc_name()]) {
                    let xs = dtd.singleton(x);
                    let anc_or_self = an.axis(&xs, LAxis::AncestorOrSelf);
                    for kappa in [an.restrict_context(&start, &xs), anc_or_self] {
                        let env = Env::new(xs.clone(), kappa);
                        let typed = !type_path(&an, &np, env.clone(), pid, idx).is_empty();
                        let name = if x == dtd.doc_name() {
                            "DOC"
                        } else {
                            dtd.label(x)
                        };
                        assert_eq!(u.contains(x), typed, "{at}: U at {name}");
                        if let Some(below) = below {
                            let down = type_axis(&an, env, LAxis::Descendant);
                            let reaches =
                                !down.is_empty() && !type_path(&an, &np, down, pid, idx).is_empty();
                            assert_eq!(below.contains(x), reaches, "{at}: below at {name}");
                        }
                    }
                }
            }
        }
    }
    decided
}

/// Checks every path the compiler infers for an XQuery (or XPath) text.
fn check_query(dtd: &Dtd, query: &str, what: &str) -> usize {
    let paths = extract_paths(&parse_xquery(query).unwrap());
    paths.iter().map(|p| check_path(dtd, p, true, what)).sum()
}

#[test]
fn usefulness_is_exact_on_the_benchmark_and_cold_queries() {
    let auction = auction_dtd();
    let mut decided = 0;
    for q in xmark_queries().into_iter().chain(xpathmark_queries()) {
        decided += check_query(&auction, q.text, q.id);
    }
    for region in REGIONS {
        for path in ITEM_PATHS {
            let q = format!("/site/regions/{region}/item/{path}");
            decided += check_query(&auction, &q, &q);
        }
    }
    assert!(decided > 1000, "{decided} suffixes decided");
}

#[test]
fn usefulness_is_exact_on_the_use_cases_axis_family() {
    for uc in use_case_dtds() {
        let dtd = parse_use_case(&uc);
        for q in AXIS_FAMILY {
            check_query(&dtd, q, &format!("{} {q}", uc.name));
        }
    }
}

const AXES: &[&str] = &[
    "child::",
    "descendant::",
    "descendant-or-self::",
    "parent::",
    "ancestor::",
    "self::",
    "following-sibling::",
    "preceding-sibling::",
];

/// A query of the shape `fuzz_soundness.rs` draws: one to three steps
/// over the random grammars' tags, some with predicates.
fn random_query(rng: &mut SplitMix64) -> String {
    let parts: Vec<String> = (0..rng.range_incl(1, 3))
        .map(|_| {
            let axis = *rng.pick(AXES);
            let test = match rng.below(6) {
                0 => "node()".to_string(),
                1 => "text()".to_string(),
                2 => "*".to_string(),
                _ => rng.pick(RANDOM_DTD_TAGS).to_string(),
            };
            let tag = *rng.pick(RANDOM_DTD_TAGS);
            let pred = match rng.below(10) {
                0 => format!("[child::{tag}]"),
                1 => format!("[child::{tag} or child::{}]", rng.pick(RANDOM_DTD_TAGS)),
                2 => format!("[not(child::{tag})]"),
                3 => format!("[count(child::{tag}) > 1]"),
                4 => "[1]".to_string(),
                _ => String::new(),
            };
            format!("{axis}{test}{pred}")
        })
        .collect();
    format!("/{}", parts.join("/"))
}

/// An XQuery of the shapes `fuzz_soundness.rs` draws.
fn random_xquery(rng: &mut SplitMix64) -> String {
    let [t1, t2, t3] = [(); 3].map(|_| *rng.pick(RANDOM_DTD_TAGS));
    match rng.below(4) {
        0 => format!(
            "for $x in /descendant-or-self::node()/child::{t1} \
             return <hit>{{$x/child::{t2}}}</hit>"
        ),
        1 => format!(
            "for $x in /descendant::{t1} where $x/child::{t2} \
             return <r>{{$x/child::{t3}/text()}}</r>"
        ),
        2 => format!("for $x in /child::{t1}/descendant-or-self::{t2} return <n>{{$x}}</n>"),
        _ => {
            format!("for $x in /descendant::{t1}, $y in $x/child::{t2} return <p>{{$y/text()}}</p>")
        }
    }
}

#[test]
fn usefulness_is_exact_on_the_fuzzed_shapes() {
    seeded("usefulness_is_exact_on_the_fuzzed_shapes", 100, |seed| {
        let mut rng = SplitMix64::new(seed);
        let dtd = random_dtd(&mut rng, &RandomDtdConfig::default());
        let q = random_query(&mut rng);
        let Expr::Path(p) = parse_xpath(&q).unwrap() else {
            unreachable!("random_query emits location paths")
        };
        let a = approximate_query(&p);
        check_path(&dtd, &a.path, a.absolute, &q);
        for aux in &a.auxiliary {
            check_path(&dtd, aux, true, &q);
        }
        let xq = random_xquery(&mut rng);
        check_query(&dtd, &xq, &xq);
    });
}
