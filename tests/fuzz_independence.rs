//! Differential validation of the query–update independence checker.
//!
//! Each case draws a fresh random *(DTD, document, query, update)*
//! quadruple — a random local tree grammar, a random valid document
//! for it, a random XPath query and a random XQuery over its tag
//! alphabet, and a random update from the `xproj-xupdate` generator —
//! then checks the analysis against the reference executor:
//!
//! 1. statically `independent` ⇒ the query's serialized answer on the
//!    updated document is **byte-identical** to the answer on the
//!    original (a hard soundness failure otherwise);
//! 2. every `may-conflict` verdict carries at least one witness;
//! 3. a provably-empty target type really is a no-op on the generated
//!    (valid) document.
//!
//! Both the XPath and the XQuery leg run against the *same* update, so
//! one case exercises two independent verdicts. At the end the run
//! prints the observed verdict mix and how often a `may-conflict`
//! actually changed the answer (the checker's precision, which is
//! informational — only soundness is asserted).
//!
//! Runs `FUZZ_CASES` (default 300) deterministic cases. On failure it
//! panics with a `TESTKIT_SEED=0x…` replay line; `TESTKIT_CASES=n`
//! overrides the count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use xml_projection::analyzer::{check_independence, IndependenceVerdict};
use xml_projection::dtd::generate::{
    generate, random_dtd, GenConfig, RandomDtdConfig, RANDOM_DTD_TAGS,
};
use xml_projection::dtd::{validate, Dtd};
use xml_projection::xmltree::Document;
use xml_projection::xpath::ast::Expr;
use xml_projection::xquery::{evaluate_query, parse_xquery};
use xml_projection::xupdate::{apply_update, random_update, ApplyError};
use xproj_testkit::{fnv1a, seeded, SplitMix64};

const FUZZ_CASES: u32 = 300;

static INDEPENDENT: AtomicU64 = AtomicU64::new(0);
static CONFLICT: AtomicU64 = AtomicU64::new(0);
static CONFLICT_REAL: AtomicU64 = AtomicU64::new(0);

/// Every report's verdict line, one string per case (cases run in order
/// on one thread). The FNV-1a of the first `PINNED_CASES` must equal
/// `PINNED_VERDICTS`: a refactor of the static side must move no
/// verdict, updated-name set or witness of those cases.
static VERDICTS: Mutex<Vec<String>> = Mutex::new(Vec::new());
const PINNED_CASES: usize = 200;
const PINNED_VERDICTS: u64 = 0x536a_244d_ecc2_99eb;

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

/// A random XPath query over the random-DTD tag alphabet (same
/// distribution as the Theorem 4.6 soundness fuzzer).
fn random_query(rng: &mut SplitMix64) -> String {
    let nsteps = rng.range_incl(1, 3);
    let mut parts = Vec::new();
    for _ in 0..nsteps {
        let axis = *rng.pick(AXES);
        let test = match rng.below(6) {
            0 => "node()".to_string(),
            1 => "text()".to_string(),
            2 => "*".to_string(),
            _ => rng.pick(RANDOM_DTD_TAGS).to_string(),
        };
        let pred = match rng.below(10) {
            0 => format!("[child::{}]", rng.pick(RANDOM_DTD_TAGS)),
            1 => format!("[not(child::{})]", rng.pick(RANDOM_DTD_TAGS)),
            2 => format!("[count(child::{}) > 1]", rng.pick(RANDOM_DTD_TAGS)),
            3 => "[1]".to_string(),
            _ => String::new(),
        };
        parts.push(format!("{axis}{test}{pred}"));
    }
    format!("/{}", parts.join("/"))
}

/// A random XQuery (FLWR over the same alphabet).
fn random_xquery(rng: &mut SplitMix64) -> String {
    let t1 = *rng.pick(RANDOM_DTD_TAGS);
    let t2 = *rng.pick(RANDOM_DTD_TAGS);
    let t3 = *rng.pick(RANDOM_DTD_TAGS);
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

/// Serializes an XPath answer so it can be compared across two
/// different documents (node ids are not comparable after a rebuild).
fn xpath_answer(doc: &Document, path: &xml_projection::xpath::ast::LocationPath) -> String {
    use xml_projection::xpath::eval::XNode;
    let hits = xml_projection::xpath::evaluate(doc, path).expect("generated query evaluates");
    let parts: Vec<String> = hits
        .into_iter()
        .map(|n| match n {
            XNode::Tree(id) => doc.subtree_to_xml(id),
            XNode::Attr(id, i) => doc.attributes(id)[i as usize].value.to_string(),
        })
        .collect();
    parts.join("\u{1e}") // record separator: answers never contain it
}

/// Checks one static verdict against the reference executor. `answers`
/// computes the query's serialized answer on a document.
fn check_leg(
    dtd: &Dtd,
    query: &str,
    update: &str,
    doc: &Document,
    updated: &Document,
    answers: impl Fn(&Document) -> String,
) {
    let report = check_independence(dtd, query, update)
        .unwrap_or_else(|e| panic!("checker rejected query {query:?} / update {update:?}: {e}"));
    let witnesses: Vec<String> = report
        .witnesses
        .iter()
        .map(|w| format!("{}/{}/{}", w.kind, w.name, w.role))
        .collect();
    VERDICTS
        .lock()
        .unwrap()
        .last_mut()
        .unwrap()
        .push_str(&format!(
            "{:?} {} {} {} {} {witnesses:?}\n",
            report.verdict,
            report.query_names,
            report.updated_names,
            report.overlap,
            report.empty_target
        ));
    let before = answers(doc);
    let after = answers(updated);
    let changed = before != after;
    match report.verdict {
        IndependenceVerdict::Independent => {
            INDEPENDENT.fetch_add(1, Ordering::Relaxed);
            assert!(
                !changed,
                "UNSOUND: statically independent but the answer changed\n\
                 query:  {query}\nupdate: {update}\nbefore: {before}\nafter:  {after}\n\
                 doc: {}\ndtd:\n{}",
                doc.to_xml(),
                dtd.to_dtd_syntax(),
            );
            if report.empty_target {
                assert_eq!(
                    doc.to_xml(),
                    updated.to_xml(),
                    "empty-target verdict but the update changed the document\nupdate: {update}"
                );
            }
        }
        IndependenceVerdict::MayConflict => {
            CONFLICT.fetch_add(1, Ordering::Relaxed);
            if changed {
                CONFLICT_REAL.fetch_add(1, Ordering::Relaxed);
            }
            assert!(
                !report.witnesses.is_empty(),
                "may-conflict verdict without a witness\nquery: {query}\nupdate: {update}"
            );
        }
    }
}

/// One fuzz case; panics (with context) on any soundness violation.
fn run_case(seed: u64) {
    VERDICTS.lock().unwrap().push(String::new());
    let mut rng = SplitMix64::new(seed);
    let dtd: Dtd = random_dtd(&mut rng, &RandomDtdConfig::default());
    let doc_seed = rng.next_u64();
    let cfg = GenConfig {
        fanout: 1.5,
        max_depth: 8,
        text_words: 2,
    };
    let doc = generate(&dtd, doc_seed, &cfg);
    validate(&doc, &dtd).expect("generated document must be valid");

    let update = random_update(&mut rng, RANDOM_DTD_TAGS);
    let updated = match apply_update(&doc, &update) {
        Ok(d) => d,
        // The generator cannot target attributes or the document node,
        // so the executor never rejects its updates.
        Err(e @ (ApplyError::AttributeTarget | ApplyError::DocumentTarget)) => {
            panic!("generated update {update} rejected: {e}")
        }
        Err(ApplyError::Eval(e)) => panic!("generated target failed to evaluate: {e}"),
    };
    let update_src = update.to_string();

    // --- XPath leg ---
    let q = random_query(&mut rng);
    let Expr::Path(path) = xml_projection::xpath::parse_xpath(&q).unwrap() else {
        unreachable!("random_query emits location paths")
    };
    check_leg(&dtd, &q, &update_src, &doc, &updated, |d| {
        xpath_answer(d, &path)
    });

    // --- XQuery leg (same update, FLWR query) ---
    let xq = random_xquery(&mut rng);
    let parsed = parse_xquery(&xq).unwrap_or_else(|e| panic!("xquery {xq:?}: {e}"));
    check_leg(&dtd, &xq, &update_src, &doc, &updated, |d| {
        evaluate_query(d, &parsed).unwrap_or_else(|e| panic!("xquery {xq} failed: {e}"))
    });
}

#[test]
fn fuzz_independence_verdicts() {
    let cases = seeded("fuzz_independence_verdicts", FUZZ_CASES, run_case);
    if xproj_testkit::runner::parse_seed_env().is_some() {
        return; // a replayed case is no verdict mix
    }
    let verdicts = VERDICTS.lock().unwrap();
    if verdicts.len() >= PINNED_CASES {
        let got = fnv1a(&verdicts[..PINNED_CASES].concat());
        assert!(
            got == PINNED_VERDICTS,
            "verdicts of the first {PINNED_CASES} cases moved: {got:#018x}"
        );
    }
    let ind = INDEPENDENT.load(Ordering::Relaxed);
    let conf = CONFLICT.load(Ordering::Relaxed);
    let real = CONFLICT_REAL.load(Ordering::Relaxed);
    println!(
        "[independence] {} verdicts over {cases} quadruples: \
         {ind} independent (all byte-identical), {conf} may-conflict \
         ({real} actually changed the answer, {:.1}% observed conflict rate)",
        ind + conf,
        if conf == 0 {
            0.0
        } else {
            real as f64 * 100.0 / conf as f64
        },
    );
    // The generator must exercise both verdicts, or the fuzz is vacuous.
    assert!(ind > 0, "no independent verdicts over {cases} cases");
    assert!(conf > 0, "no may-conflict verdicts over {cases} cases");
}
