//! Differential soundness fuzzer for Theorem 4.6.
//!
//! Each case draws a fresh random *(DTD, document, query)* triple —
//! a random local tree grammar from [`random_dtd`], a random valid
//! document for it, and a random XPath and XQuery over its tag
//! alphabet — then checks the paper's end-to-end soundness claims:
//!
//! 1. the query evaluates identically on the original and on the
//!    document pruned with its inferred projector (Theorem 4.6);
//! 2. the streaming pruner produces byte-for-byte the same document as
//!    the in-memory pruner, with and without single-pass validation;
//! 3. the pruned document still has a (tag-local) interpretation that
//!    restricts the original one;
//! 4. the chunked push engine, fed the document at a drawn chunk size
//!    (1-byte through whole-document), emits the same bytes in both
//!    fast-forward modes;
//! 5. the XQuery evaluates identically on the original and on the
//!    document pruned with the projector of its extracted paths.
//!
//! Runs `FUZZ_CASES` (default 500) deterministic cases. On failure it
//! panics with a `TESTKIT_SEED=0x…` replay line; setting that variable
//! re-runs exactly the failing triple. `TESTKIT_CASES=n` overrides the
//! count (soak runs can use tens of thousands).

use xml_projection::core::{prune_document, Projector, StaticAnalyzer};
use xml_projection::dtd::generate::{
    generate, random_dtd, GenConfig, RandomDtdConfig, RANDOM_DTD_TAGS,
};
use xml_projection::dtd::{interpret, validate, Dtd};
use xml_projection::engine::{ChunkedPruner, EngineError, EngineStats};
use xml_projection::xmltree::Document;
use xml_projection::xpath::ast::Expr;
use xml_projection::xquery::{evaluate_query, parse_xquery, project_xquery_str};
use xproj_testkit::{seeded, SplitMix64};

const FUZZ_CASES: u32 = 500;

/// The whole string as one `ChunkedPruner` feed: the pruned bytes and
/// the pass's stats.
fn one_feed(
    xml: &str,
    dtd: &Dtd,
    p: &Projector,
    fast_forward: bool,
    validate: bool,
) -> Result<(String, EngineStats), EngineError> {
    let mut out = Vec::new();
    let mut pruner = ChunkedPruner::new(dtd, p, &mut out);
    pruner.set_fast_forward(fast_forward);
    pruner.set_validate(validate);
    pruner.feed(xml.as_bytes())?;
    let stats = pruner.finish()?;
    Ok((
        String::from_utf8(out).expect("engine output is UTF-8"),
        stats,
    ))
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

/// A random XPathℓ query over the random-DTD tag alphabet, always
/// syntactically valid.
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
            1 => format!(
                "[child::{} or child::{}]",
                rng.pick(RANDOM_DTD_TAGS),
                rng.pick(RANDOM_DTD_TAGS)
            ),
            2 => format!("[not(child::{})]", rng.pick(RANDOM_DTD_TAGS)),
            3 => format!("[count(child::{}) > 1]", rng.pick(RANDOM_DTD_TAGS)),
            4 => "[1]".to_string(),
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

/// Query results as source-document node ids (pruning preserves them).
fn eval_ids(
    doc: &Document,
    path: &xml_projection::xpath::ast::LocationPath,
) -> Vec<(u32, Option<u32>)> {
    use xml_projection::xpath::eval::XNode;
    let mut v: Vec<(u32, Option<u32>)> = xml_projection::xpath::evaluate(doc, path)
        .unwrap()
        .into_iter()
        .map(|n| match n {
            XNode::Tree(id) => (doc.src_id(id).0, None),
            XNode::Attr(id, i) => (doc.src_id(id).0, Some(i)),
        })
        .collect();
    v.sort();
    v
}

/// One fuzz case; panics (with context) on any soundness violation.
fn run_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let dtd: Dtd = random_dtd(&mut rng, &RandomDtdConfig::default());
    let doc_seed = rng.next_u64();
    let cfg = GenConfig {
        fanout: 1.5,
        max_depth: 8,
        text_words: 2,
    };
    let doc = generate(&dtd, doc_seed, &cfg);
    let interp = validate(&doc, &dtd).expect("generated document must be valid");
    let xml = doc.to_xml();

    // --- XPath leg (Theorem 4.6) ---
    let q = random_query(&mut rng);
    let mut sa = StaticAnalyzer::new(&dtd);
    let projector = sa
        .project_query_exact(&q)
        .unwrap_or_else(|e| panic!("query {q:?} failed to project: {e}"));
    let pruned = prune_document(&doc, &dtd, &interp, &projector);
    let Expr::Path(path) = xml_projection::xpath::parse_xpath(&q).unwrap() else {
        unreachable!("random_query emits location paths")
    };
    assert_eq!(
        eval_ids(&doc, &path),
        eval_ids(&pruned, &path),
        "Theorem 4.6 violated: query {q} differs on pruned document\ndoc: {xml}"
    );

    // --- streaming agrees with in-memory, with and without validation ---
    let pruned_xml = pruned.to_xml();
    let (streamed_out, streamed) = one_feed(&xml, &dtd, &projector, false, false)
        .unwrap_or_else(|e| panic!("streaming pruner failed on valid doc: {e}"));
    let streamed = streamed.counters;
    assert_eq!(
        streamed_out, pruned_xml,
        "streaming pruner diverged for {q}"
    );
    let (validated_out, _) = one_feed(&xml, &dtd, &projector, false, true)
        .unwrap_or_else(|e| panic!("validating pruner rejected a valid doc: {e}"));
    assert_eq!(
        validated_out, pruned_xml,
        "validating pruner diverged for {q}"
    );
    // The fast path (pruned-subtree raw fast-forward) must stay
    // byte-identical too, with matching counters except `text_pruned`
    // (never-tokenized text is never counted).
    let (fast_out, fast) = one_feed(&xml, &dtd, &projector, true, false)
        .unwrap_or_else(|e| panic!("fast-path pruner failed on valid doc: {e}"));
    let fast = fast.counters;
    assert_eq!(fast_out, pruned_xml, "fast-path pruner diverged for {q}");
    assert_eq!(fast.elements_kept, streamed.elements_kept, "for {q}");
    assert_eq!(fast.elements_pruned, streamed.elements_pruned, "for {q}");
    assert_eq!(fast.text_kept, streamed.text_kept, "for {q}");
    assert_eq!(fast.max_depth, streamed.max_depth, "for {q}");

    // --- the pruned document stays interpretable, restricting interp ---
    let pruned_interp = interpret(&pruned, &dtd).expect("pruned document must stay interpretable");
    for n in pruned.all_nodes().skip(1) {
        assert_eq!(
            pruned_interp.name_of(n),
            interp.name_of(pruned.src_id(n)),
            "pruned interpretation is not a restriction of the original"
        );
    }

    // --- chunked engine leg: the push pipeline, fed the same document
    // at a drawn chunk size (1-byte up to whole-document), must emit
    // the one-feed pass's exact bytes in both fast-forward modes ---
    let sizes: &[usize] = &[1, 2, 3, 7, 101, 4096, usize::MAX];
    let chunk_size = sizes[rng.below(sizes.len())].min(xml.len().max(1));
    for fast_forward in [true, false] {
        let mut out: Vec<u8> = Vec::new();
        let mut pruner = xml_projection::engine::ChunkedPruner::new(&dtd, &projector, &mut out);
        pruner.set_fast_forward(fast_forward);
        for chunk in xml.as_bytes().chunks(chunk_size) {
            pruner.feed(chunk).unwrap_or_else(|e| {
                panic!("chunked feed (size {chunk_size}, ff={fast_forward}) failed for {q}: {e}")
            });
        }
        pruner.finish().unwrap_or_else(|e| {
            panic!("chunked finish (size {chunk_size}, ff={fast_forward}) failed for {q}: {e}")
        });
        assert_eq!(
            String::from_utf8(out).expect("engine output is UTF-8"),
            pruned_xml,
            "chunked engine (size {chunk_size}, ff={fast_forward}) diverged for {q}\ndoc: {xml}"
        );
    }

    // --- XQuery leg ---
    let xq = random_xquery(&mut rng);
    let parsed = parse_xquery(&xq).unwrap_or_else(|e| panic!("xquery {xq:?}: {e}"));
    let xq_projector = project_xquery_str(&mut sa, &xq).expect("already parsed");
    let xq_pruned = prune_document(&doc, &dtd, &interp, &xq_projector);
    let on_original = evaluate_query(&doc, &parsed);
    let on_pruned = evaluate_query(&xq_pruned, &parsed);
    match (on_original, on_pruned) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "xquery {xq} differs on pruned document\ndoc: {xml}"),
        (a, b) => panic!("xquery {xq} evaluation failed: {a:?} vs {b:?}"),
    }
}

#[test]
fn fuzz_theorem_4_6_soundness() {
    seeded("fuzz_theorem_4_6_soundness", FUZZ_CASES, run_case);
}

/// `q`'s normal form (its `Display`, the artifact cache's key) parses
/// back to `q`, so two different queries never print alike.
fn assert_prints_back(text: &str) {
    let q = parse_xquery(text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
    let printed = q.to_string();
    let again =
        parse_xquery(&printed).unwrap_or_else(|e| panic!("{text:?} printed {printed:?}: {e}"));
    assert_eq!(again, q, "{text:?} printed {printed:?}");
}

/// A random string literal: either quote, and any character but it.
fn random_literal(rng: &mut SplitMix64) -> String {
    let quote = *rng.pick(&["\"", "'"]);
    let other = if quote == "\"" { "'" } else { "\"" };
    let body: String = (0..rng.below(6))
        .map(|_| *rng.pick(&["a", " ", ",", "(", ")", "{", "}", "<", "$x", other]))
        .collect();
    format!("{quote}{body}{quote}")
}

/// Random constructor text: anything but `<` and `{`.
fn random_text(rng: &mut SplitMix64) -> String {
    (0..rng.range_incl(1, 5))
        .map(|_| *rng.pick(&["a", " ", "}", "\"", "'", "&amp;", "1", ")"]))
        .collect()
}

#[test]
fn normal_forms_parse_back_to_their_queries() {
    for q in xml_projection::xmark::xmark_queries()
        .into_iter()
        .chain(xml_projection::xmark::xpathmark_queries())
    {
        assert_prints_back(q.text);
    }
    for q in [
        "count((/a)/b)",
        "count((//a | //b)/c)",
        "count(/) * 2 + (/) and /a",
        "-(1) - -2",
        "count((\"x\")/a)",
        "count(($x/a)/b)",
        "fn:exactly-one(/a)/b",
        "for $x in /a where ($x/b | $x/c)/d return $x",
        "if ((/a)/b) then 1 else ()",
        "some $x in /a satisfies $x = 'q\"'",
        "for $i in /a order by $i/b descending return $i",
        "let $x := /a return <r>{$x} text</r>",
        "<r/>",
        "<r>{()}</r>",
    ] {
        assert_prints_back(q);
    }
    seeded(
        "normal_forms_parse_back_to_their_queries",
        FUZZ_CASES,
        |seed| {
            let mut rng = SplitMix64::new(seed);
            let (l1, l2) = (random_literal(&mut rng), random_literal(&mut rng));
            let (t1, t2, t3) = (
                random_text(&mut rng),
                random_text(&mut rng),
                random_text(&mut rng),
            );
            for q in [
                random_query(&mut rng),
                random_xquery(&mut rng),
                format!("concat({l1}, {l2})"),
                format!("//a[. = {l1} or {l2} != .]/b"),
                format!("({l1}, {l2}, 1)"),
                format!("<c>{t1}{{{l1}}}{t2}<d>{t3}</d>{{1, {l2}}}</c>"),
                format!("<c>{t1}</c>"),
                format!("<c>{{{l1}}}{{1}}</c>"),
                format!("for $x in (<b>{t2}</b>) return <c>{t3}{{$x}}</c>"),
            ] {
                assert_prints_back(&q);
            }
        },
    );
}
