//! Differential fuzzer for the compiled query pipeline.
//!
//! The soundness contract of the one-pass `QueryMachine` is the same
//! as the paper's Theorem 4.6, pushed one stage further: not only must
//! pruning preserve answers, the machine that prunes *and answers* in
//! a single pass over the raw token stream must produce byte-for-byte
//! the answer the reference evaluator computes over the **unpruned**
//! in-memory tree.
//!
//! Each case draws a random *(DTD, document)* pair plus a random XPath
//! and a random XQuery over its tag alphabet, then drives the machine
//! through **every 2-chunk split** of the document — the byte stream
//! cut at each position into `doc[..i]` + `doc[i..]` — in both
//! fast-forward modes, asserting the answer never changes. Splitting at
//! every boundary exercises every resumable-state path in the
//! tokenizer/NFA (token spanning a feed boundary, guard pending at a
//! boundary, capture spanning a boundary, …).
//!
//! A second family draws mixed-content documents — text runs beside
//! elements, whitespace-only runs and comments between them — on a
//! fixed grammar, and paths to their `text()` or `node()`s, a third of
//! them wrapped in `count(…)` and a third picked by position: pruning an
//! element between two text runs makes them adjacent, and a fallback
//! plan must keep them two text nodes, as the unpruned tree has them.
//! `random_dtd` draws no such documents (its text occurs at most once
//! per content model), and the `Answer` form concatenates items, which
//! hides how many there are.
//!
//! Each family runs `FUZZ_CASES` (default 60; the per-case cost is
//! quadratic in document size) deterministic cases. On failure it panics
//! with a `TESTKIT_SEED=0x…` replay line; `TESTKIT_CASES=n` overrides
//! the count. Documents longer than `MAX_EXHAUSTIVE_BYTES` fall back to a
//! strided split sample so soak runs stay bounded.

use std::sync::Arc;
use xml_projection::dtd::generate::{
    generate, random_dtd, GenConfig, RandomDtdConfig, RANDOM_DTD_TAGS,
};
use xml_projection::dtd::{parse_dtd, Dtd};
use xml_projection::engine::{QueryMachine, QueryOutput};
use xml_projection::xmark::{auction_dtd, generate_auction, XMarkConfig};
use xml_projection::xmltree::parse;
use xml_projection::xquery::{evaluate_query, parse_xquery};
use xproj_qc::QueryArtifact;
use xproj_testkit::{seeded, SplitMix64};

const FUZZ_CASES: u32 = 60;

/// Above this size the split sweep samples every `len/512`-th position
/// instead of all of them (keeps a case quadratic only on small docs).
const MAX_EXHAUSTIVE_BYTES: usize = 1024;

const AXES: &[&str] = &["child::", "descendant::", "descendant-or-self::", "self::"];

/// A random downward XPath over the tag alphabet `tags`. Kept to the
/// streamable fragment's surface (downward axes, final-step existential
/// predicates) most of the time so the streaming plan gets real
/// coverage, with enough stray shapes to also exercise fallback.
fn random_query(rng: &mut SplitMix64, tags: &[&str]) -> String {
    let nsteps = rng.range_incl(1, 3);
    let mut parts = Vec::new();
    for i in 0..nsteps {
        let axis = *rng.pick(AXES);
        let test = match rng.below(6) {
            0 => "node()".to_string(),
            1 => "text()".to_string(),
            2 => "*".to_string(),
            _ => rng.pick(tags).to_string(),
        };
        let pred = if i + 1 == nsteps {
            match rng.below(6) {
                0 => format!("[child::{}]", rng.pick(tags)),
                1 => format!("[{}]", rng.pick(tags)),
                2 => "[1]".to_string(),
                _ => String::new(),
            }
        } else {
            String::new()
        };
        parts.push(format!("{axis}{test}{pred}"));
    }
    format!("/{}", parts.join("/"))
}

/// A random XQuery (FLWR over the same alphabet) — always a fallback
/// plan, so this leg exercises prune-parse-evaluate under splits.
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

/// Runs the artifact over `xml` split into `doc[..i]` + `doc[i..]`.
fn answer_split(
    artifact: &Arc<QueryArtifact>,
    xml: &[u8],
    split: usize,
    fast_forward: bool,
) -> String {
    let mut machine = QueryMachine::new(Arc::clone(artifact), QueryOutput::Answer);
    machine.set_fast_forward(fast_forward);
    let mut out = Vec::new();
    machine
        .feed(&xml[..split])
        .unwrap_or_else(|e| panic!("feed of doc[..{split}] (ff={fast_forward}) failed: {e}"));
    machine.take_output(&mut out);
    machine
        .feed(&xml[split..])
        .unwrap_or_else(|e| panic!("feed of doc[{split}..] (ff={fast_forward}) failed: {e}"));
    machine.take_output(&mut out);
    machine
        .finish()
        .unwrap_or_else(|e| panic!("finish (split {split}, ff={fast_forward}) failed: {e}"));
    machine.take_output(&mut out);
    String::from_utf8(out).expect("answers are UTF-8")
}

/// Checks one query against the reference on the unpruned tree, at
/// every (or a strided sample of) 2-chunk split, in both ff modes.
fn check_query(q: &str, dtd: &Arc<Dtd>, doc: &xml_projection::xmltree::Document, xml: &str) {
    let parsed = parse_xquery(q).unwrap_or_else(|e| panic!("query {q:?} failed to parse: {e}"));
    // The contract under test is agreement with the *unpruned* tree.
    let want = match evaluate_query(doc, &parsed) {
        Ok(w) => w,
        // A handful of random shapes the reference evaluator rejects
        // (e.g. positional predicates on unordered axes) carry no
        // comparison value; the machine maps them to BadQuery anyway.
        Err(_) => return,
    };
    let artifact = QueryArtifact::compile(dtd, q)
        .unwrap_or_else(|e| panic!("query {q:?} failed to compile: {e}"));

    let bytes = xml.as_bytes();
    let stride = if bytes.len() <= MAX_EXHAUSTIVE_BYTES {
        1
    } else {
        bytes.len() / 512
    };
    for fast_forward in [true, false] {
        let mut split = 0;
        while split <= bytes.len() {
            let got = answer_split(&artifact, bytes, split, fast_forward);
            assert_eq!(
                got,
                want,
                "one-pass answer diverged from the unpruned reference\n\
                 query: {q}\nsplit: {split}/{} ff: {fast_forward}\ndoc: {xml}",
                bytes.len()
            );
            split += stride;
        }
    }
}

/// One fuzz case; panics (with context) on any divergence.
fn run_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let dtd = Arc::new(random_dtd(&mut rng, &RandomDtdConfig::default()));
    let doc_seed = rng.next_u64();
    let cfg = GenConfig {
        fanout: 1.4,
        max_depth: 6,
        text_words: 2,
    };
    let doc = generate(&dtd, doc_seed, &cfg);
    let xml = doc.to_xml();

    let q = random_query(&mut rng, RANDOM_DTD_TAGS);
    check_query(&q, &dtd, &doc, &xml);
    let xq = random_xquery(&mut rng);
    check_query(&xq, &dtd, &doc, &xml);
}

#[test]
fn fuzz_query_machine_matches_unpruned_reference() {
    seeded(
        "fuzz_query_machine_matches_unpruned_reference",
        FUZZ_CASES,
        run_case,
    );
}

/// Mixed content at every level below the root: `p` and `x` interleave
/// text with elements, so a query that keeps a `p`'s text but not its
/// `x` and `y` children leaves text runs side by side.
const MIXED_DTD: &str = "<!ELEMENT r (p*)>\
    <!ELEMENT p (#PCDATA | x | y)*>\
    <!ELEMENT x (#PCDATA | y)*>\
    <!ELEMENT y (#PCDATA)>";

const MIXED_TAGS: &[&str] = &["r", "p", "x", "y"];
const WORDS: &[&str] = &["one", "two ", " three", "a&amp;b"];
const SPACES: &[&str] = &[" ", "\n  "];

/// The content of a mixed element: words, whitespace-only runs, comments
/// and `children`, in random order.
fn mixed_content(rng: &mut SplitMix64, children: &[&str], depth: usize, out: &mut String) {
    for _ in 0..rng.below(8) {
        match rng.below(7) {
            0..=2 => out.push_str(WORDS[rng.below(WORDS.len())]),
            3 => out.push_str(SPACES[rng.below(SPACES.len())]),
            4 => out.push_str("<!--c-->"),
            _ if children.is_empty() || depth == 0 => out.push('w'),
            _ => {
                let child = *rng.pick(children);
                out.push_str(&format!("<{child}>"));
                let below: &[&str] = if child == "x" { &["y"] } else { &[] };
                mixed_content(rng, below, depth - 1, out);
                out.push_str(&format!("</{child}>"));
            }
        }
    }
}

/// A random path down to some element and on to the nodes pruning can
/// make adjacent, `text()` or `node()`: counted, picked by position, or
/// as it is.
fn mixed_query(rng: &mut SplitMix64) -> String {
    let first = match rng.below(4) {
        0 => "node()",
        1 => "*",
        _ => rng.pick(MIXED_TAGS),
    };
    let last = if rng.chance(0.5) { "text()" } else { "node()" };
    let path = format!("/{}{first}/{}{last}", rng.pick(&AXES[1..3]), rng.pick(AXES),);
    match rng.below(3) {
        0 => format!("count({path})"),
        1 => format!("{path}[{}]", rng.range_incl(1, 3)),
        _ => path,
    }
}

fn run_mixed_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let dtd = Arc::new(parse_dtd(MIXED_DTD, "r").unwrap());
    let mut xml = String::from("<r>");
    for _ in 0..rng.range_incl(1, 2) {
        xml.push_str("<p>");
        mixed_content(&mut rng, &["x", "y"], 2, &mut xml);
        xml.push_str("</p>");
    }
    xml.push_str("</r>");
    // The reference reads what the machine reads: the serialized bytes.
    let doc = parse(&xml).unwrap();
    let q = mixed_query(&mut rng);
    check_query(&q, &dtd, &doc, &xml);
}

#[test]
fn fuzz_mixed_content_keeps_adjacent_text_nodes_apart() {
    seeded(
        "fuzz_mixed_content_keeps_adjacent_text_nodes_apart",
        FUZZ_CASES,
        run_mixed_case,
    );
}

/// Runs `q` on the whole of `xml` in `Answer` form.
fn answer(dtd: &Arc<Dtd>, q: &str, xml: &str) -> String {
    let artifact = QueryArtifact::compile(dtd, q).unwrap();
    assert_eq!(artifact.plan.label(), "fallback", "{q}");
    answer_split(&artifact, xml.as_bytes(), xml.len() / 2, true)
}

/// Text runs that pruning makes adjacent stay two text nodes, and a run
/// of XML `S` stays no node: t∖π deletes nodes, it never joins their
/// siblings (Def. 2.7). A fallback that serialized t∖π and parsed it
/// again joined them; each case notes what that answered.
#[test]
fn fallback_keeps_text_runs_that_pruning_made_adjacent() {
    let dtd = Arc::new(
        parse_dtd(
            "<!ELEMENT d (#PCDATA | b | c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)>",
            "d",
        )
        .unwrap(),
    );
    for (xml, q, want) in [
        // Was 1.
        (
            "<d>one <b>bold</b> two<c>cc</c></d>",
            "count(/d/text())",
            "2",
        ),
        // Was `one  two`.
        (
            "<d>one <b>bold</b> two<c>cc</c></d>",
            "/d/text()[1]",
            "one ",
        ),
        // Was 4: the comment goes, and the runs either side of it joined.
        (
            "<d>one <!--c--> two<b>bold</b> three<c/></d>",
            "count(/d/node())",
            "5",
        ),
        // Was `x `: the whitespace-only run was kept, glued to `x`.
        ("<d>x<b/> </d>", "/d/text()[1]", "x"),
    ] {
        let doc = parse(xml).unwrap();
        assert_eq!(
            evaluate_query(&doc, &parse_xquery(q).unwrap()).unwrap(),
            want,
            "{q}"
        );
        assert_eq!(answer(&dtd, q, xml), want, "{q} on {xml}");
        check_query(q, &dtd, &doc, xml);
    }

    // XMark's `text` is mixed content (`#PCDATA | bold | keyword | emph`),
    // here at scale 0.05 (86 KB). Were 69 and 25.
    let dtd = Arc::new(auction_dtd());
    let xml = generate_auction(&dtd, &XMarkConfig::at_scale(0.05)).to_xml();
    let doc = parse(&xml).unwrap();
    for (q, want) in [
        ("count(//text/text())", "168"),
        ("count(//listitem/text/text())", "38"),
    ] {
        assert_eq!(
            evaluate_query(&doc, &parse_xquery(q).unwrap()).unwrap(),
            want,
            "{q}"
        );
        assert_eq!(answer(&dtd, q, &xml), want, "{q}");
    }
    // Was `<n>1</n>` for every description.
    let q = "for $t in //item/description/text return <n>{count($t/text())}</n>";
    let want = evaluate_query(&doc, &parse_xquery(q).unwrap()).unwrap();
    assert!(
        want.split("</n>").any(|n| !n.is_empty() && n != "<n>1"),
        "{want}"
    );
    assert_eq!(answer(&dtd, q, &xml), want, "{q}");
}
