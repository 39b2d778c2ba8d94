//! Streamed validation ≡ whole-string validation.
//!
//! `ChunkedPruner::set_validate` carries the validator's open-element
//! automaton states from feed to feed; `prune_validate_str` runs the same
//! sink over the whole input in one go. At **every** two-chunk split of
//! every document below — valid, DTD-invalid, malformed, truncated,
//! mutated — both must agree exactly: the same pruned bytes and counters
//! on success, the same *first* error otherwise. A validator that was
//! rebuilt per feed (or lost its stack at a boundary) fails the first
//! split that lands inside the root element.
//!
//! The corpus is the one `crates/core/tests/stream_errors.rs` holds the
//! whole-string pruners to, plus models where text tokens can be
//! adjacent (mixed content; text broken up by comments and CDATA) — the
//! shape on which tree-side and stream-side validation once diverged.
//!
//! Every document, and its copy re-indented with XML `S` between tags,
//! also gets the verdict `xmlprune validate` gave before it streamed:
//! `dtd::validate` on the parsed tree (whose parser drops runs of XML
//! `S`) accepts exactly what the validating pass accepts.

use xproj_core::{prune_validate_str, Projector, StaticAnalyzer, StreamPruneError};
use xproj_dtd::generate::{generate, random_dtd, GenConfig, RandomDtdConfig};
use xproj_dtd::{parse_dtd, validate, Dtd};
use xproj_engine::{ChunkedPruner, EngineError, DEFAULT_CHUNK_SIZE};
use xproj_testkit::{case_seed, SplitMix64};
use xproj_xmltree::parse_with_interner;

/// The streamed validating prune of `a` then `b`, in the whole-string
/// function's terms.
fn streamed(
    dtd: &Dtd,
    p: &Projector,
    a: &[u8],
    b: &[u8],
) -> Result<(String, xproj_core::PruneCounters), StreamPruneError> {
    let mut out = Vec::new();
    let mut pruner = ChunkedPruner::new(dtd, p, &mut out);
    pruner.set_validate(true);
    let stats = pruner
        .feed(a)
        .and_then(|()| pruner.feed(b))
        .and_then(|()| pruner.finish())
        .map_err(|e| match e {
            EngineError::Xml(e) => StreamPruneError::from(e),
            EngineError::Prune(e) => e,
            other => panic!("unexpected engine error: {other}"),
        })?;
    assert_eq!(
        stats.subtrees_fast_forwarded, 0,
        "a validating pass skips nothing"
    );
    Ok((
        String::from_utf8(out).expect("engine output is UTF-8"),
        stats.counters,
    ))
}

/// Tree and stream accept the same documents: `input`, and `input`
/// with every `S` character between each pair of adjacent tags.
fn assert_verdicts_agree(dtd: &Dtd, input: &str) {
    for doc in [input.to_string(), input.replace("><", ">\r\n\t <")] {
        let tree = parse_with_interner(&doc, dtd.tags.clone()).is_ok_and(|t| validate(&t, dtd).is_ok());
        let mut pruner = ChunkedPruner::new(dtd, &Projector::empty(dtd), std::io::sink());
        pruner.set_validate(true);
        let stream = pruner.run(doc.as_bytes(), DEFAULT_CHUNK_SIZE).is_ok();
        assert_eq!(stream, tree, "streamed vs tree verdict on {doc:?}");
    }
}

fn assert_every_split_agrees(dtd: &Dtd, p: &Projector, input: &str) {
    assert_verdicts_agree(dtd, input);
    let want = prune_validate_str(input, dtd, p);
    let bytes = input.as_bytes();
    for at in 0..=bytes.len() {
        let got = streamed(dtd, p, &bytes[..at], &bytes[at..]);
        match (&want, &got) {
            (Ok(w), Ok((output, c))) => {
                assert_eq!(output, &w.output, "split {at} of {input:?}");
                assert_eq!(
                    (
                        c.elements_kept,
                        c.elements_pruned,
                        c.text_kept,
                        c.text_pruned,
                        c.max_depth
                    ),
                    (
                        w.elements_kept,
                        w.elements_pruned,
                        w.text_kept,
                        w.text_pruned,
                        w.max_depth
                    ),
                    "split {at} of {input:?}"
                );
            }
            (Err(w), Err(g)) => assert_eq!(g, w, "split {at} of {input:?}"),
            _ => panic!(
                "split {at} of {input:?}: whole-string {:?}, streamed {:?}",
                want.as_ref().map(|r| &r.output),
                got.as_ref().map(|r| &r.0)
            ),
        }
    }
}

const DTD_SRC: &str = "\
    <!ELEMENT r (a*, b?)>\
    <!ELEMENT a (c, c?)>\
    <!ELEMENT b (#PCDATA)>\
    <!ELEMENT c (#PCDATA)>";

const VALID: &str = "<r><a><c>one</c><c>two</c></a><b>tail</b></r>";

/// Full projector, and one that prunes `b` (pruned elements must still
/// be validated).
fn projectors(dtd: &Dtd, pruning_query: &str) -> [Projector; 2] {
    let pruning = StaticAnalyzer::new(dtd)
        .project_query(pruning_query)
        .unwrap();
    [Projector::full(dtd), pruning]
}

#[test]
fn stream_errors_corpus_agrees_at_every_split() {
    let dtd = parse_dtd(DTD_SRC, "r").unwrap();
    for p in projectors(&dtd, "/r/a/c") {
        for input in [
            VALID,
            "<!DOCTYPE r SYSTEM \"r.dtd\"><!-- prolog --><r/>",
            // mismatched close tags
            "<r><a></b></r>",
            "<r><a><c></a></c></r>",
            "<r></a>",
            // unclosed
            "<r>",
            "<r><a>",
            "<r><a><c>text",
            // undeclared, wrong root, no root
            "<r><zzz/></r>",
            "<a><c>x</c></a>",
            "",
            "<!-- nothing else -->",
            // DTD-invalid content
            "<r><b>x</b><a><c>y</c></a></r>",
            "<r><a></a></r>",
            "<r><a><c>x</c><c>y</c><c>z</c></a></r>",
            "<r>stray text</r>",
            "<r><a><c>x</c></a><b>t<c>nested</c></b></r>",
        ] {
            assert_every_split_agrees(&dtd, &p, input);
        }
        for cut in 0..VALID.len() {
            assert_every_split_agrees(&dtd, &p, &VALID[..cut]);
        }
        for pos in 0..VALID.len() {
            for byte in *b"<>/&x \"" {
                let mut bytes = VALID.as_bytes().to_vec();
                bytes[pos] = byte;
                assert_every_split_agrees(&dtd, &p, std::str::from_utf8(&bytes).unwrap());
            }
        }
    }
}

#[test]
fn adjacent_text_models_agree_at_every_split() {
    let dtd = parse_dtd(
        "<!ELEMENT doc (m, t, m?)>\
         <!ELEMENT m (#PCDATA | e | m)*>\
         <!ELEMENT e EMPTY>\
         <!ELEMENT t (#PCDATA)>",
        "doc",
    )
    .unwrap();
    for p in projectors(&dtd, "/doc/t") {
        for input in [
            "<doc><m>a<e/>b<!-- x -->c<![CDATA[d]]>e&amp;f<m>g<e/></m>h</m><t>x</t></doc>",
            "<doc><m/><t>x<!-- c -->y<![CDATA[z]]>&lt;w</t><m>é<e/>ü</m></doc>",
            "<doc><m>a</m><t><![CDATA[only]]></t></doc>",
            // invalid: an element where only text may go; text where none may
            "<doc><m>a</m><t>x<e/>y</t></doc>",
            "<doc>loose<m/><t/></doc>",
            "<doc><m><t/></m><t/></doc>",
        ] {
            assert_every_split_agrees(&dtd, &p, input);
        }
    }
}

/// Random DTDs and documents, whole and chopped mid-stream, each at a
/// handful of random splits (`TESTKIT_FUZZ_CASES`, default 200).
#[test]
fn random_documents_and_truncations_agree() {
    let cases = std::env::var("TESTKIT_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    for i in 0..cases {
        let mut rng = SplitMix64::new(case_seed("random_documents_and_truncations_agree", i));
        let dtd = random_dtd(&mut rng, &RandomDtdConfig::default());
        let xml = generate(&dtd, rng.next_u64(), &GenConfig::default()).to_xml();
        let p = StaticAnalyzer::new(&dtd)
            .project_query("/descendant-or-self::node()")
            .unwrap();
        let mut cut = xml.len() * (1 + rng.below(100)) / 100;
        while !xml.is_char_boundary(cut) {
            cut -= 1;
        }
        for input in [&xml[..], &xml[..cut]] {
            assert_verdicts_agree(&dtd, input);
            let want = prune_validate_str(input, &dtd, &p).map(|r| r.output);
            for _ in 0..8 {
                let at = rng.below(input.len() + 1);
                let got = streamed(&dtd, &p, &input.as_bytes()[..at], &input.as_bytes()[at..])
                    .map(|r| r.0);
                assert_eq!(got, want, "case {i}, split {at} of {input:?}");
            }
        }
    }
}
