//! Differential fuzzing: chunked push-mode pruning is byte-identical to
//! the in-memory projection of Def. 2.7.
//!
//! Each case draws a random *(DTD, document, query)* triple (as the
//! Theorem 4.6 soundness fuzzer does) plus a **random chunking** of the
//! serialized document — including 1-byte chunks and splits that land
//! mid-tag, mid-entity and mid-CDATA — and checks that feeding the
//! chunks through the engine produces exactly the bytes of
//! `prune_document` on the tree (an oracle that shares no code with the
//! token loop: the whole string as one feed, fast-forward off and on, is
//! the one-chunk case of the same loop, so it is checked here too, not
//! trusted), with
//! matching counters. The engine's `finish()` additionally asserts the
//! O(depth + max-token) resident-memory bound on every case. The same
//! triples then go through a `QueryMachine` in `Pruned` mode — the owned
//! pass a server drives — at every fixed chunk size: same bytes, same
//! stats, and its `pending_output()`/`resident_bytes()` gauges must
//! account for every kept byte not yet taken; and in `Frames` mode, on
//! the streaming and the fallback plan, under the same bound.
//!
//! On failure the test panics with a `TESTKIT_SEED=0x…` replay line;
//! setting that variable re-runs exactly the failing case.
//! `TESTKIT_CASES=n` overrides the case count.

use std::sync::Arc;
use xproj_core::{prune_document, Projector, StaticAnalyzer};
use xproj_dtd::generate::{generate, random_dtd, GenConfig, RandomDtdConfig, RANDOM_DTD_TAGS};
use xproj_dtd::{validate, Dtd};
use xproj_engine::{
    residency_bound, ChunkedPruner, EngineError, EngineStats, QueryArtifact, QueryMachine,
    QueryOutput,
};
use xproj_testkit::{seeded, SplitMix64};
use xproj_xmltree::Document;

const FUZZ_CASES: u32 = 300;

/// The whole string as one `ChunkedPruner` feed: the pruned bytes and
/// the pass's stats.
fn one_feed(
    xml: &str,
    dtd: &Dtd,
    p: &Projector,
    fast_forward: bool,
) -> Result<(String, EngineStats), EngineError> {
    let mut out = Vec::new();
    let mut pruner = ChunkedPruner::new(dtd, p, &mut out);
    pruner.set_fast_forward(fast_forward);
    pruner.feed(xml.as_bytes())?;
    let stats = pruner.finish()?;
    Ok((
        String::from_utf8(out).expect("engine output is UTF-8"),
        stats,
    ))
}

/// A random XPathℓ query over the random-DTD tag alphabet.
fn random_query(rng: &mut SplitMix64) -> String {
    let nsteps = rng.range_incl(1, 3);
    let mut parts = Vec::new();
    for _ in 0..nsteps {
        let axis = *rng.pick(&["child::", "descendant::", "descendant-or-self::", "self::"]);
        let test = match rng.below(5) {
            0 => "node()".to_string(),
            1 => "*".to_string(),
            _ => rng.pick(RANDOM_DTD_TAGS).to_string(),
        };
        parts.push(format!("{axis}{test}"));
    }
    format!("/{}", parts.join("/"))
}

/// Fixed chunk sizes every triple rotates through (`usize::MAX` means
/// the whole document in one feed): tiny sizes force splits inside
/// every delimiter, a prime avoids aliasing with token lengths, and
/// 4096 matches a realistic read size.
const FIXED_CHUNK_SIZES: &[usize] = &[1, 2, 3, 7, 101, 4096, usize::MAX];

/// Splits `xml` into chunks: half the cases rotate through
/// [`FIXED_CHUNK_SIZES`], the rest use random chunk lengths, so both
/// systematic and adversarial split points get exercised over the
/// corpus.
fn random_chunks<'a>(rng: &mut SplitMix64, xml: &'a [u8], case: u64) -> Vec<&'a [u8]> {
    if case.is_multiple_of(2) {
        let idx = (case / 2) as usize % FIXED_CHUNK_SIZES.len();
        let size = FIXED_CHUNK_SIZES[idx].min(xml.len().max(1));
        return xml.chunks(size).collect();
    }
    let mut chunks = Vec::new();
    let mut pos = 0;
    while pos < xml.len() {
        let max = (xml.len() - pos).min(1 + rng.below(97));
        let n = 1 + rng.below(max);
        chunks.push(&xml[pos..pos + n]);
        pos += n;
    }
    chunks
}

/// `QueryMachine` in `Pruned` mode ≡ `ChunkedPruner` ≡ Def. 2.7's
/// `prune_document`, under the compiled artifact's projector, at every
/// size in [`FIXED_CHUNK_SIZES`] — drained after every other feed so
/// both the taken and the still-pending bytes are exercised. In `Frames`
/// mode the streaming plan of `q` and the fallback plan of `count(q)`
/// stay under the same bound.
fn pruned_machine_case(dtd: Dtd, doc: &Document, xml: &str, q: &str) {
    let dtd = Arc::new(dtd);
    let artifact = QueryArtifact::compile(&dtd, q)
        .unwrap_or_else(|e| panic!("query {q:?} failed to compile: {e}"));
    let interp = validate(doc, &dtd).expect("generated document must be valid");
    let oracle = prune_document(doc, &dtd, &interp, &artifact.projector).to_xml();
    for &size in FIXED_CHUNK_SIZES {
        let size = size.min(xml.len().max(1));
        let mut reference = Vec::new();
        let want = ChunkedPruner::new(&*dtd, &artifact.projector, &mut reference)
            .run(xml.as_bytes(), size)
            .unwrap_or_else(|e| {
                panic!("chunked run (size {size}) failed for {q}: {e}\ndoc: {xml}")
            });
        assert_eq!(
            String::from_utf8(reference).unwrap(),
            oracle,
            "chunked output (size {size}) diverged from prune_document for {q}\ndoc: {xml}"
        );

        let mut machine = QueryMachine::new(Arc::clone(&artifact), QueryOutput::Pruned);
        let mut out = Vec::new();
        // Takes everything pending, checking the gauge announced it.
        let take = |machine: &mut QueryMachine, out: &mut Vec<u8>| {
            let (pending, before) = (machine.pending_output(), out.len());
            machine.take_output(out);
            assert_eq!(out.len() - before, pending, "size {size}, {q}");
            assert_eq!(machine.pending_output(), 0);
            assert!(oracle.as_bytes().starts_with(out), "size {size}, {q}");
        };
        for (i, chunk) in xml.as_bytes().chunks(size).enumerate() {
            machine.feed(chunk).unwrap_or_else(|e| {
                panic!("machine feed (size {size}) failed for {q}: {e}\ndoc: {xml}")
            });
            assert!(machine.resident_bytes() >= machine.pending_output());
            if i % 2 == 1 {
                take(&mut machine, &mut out);
            }
        }
        // finish() hard-asserts the resident-memory bound here too.
        let stats = machine.finish().unwrap_or_else(|e| {
            panic!("machine finish (size {size}) failed for {q}: {e}\ndoc: {xml}")
        });
        take(&mut machine, &mut out);
        assert_eq!(machine.resident_bytes(), 0);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            oracle,
            "machine output (size {size}) diverged from prune_document for {q}\ndoc: {xml}"
        );
        assert_eq!(stats.plan, "prune");
        let got = &stats.engine;
        assert_eq!(got.counters, want.counters, "size {size}, {q}");
        assert_eq!(
            (got.documents, got.events, got.bytes_in, got.bytes_out),
            (1, want.events, xml.len() as u64, oracle.len() as u64),
            "size {size}, {q}"
        );
        assert_eq!(got.subtrees_fast_forwarded, want.subtrees_fast_forwarded);
        assert_eq!(got.peak_resident_bytes, want.peak_resident_bytes);
        let check_bound = |got: &xproj_engine::EngineStats, what: &str| {
            let bound = residency_bound(got.max_token_bytes, size, got.counters.max_depth);
            let peak = got.peak_resident_bytes;
            assert!(
                peak <= bound,
                "{what}: resident {peak} > {bound} at chunk size {size}"
            );
        };
        check_bound(got, q);

        for (query, plan) in [
            (q.to_string(), "streaming"),
            (format!("count({q})"), "fallback"),
        ] {
            let artifact = QueryArtifact::compile(&dtd, &query).unwrap();
            let mut machine = QueryMachine::new(artifact, QueryOutput::Frames);
            for chunk in xml.as_bytes().chunks(size) {
                machine.feed(chunk).unwrap();
            }
            let stats = machine.finish().unwrap();
            assert_eq!(stats.plan, plan, "{query}");
            check_bound(&stats.engine, &query);
        }
    }
}

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
    let xml = doc.to_xml();

    let q = random_query(&mut rng);
    let mut sa = StaticAnalyzer::new(&dtd);
    let projector = sa
        .project_query(&q)
        .unwrap_or_else(|e| panic!("query {q:?} failed to project: {e}"));

    let interp = validate(&doc, &dtd).expect("generated document must be valid");
    let oracle = prune_document(&doc, &dtd, &interp, &projector).to_xml();

    let (whole_out, whole) = one_feed(&xml, &dtd, &projector, false)
        .unwrap_or_else(|e| panic!("one feed failed on generated doc: {e}"));
    let whole = whole.counters;
    assert_eq!(
        whole_out, oracle,
        "one feed diverged from prune_document for {q}\ndoc: {xml}"
    );

    // The whole-string fast-forward run on the same triple:
    // byte-identical output, identical counters except `text_pruned`
    // (text in raw-skipped subtrees is never tokenized, hence never
    // counted).
    let (fast_out, fast) = one_feed(&xml, &dtd, &projector, true)
        .unwrap_or_else(|e| panic!("one fast-forward feed failed for {q}: {e}\ndoc: {xml}"));
    let fast = fast.counters;
    assert_eq!(
        fast_out, oracle,
        "one fast-forward feed diverged from prune_document for {q}\ndoc: {xml}"
    );
    assert_eq!(fast.elements_kept, whole.elements_kept, "for {q}");
    assert_eq!(fast.elements_pruned, whole.elements_pruned, "for {q}");
    assert_eq!(fast.text_kept, whole.text_kept, "for {q}");
    assert_eq!(fast.max_depth, whole.max_depth, "for {q}");

    let case = rng.next_u64();
    let chunks = random_chunks(&mut rng, xml.as_bytes(), case);
    // The chunked engine in both modes over the same chunking: with the
    // pruned-subtree fast-forward engaged (the default — chunk
    // boundaries may fall anywhere inside a raw-skipped subtree), and
    // with it off (every event tokenized).
    for fast_forward in [true, false] {
        let mut out: Vec<u8> = Vec::new();
        let mut pruner = ChunkedPruner::new(&dtd, &projector, &mut out);
        pruner.set_fast_forward(fast_forward);
        for chunk in &chunks {
            pruner.feed(chunk).unwrap_or_else(|e| {
                panic!("chunked feed (ff={fast_forward}) failed for {q}: {e}\ndoc: {xml}")
            });
        }
        // finish() also hard-asserts the resident-memory bound.
        let stats = pruner.finish().unwrap_or_else(|e| {
            panic!("chunked finish (ff={fast_forward}) failed for {q}: {e}\ndoc: {xml}")
        });

        let chunked = String::from_utf8(out).expect("engine output is UTF-8");
        assert_eq!(
            chunked, oracle,
            "chunked output (ff={fast_forward}) diverged from prune_document for {q}\ndoc: {xml}"
        );
        assert_eq!(stats.counters.elements_kept, whole.elements_kept, "for {q}");
        assert_eq!(
            stats.counters.elements_pruned, whole.elements_pruned,
            "for {q}"
        );
        assert_eq!(stats.counters.text_kept, whole.text_kept, "for {q}");
        assert_eq!(stats.counters.max_depth, whole.max_depth, "for {q}");
        assert_eq!(stats.bytes_in, xml.len() as u64);
        assert_eq!(stats.bytes_out, whole_out.len() as u64);
        if !fast_forward {
            assert_eq!(stats.counters.text_pruned, whole.text_pruned, "for {q}");
        }
    }

    pruned_machine_case(dtd, &doc, &xml, &q);
}

#[test]
fn fuzz_chunked_equals_whole_string_pruning() {
    seeded(
        "fuzz_chunked_equals_whole_string_pruning",
        FUZZ_CASES,
        run_case,
    );
}

/// A document whose pruned subtrees are all fast-forward-eligible,
/// split at **every** two-chunk boundary plus 1-byte chunks: every
/// boundary class (mid-delimiter inside a raw-skipped region, at the
/// skip entry/exit, mid-`-->`, mid-`]]>`, mid-quote) gets exercised.
#[test]
fn fast_forward_survives_every_chunk_boundary() {
    use xproj_dtd::parse_dtd;
    let dtd = parse_dtd(
        "<!ELEMENT bib (book*)>\
         <!ELEMENT book (title, note*)>\
         <!ATTLIST note k CDATA #IMPLIED>\
         <!ELEMENT title (#PCDATA)>\
         <!ELEMENT note (#PCDATA | note)*>",
        "bib",
    )
    .unwrap();
    let mut sa = StaticAnalyzer::new(&dtd);
    // π = {bib, book, title, String(title)}: every `note` subtree is
    // raw-skipped (note reaches only note).
    let projector = sa.project_query("/bib/book/title").unwrap();
    let xml = "<bib><book><title>T1</title>\
               <note k=\"a > b\"><!-- </note> --><note><![CDATA[</note>]]]]></note>\
               t &amp; t<?pi </note> ?></note><note/></book>\
               <book><title>T2</title><note>x</note></book></bib>";
    let (whole_out, whole) = one_feed(xml, &dtd, &projector, false).unwrap();
    let whole = whole.counters;
    assert_eq!(
        whole_out,
        "<bib><book><title>T1</title></book><book><title>T2</title></book></bib>"
    );
    let bytes = xml.as_bytes();
    let run = |chunks: &[&[u8]]| {
        let mut out = Vec::new();
        let mut pruner = ChunkedPruner::new(&dtd, &projector, &mut out);
        for c in chunks {
            pruner.feed(c).unwrap();
        }
        let stats = pruner.finish().unwrap();
        assert_eq!(stats.counters.elements_pruned, whole.elements_pruned);
        String::from_utf8(out).unwrap()
    };
    for at in 0..=bytes.len() {
        assert_eq!(
            run(&[&bytes[..at], &bytes[at..]]),
            whole_out,
            "two-chunk split at byte {at}"
        );
    }
    let one_byte: Vec<&[u8]> = (0..bytes.len()).map(|i| &bytes[i..i + 1]).collect();
    assert_eq!(run(&one_byte), whole_out, "1-byte chunks");
}

/// The XMark differential: a realistic XMark auction document (deep
/// mixed content, attributes, every description element full of
/// entities) streamed at several chunk sizes.
#[test]
fn xmark_chunked_differential() {
    use xproj_xmark::{auction_dtd, generate_auction, XMarkConfig};
    let dtd = auction_dtd();
    let doc = generate_auction(&dtd, &XMarkConfig::at_scale(0.05));
    let interp = validate(&doc, &dtd).expect("generated auction document is valid");
    let xml = doc.to_xml();
    let mut sa = StaticAnalyzer::new(&dtd);
    for q in [
        "/site/people/person/name",
        "//keyword",
        "/site/closed_auctions/closed_auction[descendant::keyword]/date",
    ] {
        let projector = sa.project_query(q).unwrap();
        let oracle = prune_document(&doc, &dtd, &interp, &projector).to_xml();
        for chunk_size in [1, 17, 4096, 1 << 20] {
            let mut out = Vec::new();
            let stats = ChunkedPruner::new(&dtd, &projector, &mut out)
                .run(xml.as_bytes(), chunk_size)
                .unwrap();
            assert_eq!(
                String::from_utf8(out).unwrap(),
                oracle,
                "xmark differential diverged for {q} at chunk size {chunk_size}"
            );
            // The memory-bound guarantee, observed end-to-end: resident
            // buffering tracks tokens and chunks, not the document.
            let (token, depth) = (stats.max_token_bytes, stats.counters.max_depth);
            let bound = residency_bound(token, chunk_size, depth);
            assert!(
                stats.peak_resident_bytes <= bound,
                "resident {} out of bound at chunk size {chunk_size}",
                stats.peak_resident_bytes
            );
        }
    }
}

/// The engine-level twin of xmltree's hostile-token wall: an 8 MiB
/// attribute value that never closes, in the 64 KiB feeds the CLI and the
/// daemon read in, is malformed XML at end of input for every pass — and
/// costs each of them one scan of the bytes, not one per feed.
#[test]
fn giant_unterminated_attribute_is_malformed_xml_for_every_pass() {
    let dtd = Arc::new(xproj_xmark::auction_dtd());
    let artifact = QueryArtifact::compile(&dtd, "//keyword").unwrap();
    let mut doc = b"<site a=\"".to_vec();
    doc.resize(doc.len() + (8 << 20), b'x');
    for validate in [false, true] {
        let mut pruner = ChunkedPruner::new(&*artifact.dtd, &artifact.projector, Vec::new());
        pruner.set_validate(validate);
        for chunk in doc.chunks(64 * 1024) {
            pruner.feed(chunk).unwrap();
        }
        let err = pruner.finish().unwrap_err();
        assert!(
            matches!(err, xproj_engine::EngineError::Xml(_)),
            "validate {validate}: {err}"
        );
    }
    let mut machine = QueryMachine::new(artifact, QueryOutput::Frames);
    for chunk in doc.chunks(64 * 1024) {
        machine.feed(chunk).unwrap();
    }
    let err = machine.finish().unwrap_err();
    assert!(matches!(err, xproj_engine::EngineError::Xml(_)), "{err}");
}
