//! One pass answers a query in memory that tracks the answer, not the
//! document.
//!
//! The classical pipeline prunes to a buffer, parses the pruned document
//! into a tree and evaluates over it: it holds t∖π, so its memory grows
//! with the document. A [`QueryMachine`] on the streaming plan answers
//! while it prunes — one pass over the raw token stream, capturing only
//! answer nodes — so what it holds is the open captures, one feed and the
//! tokenizer's tail. Both run from the same compiled artifact with the
//! same feed size and fast-forward, so the difference is only the shape.
//!
//! Gated on counters, not on a clock: the answers are byte-identical, the
//! one pass tokenizes no more than the pruning pass alone, and from XMark
//! scale 0.1 to 0.5 its peak allocation grows by less than two feeds per
//! query while the pipeline's, summed over the queries, at least doubles
//! and ends three times the one pass's.
//!
//! A fallback plan holds t∖π on both sides, but the one pass holds it
//! once: its kept events build the tree, where the pipeline holds the
//! pruned bytes and the tree parsed from them. So on XMark 0.5 its peak
//! allocation is below the pipeline's, and its answer is the reference
//! evaluator's over the unpruned tree (the pipeline's re-parse joins text
//! runs that pruning made adjacent, so it may not be).
//!
//! Its own test binary with a single test: the counting allocator is
//! process-global, so a second test thread would be measured too.

use std::sync::Arc;
use xproj_bench::ALLOCATOR;
use xproj_engine::{ChunkedPruner, QueryArtifact, QueryMachine, QueryOutput, DEFAULT_CHUNK_SIZE};
use xproj_xmark::{auction_dtd, generate_auction, XMarkConfig};
use xproj_xmltree::{parse_with_interner, Document};
use xproj_xquery::evaluate_query;

/// Predicate-free downward paths, so every one runs on the streaming
/// plan, keeping 0.7 % (`name`) to 55 % (`listitem`) of the document.
const QUERIES: [&str; 5] = [
    "/site/people/person/name",
    "//bidder",
    "//keyword",
    "//emph",
    "//listitem",
];

/// Fallback-plan queries: a value predicate, and text nodes that pruning
/// makes adjacent (`text` is mixed content; its `bold`, `keyword` and
/// `emph` children go). Each keeps more than a feed of t∖π; where t∖π is
/// smaller than a feed, the feed buffer the pass holds while the tree
/// grows outweighs the bytes the pipeline holds twice.
const FALLBACK_QUERIES: [&str; 2] =
    ["//item[location='Paris']/description", "count(//text/text())"];

/// One query on one document, both ways.
struct Cell {
    /// The pipeline's answer and the one pass's, which must be equal.
    answer: Vec<u8>,
    /// Events tokenized by the pipeline's pruning pass and by the one pass.
    prune_events: u64,
    one_pass_events: u64,
    /// Peak bytes allocated by the pipeline and by the one pass.
    pipeline_peak: usize,
    one_pass_peak: usize,
}

/// Prune into a buffer, parse the pruned document, evaluate over the
/// tree.
fn prune_parse_evaluate(artifact: &QueryArtifact, xml: &[u8]) -> (Vec<u8>, u64) {
    let mut pruned = Vec::new();
    let mut pruner = ChunkedPruner::new(&*artifact.dtd, &artifact.projector, &mut pruned);
    for chunk in xml.chunks(DEFAULT_CHUNK_SIZE) {
        pruner.feed(chunk).unwrap();
    }
    let events = pruner.finish().unwrap().events;
    let tags = artifact.dtd.tags.clone();
    let doc = parse_with_interner(std::str::from_utf8(&pruned).unwrap(), tags).unwrap();
    (evaluate(artifact, &doc), events)
}

/// The reference evaluator's answer over `doc`, in the one pass's
/// `Answer` form.
fn evaluate(artifact: &QueryArtifact, doc: &Document) -> Vec<u8> {
    evaluate_query(doc, &artifact.ast).unwrap().into_bytes()
}

/// The one pass, its output drained after every feed into one reused
/// buffer and checked piece by piece against `expected`, so the answer
/// is never held whole.
fn one_pass(artifact: &Arc<QueryArtifact>, xml: &[u8], expected: &[u8]) -> u64 {
    let mut machine = QueryMachine::new(Arc::clone(artifact), QueryOutput::Answer);
    let mut out = Vec::new();
    let mut at = 0;
    let mut check = |machine: &mut QueryMachine| {
        machine.take_output(&mut out);
        assert_eq!(
            Some(&out[..]),
            expected.get(at..at + out.len()),
            "at answer byte {at}"
        );
        at += out.len();
        out.clear();
    };
    for chunk in xml.chunks(DEFAULT_CHUNK_SIZE) {
        machine.feed(chunk).unwrap();
        check(&mut machine);
    }
    let stats = machine.finish().unwrap();
    check(&mut machine);
    assert_eq!(at, expected.len(), "the one pass stopped short");
    stats.engine.events
}

fn cell(artifact: &Arc<QueryArtifact>, xml: &[u8]) -> Cell {
    let ((answer, prune_events), pipeline_peak) =
        ALLOCATOR.measure(|| prune_parse_evaluate(artifact, xml));
    let (one_pass_events, one_pass_peak) = ALLOCATOR.measure(|| one_pass(artifact, xml, &answer));
    Cell {
        answer,
        prune_events,
        one_pass_events,
        pipeline_peak,
        one_pass_peak,
    }
}

#[test]
fn one_pass_memory_tracks_the_answer_and_the_pipeline_memory_the_document() {
    let dtd = Arc::new(auction_dtd());
    let small = generate_auction(&dtd, &XMarkConfig::at_scale(0.1)).to_xml();
    let large = generate_auction(&dtd, &XMarkConfig::at_scale(0.5)).to_xml();
    let mut report = String::new();
    let mut totals = [0usize; 4];
    for query in QUERIES {
        let artifact = QueryArtifact::compile(&dtd, query).unwrap();
        assert_eq!(artifact.plan.label(), "streaming", "{query}");
        let (s, l) = (
            cell(&artifact, small.as_bytes()),
            cell(&artifact, large.as_bytes()),
        );
        assert!(!l.answer.is_empty(), "{query}: empty answer");
        for c in [&s, &l] {
            assert!(
                c.one_pass_events <= c.prune_events,
                "{query}: the one pass tokenized {} events, the pruning pass alone {}",
                c.one_pass_events,
                c.prune_events
            );
        }
        let peaks = [
            s.one_pass_peak,
            l.one_pass_peak,
            s.pipeline_peak,
            l.pipeline_peak,
        ];
        report += &format!(
            "\n{query}: one pass {} → {} B, pipeline {} → {} B",
            peaks[0], peaks[1], peaks[2], peaks[3]
        );
        assert!(
            peaks[1] < peaks[0] + 2 * DEFAULT_CHUNK_SIZE,
            "the one pass grew with the document:{report}"
        );
        for (total, peak) in totals.iter_mut().zip(peaks) {
            *total += peak;
        }
    }
    // Over the workload: the pipeline holds t∖π, which grows with the
    // document (per query only where enough is kept: t∖π of
    // `/site/people/person/name` is 6 KB at scale 0.5).
    let [_, one_pass_total, pipeline_small, pipeline] = totals;
    assert!(
        pipeline >= 2 * pipeline_small,
        "the pipeline did not grow:{report}"
    );
    assert!(
        3 * one_pass_total <= pipeline,
        "the one pass held over a third as much:{report}"
    );

    let unpruned = parse_with_interner(&large, dtd.tags.clone()).unwrap();
    for query in FALLBACK_QUERIES {
        let artifact = QueryArtifact::compile(&dtd, query).unwrap();
        assert_eq!(artifact.plan.label(), "fallback", "{query}");
        let expected = evaluate(&artifact, &unpruned);
        assert!(!expected.is_empty(), "{query}: empty answer");
        let ((_, prune_events), pipeline_peak) =
            ALLOCATOR.measure(|| prune_parse_evaluate(&artifact, large.as_bytes()));
        let (one_pass_events, one_pass_peak) =
            ALLOCATOR.measure(|| one_pass(&artifact, large.as_bytes(), &expected));
        report += &format!(
            "\n{query} (fallback, scale 0.5): one pass {one_pass_peak} B, pipeline {pipeline_peak} B"
        );
        assert!(one_pass_events <= prune_events, "{query}: tokenized more than pruning");
        assert!(
            one_pass_peak < pipeline_peak,
            "the fallback held t∖π twice:{report}"
        );
    }
    println!("{report}");
}
