//! The streaming matcher does O(open depth) capture work per event.
//!
//! Captures complete in document order but are emitted only once every
//! earlier one is — so under `//*` on an auction document the root's
//! capture stays open to the last byte and every other capture, long
//! since complete, queues behind it. An event must visit the captures
//! still *recording* (ancestors-or-self of the current node: at most
//! depth + 1 with the document node), never the queue. Walking the queue
//! made the pass quadratic in document size: `xmlprune query --query
//! '//*'` took 0.4 / 3.4 / 29 s on 1.6 / 3.3 / 6.6 MB.
//!
//! The gate is a counter, not a clock: `QueryStats::capture_visits ≤
//! events · (max_depth + 1)`.
//!
//! `TESTKIT_XMARK_SCALE=s` runs one document at scale `s` instead of
//! the two small ones: the release-mode leg of `ci.sh` (scale 4, where
//! the quadratic walk takes half a minute).

use std::sync::Arc;
use xproj_engine::{QueryArtifact, QueryMachine, QueryOutput, DEFAULT_CHUNK_SIZE};
use xproj_xmark::{auction_dtd, generate_auction, XMarkConfig};

/// `(query, streams)`: the union lowers to the fallback plan, which has
/// no captures and must say so.
const QUERIES: &[(&str, bool)] = &[
    ("//*", true),
    ("//node()", true),
    ("/site//keyword", true),
    ("//item[name]", true),
    ("/site | //item", false),
];

fn scales() -> Vec<f64> {
    match std::env::var("TESTKIT_XMARK_SCALE").ok().and_then(|v| v.parse().ok()) {
        Some(scale) => vec![scale],
        None => vec![0.05, 0.2],
    }
}

#[test]
fn capture_visits_are_bounded_by_events_times_depth() {
    let dtd = Arc::new(auction_dtd());
    for scale in scales() {
        let xml = generate_auction(&dtd, &XMarkConfig::at_scale(scale)).to_xml();
        for &(query, streams) in QUERIES {
            let artifact = QueryArtifact::compile(&dtd, query).unwrap();
            let mut machine = QueryMachine::new(artifact, QueryOutput::Frames);
            let mut frames = Vec::new();
            for chunk in xml.as_bytes().chunks(DEFAULT_CHUNK_SIZE) {
                machine.feed(chunk).unwrap();
                machine.take_output(&mut frames);
                frames.clear();
            }
            let stats = machine.finish().unwrap();
            let engine = &stats.engine;
            let bound = engine.events * (engine.counters.max_depth as u64 + 1);
            assert!(
                stats.capture_visits <= bound,
                "{query} at scale {scale}: {} capture visits over {} events at depth {} \
                 (bound {bound})",
                stats.capture_visits,
                engine.events,
                engine.counters.max_depth,
            );
            assert_eq!(
                stats.capture_visits > 0,
                streams,
                "{query} at scale {scale}: plan {}, {} matches",
                stats.plan,
                stats.matches
            );
        }
    }
}
