//! Fast pinned checks of the paper's quantitative prose claims, at small
//! scale (the bench binaries regenerate the full-size numbers).

use std::time::Instant;
use xml_projection::core::StaticAnalyzer;
use xml_projection::xmark::{auction_dtd, generate_auction, XMarkConfig};
use xml_projection::Projection;

fn retention(query: &str, scale: f64) -> f64 {
    let dtd = auction_dtd();
    let xml = generate_auction(&dtd, &XMarkConfig::at_scale(scale)).to_xml();
    let mut sa = StaticAnalyzer::new(&dtd);
    let p = sa.project_query(query).unwrap();
    let (_, stats) = Projection::from_projector(&dtd, p).prune_str(&xml).unwrap();
    stats.retention()
}

/// §4.3: "by applying the above rewriting to XPathMark queries Q9 and
/// Q11, we were able to prune a document down to 7.5% of its original
/// size" — sibling-axis queries stay in the single digits despite the
/// parent/child over-approximation.
#[test]
fn sibling_rewriting_keeps_pruning_effective() {
    let r = retention(
        "/site/open_auctions/open_auction/bidder[following-sibling::bidder]",
        0.5,
    );
    assert!(r < 0.10, "retention {r}");
    let r2 = retention(
        "/site/regions/*/item[parent::namerica or parent::samerica]/name",
        0.5,
    );
    assert!(r2 < 0.05, "retention {r2}");
}

/// §1.2 / §6: very selective queries prune > 95 % of the document.
#[test]
fn selective_queries_prune_over_95_percent() {
    for q in [
        "/site/people/person[phone or homepage]/name",
        "/site/closed_auctions/closed_auction[descendant::keyword]/date",
        "//open_auction/bidder/increase",
    ] {
        let r = retention(q, 0.5);
        assert!(r < 0.05, "{q}: retention {r}");
    }
}

/// §6: queries needing whole `description` content keep a large fraction
/// — the generator's mixed content dominates document size.
#[test]
fn description_bound_queries_keep_much_more() {
    let r = retention("//item/description", 0.5);
    assert!(r > 0.20, "retention {r}");
}

/// §6: "the time of the static analysis is always negligible (lower than
/// half a second) even for complex queries and DTDs".
#[test]
fn analysis_under_half_a_second() {
    let dtd = auction_dtd();
    let t = Instant::now();
    let mut sa = StaticAnalyzer::new(&dtd);
    let p = sa
        .project_query(
            "/site/open_auctions/open_auction\
             [(not(bidder/following::bidder) or not(bidder/preceding::bidder)) \
              or (bidder/following::bidder and bidder/preceding::bidder)]/interval",
        )
        .unwrap();
    assert!(t.elapsed().as_secs_f64() < 0.5);
    assert!(!p.is_empty());
}

/// §1.2: "for several XMark and XPathMark queries our pruning yields a
/// document whose size is two thirds of the original, but the query can
/// then be processed using three times less memory" — at least the size
/// relation must show up for ancestor-or-self over mixed content.
#[test]
fn qp22_keeps_roughly_two_thirds() {
    let r = retention("//keyword/ancestor-or-self::text", 0.5);
    assert!((0.4..0.95).contains(&r), "retention {r}");
}
