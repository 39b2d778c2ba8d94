//! A cache hit does no grammar-sized work.
//!
//! `ArtifactCache::get_or_compile` on a resident key parses the query
//! text to normalize it and looks the key up; the grammar half of the
//! key is a field the `Dtd` already carries. So what a hit allocates
//! cannot depend on how large the grammar is — which is what failed
//! when every lookup serialized the DTD to fingerprint it.
//!
//! Its own test binary with a single test: the counting allocator is
//! process-global, so a second test thread would be measured too.

use std::sync::Arc;
use xproj_bench::ALLOCATOR;
use xproj_dtd::parse_dtd;
use xproj_engine::ArtifactCache;

#[test]
fn a_hit_allocates_the_same_against_a_1_name_and_a_110_name_dtd() {
    let tiny = Arc::new(parse_dtd("<!ELEMENT keyword EMPTY>", "keyword").unwrap());
    let xmark = Arc::new(xproj_xmark::auction_dtd());
    assert_eq!((tiny.name_count(), xmark.name_count()), (1, 110));
    assert!(xmark.to_dtd_syntax().len() > 3000);

    let query = "/site//keyword[text()]";
    let cache = ArtifactCache::new(8);
    let hit_peak = |dtd| {
        cache.get_or_compile(dtd, query).unwrap(); // resident from here on
        let before = cache.stats().hits;
        let (artifact, peak) = ALLOCATOR.measure(|| cache.get_or_compile(dtd, query).unwrap());
        assert_eq!(cache.stats().hits, before + 1);
        drop(artifact);
        peak
    };
    let (small, large) = (hit_peak(&tiny), hit_peak(&xmark));
    assert!(small > 0, "normalizing the query allocates");
    assert_eq!(
        small, large,
        "a hit against the 110-name grammar allocated differently"
    );
}
