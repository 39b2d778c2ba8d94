//! Glue between the independence analysis and the compiled-query
//! cache: the analyzer infers an update's footprint (the set of DTD
//! names the update can touch), and `ArtifactCache::invalidate_update`
//! drops exactly the cached artifacts whose projectors overlap it.
//! An artifact that survives is *proven* still-valid — by Thm 4.6 the
//! update cannot change the answers of any query the artifact serves.

use std::sync::Arc;

use xml_projection::analyzer::parse_update_footprint;
use xml_projection::dtd::parse_dtd;
use xml_projection::qc::ArtifactCache;

const BIB: &str = "<!ELEMENT bib (book*)>\
                   <!ELEMENT book (title, author*, price?)>\
                   <!ELEMENT title (#PCDATA)>\
                   <!ELEMENT author (#PCDATA)>\
                   <!ELEMENT price (#PCDATA)>";

#[test]
fn update_footprint_drives_cache_invalidation() {
    let dtd = Arc::new(parse_dtd(BIB, "bib").unwrap());
    let fp = dtd.fingerprint();
    let cache = ArtifactCache::new(8);
    let titles = cache.get_or_compile(&dtd, "/bib/book/title").unwrap();
    let prices = cache
        .get_or_compile(&dtd, "for $b in /bib/book return $b/price")
        .unwrap();

    // Deleting authors touches no name either query's projector keeps.
    let authors = parse_update_footprint(&dtd, "delete /bib/book/author").unwrap();
    assert!(!titles.depends_on(&authors.updated));
    assert!(!prices.depends_on(&authors.updated));
    assert_eq!(cache.invalidate_update(fp, &authors.updated), 0);
    assert_eq!(cache.stats().entries, 2);

    // Deleting titles invalidates the title artifact only; the
    // footprint's own `invalidates` predicate must agree with the
    // artifact-side `depends_on` on every entry. (A *replace* would
    // invalidate both: its footprint includes the insertion context
    // `book`, which the price query's projector also keeps.)
    let retitle = parse_update_footprint(&dtd, "delete /bib/book/title").unwrap();
    assert!(retitle.invalidates(titles.projector.names()));
    assert!(!retitle.invalidates(prices.projector.names()));
    assert_eq!(
        retitle.invalidates(titles.projector.names()),
        titles.depends_on(&retitle.updated)
    );
    assert_eq!(cache.invalidate_update(fp, &retitle.updated), 1);

    let stats = cache.stats();
    assert_eq!((stats.invalidations, stats.entries), (1, 1));
    // The survivor is still served from cache — no recompile.
    let again = cache
        .get_or_compile(&dtd, "for $b in /bib/book return $b/price")
        .unwrap();
    assert!(Arc::ptr_eq(&again, &prices));
    assert_eq!(cache.stats().compiles, 2);
}
