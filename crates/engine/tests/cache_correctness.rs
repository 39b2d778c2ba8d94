//! Artifact-cache correctness, seen from the pruning side.
//!
//! * Two spellings of the same query (whitespace, abbreviated vs
//!   explicit axes) normalize identically and share one cache entry.
//! * Editing the DTD changes the fingerprint, so a stale projector is
//!   never served for a changed grammar; the fingerprints themselves
//!   are pinned, because clients hold them as DTD ids.
//! * A cached projector prunes exactly like a freshly-inferred one.
//! * Two different queries never share an entry: the normalized query
//!   parses back to the query it came from.

use std::sync::Arc;
use xproj_core::StaticAnalyzer;
use xproj_dtd::parse_dtd;
use xproj_engine::{normalize_query, ArtifactCache, ChunkedPruner, QueryMachine, QueryOutput};

const BIB: &str = "<!ELEMENT bib (book*)> <!ELEMENT book (title, author*, year?)>\
                   <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)>\
                   <!ELEMENT year (#PCDATA)>";

#[test]
fn equivalent_spellings_share_one_entry() {
    let dtd = Arc::new(parse_dtd(BIB, "bib").unwrap());
    let cache = ArtifactCache::new(8);

    // All four spellings of the same path…
    let spellings = [
        "/bib/book/title",
        "  /bib/book/title  ",
        "/child::bib/child::book/child::title",
        "/bib/child::book/title",
    ];
    let norm = normalize_query(spellings[0]).unwrap();
    for s in &spellings[1..] {
        assert_eq!(
            normalize_query(s).unwrap(),
            norm,
            "{s:?} should normalize like {:?}",
            spellings[0]
        );
    }

    let first = cache.get_or_compile(&dtd, spellings[0]).unwrap();
    for s in &spellings[1..] {
        let a = cache.get_or_compile(&dtd, s).unwrap();
        assert!(
            Arc::ptr_eq(&a, &first),
            "{s:?} must resolve to the shared artifact"
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "only the first spelling runs the analysis");
    assert_eq!(stats.hits, spellings.len() as u64 - 1);
    assert_eq!(stats.entries, 1);

    // A function is one entry whatever its spelling: the call resolves
    // `fn:count` and `count` to one function.
    let count = cache.get_or_compile(&dtd, "count(//book)").unwrap();
    let fn_count = cache.get_or_compile(&dtd, "fn:count(//book)").unwrap();
    assert!(Arc::ptr_eq(&count, &fn_count));
    assert_eq!((cache.stats().misses, cache.stats().entries), (2, 2));
}

/// Queries whose old normal forms printed alike — constructor text
/// like a string literal, a literal holding `"` unescaped — are two
/// entries, each answering for itself.
#[test]
fn queries_that_printed_alike_are_two_entries() {
    let dtd = Arc::new(parse_dtd(BIB, "bib").unwrap());
    let doc = b"<bib><book><title>T</title></book></bib>";
    for pair in [
        [
            ("<c>a{1}</c>", "<c>a1</c>"),
            ("<c>{\"a\"}{1}</c>", "<c>a 1</c>"),
        ],
        [
            ("concat('a\", \"b')", "a\", \"b"),
            ("concat(\"a\", \"b\")", "ab"),
        ],
    ] {
        let cache = ArtifactCache::new(8);
        for (query, want) in pair {
            let artifact = cache.get_or_compile(&dtd, query).unwrap();
            let mut machine = QueryMachine::new(artifact, QueryOutput::Answer);
            machine.feed(doc).unwrap();
            machine.finish().unwrap();
            let mut out = Vec::new();
            machine.take_output(&mut out);
            assert_eq!(String::from_utf8(out).unwrap(), want, "{query}");
        }
        assert_eq!(cache.stats().entries, 2, "{pair:?}");
    }
}

#[test]
fn dtd_edit_changes_fingerprint_and_misses() {
    let dtd_v1 = Arc::new(parse_dtd(BIB, "bib").unwrap());
    // Same tag alphabet, one content-model edit: year becomes mandatory.
    let dtd_v2 = Arc::new(
        parse_dtd(
            "<!ELEMENT bib (book*)> <!ELEMENT book (title, author*, year)>\
         <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)>\
         <!ELEMENT year (#PCDATA)>",
            "bib",
        )
        .unwrap(),
    );
    assert_ne!(
        dtd_v1.fingerprint(),
        dtd_v2.fingerprint(),
        "a content-model edit must change the fingerprint"
    );
    // Re-parsing the identical grammar keeps the fingerprint stable.
    assert_eq!(
        dtd_v1.fingerprint(),
        parse_dtd(BIB, "bib").unwrap().fingerprint()
    );

    let cache = ArtifactCache::new(8);
    cache.get_or_compile(&dtd_v1, "/bib/book/title").unwrap();
    cache.get_or_compile(&dtd_v2, "/bib/book/title").unwrap();
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (0, 2, 2),
        "the edited DTD must not be served the stale projector"
    );
}

/// `xmlpruned` hands the fingerprint out as the DTD's id, so its value
/// is an interface: these are the ids clients were given before the
/// number became a field of the grammar. And the canonical rendering
/// re-parses to the same identity.
#[test]
fn fingerprints_are_pinned_and_survive_a_syntax_round_trip() {
    let bib = parse_dtd(
        "<!ELEMENT bib (book*)> <!ELEMENT book (title, author*, price?)>\
         <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)>\
         <!ELEMENT price (#PCDATA)>",
        "bib",
    )
    .unwrap();
    let auction = xproj_xmark::auction_dtd();
    assert_eq!(format!("{:016x}", bib.fingerprint()), "984dac3ff52cdcf0");
    assert_eq!(
        format!("{:016x}", auction.fingerprint()),
        "37cc9625e97e19ab"
    );
    for (dtd, root) in [(&bib, "bib"), (&auction, "site")] {
        let reparsed = parse_dtd(&dtd.to_dtd_syntax(), root).unwrap();
        assert_eq!(reparsed.fingerprint(), dtd.fingerprint(), "{root}");
    }
    // The root is part of the identity, not just the productions.
    let rerooted = parse_dtd(&bib.to_dtd_syntax(), "book").unwrap();
    assert_ne!(rerooted.fingerprint(), bib.fingerprint());
}

#[test]
fn cached_projector_prunes_like_a_fresh_one() {
    let dtd = Arc::new(parse_dtd(BIB, "bib").unwrap());
    let cache = ArtifactCache::new(8);
    let doc = "<bib><book><title>T</title><author>A</author><year>1999</year></book></bib>";

    let cached = &cache
        .get_or_compile(&dtd, "/bib/book/author")
        .unwrap()
        .projector;
    let mut sa = StaticAnalyzer::new(&dtd);
    let fresh = sa.project_query("/bib/book/author").unwrap();
    assert_eq!(*cached, fresh);
    let pruned = |projector| {
        let mut out = Vec::new();
        ChunkedPruner::new(&*dtd, projector, &mut out)
            .run_one_feed(doc)
            .unwrap();
        out
    };
    assert_eq!(pruned(cached), pruned(&fresh));
}
