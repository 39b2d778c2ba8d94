//! Creating a `StaticAnalyzer` does no grammar-sized work.
//!
//! The reachability rows over the grammar's one universe (document name
//! included) are built once, by `DtdBuilder::finish`; an analyser is a
//! borrow of them plus an empty memo. So what `StaticAnalyzer::new`
//! allocates cannot depend on how large the grammar is — which is what
//! failed when every compile, analysis and independence check re-copied
//! all 4·n rows into a second, n+1-wide universe.
//!
//! Its own test binary with a single test: the counting allocator is
//! process-global, so a second test thread would be measured too.

use std::collections::HashSet;
use xproj_bench::ALLOCATOR;
use xproj_core::StaticAnalyzer;
use xproj_dtd::{parse_dtd, Dtd};

/// `copies` disjoint renamings of `dtd` (`site` → `site_0`, …) under a
/// fresh root `top`.
fn replicated(dtd: &Dtd, copies: usize) -> Dtd {
    let tags: HashSet<&str> = dtd
        .all_names()
        .filter(|&n| dtd.info(n).tag.is_some())
        .map(|n| dtd.label(n))
        .collect();
    let syntax = dtd.to_dtd_syntax();
    let is_name = |c: char| c.is_alphanumeric() || "_.-".contains(c);
    let mut out = String::new();
    for k in 0..copies {
        let mut rest = syntax.as_str();
        while !rest.is_empty() {
            let word = rest.find(|c| !is_name(c)).unwrap_or(rest.len()).max(1);
            out.push_str(&rest[..word]);
            if tags.contains(&rest[..word]) {
                out.push_str(&format!("_{k}"));
            }
            rest = &rest[word..];
        }
    }
    let root = dtd.label(dtd.root());
    let roots: Vec<String> = (0..copies).map(|k| format!("{root}_{k}")).collect();
    out.push_str(&format!("<!ELEMENT top ({})>", roots.join(", ")));
    parse_dtd(&out, "top").unwrap()
}

#[test]
fn a_new_analyzer_allocates_under_1_kib_whatever_the_grammar() {
    let xmark = xproj_xmark::auction_dtd();
    let big = replicated(&xmark, 4);
    assert_eq!(xmark.name_count(), 110);
    assert_eq!(big.name_count(), 4 * 110 + 1);

    for dtd in [&xmark, &big] {
        let (sa, peak) = ALLOCATOR.measure(|| StaticAnalyzer::new(dtd));
        assert!(
            peak < 1024,
            "StaticAnalyzer::new allocated {peak} bytes on a {}-name grammar",
            dtd.name_count()
        );
        // …and the analyser it built is a working one.
        let mut sa = sa;
        assert!(!sa.project_query("//*").unwrap().is_empty());
    }
}
