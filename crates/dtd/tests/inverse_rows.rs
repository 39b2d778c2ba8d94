//! The reachability rows come in inverse pairs: `Y` is a child of `X`
//! iff `X` is a parent of `Y`, and a strict descendant iff `X` is a
//! strict ancestor — the document name's one edge, to the root, included.
//! The analysis rests on it: a usefulness set `U` turns into the names
//! with a child in `U` as `A_E(U, parent)`, and into the names with a
//! descendant in `U` as `A_E(U, ancestor)`. Checked on the auction, paper
//! and random grammars (the Use Cases corpus gets the same check in
//! `xproj-xmark`, which owns it), with the grammar-level sets built
//! beside the rows.

use xproj_dtd::generate::{random_dtd, RandomDtdConfig};
use xproj_dtd::{parse_dtd, Dtd, NameId};
use xproj_testkit::{forall, SplitMix64};

fn assert_rows_inverse(dtd: &Dtd) {
    let universe: Vec<NameId> = dtd.all_names().chain([dtd.doc_name()]).collect();
    for &x in &universe {
        for &y in &universe {
            assert_eq!(
                dtd.children_of(x).contains(y),
                dtd.parents_of(y).contains(x),
                "children/parents at {x:?} → {y:?}"
            );
            assert_eq!(
                dtd.descendants_of(x).contains(y),
                dtd.ancestors_of(y).contains(x),
                "descendants/ancestors at {x:?} → {y:?}"
            );
        }
    }
    let doc = dtd.doc_name();
    assert_eq!(dtd.children_of(doc), &dtd.singleton(dtd.root()));
    assert!(dtd.parents_of(dtd.root()).contains(doc));
    assert_eq!(dtd.universe_set(), &dtd.set_of(universe.iter().copied()));
    let with_children = universe.iter().filter(|&&x| !dtd.children_of(x).is_empty());
    assert_eq!(
        dtd.names_with_children(),
        &dtd.set_of(with_children.copied())
    );
}

#[test]
fn auction_rows_are_inverse() {
    assert_rows_inverse(&parse_dtd(include_str!("../../../examples/auction.dtd"), "site").unwrap());
}

#[test]
fn paper_rows_are_inverse() {
    // §4.1's running example, recursive through a ⇄ d.
    let dtd = parse_dtd(
        "<!ELEMENT c (a, b)> <!ELEMENT a (d, #PCDATA)> \
         <!ELEMENT b (#PCDATA)> <!ELEMENT d (a?)>",
        "c",
    )
    .unwrap();
    assert_rows_inverse(&dtd);
}

forall! {
    #![cases(256)]

    fn random_rows_are_inverse(seed in 0u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        assert_rows_inverse(&random_dtd(&mut rng, &RandomDtdConfig::default()));
    }
}
