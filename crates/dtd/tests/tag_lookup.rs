//! `Dtd::name_of_tag_str` resolves a tag without hashing it (a binary
//! search of the tags of its length); it must answer exactly what the
//! grammar declares for every string the grammar interned — element tags
//! and attribute-only names (`None`) alike — on grammars built to crowd
//! one search as on the ones in use. (The Use Cases corpus gets the same
//! check in `xproj-xmark`, which owns it.)

use xproj_dtd::generate::{random_dtd, RandomDtdConfig};
use xproj_dtd::{parse_dtd, Dtd};
use xproj_testkit::{forall, SplitMix64};

fn assert_lookups_agree(dtd: &Dtd) {
    for (tag, text) in dtd.tags.iter() {
        let declared = dtd.all_names().find(|&n| dtd.info(n).tag == Some(tag));
        assert_eq!(dtd.tags.get(text), Some(tag));
        assert_eq!(dtd.name_of_tag_str(text), declared, "{text:?}");
    }
    assert_eq!(dtd.name_of_tag_str("not-interned"), None);
}

#[test]
fn auction_dtd_tags_and_attributes() {
    let dtd = parse_dtd(include_str!("../../../examples/auction.dtd"), "site").unwrap();
    assert_lookups_agree(&dtd);
    // `id` is declared only as an attribute: interned, but no element.
    assert!(dtd.tags.get("id").is_some());
    assert_eq!(dtd.name_of_tag_str("id"), None);
    assert_eq!(dtd.name_of_tag_str("site"), Some(dtd.root()));
}

/// About 2 500 tags of one length and one first byte — one binary
/// search — in a grammar that still fits a `/v1/dtd` body (64 KiB). Every
/// declared tag resolves to its declaration, and 10⁴ undeclared near
/// misses (the same length and first byte, or one byte shorter or
/// longer) resolve to none.
#[test]
fn one_crowded_length_resolves_every_tag_and_no_near_miss() {
    let letters = |i: usize| {
        let l = |k: usize| char::from(b'a' + (k % 26) as u8);
        format!("x{}{}{}", l(i / 676), l(i / 26), l(i))
    };
    let declared: Vec<String> = (0..26 * 26 * 26)
        .filter(|i| i % 7 == 0)
        .map(letters)
        .collect();
    let mut text = String::from("<!ELEMENT r EMPTY>");
    for tag in &declared {
        text.push_str(&format!("<!ELEMENT {tag} EMPTY>"));
    }
    assert!(
        declared.len() >= 2500 && text.len() < 64 * 1024,
        "{} names, {} bytes",
        declared.len(),
        text.len()
    );
    let dtd = parse_dtd(&text, "r").unwrap();
    assert_lookups_agree(&dtd);
    for tag in &declared {
        let name = dtd.name_of_tag_str(tag).expect(tag);
        assert_eq!(dtd.label(name), tag);
    }
    let same_length = (0..26 * 26 * 26).filter(|i| i % 7 != 0).map(letters);
    let shorter_or_longer = declared
        .iter()
        .flat_map(|t| [t[..3].to_string(), format!("{t}a")]);
    let misses: Vec<String> = same_length.chain(shorter_or_longer).take(10_000).collect();
    assert_eq!(misses.len(), 10_000);
    for miss in &misses {
        assert_eq!(dtd.name_of_tag_str(miss), None, "{miss}");
    }
}

forall! {
    #![cases(256)]

    /// Random grammars interleave attribute and element names in the
    /// interner, so the table has holes anywhere.
    fn random_dtds_agree(seed in 0u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        let config = RandomDtdConfig {
            max_elements: 9,
            text_prob: 0.5,
            attr_prob: 0.5,
            recursion_prob: 0.4,
        };
        assert_lookups_agree(&random_dtd(&mut rng, &config));
    }
}
