//! `Dtd::name_of_tag_str` is one interner probe and one indexed load;
//! it must answer exactly what the two-step lookup does — `tags.get`,
//! then `name_of_tag` — and what the grammar declares, for every string
//! it interned: element tags and attribute-only names (`None`) alike.
//! (The Use Cases corpus gets the same check in `xproj-xmark`, which
//! owns it.)

use xproj_dtd::generate::{random_dtd, RandomDtdConfig};
use xproj_dtd::{parse_dtd, Dtd};
use xproj_testkit::{forall, SplitMix64};

fn assert_one_probe_agrees(dtd: &Dtd) {
    for (tag, text) in dtd.tags.iter() {
        let declared = dtd.all_names().find(|&n| dtd.info(n).tag == Some(tag));
        assert_eq!(dtd.tags.get(text), Some(tag));
        assert_eq!(dtd.name_of_tag(tag), declared, "{text:?}");
        assert_eq!(dtd.name_of_tag_str(text), declared, "{text:?}");
    }
    assert_eq!(dtd.name_of_tag_str("not-interned"), None);
}

#[test]
fn auction_dtd_tags_and_attributes() {
    let dtd = parse_dtd(include_str!("../../../examples/auction.dtd"), "site").unwrap();
    assert_one_probe_agrees(&dtd);
    // `id` is declared only as an attribute: interned, but no element.
    assert!(dtd.tags.get("id").is_some());
    assert_eq!(dtd.name_of_tag_str("id"), None);
    assert_eq!(dtd.name_of_tag_str("site"), Some(dtd.root()));
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
        assert_one_probe_agrees(&random_dtd(&mut rng, &config));
    }
}
