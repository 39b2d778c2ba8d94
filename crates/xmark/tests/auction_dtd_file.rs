//! The committed `examples/auction.dtd` must stay in sync with the
//! programmatic `auction_dtd()` grammar (`tests/cli.rs` and the README
//! quick-start both feed the file to `xmlprune analyze`).
//! Regenerate with `cargo run -p xproj-xmark --example dump_dtd`.

use xproj_dtd::parse_dtd;
use xproj_xmark::auction_dtd;

#[test]
fn committed_dtd_file_matches_auction_dtd() {
    let text = include_str!("../../../examples/auction.dtd");
    let parsed = parse_dtd(text, "site").expect("committed DTD parses");
    let built = auction_dtd();
    assert_eq!(parsed.to_dtd_syntax(), built.to_dtd_syntax());
    assert_eq!(parsed.name_count(), built.name_count());
}
