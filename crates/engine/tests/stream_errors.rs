//! Error paths of the streaming pruner: malformed input mid-stream,
//! mismatched close tags, undeclared elements, and DTD-invalid
//! documents must all surface as graceful `Err`s — never panics and
//! never silently truncated output. Each document is one
//! `ChunkedPruner` feed with fast-forward off (`prune_str`), so every
//! byte is tokenized, or validating (`prune_validate_str`).

use xproj_core::{Projector, StaticAnalyzer, StreamPruneError};
use xproj_dtd::generate::{generate, random_dtd, GenConfig, RandomDtdConfig};
use xproj_dtd::{parse_dtd, Dtd};
use xproj_engine::{ChunkedPruner, EngineError, EngineStats};
use xproj_testkit::forall;
use xproj_testkit::SplitMix64;

fn one_feed(
    input: &str,
    dtd: &Dtd,
    p: &Projector,
    validate: bool,
) -> Result<(String, EngineStats), EngineError> {
    let mut out = Vec::new();
    let mut pruner = ChunkedPruner::new(dtd, p, &mut out);
    pruner.set_validate(validate);
    let stats = pruner.run_one_feed(input)?;
    Ok((String::from_utf8(out).expect("kept bytes are UTF-8"), stats))
}

fn prune_str(input: &str, dtd: &Dtd, p: &Projector) -> Result<(String, EngineStats), EngineError> {
    one_feed(input, dtd, p, false)
}

fn prune_validate_str(
    input: &str,
    dtd: &Dtd,
    p: &Projector,
) -> Result<(String, EngineStats), EngineError> {
    one_feed(input, dtd, p, true)
}

const DTD_SRC: &str = "\
    <!ELEMENT r (a*, b?)>\
    <!ELEMENT a (c, c?)>\
    <!ELEMENT b (#PCDATA)>\
    <!ELEMENT c (#PCDATA)>";

fn dtd() -> Dtd {
    parse_dtd(DTD_SRC, "r").unwrap()
}

fn full_projector(dtd: &Dtd) -> Projector {
    Projector::full(dtd)
}

const VALID: &str = "<r><a><c>one</c><c>two</c></a><b>tail</b></r>";

#[test]
fn mismatched_close_tag_is_an_error() {
    let dtd = dtd();
    let p = full_projector(&dtd);
    for input in ["<r><a></b></r>", "<r><a><c></a></c></r>", "<r></a>"] {
        let err = prune_str(input, &dtd, &p).unwrap_err();
        assert!(
            matches!(&err, EngineError::Xml(e) if e.message.contains("mismatched")),
            "{input}: {err}"
        );
        assert!(prune_validate_str(input, &dtd, &p).is_err(), "{input}");
    }
}

#[test]
fn unclosed_elements_are_an_error() {
    let dtd = dtd();
    let p = full_projector(&dtd);
    for input in ["<r>", "<r><a>", "<r><a><c>text"] {
        assert!(prune_str(input, &dtd, &p).is_err(), "{input}");
        assert!(prune_validate_str(input, &dtd, &p).is_err(), "{input}");
    }
}

#[test]
fn undeclared_elements_are_an_error() {
    let dtd = dtd();
    let p = full_projector(&dtd);
    let err = prune_str("<r><zzz/></r>", &dtd, &p).unwrap_err();
    assert!(
        matches!(&err, EngineError::Prune(StreamPruneError::UndeclaredElement(n)) if n == "zzz"),
        "{err}"
    );
}

/// `prune_str` does not validate: a well-formed but DTD-invalid
/// document passes through, while the single-pass validating variant
/// rejects it with a validation error.
#[test]
fn validating_pruner_rejects_invalid_content() {
    let dtd = dtd();
    let p = full_projector(&dtd);
    for input in [
        "<r><b>x</b><a><c>y</c></a></r>",         // wrong order: b before a
        "<r><a></a></r>",                         // a requires at least one c
        "<r><a><c>x</c><c>y</c><c>z</c></a></r>", // too many c
        "<r>stray text</r>",                      // text not allowed in r
    ] {
        assert!(prune_str(input, &dtd, &p).is_ok(), "{input}");
        let err = prune_validate_str(input, &dtd, &p).unwrap_err();
        assert!(
            matches!(&err, EngineError::Prune(StreamPruneError::Xml(m)) if m.contains("validation")
                || m.contains("not allowed")),
            "{input}: {err}"
        );
    }
}

/// With fast-forward off every byte is tokenized: malformed markup
/// inside a subtree the projector prunes whole (`a`: nothing under it is
/// in π for `/r/b`) fails as it would anywhere else, while a
/// fast-forwarding pass raw-scans past it unread.
#[test]
fn malformed_markup_inside_a_pruned_subtree_is_an_error() {
    let dtd = dtd();
    let p = StaticAnalyzer::new(&dtd).project_query("/r/b").unwrap();
    for input in [
        "<r><a><c>x</b></a><b>tail</b></r>",       // mismatched end tag
        "<r><a><c id>x</c></a><b>tail</b></r>",    // attribute without a value
        "<r><a><c>&bogus;</c></a><b>tail</b></r>", // undefined entity
    ] {
        let err = prune_str(input, &dtd, &p).unwrap_err();
        assert!(matches!(err, EngineError::Xml(_)), "{input}: {err}");
        assert!(prune_validate_str(input, &dtd, &p).is_err(), "{input}");
        let mut out = Vec::new();
        let mut pruner = ChunkedPruner::new(&dtd, &p, &mut out);
        pruner.feed(input.as_bytes()).unwrap();
        pruner.finish().unwrap();
        assert_eq!(out, b"<r><b>tail</b></r>", "{input}");
    }
}

#[test]
fn every_truncation_fails_gracefully() {
    let dtd = dtd();
    let p = full_projector(&dtd);
    // A proper prefix of a document is never a complete document: every
    // truncation must error (no panic, no silent success).
    for cut in 0..VALID.len() {
        let input = &VALID[..cut];
        assert!(
            prune_str(input, &dtd, &p).is_err(),
            "truncation at {cut} ({input:?}) did not error"
        );
        assert!(prune_validate_str(input, &dtd, &p).is_err(), "cut {cut}");
    }
}

forall! {
    #![cases(512)]

    /// Arbitrary single-byte mutations of a valid document are either
    /// pruned successfully or rejected — never a panic.
    fn mutations_never_panic(
        pos in 0usize..VALID.len(),
        byte in 0u8..128,
    ) {
        let dtd = dtd();
        let p = full_projector(&dtd);
        let mut bytes = VALID.as_bytes().to_vec();
        bytes[pos] = byte;
        if let Ok(s) = std::str::from_utf8(&bytes) {
            let _ = prune_str(s, &dtd, &p);
            let _ = prune_validate_str(s, &dtd, &p);
        }
    }

    /// Same over random DTDs and documents: chop a random generated
    /// document mid-stream and feed it to both pruners.
    fn random_truncations_never_panic(seed in 0u64..100_000, frac in 1usize..100) {
        let mut rng = SplitMix64::new(seed);
        let dtd = random_dtd(&mut rng, &RandomDtdConfig::default());
        let doc = generate(&dtd, rng.next_u64(), &GenConfig::default());
        let xml = doc.to_xml();
        let mut cut = xml.len() * frac / 100;
        while !xml.is_char_boundary(cut) {
            cut -= 1;
        }
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/descendant-or-self::node()").unwrap();
        let _ = prune_str(&xml[..cut], &dtd, &p);
        let _ = prune_validate_str(&xml[..cut], &dtd, &p);
    }
}
