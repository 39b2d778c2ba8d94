//! The every-boundary wall for the tokenizer.
//!
//! The bulk-scan tokenizer's one dangerous property is that chunk
//! boundaries can land *anywhere*: mid-tag, mid-entity, between the two
//! dashes closing a comment, inside the `]]>` of a CDATA section, in the
//! middle of a multi-byte UTF-8 scalar, or while a pruned-subtree
//! fast-forward is mid-flight. These tests take a corpus chosen to hit
//! every scanner state and check that *every* byte offset is a safe
//! split point: the calls a sink sees, and the event count, must be
//! exactly those of the one-chunk run — which in turn is pinned to a
//! committed expected list per document.
//!
//! On top of the exhaustive 2-split sweep, a deterministic fuzzer draws
//! random 3-chunk splits (replayable with `TESTKIT_SEED=0x…`, counted
//! by `TESTKIT_CASES=n`).

mod common;

use common::{d, e, run, run_str, run_with, s, t, Collect, Ev};
use xproj_testkit::{seeded, SplitMix64};

/// Documents picked so that split offsets land in every scanner state:
/// tag names, attribute quotes (with `>`/`/` inside), entities, CDATA
/// (with lone `]]`), comments (with lone `--`-adjacent dashes), PIs, the
/// XML declaration, DOCTYPE internal subsets, and multi-byte UTF-8.
/// Each comes with the sink calls and the event count (comments and PIs
/// count without being delivered) the one-chunk run must produce.
fn corpus() -> Vec<(&'static str, Vec<Ev>, u64)> {
    vec![
        (
            "<catalog><product-item/></catalog>",
            vec![
                s("catalog", &[]),
                s("product-item", &[]),
                e("product-item"),
                e("catalog"),
            ],
            4,
        ),
        (
            "<a long=\"some >< value\" b='x \"y\" z' c=\"tail/\"><b k=\"&lt;&#65;\"/></a>",
            vec![
                s(
                    "a",
                    &[
                        ("long", "some >< value"),
                        ("b", "x \"y\" z"),
                        ("c", "tail/"),
                    ],
                ),
                s("b", &[("k", "<A")]),
                e("b"),
                e("a"),
            ],
            4,
        ),
        (
            "<a>fish &amp; chips &#65;&#x42; &quot;done&quot;</a>",
            vec![s("a", &[]), t("fish & chips AB \"done\""), e("a")],
            3,
        ),
        (
            "<a><![CDATA[raw < & > ]] stuff]]><b/><![CDATA[]]></a>",
            vec![
                s("a", &[]),
                t("raw < & > ]] stuff"),
                s("b", &[]),
                e("b"),
                t(""),
                e("a"),
            ],
            6,
        ),
        (
            "<a><!-- a -- b --><?pi some data?><!--x--><!-----></a>",
            vec![s("a", &[]), e("a")],
            6,
        ),
        (
            "<!DOCTYPE site [<!ELEMENT site (a)*><!ELEMENT a EMPTY>]><site><a/></site>",
            vec![
                d("site", Some("<!ELEMENT site (a)*><!ELEMENT a EMPTY>")),
                s("site", &[]),
                s("a", &[]),
                e("a"),
                e("site"),
            ],
            5,
        ),
        (
            "<!DOCTYPE site SYSTEM \"auction.dtd\"><site/>",
            vec![d("site", None), s("site", &[]), e("site")],
            3,
        ),
        (
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a>x</a>",
            vec![s("a", &[]), t("x"), e("a")],
            3,
        ),
        (
            "<a>héllo wörld — ₤ €</a>",
            vec![s("a", &[]), t("héllo wörld — ₤ €"), e("a")],
            3,
        ),
        (
            "<a attr=\"héllo — ₤\">…</a>",
            vec![s("a", &[("attr", "héllo — ₤")]), t("…"), e("a")],
            3,
        ),
        (
            " \n <root> <mid\nattr = 'v' >text</mid > </root> \n ",
            vec![
                s("root", &[]),
                t(" "),
                s("mid", &[("attr", "v")]),
                t("text"),
                e("mid"),
                t(" "),
                e("root"),
            ],
            7,
        ),
        (
            "<d><e><f><g>deep</g></f></e><e/><e></e></d>",
            vec![
                s("d", &[]),
                s("e", &[]),
                s("f", &[]),
                s("g", &[]),
                t("deep"),
                e("g"),
                e("f"),
                e("e"),
                s("e", &[]),
                e("e"),
                s("e", &[]),
                e("e"),
                e("d"),
            ],
            13,
        ),
    ]
}

#[test]
fn one_chunk_runs_match_the_committed_event_lists() {
    for (doc, events, count) in corpus() {
        assert_eq!(run_str(doc).unwrap(), (events, count), "{doc:?}");
    }
}

#[test]
fn every_two_chunk_split_matches_the_one_chunk_run() {
    for (doc, _, _) in corpus() {
        let expected = run_str(doc).unwrap();
        let bytes = doc.as_bytes();
        for at in 0..=bytes.len() {
            let got = run(&[&bytes[..at], &bytes[at..]])
                .unwrap_or_else(|e| panic!("split at {at} of {doc:?}: {e}"));
            assert_eq!(got, expected, "two-chunk split at byte {at} of {doc:?}");
        }
    }
}

#[test]
fn one_byte_chunks_match_the_one_chunk_run() {
    for (doc, _, _) in corpus() {
        let chunks: Vec<&[u8]> = doc.as_bytes().chunks(1).collect();
        assert_eq!(
            run(&chunks).unwrap(),
            run_str(doc).unwrap(),
            "1-byte chunks of {doc:?}"
        );
    }
}

#[test]
fn random_three_chunk_splits_match_the_one_chunk_run() {
    let corpus = corpus();
    let run_case = |seed: u64| {
        let mut rng = SplitMix64::new(seed);
        let doc = rng.pick(&corpus).0;
        let n = doc.len();
        let mut a = rng.range_incl(0, n);
        let mut b = rng.range_incl(0, n);
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let bytes = doc.as_bytes();
        assert_eq!(
            run(&[&bytes[..a], &bytes[a..b], &bytes[b..]]).unwrap(),
            run_str(doc).unwrap(),
            "3-chunk split at ({a},{b}) of {doc:?}"
        );
    };
    seeded(
        "random_three_chunk_splits_match_the_one_chunk_run",
        500,
        run_case,
    );
}

/// A subtree whose raw bytes contain every skip-scanner hazard: fake end
/// tags inside CDATA, comments, PI data and attribute values, a nested
/// same-name element, quoted `>` and `/`, a self-closing tag, and an
/// entity that would not decode.
const SKIP_BODY: &str = "<x q=\"> ' /\">text</x>\
    <![CDATA[</skipme> ]] >]]>\
    <!-- </skipme> -- almost -->\
    <?pi </skipme> ?>\
    <skipme><y/></skipme>\
    raw &broken; text\
    <z a='/'/>";

#[test]
fn skip_state_survives_every_boundary() {
    let head = "<a><skipme>";
    let tail = "</skipme><keep>t</keep></a>";
    let doc = format!("{head}{SKIP_BODY}{tail}");
    let expected = vec![
        s("a", &[]),
        s("skipme", &[]),
        e("skipme"),
        s("keep", &[]),
        t("t"),
        e("keep"),
        e("a"),
    ];
    let skipping = || Collect {
        skippable: Some("skipme"),
        ..Collect::default()
    };
    let bytes = doc.as_bytes();
    let mut splits: Vec<Vec<&[u8]>> = (0..=bytes.len())
        .map(|at| vec![&bytes[..at], &bytes[at..]])
        .collect();
    splits.push(bytes.chunks(1).collect());
    for chunks in &splits {
        let mut sink = skipping();
        let (done, tok) = run_with(chunks, &mut sink, true)
            .unwrap_or_else(|e| panic!("skip split {:?}: {e}", chunks[0].len()));
        assert_eq!(sink.events, expected, "split at byte {}", chunks[0].len());
        // The synthesized end of the skipped element is not an event.
        assert_eq!((done.events, done.fast_forwarded), (6, 1));
        // Nothing from the skipped subtree may linger in the buffer
        // accounting: tokens are bounded by the unskipped prefix/suffix.
        assert!(tok.max_token_bytes() <= "</skipme>".len());
    }
    // With fast-forward off the same sink sees the whole subtree — and
    // the undecodable entity inside it is now an error.
    let mut sink = skipping();
    assert!(run_with(&[bytes], &mut sink, false).is_err());
}

/// Markup that is no XML token, inside an element the sink skips. The
/// token loop and fast-forward share one boundary scanner, so with
/// fast-forward on the skip ends at the same end tag the token loop would
/// pair with `<skipme>` — at every split — and with it off the token loop
/// rejects the markup. `<>` opens an element as far as nesting goes, so
/// its row needs an end tag of its own.
#[test]
fn malformed_markup_inside_a_skipped_subtree() {
    let expected = vec![
        s("a", &[]),
        s("skipme", &[]),
        e("skipme"),
        s("keep", &[]),
        e("keep"),
        e("a"),
    ];
    for (body, error) in [
        ("<!foo>", "expected a name"),
        ("<!>", "expected a name"),
        ("<!-x>", "expected a name"),
        ("<![CDAT>x]]>", "expected a name"),
        ("<!ELEMENT a (b)>", "expected a name"),
        ("<>x</y>", "expected a name"),
        (
            "<!DOCTYPE a>",
            "DOCTYPE after the start of the root element",
        ),
        (
            "<!DOCTYPE a [<!ELEMENT a EMPTY>]>",
            "DOCTYPE after the start of the root element",
        ),
    ] {
        let doc = format!("<a><skipme>{body}</skipme><keep/></a>");
        let bytes = doc.as_bytes();
        for at in 0..=bytes.len() {
            let mut sink = Collect {
                skippable: Some("skipme"),
                ..Collect::default()
            };
            let (done, _) = run_with(&[&bytes[..at], &bytes[at..]], &mut sink, true)
                .unwrap_or_else(|e| panic!("{body:?} split at {at}: {e}"));
            assert_eq!(sink.events, expected, "{body:?} split at {at}");
            assert_eq!(
                (done.events, done.fast_forwarded),
                (5, 1),
                "{body:?} split at {at}"
            );
        }
        let err = run_str(&doc).expect_err(body);
        assert_eq!(
            (err.offset, err.message.as_str()),
            ("<a><skipme>".len(), error),
            "{body:?}"
        );
    }
}

#[test]
fn skip_never_buffers_and_eof_mid_skip_is_an_error() {
    let mut tok = xproj_xmltree::push::PushTokenizer::new();
    let mut sink = Collect {
        skippable: Some("s"),
        ..Collect::default()
    };
    tok.feed(b"<r><s>", &mut sink, true).unwrap();
    assert!(tok.is_skipping());
    let before = tok.peak_buffered();
    let filler = "<x>some long run of text</x>".repeat(100);
    tok.feed(filler.as_bytes(), &mut sink, true).unwrap();
    assert!(tok.is_skipping());
    assert_eq!(tok.buffered(), 0, "skip mode must not buffer");
    assert_eq!(tok.peak_buffered(), before);

    // Input ending here leaves <s> open.
    let mut truncated = xproj_xmltree::push::PushTokenizer::new();
    let mut tsink = Collect {
        skippable: Some("s"),
        ..Collect::default()
    };
    truncated
        .feed(b"<r><s><x>never closed", &mut tsink, true)
        .unwrap();
    let err = truncated.finish_into(&mut tsink).unwrap_err();
    assert!(err.message.contains("<s> not closed"), "{err}");

    tok.feed(b"</s><k/></r>", &mut sink, true).unwrap();
    assert!(!tok.is_skipping());
    tok.finish_into(&mut sink).unwrap();
    assert_eq!(
        sink.events,
        [
            s("r", &[]),
            s("s", &[]),
            e("s"),
            s("k", &[]),
            e("k"),
            e("r")
        ]
    );
}
