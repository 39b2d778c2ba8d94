//! Behavioural pins for the one token loop, through the collecting sink:
//! what each construct delivers, what is counted as an event, which
//! inputs are rejected — and, when two things are wrong, which error
//! wins.

mod common;

use common::{d, e, run, run_str, run_with, s, t, Collect};
use xproj_xmltree::push::{Drained, PushTokenizer, TokenSink};
use xproj_xmltree::ParseError;

fn message(doc: &str) -> String {
    run_str(doc).expect_err(doc).message
}

#[test]
fn simple_element_stream() {
    let (events, count) = run_str("<a><b>hi</b></a>").unwrap();
    assert_eq!(events, [s("a", &[]), s("b", &[]), t("hi"), e("b"), e("a")]);
    assert_eq!(count, 5);
}

#[test]
fn self_closing_delivers_start_then_end() {
    let (events, _) = run_str("<a><b/></a>").unwrap();
    assert_eq!(events, [s("a", &[]), s("b", &[]), e("b"), e("a")]);
}

#[test]
fn attributes_are_validated_then_decodable() {
    let (events, _) = run_str(r#"<a x="1 &lt; 2" y='z'/>"#).unwrap();
    assert_eq!(events[0], s("a", &[("x", "1 < 2"), ("y", "z")]));
}

#[test]
fn doctype_forms() {
    let (events, _) = run_str("<!DOCTYPE site [<!ELEMENT site (a)>]><site><a/></site>").unwrap();
    assert_eq!(events[0], d("site", Some("<!ELEMENT site (a)>")));
    let (events, _) = run_str(r#"<!DOCTYPE site SYSTEM "auction.dtd"><site/>"#).unwrap();
    assert_eq!(events[0], d("site", None));
    let (events, _) = run_str(r#"<!DOCTYPE s PUBLIC "-//x//y" 'a>b.dtd' [ ]><s/>"#).unwrap();
    assert_eq!(events[0], d("s", Some(" ")));
    assert!(message("<!DOCTYPE [x]><s/>").contains("expected a name"));
}

#[test]
fn comments_and_pis_are_counted_not_delivered_cdata_is_text() {
    let (events, count) = run_str("<a><!-- note --><?p d?><![CDATA[1 < 2]]></a>").unwrap();
    assert_eq!(events, [s("a", &[]), t("1 < 2"), e("a")]);
    assert_eq!(count, 5);
}

#[test]
fn text_entities_decode() {
    let (events, _) = run_str("<a>&amp;&#65;&#x42;</a>").unwrap();
    assert_eq!(events[1], t("&AB"));
}

/// The counting rules `/v1/query`'s summary frame (and therefore
/// `benchmark/expected.json`) depends on.
#[test]
fn event_counting_rules() {
    let count = |doc: &str| run_str(doc).unwrap().1;
    assert_eq!(count("<a/>"), 2, "self-closing: start + end");
    assert_eq!(count("<a></a>"), 2);
    assert_eq!(
        count("<?xml version=\"1.0\"?><a/>"),
        2,
        "XML declaration: 0"
    );
    assert_eq!(count("<!--c--><a/>"), 3, "comment: 1");
    assert_eq!(count("<?pi d?><a/>"), 3, "PI: 1");
    assert_eq!(count("<!DOCTYPE a><a/>"), 3, "DOCTYPE: 1");
    assert_eq!(count(" \n<a/>\n "), 2, "whitespace outside the root: 0");
    assert_eq!(
        count("\u{FEFF}\r\t<a/>"),
        2,
        "a byte-order mark opening the input: 0"
    );
    assert_eq!(count("<a> </a>"), 3, "whitespace inside the root: 1");
    assert_eq!(count("<a><![CDATA[]]></a>"), 3, "CDATA, even empty: 1");
    // A trailing text run only completes at finish; it still counts.
    let (events, n) = run_str("<a/>tail").unwrap();
    assert_eq!((events.last(), n), (Some(&t("tail")), 3));
    // Fast-forward: the skipped subtree's events are never counted, and
    // neither is the end delivered on its behalf.
    let mut sink = Collect {
        skippable: Some("b"),
        ..Collect::default()
    };
    let (done, _) = run_with(&[&b"<a><b><c/>x</b><d/></a>"[..]], &mut sink, true).unwrap();
    assert_eq!(
        done,
        Drained {
            events: 5,
            fast_forwarded: 1
        }
    );
    // A self-closing skippable element has nothing to fast-forward.
    let mut sink = Collect {
        skippable: Some("b"),
        ..Collect::default()
    };
    let (done, _) = run_with(&[&b"<a><b/></a>"[..]], &mut sink, true).unwrap();
    assert_eq!(
        done,
        Drained {
            events: 4,
            fast_forwarded: 0
        }
    );
}

#[test]
fn tag_balance_errors() {
    assert!(message("<a></b>").contains("mismatched end tag </b>, expected </a>"));
    assert!(message("</a>").contains("with no open element"));
    assert!(message("<a>").contains("<a> not closed"));
    assert!(message("<a><b>").contains("<b> not closed"));
    assert!(message("<a>text").contains("<a> not closed"));
    assert!(message("<a>text<![CDATA[never ends").contains("inside markup, <a> not closed"));
    assert!(message("<a").contains("unexpected end of input inside markup"));
    assert!(message("<a></a >x</a>").contains("no open element"));
}

#[test]
fn content_after_root_and_cdata_outside_it_rejected() {
    assert!(message("<a/><b/>").contains("content after the root element"));
    assert!(message("<a></a><b>").contains("content after the root element"));
    assert!(message("<![CDATA[x]]><a/>").contains("CDATA outside the root element"));
    // A DOCTYPE belongs before the root element, once.
    for doc in ["<a><!DOCTYPE a><b>x</b></a>", "<a/><!DOCTYPE a>"] {
        assert!(
            message(doc).contains("DOCTYPE after the start of the root element"),
            "{doc}"
        );
    }
    assert!(message("<!DOCTYPE a><!DOCTYPE a><a/>").contains("more than one DOCTYPE"));
    // …but comments, PIs and whitespace after the root are fine.
    assert!(run_str("<a/> <!--c--><?p?>\n").is_ok());
}

#[test]
fn malformed_markup_rejected() {
    for doc in [
        "<1bad/>",
        "<a b></a>",
        "<a b=></a>",
        "<a b=unquoted></a>",
        "<a b=\"1\" 2=\"x\"/>",
        "<a></a b>",
        "<!ELEMENT a EMPTY><a/>",
        "<a>&nope;</a>",
        "<a>&unterminated</a>",
        "<a b=\"&nope;\"/>",
        // XML's `S` is #x20 #x9 #xD #xA, not Unicode White_Space, and
        // attributes need it between them.
        "<a b=\"1\"\u{A0}c=\"2\"/>",
        "<a\u{3000}></a>",
        "<a></a\u{2028}>",
        "\u{A0}<a/>",
        "<a b=\"1\"c=\"2\"/>",
    ] {
        assert!(run_str(doc).is_err(), "{doc:?} should be rejected");
    }
    assert_eq!(
        message("<a b=\"1\"c=\"2\"/>"),
        "missing whitespace before attribute 'c'"
    );
    assert_eq!(message("x<a/>"), "text before the root element");
}

#[test]
fn non_xml_char_references_rejected_everywhere() {
    for bad in [
        "&#0;",
        "&#x1F;",
        "&#8;",
        "&#xFFFE;",
        "&#xFFFF;",
        "&#xD800;",
        "&#x110000;",
    ] {
        assert!(run_str(&format!("<a>{bad}</a>")).is_err(), "{bad} in text");
        assert!(
            run_str(&format!("<a b=\"{bad}\"/>")).is_err(),
            "{bad} in an attribute"
        );
        assert!(
            run_str(&format!("<a/>{bad}")).is_err(),
            "{bad} in trailing text"
        );
    }
    // The boundary cases that *are* Chars still decode.
    assert!(
        run_str("<a>&#x9;&#xA;&#xD;&#x20;&#xD7FF;&#xE000;&#xFFFD;&#x10000;&#x10FFFF;</a>").is_ok()
    );
}

/// A chunk boundary landing anywhere inside a character reference (even
/// between `&#` and the digits) must not change the verdict.
#[test]
fn char_ref_validity_is_split_point_invariant() {
    for (xml, ok) in [
        ("<a>&#48;</a>", true),
        ("<a>&#x9;&#xA;&#xD;</a>", true),
        ("<a>&#0;</a>", false),
        ("<a>&#xD800;</a>", false),
        ("<a b=\"&#0;\"/>", false),
    ] {
        for at in 0..=xml.len() {
            let got = run(&[&xml.as_bytes()[..at], &xml.as_bytes()[at..]]);
            assert_eq!(got.is_ok(), ok, "{xml} split at {at}: {got:?}");
        }
    }
}

#[test]
fn unknown_entity_surfaces_when_the_text_run_completes() {
    let mut tok = PushTokenizer::new();
    let mut sink = Collect::default();
    // The run is incomplete until the next '<' (or EOF), so the bad
    // entity is only decoded — and rejected — at that point.
    tok.feed(b"<a>&nope;", &mut sink, false).unwrap();
    assert!(tok.feed(b"</a>", &mut sink, false).is_err());
    let mut tok = PushTokenizer::new();
    tok.feed(b"<a>&nope;", &mut sink, false).unwrap();
    assert!(tok.finish_into(&mut sink).is_err());
}

#[test]
fn invalid_utf8_is_a_parse_error_not_a_panic() {
    assert!(run(&[&b"<a>\xff</a>"[..]])
        .unwrap_err()
        .message
        .contains("invalid UTF-8 in text"));
    assert!(run(&[&b"<a b=\"\xff\"/>"[..]])
        .unwrap_err()
        .message
        .contains("invalid UTF-8 in markup"));
    assert!(run(&[&b"<a/>\xc3"[..]])
        .unwrap_err()
        .message
        .contains("invalid UTF-8 in text"));
}

#[test]
fn buffering_is_bounded_by_one_token() {
    // A long document one byte at a time: the buffer must never exceed
    // the largest single token.
    let doc = format!(
        "<root>{}</root>",
        "<item attr=\"value\">some text</item>".repeat(50)
    );
    let chunks: Vec<&[u8]> = doc.as_bytes().chunks(1).collect();
    let (_, tok) = run_with(&chunks, &mut Collect::default(), false).unwrap();
    assert!(tok.peak_buffered() <= tok.max_token_bytes());
    assert!(tok.max_token_bytes() < 40, "tokens are small in this doc");
}

#[test]
fn push_after_finish_errors_and_finish_is_idempotent() {
    let mut tok = PushTokenizer::new();
    let mut sink = Collect::default();
    tok.feed(b"<a/>", &mut sink, false).unwrap();
    tok.finish_into(&mut sink).unwrap();
    assert!(tok.feed(b"x", &mut sink, false).is_err());
    assert!(tok.push_bytes(b"x").is_err());
    assert_eq!(tok.finish_into(&mut sink).unwrap(), Drained::default());
}

/// A sink that rejects one element name, the way the pruning machine
/// rejects an undeclared one.
struct Rejects(&'static str);

impl TokenSink for Rejects {
    type Error = ParseError;
    fn start(&mut self, name: &str, _: &str) -> Result<bool, ParseError> {
        if name == self.0 {
            return Err(ParseError {
                offset: usize::MAX,
                message: format!("sink rejected <{name}>"),
            });
        }
        Ok(false)
    }
    fn end(&mut self, _: &str) -> Result<(), ParseError> {
        Ok(())
    }
    fn text(&mut self, _: &str) -> Result<(), ParseError> {
        Ok(())
    }
}

/// When a document is wrong twice, the report does not depend on the
/// driver: tokenizer checks on a token come before the sink sees it, the
/// sink's verdict on a token comes before any later token's checks.
#[test]
fn error_precedence() {
    let first_error = |doc: &str| {
        xproj_xmltree::push::drain_str(doc, &mut Rejects("zzz"), false)
            .unwrap_err()
            .message
    };
    // Undeclared element, then a mismatched end tag: the sink wins, it
    // comes first in the document.
    assert_eq!(first_error("<a><zzz></b></a>"), "sink rejected <zzz>");
    // Attribute syntax error *on* the rejected tag: the tokenizer wins,
    // the sink never sees the tag.
    assert!(first_error("<a><zzz b></zzz></a>").contains("expected '='"));
    assert!(first_error("<a><zzz b=\"&nope;\"/></a>").contains("unknown entity"));
    // Structural position is checked before the name is even parsed.
    assert!(first_error("<a/><zzz b>").contains("content after the root"));
    // A mismatched end tag before the rejected element: it comes first.
    assert!(first_error("<a></b><zzz/>").contains("mismatched end tag"));
}

/// The frozen raw cursor (`peek_token` / `token_str` / `advance` /
/// `finish`, kept for `benchmark/src/ladder.rs`) reconstructs the
/// document verbatim at any chunking, and rejects what `feed` rejects
/// at the stack level.
#[test]
fn raw_cursor_roundtrips_the_input() {
    let doc = "<?xml version=\"1.0\"?><a x=\"1&amp;2\"><b/>text &amp; more\
               <![CDATA[raw]]><!--c--><?pi d?></a>tail";
    let bytes = doc.as_bytes();
    for chunk_len in [1usize, 3, 7, bytes.len()] {
        let mut tok = PushTokenizer::new();
        let mut rebuilt = String::new();
        for chunk in bytes.chunks(chunk_len) {
            tok.push_bytes(chunk).unwrap();
            while let Some(raw) = tok.peek_token().unwrap() {
                rebuilt.push_str(tok.token_str(&raw));
                tok.advance(raw).unwrap();
            }
        }
        for ev in tok.finish().unwrap() {
            match ev {
                xproj_xmltree::push::PushEvent::Text(text) => rebuilt.push_str(&text),
                other => panic!("finish only completes a trailing text run, got {other:?}"),
            }
        }
        assert_eq!(rebuilt, doc, "chunk_len {chunk_len}");
    }
    let mut tok = PushTokenizer::new();
    tok.push_bytes(b"<a></b>").unwrap();
    let start = tok.peek_token().unwrap().unwrap();
    tok.advance(start).unwrap();
    let end = tok.peek_token().unwrap().unwrap();
    assert!(tok.advance(end).is_err());
}

/// A `feed` after a `push_bytes` whose tokens were never read would
/// tokenize from the wrong place: it panics instead.
#[test]
#[should_panic(expected = "feed after push_bytes left unread tokens in the carry")]
fn feed_after_unread_push_bytes_panics() {
    let mut tok = PushTokenizer::new();
    tok.push_bytes(b"<a><b/>").unwrap();
    let _ = tok.feed(b"</a>", &mut Collect::default(), false);
}

/// A `push_bytes` read until the rest is mid-token may be continued by
/// `feed`: the carried part is completed, not rescanned.
#[test]
fn feed_continues_a_raw_cursor_left_mid_token() {
    let mut tok = PushTokenizer::new();
    tok.push_bytes(b"<a><b x=\"1").unwrap();
    let start = tok.peek_token().unwrap().unwrap();
    tok.advance(start).unwrap();
    assert!(tok.peek_token().unwrap().is_none());
    let mut sink = Collect::default();
    tok.feed(b"\"/></a>", &mut sink, false).unwrap();
    tok.finish_into(&mut sink).unwrap();
    assert_eq!(sink.events, [s("b", &[("x", "1")]), e("b"), e("a")]);
    assert_eq!(tok.scanned_bytes(), 17);
}

#[test]
fn raw_attrs_yield_pairs_then_fuse_on_the_first_error() {
    use xproj_xmltree::push::{split_start_tag, RawAttrs};
    let attrs = |token: &str| -> Vec<Result<(String, String), String>> {
        let (_, region, _) = split_start_tag(token).unwrap();
        RawAttrs::new(region)
            .map(|a| a.map(|(k, v)| (k.to_string(), v.to_string())))
            .collect()
    };
    assert_eq!(attrs("<a>"), []);
    assert_eq!(
        attrs(r#"<a b="1" c='x "y"'/>"#),
        [
            Ok(("b".into(), "1".into())),
            Ok(("c".into(), "x \"y\"".into()))
        ]
    );
    assert_eq!(
        attrs(r#"<a b = "&lt;">"#),
        [Ok(("b".into(), "&lt;".into()))]
    );
    for bad in ["<a b>", "<a b=>", "<a b=unquoted>", "<a b=\"1\" c>"] {
        let got = attrs(bad);
        assert!(got.last().unwrap().is_err(), "{bad}: {got:?}");
        assert_eq!(got.iter().filter(|r| r.is_err()).count(), 1, "{bad} fuses");
    }
    assert!(split_start_tag("<1bad>").is_err());
    assert_eq!(
        split_start_tag("<ns:t a='1'/>").unwrap(),
        ("ns:t", " a='1'", true)
    );
}

/// UTF-8 is validated a window of buffered bytes at a time. A document
/// many windows long and dense with multi-byte scalars must tokenize
/// identically however it is chunked (windows and chunks cut scalars at
/// every phase), and a bad byte anywhere must be reported once, against
/// the token that holds it, with the same error at every chunking.
#[test]
fn utf8_validation_is_window_and_chunk_invariant() {
    let body = "<e a=\"é€\">日本語テキスト — ₤</e><f/>".repeat(600);
    let doc = format!("<r>{body}</r>");
    let bytes = doc.as_bytes();
    assert!(bytes.len() > 5 * 4096);
    let expected = run(&[bytes]).unwrap();
    for size in [3, 7, 1000, 4095, 4096, 4097, 10_000] {
        let chunks: Vec<&[u8]> = bytes.chunks(size).collect();
        assert_eq!(run(&chunks).unwrap(), expected, "chunk size {size}");
    }
    for from in (5..bytes.len() - 50).step_by(487) {
        // Corrupt a byte inside a scalar, not a delimiter.
        let at = from + bytes[from..].iter().position(|b| *b >= 0x80).unwrap();
        let mut bad = bytes.to_vec();
        bad[at] = 0xff;
        let whole = run(&[&bad]).unwrap_err();
        assert!(
            whole.message.contains("invalid UTF-8"),
            "byte {at}: {whole}"
        );
        assert!(
            whole.offset <= at && at - whole.offset < 64,
            "byte {at} reported against the token at {}",
            whole.offset
        );
        for size in [7, 4096] {
            let chunks: Vec<&[u8]> = bad.chunks(size).collect();
            assert_eq!(
                run(&chunks).unwrap_err(),
                whole,
                "byte {at}, chunk size {size}"
            );
        }
    }
}
