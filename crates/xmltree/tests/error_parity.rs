//! The error-parity pin: for a corpus of malformed (and a few well-formed)
//! inputs, the first error — offset and message — and every sink call made
//! before it, committed in `error_parity.txt`. The pin was generated before
//! the token loop learned byte-class names, the end-tag fast path and
//! scanner-found `&`, so those rewrites are held to the checks they
//! replaced: each row must come out identical whole, at feeds of 1, 7,
//! 4096 and 64 Ki bytes, and at every 2-chunk split. (The XML-whitespace
//! fix amended exactly its own rows, part of CORPUS's second-last block;
//! the unique-attribute check added the last block.)
//!
//! Beside it, the char-based name reader the token loop used to run on
//! every name is kept as an oracle for the byte-class one, through the
//! public `split_start_tag` and `parse_end_tag_name`.

mod common;

use common::{run_with, Collect};
use xproj_xmltree::push::{parse_end_tag_name, split_start_tag};

/// One row per input, in `error_parity.txt`'s order.
const CORPUS: &[&str] = &[
    // Names: non-ASCII, a bad first byte, non-ASCII mid-name.
    "<é/>",
    "<日本語>x</日本語>",
    "<aé/>",
    "<ab\u{e9}c d\u{e9}=\"1\"/>",
    "<ab\u{2014}c/>",
    "<a\u{300}/>",
    "<a\u{660}/>",
    "<\u{660}a/>",
    "<1a/>",
    "<-a/>",
    "<.a/>",
    "<_a:b-c.d9/>",
    "<:a/>",
    "<a><1b/></a>",
    "<a><-b/></a>",
    "<a><.b/></a>",
    "<a>x</aé>",
    "<aé>x</a>",
    "<a\u{2014}></a>",
    // End tags against the open element.
    "<a></a >",
    "<a></a\t>",
    "<a></a\n>",
    "<a></a/>",
    "<ab></a>",
    "<a></ab>",
    "<a></b>",
    "<a></>",
    "<a></ a>",
    "<a></a b>",
    "</a>",
    "<a/></a>",
    "<a><b></b></a></a>",
    "<a><b></a></b>",
    // Markup that is no token, and references.
    "<a><!foo></a>",
    "<!foo><a/>",
    "<a>&amp</a>",
    "<a>&bogus;</a>",
    "<a>&#0;</a>",
    "<a>x &amp; y &lt;&gt;&apos;&quot; &#65;&#x42;</a>",
    "<a>&</a>",
    "<a>&;</a>",
    "<a>&#xZZ;</a>",
    "<a/>&amp",
    "<a/>&bogus;",
    "<a b=\"&amp\"/>",
    "<a b=\"&bogus;\"/>",
    "<a b=\"&#0;\"/>",
    // Attributes: non-ASCII names, separators.
    "<a é=\"1\"/>",
    "<a b\u{2014}=\"1\"/>",
    "<a \u{660}=\"1\"/>",
    "<a 1=\"1\"/>",
    "<a b=\"1\" c='2'/>",
    "<a\tb=\"1\"\nc='2'\r/>",
    "<a b = \"1\"/>",
    "<a b=\"1\"/ >",
    // XML whitespace is #x20 #x9 #xD #xA, attributes need it between
    // them, and only whitespace (after a leading byte-order mark) may
    // come before the root element.
    "<a b=\"1\"\u{a0}c=\"2\"/>",
    "<a\u{3000}></a>",
    "<a></a\u{2028}>",
    "\u{a0}<a/>",
    "<a b=\"1\"c=\"2\"/>",
    "<!DOCTYPE\u{a0}a><a/>",
    " \t\r\n<a/> \t\r\n",
    "<a/>\u{a0}",
    "<a/>tail",
    "x<a/>",
    "x",
    "<!--c-->x<a/>",
    "\u{feff}<a/>",
    "\u{feff}\n<a/>",
    "\n\u{feff}<a/>",
    // An attribute name appears once per start tag (WFC "Unique Att
    // Spec"), past the linear compare too; names are case-sensitive.
    "<a x=\"1\" x=\"2\">t</a>",
    "<a><b x='1' y='2' x='1'/></a>",
    "<a a0='' a1='' a2='' a3='' a4='' a5='' a6='' a7='' a8='' a3=''/>",
    "<a x='1' X='2'/>",
];

/// The pinned outcome of feeding `chunks`: the event count and sink calls,
/// or the first error and the sink calls made before it.
fn outcome(chunks: &[&[u8]]) -> String {
    let mut sink = Collect::default();
    match run_with(chunks, &mut sink, false) {
        Ok((done, _)) => format!("ok {} {:?}", done.events, sink.events),
        Err(e) => format!("err {} {:?} {:?}", e.offset, e.message, sink.events),
    }
}

#[test]
fn pinned_rows_hold_at_every_feed_and_split() {
    let pin = include_str!("error_parity.txt");
    assert_eq!(
        pin.lines().count(),
        CORPUS.len(),
        "one pinned row per input"
    );
    for (doc, row) in CORPUS.iter().zip(pin.lines()) {
        let (input, expected) = row.split_once('\t').expect("input<TAB>outcome");
        assert_eq!(input, format!("{doc:?}"), "rows follow CORPUS");
        let bytes = doc.as_bytes();
        assert_eq!(outcome(&[bytes]), expected, "{doc:?} whole");
        for feed in [1, 7, 4096, 64 * 1024] {
            let chunks: Vec<&[u8]> = bytes.chunks(feed).collect();
            assert_eq!(outcome(&chunks), expected, "{doc:?} at {feed}-byte feeds");
        }
        for at in 0..=bytes.len() {
            assert_eq!(
                outcome(&[&bytes[..at], &bytes[at..]]),
                expected,
                "{doc:?} split at {at}"
            );
        }
    }
}

/// The name reader before byte classes: Unicode `is_alphabetic` /
/// `is_alphanumeric` per char.
fn oracle_read_name(s: &str) -> Result<(&str, &str), String> {
    let mut end = 0;
    for (i, c) in s.char_indices() {
        let ok = if i == 0 {
            c.is_alphabetic() || c == '_' || c == ':'
        } else {
            c.is_alphanumeric() || matches!(c, '_' | ':' | '-' | '.')
        };
        if !ok {
            end = i;
            break;
        }
        end = i + c.len_utf8();
    }
    if end == 0 {
        return Err("expected a name".to_string());
    }
    Ok((&s[..end], &s[end..]))
}

/// Every ASCII char and a Unicode sample (letters of 2, 3 and 4 bytes, a
/// combining mark, a non-ASCII digit, dashes and spaces that are not XML
/// `S`, a byte-order mark, an emoji), alone, first, last and mid-name.
fn names() -> Vec<String> {
    let unicode = "éßΩ日𝔘\u{300}\u{660}\u{2014}\u{a0}\u{3000}\u{2028}\u{feff}😀".chars();
    (0u8..128)
        .map(char::from)
        .chain(unicode)
        .flat_map(|c| {
            [
                format!("{c}"),
                format!("{c}a"),
                format!("a{c}"),
                format!("a{c}b"),
                format!("ab{c}-c.d"),
            ]
        })
        .collect()
}

#[test]
fn start_tag_names_match_the_char_oracle() {
    for name in names() {
        let token = format!("<{name}>");
        let self_closing = token.ends_with("/>");
        let inner = &token[1..token.len() - if self_closing { 2 } else { 1 }];
        let got = split_start_tag(&token).map(|(name, rest, _)| (name, rest));
        assert_eq!(got, oracle_read_name(inner), "{token:?}");
    }
}

#[test]
fn end_tag_names_match_the_char_oracle() {
    for name in names() {
        let token = format!("</{name}>");
        let expected = oracle_read_name(&name).and_then(|(name, rest)| {
            match rest.trim_start_matches([' ', '\t', '\r', '\n']) {
                "" => Ok(name),
                rest => Err(format!("unexpected '{rest}' in end tag")),
            }
        });
        assert_eq!(parse_end_tag_name(&token), expected, "{token:?}");
    }
}
