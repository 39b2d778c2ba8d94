//! The hostile-token wall: one giant token of every kind, terminated and
//! not, tokenized and fast-forwarded, fed in pieces from one byte to
//! 64 KiB.
//!
//! The promise under test is linear work: the boundary scanner resumes
//! where the previous feed stopped, so [`PushTokenizer::scanned_bytes`]
//! equals the bytes pushed however small the feeds are. (A scanner that
//! restarts at the head of the incomplete token examines n²/2·chunk
//! bytes instead — at one-byte feeds this test does not finish.) And a
//! feed is tokenized where it lies: [`PushTokenizer::carried_bytes`]
//! equals the bytes of the tokens that straddle a feed's end, so a feed
//! that ends on a token boundary copies nothing. Chunking must not
//! change anything else either: sink calls, event counts and the error
//! at end of input equal the whole-document run's.
//!
//! `TESTKIT_HOSTILE_MIB=n` raises the token size from 1 MiB to n MiB and
//! keeps only the 64 KiB feed (what `xmlprune` and the daemon read in):
//! the release-mode leg of `ci.sh`.

mod common;

use common::{Collect, Ev};
use xproj_xmltree::push::{Drained, PushTokenizer};
use xproj_xmltree::ParseError;

/// A token as `(name, opener, filler, closer, what is unexpected about
/// its end of input at top level)`: the opener, then the filler repeated
/// to the token size, then — when terminated — the closer. Fillers are
/// what a lazier scanner trips over: the other quote, a quoted `>`, a
/// body made of its own closing delimiter's first byte, a text run of
/// references (its first `&` turns the scan to `<` alone; decoding walks
/// them all).
type Token = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    &'static str,
);

const TOKENS: &[Token] = &[
    (
        "attribute value in double quotes",
        "<k a=\"",
        ">",
        "\"/>",
        " inside markup, <r> not closed",
    ),
    (
        "attribute value in single quotes",
        "<k a='",
        "\"",
        "'/>",
        " inside markup, <r> not closed",
    ),
    (
        "start tag without quotes",
        "<k",
        "k",
        "/>",
        " inside markup, <r> not closed",
    ),
    (
        "end tag",
        "<k></k",
        " ",
        ">",
        " inside markup, <k> not closed",
    ),
    (
        "comment",
        "<!--",
        "x",
        "-->",
        " inside markup, <r> not closed",
    ),
    (
        "comment of dashes",
        "<!--",
        "-",
        "-->",
        " inside markup, <r> not closed",
    ),
    (
        "CDATA of brackets",
        "<![CDATA[",
        "]",
        "]]>",
        " inside markup, <r> not closed",
    ),
    (
        "PI of question marks",
        "<?p ",
        "?",
        "?>",
        " inside markup, <r> not closed",
    ),
    (
        "DOCTYPE with a quoted >",
        "<!DOCTYPE r SYSTEM \"",
        ">",
        "\">",
        " inside markup",
    ),
    (
        "DOCTYPE with > in its subset",
        "<!DOCTYPE r [",
        ">",
        "]>",
        " inside markup",
    ),
    ("text run", "", "x", "", ", <r> not closed"),
    ("text run of &amp;", "", "&amp;", "", ", <r> not closed"),
];

/// The token size and the feed sizes: 1 MiB at {1, 7, 4096, 64 Ki}, or
/// `TESTKIT_HOSTILE_MIB` MiB at 64 KiB.
fn scale() -> (usize, &'static [usize]) {
    match std::env::var("TESTKIT_HOSTILE_MIB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(mib) => (mib << 20, &[64 * 1024]),
        None => (1 << 20, &[1, 7, 4096, 64 * 1024]),
    }
}

struct Run {
    events: Vec<Ev>,
    outcome: Result<Drained, ParseError>,
    scanned: u64,
    carried: u64,
}

/// How the token loop meets one piece of a wall document.
#[derive(Clone, Copy, PartialEq)]
enum Piece {
    /// A markup token: it ends at its own last byte.
    Markup,
    /// A text run, or a token the input cuts off: it ends only when the
    /// byte after it (or the end of input) has been seen.
    Open,
    /// Inside a fast-forwarded subtree: scanned, never copied.
    Skipped,
}

/// The bytes a run of `chunk`-byte feeds copies into the carry: those of
/// every token some feed ends inside of — or, for an open one, right
/// at the end of.
fn straddling(pieces: &[(String, Piece)], chunk: usize) -> u64 {
    let len: usize = pieces.iter().map(|(text, _)| text.len()).sum();
    let mut start = 0;
    let mut copied = 0;
    for (text, piece) in pieces {
        let end = start + text.len();
        let boundary = (start / chunk * chunk + chunk).min(len);
        let straddles = match piece {
            Piece::Markup => boundary < end,
            Piece::Open => boundary <= end,
            Piece::Skipped => false,
        };
        if straddles {
            copied += text.len() as u64;
        }
        start = end;
    }
    copied
}

/// Feeds `doc` in `chunk`-byte pieces, fast-forwarding past `<s>` when
/// `skip` is set.
fn drive(doc: &[u8], chunk: usize, skip: bool) -> Run {
    let mut tok = PushTokenizer::new();
    let mut sink = Collect {
        skippable: skip.then_some("s"),
        ..Collect::default()
    };
    let outcome = (|| {
        let mut done = Drained::default();
        for piece in doc.chunks(chunk) {
            done += tok.feed(piece, &mut sink, skip)?;
        }
        done += tok.finish_into(&mut sink)?;
        Ok(done)
    })();
    Run {
        events: sink.events,
        outcome,
        scanned: tok.scanned_bytes(),
        carried: tok.carried_bytes(),
    }
}

/// Every token of [`TOKENS`], terminated and not, either directly under
/// the root (a DOCTYPE: before it) or inside a subtree the sink skips.
fn wall(skip: bool) {
    use Piece::*;
    let (size, chunks) = scale();
    for &(name, opener, filler, closer, top_level_eof) in TOKENS {
        for terminated in [true, false] {
            let end = if terminated { closer } else { "" };
            let giant = [opener, &filler.repeat(size / filler.len()), end].concat();
            let last = if terminated { Markup } else { Open };
            let piece = |text: &str, piece| (text.to_string(), piece);
            let doctype = opener.starts_with("<!DOCTYPE");
            let mut pieces = match (skip, doctype) {
                (true, _) => vec![piece("<r>", Markup), piece("<s>", Markup), (giant, Skipped)],
                (false, true) => vec![(giant, last)],
                (false, false) => match giant.strip_prefix("<k>") {
                    Some(end_tag) => {
                        vec![
                            piece("<r>", Markup),
                            piece("<k>", Markup),
                            piece(end_tag, last),
                        ]
                    }
                    None if opener.is_empty() => vec![piece("<r>", Markup), (giant, Open)],
                    None => vec![piece("<r>", Markup), (giant, last)],
                },
            };
            if terminated {
                let tail: &[(&str, Piece)] = match (skip, doctype) {
                    (true, _) => &[("</s>", Skipped), ("</r>", Markup)],
                    (false, true) => &[("<r>", Markup), ("</r>", Markup)],
                    (false, false) => &[("</r>", Markup)],
                };
                pieces.extend(tail.iter().map(|&(text, p)| piece(text, p)));
            }
            let doc = pieces
                .iter()
                .map(|(text, _)| text.as_str())
                .collect::<String>()
                .into_bytes();
            let what = format!("{name}, terminated: {terminated}, skipped: {skip}");
            let whole = drive(&doc, doc.len(), skip);
            match (&whole.outcome, terminated) {
                (Ok(done), true) => assert_eq!(done.fast_forwarded, u64::from(skip), "{what}"),
                (Err(e), false) => {
                    let eof = if skip {
                        ", <s> not closed"
                    } else {
                        top_level_eof
                    };
                    assert_eq!(e.message, format!("unexpected end of input{eof}"), "{what}");
                }
                (other, _) => panic!("{what}: {other:?}"),
            }
            for &chunk in chunks {
                let run = drive(&doc, chunk, skip);
                let feeds = format!("{chunk}-byte feeds");
                assert_eq!(
                    run.scanned,
                    doc.len() as u64,
                    "{what}: bytes examined, {feeds}"
                );
                let copied = straddling(&pieces, chunk);
                assert_eq!(run.carried, copied, "{what}: bytes carried, {feeds}");
                assert_eq!(run.outcome, whole.outcome, "{what}, {chunk}-byte feeds");
                // Not `assert_eq!`: a failure would print the token.
                assert!(
                    run.events == whole.events,
                    "{what}: sink calls differ, {chunk}-byte feeds"
                );
            }
        }
    }
}

#[test]
fn giant_tokens_are_scanned_once_when_tokenized() {
    wall(false);
}

#[test]
fn giant_tokens_are_scanned_once_when_fast_forwarded() {
    wall(true);
}

/// A start tag of 10⁵ attributes, distinct or all one name, at every
/// feed size: distinct ones pass and a repeated one fails at its second
/// occurrence, with names compared in linear time (a hash set past the
/// first few). Inside a fast-forwarded subtree the tag is never parsed,
/// so the duplicate passes by design.
#[test]
fn a_tag_of_many_attributes_is_checked_for_duplicates() {
    const N: usize = 100_000;
    let distinct: String = (0..N).map(|i| format!(" a{i}=''")).collect();
    for (attrs, duplicate) in [(distinct, false), (" a=''".repeat(N), true)] {
        for skip in [false, true] {
            let (head, tail) = if skip {
                ("<r><s>", "</s></r>")
            } else {
                ("<r>", "</r>")
            };
            let doc = format!("{head}<k{attrs}/>{tail}").into_bytes();
            let what = format!("duplicate: {duplicate}, skipped: {skip}");
            let whole = drive(&doc, doc.len(), skip);
            match &whole.outcome {
                Err(e) if duplicate && !skip => {
                    assert_eq!(e.message, "duplicate attribute 'a'", "{what}");
                    assert_eq!(e.offset, 3, "{what}");
                }
                Ok(_) if !duplicate || skip => {}
                other => panic!("{what}: {other:?}"),
            }
            for chunk in [1, 7, 4096, 64 * 1024] {
                let run = drive(&doc, chunk, skip);
                assert!(
                    run.scanned <= 2 * doc.len() as u64 + 64,
                    "{what}, {chunk}-byte feeds"
                );
                assert_eq!(run.outcome, whole.outcome, "{what}, {chunk}-byte feeds");
                assert!(
                    run.events == whole.events,
                    "{what}: sink calls differ, {chunk}-byte feeds"
                );
            }
        }
    }
}

/// The carry counter on feeds cut by hand: cut between tokens, nothing is
/// copied; cut inside a token, that token is; and a text run is only
/// complete once its `<` has come, so a feed ending right after it
/// copies the run.
#[test]
fn a_feed_that_ends_between_tokens_copies_nothing() {
    let cases: &[(&[&str], u64)] = &[
        (&["<r>", "<a x='1'/>", "</r>"], 0),
        (&["<r>text<", "/r>"], "</r>".len() as u64),
        (&["<r>text", "</r>"], "text".len() as u64),
        (&["<r><a x='", "1'/>", "</r>"], "<a x='1'/>".len() as u64),
        (&["<r>", "<s>skipped", " in place</s>", "</r>"], 0),
    ];
    for &(feeds, copied) in cases {
        let doc = feeds.concat();
        let mut tok = PushTokenizer::new();
        let mut sink = Collect {
            skippable: Some("s"),
            ..Collect::default()
        };
        for feed in feeds {
            tok.feed(feed.as_bytes(), &mut sink, true).unwrap();
        }
        tok.finish_into(&mut sink).unwrap();
        assert_eq!(tok.carried_bytes(), copied, "{feeds:?}");
        assert_eq!(tok.scanned_bytes(), doc.len() as u64, "{feeds:?}");
    }
}
