//! A grammar costs memory in proportion to its text.
//!
//! The dense family — n names, each `<!ELEMENT eᵢ (e₀|…|eₙ₋₁)*>` — has
//! n content models of n positions over n names, so an automaton with one
//! entry per (position, name) is cubic in n while the text is quadratic.
//! Content automata are built on first use, so parsing builds none: what
//! `parse_dtd` retains is the grammar's rows and content models, on this
//! family a constant number of bytes per DTD byte (not on every family:
//! the reachability rows are quadratic in names, so thousands of short
//! names cost more). Building every automaton afterwards adds bit rows,
//! O(positions²/64) words per model.
//!
//! Gated on the counting allocator's live bytes, not on a clock:
//! - `parse_dtd` retains at most 16 B per DTD byte, and at most 2 MiB on
//!   the n = 114 grammar (54 KB, under the daemon's 64 KiB `/v1/dtd` cap);
//! - building every automaton of the n = 200 grammar adds at most 8 MiB,
//!   both to what its parse retained and to the 16 B per DTD byte a
//!   parse may retain (a parse that built them all fails the second);
//! - no grammar retains more than twice the smallest ratio per DTD byte,
//!   so retention is linear in the text.
//!
//! Its own test binary with a single test: the counting allocator is
//! process-global, so a second test thread would be measured too.

use xproj_bench::ALLOCATOR;
use xproj_dtd::parse_dtd;

const PER_DTD_BYTE: usize = 16;
const MIB: usize = 1 << 20;

/// The dense grammar of `n` names, rooted at `e0`.
fn dense(n: usize) -> String {
    let any = (0..n)
        .map(|j| format!("e{j}"))
        .collect::<Vec<_>>()
        .join("|");
    (0..n)
        .map(|i| format!("<!ELEMENT e{i} ({any})*>\n"))
        .collect()
}

#[test]
fn a_grammar_retains_a_constant_number_of_bytes_per_dtd_byte() {
    let mut ratios = Vec::new();
    for n in [50, 100, 114, 200] {
        let text = dense(n);
        let before = ALLOCATOR.live();
        let dtd = parse_dtd(&text, "e0").unwrap();
        let retained = ALLOCATOR.live() - before;
        let ratio = retained as f64 / text.len() as f64;
        assert!(
            retained <= PER_DTD_BYTE * text.len(),
            "n = {n}: parse_dtd retained {retained} bytes for {} DTD bytes ({ratio:.1} B/byte)",
            text.len()
        );
        if n == 114 {
            assert!(
                retained <= 2 * MIB,
                "n = 114: parse_dtd retained {retained} bytes"
            );
        }
        if n == 200 {
            let names: Vec<_> = dtd.all_names().collect();
            for &name in &names {
                let auto = dtd.automaton(name).expect("every name is an element");
                assert!(auto.matches(names.iter().copied()));
            }
            // Building them adds at most 8 MiB to the parse, and to what
            // the parse may retain, whether or not it built them already.
            let built = ALLOCATOR.live() - before;
            assert!(
                built - retained <= 8 * MIB && built <= PER_DTD_BYTE * text.len() + 8 * MIB,
                "n = 200: every automaton built, the grammar holds {built} bytes, \
                 {retained} of them after parsing"
            );
        }
        ratios.push((n, ratio));
    }
    let smallest = ratios.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    assert!(
        ratios.iter().all(|r| r.1 <= 2.0 * smallest),
        "retained bytes per DTD byte are not flat in n: {ratios:?}"
    );
}
