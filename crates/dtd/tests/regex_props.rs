//! Property tests for the content-model automata: the Glushkov
//! construction must agree with an independently-implemented
//! Brzozowski-derivative matcher on random regexes and random words.

use xproj_dtd::{NameId, Regex};
use xproj_testkit::forall;
use xproj_testkit::strategy::{one_of, recursive, vec_of, Just, RcStrategy, StrategyExt};

/// Reference matcher: Brzozowski derivatives.
fn matches_ref(re: &Regex, word: &[NameId]) -> bool {
    fn nullable(re: &Regex) -> bool {
        re.nullable()
    }
    fn deriv(re: &Regex, a: NameId) -> Regex {
        match re {
            Regex::Epsilon => Regex::Alt(vec![]), // ∅
            Regex::Name(n) => {
                if *n == a {
                    Regex::Epsilon
                } else {
                    Regex::Alt(vec![])
                }
            }
            Regex::Seq(rs) => {
                // d(r1 r2…) = d(r1)·rest  |  (if r1 nullable) d(rest)
                match rs.split_first() {
                    None => Regex::Alt(vec![]),
                    Some((r1, rest)) => {
                        let mut branches = Vec::new();
                        let mut first = vec![deriv(r1, a)];
                        first.extend(rest.iter().cloned());
                        branches.push(Regex::Seq(first));
                        if nullable(r1) {
                            branches.push(deriv(&Regex::Seq(rest.to_vec()), a));
                        }
                        Regex::Alt(branches)
                    }
                }
            }
            Regex::Alt(rs) => Regex::Alt(rs.iter().map(|r| deriv(r, a)).collect()),
            Regex::Star(r) => Regex::Seq(vec![deriv(r, a), Regex::Star(r.clone())]),
            Regex::Plus(r) => Regex::Seq(vec![deriv(r, a), Regex::Star(r.clone())]),
            Regex::Opt(r) => deriv(r, a),
        }
    }
    let mut cur = re.clone();
    for &c in word {
        cur = deriv(&cur, c);
    }
    fn nullable_full(re: &Regex) -> bool {
        match re {
            Regex::Alt(rs) if rs.is_empty() => false,
            Regex::Alt(rs) => rs.iter().any(nullable_full),
            Regex::Seq(rs) => rs.iter().all(nullable_full),
            Regex::Epsilon => true,
            Regex::Name(_) => false,
            Regex::Star(_) | Regex::Opt(_) => true,
            Regex::Plus(r) => nullable_full(r),
        }
    }
    nullable_full(&cur)
}

const SIGMA: u32 = 4;

fn regex_strategy() -> RcStrategy<Regex> {
    let leaf = one_of(vec![
        Just(Regex::Epsilon).rc(),
        (0..SIGMA).prop_map(|i| Regex::Name(NameId(i))).rc(),
    ])
    .rc();
    recursive(leaf, 4, |inner| {
        one_of(vec![
            vec_of(inner.clone(), 1..4).prop_map(Regex::Seq).rc(),
            vec_of(inner.clone(), 1..4).prop_map(Regex::Alt).rc(),
            inner.clone().prop_map(|r| Regex::Star(Box::new(r))).rc(),
            inner.clone().prop_map(|r| Regex::Plus(Box::new(r))).rc(),
            inner.prop_map(|r| Regex::Opt(Box::new(r))).rc(),
        ])
        .rc()
    })
}

forall! {
    #![cases(512)]

    fn glushkov_agrees_with_derivatives(
        re in regex_strategy(),
        word in vec_of(0..SIGMA, 0..8),
    ) {
        let word: Vec<NameId> = word.into_iter().map(NameId).collect();
        let auto = re.compile();
        assert_eq!(
            auto.matches(word.iter().copied()),
            matches_ref(&re, &word),
            "regex {:?} word {:?}", re, word
        );
    }

    fn nullable_agrees_with_empty_word(re in regex_strategy()) {
        let auto = re.compile();
        assert_eq!(re.nullable(), auto.matches(std::iter::empty()));
    }

    fn names_is_support(
        re in regex_strategy(),
        word in vec_of(0..SIGMA, 1..6),
    ) {
        // a word containing a name outside Names(re) never matches
        let names = re.names(SIGMA as usize + 1);
        let word: Vec<NameId> = word.into_iter().map(NameId).collect();
        if word.iter().any(|n| !names.contains(*n)) {
            let auto = re.compile();
            assert!(!auto.matches(word.iter().copied()));
        }
    }
}

/// Models wide enough to cross a bit word (63 / 64 / 65 positions, one
/// more bit each for the start) and up to the inline limit of a
/// `NameSet` (`NameSet::INLINE_NAMES`: 255 positions), which the random
/// regexes above never reach.
#[test]
fn models_across_bit_words_agree_with_derivatives() {
    wide_models_agree_with_derivatives(&[63, 64, 65, 255]);
}

/// Models past the inline limit, whose bit rows are on the heap.
#[test]
fn models_on_the_heap_agree_with_derivatives() {
    wide_models_agree_with_derivatives(&[256, 257, 300]);
}

/// A sequence of one repeated name and a starred union, `k` positions
/// each, for every `k` of `widths`.
fn wide_models_agree_with_derivatives(widths: &[usize]) {
    let a = NameId(0);
    let word = |ids: &[u32]| ids.iter().map(|&i| NameId(i)).collect::<Vec<_>>();
    for &k in widths {
        let seq = Regex::Seq(vec![Regex::Name(a); k]);
        // Only a word as long as the model reaches its last position, and
        // the oracle's cost is cubic in that length: beyond 65 positions
        // the long word is the accepted one, and the rejected ones die at
        // the first bit word's end and the second's start.
        let lengths = if k <= 65 {
            vec![k - 1, k, k + 1]
        } else {
            vec![k]
        };
        let mut seq_words: Vec<Vec<NameId>> = lengths.into_iter().map(|len| vec![a; len]).collect();
        for at in [0, 62, 63] {
            let mut w = vec![a; at + 1];
            w[at] = NameId(1);
            seq_words.push(w);
        }
        let alt = Regex::Star(Box::new(Regex::Alt(
            (0..k as u32).map(|i| Regex::Name(NameId(i % 3))).collect(),
        )));
        let alt_words = [
            word(&[]),
            word(&[2, 0, 1, 1, 2]),
            word(&[0, 1, 2, 3]),
            word(&[3]),
        ];
        for (re, words) in [(&seq, &seq_words[..]), (&alt, &alt_words[..])] {
            let auto = re.compile();
            for w in words {
                assert_eq!(
                    auto.matches(w.iter().copied()),
                    matches_ref(re, w),
                    "{k} positions, word of {} names",
                    w.len()
                );
            }
        }
    }
}
