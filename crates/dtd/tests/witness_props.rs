//! Fuzzed validity of every Def. 4.3 witness (the booleans are the
//! witness searches coming back empty, so there is no second checker to
//! agree with): a reported cycle must be a real `⇒E` chain, a reported
//! unguarded factor must appear in the named production, and a reported
//! ambiguous parent pair must exhibit both derivations.

use xproj_dtd::chains::is_chain;
use xproj_dtd::generate::{random_dtd, RandomDtdConfig};
use xproj_dtd::props::diagnostics;
use xproj_dtd::{Content, Dtd};
use xproj_testkit::{forall, SplitMix64};

fn arbitrary_dtd(seed: u64) -> Dtd {
    let mut rng = SplitMix64::new(seed);
    random_dtd(
        &mut rng,
        &RandomDtdConfig {
            max_elements: 9,
            text_prob: 0.5,
            attr_prob: 0.3,
            recursion_prob: 0.4,
        },
    )
}

forall! {
    #![cases(512)]

    /// Every produced witness is checkable against the grammar.
    fn witnesses_are_valid(seed in 0u64..u64::MAX) {
        let dtd = arbitrary_dtd(seed);
        let diag = diagnostics(&dtd);
        if let Some(w) = &diag.star_guard {
            let Content::Element(re) = &dtd.info(w.name).content else {
                panic!("star-guard witness on a text name");
            };
            assert!(!re.is_star_guarded(), "factor {} in {}", w.factor, w.content);
            assert!(
                w.content.contains(&w.factor),
                "factor {} not in content {}",
                w.factor,
                w.content
            );
            assert!(dtd.reachable_from_root().contains(w.name));
        }
        if let Some(w) = &diag.recursion {
            assert!(w.cycle.len() >= 2);
            assert_eq!(w.cycle.first(), w.cycle.last());
            assert!(is_chain(&dtd, &w.cycle), "cycle is not a ⇒E chain");
            assert!(dtd.reachable_from_root().contains(w.cycle[0]));
        }
        if let Some(w) = &diag.parent_ambiguity {
            // Both derivations of `child` exist…
            assert!(dtd.children_of(w.direct).contains(w.child));
            assert!(dtd.children_of(w.distant).contains(w.child));
            // …and the chain connects direct to distant with ≥ 1 step.
            assert!(w.chain.len() >= 2);
            assert_eq!(w.chain.first(), Some(&w.direct));
            assert_eq!(w.chain.last(), Some(&w.distant));
            assert!(is_chain(&dtd, &w.chain));
        }
    }
}
