//! Type projectors (paper Def. 2.6): chain-closed sets of DTD names used
//! to prune documents.

use std::fmt;
use std::sync::Arc;
use xproj_dtd::{Dtd, NameId, NameSet};

/// A type projector π for a DTD `(X, E)`.
///
/// Projectors produced by [`crate::StaticAnalyzer`] are *normalised*: every
/// member name lies on a chain from the root all contained in π, which is
/// exactly Def. 2.6 (π = ⋃ Names(c) for a set of chains C rooted at X).
/// Projectors are closed under union (§5: multi-query workloads use the
/// union of the per-query projectors).
#[derive(Clone, PartialEq, Eq)]
pub struct Projector {
    names: NameSet,
}

impl Projector {
    /// Wraps a name-set (over the DTD universe) as a projector,
    /// normalising it: names not reachable from the root *inside* the set
    /// are dropped (the document name, which nothing reaches, with them).
    /// Dropping them never changes the pruning semantics — a node whose
    /// ancestors are pruned disappears with them — it only restores the
    /// chain property of Def. 2.6.
    pub fn normalized(dtd: &Dtd, names: NameSet) -> Self {
        let mut keep = dtd.empty_set();
        if names.contains(dtd.root()) {
            // BFS from the root through edges staying inside `names`.
            let mut stack = vec![dtd.root()];
            keep.insert(dtd.root());
            while let Some(x) = stack.pop() {
                for y in dtd.children_of(x) {
                    if names.contains(y) && keep.insert(y) {
                        stack.push(y);
                    }
                }
            }
        }
        Projector { names: keep }
    }

    /// The empty projector (prunes everything).
    pub fn empty(dtd: &Dtd) -> Self {
        Projector {
            names: dtd.empty_set(),
        }
    }

    /// The full projector (prunes nothing reachable).
    pub fn full(dtd: &Dtd) -> Self {
        Projector::normalized(dtd, dtd.full_set())
    }

    /// Membership.
    pub fn contains(&self, n: NameId) -> bool {
        self.names.contains(n)
    }

    /// The underlying name-set.
    pub fn names(&self) -> &NameSet {
        &self.names
    }

    /// Number of names kept.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the projector prunes everything.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Union with another projector (both must come from the same DTD).
    /// Projectors are closed under union, so no re-normalisation is
    /// needed: chains of both operands remain chains of the union.
    pub fn union(&self, other: &Projector) -> Projector {
        Projector {
            names: self.names.union(&other.names),
        }
    }

    /// Human-readable member labels, sorted.
    pub fn labels<'d>(&self, dtd: &'d Dtd) -> Vec<&'d str> {
        let mut v: Vec<&str> = self.names.iter().map(|n| dtd.label(n)).collect();
        v.sort_unstable();
        v
    }
}

impl fmt::Debug for Projector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Projector({} names)", self.names.len())
    }
}

/// Per-tag verdict of the streaming fast path: what a pruner should do
/// with an element carrying this name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The name is in π: serialize the element.
    Keep,
    /// The name is not in π, but some name reachable from it (⇒E\*) is.
    /// The element goes with its whole subtree — `PruneMachine` keeps
    /// nothing below a pruned element, π names included — so all this
    /// verdict decides is that the subtree is still *tokenized*, and so
    /// checked for well-formedness, rather than fast-forwarded.
    PruneDescend,
    /// Neither the name nor anything reachable from it is in π: the
    /// whole subtree can be fast-forwarded — scanned to its end tag
    /// without tokenizing it, so nothing inside it is checked.
    PruneSubtree,
}

/// A dense [`NameId`]-indexed view of one (DTD, π) pair, precomputed so
/// the per-event decisions of the streaming hot loop are single indexed
/// loads instead of set probes:
///
/// * `verdict(n)` — keep / prune-and-tokenize / prune-and-fast-forward,
///   folding the π-membership test together with the "can anything below
///   still be kept?" reachability question (π ∩ ⇒E\*(n) = ∅);
/// * `keep_text_under(n)` — whether text directly under element name
///   `n` survives, replacing the per-text-node iteration over
///   `text_children_of(n)`.
///
/// Building the table unions one row per name of π — the ancestors of
/// each, the parents of each text name — and is done once per document
/// pass (or once per cached projector), never per event. Clones share
/// the tables, so a pass that copies a cached one allocates nothing.
#[derive(Clone)]
pub struct ProjectorTable {
    verdicts: Arc<[Verdict]>,
    keep_text: Arc<[bool]>,
}

impl ProjectorTable {
    /// Precomputes the verdict and text tables for `projector` over `dtd`.
    pub fn new(dtd: &Dtd, projector: &Projector) -> Self {
        let n = dtd.name_count();
        let pi = projector.names();
        // A name has a descendant in π iff it is an ancestor of one, and
        // a text child in π iff it is a parent of one (the rows are
        // inverse pairs).
        let mut above_pi = dtd.empty_set();
        let mut over_pi_text = dtd.empty_set();
        for p in pi {
            above_pi.union_with(dtd.ancestors_of(p));
            if dtd.is_text_name(p) {
                over_pi_text.union_with(dtd.parents_of(p));
            }
        }
        let mut verdicts = Vec::with_capacity(n);
        let mut keep_text = Vec::with_capacity(n);
        for name in dtd.all_names() {
            let v = if pi.contains(name) {
                Verdict::Keep
            } else if above_pi.contains(name) {
                Verdict::PruneDescend
            } else {
                Verdict::PruneSubtree
            };
            verdicts.push(v);
            keep_text.push(over_pi_text.contains(name));
        }
        ProjectorTable {
            verdicts: verdicts.into(),
            keep_text: keep_text.into(),
        }
    }

    /// The verdict for element name `n`: one indexed load.
    #[inline]
    pub fn verdict(&self, n: NameId) -> Verdict {
        self.verdicts[n.index()]
    }

    /// Whether text nodes directly under element name `n` are kept:
    /// one indexed load.
    #[inline]
    pub fn keep_text_under(&self, n: NameId) -> bool {
        self.keep_text[n.index()]
    }
}

impl fmt::Debug for ProjectorTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kept = self
            .verdicts
            .iter()
            .filter(|v| **v == Verdict::Keep)
            .count();
        let ff = self
            .verdicts
            .iter()
            .filter(|v| **v == Verdict::PruneSubtree)
            .count();
        write!(
            f,
            "ProjectorTable({} names: {kept} keep, {ff} fast-forward)",
            self.verdicts.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_dtd::parse_dtd;

    fn dtd() -> Dtd {
        parse_dtd(
            "<!ELEMENT a (b, c)> <!ELEMENT b (d?)> <!ELEMENT c EMPTY> <!ELEMENT d EMPTY>",
            "a",
        )
        .unwrap()
    }

    #[test]
    fn normalisation_drops_unrooted_names() {
        let d = dtd();
        let b = d.name_of_tag_str("b").unwrap();
        let dd = d.name_of_tag_str("d").unwrap();
        // {b, d} without the root: nothing survives
        let p = Projector::normalized(&d, d.set_of([b, dd]));
        assert!(p.is_empty());
        // {a, d} without b: d is unreachable inside the set
        let a = d.name_of_tag_str("a").unwrap();
        let p2 = Projector::normalized(&d, d.set_of([a, dd]));
        assert_eq!(p2.labels(&d), vec!["a"]);
    }

    #[test]
    fn chain_property_holds_after_normalisation() {
        let d = dtd();
        let p = Projector::full(&d);
        for n in p.names().iter() {
            // every member has a parent in the projector (or is the root)
            assert!(
                n == d.root() || d.parents_of(n).iter().any(|q| p.contains(q)),
                "{} breaks the chain property",
                d.label(n)
            );
        }
    }

    #[test]
    fn union_is_monotone() {
        let d = dtd();
        let a = d.name_of_tag_str("a").unwrap();
        let b = d.name_of_tag_str("b").unwrap();
        let c = d.name_of_tag_str("c").unwrap();
        let p1 = Projector::normalized(&d, d.set_of([a, b]));
        let p2 = Projector::normalized(&d, d.set_of([a, c]));
        let u = p1.union(&p2);
        assert_eq!(u.labels(&d), vec!["a", "b", "c"]);
        assert!(u.contains(b) && u.contains(c));
    }

    #[test]
    fn full_excludes_unreachable() {
        let d = parse_dtd("<!ELEMENT a EMPTY> <!ELEMENT junk EMPTY>", "a").unwrap();
        let p = Projector::full(&d);
        assert_eq!(p.labels(&d), vec!["a"]);
    }
}

#[cfg(test)]
mod table_tests {
    use super::*;
    use crate::infer::StaticAnalyzer;
    use xproj_dtd::parse_dtd;

    const DTD: &str = "\
        <!ELEMENT bib (book*)>\
        <!ELEMENT book (title, author*)>\
        <!ELEMENT title (#PCDATA)>\
        <!ELEMENT author (name)>\
        <!ELEMENT name (#PCDATA)>";

    #[test]
    fn verdicts_match_membership_and_reachability() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/title").unwrap();
        let t = ProjectorTable::new(&dtd, &p);
        let n = |s: &str| dtd.name_of_tag_str(s).unwrap();
        assert_eq!(t.verdict(n("bib")), Verdict::Keep);
        assert_eq!(t.verdict(n("title")), Verdict::Keep);
        // author is pruned and nothing under it (name, name#text) is in π
        assert_eq!(t.verdict(n("author")), Verdict::PruneSubtree);
        assert_eq!(t.verdict(n("name")), Verdict::PruneSubtree);
    }

    #[test]
    fn prune_descend_when_a_descendant_is_in_pi() {
        // π = {bib, book, author, name, name#text} via //name: author kept;
        // craft π missing author but containing name by hand.
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let n = |s: &str| dtd.name_of_tag_str(s).unwrap();
        let mut names = dtd.empty_set();
        for s in ["bib", "book", "name"] {
            names.insert(n(s));
        }
        // Not normalized (author missing breaks the chain) — build the
        // raw table anyway to exercise the reachability fold.
        let p = Projector { names };
        let t = ProjectorTable::new(&dtd, &p);
        assert_eq!(t.verdict(n("author")), Verdict::PruneDescend);
        assert_eq!(t.verdict(n("title")), Verdict::PruneSubtree);
    }

    #[test]
    fn text_verdicts_are_single_lookups() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/title").unwrap();
        let t = ProjectorTable::new(&dtd, &p);
        let n = |s: &str| dtd.name_of_tag_str(s).unwrap();
        assert!(t.keep_text_under(n("title")));
        assert!(!t.keep_text_under(n("name")));
        assert!(!t.keep_text_under(n("bib")));
    }

    #[test]
    fn empty_projector_fast_forwards_everything() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::empty(&dtd);
        let t = ProjectorTable::new(&dtd, &p);
        for n in dtd.all_names() {
            assert_eq!(t.verdict(n), Verdict::PruneSubtree);
        }
    }

    /// The table read from rows answers the per-name definitions —
    /// `⇒E⁺(n) ∩ π ≠ ∅` and `text_children(n) ∩ π ≠ ∅` — for any name
    /// set, normalised or not, on random grammars.
    #[test]
    fn rows_answer_the_per_name_definitions() {
        use xproj_dtd::generate::{random_dtd, RandomDtdConfig};
        use xproj_testkit::{seeded, SplitMix64};
        seeded("rows_answer_the_per_name_definitions", 256, |seed| {
            let mut rng = SplitMix64::new(seed);
            let dtd = random_dtd(&mut rng, &RandomDtdConfig::default());
            let names = dtd.set_of(dtd.all_names().filter(|_| rng.below(3) == 0));
            for p in [
                Projector {
                    names: names.clone(),
                },
                Projector::normalized(&dtd, names),
            ] {
                let t = ProjectorTable::new(&dtd, &p);
                for n in dtd.all_names() {
                    let below = !dtd.descendants_of(n).intersection(p.names()).is_empty();
                    let v = match (p.contains(n), below) {
                        (true, _) => Verdict::Keep,
                        (false, true) => Verdict::PruneDescend,
                        (false, false) => Verdict::PruneSubtree,
                    };
                    assert_eq!(t.verdict(n), v, "{}", dtd.label(n));
                    let text = !dtd.text_children_of(n).intersection(p.names()).is_empty();
                    assert_eq!(t.keep_text_under(n), text, "{}", dtd.label(n));
                }
            }
        });
    }

    #[test]
    fn full_projector_keeps_everything_reachable() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        let t = ProjectorTable::new(&dtd, &p);
        for n in dtd.all_names() {
            assert_eq!(t.verdict(n), Verdict::Keep);
        }
    }
}
