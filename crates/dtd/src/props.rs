//! The three structural DTD properties of Def. 4.3 that govern
//! completeness of the static analysis:
//!
//! 1. **\*-guardedness** — every union in a content model is guarded by
//!    `*` or `+`;
//! 2. **non-recursivity** — no name reaches itself (`Y ⇒E⁺ Y` never
//!    holds), bounding document depth;
//! 3. **parent-unambiguity** — no name types both the parent and a strict
//!    ancestor of the parent of another name.
//!
//! For parent-unambiguity we implement a *conservative* (sound for
//! claiming the property, may reject some DTDs that technically enjoy it)
//! check: for every root-reachable pair `Y ⇒E Z`, no intermediate chain
//! `Y ⇒E⁺ W ⇒E Z` of length ≥ 2 may exist. The paper's definition
//! quantifies over common chain prefixes `c`; ignoring the prefix can only
//! flag *more* DTDs as ambiguous, never fewer, so a `true` answer is
//! always trustworthy.

use crate::grammar::{Content, Dtd};
use crate::nameset::NameId;
use std::collections::VecDeque;

/// Summary of the Def. 4.3 properties for a DTD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DtdProperties {
    /// Def. 4.3(1).
    pub star_guarded: bool,
    /// Def. 4.3(2).
    pub non_recursive: bool,
    /// Def. 4.3(3) (conservative check).
    pub parent_unambiguous: bool,
}

impl DtdProperties {
    /// True when the completeness theorem (Thm. 4.7) preconditions on the
    /// DTD side all hold.
    pub fn completeness_ready(&self) -> bool {
        self.star_guarded && self.non_recursive && self.parent_unambiguous
    }
}

/// Computes all three properties: each is its witness search coming
/// back empty, so a verdict and its evidence cannot disagree.
pub fn properties(dtd: &Dtd) -> DtdProperties {
    diagnostics(dtd).properties()
}

/// Witness that a content model violates \*-guardedness (Def. 4.3(1)):
/// `name`'s production contains the union `factor` outside a `*`/`+`
/// guard. Both expressions are rendered in DTD-ish concrete syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarGuardWitness {
    /// The name whose content model is unguarded.
    pub name: NameId,
    /// The offending factor (contains a union, not starred).
    pub factor: String,
    /// The full content model of `name`.
    pub content: String,
}

/// Witness that a DTD is recursive (violates Def. 4.3(2)): a concrete
/// cycle `Y ⇒E … ⇒E Y`. The first and last element coincide and every
/// adjacent pair is a `⇒E` edge, so [`crate::chains::is_chain`] accepts it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecursionWitness {
    /// The cycle, root-reachable, `cycle.first() == cycle.last()`.
    pub cycle: Vec<NameId>,
}

/// Witness that a DTD is parent-ambiguous (violates the conservative
/// Def. 4.3(3) check): `child` can occur both directly under `direct`
/// and under `distant`, where `distant` is itself reachable from
/// `direct` — so the *depth* of `child`'s parent along a chain from
/// `direct` is not determined by the grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParentAmbiguityWitness {
    /// The name with ambiguous parents.
    pub child: NameId,
    /// The one-step parent (`direct ⇒E child`).
    pub direct: NameId,
    /// The deeper parent (`direct ⇒E⁺ distant ⇒E child`). Equal to
    /// `direct` when the ambiguity comes from `direct`'s own recursion.
    pub distant: NameId,
    /// A concrete chain `direct ⇒E … ⇒E distant` (length ≥ 2).
    pub chain: Vec<NameId>,
}

/// Shortest chain `from ⇒E … ⇒E to` with at least one step (so
/// `from == to` asks for a cycle), by BFS over the `⇒E` edges.
fn shortest_chain(dtd: &Dtd, from: NameId, to: NameId) -> Option<Vec<NameId>> {
    let mut prev: Vec<Option<NameId>> = vec![None; dtd.name_count()];
    let mut seen = dtd.empty_set();
    let mut queue = VecDeque::new();
    for c in dtd.children_of(from) {
        if seen.insert(c) {
            prev[c.index()] = Some(from);
            queue.push_back(c);
        }
    }
    while let Some(x) = queue.pop_front() {
        if x == to {
            let mut path = vec![to];
            let mut cur = to;
            loop {
                cur = prev[cur.index()].expect("BFS tree reaches from");
                path.push(cur);
                if cur == from {
                    break;
                }
            }
            path.reverse();
            return Some(path);
        }
        for c in dtd.children_of(x) {
            if seen.insert(c) {
                prev[c.index()] = Some(x);
                queue.push_back(c);
            }
        }
    }
    None
}

/// Def. 4.3(1): every root-reachable content model is \*-guarded —
/// `None` iff the property holds. Scans names in id order, so the
/// witness is deterministic.
pub fn star_guard_witness(dtd: &Dtd) -> Option<StarGuardWitness> {
    let reachable = dtd.reachable_from_root();
    let resolve = |n: NameId| dtd.label(n).to_string();
    for n in dtd.all_names().filter(|&n| reachable.contains(n)) {
        let Content::Element(re) = &dtd.info(n).content else {
            continue;
        };
        if let Some(factor) = re.star_guard_offender() {
            return Some(StarGuardWitness {
                name: n,
                factor: factor.display(&resolve).to_string(),
                content: re.display(&resolve).to_string(),
            });
        }
    }
    None
}

/// Def. 4.3(2): no root-reachable name reaches itself — a concrete
/// root-reachable cycle, or `None` iff the DTD is non-recursive.
pub fn recursion_witness(dtd: &Dtd) -> Option<RecursionWitness> {
    let reachable = dtd.reachable_from_root();
    let n = dtd
        .all_names()
        .filter(|&n| reachable.contains(n))
        .find(|&n| dtd.descendants_of(n).contains(n))?;
    let cycle = shortest_chain(dtd, n, n).expect("n ⇒E⁺ n implies a cycle exists");
    Some(RecursionWitness { cycle })
}

/// Def. 4.3(3), conservative: for root-reachable `Y` with `Y ⇒E Z`,
/// `Z` must not also be reachable from `Y` through at least one
/// intermediate name (`Y`'s own recursion counts: `Y ⇒E⁺ Y ⇒E Z` makes
/// the parent of `Z` ambiguous in depth). `None` iff the property holds.
pub fn parent_ambiguity_witness(dtd: &Dtd) -> Option<ParentAmbiguityWitness> {
    let reachable = dtd.reachable_from_root();
    for y in dtd.all_names() {
        if !reachable.contains(y) {
            continue;
        }
        for z in dtd.children_of(y) {
            for w in dtd.parents_of(z) {
                if w != y && dtd.descendants_of(y).contains(w) {
                    let chain =
                        shortest_chain(dtd, y, w).expect("w ∈ descendants(y) implies a chain");
                    return Some(ParentAmbiguityWitness {
                        child: z,
                        direct: y,
                        distant: w,
                        chain,
                    });
                }
            }
            if dtd.descendants_of(y).contains(y) {
                let chain = shortest_chain(dtd, y, y).expect("y ⇒E⁺ y implies a cycle");
                return Some(ParentAmbiguityWitness {
                    child: z,
                    direct: y,
                    distant: y,
                    chain,
                });
            }
        }
    }
    None
}

/// All three Def. 4.3 verdicts with witnesses. A `None` field means the
/// property holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DtdDiagnostics {
    /// Def. 4.3(1) failure, if any.
    pub star_guard: Option<StarGuardWitness>,
    /// Def. 4.3(2) failure, if any.
    pub recursion: Option<RecursionWitness>,
    /// Def. 4.3(3) failure (conservative check), if any.
    pub parent_ambiguity: Option<ParentAmbiguityWitness>,
}

impl DtdDiagnostics {
    /// The boolean summary these witnesses refine.
    pub fn properties(&self) -> DtdProperties {
        DtdProperties {
            star_guarded: self.star_guard.is_none(),
            non_recursive: self.recursion.is_none(),
            parent_unambiguous: self.parent_ambiguity.is_none(),
        }
    }

    /// True when the DTD-side preconditions of Thm. 4.7 all hold.
    pub fn completeness_ready(&self) -> bool {
        self.properties().completeness_ready()
    }
}

/// Computes all three witness-level verdicts.
pub fn diagnostics(dtd: &Dtd) -> DtdDiagnostics {
    DtdDiagnostics {
        star_guard: star_guard_witness(dtd),
        recursion: recursion_witness(dtd),
        parent_ambiguity: parent_ambiguity_witness(dtd),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_dtd;

    #[test]
    fn books_is_well_behaved() {
        let d = parse_dtd(
            "<!ELEMENT bib (book*)>\
             <!ELEMENT book (title, author+)>\
             <!ELEMENT title (#PCDATA)>\
             <!ELEMENT author (#PCDATA)>",
            "bib",
        )
        .unwrap();
        let p = properties(&d);
        assert!(p.star_guarded);
        assert!(p.non_recursive);
        assert!(p.parent_unambiguous);
        assert!(p.completeness_ready());
    }

    #[test]
    fn unguarded_union_detected() {
        // The paper's incompleteness example: X → c[Y | Z]
        let d = parse_dtd(
            "<!ELEMENT c (a | b)>\
             <!ELEMENT a (#PCDATA)>\
             <!ELEMENT b (#PCDATA)>",
            "c",
        )
        .unwrap();
        let p = properties(&d);
        assert!(!p.star_guarded);
        assert!(p.non_recursive);
    }

    #[test]
    fn recursion_detected() {
        // Y → a[Y*, String]
        let d = parse_dtd(
            "<!ELEMENT c (a)> <!ELEMENT a (a*, b)> <!ELEMENT b EMPTY>",
            "c",
        )
        .unwrap();
        let p = properties(&d);
        assert!(!p.non_recursive);
        assert!(!p.parent_unambiguous); // a is its own ancestor-parent
    }

    #[test]
    fn parent_ambiguity_detected() {
        // Paper §4.1 example: {X → a[Y,Z], Y → b[Z], Z → c[]} — Z's parent
        // can be X (depth 1) or Y (depth 2) along the same chain prefix.
        let d = parse_dtd(
            "<!ELEMENT a (b, c)> <!ELEMENT b (c)> <!ELEMENT c EMPTY>",
            "a",
        )
        .unwrap();
        let p = properties(&d);
        assert!(!p.parent_unambiguous);
        assert!(p.star_guarded && p.non_recursive);
    }

    #[test]
    fn running_example_properties() {
        // {X → c[Y,Z], Y → a[W,String], Z → b[String], W → d[Y?]} — recursive
        let d = parse_dtd(
            "<!ELEMENT c (a, b)>\
             <!ELEMENT a (d, #PCDATA)>\
             <!ELEMENT b (#PCDATA)>\
             <!ELEMENT d (a?)>",
            "c",
        )
        .unwrap();
        let p = properties(&d);
        assert!(!p.non_recursive);
    }

    #[test]
    fn unreachable_names_ignored() {
        let d = parse_dtd("<!ELEMENT a EMPTY> <!ELEMENT junk (junk)>", "a").unwrap();
        // junk is recursive but unreachable from the root
        assert!(recursion_witness(&d).is_none());
        assert!(diagnostics(&d).completeness_ready());
    }

    #[test]
    fn star_guard_witness_names_the_factor() {
        let d = parse_dtd(
            "<!ELEMENT c (x, (a | b))>\
             <!ELEMENT x EMPTY>\
             <!ELEMENT a (#PCDATA)>\
             <!ELEMENT b (#PCDATA)>",
            "c",
        )
        .unwrap();
        let w = star_guard_witness(&d).expect("unguarded union");
        assert_eq!(d.label(w.name), "c");
        assert_eq!(w.factor, "(a | b)");
        assert_eq!(w.content, "(x, (a | b))");
        // A starred union is guarded: no witness.
        let ok = parse_dtd(
            "<!ELEMENT c (x, (a | b)*)>\
             <!ELEMENT x EMPTY>\
             <!ELEMENT a (#PCDATA)>\
             <!ELEMENT b (#PCDATA)>",
            "c",
        )
        .unwrap();
        assert!(star_guard_witness(&ok).is_none());
    }

    #[test]
    fn recursion_witness_is_a_cycle() {
        let d = parse_dtd("<!ELEMENT c (a)> <!ELEMENT a (b?)> <!ELEMENT b (a*)>", "c").unwrap();
        let w = recursion_witness(&d).expect("a and b are mutually recursive");
        let labels: Vec<&str> = w.cycle.iter().map(|&n| d.label(n)).collect();
        assert_eq!(labels, ["a", "b", "a"]);
        assert!(crate::chains::is_chain(&d, &w.cycle));
    }

    #[test]
    fn parent_ambiguity_witness_names_the_pair() {
        // a ⇒ c directly and a ⇒ b ⇒ c: c's parent depth is ambiguous.
        let d = parse_dtd(
            "<!ELEMENT a (b, c)> <!ELEMENT b (c)> <!ELEMENT c EMPTY>",
            "a",
        )
        .unwrap();
        let w = parent_ambiguity_witness(&d).expect("ambiguous parent");
        assert_eq!(d.label(w.child), "c");
        assert_eq!(d.label(w.direct), "a");
        assert_eq!(d.label(w.distant), "b");
        let labels: Vec<&str> = w.chain.iter().map(|&n| d.label(n)).collect();
        assert_eq!(labels, ["a", "b"]);
        assert!(crate::chains::is_chain(&d, &w.chain));
    }

    #[test]
    fn parent_ambiguity_witness_self_recursion() {
        let d = parse_dtd("<!ELEMENT a (a?, b?)> <!ELEMENT b EMPTY>", "a").unwrap();
        let w = parent_ambiguity_witness(&d).expect("recursion makes parents ambiguous");
        assert_eq!(w.direct, w.distant);
        assert_eq!(w.chain.first(), w.chain.last());
        assert!(w.chain.len() >= 2);
    }
}
