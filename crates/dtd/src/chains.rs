//! Chains of names (paper Def. 2.5/2.6): strings `Y X₁ … Xₙ` with
//! `Y ⇒E X₁ ⇒E … ⇒E Xₙ`.
//!
//! `Chains(X,E)(Y)` is infinite for recursive DTDs, so the API offers
//! the decision procedures the definitions need: is a given word a
//! chain, and is a set of names chain-closed (i.e., a type projector in
//! the sense of Def. 2.6).

use crate::grammar::Dtd;
use crate::nameset::{NameId, NameSet};

/// Checks `Y ⇒E X₁ ⇒E … ⇒E Xₙ` for the word `chain`.
pub fn is_chain(dtd: &Dtd, chain: &[NameId]) -> bool {
    if chain.is_empty() {
        return false;
    }
    chain
        .windows(2)
        .all(|w| dtd.children_of(w[0]).contains(w[1]))
}

/// Def. 2.6: is `names` a type projector — the union of the name-sets of
/// some set of root-rooted chains? Equivalent (for finite checks) to:
/// every member is reachable from the root through members only.
pub fn is_projector_set(dtd: &Dtd, names: &NameSet) -> bool {
    if names.is_empty() {
        return true;
    }
    if !names.contains(dtd.root()) {
        return false;
    }
    let mut reach = dtd.singleton(dtd.root());
    let mut stack = vec![dtd.root()];
    while let Some(x) = stack.pop() {
        for y in dtd.children_of(x) {
            if names.contains(y) && reach.insert(y) {
                stack.push(y);
            }
        }
    }
    names.is_subset(&reach)
}

/// Pretty-prints a chain with DTD labels.
pub fn chain_labels(dtd: &Dtd, chain: &[NameId]) -> String {
    chain
        .iter()
        .map(|&n| dtd.label(n))
        .collect::<Vec<_>>()
        .join(" → ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_dtd;

    fn dtd() -> Dtd {
        parse_dtd(
            "<!ELEMENT a (b, c)> <!ELEMENT b (d?)> <!ELEMENT c EMPTY> <!ELEMENT d EMPTY>",
            "a",
        )
        .unwrap()
    }

    #[test]
    fn chain_membership() {
        let d = dtd();
        let a = d.name_of_tag_str("a").unwrap();
        let b = d.name_of_tag_str("b").unwrap();
        let c = d.name_of_tag_str("c").unwrap();
        let dd = d.name_of_tag_str("d").unwrap();
        assert!(is_chain(&d, &[a, b, dd]));
        assert!(is_chain(&d, &[a, c]));
        assert!(is_chain(&d, &[b]));
        assert!(!is_chain(&d, &[a, dd])); // d is not a child of a
        assert!(!is_chain(&d, &[]));
    }

    #[test]
    fn projector_set_characterisation() {
        let d = dtd();
        let a = d.name_of_tag_str("a").unwrap();
        let b = d.name_of_tag_str("b").unwrap();
        let dd = d.name_of_tag_str("d").unwrap();
        assert!(is_projector_set(&d, &d.empty_set()));
        assert!(is_projector_set(&d, &d.set_of([a])));
        assert!(is_projector_set(&d, &d.set_of([a, b, dd])));
        // gaps break the chain property
        assert!(!is_projector_set(&d, &d.set_of([a, dd])));
        assert!(!is_projector_set(&d, &d.set_of([b])));
    }

    #[test]
    fn labels_render() {
        let d = dtd();
        let a = d.name_of_tag_str("a").unwrap();
        let b = d.name_of_tag_str("b").unwrap();
        assert_eq!(chain_labels(&d, &[a, b]), "a → b");
    }
}
