//! Dense name identifiers and bitset sets of names.
//!
//! Every set manipulated by the static analysis — types τ, contexts κ,
//! projectors π — is a set of DTD names. With names interned to dense ids,
//! all the operations of Figure 1 (unions for downward axes, intersections
//! for upward axes and contexts) become word-wise bit operations.

use std::fmt;

/// Identifier of a DTD name (non-terminal). Dense, starting at 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

impl NameId {
    /// Index into per-name side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Universes of up to `64 × INLINE_WORDS` names keep their bits inline.
const INLINE_WORDS: usize = 4;

/// A set of [`NameId`]s over a fixed universe, stored as a bitset.
///
/// All binary operations require both operands to share the same universe
/// size (debug-asserted). Over a universe of at most 256 names the bits
/// live inline, so creating or copying a set allocates nothing — the
/// inference makes one per set operation.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct NameSet {
    words: Words,
    universe: u32,
}

/// The representation is a function of the universe, and the inline
/// words past the universe stay zero, so the derived `Eq`/`Hash` agree
/// with set equality.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

impl NameSet {
    /// The largest universe whose sets keep their bits inline; sets over
    /// a larger one allocate.
    pub const INLINE_NAMES: usize = 64 * INLINE_WORDS;

    /// The empty set over a universe of `universe` names.
    pub fn empty(universe: usize) -> Self {
        let n = universe.div_ceil(64);
        let words = if n <= INLINE_WORDS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0u64; n].into_boxed_slice())
        };
        NameSet {
            words,
            universe: universe as u32,
        }
    }

    /// The bit words. Inline ones are all of them: those past the
    /// universe are zero in every set, so whole-array operations keep
    /// them zero.
    #[inline]
    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    /// A singleton set.
    pub fn singleton(universe: usize, n: NameId) -> Self {
        let mut s = Self::empty(universe);
        s.insert(n);
        s
    }

    /// Builds a set from an iterator of names.
    pub fn from_iter(universe: usize, names: impl IntoIterator<Item = NameId>) -> Self {
        let mut s = Self::empty(universe);
        for n in names {
            s.insert(n);
        }
        s
    }

    /// Universe size this set ranges over.
    pub fn universe(&self) -> usize {
        self.universe as usize
    }

    /// Inserts `n`; returns whether it was newly inserted.
    pub fn insert(&mut self, n: NameId) -> bool {
        debug_assert!(n.0 < self.universe);
        let w = &mut self.words_mut()[n.index() / 64];
        let bit = 1u64 << (n.index() % 64);
        let new = *w & bit == 0;
        *w |= bit;
        new
    }

    /// Removes `n`; returns whether it was present.
    pub fn remove(&mut self, n: NameId) -> bool {
        debug_assert!(n.0 < self.universe);
        let w = &mut self.words_mut()[n.index() / 64];
        let bit = 1u64 << (n.index() % 64);
        let present = *w & bit != 0;
        *w &= !bit;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, n: NameId) -> bool {
        if n.0 >= self.universe {
            return false;
        }
        self.words()[n.index() / 64] & (1u64 << (n.index() % 64)) != 0
    }

    /// Number of names in the set.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no name is present.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &NameSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words_mut().iter_mut().zip(other.words().iter()) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &NameSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words_mut().iter_mut().zip(other.words().iter()) {
            *a &= b;
        }
    }

    /// Removes every member of `other`, in place (`self \ other`).
    pub fn difference_with(&mut self, other: &NameSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words_mut().iter_mut().zip(other.words().iter()) {
            *a &= !b;
        }
    }

    /// Fresh union.
    pub fn union(&self, other: &NameSet) -> NameSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Fresh intersection.
    pub fn intersection(&self, other: &NameSet) -> NameSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// True if `self ⊆ other`.
    pub fn is_subset(&self, other: &NameSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.words()
            .iter()
            .zip(other.words().iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the members in increasing id order.
    pub fn iter(&self) -> NameSetIter<'_> {
        let words = self.words();
        NameSetIter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl fmt::Debug for NameSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over a [`NameSet`]'s members.
pub struct NameSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for NameSetIter<'_> {
    type Item = NameId;
    fn next(&mut self) -> Option<NameId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros();
                self.current &= self.current - 1;
                return Some(NameId((self.word_idx * 64) as u32 + bit));
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a NameSet {
    type Item = NameId;
    type IntoIter = NameSetIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = NameSet::empty(100);
        assert!(s.insert(NameId(7)));
        assert!(!s.insert(NameId(7)));
        assert!(s.contains(NameId(7)));
        assert!(!s.contains(NameId(8)));
        assert!(s.remove(NameId(7)));
        assert!(!s.remove(NameId(7)));
        assert!(s.is_empty());
    }

    #[test]
    fn set_algebra() {
        let a = NameSet::from_iter(130, [NameId(0), NameId(64), NameId(129)]);
        let b = NameSet::from_iter(130, [NameId(64), NameId(65)]);
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersection(&b).len(), 1);
        assert!(a.intersection(&b).contains(NameId(64)));
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.len(), 2);
        assert!(d.intersection(&b).is_empty());
    }

    #[test]
    fn subset() {
        let a = NameSet::from_iter(10, [NameId(1), NameId(2)]);
        let b = NameSet::from_iter(10, [NameId(1), NameId(2), NameId(3)]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(NameSet::empty(10).is_subset(&a));
    }

    #[test]
    fn iteration_order() {
        let s = NameSet::from_iter(200, [NameId(199), NameId(0), NameId(63), NameId(64)]);
        let v: Vec<u32> = s.iter().map(|n| n.0).collect();
        assert_eq!(v, vec![0, 63, 64, 199]);
    }

    #[test]
    fn inline_and_heap_sets_agree() {
        for universe in [2, 64, 256, 257, 1000] {
            let last = NameId(universe as u32 - 1);
            let a = NameSet::from_iter(universe, [NameId(0), last]);
            let mut b = NameSet::singleton(universe, last);
            assert_ne!(a, b);
            b.insert(NameId(0));
            assert_eq!(a, b);
            assert_eq!(a.iter().collect::<Vec<_>>(), vec![NameId(0), last]);
        }
    }

    #[test]
    fn empty_universe() {
        let s = NameSet::empty(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
