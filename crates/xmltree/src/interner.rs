//! String interning for element tags and attribute names.
//!
//! A DTD is a *local* tree grammar, so element tags are in bijection with
//! grammar names; interning tags to dense ids makes the keep/discard
//! decision of the pruner a single array lookup.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A dense identifier for an interned tag (element or attribute name).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagId(pub u32);

impl TagId {
    /// Index into per-tag side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TagId({})", self.0)
    }
}

/// A bidirectional map between strings and dense [`TagId`]s.
///
/// Ids are handed out in first-seen order starting at 0 and are never
/// reused, so `len()` is also the next id. Clones share the names until
/// one of them interns a name it has not seen: a document built from a
/// grammar's interner copies it only if the document names something
/// the grammar does not.
#[derive(Default, Clone)]
pub struct Interner {
    shared: Arc<Names>,
}

#[derive(Default, Clone)]
struct Names {
    map: HashMap<Box<str>, TagId>,
    names: Vec<Box<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id (existing or fresh).
    pub fn intern(&mut self, name: &str) -> TagId {
        if let Some(id) = self.get(name) {
            return id;
        }
        let shared = Arc::make_mut(&mut self.shared);
        let id = TagId(shared.names.len() as u32);
        let boxed: Box<str> = name.into();
        shared.names.push(boxed.clone());
        shared.map.insert(boxed, id);
        id
    }

    /// Looks up a previously interned name without inserting.
    pub fn get(&self, name: &str) -> Option<TagId> {
        self.shared.map.get(name).copied()
    }

    /// Returns the string for `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: TagId) -> &str {
        &self.shared.names[id.index()]
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.shared.names.len()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.shared.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TagId, &str)> {
        self.shared
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (TagId(i as u32), n.as_ref()))
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.shared.names.iter().enumerate())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("book");
        let b = i.intern("book");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        let c = i.intern("c");
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        assert_eq!(i.resolve(b), "b");
    }

    #[test]
    fn get_does_not_insert() {
        let mut i = Interner::new();
        assert!(i.get("x").is_none());
        i.intern("x");
        assert_eq!(i.get("x"), Some(TagId(0)));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn clones_share_names_until_one_interns_a_new_one() {
        let mut grammar = Interner::new();
        grammar.intern("a");
        let mut doc = grammar.clone();
        assert_eq!(doc.intern("a"), TagId(0));
        assert!(Arc::ptr_eq(&grammar.shared, &doc.shared));
        assert_eq!(doc.intern("b"), TagId(1));
        assert!(!Arc::ptr_eq(&grammar.shared, &doc.shared));
        assert_eq!((grammar.len(), grammar.get("b")), (1, None));
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut i = Interner::new();
        i.intern("one");
        i.intern("two");
        let v: Vec<_> = i.iter().map(|(id, n)| (id.0, n.to_string())).collect();
        assert_eq!(v, vec![(0, "one".to_string()), (1, "two".to_string())]);
    }
}
