//! The arena document: ordered trees with stable node identifiers.
//!
//! Invariant maintained by every constructor in this workspace (parser,
//! builders, generator, pruner): **arena order equals document order**.
//! Children are always appended left-to-right under an already-present
//! parent, so comparing two [`NodeId`]s compares document positions.
//!
//! Node 0 is always a synthetic *document node* (the XPath root `/`); the
//! root element, when present, is its only element child.

use crate::interner::{Interner, TagId};
use std::fmt;
use std::fmt::Write as _;

/// Identifier of a node inside a [`Document`] arena.
///
/// Identifiers are dense indices; `NodeId(0)` is the document node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The synthetic document node present in every document.
    pub const DOCUMENT: NodeId = NodeId(0);

    /// Index into the node arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

const NIL: u32 = u32::MAX;

/// One attribute of an element: interned name plus value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attribute {
    /// Interned attribute name.
    pub name: TagId,
    /// Attribute value with entities already resolved.
    pub value: Box<str>,
}

/// The payload of a node.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeKind {
    /// The synthetic root of the tree (XPath document node).
    Document,
    /// An element with an interned tag and its attributes.
    Element {
        /// Interned element name.
        tag: TagId,
        /// Attributes in document order.
        attrs: Box<[Attribute]>,
    },
    /// A text leaf.
    Text(Box<str>),
}

/// A node record: payload plus structural links into the arena.
#[derive(Clone, Debug)]
pub struct Node {
    /// Payload.
    pub kind: NodeKind,
    parent: u32,
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
    prev_sibling: u32,
}

/// An ordered XML tree stored as a flat arena (paper §2.1).
///
/// Every node has a unique identifier ([`NodeId`]); the paper's
/// well-formedness of forests (Def. 2.2) holds by construction. The
/// parallel `src_ids` table records, for documents produced by pruning,
/// which node of the *original* document each node came from — this is how
/// the test suite checks the soundness property `[[Q]](t \ π) = [[Q]](t)`
/// across differently-numbered arenas.
#[derive(Clone)]
pub struct Document {
    nodes: Vec<Node>,
    /// Interner for element and attribute names.
    pub tags: Interner,
    src_ids: Vec<NodeId>,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Creates a document containing only the document node.
    pub fn new() -> Self {
        Document {
            nodes: vec![Node {
                kind: NodeKind::Document,
                parent: NIL,
                first_child: NIL,
                last_child: NIL,
                next_sibling: NIL,
                prev_sibling: NIL,
            }],
            tags: Interner::new(),
            src_ids: vec![NodeId::DOCUMENT],
        }
    }

    /// Creates a document reusing an existing interner (so tag ids are
    /// shared with, e.g., a DTD that interned its element names first).
    pub fn with_interner(tags: Interner) -> Self {
        let mut d = Document::new();
        d.tags = tags;
        d
    }

    /// Number of nodes, including the document node.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the document node exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The root element (the unique element child of the document node).
    pub fn root_element(&self) -> Option<NodeId> {
        self.children(NodeId::DOCUMENT)
            .find(|&n| self.is_element(n))
    }

    /// Appends a new element as the last child of `parent`.
    pub fn push_element(&mut self, parent: NodeId, tag: TagId) -> NodeId {
        self.push_node(
            parent,
            NodeKind::Element {
                tag,
                attrs: Box::new([]),
            },
        )
    }

    /// Appends a new element with attributes as the last child of `parent`.
    pub fn push_element_with_attrs(
        &mut self,
        parent: NodeId,
        tag: TagId,
        attrs: Vec<Attribute>,
    ) -> NodeId {
        self.push_node(
            parent,
            NodeKind::Element {
                tag,
                attrs: attrs.into_boxed_slice(),
            },
        )
    }

    /// Interns `tag` and appends an element under `parent`.
    pub fn push_named_element(&mut self, parent: NodeId, tag: &str) -> NodeId {
        let t = self.tags.intern(tag);
        self.push_element(parent, t)
    }

    /// Appends a text node as the last child of `parent`.
    pub fn push_text(&mut self, parent: NodeId, text: &str) -> NodeId {
        self.push_node(parent, NodeKind::Text(text.into()))
    }

    fn push_node(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        debug_assert!(parent.index() < self.nodes.len(), "parent must exist");
        // The arena-order-equals-document-order invariant (see the module
        // docs) requires appending to the most recently opened subtree:
        // the parent must lie on the rightmost path of the tree.
        debug_assert!(
            self.on_rightmost_path(parent),
            "children must be appended in document order (parent {parent:?} \
             is not on the rightmost path)"
        );
        let id = NodeId(self.nodes.len() as u32);
        let prev = self.nodes[parent.index()].last_child;
        self.nodes.push(Node {
            kind,
            parent: parent.0,
            first_child: NIL,
            last_child: NIL,
            next_sibling: NIL,
            prev_sibling: prev,
        });
        let p = &mut self.nodes[parent.index()];
        if p.first_child == NIL {
            p.first_child = id.0;
        }
        p.last_child = id.0;
        if prev != NIL {
            self.nodes[prev as usize].next_sibling = id.0;
        }
        self.src_ids.push(id);
        id
    }

    fn on_rightmost_path(&self, n: NodeId) -> bool {
        let mut cur = NodeId::DOCUMENT;
        loop {
            if cur == n {
                return true;
            }
            match self.last_child(cur) {
                Some(c) => cur = c,
                None => return false,
            }
        }
    }

    /// Records that node `n` of this document corresponds to node `src`
    /// of an original document (used by the pruner).
    pub fn set_src_id(&mut self, n: NodeId, src: NodeId) {
        self.src_ids[n.index()] = src;
    }

    /// The original-document identifier of `n` (identity unless pruned).
    pub fn src_id(&self, n: NodeId) -> NodeId {
        self.src_ids[n.index()]
    }

    /// Node payload.
    pub fn kind(&self, n: NodeId) -> &NodeKind {
        &self.nodes[n.index()].kind
    }

    /// True if `n` is an element node.
    pub fn is_element(&self, n: NodeId) -> bool {
        matches!(self.nodes[n.index()].kind, NodeKind::Element { .. })
    }

    /// True if `n` is a text node.
    pub fn is_text(&self, n: NodeId) -> bool {
        matches!(self.nodes[n.index()].kind, NodeKind::Text(_))
    }

    /// The tag of `n` if it is an element.
    pub fn tag(&self, n: NodeId) -> Option<TagId> {
        match &self.nodes[n.index()].kind {
            NodeKind::Element { tag, .. } => Some(*tag),
            _ => None,
        }
    }

    /// The tag name of `n` if it is an element.
    pub fn tag_name(&self, n: NodeId) -> Option<&str> {
        self.tag(n).map(|t| self.tags.resolve(t))
    }

    /// The text content of `n` if it is a text node.
    pub fn text(&self, n: NodeId) -> Option<&str> {
        match &self.nodes[n.index()].kind {
            NodeKind::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The attributes of `n` (empty for non-elements).
    pub fn attributes(&self, n: NodeId) -> &[Attribute] {
        match &self.nodes[n.index()].kind {
            NodeKind::Element { attrs, .. } => attrs,
            _ => &[],
        }
    }

    /// Looks up an attribute value by interned name.
    pub fn attribute(&self, n: NodeId, name: TagId) -> Option<&str> {
        self.attributes(n)
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_ref())
    }

    /// Parent node, `None` for the document node.
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        opt(self.nodes[n.index()].parent)
    }

    /// First child.
    pub fn first_child(&self, n: NodeId) -> Option<NodeId> {
        opt(self.nodes[n.index()].first_child)
    }

    /// Last child.
    pub fn last_child(&self, n: NodeId) -> Option<NodeId> {
        opt(self.nodes[n.index()].last_child)
    }

    /// Next sibling.
    pub fn next_sibling(&self, n: NodeId) -> Option<NodeId> {
        opt(self.nodes[n.index()].next_sibling)
    }

    /// Previous sibling.
    pub fn prev_sibling(&self, n: NodeId) -> Option<NodeId> {
        opt(self.nodes[n.index()].prev_sibling)
    }

    /// Iterates over the children of `n` in document order.
    pub fn children(&self, n: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: self.first_child(n),
        }
    }

    /// Iterates over strict descendants of `n` in document order.
    pub fn descendants(&self, n: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            root: n,
            next: self.first_child(n),
        }
    }

    /// Iterates over strict ancestors of `n`, nearest first.
    pub fn ancestors(&self, n: NodeId) -> Ancestors<'_> {
        Ancestors {
            doc: self,
            next: self.parent(n),
        }
    }

    /// Nodes in the subtree of `n`, `n` included, in O(depth): arena
    /// order is document order, so the subtree is the run of ids up to
    /// the next node that is not a descendant.
    pub fn subtree_len(&self, n: NodeId) -> usize {
        let mut at = n;
        loop {
            if let Some(s) = self.next_sibling(at) {
                return s.index() - n.index();
            }
            match self.parent(at) {
                Some(p) => at = p,
                None => return self.len() - n.index(),
            }
        }
    }

    /// Depth of `n` (document node has depth 0).
    pub fn depth(&self, n: NodeId) -> usize {
        self.ancestors(n).count()
    }

    /// XPath string value: concatenation of all text descendants
    /// (or the node's own text).
    pub fn string_value(&self, n: NodeId) -> String {
        match &self.nodes[n.index()].kind {
            NodeKind::Text(s) => s.to_string(),
            _ => {
                let mut out = String::new();
                for d in self.descendants(n) {
                    if let NodeKind::Text(s) = &self.nodes[d.index()].kind {
                        out.push_str(s);
                    }
                }
                out
            }
        }
    }

    /// Iterates over every node id in document order (including the
    /// document node).
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Serializes the whole document (children of the document node).
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(self.nodes.len() * 16);
        for c in self.children(NodeId::DOCUMENT) {
            self.write_subtree(c, &mut out);
        }
        out
    }

    /// Serializes the subtree rooted at `n`.
    pub fn subtree_to_xml(&self, n: NodeId) -> String {
        let mut out = String::new();
        self.write_subtree(n, &mut out);
        out
    }

    fn write_subtree(&self, n: NodeId, out: &mut String) {
        match &self.nodes[n.index()].kind {
            NodeKind::Document => {
                for c in self.children(n) {
                    self.write_subtree(c, out);
                }
            }
            NodeKind::Text(s) => escape_text(s, out),
            NodeKind::Element { tag, attrs } => {
                let name = self.tags.resolve(*tag);
                out.push('<');
                out.push_str(name);
                for a in attrs.iter() {
                    let _ = write!(out, " {}=\"", self.tags.resolve(a.name));
                    escape_attr(&a.value, out);
                    out.push('"');
                }
                if self.first_child(n).is_none() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    for c in self.children(n) {
                        self.write_subtree(c, out);
                    }
                    out.push_str("</");
                    out.push_str(name);
                    out.push('>');
                }
            }
        }
    }

    /// Counts element nodes.
    pub fn element_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Element { .. }))
            .count()
    }
}

impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Document({} nodes)", self.nodes.len())
    }
}

#[inline]
fn opt(raw: u32) -> Option<NodeId> {
    if raw == NIL {
        None
    } else {
        Some(NodeId(raw))
    }
}

/// Escapes character data for element content.
///
/// Scans for the next special byte and bulk-copies the clean run
/// before it, so text with no markup characters (the common case) is a
/// single `push_str`.
pub fn escape_text(s: &str, out: &mut String) {
    escape_runs(s, out, b'<', b'>', b'&', |b| match b {
        b'<' => "&lt;",
        b'>' => "&gt;",
        _ => "&amp;",
    });
}

/// Escapes character data for a double-quoted attribute value.
pub fn escape_attr(s: &str, out: &mut String) {
    escape_runs(s, out, b'<', b'&', b'"', |b| match b {
        b'<' => "&lt;",
        b'"' => "&quot;",
        _ => "&amp;",
    });
}

/// Shared run-copying escape loop: bulk-scan to the next special byte,
/// copy the clean run before it in one `push_str`. The special set is
/// pure ASCII, so slicing at special-byte positions always lands on
/// char boundaries.
fn escape_runs(
    s: &str,
    out: &mut String,
    s1: u8,
    s2: u8,
    s3: u8,
    escape: impl Fn(u8) -> &'static str,
) {
    let bytes = s.as_bytes();
    let mut start = 0;
    while let Some(j) = crate::scan::memchr3(s1, s2, s3, &bytes[start..]) {
        let i = start + j;
        out.push_str(&s[start..i]);
        out.push_str(escape(bytes[i]));
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// Iterator over the children of a node.
pub struct Children<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.doc.next_sibling(cur);
        Some(cur)
    }
}

/// Iterator over strict descendants in document order.
pub struct Descendants<'a> {
    doc: &'a Document,
    root: NodeId,
    next: Option<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        // Pre-order successor constrained to the subtree under `root`.
        self.next = if let Some(c) = self.doc.first_child(cur) {
            Some(c)
        } else {
            let mut at = cur;
            loop {
                if at == self.root {
                    break None;
                }
                if let Some(s) = self.doc.next_sibling(at) {
                    break Some(s);
                }
                match self.doc.parent(at) {
                    Some(p) if p != self.root => at = p,
                    _ => break None,
                }
            }
        };
        Some(cur)
    }
}

/// Iterator over strict ancestors, nearest first.
pub struct Ancestors<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.doc.parent(cur);
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId, NodeId) {
        // <a><b>hi</b><c/></a>
        let mut d = Document::new();
        let a = d.push_named_element(NodeId::DOCUMENT, "a");
        let b = d.push_named_element(a, "b");
        let t = d.push_text(b, "hi");
        let c = d.push_named_element(a, "c");
        (d, a, b, t, c)
    }

    #[test]
    fn structure_links() {
        let (d, a, b, t, c) = sample();
        assert_eq!(d.root_element(), Some(a));
        assert_eq!(d.parent(b), Some(a));
        assert_eq!(d.parent(a), Some(NodeId::DOCUMENT));
        assert_eq!(d.first_child(a), Some(b));
        assert_eq!(d.last_child(a), Some(c));
        assert_eq!(d.next_sibling(b), Some(c));
        assert_eq!(d.prev_sibling(c), Some(b));
        assert_eq!(d.first_child(b), Some(t));
        assert_eq!(d.children(a).collect::<Vec<_>>(), vec![b, c]);
    }

    #[test]
    fn descendants_in_document_order() {
        let (d, a, b, t, c) = sample();
        assert_eq!(d.descendants(a).collect::<Vec<_>>(), vec![b, t, c]);
        assert_eq!(
            d.descendants(NodeId::DOCUMENT).collect::<Vec<_>>(),
            vec![a, b, t, c]
        );
        assert_eq!(d.descendants(c).count(), 0);
    }

    #[test]
    fn subtree_len_counts_the_node_and_its_descendants() {
        let (d, a, b, t, c) = sample();
        for n in [NodeId::DOCUMENT, a, b, t, c] {
            assert_eq!(d.subtree_len(n), 1 + d.descendants(n).count(), "{n:?}");
        }
    }

    #[test]
    fn ancestors_nearest_first() {
        let (d, a, b, t, _) = sample();
        assert_eq!(
            d.ancestors(t).collect::<Vec<_>>(),
            vec![b, a, NodeId::DOCUMENT]
        );
        assert_eq!(d.depth(t), 3);
    }

    #[test]
    fn string_value_concatenates_descendant_text() {
        let (d, a, b, _, c) = sample();
        assert_eq!(d.string_value(a), "hi");
        assert_eq!(d.string_value(b), "hi");
        assert_eq!(d.string_value(c), "");
    }

    #[test]
    fn serialization_round_shape() {
        let (d, _, _, _, _) = sample();
        assert_eq!(d.to_xml(), "<a><b>hi</b><c/></a>");
    }

    #[test]
    fn escaping() {
        let mut d = Document::new();
        let a = d.push_named_element(NodeId::DOCUMENT, "a");
        d.push_text(a, "x < y & z");
        let id = d.tags.intern("id");
        d.push_element_with_attrs(
            a,
            d.tags.get("a").unwrap(),
            vec![Attribute {
                name: id,
                value: "say \"hi\"".into(),
            }],
        );
        assert_eq!(
            d.to_xml(),
            "<a>x &lt; y &amp; z<a id=\"say &quot;hi&quot;\"/></a>"
        );
    }

    #[test]
    fn arena_order_is_document_order() {
        let (d, _, _, _, _) = sample();
        let order: Vec<NodeId> = d.descendants(NodeId::DOCUMENT).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
    }

    #[test]
    fn src_ids_default_to_identity() {
        let (d, a, _, _, _) = sample();
        assert_eq!(d.src_id(a), a);
    }
}
