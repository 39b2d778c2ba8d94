//! Tree parser: builds a [`Document`] from XML events — the
//! [`TreeBuilder`] sink, under the one token loop in [`crate::push`] or
//! under a pruning pass that hands it only the events it keeps
//! ([`KeptEvents`], which a `String` implements by rendering them).

use crate::document::{escape_attr, escape_text, Attribute, Document, Node, NodeId};
use crate::entities::decode_entities;
use crate::interner::Interner;
use crate::push::{drain_str, is_xml_space, RawAttrs, TokenSink};

pub use crate::entities::ParseError;

/// Parses `input` into a [`Document`] with a fresh interner.
pub fn parse(input: &str) -> Result<Document, ParseError> {
    parse_with_interner(input, Interner::new())
}

/// Parses `input` into a [`Document`] that reuses `tags`, so the
/// document shares tag ids with, e.g., a DTD that interned its names
/// first.
pub fn parse_with_interner(input: &str, tags: Interner) -> Result<Document, ParseError> {
    let mut builder = TreeBuilder::new(tags);
    drain_str(input, &mut builder, false)?;
    Ok(builder.finish())
}

/// Where a pruning pass sends the events it keeps (`xproj_core`'s
/// `PruneMachine` decides keep or discard, once): rendered as bytes into
/// a `String`, or built into nodes by a [`TreeBuilder`]. `open` says the
/// innermost kept element has had no kept child yet, which a rendering
/// needs to close its start tag (`>`) or the element (`/>`), and a tree
/// ignores.
pub trait KeptEvents {
    /// A kept start tag, `attrs_raw` as [`TokenSink::start`] has it.
    fn start(&mut self, name: &str, attrs_raw: &str, open: bool) -> Result<(), ParseError>;
    /// The end of the innermost kept element.
    fn end(&mut self, name: &str, open: bool);
    /// A kept text run, entity-decoded.
    fn text(&mut self, decoded: &str, open: bool);
    /// Bytes rendered so far, which a driver holds until it hands them
    /// on; a tree renders none.
    fn rendered(&self) -> usize {
        0
    }
}

/// The tokenizer validated every attribute region; a failure to read one
/// again would be its bug, reported rather than unwrapped.
fn bug(message: String) -> ParseError {
    ParseError { offset: 0, message }
}

/// Kept events rendered as the tree serializer writes them. Inlined: the
/// pruning pass calls these once per kept event, from other crates.
impl KeptEvents for String {
    #[inline]
    fn start(&mut self, name: &str, attrs_raw: &str, open: bool) -> Result<(), ParseError> {
        if open {
            self.push('>');
        }
        self.push('<');
        self.push_str(name);
        for attr in RawAttrs::new(attrs_raw) {
            let (aname, raw) = attr.map_err(bug)?;
            self.push(' ');
            self.push_str(aname);
            self.push_str("=\"");
            escape_attr(&decode_entities(raw).map_err(bug)?, self);
            self.push('"');
        }
        Ok(())
    }

    #[inline]
    fn end(&mut self, name: &str, open: bool) {
        if open {
            self.push_str("/>");
        } else {
            self.push_str("</");
            self.push_str(name);
            self.push('>');
        }
    }

    #[inline]
    fn text(&mut self, decoded: &str, open: bool) {
        if open {
            self.push('>');
        }
        escape_text(decoded, self);
    }

    #[inline]
    fn rendered(&self) -> usize {
        self.len()
    }
}

/// The sink that grows the arena: one node per start tag and per text
/// run that is not all XML `S`, parented to the top of the open-element
/// stack. Whoever holds the events drives it — the token loop for
/// [`parse`], a pruning pass for a query's t∖π — so a tree is built by
/// one tokenization of its bytes.
pub struct TreeBuilder {
    doc: Document,
    stack: Vec<NodeId>,
    /// Heap bytes of the nodes built so far, kept as a running sum so
    /// reading the gauge costs nothing.
    held: usize,
}

/// Arena bytes per node: the node record and its source-id slot.
const NODE_BYTES: usize = std::mem::size_of::<Node>() + std::mem::size_of::<NodeId>();

impl TreeBuilder {
    /// A builder for a document whose names intern into `tags`.
    pub fn new(tags: Interner) -> TreeBuilder {
        TreeBuilder {
            doc: Document::with_interner(tags),
            stack: vec![NodeId::DOCUMENT],
            held: 0,
        }
    }

    /// Heap bytes the tree holds so far: node records, text and
    /// attributes.
    pub fn held(&self) -> usize {
        self.held
    }

    /// The document built.
    pub fn finish(self) -> Document {
        self.doc
    }
}

impl KeptEvents for TreeBuilder {
    fn start(&mut self, name: &str, attrs_raw: &str, _: bool) -> Result<(), ParseError> {
        let tag = self.doc.tags.intern(name);
        let mut attrs = Vec::new();
        for attr in RawAttrs::new(attrs_raw) {
            let (aname, raw) = attr.map_err(bug)?;
            let value = decode_entities(raw).map_err(bug)?;
            self.held += std::mem::size_of::<Attribute>() + value.len();
            attrs.push(Attribute {
                name: self.doc.tags.intern(aname),
                value: value.into_owned().into_boxed_str(),
            });
        }
        let parent = *self.stack.last().expect("stack never empty");
        let id = self.doc.push_element_with_attrs(parent, tag, attrs);
        self.held += NODE_BYTES;
        self.stack.push(id);
        Ok(())
    }

    fn end(&mut self, _: &str, _: bool) {
        self.stack.pop();
    }

    fn text(&mut self, decoded: &str, _: bool) {
        let parent = *self.stack.last().expect("stack never empty");
        // No text directly under the document node, and a run of XML
        // `S` is no text node.
        if parent != NodeId::DOCUMENT && !decoded.bytes().all(is_xml_space) {
            self.doc.push_text(parent, decoded);
            self.held += NODE_BYTES + decoded.len();
        }
    }
}

impl TokenSink for TreeBuilder {
    type Error = ParseError;

    fn start(&mut self, name: &str, attrs_raw: &str) -> Result<bool, ParseError> {
        KeptEvents::start(self, name, attrs_raw, false)?;
        Ok(false)
    }

    fn end(&mut self, name: &str) -> Result<(), ParseError> {
        KeptEvents::end(self, name, false);
        Ok(())
    }

    fn text(&mut self, decoded: &str) -> Result<(), ParseError> {
        KeptEvents::text(self, decoded, false);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::NodeKind;

    #[test]
    fn parse_round_trip() {
        let src = "<site><people><person id=\"p0\"><name>Alice</name></person></people></site>";
        let doc = parse(src).unwrap();
        assert_eq!(doc.to_xml(), src);
    }

    #[test]
    fn whitespace_only_runs_are_no_text_nodes() {
        let doc = parse("<a>\n  <b/>\n</a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.children(a).count(), 1);
        // U+00A0 is not XML `S`: a run of it is character data.
        let doc = parse("<a>\u{A0}<b/></a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.children(a).count(), 2);
    }

    #[test]
    fn mixed_content_preserved() {
        let doc = parse("<d>text <b>bold</b> tail</d>").unwrap();
        let d = doc.root_element().unwrap();
        let kinds: Vec<bool> = doc.children(d).map(|c| doc.is_text(c)).collect();
        assert_eq!(kinds, vec![true, false, true]);
        assert_eq!(doc.string_value(d), "text bold tail");
    }

    #[test]
    fn attributes_parsed() {
        let doc = parse(r#"<item featured="yes" id="i1"/>"#).unwrap();
        let item = doc.root_element().unwrap();
        let id = doc.tags.get("id").unwrap();
        assert_eq!(doc.attribute(item, id), Some("i1"));
        assert_eq!(doc.attributes(item).len(), 2);
    }

    #[test]
    fn doctype_ignored_in_tree() {
        let doc = parse("<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>").unwrap();
        assert!(doc.root_element().is_some());
    }

    #[test]
    fn entities_decoded_in_text() {
        let doc = parse("<a>fish &amp; chips</a>").unwrap();
        let a = doc.root_element().unwrap();
        let t = doc.first_child(a).unwrap();
        assert_eq!(doc.kind(t), &NodeKind::Text("fish & chips".into()));
    }

    #[test]
    fn parse_error_is_reported() {
        assert!(parse("<a><b></a>").is_err());
        assert!(parse("").is_err() || parse("").unwrap().root_element().is_none());
    }

    #[test]
    fn interner_sharing() {
        let mut i = Interner::new();
        let pre = i.intern("site");
        let doc = parse_with_interner("<site/>", i).unwrap();
        assert_eq!(doc.tag(doc.root_element().unwrap()), Some(pre));
    }
}
