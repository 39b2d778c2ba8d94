//! Tree parser: builds a [`Document`] from an XML string — a
//! [`TokenSink`] over the one token loop in [`crate::push`].

use crate::document::{Attribute, Document, NodeId};
use crate::entities::decode_entities;
use crate::interner::Interner;
use crate::push::{drain_str, is_xml_space, RawAttrs, TokenSink};

pub use crate::entities::ParseError;

/// Parser configuration.
#[derive(Clone, Debug)]
pub struct ParseOptions {
    /// Drop text nodes consisting only of XML whitespace (`S`: space,
    /// tab, CR, LF; useful for data-centric documents with
    /// pretty-printing). Default: `true`.
    pub ignore_whitespace_text: bool,
    /// Reuse an existing interner so the document shares tag ids with,
    /// e.g., a DTD.
    pub interner: Option<Interner>,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            ignore_whitespace_text: true,
            interner: None,
        }
    }
}

/// Parses `input` with default options.
pub fn parse(input: &str) -> Result<Document, ParseError> {
    parse_with_options(input, ParseOptions::default())
}

/// Parses `input` into a [`Document`].
pub fn parse_with_options(input: &str, options: ParseOptions) -> Result<Document, ParseError> {
    let mut builder = TreeBuilder {
        doc: match options.interner {
            Some(i) => Document::with_interner(i),
            None => Document::new(),
        },
        stack: vec![NodeId::DOCUMENT],
        ignore_whitespace_text: options.ignore_whitespace_text,
    };
    drain_str(input, &mut builder, false)?;
    Ok(builder.doc)
}

/// The sink that grows the arena: one node per start tag and per kept
/// text run, parented to the top of the open-element stack.
struct TreeBuilder {
    doc: Document,
    stack: Vec<NodeId>,
    ignore_whitespace_text: bool,
}

impl TokenSink for TreeBuilder {
    type Error = ParseError;

    fn start(&mut self, name: &str, attrs_raw: &str) -> Result<bool, ParseError> {
        let tag = self.doc.tags.intern(name);
        // The tokenizer validated the region; a failure here would be
        // its bug, reported rather than unwrapped.
        let bug = |message| ParseError { offset: 0, message };
        let mut attrs = Vec::new();
        for attr in RawAttrs::new(attrs_raw) {
            let (aname, raw) = attr.map_err(bug)?;
            let value = decode_entities(raw).map_err(bug)?;
            attrs.push(Attribute {
                name: self.doc.tags.intern(aname),
                value: value.into_owned().into_boxed_str(),
            });
        }
        let parent = *self.stack.last().expect("stack never empty");
        let id = self.doc.push_element_with_attrs(parent, tag, attrs);
        self.stack.push(id);
        Ok(false)
    }

    fn end(&mut self, _name: &str) -> Result<(), ParseError> {
        self.stack.pop();
        Ok(())
    }

    fn text(&mut self, decoded: &str) -> Result<(), ParseError> {
        let parent = *self.stack.last().expect("stack never empty");
        // No text directly under the document node.
        if parent != NodeId::DOCUMENT
            && !(self.ignore_whitespace_text && decoded.bytes().all(is_xml_space))
        {
            self.doc.push_text(parent, decoded);
        }
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
    fn whitespace_skipped_by_default() {
        let doc = parse("<a>\n  <b/>\n</a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.children(a).count(), 1);
        // U+00A0 is not XML `S`: a run of it is character data.
        let doc = parse("<a>\u{A0}<b/></a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.children(a).count(), 2);
    }

    #[test]
    fn whitespace_kept_when_requested() {
        let doc = parse_with_options(
            "<a> <b/> </a>",
            ParseOptions {
                ignore_whitespace_text: false,
                interner: None,
            },
        )
        .unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.children(a).count(), 3);
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
        let doc = parse_with_options(
            "<site/>",
            ParseOptions {
                ignore_whitespace_text: true,
                interner: Some(i),
            },
        )
        .unwrap();
        assert_eq!(doc.tag(doc.root_element().unwrap()), Some(pre));
    }
}
