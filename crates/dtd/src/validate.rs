//! Validation of documents against DTDs (paper Def. 2.4).
//!
//! Because a DTD is a *local* tree grammar, element tags determine their
//! names, so the interpretation ℑ is unique when it exists; validation
//! computes it as a side effect, exactly as the paper exploits
//! ("every validation algorithm produces, as a side effect, an
//! interpretation for the validated tree").

use crate::grammar::Dtd;
use crate::nameset::NameId;
use std::fmt;
use xproj_xmltree::{Document, NodeId};

/// The interpretation ℑ : Ids(t) → DN(E), stored densely by node id.
#[derive(Debug)]
pub struct Interpretation {
    names: Vec<u32>,
}

const UNASSIGNED: u32 = u32::MAX;

impl Interpretation {
    fn new(len: usize) -> Self {
        Interpretation {
            names: vec![UNASSIGNED; len],
        }
    }

    fn assign(&mut self, node: NodeId, name: NameId) {
        self.names[node.index()] = name.0;
    }

    /// The name of a node (`None` for the document node).
    pub fn name_of(&self, node: NodeId) -> Option<NameId> {
        match self.names.get(node.index()) {
            Some(&raw) if raw != UNASSIGNED => Some(NameId(raw)),
            _ => None,
        }
    }
}

/// A validation failure, pinned to a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// The offending node.
    pub node: NodeId,
    /// Description.
    pub message: String,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "validation error at {:?}: {}", self.node, self.message)
    }
}

impl std::error::Error for ValidationError {}

/// Validates `doc` against `dtd`, producing the interpretation.
///
/// The document's interner must be compatible with the DTD's (parse the
/// document with `parse_with_interner(input, dtd.tags.clone())`,
/// or look tags up by string, which this function does as a fallback).
pub fn validate(doc: &Document, dtd: &Dtd) -> Result<Interpretation, ValidationError> {
    let mut interp = Interpretation::new(doc.len());
    let root = doc.root_element().ok_or(ValidationError {
        node: NodeId::DOCUMENT,
        message: "document has no root element".to_string(),
    })?;
    // Tag-id translation: documents parsed with a shared interner have
    // identical ids; otherwise translate through strings once.
    let name_for = |n: NodeId| -> Result<NameId, ValidationError> {
        let tag_name = doc.tag_name(n).expect("element node");
        dtd.name_of_tag_str(tag_name)
            .ok_or_else(|| ValidationError {
                node: n,
                message: format!("element '{tag_name}' is not declared in the DTD"),
            })
    };
    let root_name = name_for(root)?;
    if root_name != dtd.root() {
        return Err(ValidationError {
            node: root,
            message: format!(
                "root element '{}' does not match DTD root '{}'",
                dtd.label(root_name),
                dtd.label(dtd.root())
            ),
        });
    }
    // Iterative pre-order walk assigning names and checking content.
    let mut stack = vec![root];
    let mut word: Vec<NameId> = Vec::with_capacity(16);
    while let Some(n) = stack.pop() {
        let name = name_for(n)?;
        interp.assign(n, name);
        // Text children take the (unique, by the splitting heuristic)
        // text name of the parent's content model.
        let text_name = dtd.text_children_of(name).iter().next();
        word.clear();
        for c in doc.children(n) {
            if doc.is_element(c) {
                let cname = name_for(c)?;
                word.push(cname);
                stack.push(c);
            } else {
                let t = text_name.ok_or_else(|| ValidationError {
                    node: c,
                    message: format!("text content not allowed inside '{}'", dtd.label(name)),
                })?;
                interp.assign(c, t);
                word.push(t);
            }
        }
        let auto = dtd.automaton(name).ok_or_else(|| ValidationError {
            node: n,
            message: "text name used as element".to_string(),
        })?;
        if !auto.matches(word.iter().copied()) {
            return Err(ValidationError {
                node: n,
                message: format!(
                    "children of '{}' do not match its content model ({})",
                    dtd.label(name),
                    word.iter()
                        .map(|&w| dtd.label(w).to_string())
                        .collect::<Vec<_>>()
                        .join(" ")
                ),
            });
        }
    }
    Ok(interp)
}

/// Assigns names tag-locally *without* checking content models.
///
/// Because a DTD is a local tree grammar, the interpretation of any tree
/// whose tags are all declared is determined by tags alone; this is what
/// one uses on *pruned* documents, which generally no longer satisfy the
/// content models (pruning removes required children) but whose
/// interpretation is still the restriction of the original one.
pub fn interpret(doc: &Document, dtd: &Dtd) -> Result<Interpretation, ValidationError> {
    let mut interp = Interpretation::new(doc.len());
    for n in doc.all_nodes().skip(1) {
        if let Some(tag_name) = doc.tag_name(n) {
            let name = dtd
                .name_of_tag_str(tag_name)
                .ok_or_else(|| ValidationError {
                    node: n,
                    message: format!("element '{tag_name}' is not declared in the DTD"),
                })?;
            interp.assign(n, name);
        } else if doc.is_text(n) {
            let parent = doc.parent(n).expect("text has a parent");
            let pname = interp.name_of(parent).ok_or_else(|| ValidationError {
                node: n,
                message: "text node under an uninterpreted parent".to_string(),
            })?;
            let t = dtd
                .text_children_of(pname)
                .iter()
                .next()
                .ok_or_else(|| ValidationError {
                    node: n,
                    message: format!("text not allowed inside '{}'", dtd.label(pname)),
                })?;
            interp.assign(n, t);
        }
    }
    Ok(interp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_dtd;
    use xproj_xmltree::parse_with_interner;

    const BOOKS: &str = "\
        <!ELEMENT bib (book*)>\
        <!ELEMENT book (title, author+, year?)>\
        <!ELEMENT title (#PCDATA)>\
        <!ELEMENT author (#PCDATA)>\
        <!ELEMENT year (#PCDATA)>";

    fn setup(xml: &str) -> (Document, Dtd) {
        let dtd = parse_dtd(BOOKS, "bib").unwrap();
        let doc = parse_with_interner(xml, dtd.tags.clone()).unwrap();
        (doc, dtd)
    }

    #[test]
    fn valid_document() {
        let (doc, dtd) = setup(
            "<bib><book><title>T</title><author>A</author><author>B</author>\
             <year>1999</year></book></bib>",
        );
        let interp = validate(&doc, &dtd).unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(interp.name_of(root), Some(dtd.root()));
        assert_eq!(interp.name_of(NodeId::DOCUMENT), None);
        // text under <title> gets the title#text name
        let book = doc.first_child(root).unwrap();
        let title = doc.first_child(book).unwrap();
        let text = doc.first_child(title).unwrap();
        let tn = interp.name_of(text).unwrap();
        assert!(dtd.is_text_name(tn));
        assert_eq!(dtd.label(tn), "title#text");
    }

    #[test]
    fn missing_required_child() {
        let (doc, dtd) = setup("<bib><book><title>T</title></book></bib>");
        let err = validate(&doc, &dtd).unwrap_err();
        assert!(err.message.contains("content model"));
    }

    #[test]
    fn wrong_order() {
        let (doc, dtd) = setup("<bib><book><author>A</author><title>T</title></book></bib>");
        assert!(validate(&doc, &dtd).is_err());
    }

    #[test]
    fn undeclared_element() {
        let (doc, dtd) = setup("<bib><pamphlet/></bib>");
        let err = validate(&doc, &dtd).unwrap_err();
        assert!(err.message.contains("not declared"));
    }

    #[test]
    fn wrong_root() {
        let (doc, dtd) = setup("<book><title>T</title><author>A</author></book>");
        let err = validate(&doc, &dtd).unwrap_err();
        assert!(err.message.contains("root"));
    }

    #[test]
    fn text_where_not_allowed() {
        let (doc, dtd) = setup("<bib>stray text</bib>");
        let err = validate(&doc, &dtd).unwrap_err();
        assert!(err.message.contains("not allowed"));
    }

    #[test]
    fn empty_star_content() {
        let (doc, dtd) = setup("<bib/>");
        assert!(validate(&doc, &dtd).is_ok());
    }

    #[test]
    fn interpretation_is_total_on_nodes() {
        let (doc, dtd) = setup("<bib><book><title>T</title><author>A</author></book></bib>");
        let interp = validate(&doc, &dtd).unwrap();
        for n in doc.all_nodes().skip(1) {
            assert!(interp.name_of(n).is_some(), "{n:?} unassigned");
        }
    }
}
