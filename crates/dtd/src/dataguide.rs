//! Dataguide inference: a DTD from a document, for schema-less pruning.
//!
//! The paper's conclusion notes that "it should be easy to adapt the
//! approach to work in the absence of DTDs, by using data-guides /
//! path-summaries instead". This module does exactly that: it infers a
//! *local tree grammar* from one or more sample documents — for every
//! tag, the content model is the star-closure of the union of everything
//! observed below it:
//!
//! ```text
//! tag  →  (child₁ | child₂ | … | #PCDATA?)*
//! ```
//!
//! The inferred grammar is a sound over-approximation: every sampled
//! document (and any document using the same tag nesting) validates
//! against it, so projectors inferred from it prune *those* documents
//! soundly. It is weaker than a hand-written DTD — star-closed unions
//! carry no ordering or cardinality information, so projector precision
//! degrades to pure tag-reachability — but that is exactly the dataguide
//! trade-off the paper describes.

use crate::grammar::Dtd;
use crate::parser::DtdError;
use crate::regex::Regex;
use std::collections::{BTreeMap, BTreeSet};
use xproj_xmltree::Document;

/// Accumulates tag-nesting observations from sample documents.
#[derive(Default, Debug)]
pub struct DataGuide {
    /// tag → (observed child tags, text seen?)
    observed: BTreeMap<String, (BTreeSet<String>, bool)>,
    root: Option<String>,
    /// tag → observed attribute names
    attributes: BTreeMap<String, BTreeSet<String>>,
}

impl DataGuide {
    /// An empty dataguide.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one document into the guide. The first document's root tag
    /// becomes the grammar root; later documents must agree.
    pub fn observe(&mut self, doc: &Document) -> Result<(), DtdError> {
        let Some(root) = doc.root_element() else {
            return Err(DtdError {
                offset: 0,
                message: "document has no root element".to_string(),
            });
        };
        let root_tag = doc.tag_name(root).expect("root is an element").to_string();
        match &self.root {
            None => self.root = Some(root_tag),
            Some(r) if *r == root_tag => {}
            Some(r) => {
                return Err(DtdError {
                    offset: 0,
                    message: format!("documents disagree on the root: '{r}' vs '{root_tag}'"),
                })
            }
        }
        for n in doc.all_nodes().skip(1) {
            let Some(tag) = doc.tag_name(n) else { continue };
            let entry = self.observed.entry(tag.to_string()).or_default();
            for c in doc.children(n) {
                if let Some(ct) = doc.tag_name(c) {
                    entry.0.insert(ct.to_string());
                } else if doc.is_text(c) {
                    entry.1 = true;
                }
            }
            if !doc.attributes(n).is_empty() {
                let atts = self.attributes.entry(tag.to_string()).or_default();
                for a in doc.attributes(n) {
                    atts.insert(doc.tags.resolve(a.name).to_string());
                }
            }
        }
        Ok(())
    }

    /// Builds the local tree grammar.
    pub fn into_dtd(self) -> Result<Dtd, DtdError> {
        let root_tag = self.root.ok_or(DtdError {
            offset: 0,
            message: "no document observed".to_string(),
        })?;
        let mut b = Dtd::builder();
        let mut ids = BTreeMap::new();
        for tag in self.observed.keys() {
            ids.insert(tag.clone(), b.element(tag));
        }
        // Per-element text names, matching the parser's splitting
        // heuristic, only where text was observed.
        let mut text_ids = BTreeMap::new();
        for (tag, (_, has_text)) in &self.observed {
            if *has_text {
                text_ids.insert(tag.clone(), b.text(&format!("{tag}#text")));
            }
        }
        for (tag, (children, has_text)) in &self.observed {
            let mut alts: Vec<Regex> = children
                .iter()
                .map(|c| Regex::Name(ids[c]))
                .collect();
            if *has_text {
                alts.push(Regex::Name(text_ids[tag]));
            }
            let re = match alts.len() {
                0 => Regex::Epsilon,
                1 => Regex::Star(Box::new(alts.pop().unwrap())),
                _ => Regex::Star(Box::new(Regex::Alt(alts))),
            };
            b.content(ids[tag], re);
        }
        for (tag, atts) in &self.attributes {
            let refs: Vec<&str> = atts.iter().map(String::as_str).collect();
            b.attributes(ids[tag], &refs);
        }
        let root = ids[&root_tag];
        b.finish(root).map_err(Into::into)
    }
}

/// One-shot inference from a single document.
pub fn infer_dtd(doc: &Document) -> Result<Dtd, DtdError> {
    let mut g = DataGuide::new();
    g.observe(doc)?;
    g.into_dtd()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use xproj_xmltree::parse;

    #[test]
    fn inferred_grammar_validates_its_sample() {
        let doc = parse(
            "<site><people><person id=\"p0\"><name>A</name></person>\
             <person id=\"p1\"><name>B</name><phone>1</phone></person></people></site>",
        )
        .unwrap();
        let dtd = infer_dtd(&doc).unwrap();
        // Re-parse with the inferred interner so ids line up.
        let doc2 = xproj_xmltree::parse_with_interner(&doc.to_xml(), dtd.tags.clone()).unwrap();
        assert!(validate(&doc2, &dtd).is_ok());
    }

    #[test]
    fn star_closure_accepts_permutations() {
        let doc = parse("<a><b/><c/></a>").unwrap();
        let dtd = infer_dtd(&doc).unwrap();
        for variant in ["<a><c/><b/></a>", "<a><b/><b/><c/></a>", "<a/>"] {
            let d = xproj_xmltree::parse_with_interner(variant, dtd.tags.clone()).unwrap();
            assert!(validate(&d, &dtd).is_ok(), "{variant}");
        }
    }

    #[test]
    fn unseen_tags_are_rejected() {
        let doc = parse("<a><b/></a>").unwrap();
        let dtd = infer_dtd(&doc).unwrap();
        let d = parse("<a><zz/></a>").unwrap();
        assert!(validate(&d, &dtd).is_err());
    }

    #[test]
    fn attributes_observed() {
        let doc = parse("<a><b id=\"1\" kind=\"x\"/></a>").unwrap();
        let dtd = infer_dtd(&doc).unwrap();
        let b = dtd.name_of_tag_str("b").unwrap();
        assert_eq!(dtd.info(b).attributes.len(), 2);
    }

    #[test]
    fn multiple_documents_merge() {
        let mut g = DataGuide::new();
        g.observe(&parse("<a><b/></a>").unwrap()).unwrap();
        g.observe(&parse("<a><c>t</c></a>").unwrap()).unwrap();
        let dtd = g.into_dtd().unwrap();
        let a = dtd.name_of_tag_str("a").unwrap();
        assert_eq!(dtd.children_of(a).len(), 2);
        let c = dtd.name_of_tag_str("c").unwrap();
        assert_eq!(dtd.text_children_of(c).len(), 1);
    }

    #[test]
    fn root_disagreement_is_an_error() {
        let mut g = DataGuide::new();
        g.observe(&parse("<a/>").unwrap()).unwrap();
        assert!(g.observe(&parse("<b/>").unwrap()).is_err());
    }

    #[test]
    fn empty_guide_is_an_error() {
        assert!(DataGuide::new().into_dtd().is_err());
    }
}
