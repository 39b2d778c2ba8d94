//! The reference tree-update executor.
//!
//! [`xproj_xmltree::Document`] arenas are append-only (arena order *is*
//! document order), so updates cannot mutate in place: the executor
//! evaluates the target path against the original tree, then rebuilds a
//! fresh document in one ordered walk, splicing fragments in and
//! skipping deleted subtrees as it goes. This is deliberately the
//! simplest correct implementation — it is the *oracle* the
//! independence fuzzer compares static verdicts against, so clarity
//! beats speed here.

use crate::ast::{Fragment, FragmentNode, InsertPos, Update};
use std::collections::HashSet;
use std::fmt;
use xproj_xmltree::{Document, NodeId, NodeKind};
use xproj_xpath::eval::XNode;

/// Why an update could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// The target path failed to evaluate.
    Eval(String),
    /// The target selected an attribute; only elements and text nodes
    /// are valid update targets in this language.
    AttributeTarget,
    /// The target selected the document node itself.
    DocumentTarget,
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::Eval(e) => write!(f, "target evaluation failed: {e}"),
            ApplyError::AttributeTarget => {
                write!(
                    f,
                    "update targets an attribute — only element and text targets are supported"
                )
            }
            ApplyError::DocumentTarget => write!(f, "update targets the document node"),
        }
    }
}

impl std::error::Error for ApplyError {}

/// Applies `update` to `doc`, returning the updated document (the
/// original is untouched). Every node the target path selects is
/// updated; selecting nothing yields an unchanged copy.
pub fn apply_update(doc: &Document, update: &Update) -> Result<Document, ApplyError> {
    let targets = evaluate_targets(doc, update)?;
    let mut out = Document::with_interner(doc.tags.clone());
    let ctx = Ctx {
        doc,
        update,
        targets: &targets,
    };
    for child in doc.children(NodeId::DOCUMENT) {
        copy_node(&ctx, child, NodeId::DOCUMENT, &mut out);
    }
    Ok(out)
}

/// Evaluates the update's target path to the set of selected tree
/// nodes. Attribute and document-node selections are errors.
pub fn evaluate_targets(doc: &Document, update: &Update) -> Result<HashSet<NodeId>, ApplyError> {
    let hits =
        xproj_xpath::evaluate(doc, update.target()).map_err(|e| ApplyError::Eval(e.to_string()))?;
    let mut targets = HashSet::with_capacity(hits.len());
    for h in hits {
        match h {
            XNode::Attr(..) => return Err(ApplyError::AttributeTarget),
            XNode::Tree(id) if id == NodeId::DOCUMENT => return Err(ApplyError::DocumentTarget),
            XNode::Tree(id) => {
                targets.insert(id);
            }
        }
    }
    Ok(targets)
}

struct Ctx<'a> {
    doc: &'a Document,
    update: &'a Update,
    targets: &'a HashSet<NodeId>,
}

fn copy_node(ctx: &Ctx<'_>, n: NodeId, parent: NodeId, out: &mut Document) {
    let hit = ctx.targets.contains(&n);
    if hit {
        match ctx.update {
            Update::Delete { .. } => return, // subtree vanishes
            Update::Replace { fragment, .. } => {
                emit_fragment(fragment, parent, out);
                return;
            }
            Update::Insert {
                fragment,
                pos: InsertPos::Before,
                ..
            } => emit_fragment(fragment, parent, out),
            Update::Insert { .. } => {}
        }
    }
    let me = match ctx.doc.kind(n) {
        NodeKind::Element { tag, attrs } => {
            out.push_element_with_attrs(parent, *tag, attrs.to_vec())
        }
        NodeKind::Text(t) => out.push_text(parent, t),
        NodeKind::Document => unreachable!("document node is never copied"),
    };
    for child in ctx.doc.children(n) {
        copy_node(ctx, child, me, out);
    }
    if hit {
        match ctx.update {
            Update::Insert {
                fragment,
                pos: InsertPos::Into,
                ..
            } => emit_fragment(fragment, me, out),
            Update::Insert {
                fragment,
                pos: InsertPos::After,
                ..
            } => emit_fragment(fragment, parent, out),
            _ => {}
        }
    }
}

fn emit_fragment(fragment: &Fragment, parent: NodeId, out: &mut Document) {
    for node in &fragment.nodes {
        emit_fragment_node(node, parent, out);
    }
}

fn emit_fragment_node(node: &FragmentNode, parent: NodeId, out: &mut Document) {
    match node {
        FragmentNode::Text(t) => {
            out.push_text(parent, t);
        }
        FragmentNode::Element { tag, children } => {
            let me = out.push_named_element(parent, tag);
            for c in children {
                emit_fragment_node(c, me, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_update;
    use xproj_xmltree::parse;

    fn apply(doc_xml: &str, update: &str) -> String {
        let doc = parse(doc_xml).unwrap();
        let u = parse_update(update).unwrap();
        apply_update(&doc, &u).unwrap().to_xml()
    }

    #[test]
    fn insert_into_appends_as_last_child() {
        assert_eq!(
            apply("<r><a><b/></a></r>", "insert <c/> into /r/a"),
            "<r><a><b/><c/></a></r>"
        );
    }

    #[test]
    fn insert_before_and_after_are_siblings() {
        assert_eq!(
            apply("<r><a/><a/></r>", "insert <x/> before /r/a"),
            "<r><x/><a/><x/><a/></r>"
        );
        assert_eq!(
            apply("<r><a/><b/></r>", "insert <x/> after /r/a"),
            "<r><a/><x/><b/></r>"
        );
    }

    #[test]
    fn delete_removes_whole_subtrees() {
        assert_eq!(
            apply("<r><a><b/></a><c/></r>", "delete /r/a"),
            "<r><c/></r>"
        );
        // Nested targets: deleting an ancestor covers its descendants.
        assert_eq!(apply("<r><a><a/></a></r>", "delete //a"), "<r/>");
    }

    #[test]
    fn replace_splices_the_fragment() {
        assert_eq!(
            apply("<r><a/><b/></r>", "replace /r/a with <n>t</n>"),
            "<r><n>t</n><b/></r>"
        );
    }

    #[test]
    fn text_targets_work() {
        assert_eq!(
            apply("<r><a>old</a></r>", "replace /r/a/text() with new"),
            "<r><a>new</a></r>"
        );
        assert_eq!(
            apply("<r><a>x</a></r>", "delete /r/a/text()"),
            "<r><a/></r>"
        );
    }

    #[test]
    fn empty_selection_is_identity() {
        assert_eq!(apply("<r><a/></r>", "delete /r/zzz"), "<r><a/></r>");
    }

    #[test]
    fn attribute_target_is_an_error() {
        let doc = parse("<r><a id=\"1\"/></r>").unwrap();
        let u = parse_update("delete /r/a/@id").unwrap();
        assert_eq!(
            apply_update(&doc, &u).err(),
            Some(ApplyError::AttributeTarget)
        );
    }

    #[test]
    fn original_document_is_untouched() {
        let doc = parse("<r><a/></r>").unwrap();
        let before = doc.to_xml();
        let u = parse_update("delete /r/a").unwrap();
        let _ = apply_update(&doc, &u).unwrap();
        assert_eq!(doc.to_xml(), before);
    }
}
