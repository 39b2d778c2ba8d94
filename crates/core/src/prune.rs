//! In-memory π-projection of a validated document (paper Def. 2.7).
//!
//! `t \ᵢ π` replaces by the empty forest every node whose name (under the
//! interpretation ℑ) is not in π. Because names of deleted nodes' whole
//! subtrees are irrelevant, pruning is a single pre-order pass that simply
//! does not descend into discarded nodes.

use crate::projector::Projector;
use xproj_dtd::{Dtd, Interpretation};
use xproj_xmltree::{Document, NodeId};

/// Prunes `doc` (valid, with interpretation `interp`) by `projector`.
///
/// The result is a fresh document whose nodes carry
/// [`Document::src_id`]s pointing at the originals, so query results on
/// the pruned document can be compared node-for-node with results on the
/// original (this is how Thm. 4.5 is checked end-to-end in the tests).
pub fn prune_document(
    doc: &Document,
    _dtd: &Dtd,
    interp: &Interpretation,
    projector: &Projector,
) -> Document {
    let mut out = Document::with_interner(doc.tags.clone());
    // Walk kept nodes only; the stack carries (src node, dest parent).
    let mut stack: Vec<(NodeId, NodeId)> = Vec::new();
    if let Some(root) = doc.root_element() {
        if interp
            .name_of(root)
            .is_some_and(|n| projector.contains(n))
        {
            stack.push((root, NodeId::DOCUMENT));
        }
    }
    // Manual DFS preserving document order: push children in reverse.
    while let Some((src, dst_parent)) = stack.pop() {
        let kept = match doc.kind(src) {
            xproj_xmltree::NodeKind::Element { tag, attrs } => {
                let id = out.push_element_with_attrs(dst_parent, *tag, attrs.to_vec());
                Some(id)
            }
            xproj_xmltree::NodeKind::Text(s) => {
                let id = out.push_text(dst_parent, s);
                Some(id)
            }
            xproj_xmltree::NodeKind::Document => None,
        };
        let Some(dst) = kept else { continue };
        out.set_src_id(dst, src);
        let children: Vec<NodeId> = doc
            .children(src)
            .filter(|&c| {
                interp
                    .name_of(c)
                    .is_some_and(|n| projector.contains(n))
            })
            .collect();
        for &c in children.iter().rev() {
            stack.push((c, dst));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::StaticAnalyzer;
    use xproj_dtd::{parse_dtd, validate};
    use xproj_xmltree::parse_with_interner;

    const DTD: &str = "\
        <!ELEMENT bib (book*)>\
        <!ELEMENT book (title, author*, price?)>\
        <!ATTLIST book id CDATA #IMPLIED>\
        <!ELEMENT title (#PCDATA)>\
        <!ELEMENT author (#PCDATA)>\
        <!ELEMENT price (#PCDATA)>";

    const DOC: &str = "<bib>\
        <book id=\"b1\"><title>T1</title><author>A</author><author>B</author><price>10</price></book>\
        <book id=\"b2\"><title>T2</title><price>20</price></book>\
        </bib>";

    fn setup() -> (xproj_dtd::Dtd, Document, Interpretation) {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let doc = parse_with_interner(DOC, dtd.tags.clone()).unwrap();
        let interp = validate(&doc, &dtd).unwrap();
        (dtd, doc, interp)
    }
    use xproj_dtd::Interpretation;

    #[test]
    fn prune_keeps_projected_names_only() {
        let (dtd, doc, interp) = setup();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/title").unwrap();
        let pruned = prune_document(&doc, &dtd, &interp, &p);
        assert_eq!(
            pruned.to_xml(),
            "<bib><book id=\"b1\"><title>T1</title></book>\
             <book id=\"b2\"><title>T2</title></book></bib>"
        );
    }

    #[test]
    fn src_ids_point_at_originals() {
        let (dtd, doc, interp) = setup();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/price").unwrap();
        let pruned = prune_document(&doc, &dtd, &interp, &p);
        for n in pruned.all_nodes().skip(1) {
            let src = pruned.src_id(n);
            // same tag / same text as the original node
            assert_eq!(pruned.tag_name(n), doc.tag_name(src));
            assert_eq!(pruned.text(n), doc.text(src));
        }
    }

    #[test]
    fn empty_projector_prunes_everything() {
        let (dtd, doc, interp) = setup();
        let p = Projector::empty(&dtd);
        let pruned = prune_document(&doc, &dtd, &interp, &p);
        assert!(pruned.root_element().is_none());
        assert_eq!(pruned.to_xml(), "");
    }

    #[test]
    fn full_projector_is_identity() {
        let (dtd, doc, interp) = setup();
        let p = Projector::full(&dtd);
        let pruned = prune_document(&doc, &dtd, &interp, &p);
        assert_eq!(pruned.to_xml(), doc.to_xml());
    }

    #[test]
    fn pruned_document_is_smaller_projection() {
        let (dtd, doc, interp) = setup();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/title").unwrap();
        let pruned = prune_document(&doc, &dtd, &interp, &p);
        assert!(pruned.len() < doc.len());
        // pruned is still valid against the *pruning-relaxed* structure:
        // every kept element's tag exists in the DTD
        for n in pruned.all_nodes().skip(1) {
            if let Some(t) = pruned.tag_name(n) {
                assert!(dtd.name_of_tag_str(t).is_some());
            }
        }
    }
}
