//! Robustness and round-trip properties of the XML layer.

use xproj_testkit::forall;
use xproj_testkit::strategy::{
    ident, one_of, recursive, string_of, vec_of, RcStrategy, StrategyExt,
};
use xproj_xmltree::{parse, Document, NodeId};

/// Arbitrary (tag, text, attr) content assembled into a tree, serialized
/// and reparsed — the escaping logic must make this a perfect round trip.
fn tag_strategy() -> RcStrategy<String> {
    ident("a-z", "a-z0-9_-", 0..9)
}

fn text_strategy() -> RcStrategy<String> {
    // includes XML-hostile characters, but not all-whitespace strings
    // (the default parser drops whitespace-only text nodes)
    string_of(" -~", 1..21)
        .prop_filter("not whitespace-only", |s| !s.trim().is_empty())
        .rc()
}

#[derive(Debug, Clone)]
enum GenNode {
    Text(String),
    Elem(String, Vec<(String, String)>, Vec<GenNode>),
}

fn attrs_strategy() -> RcStrategy<Vec<(String, String)>> {
    vec_of((tag_strategy(), text_strategy()), 0..3)
        .prop_map(dedup_attrs)
        .rc()
}

fn node_strategy() -> RcStrategy<GenNode> {
    let leaf = one_of(vec![
        text_strategy().prop_map(GenNode::Text).rc(),
        (tag_strategy(), attrs_strategy())
            .prop_map(|(t, a)| GenNode::Elem(t, a, vec![]))
            .rc(),
    ])
    .rc();
    recursive(leaf, 3, |inner| {
        (tag_strategy(), attrs_strategy(), vec_of(inner, 0..4))
            .prop_map(|(t, a, c)| GenNode::Elem(t, a, c))
            .rc()
    })
}

fn dedup_attrs(mut attrs: Vec<(String, String)>) -> Vec<(String, String)> {
    attrs.sort_by(|a, b| a.0.cmp(&b.0));
    attrs.dedup_by(|a, b| a.0 == b.0);
    attrs
}

fn build(doc: &mut Document, parent: NodeId, n: &GenNode) {
    match n {
        GenNode::Text(s) => {
            doc.push_text(parent, s);
        }
        GenNode::Elem(tag, attrs, children) => {
            let t = doc.tags.intern(tag);
            let attrs = attrs
                .iter()
                .map(|(k, v)| xproj_xmltree::Attribute {
                    name: doc.tags.intern(k),
                    value: v.clone().into_boxed_str(),
                })
                .collect();
            let e = doc.push_element_with_attrs(parent, t, attrs);
            for c in children {
                build(doc, e, c);
            }
        }
    }
}

forall! {
    #![cases(256)]

    /// Serialise → parse → serialise is the identity for arbitrary
    /// escaped content.
    fn round_trip_arbitrary_trees(
        tag in tag_strategy(),
        children in vec_of(node_strategy(), 0..5),
    ) {
        let mut doc = Document::new();
        let root = doc.push_named_element(NodeId::DOCUMENT, &tag);
        // adjacent text nodes merge on reparse: interleave with elements
        let mut last_was_text = false;
        for c in &children {
            if matches!(c, GenNode::Text(_)) {
                if last_was_text {
                    continue;
                }
                last_was_text = true;
            } else {
                last_was_text = false;
            }
            build(&mut doc, root, c);
        }
        let xml = doc.to_xml();
        let reparsed = parse(&xml).unwrap();
        assert_eq!(xml, reparsed.to_xml());
    }

    /// The parser (the tree-building sink over the token loop) never
    /// panics on arbitrary input — it returns Ok or Err.
    fn parser_never_panics(input in string_of(" -~", 1..121)) {
        let _ = parse(&input);
    }

    /// Nor on arbitrary mutations of well-formed documents.
    fn parser_survives_mutations(
        flip in 0usize..200,
        byte in 0u8..128,
    ) {
        let base = "<site><people><person id=\"p0\"><name>A&amp;B</name>\
                    </person></people><!-- c --><![CDATA[x]]></site>";
        // CDATA outside root etc. will just error — must not panic
        let mut bytes = base.as_bytes().to_vec();
        let pos = flip % bytes.len();
        bytes[pos] = byte;
        if let Ok(s) = std::str::from_utf8(&bytes) {
            let _ = parse(s);
        }
    }
}
