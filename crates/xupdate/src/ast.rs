//! The update AST and its normal-form rendering.

use std::fmt;
use xproj_xpath::ast::LocationPath;

/// Where an inserted fragment lands relative to each target node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertPos {
    /// As the *last child* of the target (this implementation pins the
    /// XQuery-Update "into" to `as last into`, so updates are
    /// deterministic and the differential fuzzer can compare bytes).
    Into,
    /// As the immediately preceding sibling of the target.
    Before,
    /// As the immediately following sibling of the target.
    After,
}

impl InsertPos {
    /// Concrete-syntax keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            InsertPos::Into => "into",
            InsertPos::Before => "before",
            InsertPos::After => "after",
        }
    }
}

/// One node of an insertable fragment: an attribute-free element or a
/// text run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FragmentNode {
    /// `<tag>children…</tag>` (or `<tag/>`).
    Element {
        /// Element tag.
        tag: String,
        /// Child forest, in order.
        children: Vec<FragmentNode>,
    },
    /// A text run (never empty after parsing).
    Text(String),
}

impl FragmentNode {
    /// Every element tag occurring in this node's subtree, in document
    /// order (with repeats).
    pub fn collect_tags<'a>(&'a self, out: &mut Vec<&'a str>) {
        if let FragmentNode::Element { tag, children } = self {
            out.push(tag);
            for c in children {
                c.collect_tags(out);
            }
        }
    }

    /// True when this subtree contains a text node anywhere.
    pub fn contains_text(&self) -> bool {
        match self {
            FragmentNode::Text(_) => true,
            FragmentNode::Element { children, .. } => {
                children.iter().any(FragmentNode::contains_text)
            }
        }
    }
}

/// An insertable forest: one or more [`FragmentNode`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fragment {
    /// Top-level nodes in order (never empty).
    pub nodes: Vec<FragmentNode>,
}

impl Fragment {
    /// Every element tag in the fragment, in document order (repeats
    /// preserved).
    pub fn tags(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for n in &self.nodes {
            n.collect_tags(&mut out);
        }
        out
    }

    /// True when the fragment contains any text node.
    pub fn contains_text(&self) -> bool {
        self.nodes.iter().any(FragmentNode::contains_text)
    }

    /// True when any *top-level* node of the fragment is a text run
    /// (such a run becomes a child of the insertion context itself).
    pub fn has_top_level_text(&self) -> bool {
        self.nodes
            .iter()
            .any(|n| matches!(n, FragmentNode::Text(_)))
    }
}

/// One update of the minimal XQuery-Update-style language.
#[derive(Clone, Debug, PartialEq)]
pub enum Update {
    /// `insert Fragment (into|before|after) Path`.
    Insert {
        /// What gets inserted (at every target node).
        fragment: Fragment,
        /// Where it lands relative to each target.
        pos: InsertPos,
        /// The target path.
        target: LocationPath,
    },
    /// `delete Path` — removes every target node with its subtree.
    Delete {
        /// The target path.
        target: LocationPath,
    },
    /// `replace Path with Fragment` — deletes every target subtree and
    /// puts the fragment in its place.
    Replace {
        /// The target path.
        target: LocationPath,
        /// The replacement forest.
        fragment: Fragment,
    },
}

impl Update {
    /// The update's target path.
    pub fn target(&self) -> &LocationPath {
        match self {
            Update::Insert { target, .. }
            | Update::Delete { target }
            | Update::Replace { target, .. } => target,
        }
    }

    /// The inserted fragment, when the update has one.
    pub fn fragment(&self) -> Option<&Fragment> {
        match self {
            Update::Insert { fragment, .. } | Update::Replace { fragment, .. } => Some(fragment),
            Update::Delete { .. } => None,
        }
    }
}

fn fmt_fragment_node(n: &FragmentNode, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match n {
        FragmentNode::Text(t) => {
            let mut out = String::new();
            xproj_xmltree::document::escape_text(t, &mut out);
            f.write_str(&out)
        }
        FragmentNode::Element { tag, children } => {
            if children.is_empty() {
                write!(f, "<{tag}/>")
            } else {
                write!(f, "<{tag}>")?;
                for c in children {
                    fmt_fragment_node(c, f)?;
                }
                write!(f, "</{tag}>")
            }
        }
    }
}

impl fmt::Display for Fragment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for n in &self.nodes {
            fmt_fragment_node(n, f)?;
        }
        Ok(())
    }
}

impl fmt::Display for Update {
    /// The normal form: `LocationPath`'s canonical full-axis rendering
    /// plus the canonical fragment spelling (`<x/>` for empty
    /// elements, escaped text). `parse(u.to_string())` round-trips.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Update::Insert {
                fragment,
                pos,
                target,
            } => write!(f, "insert {fragment} {} {target}", pos.keyword()),
            Update::Delete { target } => write!(f, "delete {target}"),
            Update::Replace { target, fragment } => {
                write!(f, "replace {target} with {fragment}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_helpers() {
        let frag = Fragment {
            nodes: vec![
                FragmentNode::Element {
                    tag: "a".into(),
                    children: vec![
                        FragmentNode::Element {
                            tag: "b".into(),
                            children: vec![],
                        },
                        FragmentNode::Text("hi".into()),
                    ],
                },
                FragmentNode::Text("tail".into()),
            ],
        };
        assert_eq!(frag.tags(), vec!["a", "b"]);
        assert!(frag.contains_text());
        assert!(frag.has_top_level_text());
        assert_eq!(frag.to_string(), "<a><b/>hi</a>tail");
    }
}
