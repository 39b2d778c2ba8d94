//! DTDs as local tree grammars (paper §2.2) and the reachability
//! machinery of Def. 2.5.
//!
//! A [`Dtd`] owns:
//!
//! * a table of *names* (non-terminals). An element name `X → a[r]`
//!   carries its tag `a`, content model `r` and declared attributes; a
//!   text name `Y → String` generates text nodes. Following the
//!   implementation heuristic of §6, the DTD parser introduces one text
//!   name *per element that allows `#PCDATA`*, so every `Y → String`
//!   occurs in exactly one right-hand side — this is what makes pruning
//!   precise on leaves;
//! * the forward-reachability relation `⇒E` (children), its inverse
//!   (parents) and both transitive closures, all as [`NameSet`] rows, so
//!   the single-step typing functions `A_E` of Fig. 1 are unions of
//!   bitset rows.
//!
//! **One universe.** XPath absolute paths start at the document node,
//! which no DTD name generates, so the grammar's universe is `DN(E)` plus
//! one *document name* ([`Dtd::doc_name`], id `|DN(E)|`) whose single
//! child is the root `X`. Every [`NameSet`] of a grammar — rows, types,
//! contexts, projectors — ranges over that one universe, built once by
//! [`DtdBuilder::finish`]; the document name has rows but no
//! [`NameInfo`], and a normalised projector never contains it.

use crate::nameset::{NameId, NameSet};
use crate::regex::{ContentAutomaton, Regex};
use xproj_xmltree::{Interner, TagId};

/// Right-hand side of a production.
#[derive(Clone, Debug)]
pub enum Content {
    /// `X → String`: the name generates text nodes.
    Text,
    /// `X → a[r]`: the name generates elements tagged `a` with content `r`.
    Element(Regex),
}

/// Everything known about one name.
#[derive(Clone, Debug)]
pub struct NameInfo {
    /// Display label: the element tag, or `tag#text` for text names.
    pub label: String,
    /// The element tag for element names; `None` for text names.
    pub tag: Option<TagId>,
    /// Production right-hand side.
    pub content: Content,
    /// Declared attribute names (from `<!ATTLIST>`).
    pub attributes: Vec<TagId>,
}

/// Errors arising when assembling a DTD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrammarError {
    /// Two element names declared for the same tag (violates locality).
    DuplicateTag(String),
    /// A content model references an undeclared name.
    UndeclaredName(String),
    /// The root name is not an element name.
    BadRoot,
}

impl std::fmt::Display for GrammarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GrammarError::DuplicateTag(t) => write!(f, "element '{t}' declared twice"),
            GrammarError::UndeclaredName(t) => write!(f, "reference to undeclared element '{t}'"),
            GrammarError::BadRoot => write!(f, "root must be an element name"),
        }
    }
}

impl std::error::Error for GrammarError {}

/// A DTD `(X, E)` with precomputed reachability tables.
pub struct Dtd {
    /// Interner for element tags and attribute names; share it with
    /// documents (via `xproj_xmltree::parse_with_interner`) so tag ids
    /// line up.
    pub tags: Interner,
    names: Vec<NameInfo>,
    root: NameId,
    /// The element name of each tag, indexed by [`TagId`] (`None` for an
    /// attribute-only name): a tag's name is one load after its one
    /// interner probe.
    tag_to_name: Vec<Option<NameId>>,
    /// Compiled content automata, indexed by name.
    automata: Vec<Option<ContentAutomaton>>,
    /// `children[X] = {Y | X ⇒E Y}`. The four reachability tables have
    /// one more row than `names`: the document name's.
    children: Vec<NameSet>,
    parents: Vec<NameSet>,
    /// `descendants[X] = {Y | X ⇒E⁺ Y}`.
    descendants: Vec<NameSet>,
    ancestors: Vec<NameSet>,
    /// Text names appearing in each element's content model.
    text_children: Vec<NameSet>,
    /// See [`Dtd::fingerprint`]; computed once, by `DtdBuilder::finish`.
    fingerprint: u64,
}

impl Dtd {
    /// Starts building a DTD.
    pub fn builder() -> DtdBuilder {
        DtdBuilder::default()
    }

    /// The grammar's identity: 64-bit FNV-1a over the root label and
    /// the canonical [`Dtd::to_dtd_syntax`] rendering, each closed by a
    /// `0xff` separator. Any grammar edit changes it; re-parsing the
    /// rendering reproduces it. It keys compiled artifacts and is the
    /// `id` `xmlpruned` hands out for a registered DTD.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of names (`|DN(E)|`).
    pub fn name_count(&self) -> usize {
        self.names.len()
    }

    /// The root name `X`.
    pub fn root(&self) -> NameId {
        self.root
    }

    /// Information about a name.
    pub fn info(&self, n: NameId) -> &NameInfo {
        &self.names[n.index()]
    }

    /// Display label of a name.
    pub fn label(&self, n: NameId) -> &str {
        &self.names[n.index()].label
    }

    /// True if `n` is a text name (`n → String`).
    pub fn is_text_name(&self, n: NameId) -> bool {
        matches!(self.names[n.index()].content, Content::Text)
    }

    /// The name for an element tag, if declared.
    pub fn name_of_tag(&self, tag: TagId) -> Option<NameId> {
        self.tag_to_name.get(tag.index()).copied().flatten()
    }

    /// The name for an element tag given as a string: one hash probe
    /// (std's randomly keyed SipHash — tags come from client input) and
    /// one indexed load.
    pub fn name_of_tag_str(&self, tag: &str) -> Option<NameId> {
        self.tags.get(tag).and_then(|t| self.name_of_tag(t))
    }

    /// Compiled content automaton of an element name.
    pub fn automaton(&self, n: NameId) -> Option<&ContentAutomaton> {
        self.automata[n.index()].as_ref()
    }

    /// Iterates over all name ids.
    pub fn all_names(&self) -> impl Iterator<Item = NameId> {
        (0..self.names.len() as u32).map(NameId)
    }

    /// The synthetic document name: parent of the root, ancestor of
    /// every reachable name, in no content model.
    pub fn doc_name(&self) -> NameId {
        NameId(self.names.len() as u32)
    }

    /// Size of the one universe: every name plus the document name.
    fn universe(&self) -> usize {
        self.names.len() + 1
    }

    /// An empty set over this DTD's name universe.
    pub fn empty_set(&self) -> NameSet {
        NameSet::empty(self.universe())
    }

    /// The set of `names` over this DTD's name universe.
    pub fn set_of(&self, names: impl IntoIterator<Item = NameId>) -> NameSet {
        NameSet::from_iter(self.universe(), names)
    }

    /// Every name of `DN(E)` (the document name is not one).
    pub fn full_set(&self) -> NameSet {
        self.set_of(self.all_names())
    }

    /// A singleton set over this DTD's name universe.
    pub fn singleton(&self, n: NameId) -> NameSet {
        NameSet::singleton(self.universe(), n)
    }

    /// Direct children of one name: `{Y | X ⇒E Y}`.
    pub fn children_of(&self, n: NameId) -> &NameSet {
        &self.children[n.index()]
    }

    /// Direct parents of one name (the document name for the root).
    pub fn parents_of(&self, n: NameId) -> &NameSet {
        &self.parents[n.index()]
    }

    /// Strict descendants of one name (`⇒E⁺`).
    pub fn descendants_of(&self, n: NameId) -> &NameSet {
        &self.descendants[n.index()]
    }

    /// Strict ancestors of one name (the document name included, for
    /// names reachable from the root).
    pub fn ancestors_of(&self, n: NameId) -> &NameSet {
        &self.ancestors[n.index()]
    }

    /// Text names occurring in the content model of element name `n`.
    pub fn text_children_of(&self, n: NameId) -> &NameSet {
        &self.text_children[n.index()]
    }

    /// Names reachable from the root, root included (`⇒E*` from `X`):
    /// the document name's descendants.
    pub fn reachable_from_root(&self) -> NameSet {
        self.descendants_of(self.doc_name()).clone()
    }

    /// Renders the whole DTD in `<!ELEMENT …>` syntax (text names are
    /// folded back into `#PCDATA`).
    pub fn to_dtd_syntax(&self) -> String {
        let mut out = String::new();
        for info in &self.names {
            let Some(tag) = info.tag else { continue };
            let resolve = |n: NameId| -> String {
                let ni = &self.names[n.index()];
                if ni.tag.is_none() {
                    "#PCDATA".to_string()
                } else {
                    ni.label.clone()
                }
            };
            let Content::Element(re) = &info.content else {
                continue;
            };
            // DTD syntax requires the content model to be EMPTY or a
            // parenthesised group; pure-text models print as (#PCDATA).
            let body = match re {
                Regex::Epsilon => "EMPTY".to_string(),
                Regex::Star(inner) | Regex::Plus(inner) | Regex::Opt(inner)
                    if matches!(inner.as_ref(), Regex::Name(n)
                        if self.names[n.index()].tag.is_none()) =>
                {
                    "(#PCDATA)".to_string()
                }
                other => {
                    let s = format!("{}", other.display(&resolve));
                    if s.starts_with('(') {
                        s
                    } else {
                        format!("({s})")
                    }
                }
            };
            out.push_str(&format!("<!ELEMENT {} {}>\n", self.tags.resolve(tag), body));
            if !info.attributes.is_empty() {
                out.push_str(&format!("<!ATTLIST {}", self.tags.resolve(tag)));
                for a in &info.attributes {
                    out.push_str(&format!(" {} CDATA #IMPLIED", self.tags.resolve(*a)));
                }
                out.push_str(">\n");
            }
        }
        out
    }
}

impl std::fmt::Debug for Dtd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Dtd({} names, root {})",
            self.names.len(),
            self.label(self.root)
        )
    }
}

/// Incremental DTD construction: declare names, then set content models.
#[derive(Default)]
pub struct DtdBuilder {
    tags: Interner,
    names: Vec<NameInfo>,
    tag_to_name: Vec<Option<NameId>>,
    errors: Vec<GrammarError>,
}

impl DtdBuilder {
    /// Declares an element name for `tag`. Errors at `finish` if the tag
    /// is already declared (locality).
    pub fn element(&mut self, tag: &str) -> NameId {
        let t = self.tags.intern(tag);
        if let Some(&Some(existing)) = self.tag_to_name.get(t.index()) {
            self.errors.push(GrammarError::DuplicateTag(tag.to_string()));
            return existing;
        }
        let id = NameId(self.names.len() as u32);
        self.names.push(NameInfo {
            label: tag.to_string(),
            tag: Some(t),
            content: Content::Element(Regex::Epsilon),
            attributes: Vec::new(),
        });
        if self.tag_to_name.len() <= t.index() {
            self.tag_to_name.resize(t.index() + 1, None);
        }
        self.tag_to_name[t.index()] = Some(id);
        id
    }

    /// Declares a text name (`Y → String`); `label` is for display only.
    pub fn text(&mut self, label: &str) -> NameId {
        let id = NameId(self.names.len() as u32);
        self.names.push(NameInfo {
            label: label.to_string(),
            tag: None,
            content: Content::Text,
            attributes: Vec::new(),
        });
        id
    }

    /// Sets the content model of an element name.
    pub fn content(&mut self, name: NameId, re: Regex) {
        self.names[name.index()].content = Content::Element(re);
    }

    /// Declares attributes for an element name.
    pub fn attributes(&mut self, name: NameId, atts: &[&str]) {
        let ids: Vec<TagId> = atts.iter().map(|a| self.tags.intern(a)).collect();
        self.names[name.index()].attributes.extend(ids);
    }

    /// Looks up an already-declared element name by tag.
    pub fn lookup(&self, tag: &str) -> Option<NameId> {
        let t = self.tags.get(tag)?;
        self.tag_to_name.get(t.index()).copied().flatten()
    }

    /// Finalizes the DTD with root `root`, computing the reachability
    /// tables over the grammar's one universe (every name plus the
    /// document name).
    pub fn finish(mut self, root: NameId) -> Result<Dtd, GrammarError> {
        if let Some(e) = self.errors.pop() {
            return Err(e);
        }
        if self.names.get(root.index()).map(|i| i.tag.is_none()) != Some(false) {
            return Err(GrammarError::BadRoot);
        }
        let n = self.names.len();
        let universe = n + 1;
        // Validate references and build children rows.
        let mut children = Vec::with_capacity(universe);
        let mut text_children = Vec::with_capacity(n);
        let mut automata = Vec::with_capacity(n);
        for info in &self.names {
            match &info.content {
                Content::Text => {
                    children.push(NameSet::empty(universe));
                    text_children.push(NameSet::empty(universe));
                    automata.push(None);
                }
                Content::Element(re) => {
                    let ns = re.names(universe);
                    for m in &ns {
                        if m.index() >= n {
                            return Err(GrammarError::UndeclaredName(format!("{m:?}")));
                        }
                    }
                    let texts = NameSet::from_iter(
                        universe,
                        ns.iter()
                            .filter(|&m| matches!(self.names[m.index()].content, Content::Text)),
                    );
                    children.push(ns);
                    text_children.push(texts);
                    automata.push(Some(re.compile()));
                }
            }
        }
        // The document name's row: its one child is the root.
        children.push(NameSet::singleton(universe, root));
        // Parents = transpose.
        let mut parents = vec![NameSet::empty(universe); universe];
        for (x, row) in children.iter().enumerate() {
            for y in row {
                parents[y.index()].insert(NameId(x as u32));
            }
        }
        // Transitive closures by iterated squaring-ish fixpoint (n is small:
        // tens of names for realistic DTDs).
        let descendants = transitive_closure(&children);
        let ancestors = transitive_closure(&parents);
        let mut dtd = Dtd {
            tags: self.tags,
            names: self.names,
            root,
            tag_to_name: self.tag_to_name,
            automata,
            children,
            parents,
            descendants,
            ancestors,
            text_children,
            fingerprint: 0,
        };
        dtd.fingerprint = fnv1a_fields(&[dtd.label(root), &dtd.to_dtd_syntax()]);
        Ok(dtd)
    }
}

/// 64-bit FNV-1a over `fields`, a `0xff` byte (never part of UTF-8)
/// closing each so field boundaries count.
fn fnv1a_fields(fields: &[&str]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for field in fields {
        for b in field.bytes().chain([0xff]) {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Computes `⇒⁺` rows from `⇒` rows by worklist propagation.
fn transitive_closure(direct: &[NameSet]) -> Vec<NameSet> {
    let n = direct.len();
    let mut closure: Vec<NameSet> = direct.to_vec();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            let row = closure[i].clone();
            let mut acc = row.clone();
            for j in &row {
                acc.union_with(&closure[j.index()]);
            }
            if acc != closure[i] {
                closure[i] = acc;
                changed = true;
            }
        }
    }
    closure
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example (§4.1):
    /// `{X → c[Y,Z], Y → a[W,String], Z → b[String], W → d[Y?]}`
    pub fn paper_dtd() -> (Dtd, NameId, NameId, NameId, NameId) {
        let mut b = Dtd::builder();
        let x = b.element("c");
        let y = b.element("a");
        let z = b.element("b");
        let w = b.element("d");
        let sy = b.text("a#text");
        let sz = b.text("b#text");
        b.content(x, Regex::Seq(vec![Regex::Name(y), Regex::Name(z)]));
        b.content(y, Regex::Seq(vec![Regex::Name(w), Regex::Name(sy)]));
        b.content(z, Regex::Name(sz));
        b.content(w, Regex::Opt(Box::new(Regex::Name(y))));
        let dtd = b.finish(x).unwrap();
        (dtd, x, y, z, w)
    }

    #[test]
    fn children_and_parents() {
        let (d, x, y, z, w) = paper_dtd();
        assert!(d.children_of(x).contains(y));
        assert!(d.children_of(x).contains(z));
        assert!(d.parents_of(y).contains(x));
        assert!(d.parents_of(y).contains(w));
        assert_eq!(d.parents_of(x), &d.singleton(d.doc_name()));
    }

    #[test]
    fn closures_handle_recursion() {
        let (d, x, y, _, w) = paper_dtd();
        // Y ⇒ W ⇒ Y? is recursive through W
        assert!(d.descendants_of(y).contains(y));
        assert!(d.descendants_of(x).contains(w));
        assert!(d.ancestors_of(y).contains(x));
        assert!(d.ancestors_of(y).contains(w));
        assert!(d.ancestors_of(y).contains(y));
    }

    #[test]
    fn tag_lookup() {
        let (d, x, _, _, _) = paper_dtd();
        assert_eq!(d.name_of_tag_str("c"), Some(x));
        assert_eq!(d.name_of_tag_str("zzz"), None);
    }

    #[test]
    fn document_name_is_wired_once() {
        let (d, x, y, _, w) = paper_dtd();
        let doc = d.doc_name();
        assert_eq!(doc.index(), d.name_count());
        assert_eq!(d.children_of(doc), &d.singleton(x));
        assert_eq!(d.parents_of(x), &d.singleton(doc));
        assert!(d.parents_of(doc).is_empty() && d.ancestors_of(doc).is_empty());
        // ancestor of every reachable name, descendant of none
        assert!(d.ancestors_of(y).contains(doc) && d.ancestors_of(w).contains(doc));
        assert!(d.all_names().all(|n| !d.descendants_of(n).contains(doc)));
        assert_eq!(d.descendants_of(doc), &d.full_set());
        assert!(!d.full_set().contains(doc));
    }

    #[test]
    fn duplicate_tag_rejected() {
        let mut b = Dtd::builder();
        let a = b.element("a");
        b.element("a");
        b.content(a, Regex::Epsilon);
        assert!(matches!(b.finish(a), Err(GrammarError::DuplicateTag(_))));
    }

    #[test]
    fn text_root_rejected() {
        let mut b = Dtd::builder();
        let t = b.text("t");
        assert!(matches!(b.finish(t), Err(GrammarError::BadRoot)));
    }

    #[test]
    fn reachable_from_root() {
        let mut b = Dtd::builder();
        let a = b.element("a");
        let c = b.element("b");
        let orphan = b.element("orphan");
        b.content(a, Regex::Name(c));
        b.content(c, Regex::Epsilon);
        b.content(orphan, Regex::Epsilon);
        let d = b.finish(a).unwrap();
        let r = d.reachable_from_root();
        assert!(r.contains(a) && r.contains(c) && !r.contains(orphan));
    }

    #[test]
    fn dtd_syntax_rendering() {
        let (d, _, _, _, _) = paper_dtd();
        let s = d.to_dtd_syntax();
        assert!(s.contains("<!ELEMENT c (a, b)>"));
        assert!(s.contains("#PCDATA"));
    }
}
