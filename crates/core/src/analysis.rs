//! The analysis context: `A_E` / `T_E` (Def. 4.1) over the grammar's
//! one name universe, plus the normalised path representation the type
//! system and projector inference operate on.
//!
//! **Document name.** XPath absolute paths start at the document node,
//! which no DTD name generates; the grammar's universe therefore holds
//! one more name, [`Dtd::doc_name`], whose single child is the DTD root
//! `X` (its rows are built with the grammar's, once). The analysis of an
//! absolute path starts from the uniform environment `({DOC}, {DOC})`,
//! and normalising the inferred set into a projector drops `DOC`.
//!
//! **Normalisation.** Figure 1 and Figure 2 work on three primitive step
//! shapes — `self::Test`, `self::node()[Cond]` and `Axis::node()` — with
//! all other steps encoded into them (the "encoded rules"). [`NormPaths`]
//! performs that encoding once, arena-allocating every path (the main one
//! and every condition disjunct) so that a path suffix is identified by a
//! `(PathId, index)` pair, numbered densely as a *slot* — the key that
//! makes memoisation of the inference O(names × suffixes).
//!
//! **Usefulness.** Along downward steps the type never reads the context,
//! so whether a suffix types non-empty from `({x}, κ)` depends on `x`
//! alone. [`Analyzer::usefulness`] decides it for every name at once, one
//! backward pass per path ([`Usefulness`]), and the inference tests
//! membership where Fig. 2 would type the suffix once per name.

use std::cell::Cell;
use xproj_dtd::{Dtd, NameId, NameSet};
use xproj_xpath::xpathl::{LAxis, LPath, LStep, LTest, SimplePath};

/// Identifier of a normalised path in the arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PathId(pub u32);

/// Primitive analysis steps (the shapes of Figure 1 / Figure 2).
#[derive(Clone, Debug, PartialEq)]
pub enum PStep {
    /// `Axis::node()` for a non-self axis.
    AxisNode(LAxis),
    /// `self::Test`.
    SelfTest(LTest),
    /// `self::node()[P₁ or … or Pₙ]` — the disjuncts are arena paths.
    Cond(Vec<PathId>),
}

/// Arena of normalised paths. `arena[0]` is the main path.
#[derive(Clone, Debug, Default)]
pub struct NormPaths {
    arena: Vec<Vec<PStep>>,
    /// The slot of each path's first suffix: path `p`'s suffixes
    /// `0..=len` are slots `first_slot[p]..=first_slot[p] + len`.
    first_slot: Vec<usize>,
}

impl NormPaths {
    /// Normalises an XPathℓ path into primitive steps.
    pub fn new(path: &LPath) -> Self {
        let mut np = NormPaths {
            arena: vec![Vec::new()],
            first_slot: Vec::new(),
        };
        let main = np.norm_steps(&path.steps);
        np.arena[0] = main;
        let mut next = 0;
        for steps in &np.arena {
            np.first_slot.push(next);
            next += steps.len() + 1;
        }
        np
    }

    /// Every path id, the main path first.
    pub fn path_ids(&self) -> impl DoubleEndedIterator<Item = PathId> {
        (0..self.arena.len() as u32).map(PathId)
    }

    /// The dense number of suffix `steps(pid)[idx..]`, `idx` up to the
    /// path's length.
    pub fn slot(&self, pid: PathId, idx: usize) -> usize {
        self.first_slot[pid.0 as usize] + idx
    }

    /// How many suffixes there are: one more than the steps of each path.
    pub fn slot_count(&self) -> usize {
        self.first_slot
            .last()
            .map_or(0, |&s| s + self.arena.last().map_or(0, Vec::len) + 1)
    }

    /// The main path id.
    pub fn main(&self) -> PathId {
        PathId(0)
    }

    /// The steps of a path.
    pub fn steps(&self, id: PathId) -> &[PStep] {
        &self.arena[id.0 as usize]
    }

    /// Human-readable rendering of one primitive step, for provenance
    /// reports. `idx` one past the end renders as the match point.
    pub fn render_step(&self, pid: PathId, idx: usize) -> String {
        use xproj_xpath::xpathl::SimpleStep;
        match self.steps(pid).get(idx) {
            None => "the match point (end of path)".to_string(),
            Some(PStep::AxisNode(axis)) => format!("{}::node()", axis.name()),
            Some(PStep::SelfTest(test)) => {
                SimpleStep::new(LAxis::SelfAxis, test.clone()).to_string()
            }
            // Condition disjuncts are relative: no leading `/`.
            Some(PStep::Cond(ids)) => {
                let disjunct = |&id: &PathId| {
                    let steps = 0..self.steps(id).len();
                    steps
                        .map(|i| self.render_step(id, i))
                        .collect::<Vec<_>>()
                        .join("/")
                };
                format!(
                    "[{}]",
                    ids.iter().map(disjunct).collect::<Vec<_>>().join(" or ")
                )
            }
        }
    }

    fn norm_steps(&mut self, steps: &[LStep]) -> Vec<PStep> {
        let mut out = Vec::with_capacity(steps.len() * 2);
        for ls in steps {
            self.norm_step(ls, &mut out);
        }
        out
    }

    fn norm_step(&mut self, ls: &LStep, out: &mut Vec<PStep>) {
        let axis = ls.step.axis;
        let test = &ls.step.test;
        match axis {
            LAxis::SelfAxis => {
                // self::Test — keep even self::node() so a bare path has
                // at least one primitive step.
                out.push(PStep::SelfTest(test.clone()));
            }
            _ => {
                out.push(PStep::AxisNode(axis));
                if *test != LTest::Node {
                    out.push(PStep::SelfTest(test.clone()));
                }
            }
        }
        if !ls.cond.is_empty() {
            let ids = ls
                .cond
                .iter()
                .map(|p| self.add_simple(p))
                .collect::<Vec<_>>();
            out.push(PStep::Cond(ids));
        }
    }

    fn add_simple(&mut self, p: &SimplePath) -> PathId {
        let steps: Vec<PStep> = {
            let mut out = Vec::with_capacity(p.len() * 2);
            for s in p {
                self.norm_step(&LStep::plain(s.clone()), &mut out);
            }
            out
        };
        let id = PathId(self.arena.len() as u32);
        self.arena.push(steps);
        id
    }
}

/// The fixed steps of one set operation: the sets the analysis makes
/// and drops around each operation cost about as much as sixteen word
/// operations.
const OP_STEPS: u64 = 16;

/// The steps of allocating and freeing one set.
const ALLOC_STEPS: u64 = 16;

/// `A_E` and `T_E` (Def. 4.1) over a grammar's reachability rows: a
/// borrow of the [`Dtd`], the context ablation switch and the work
/// counter, so building one costs nothing.
///
/// **Steps.** Every set operation over the grammar's n-name universe
/// — a row union of `A_E`, a `T_E` filter, a context intersection, the
/// copy a sequent makes — is charged `OP_STEPS + ⌈n/64⌉` steps: a fixed
/// cost plus one per 64-bit word it touches (and `ALLOC_STEPS` more when
/// n is past [`NameSet::INLINE_NAMES`], for the set it allocates). The
/// count is a pure function of (grammar, query, contexts), so it
/// repeats exactly, and it tracks the time spent whatever the grammar's
/// size: a whole compile takes 0.8–2.0 ns a step on a 2-vCPU x86-64
/// box, by the query's mix of operations.
/// Once it passes the budget ([`Analyzer::with_budget`]) `A_E` and
/// `T_E` answer ∅ without touching a row, the inference unwinds, and
/// whatever it returns is meaningless: a caller that set a budget
/// checks [`Analyzer::over_budget`] and discards it.
#[derive(Clone)]
pub struct Analyzer<'d> {
    /// The underlying DTD.
    pub dtd: &'d Dtd,
    /// Ablation switch: when `false`, contexts are not intersected
    /// (upward axes use raw `A_E` and `restrict_context` is the
    /// identity). Used to quantify what the κ component of Fig. 1 buys;
    /// the analysis stays sound, only less precise.
    pub use_contexts: bool,
    steps: Cell<u64>,
    budget: u64,
    op_steps: u64,
}

impl<'d> Analyzer<'d> {
    /// The analysis context of a DTD, contexts on, no budget.
    pub fn new(dtd: &'d Dtd) -> Self {
        Analyzer::with_budget(dtd, u64::MAX)
    }

    /// The analysis context of a DTD, contexts on, that stops working
    /// once more than `budget` steps are spent.
    pub fn with_budget(dtd: &'d Dtd, budget: u64) -> Self {
        let universe = dtd.empty_set().universe();
        let alloc = if universe > NameSet::INLINE_NAMES {
            ALLOC_STEPS
        } else {
            0
        };
        Analyzer {
            dtd,
            use_contexts: true,
            steps: Cell::new(0),
            budget,
            op_steps: OP_STEPS + alloc + universe.div_ceil(64) as u64,
        }
    }

    /// Steps spent so far (see the type docs).
    pub fn steps(&self) -> u64 {
        self.steps.get()
    }

    /// Whether the steps spent passed the budget: every result since is
    /// meaningless.
    pub fn over_budget(&self) -> bool {
        self.steps.get() > self.budget
    }

    /// Charges `ops` set operations; `false` once over budget, after
    /// which nothing more is counted (what follows is unwinding).
    pub fn charge(&self, ops: u64) -> bool {
        if self.over_budget() {
            return false;
        }
        self.steps.set(
            self.steps
                .get()
                .saturating_add(ops.saturating_mul(self.op_steps)),
        );
        !self.over_budget()
    }

    /// The starting environment `({S}, {S})`: `S` is the document name
    /// for absolute paths, the DTD root `X` for relative ones (the
    /// paper's Theorem 4.4/4.5 set-up).
    pub fn start_env(&self, absolute: bool) -> (NameSet, NameSet) {
        let start = if absolute {
            self.dtd.doc_name()
        } else {
            self.dtd.root()
        };
        let s = self.dtd.singleton(start);
        (s.clone(), s)
    }

    /// `A_E(τ, Axis)` (Def. 4.1): the union of the axis' rows over τ.
    /// `-or-self` axes include τ itself. Charges one operation per row.
    pub fn axis(&self, tau: &NameSet, axis: LAxis) -> NameSet {
        let (row, or_self): (fn(&'d Dtd, NameId) -> &'d NameSet, bool) = match axis {
            LAxis::SelfAxis => return tau.clone(),
            LAxis::Child => (Dtd::children_of, false),
            LAxis::Parent => (Dtd::parents_of, false),
            LAxis::Descendant => (Dtd::descendants_of, false),
            LAxis::Ancestor => (Dtd::ancestors_of, false),
            LAxis::DescendantOrSelf => (Dtd::descendants_of, true),
            LAxis::AncestorOrSelf => (Dtd::ancestors_of, true),
        };
        if !self.charge(1) {
            return self.dtd.empty_set();
        }
        let mut out = if or_self {
            tau.clone()
        } else {
            self.dtd.empty_set()
        };
        let mut rows = 0;
        for n in tau {
            out.union_with(row(self.dtd, n));
            rows += 1;
        }
        self.charge(rows);
        out
    }

    /// `T_E(τ, Test)` (Def. 4.1, extended with the §6 `element()`
    /// wildcard and attribute tests). The document name passes `node()`
    /// only.
    pub fn test(&self, tau: &NameSet, test: &LTest) -> NameSet {
        let dtd = self.dtd;
        if !self.charge(1) {
            return dtd.empty_set();
        }
        let keep = |pred: &dyn Fn(NameId) -> bool| {
            dtd.set_of(tau.iter().filter(|&n| n != dtd.doc_name() && pred(n)))
        };
        match test {
            LTest::Node => tau.clone(),
            LTest::Text => keep(&|n| dtd.is_text_name(n)),
            LTest::Element => keep(&|n| !dtd.is_text_name(n)),
            LTest::Tag(t) => match dtd.name_of_tag_str(t) {
                Some(n) if tau.contains(n) => dtd.singleton(n),
                _ => dtd.empty_set(),
            },
            LTest::HasAttribute(None) => keep(&|n| !dtd.info(n).attributes.is_empty()),
            LTest::HasAttribute(Some(att)) => match dtd.tags.get(att) {
                Some(t) => keep(&|n| dtd.info(n).attributes.contains(&t)),
                None => dtd.empty_set(),
            },
        }
    }

    /// `U` of every suffix of `np` that reads no context (see
    /// [`Usefulness`]), by one backward pass per path: the condition
    /// disjuncts first, since a condition step reads theirs.
    pub fn usefulness(&self, np: &NormPaths) -> Usefulness {
        let mut useful: Vec<Option<NameSet>> = vec![None; np.slot_count()];
        let mut below: Vec<Option<NameSet>> = vec![None; np.slot_count()];
        for pid in np.path_ids().rev() {
            let steps = np.steps(pid);
            let first = np.slot(pid, 0);
            self.charge(1);
            useful[first + steps.len()] = Some(self.dtd.universe_set().clone());
            for (idx, step) in steps.iter().enumerate().rev() {
                let Some(next) = &useful[first + idx + 1] else {
                    break;
                };
                let u = match step {
                    PStep::SelfTest(test) => self.test(next, test),
                    PStep::AxisNode(LAxis::Child) => self.above(next, LAxis::Parent),
                    PStep::AxisNode(LAxis::Descendant) => {
                        let u = self.above(next, LAxis::Ancestor);
                        self.charge(1);
                        below[first + idx + 1] = Some(u.clone());
                        u
                    }
                    PStep::AxisNode(LAxis::DescendantOrSelf) => {
                        let strict = self.above(next, LAxis::Ancestor);
                        self.charge(1);
                        let u = strict.union(next);
                        below[first + idx + 1] = Some(strict);
                        u
                    }
                    PStep::AxisNode(_) => break,
                    PStep::Cond(ids) => {
                        let disjuncts: Option<Vec<&NameSet>> = ids
                            .iter()
                            .map(|&id| useful[np.slot(id, 0)].as_ref())
                            .collect();
                        let Some(disjuncts) = disjuncts else { break };
                        self.charge(disjuncts.len() as u64 + 1);
                        let mut any = self.dtd.empty_set();
                        for u in disjuncts {
                            any.union_with(u);
                        }
                        any.intersect_with(next);
                        any
                    }
                };
                useful[first + idx] = Some(u);
            }
        }
        Usefulness { useful, below }
    }

    /// `A_E(u, axis)` for `parent` or `ancestor`, one copy of the
    /// grammar's [`Dtd::names_with_children`] when `u` is the whole
    /// universe (every name's parents are the names with a child, and so
    /// are its ancestors).
    fn above(&self, u: &NameSet, axis: LAxis) -> NameSet {
        if u == self.dtd.universe_set() {
            self.charge(1);
            return self.dtd.names_with_children().clone();
        }
        self.axis(u, axis)
    }

    /// Restricts a context to ancestors-or-self of `tau`, preserving the
    /// environment well-formedness invariant κ ⊆ τ ∪ A_E(τ, ancestor).
    ///
    /// In the no-context ablation the traversal history is forgotten: the
    /// context is always the *maximal* well-formed one,
    /// τ ∪ A_E(τ, ancestor) — so upward axes fall back to raw
    /// reachability.
    pub fn restrict_context(&self, kappa: &NameSet, tau: &NameSet) -> NameSet {
        let mut bound = self.axis(tau, LAxis::AncestorOrSelf);
        if self.use_contexts {
            self.charge(1);
            bound.intersect_with(kappa);
        }
        bound
    }
}

/// `U(pid, idx)`, by slot: the names `x` from which the suffix
/// `steps(pid)[idx..]` types non-empty, `({x}, κ) ⊢ … : Σ` with
/// `Σ_τ ≠ ∅`. It is defined for a suffix in which neither a step nor a
/// condition has an upward axis, and there it is exact for every
/// well-formed κ, contexts on or off: a downward step's type reads no
/// context, and `A_E`, `T_E` and the condition filter distribute over
/// union, so backwards from the end
///
/// ```text
/// U(end) = every name and the document name
/// self::t → T_E(U′, t)          child → A_E(U′, parent)
/// desc → A_E(U′, ancestor)      dos → A_E(U′, ancestor-or-self)
/// [P₁ or … or Pₙ] → U′ ∩ ⋃ U(Pᵢ, 0)    an upward axis → undefined
/// ```
///
/// (which rests on children/parents and descendants/ancestors being
/// inverse rows).
#[derive(Clone, Debug, Default)]
pub struct Usefulness {
    useful: Vec<Option<NameSet>>,
    /// After a `descendant` or `descendant-or-self` step, `A_E(U,
    /// ancestor)`: the names with a strict descendant in `U`.
    below: Vec<Option<NameSet>>,
}

impl Usefulness {
    /// `U` of the suffix at `slot`, if it reads no context.
    pub fn of(&self, slot: usize) -> Option<&NameSet> {
        self.useful[slot].as_ref()
    }

    /// `A_E(U, ancestor)` of the suffix at `slot`, if it follows a
    /// `descendant` or `descendant-or-self` step and reads no context.
    pub fn below(&self, slot: usize) -> Option<&NameSet> {
        self.below[slot].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_dtd::parse_dtd;
    use xproj_xpath::xpathl::SimpleStep;

    fn dtd() -> Dtd {
        parse_dtd(
            "<!ELEMENT c (a, b)>\
             <!ELEMENT a (d?, #PCDATA)>\
             <!ELEMENT b (#PCDATA)>\
             <!ELEMENT d (a?)>",
            "c",
        )
        .unwrap()
    }

    #[test]
    fn doc_name_wiring() {
        let d = dtd();
        let an = Analyzer::new(&d);
        let (tau, kappa) = an.start_env(true);
        assert_eq!(tau, kappa);
        let kids = an.axis(&tau, LAxis::Child);
        assert_eq!(kids, d.singleton(d.root()));
        // DOC is an ancestor of everything
        let a = d.name_of_tag_str("a").unwrap();
        assert!(an
            .axis(&d.singleton(a), LAxis::Ancestor)
            .contains(d.doc_name()));
        // and has no ancestors itself
        assert!(an
            .axis(&d.singleton(d.doc_name()), LAxis::Ancestor)
            .is_empty());
    }

    #[test]
    fn axis_selection() {
        let d = dtd();
        let an = Analyzer::new(&d);
        let a = d.name_of_tag_str("a").unwrap();
        let dd = d.name_of_tag_str("d").unwrap();
        // a ⇒ d and d ⇒ a (mutual recursion)
        assert!(an.axis(&d.singleton(a), LAxis::Child).contains(dd));
        assert!(an.axis(&d.singleton(a), LAxis::Descendant).contains(a));
        let parents_of_a = an.axis(&d.singleton(a), LAxis::Parent);
        assert!(parents_of_a.contains(d.root()) && parents_of_a.contains(dd));
    }

    #[test]
    fn tests_filter() {
        let d = dtd();
        let an = Analyzer::new(&d);
        let mut all = d.full_set();
        all.insert(d.doc_name());
        let texts = an.test(&all, &LTest::Text);
        assert_eq!(texts.len(), 2); // a#text, b#text
        let elems = an.test(&all, &LTest::Element);
        assert_eq!(elems.len(), 4);
        let tag_b = an.test(&all, &LTest::Tag("b".into()));
        assert_eq!(tag_b.len(), 1);
        // doc name only passes node()
        assert!(an.test(&all, &LTest::Node).contains(d.doc_name()));
        assert!(!elems.contains(d.doc_name()));
    }

    #[test]
    fn restrict_context_wf() {
        let d = dtd();
        let an = Analyzer::new(&d);
        let a = d.name_of_tag_str("a").unwrap();
        let b = d.name_of_tag_str("b").unwrap();
        let mut kappa = d.empty_set();
        kappa.insert(a);
        kappa.insert(b);
        kappa.insert(d.root());
        let tau = d.singleton(a);
        let k2 = an.restrict_context(&kappa, &tau);
        assert!(k2.contains(a) && k2.contains(d.root()));
        assert!(!k2.contains(b)); // b is not an ancestor of a
    }

    #[test]
    fn normalisation_shapes() {
        use xproj_xpath::xpathl::{LPath, LStep, LTest};
        // child::a[child::b]/self::text()
        let p = LPath {
            steps: vec![
                LStep {
                    step: SimpleStep::new(LAxis::Child, LTest::Tag("a".into())),
                    cond: vec![vec![SimpleStep::new(LAxis::Child, LTest::Tag("b".into()))]],
                },
                LStep::plain(SimpleStep::new(LAxis::SelfAxis, LTest::Text)),
            ],
        };
        let np = NormPaths::new(&p);
        let main = np.steps(np.main());
        assert_eq!(main.len(), 4); // AxisNode(child), SelfTest(a), Cond, SelfTest(text)
        assert!(matches!(main[0], PStep::AxisNode(LAxis::Child)));
        assert!(matches!(main[1], PStep::SelfTest(LTest::Tag(_))));
        assert!(matches!(main[2], PStep::Cond(_)));
        // the condition path: AxisNode(child), SelfTest(b)
        if let PStep::Cond(ids) = &main[2] {
            assert_eq!(np.steps(ids[0]).len(), 2);
        }
    }

    #[test]
    fn axis_node_steps_skip_redundant_test() {
        use xproj_xpath::xpathl::LPath;
        let p = LPath {
            steps: vec![LStep::plain(SimpleStep::new(
                LAxis::Descendant,
                LTest::Node,
            ))],
        };
        let np = NormPaths::new(&p);
        assert_eq!(np.steps(np.main()).len(), 1);
    }
}
