//! Projector inference — the rules of Figure 2.
//!
//! The inference works one name at a time (the union rule), memoised on
//! `(name, context)` within each suffix's slot. The recursive
//! `descendant` / `ancestor` rules follow the paper's unrolled-fixpoint
//! formulation: a descendant name is *useful* iff the remainder of the
//! path can select something strictly below it, and the data needs at
//! the actual match points are collected by re-entering the inference
//! through a synthesised `child::node()` (resp. `parent`) step.
//!
//! Every premise `Σⁱ_τ ≠ ∅` whose suffix reads no context is decided by
//! membership in that suffix's usefulness set ([`Usefulness`], one
//! backward pass per path before the inference); a suffix with an upward
//! axis is typed once per name, as the rule reads.

use crate::analysis::{Analyzer, NormPaths, PStep, PathId, Usefulness};
use crate::projector::Projector;
use crate::typeinf::{type_axis, type_path, Env};
use xproj_dtd::{Dtd, NameId, NameSet};
use xproj_xpath::approx::approximate_query;
use xproj_xpath::ast::Expr;
use xproj_xpath::parse_xpath;
use xproj_xpath::xpathl::{LAxis, LPath};

/// Error raised by the high-level query entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The query string did not parse.
    Parse(String),
    /// The query is an expression, not a location path.
    NotAPath(String),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Parse(m) => write!(f, "cannot parse query: {m}"),
            AnalyzeError::NotAPath(q) => write!(f, "not a location path: {q}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// One memoised sub-inference of a slot: `({y}, κ) ⊩ suffix : result`.
/// The slot stands for `(path, index)`, so `(slot, y, κ)` is the key.
type MemoEntry = (NameId, NameSet, NameSet);

/// Which Figure 2 rule admitted a name into the raw inferred set (the
/// provenance vocabulary of the analyzer layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceRule {
    /// Base rule: the name is in the final environment (the match's type
    /// or its context) — it lies on the `⇒E` chain to a selected node.
    Final,
    /// The step's own spine name `Y` (the `{Y} ∪ …` part of a rule).
    Spine,
    /// Admitted as a *useful* axis target of the step (an `Xᵢ` whose
    /// subtree can still satisfy the rest of the path).
    Axis,
    /// Materialisation: a descendant of the result type, kept so result
    /// subtrees serialize intact (§4.2 end).
    Materialize,
}

impl TraceRule {
    /// Stable lowercase label (used in JSON reports).
    pub fn label(self) -> &'static str {
        match self {
            TraceRule::Final => "final",
            TraceRule::Spine => "spine",
            TraceRule::Axis => "axis",
            TraceRule::Materialize => "materialize",
        }
    }
}

/// One provenance event: `name` was admitted by `rule` while inferring
/// step `(pid, idx)` of source path number `source` (its position in
/// the workload handed to [`StaticAnalyzer::project_paths`]). Events
/// are recorded the *first* time each memoised sub-inference runs, so
/// every name in the raw inferred set has at least one event; memo hits
/// do not duplicate events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The admitted name (never the document name).
    pub name: NameId,
    /// The rule that admitted it.
    pub rule: TraceRule,
    /// Which top-level source path was being inferred.
    pub source: usize,
    /// Arena path (0 = main path, > 0 = condition disjuncts) within that
    /// source. Meaningless for [`TraceRule::Materialize`].
    pub pid: PathId,
    /// Step index within `pid`; for [`TraceRule::Final`] this is the path
    /// length (one past the last step).
    pub idx: usize,
    /// The name the step was applied *from*, when distinct from `name`.
    pub via: Option<NameId>,
}

/// The static analyser: a borrow of the grammar (whose reachability
/// rows are already built) and the inference memo, so creating one
/// allocates nothing. One instance can analyse any number of queries
/// against the same DTD; projectors for a workload are unioned. Its
/// [`steps`](Self::steps) count the work all of them took (see
/// [`Analyzer`]).
pub struct StaticAnalyzer<'d> {
    an: Analyzer<'d>,
    /// By slot of the path being inferred, its memoised sub-inferences.
    memo: Vec<Vec<MemoEntry>>,
    /// The path being inferred's usefulness sets.
    useful: Usefulness,
    trace: Option<Vec<TraceEvent>>,
    trace_source: usize,
}

impl<'d> StaticAnalyzer<'d> {
    /// Builds an analyser for a DTD.
    pub fn new(dtd: &'d Dtd) -> Self {
        StaticAnalyzer::with_budget(dtd, u64::MAX)
    }

    /// Builds an analyser that stops inferring once it has spent more
    /// than `budget` steps. Past that, [`Self::over_budget`] holds and
    /// every projector it returns is meaningless.
    pub fn with_budget(dtd: &'d Dtd, budget: u64) -> Self {
        StaticAnalyzer {
            an: Analyzer::with_budget(dtd, budget),
            memo: Vec::new(),
            useful: Usefulness::default(),
            trace: None,
            trace_source: 0,
        }
    }

    /// Starts recording provenance events. Tracing is off by default —
    /// the recorder is one `Option` check per name admission, but the
    /// event log grows with the inference, so only diagnostics turn it
    /// on.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Drains the recorded events, leaving tracing enabled.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    fn record(
        &mut self,
        name: NameId,
        rule: TraceRule,
        pid: PathId,
        idx: usize,
        via: Option<NameId>,
    ) {
        if let Some(events) = self.trace.as_mut() {
            if name != self.an.dtd.doc_name() {
                events.push(TraceEvent {
                    name,
                    rule,
                    source: self.trace_source,
                    pid,
                    idx,
                    via: via.filter(|&v| v != name),
                });
            }
        }
    }

    fn record_set(
        &mut self,
        set: &NameSet,
        rule: TraceRule,
        pid: PathId,
        idx: usize,
        via: Option<NameId>,
    ) {
        if self.trace.is_some() {
            for n in set {
                self.record(n, rule, pid, idx, via);
            }
        }
    }

    /// Steps spent so far: a count of set operations weighted by the
    /// words they touch, exact and repeatable (see [`Analyzer`]).
    pub fn steps(&self) -> u64 {
        self.an.steps()
    }

    /// Whether the steps spent passed the budget.
    pub fn over_budget(&self) -> bool {
        self.an.over_budget()
    }

    /// The underlying analysis context (`A_E` / `T_E`).
    pub fn analyzer(&self) -> &Analyzer<'d> {
        &self.an
    }

    /// Toggles the context component of the type system (ablation; see
    /// [`Analyzer::use_contexts`]). Turning contexts off keeps the
    /// analysis sound but loses the precision the paper's κ machinery
    /// provides for upward axes.
    pub fn set_use_contexts(&mut self, on: bool) {
        self.an.use_contexts = on;
        self.memo.clear();
    }

    /// Infers the *materialised* projector for an XPath query string: the
    /// exact projector of Thm. 4.5 extended with all descendants of the
    /// result type (τ′ ∪ A_E(τ″, descendant), end of §4.2), so that
    /// serialising the selected nodes is also preserved. This is the
    /// practical default.
    pub fn project_query(&mut self, query: &str) -> Result<Projector, AnalyzeError> {
        self.project_xpath(query, true)
    }

    /// Infers the exact (non-materialised) projector of Thm. 4.5 for an
    /// XPath query string: result *identity* is preserved, result subtrees
    /// may be pruned.
    pub fn project_query_exact(&mut self, query: &str) -> Result<Projector, AnalyzeError> {
        self.project_xpath(query, false)
    }

    /// Parse → approximate → the workload loop over the main path
    /// (source 0) and the auxiliary paths (source k + 1).
    fn project_xpath(&mut self, query: &str, materialize: bool) -> Result<Projector, AnalyzeError> {
        let expr = parse_xpath(query).map_err(|e| AnalyzeError::Parse(e.to_string()))?;
        let Expr::Path(p) = expr else {
            return Err(AnalyzeError::NotAPath(expr.to_string()));
        };
        let a = approximate_query(&p);
        let aux = a.auxiliary.iter().map(|aux| (aux, true));
        Ok(self.project_paths(
            std::iter::once((&a.path, a.absolute)).chain(aux),
            materialize,
        ))
    }

    /// The workload loop (§5), the one place a set of data-need paths
    /// becomes a projector: infer each `(path, absolute)` pair (with
    /// tracing on, its position is the events' `source`), union the raw
    /// sets, optionally *materialise* the first path — add every
    /// descendant of its result type (§4.2 end) — and normalise, which
    /// also drops the document name.
    pub fn project_paths<'p>(
        &mut self,
        paths: impl IntoIterator<Item = (&'p LPath, bool)>,
        materialize: bool,
    ) -> Projector {
        let mut raw = self.an.dtd.empty_set();
        let mut main = None;
        for (source, (path, absolute)) in paths.into_iter().enumerate() {
            self.trace_source = source;
            raw.union_with(&self.infer_lpath(path, absolute));
            main.get_or_insert((path, absolute));
        }
        self.trace_source = 0;
        if let (true, Some((path, absolute))) = (materialize, main) {
            // τ″: the result type of the main path.
            let tau = self.type_of_lpath(path, absolute);
            let subtree = self.an.axis(&tau, LAxis::Descendant);
            self.record_set(&subtree, TraceRule::Materialize, PathId(0), 0, None);
            raw.union_with(&subtree);
        }
        // Normalising visits each name's child row at most once.
        if !self.an.charge(self.an.dtd.name_count() as u64) {
            return Projector::empty(self.an.dtd);
        }
        Projector::normalized(self.an.dtd, raw)
    }

    /// Result type of an XPathℓ path (the ⊢ judgement from the start
    /// environment); contains the document name when the path can select
    /// the document node.
    pub fn type_of_lpath(&self, path: &LPath, absolute: bool) -> NameSet {
        let np = NormPaths::new(path);
        let (tau, kappa) = self.an.start_env(absolute);
        type_path(&self.an, &np, Env::new(tau, kappa), np.main(), 0).tau
    }

    /// Raw inferred name-set (⊩ judgement) for an XPathℓ path (includes
    /// the document name for absolute paths).
    fn infer_lpath(&mut self, path: &LPath, absolute: bool) -> NameSet {
        // Slots and usefulness sets are only meaningful within one
        // NormPaths arena.
        let np = NormPaths::new(path);
        self.memo.clear();
        self.memo.resize_with(np.slot_count(), Vec::new);
        self.useful = self.an.usefulness(&np);
        let (tau, kappa) = self.an.start_env(absolute);
        let start = tau.iter().next().expect("start environment is a singleton");
        self.proj(&np, start, &kappa, np.main(), 0)
    }

    /// `({Y}, κ) ⊩ steps[idx..] : result` (Figure 2), memoised.
    fn proj(
        &mut self,
        np: &NormPaths,
        y: NameId,
        kappa: &NameSet,
        pid: PathId,
        idx: usize,
    ) -> NameSet {
        // One copy of κ, or a memo probe that compares it (and on a miss
        // copies it and the result).
        if !self.an.charge(1) {
            return self.an.dtd.empty_set();
        }
        let steps = np.steps(pid);
        if idx >= steps.len() {
            // Base: the final environment's type and context are all kept
            // (rule Σ ⊩ Step : τ ∪ κ, decomposed).
            let mut out = kappa.clone();
            out.insert(y);
            self.record(y, TraceRule::Final, pid, idx, None);
            self.record_set(kappa, TraceRule::Final, pid, idx, Some(y));
            return out;
        }
        let slot = np.slot(pid, idx);
        if let Some((_, _, hit)) = self.memo[slot]
            .iter()
            .find(|(z, k, _)| *z == y && k == kappa)
        {
            return hit.clone();
        }
        let result = self.proj_uncached(np, y, kappa, pid, idx);
        self.memo[slot].push((y, kappa.clone(), result.clone()));
        result
    }

    fn proj_uncached(
        &mut self,
        np: &NormPaths,
        y: NameId,
        kappa: &NameSet,
        pid: PathId,
        idx: usize,
    ) -> NameSet {
        let an_singleton = self.an.dtd.singleton(y);
        match &np.steps(pid)[idx] {
            PStep::SelfTest(test) => {
                // ({Y},κ) ⊢ self::Test : Σ    Σ ⊩ P : τ
                // ──────────────────────────────────────
                //      ({Y},κ) ⊩ self::Test/P : {Y} ∪ τ
                let tau = self.an.test(&an_singleton, test);
                let mut out = self.an.dtd.singleton(y);
                self.record(y, TraceRule::Spine, pid, idx, None);
                if !tau.is_empty() {
                    let kappa2 = self.an.restrict_context(kappa, &tau);
                    out.union_with(&self.proj(np, y, &kappa2, pid, idx + 1));
                }
                out
            }
            PStep::Cond(paths) => {
                // ({Y},κ) ⊢ self::node[P₁ or … or Pₙ] : Σ
                // Σ ⊩ P : τ    Σ ⊩ Pᵢ : τᵢ
                // ⊩ … : {Y} ∪ τ ∪ τ₁ ∪ … ∪ τₙ
                let paths = paths.clone();
                // By the disjuncts' usefulness sets while they decide it.
                let decided = paths.iter().try_fold(false, |holds, &c| {
                    Some(holds || self.useful.of(np.slot(c, 0))?.contains(y))
                });
                let holds = decided.unwrap_or_else(|| {
                    crate::typeinf::cond_may_hold(&self.an, np, y, kappa, &paths)
                });
                let mut out = self.an.dtd.singleton(y);
                self.record(y, TraceRule::Spine, pid, idx, None);
                if holds {
                    let kappa2 = self.an.restrict_context(kappa, &an_singleton);
                    out.union_with(&self.proj(np, y, &kappa2, pid, idx + 1));
                    for cpid in paths {
                        out.union_with(&self.proj(np, y, &kappa2, cpid, 0));
                    }
                }
                out
            }
            PStep::AxisNode(axis) => {
                let axis = *axis;
                match axis {
                    LAxis::Child | LAxis::Parent => {
                        self.proj_single_level(np, y, kappa, axis, pid, idx + 1, true)
                    }
                    LAxis::Descendant => {
                        self.proj_recursive(np, y, kappa, LAxis::Descendant, pid, idx + 1)
                    }
                    LAxis::Ancestor => {
                        self.proj_recursive(np, y, kappa, LAxis::Ancestor, pid, idx + 1)
                    }
                    LAxis::DescendantOrSelf => {
                        // dos::node/P  ≡  self::node/P  ∪  descendant::node/P
                        let mut out = self.an.dtd.singleton(y);
                        self.record(y, TraceRule::Spine, pid, idx, None);
                        out.union_with(&self.proj(np, y, kappa, pid, idx + 1));
                        out.union_with(&self.proj_recursive(
                            np,
                            y,
                            kappa,
                            LAxis::Descendant,
                            pid,
                            idx + 1,
                        ));
                        out
                    }
                    LAxis::AncestorOrSelf => {
                        let mut out = self.an.dtd.singleton(y);
                        self.record(y, TraceRule::Spine, pid, idx, None);
                        out.union_with(&self.proj(np, y, kappa, pid, idx + 1));
                        out.union_with(&self.proj_recursive(
                            np,
                            y,
                            kappa,
                            LAxis::Ancestor,
                            pid,
                            idx + 1,
                        ));
                        out
                    }
                    LAxis::SelfAxis => {
                        // normalisation never emits AxisNode(self)
                        unreachable!("self axis is normalised to SelfTest")
                    }
                }
            }
        }
    }

    /// The child/parent rule:
    ///
    /// ```text
    /// ({Y},κ) ⊢ Axis::node : ({X₁…Xₙ}, κ′)   ({Xᵢ},κ′) ⊢ P : Σⁱ
    /// (τ,κ′) ⊩ P : τ′       τ = {Xᵢ | Σⁱ_τ ≠ ∅}
    /// ─────────────────────────────────────────  Axis ∈ {parent, child}
    /// ({Y},κ) ⊩ Axis::node/P : {Y} ∪ τ ∪ τ′
    /// ```
    ///
    /// With `include_y = false` this computes `(…) ⊩ Axis::node/P` without
    /// adding `Y` (used as the synthesised step of the recursive rules,
    /// which add their own names).
    #[allow(clippy::too_many_arguments)] // mirrors the rule's premises
    fn proj_single_level(
        &mut self,
        np: &NormPaths,
        y: NameId,
        kappa: &NameSet,
        axis: LAxis,
        pid: PathId,
        rest_idx: usize,
        include_y: bool,
    ) -> NameSet {
        let env = type_axis(
            &self.an,
            Env::new(self.an.dtd.singleton(y), kappa.clone()),
            axis,
        );
        // Each useful Xᵢ with its context κ′|Xᵢ, in name order: the names
        // in the suffix's usefulness set, or, when the suffix reads the
        // context, the names it types non-empty from.
        let decided = self.useful.of(np.slot(pid, rest_idx));
        let candidates = match decided {
            Some(u) => {
                self.an.charge(1);
                env.tau.intersection(u)
            }
            None => env.tau.clone(),
        };
        let mut useful = self.an.dtd.empty_set();
        let mut contexts = Vec::new();
        for xi in &candidates {
            if self.an.over_budget() {
                break;
            }
            let xs = self.an.dtd.singleton(xi);
            let kx = self.an.restrict_context(&env.kappa, &xs);
            if decided.is_some()
                || !type_path(&self.an, np, Env::new(xs, kx.clone()), pid, rest_idx).is_empty()
            {
                useful.insert(xi);
                contexts.push((xi, kx));
            }
        }
        let mut out = if include_y {
            self.record(y, TraceRule::Spine, pid, rest_idx.saturating_sub(1), None);
            self.an.dtd.singleton(y)
        } else {
            self.an.dtd.empty_set()
        };
        out.union_with(&useful);
        self.record_set(
            &useful,
            TraceRule::Axis,
            pid,
            rest_idx.saturating_sub(1),
            Some(y),
        );
        for (xi, kx) in contexts {
            if self.an.over_budget() {
                break;
            }
            out.union_with(&self.proj(np, xi, &kx, pid, rest_idx));
        }
        out
    }

    /// The descendant/ancestor rule (desc shown; ancs is the mirror):
    ///
    /// ```text
    /// ({Y},κ) ⊢ desc::node : ({X₁…Xₙ}, κ′)
    /// ({Xᵢ},κ′) ⊢ desc::node/P : Σⁱ      τ = {Xᵢ | Σⁱ_τ ≠ ∅} ∪ {Y}
    /// (τ,κ′) ⊩ child::node/P : τ′
    /// ─────────────────────────────────────────
    /// ({Y},κ) ⊩ desc::node/P : τ ∪ τ′
    /// ```
    fn proj_recursive(
        &mut self,
        np: &NormPaths,
        y: NameId,
        kappa: &NameSet,
        axis: LAxis,
        pid: PathId,
        rest_idx: usize,
    ) -> NameSet {
        let single = if axis == LAxis::Descendant {
            LAxis::Child
        } else {
            LAxis::Parent
        };
        let env = type_axis(
            &self.an,
            Env::new(self.an.dtd.singleton(y), kappa.clone()),
            axis,
        );
        // τ: Y plus the axis-names from which the rest of the path can
        // still select something strictly further along the axis: below,
        // when the rest reads no context, the names with a strict
        // descendant in its usefulness set; else the names the rest types
        // non-empty from, one by one.
        // Each name of τ with its context κ′|Z, in name order.
        let below = self.useful.below(np.slot(pid, rest_idx));
        let candidates = match below {
            Some(below) => {
                self.an.charge(1);
                env.tau.intersection(below)
            }
            None => env.tau.clone(),
        };
        let mut tau = self.an.dtd.singleton(y);
        let mut contexts = Vec::new();
        for xi in &candidates {
            if self.an.over_budget() {
                break;
            }
            let xs = self.an.dtd.singleton(xi);
            let kx = self.an.restrict_context(&env.kappa, &xs);
            let reaches = below.is_some() || {
                let after_axis = type_axis(&self.an, Env::new(xs, kx.clone()), axis);
                !after_axis.tau.is_empty()
                    && !type_path(&self.an, np, after_axis, pid, rest_idx).is_empty()
            };
            if reaches {
                tau.insert(xi);
                contexts.push((xi, kx));
            }
        }
        if let Err(at) = contexts.binary_search_by_key(&y, |&(z, _)| z) {
            let ky = self
                .an
                .restrict_context(&env.kappa, &self.an.dtd.singleton(y));
            contexts.insert(at, (y, ky));
        }
        // τ′ = (τ, κ′) ⊩ single::node/P — re-enter through one level.
        let mut out = tau.clone();
        self.record(y, TraceRule::Spine, pid, rest_idx.saturating_sub(1), None);
        self.record_set(
            &tau,
            TraceRule::Axis,
            pid,
            rest_idx.saturating_sub(1),
            Some(y),
        );
        for (z, kz) in contexts {
            if self.an.over_budget() {
                break;
            }
            out.union_with(&self.proj_single_level(np, z, &kz, single, pid, rest_idx, false));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_dtd::parse_dtd;
    use xproj_dtd::Dtd;

    fn labels(dtd: &Dtd, p: &Projector) -> Vec<String> {
        p.labels(dtd).iter().map(|s| s.to_string()).collect()
    }

    /// Paper §4.1 running example.
    fn paper_dtd() -> Dtd {
        parse_dtd(
            "<!ELEMENT c (a, b)>\
             <!ELEMENT a (d, #PCDATA)>\
             <!ELEMENT b (#PCDATA)>\
             <!ELEMENT d (a?)>",
            "c",
        )
        .unwrap()
    }

    #[test]
    fn child_path_keeps_spine_only() {
        let d = paper_dtd();
        let mut sa = StaticAnalyzer::new(&d);
        let p = sa.project_query_exact("/c/a").unwrap();
        assert_eq!(labels(&d, &p), vec!["a", "c"]);
    }

    #[test]
    fn materialisation_adds_result_subtrees() {
        let d = paper_dtd();
        let mut sa = StaticAnalyzer::new(&d);
        let p = sa.project_query("/c/a").unwrap();
        // a's subtree: d, a#text (recursively a again)
        assert_eq!(labels(&d, &p), vec!["a", "a#text", "c", "d"]);
    }

    #[test]
    fn impossible_query_prunes_everything_but_nothing_breaks() {
        let d = paper_dtd();
        let mut sa = StaticAnalyzer::new(&d);
        let p = sa.project_query_exact("/zzz/child::a").unwrap();
        // The root name is kept (the base environment) but nothing below.
        assert!(labels(&d, &p).len() <= 1);
    }

    #[test]
    fn descendant_rule_prunes_useless_subtrees() {
        let d = paper_dtd();
        let mut sa = StaticAnalyzer::new(&d);
        // //d : b and the text names are useless
        let p = sa.project_query_exact("//d").unwrap();
        let l = labels(&d, &p);
        assert!(l.contains(&"c".to_string()));
        assert!(l.contains(&"a".to_string()));
        assert!(l.contains(&"d".to_string()));
        assert!(!l.contains(&"b".to_string()), "{l:?}");
        assert!(!l.contains(&"a#text".to_string()), "{l:?}");
    }

    #[test]
    fn condition_data_needs_are_kept() {
        let d = paper_dtd();
        let mut sa = StaticAnalyzer::new(&d);
        let p = sa.project_query_exact("/c/a[child::d]").unwrap();
        let l = labels(&d, &p);
        assert!(l.contains(&"d".to_string()), "{l:?}");
        assert!(!l.contains(&"b".to_string()));
    }

    #[test]
    fn upward_axis_projector() {
        let d = paper_dtd();
        let mut sa = StaticAnalyzer::new(&d);
        let p = sa.project_query_exact("/c/a/parent::node()").unwrap();
        let l = labels(&d, &p);
        assert_eq!(l, vec!["a", "c"]);
    }

    #[test]
    fn union_of_queries() {
        let d = paper_dtd();
        let mut sa = StaticAnalyzer::new(&d);
        let p = sa
            .project_query("/c/a[child::d]")
            .unwrap()
            .union(&sa.project_query("/c/b").unwrap());
        let l = labels(&d, &p);
        assert!(l.contains(&"b".to_string()));
        assert!(l.contains(&"d".to_string()));
    }

    #[test]
    fn memoisation_consistency() {
        let d = paper_dtd();
        let mut sa = StaticAnalyzer::new(&d);
        let p1 = sa
            .project_query_exact("//a[child::d]/child::text()")
            .unwrap();
        let p2 = sa
            .project_query_exact("//a[child::d]/child::text()")
            .unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn expression_query_is_rejected() {
        let d = paper_dtd();
        let mut sa = StaticAnalyzer::new(&d);
        assert!(matches!(
            sa.project_query("count(//a)"),
            Err(AnalyzeError::NotAPath(_))
        ));
        assert!(matches!(
            sa.project_query("//a["),
            Err(AnalyzeError::Parse(_))
        ));
    }
}
