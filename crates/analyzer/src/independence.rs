//! Query–update independence analysis.
//!
//! Decides, purely from the DTD, whether an update can ever change a
//! query's answer on *any* valid document. The query side reuses the
//! provenance-tracked Figure 2 inference ([`trace_workload`]): the
//! normalised projector π is exactly the set of names the query's
//! answer can depend on (Thm. 4.6 — pruning everything outside π
//! preserves the answer). The update side is a new inference pass
//! ([`update_footprint`]) computing the *updated-name set* U: every
//! name whose node population, content, or child order the update can
//! touch. If `U ∩ π = ∅`, the update only rewrites parts of the
//! document the query provably never looks at, so the two are
//! **independent**; otherwise the checker reports **may-conflict**
//! with one witness per overlapping name (the name, the query step
//! and rule that admitted it into π, its role in the update, and the
//! `⇒E` root chains on both sides).
//!
//! ## The updated-name set
//!
//! With `N_t` the inferred type of the (approximated) target path:
//!
//! * `delete P` — `U = N_t ∪ descendants(N_t)`: target subtrees
//!   vanish wholesale. Ancestors need no entry: a query can only
//!   observe the removal through a name inside the removed subtrees
//!   (positional predicates over the siblings already put those
//!   sibling names in π via their node tests).
//! * `insert F into P` — `U = N_t ∪ names(F) ∪ text(...)`: the
//!   insertion context itself is in U because its child list (and
//!   string value) changes, covering queries that materialise the
//!   context's subtree; `names(F)` maps every element tag in the
//!   fragment to its DTD name.
//! * `insert F before|after P` — same with context
//!   `parents(N_t)` (plus the root when the target is the root).
//! * `replace P with F` — the delete part ∪ the insert part with
//!   context `parents(N_t)`.
//!
//! Two conservative escape hatches keep the verdict sound off the
//! happy path: a provably empty target type (`N_t = ∅`) means the
//! update is a no-op on every valid document (**independent**), and a
//! fragment tag with no root-reachable declaration makes the updated
//! document invalid in a way the type system cannot track, so the
//! checker refuses to claim independence (**may-conflict** with an
//! `undeclared-fragment-tag` witness).

use crate::provenance::{root_chain, trace_workload};
use crate::AnalyzerError;
use std::collections::BTreeSet;
use xproj_core::{Analyzer, Projector, StaticAnalyzer};
use xproj_dtd::{Dtd, NameId, NameSet};
use xproj_xpath::approx::approximate_query;
use xproj_xpath::xpathl::LAxis;
use xproj_xupdate::{parse_update, Update};

/// Witness cap per report (the `overlap` count is still exact).
pub const MAX_WITNESSES: usize = 8;

/// The static verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndependenceVerdict {
    /// No valid document exists on which the update changes the
    /// query's answer.
    Independent,
    /// The analysis cannot rule out a conflict (with witnesses).
    MayConflict,
}

impl IndependenceVerdict {
    /// Stable wire spelling (`independent` / `may-conflict`).
    pub fn as_str(self) -> &'static str {
        match self {
            IndependenceVerdict::Independent => "independent",
            IndependenceVerdict::MayConflict => "may-conflict",
        }
    }
}

/// Why one name (or fragment tag) blocks an independence claim.
#[derive(Debug, Clone)]
pub struct IndependenceWitness {
    /// `overlap` (a name in `U ∩ π`) or `undeclared-fragment-tag`.
    pub kind: &'static str,
    /// The overlapping name's label (or the undeclared tag).
    pub name: String,
    /// The name's role on the update side (e.g. `deleted target`).
    pub role: String,
    /// The extracted query path whose inference admitted the name.
    pub query_path: String,
    /// The query step and Figure 2 rule that admitted it into π.
    pub query_step: String,
    /// A `⇒E` chain root → name inside the query projector.
    pub query_chain: Vec<String>,
    /// A `⇒E` chain root → name in the full grammar (how the update
    /// reaches it).
    pub update_chain: Vec<String>,
}

/// The full independence report for one (DTD, query, update) triple.
#[derive(Debug, Clone)]
pub struct IndependenceReport {
    /// The DTD root's label.
    pub root: String,
    /// The query, verbatim.
    pub query: String,
    /// The update, in normal form.
    pub update: String,
    /// The verdict.
    pub verdict: IndependenceVerdict,
    /// |π| — names the query's answer can depend on.
    pub query_names: usize,
    /// |U| — names the update can touch.
    pub updated_names: usize,
    /// Exact size of `U ∩ π` (witnesses are capped at
    /// [`MAX_WITNESSES`]).
    pub overlap: usize,
    /// The target path's type is empty: the update is a no-op on
    /// every valid document.
    pub empty_target: bool,
    /// One witness per blocking name, root-outward, capped.
    pub witnesses: Vec<IndependenceWitness>,
}

/// The update side of the analysis: the updated-name set U plus the
/// evidence needed for witnesses.
#[derive(Debug, Clone)]
pub struct UpdateFootprint {
    /// The updated-name set U over the DTD universe.
    pub updated: NameSet,
    /// First (highest-priority) role per updated name.
    pub roles: Vec<(NameId, &'static str)>,
    /// Fragment tags with no root-reachable declaration — the typed
    /// analysis cannot track these, so independence is never claimed.
    pub undeclared: Vec<String>,
    /// The target path's inferred type is empty (update is a no-op on
    /// valid documents).
    pub empty_target: bool,
}

impl UpdateFootprint {
    fn role_of(&self, n: NameId) -> &'static str {
        self.roles
            .iter()
            .find(|(m, _)| *m == n)
            .map(|(_, r)| *r)
            .unwrap_or("updated")
    }
}

/// Infers the updated-name set for `update` under `dtd`.
pub fn update_footprint(dtd: &Dtd, update: &Update) -> UpdateFootprint {
    let approx = approximate_query(update.target());
    let sa = StaticAnalyzer::new(dtd);
    let an = sa.analyzer();
    // The *final* type of the target path (⊢ judgement), not the full
    // used-name set: the update only touches selected nodes.
    let mut n_t = sa.type_of_lpath(&approx.path, approx.absolute);
    n_t.remove(dtd.doc_name());

    let mut fp = UpdateFootprint {
        updated: dtd.empty_set(),
        roles: Vec::new(),
        undeclared: Vec::new(),
        empty_target: n_t.is_empty(),
    };
    if fp.empty_target {
        return fp;
    }

    match update {
        Update::Delete { .. } => fp.add_deletion(an, &n_t),
        Update::Insert { fragment, pos, .. } => {
            let ctx = insertion_context(an, &n_t, *pos);
            fp.add_insertion(dtd, fragment, &ctx);
        }
        Update::Replace { fragment, .. } => {
            fp.add_deletion(an, &n_t);
            let ctx = insertion_context(an, &n_t, xproj_xupdate::InsertPos::Before);
            fp.add_insertion(dtd, fragment, &ctx);
        }
    }
    fp
}

/// Where inserted nodes land: the target itself for `into`, the
/// target's parents for `before`/`after` (plus the root when the
/// target can be the root — its "parent" is the document node).
fn insertion_context(an: &Analyzer, n_t: &NameSet, pos: xproj_xupdate::InsertPos) -> NameSet {
    match pos {
        xproj_xupdate::InsertPos::Into => n_t.clone(),
        _ => {
            let mut ctx = an.axis(n_t, LAxis::Parent);
            if ctx.remove(an.dtd.doc_name()) {
                ctx.insert(an.dtd.root());
            }
            ctx
        }
    }
}

impl UpdateFootprint {
    fn add(&mut self, n: NameId, role: &'static str) {
        if self.updated.insert(n) {
            self.roles.push((n, role));
        }
    }

    fn add_set(&mut self, set: &NameSet, role: &'static str) {
        for n in set.iter() {
            self.add(n, role);
        }
    }

    fn add_deletion(&mut self, an: &Analyzer, n_t: &NameSet) {
        self.add_set(n_t, "deleted target");
        self.add_set(&an.axis(n_t, LAxis::Descendant), "deleted descendant");
    }

    fn add_insertion(&mut self, dtd: &Dtd, fragment: &xproj_xupdate::Fragment, ctx: &NameSet) {
        self.add_set(ctx, "insertion context");
        let reachable = dtd.reachable_from_root();
        let tags: BTreeSet<&str> = fragment.tags().into_iter().collect();
        for tag in tags {
            match dtd.name_of_tag_str(tag) {
                Some(n) if reachable.contains(n) => self.add(n, "inserted element"),
                _ => self.undeclared.push(tag.to_string()),
            }
        }
        if fragment.contains_text() {
            // Text can land directly under the context (top-level
            // runs) and under any inserted element.
            let mut hosts = if fragment.has_top_level_text() {
                ctx.clone()
            } else {
                dtd.empty_set()
            };
            for (n, role) in self.roles.clone() {
                if role == "inserted element" {
                    hosts.insert(n);
                }
            }
            let mut texts = dtd.empty_set();
            for h in hosts.iter() {
                texts.union_with(dtd.text_children_of(h));
            }
            self.add_set(&texts, "inserted text");
        }
    }
}

/// Runs the full analysis for one (DTD, query, update) triple.
///
/// The query may be any workload XQuery/XPath string; the update uses
/// the `xproj-xupdate` concrete syntax.
pub fn check_independence(
    dtd: &Dtd,
    query: &str,
    update_src: &str,
) -> Result<IndependenceReport, AnalyzerError> {
    let update = parse_update(update_src).map_err(|e| AnalyzerError::BadUpdate(e.to_string()))?;
    let prov = trace_workload(dtd, std::slice::from_ref(&query.to_string()))?;
    let fp = update_footprint(dtd, &update);

    let overlap_set = fp.updated.intersection(prov.projector.names());
    let full = Projector::full(dtd);
    let mut witnesses = Vec::new();
    for tag in &fp.undeclared {
        witnesses.push(IndependenceWitness {
            kind: "undeclared-fragment-tag",
            name: tag.clone(),
            role: "inserted element with no root-reachable declaration".to_string(),
            query_path: String::new(),
            query_step: String::new(),
            query_chain: Vec::new(),
            update_chain: Vec::new(),
        });
    }
    // Provenance entries are sorted root-outward; walking them keeps
    // witnesses in that order.
    for entry in &prov.entries {
        if witnesses.len() >= MAX_WITNESSES {
            break;
        }
        let Some(n) = dtd.all_names().find(|&n| dtd.label(n) == entry.name) else {
            continue;
        };
        if !overlap_set.contains(n) {
            continue;
        }
        witnesses.push(IndependenceWitness {
            kind: "overlap",
            name: entry.name.clone(),
            role: fp.role_of(n).to_string(),
            query_path: prov.paths[entry.source].text.clone(),
            query_step: format!("{} ({})", entry.step, entry.rule),
            query_chain: entry.chain.clone(),
            update_chain: root_chain(dtd, &full, n),
        });
    }
    witnesses.truncate(MAX_WITNESSES);

    let verdict = if fp.empty_target || (overlap_set.is_empty() && fp.undeclared.is_empty()) {
        IndependenceVerdict::Independent
    } else {
        IndependenceVerdict::MayConflict
    };
    Ok(IndependenceReport {
        root: dtd.label(dtd.root()).to_string(),
        query: query.to_string(),
        update: update.to_string(),
        verdict,
        query_names: prov.projector.len(),
        updated_names: fp.updated.len(),
        overlap: overlap_set.len(),
        empty_target: fp.empty_target,
        witnesses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_dtd::parse_dtd;

    fn site() -> Dtd {
        parse_dtd(
            "<!ELEMENT site (regions, people)>\
             <!ELEMENT regions (item*)>\
             <!ELEMENT item (name, price?)>\
             <!ELEMENT people (person*)>\
             <!ELEMENT person (name, phone?)>\
             <!ELEMENT name (#PCDATA)>\
             <!ELEMENT price (#PCDATA)>\
             <!ELEMENT phone (#PCDATA)>",
            "site",
        )
        .unwrap()
    }

    fn check(q: &str, u: &str) -> IndependenceReport {
        check_independence(&site(), q, u).unwrap()
    }

    #[test]
    fn disjoint_subtrees_are_independent() {
        let r = check(
            "/site/regions/item/price",
            "delete /site/people/person/phone",
        );
        assert_eq!(r.verdict, IndependenceVerdict::Independent);
        assert_eq!(r.overlap, 0);
        assert!(r.witnesses.is_empty());
    }

    #[test]
    fn deleting_a_queried_name_conflicts_with_witness() {
        let r = check("/site/people/person/phone", "delete //phone");
        assert_eq!(r.verdict, IndependenceVerdict::MayConflict);
        assert!(r.overlap >= 1);
        let w = r
            .witnesses
            .iter()
            .find(|w| w.name == "phone")
            .expect("phone witness");
        assert_eq!(w.kind, "overlap");
        assert_eq!(w.role, "deleted target");
        assert_eq!(w.query_chain.first().map(String::as_str), Some("site"));
        assert_eq!(w.query_chain.last().map(String::as_str), Some("phone"));
        assert_eq!(w.update_chain.last().map(String::as_str), Some("phone"));
        assert!(!w.query_step.is_empty());
    }

    #[test]
    fn deleting_an_ancestor_of_a_queried_name_conflicts() {
        // `person` is not named by the query, but deleting it removes
        // `phone` descendants.
        let r = check("//phone", "delete /site/people/person");
        assert_eq!(r.verdict, IndependenceVerdict::MayConflict);
        assert!(r
            .witnesses
            .iter()
            .any(|w| w.name == "phone" && w.role == "deleted descendant"));
    }

    #[test]
    fn inserting_into_a_materialised_answer_conflicts_via_context() {
        // The query materialises `person` subtrees, so growing a
        // descendant's child list must conflict — via the context
        // name, even though `name` is also in π.
        let r = check(
            "/site/people/person",
            "insert <phone/> into /site/people/person/name",
        );
        assert_eq!(r.verdict, IndependenceVerdict::MayConflict);
        assert!(r.witnesses.iter().any(|w| w.name == "name"));
    }

    #[test]
    fn insert_elsewhere_is_independent() {
        let r = check(
            "/site/people/person/phone",
            "insert <name>x</name> into /site/regions/item",
        );
        assert_eq!(
            r.verdict,
            IndependenceVerdict::Independent,
            "{:?}",
            r.witnesses
        );
    }

    #[test]
    fn undeclared_fragment_tag_is_conservative() {
        let r = check("/site/people/person", "insert <zzz/> into /site/regions");
        assert_eq!(r.verdict, IndependenceVerdict::MayConflict);
        let w = &r.witnesses[0];
        assert_eq!(w.kind, "undeclared-fragment-tag");
        assert_eq!(w.name, "zzz");
    }

    #[test]
    fn empty_target_type_is_a_noop_hence_independent() {
        // `/site/phone` selects nothing on any valid document.
        let r = check("//phone", "insert <zzz/> into /site/phone");
        assert_eq!(r.verdict, IndependenceVerdict::Independent);
        assert!(r.empty_target);
        assert_eq!(r.updated_names, 0);
    }

    #[test]
    fn sibling_insert_before_queried_name_conflicts_on_context() {
        // Inserting before `person` rewrites `people`'s child list;
        // the query counts persons positionally via its node test.
        let r = check(
            "/site/people/person[1]/name",
            "insert <person><name>n</name></person> before /site/people/person",
        );
        assert_eq!(r.verdict, IndependenceVerdict::MayConflict);
        assert!(r.witnesses.iter().any(|w| w.name == "person"));
    }

    #[test]
    fn replace_covers_both_sides() {
        let d = site();
        let u =
            parse_update("replace /site/people/person with <item><name>i</name></item>").unwrap();
        let fp = update_footprint(&d, &u);
        let label = |n: NameId| d.label(n).to_string();
        let roles: Vec<(String, &str)> = fp.roles.iter().map(|&(n, r)| (label(n), r)).collect();
        assert!(roles.contains(&("person".to_string(), "deleted target")));
        assert!(roles.contains(&("phone".to_string(), "deleted descendant")));
        assert!(roles.contains(&("people".to_string(), "insertion context")));
        assert!(roles.contains(&("item".to_string(), "inserted element")));
    }

    #[test]
    fn bad_update_is_a_structured_error() {
        let err = check_independence(&site(), "/site", "munge /site").unwrap_err();
        assert!(matches!(err, AnalyzerError::BadUpdate(_)));
        assert_eq!(err.code(), xproj_core::stream::ErrorCode::BadQuery);
    }

    #[test]
    fn text_insertion_lands_on_text_names() {
        let d = site();
        let u = parse_update("insert fresh into /site/people/person/name").unwrap();
        let fp = update_footprint(&d, &u);
        assert!(fp
            .roles
            .iter()
            .any(|&(n, r)| d.label(n) == "name#text" && r == "inserted text"));
    }
}
