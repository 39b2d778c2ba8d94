//! The compiled query artifact: everything the journal version says is
//! derivable *before the first document byte arrives*, flattened into
//! one immutable, `Arc`-shareable value.
//!
//! An artifact bundles, for one `(DTD, normalized query)` pair:
//!
//! * the inferred [`Projector`] (π of Thm 4.6) and its dense
//!   [`ProjectorTable`] (per-name verdicts + text-keep bits), so the
//!   per-event pruning decisions are single indexed loads;
//! * the compiled evaluator [`Plan`] — the streaming NFA program for
//!   path-shaped queries, or the fallback marker;
//! * the parsed AST (for the fallback evaluator) and the normalized
//!   query spelling, one half of the artifact cache's key;
//! * the caller's `Arc<Dtd>` (its fingerprint is the other half), so
//!   machines built from the artifact are self-contained `Send` values
//!   and every artifact of a grammar shares the one copy of it.
//!
//! [`QueryArtifact::compile`] is the only way an artifact comes into
//! being. Every stage of a compile charges one step counter
//! ([`StaticAnalyzer::steps`]): inference, normalising π, the dense
//! table and lowering. So a compile can run under a budget, and one
//! within [`LOOP_COMPILE_STEPS`] is bounded by it whatever the grammar
//! or the query. Nothing is ever persisted: a restarted daemon compiles
//! on the first request per pair.

use std::sync::Arc;
use std::time::Instant;

use crate::program::{lower, Plan, StepInstr};
use xproj_core::{Projector, ProjectorTable, StaticAnalyzer};
use xproj_dtd::Dtd;
use xproj_xquery::{parse_xquery, project_xquery, XQuery};

/// The steps a compile may spend on an event loop (see
/// [`crate::ArtifactCache::compile_within`]): 0.8–2 ms on a 2-vCPU
/// x86-64 box, at the 0.8–2.0 ns a whole compile takes per step (the
/// up/down family at the low end, the XMark/XPathMark set at the high
/// one). Every XMark, XPathMark, cold-workload and Use
/// Cases query fits in a quarter of it but QP13 (`/site//node()`), which
/// fits in a half (`tests/compile_steps.rs`).
pub const LOOP_COMPILE_STEPS: u64 = 1_000_000;

/// The steps a fallback plan's evaluation may spend on an event loop
/// (`QueryMachine::finish_within` in `xproj-engine`; `xproj_xquery::Steps`
/// says what a step is): 0.7–2 ms on a 2-vCPU x86-64 box, like
/// [`LOOP_COMPILE_STEPS`], at the 45–135 ns a step costs (a predicate
/// path family at the low end, a two-way join at the high one; the
/// XMark/XPathMark fallback queries 55–65; a step of string bytes 1–76,
/// whatever the text's length). Every XMark/XPathMark fallback query
/// over the `mid_query_onepass` document fits in a fifth of it
/// (`tests/eval_steps.rs`).
pub const LOOP_EVAL_STEPS: u64 = 15_000;

/// Normalizes a workload query to its canonical form: parse as XQuery
/// (of which XPath is a sub-language here) and pretty-print the AST.
/// Whitespace and axis abbreviations disappear; semantically-identical
/// spellings share one artifact.
pub fn normalize_query(query: &str) -> Result<String, String> {
    parse_xquery(query)
        .map(|q| q.to_string())
        .map_err(|e| e.to_string())
}

/// One compiled, immutable query artifact. See the module docs.
pub struct QueryArtifact {
    /// Normalized-query half of the cache key.
    pub normalized_query: String,
    /// The grammar (shared with the caller), so machines are
    /// self-contained; its `fingerprint()` is the other half of the key.
    pub dtd: Arc<Dtd>,
    /// The parsed (normalized) query — the fallback evaluator's input.
    pub ast: XQuery,
    /// The inferred projector π.
    pub projector: Projector,
    /// Dense per-name verdicts + text-keep bits.
    pub table: ProjectorTable,
    /// The compiled evaluator program.
    pub plan: Plan,
    /// Wall-clock cost of the compile (parsing excluded).
    pub compile_micros: u64,
    /// Steps the compile spent (see [`StaticAnalyzer::steps`]).
    pub compile_steps: u64,
}

impl QueryArtifact {
    /// Compiles `query` against `dtd`: parse → normalize → infer the
    /// projector → build the dense tables → lower the evaluator
    /// program. The only way an artifact comes into being.
    pub fn compile(dtd: &Arc<Dtd>, query: &str) -> Result<Arc<QueryArtifact>, String> {
        let ast = parse_xquery(query).map_err(|e| e.to_string())?;
        let normalized_query = ast.to_string();
        let artifact = Self::from_ast(dtd, ast, normalized_query, u64::MAX);
        Ok(artifact.unwrap_or_else(|_| unreachable!("an unbudgeted compile cannot overrun")))
    }

    /// [`Self::compile`] from a query already parsed and normalized —
    /// what the cache holds after computing its key, so a miss parses
    /// the query text once — spending at most `budget` steps. On an
    /// overrun the AST comes back with the steps spent, and nothing of
    /// the partial work survives.
    pub(crate) fn from_ast(
        dtd: &Arc<Dtd>,
        ast: XQuery,
        normalized_query: String,
        budget: u64,
    ) -> Result<Arc<QueryArtifact>, (XQuery, u64)> {
        let start = Instant::now();
        let mut sa = StaticAnalyzer::with_budget(dtd, budget);
        let projector = project_xquery(&mut sa, &ast);
        // The table intersects two rows per name.
        if !sa.analyzer().charge(2 * dtd.name_count() as u64) {
            return Err((ast, sa.steps()));
        }
        let table = ProjectorTable::new(dtd, &projector);
        let plan = lower(&ast, dtd);
        // Lowering looks up one tag per step, cheaper than a set operation.
        if let Plan::Streaming(p) = &plan {
            sa.analyzer().charge((p.steps.len() + p.guard.len()) as u64);
        }
        if sa.over_budget() {
            return Err((ast, sa.steps()));
        }
        Ok(Arc::new(QueryArtifact {
            normalized_query,
            dtd: Arc::clone(dtd),
            ast,
            projector,
            table,
            plan,
            compile_micros: start.elapsed().as_micros() as u64,
            compile_steps: sa.steps(),
        }))
    }

    /// Approximate bytes this artifact owns, for the cache's size
    /// accounting: the projector's bitset, the two table rows per
    /// name, the program and the strings. The grammar is not counted —
    /// it is the caller's `Arc<Dtd>`, shared by every artifact compiled
    /// against it.
    pub fn approx_bytes(&self) -> usize {
        let n = self.dtd.name_count();
        let program = match &self.plan {
            Plan::Streaming(p) => {
                (p.steps.len() + p.guard.len()) * std::mem::size_of::<StepInstr>()
            }
            Plan::Fallback => 0,
        };
        n.div_ceil(8) // projector bitset
            + n * 2 // verdict byte + text-keep byte
            + self.normalized_query.len() * 2 // key string + AST (rough)
            + program
            + 256 // fixed overheads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_dtd::parse_dtd;

    fn dtd() -> Arc<Dtd> {
        Arc::new(
            parse_dtd(
                "<!ELEMENT a (b*, c*)> <!ELEMENT b (c?)> <!ELEMENT c (#PCDATA)>",
                "a",
            )
            .unwrap(),
        )
    }

    #[test]
    fn normalization_collides_equivalent_spellings() {
        // The satellite requirement: `//a [b]` and `//a[b]` must share
        // one artifact key (and a third spelling of the same axis
        // chain collides too).
        let a = normalize_query("//a [b]").unwrap();
        let b = normalize_query("//a[b]").unwrap();
        let c = normalize_query("/descendant-or-self::node()/child::a[child::b]").unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_ne!(a, normalize_query("//a[c]").unwrap());
    }

    #[test]
    fn compile_produces_consistent_key_and_plan() {
        let d = dtd();
        let art = QueryArtifact::compile(&d, "//b[c]").unwrap();
        assert!(
            Arc::ptr_eq(&art.dtd, &d),
            "the grammar is shared, not copied"
        );
        assert_eq!(art.normalized_query, normalize_query("//b[c]").unwrap());
        assert!(matches!(art.plan, Plan::Streaming(_)));
        assert!(art.approx_bytes() > 0);
    }
}
