//! The compiled evaluator program: a flat instruction sequence lowered
//! from the (query AST, DTD) pair at artifact-compile time.
//!
//! The streaming `QueryMachine` (in `xproj-engine`) cannot execute
//! arbitrary XPath/XQuery against a token stream — reverse axes,
//! positional predicates and FLWR binders all need random access. What
//! it *can* execute, with the same O(depth + chunk) residency bound as
//! the pruner, is the path-shaped fragment that dominates real
//! workloads: absolute location paths over the downward axes, with at
//! most one existential relative-path guard on the final step. The
//! compiler lowers that fragment into a [`PathProgram`] — one
//! [`StepInstr`] register per step, name tests resolved to dense
//! [`NameId`] indices against the DTD — and everything else into
//! [`Plan::Fallback`], which the machine executes as prune-into-buffer
//! followed by the reference evaluator over the (provably
//! answer-preserving, Thm 4.6) pruned tree. Both plans answer
//! byte-identically to the reference evaluator on valid documents; the
//! streaming plan just never materializes a tree.
//!
//! The program is interpreted as an NFA over root-to-node paths: state
//! `k` means "the first `k` steps matched, ending at this node", a
//! node is an answer when state `len(steps)` is reached. State sets are
//! `u64` bitmasks, so programs are capped at [`MAX_STEPS`] steps
//! (longer paths fall back — they are vanishingly rare).

use xproj_dtd::{Dtd, NameId};
use xproj_xpath::ast::{Axis, Expr, LocationPath, NodeTest, Step};
use xproj_xquery::XQuery;

/// Hard cap on streaming-program length (states live in a `u64` mask,
/// and state `MAX_STEPS` must still be representable).
pub const MAX_STEPS: usize = 60;

/// Sentinel for a tag test whose name is not declared in the DTD: it
/// can never match a token the machine accepts (undeclared elements
/// are a stream error), but compiling it keeps key normalization and
/// error behavior uniform.
pub const UNDECLARED: u32 = u32::MAX;

/// The axis register of one compiled step. Only the downward axes (plus
/// `self`, which guard paths like `./b` produce) are streamable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepAxis {
    /// `child::`
    Child,
    /// `descendant::`
    Descendant,
    /// `descendant-or-self::`
    DescendantOrSelf,
    /// `self::`
    SelfStep,
}

/// The node-test register of one compiled step. Tag tests are resolved
/// to dense [`NameId`] indices at compile time — the machine compares a
/// single `u32` per candidate instead of a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepTest {
    /// A tag name, as a dense DTD name index (or [`UNDECLARED`]).
    Tag(u32),
    /// `element()` / `*` — any element.
    AnyElement,
    /// `node()` — any element, text node, or the document node.
    AnyNode,
    /// `text()` — any text node.
    Text,
}

impl StepTest {
    /// Does an element carrying DTD name `n` pass this test?
    #[inline]
    pub fn matches_element(self, n: NameId) -> bool {
        match self {
            StepTest::Tag(t) => t == n.0,
            StepTest::AnyElement | StepTest::AnyNode => true,
            StepTest::Text => false,
        }
    }

    /// Does a text node pass this test?
    #[inline]
    pub fn matches_text(self) -> bool {
        matches!(self, StepTest::Text | StepTest::AnyNode)
    }

    /// Does the (virtual) document node pass this test?
    #[inline]
    pub fn matches_document(self) -> bool {
        matches!(self, StepTest::AnyNode)
    }
}

/// One compiled step: an (axis, test) register pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInstr {
    /// How the step moves through the tree.
    pub axis: StepAxis,
    /// What the step accepts.
    pub test: StepTest,
}

/// A compiled path program: the main step sequence plus an optional
/// existential guard program anchored at each final-step candidate.
///
/// The guard is itself a (relative) step sequence, run as a second NFA
/// inside the candidate's subtree; the candidate is an answer iff the
/// guard NFA reaches its accept state anywhere in that subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathProgram {
    /// Main steps, in order; the accept state is `steps.len()`.
    pub steps: Vec<StepInstr>,
    /// Optional final-step guard steps (accept = `guard.len()`).
    pub guard: Vec<StepInstr>,
}

/// The execution plan an artifact carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// One-pass streaming NFA execution — no tree is ever built.
    Streaming(PathProgram),
    /// Prune into a buffer in the same pass, then run the reference
    /// evaluator over the pruned tree at end-of-stream (sound by
    /// Thm 4.6, so still byte-identical to reference-over-unpruned on
    /// valid documents).
    Fallback,
}

impl Plan {
    /// Short wire label (`/v1/query` summary frames, bench output).
    pub fn label(&self) -> &'static str {
        match self {
            Plan::Streaming(_) => "streaming",
            Plan::Fallback => "fallback",
        }
    }
}

fn lower_axis(axis: Axis) -> Option<StepAxis> {
    match axis {
        Axis::Child => Some(StepAxis::Child),
        Axis::Descendant => Some(StepAxis::Descendant),
        Axis::DescendantOrSelf => Some(StepAxis::DescendantOrSelf),
        Axis::SelfAxis => Some(StepAxis::SelfStep),
        _ => None,
    }
}

fn lower_test(test: &NodeTest, dtd: &Dtd) -> StepTest {
    match test {
        NodeTest::Tag(t) => {
            StepTest::Tag(dtd.name_of_tag_str(t).map(|n| n.0).unwrap_or(UNDECLARED))
        }
        NodeTest::Node => StepTest::AnyNode,
        NodeTest::Text => StepTest::Text,
        NodeTest::Element => StepTest::AnyElement,
    }
}

/// Lowers one step, rejecting non-streamable axes and (when
/// `allow_guard` is false) any predicate at all.
fn lower_step(step: &Step, dtd: &Dtd, predicates_ok: bool) -> Option<StepInstr> {
    if !predicates_ok && !step.predicates.is_empty() {
        return None;
    }
    Some(StepInstr {
        axis: lower_axis(step.axis)?,
        test: lower_test(&step.test, dtd),
    })
}

/// Lowers a predicate-free relative path into guard steps.
fn lower_guard(path: &LocationPath, dtd: &Dtd) -> Option<Vec<StepInstr>> {
    if path.absolute || path.steps.is_empty() || path.steps.len() > MAX_STEPS {
        return None;
    }
    path.steps
        .iter()
        .map(|s| lower_step(s, dtd, false))
        .collect()
}

/// Lowers an absolute location path into a streaming program, or `None`
/// when any feature outside the streamable fragment appears.
fn lower_path(path: &LocationPath, dtd: &Dtd) -> Option<PathProgram> {
    if !path.absolute || path.steps.is_empty() || path.steps.len() > MAX_STEPS {
        return None;
    }
    let last = path.steps.len() - 1;
    let mut steps = Vec::with_capacity(path.steps.len());
    let mut guard = Vec::new();
    for (i, step) in path.steps.iter().enumerate() {
        if i == last {
            // The final step may carry one existential relative-path
            // predicate; anything else (positions, comparisons,
            // multiple predicates, intermediate-step predicates) is
            // out of fragment.
            match step.predicates.as_slice() {
                [] => {}
                [Expr::Path(rel)] => guard = lower_guard(rel, dtd)?,
                _ => return None,
            }
            steps.push(StepInstr {
                axis: lower_axis(step.axis)?,
                test: lower_test(&step.test, dtd),
            });
        } else {
            steps.push(lower_step(step, dtd, false)?);
        }
    }
    Some(PathProgram { steps, guard })
}

/// Compiles a query AST into its execution plan against `dtd`.
///
/// Path-shaped queries — an absolute location path, possibly wrapped in
/// `XQuery::Expr` — get a streaming program; everything else falls
/// back. The decision is *per artifact*, made once at compile time.
pub fn lower(query: &XQuery, dtd: &Dtd) -> Plan {
    if let XQuery::Expr(Expr::Path(path)) = query {
        if let Some(program) = lower_path(path, dtd) {
            return Plan::Streaming(program);
        }
    }
    Plan::Fallback
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_dtd::parse_dtd;
    use xproj_xquery::parse_xquery;

    fn dtd() -> Dtd {
        parse_dtd(
            "<!ELEMENT a (b*, c*)> <!ELEMENT b (c?)> <!ELEMENT c (#PCDATA)>",
            "a",
        )
        .unwrap()
    }

    fn plan(q: &str) -> Plan {
        lower(&parse_xquery(q).unwrap(), &dtd())
    }

    #[test]
    fn plain_paths_stream() {
        for q in [
            "/a/b/c",
            "//c",
            "/a/descendant::b",
            "/descendant-or-self::node()/child::b",
            "/a/*",
            "//b/text()",
            "/a/node()",
        ] {
            assert!(matches!(plan(q), Plan::Streaming(_)), "{q} should stream");
        }
    }

    #[test]
    fn final_step_existential_guard_streams() {
        let Plan::Streaming(p) = plan("//b[c]") else {
            panic!("//b[c] should stream");
        };
        assert_eq!(p.guard.len(), 1);
        assert!(matches!(plan("//b[descendant::c]"), Plan::Streaming(_)));
    }

    #[test]
    fn out_of_fragment_falls_back() {
        for q in [
            "/a/b[1]",                           // positional
            "/a/b[c]/c",                         // intermediate predicate
            "//b[count(c) > 1]",                 // function predicate
            "/a/parent::a",                      // reverse axis
            "b/c",                               // relative
            "for $x in /a/b return <r>{$x}</r>", // FLWR
            "//b[c][c]",                         // two predicates
        ] {
            assert!(matches!(plan(q), Plan::Fallback), "{q} should fall back");
        }
    }

    #[test]
    fn undeclared_tags_compile_to_never_matching_tests() {
        let Plan::Streaming(p) = plan("/a/zzz") else {
            panic!()
        };
        assert_eq!(p.steps[1].test, StepTest::Tag(UNDECLARED));
    }
}
