//! One-pass compiled query execution: prune **and answer** in the same
//! streaming pass.
//!
//! The classic pipeline is two passes over the data: stream-prune into a
//! buffer, then parse the pruned document and run the evaluator. A
//! [`QueryMachine`] collapses that for the path-shaped fragment the
//! compiler (`xproj-qc`) lowers to [`Plan::Streaming`]: the compiled
//! [`PathProgram`](xproj_qc::PathProgram) is executed as an NFA — a sink directly under the
//! tokenizer's one token loop — candidate subtrees are serialized into per-match capture
//! buffers as their bytes flow past, and everything outside π is
//! fast-forwarded exactly like the pruner. Engine-resident state stays
//! O(depth + chunk); only the answer itself (the open captures and the
//! not-yet-drained output frames) scales with the result.
//!
//! Out-of-fragment artifacts carry [`Plan::Fallback`]: the same feed
//! loop prunes, its kept events building the pruned tree t∖π node by
//! node (each kept byte is tokenized once, and siblings that pruning
//! made adjacent stay separate nodes, as Def. 2.7 deletes and never
//! joins), and `finish` runs the reference evaluator over that tree
//! (sound by the paper's Thm 4.6 — pruning preserves answers);
//! `finish_within` runs it under a step budget and, on an overrun,
//! keeps the tree for a later unbudgeted `finish`. Both
//! plans produce **byte-identical** output to evaluating the query on
//! the unpruned document; the differential fuzzer in
//! `tests/query_pipeline.rs` holds them to that.
//!
//! The pruned document is itself an answer ([`QueryOutput::Pruned`]):
//! the same pass with its kept events rendered as bytes and handed out
//! as they are produced. So a [`QueryMachine`] is the one per-document
//! pass object — what `/v1/prune` and `/v1/query` both drive.
//!
//! ## The NFA
//!
//! State `k` at a node means "the first `k` steps matched a root-to-here
//! path ending at this node"; a node is an answer when state
//! `steps.len()` is reached. Each open element carries two `u64` masks:
//! *anchored* states (`a`, matched ending exactly here) and *searching*
//! states (`s`, a descendant-axis step begun at some ancestor that may
//! still fire anywhere below). Transitions run per start-tag in O(set
//! bits); a `self`/`descendant-or-self` closure loop handles
//! self-matching steps. An optional existential guard (the one-predicate
//! `//a[b]` form) runs as a second NFA instance per open candidate,
//! scoped to its subtree.
//!
//! Output is x-ndjson *match frames* (`{"match":i,"atom":…,"value":…}`
//! per result item, then one `{"done":true,…}` summary) or, for the CLI,
//! the plain concatenated answer — identical to the reference
//! serializer's sequence form.

use std::sync::Arc;

use crate::chunked::{EngineError, MachineSink, Pass, Stage};
use crate::metrics::EngineStats;
use xproj_core::{
    json_escape_into, ProjectorTable, PruneCounters, PruneMachine, StreamPruneError, Verdict,
};
use xproj_dtd::{Dtd, NameId};
use xproj_qc::{Plan, QueryArtifact, StepAxis, StepInstr, StepTest};
use xproj_xmltree::push::{is_xml_space, TokenSink};
use xproj_xmltree::{Document, KeptEvents, TreeBuilder};
use xproj_xquery::{evaluate_query_within, Halt, Steps, XQueryError};

/// What a [`QueryMachine`] writes to its output buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutput {
    /// x-ndjson match frames plus a final summary frame (`/v1/query`).
    Frames,
    /// The bare serialized result sequence, exactly as
    /// [`xproj_xquery::evaluate_query`] would produce it (CLI).
    Answer,
    /// The pruned document t∖π itself (`/v1/prune`): by Thm 4.6 just
    /// another answer — the fallback plan's pass, its kept events
    /// rendered as bytes instead of built into a tree.
    Pruned,
}

/// End-of-document statistics for one pass.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// What ran: `"streaming"` or `"fallback"` (the artifact's plan), or
    /// `"prune"` for [`QueryOutput::Pruned`].
    pub plan: &'static str,
    /// Result items emitted.
    pub matches: u64,
    /// Peak answer-resident bytes (open captures + undrained output; for
    /// the fallback plan, the heap bytes of the pruned tree). Scales with
    /// the answer, not the input.
    pub peak_answer_bytes: usize,
    /// Open captures touched, summed over events: at most `events ·
    /// (max_depth + 1)` on the streaming plan, zero elsewhere. The
    /// counter behind the matcher's O(open depth)-per-event gate; not
    /// part of any serialized form.
    pub capture_visits: u64,
    /// Steps the fallback plan's evaluator spent (see [`Steps`]); zero
    /// on the other plans.
    pub eval_steps: u64,
    /// The pass itself, in the pruner's terms: events (undercounted
    /// inside fast-forwarded subtrees), bytes in and out, depth, the
    /// O(depth + chunk) `peak_resident_bytes`. The keep/discard counters
    /// are zero on the streaming plan, which serializes matches only.
    pub engine: EngineStats,
}

impl QueryStats {
    /// One JSON object with every field (CLI `--stats` output).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"plan\":\"{}\",\"matches\":{},\"events\":{},\"bytes_in\":{},\"bytes_out\":{},\
             \"fast_forwarded\":{},\"max_depth\":{},\"peak_resident_bytes\":{},\
             \"peak_answer_bytes\":{}}}",
            self.plan,
            self.matches,
            self.engine.events,
            self.engine.bytes_in,
            self.engine.bytes_out,
            self.engine.subtrees_fast_forwarded,
            self.engine.counters.max_depth,
            self.engine.peak_resident_bytes,
            self.peak_answer_bytes,
        )
    }
}

// ---------------------------------------------------------------------
// NFA primitives (shared by the main program and guard instances)
// ---------------------------------------------------------------------

/// Computes the (anchored, searching) state sets for a child node from
/// its parent's sets. `matches` is the node-kind test (element with a
/// given name, text, …); `mask` keeps the accept state out of the
/// transition loops.
#[inline]
fn child_transition(
    steps: &[StepInstr],
    mask: u64,
    pa: u64,
    ps: u64,
    matches: impl Fn(StepTest) -> bool,
) -> (u64, u64) {
    // Searching states: any live state whose next step is a
    // descendant-flavored axis keeps searching in every child.
    let mut s = 0u64;
    let mut live = (pa | ps) & mask;
    while live != 0 {
        let k = live.trailing_zeros() as usize;
        live &= live - 1;
        if matches!(
            steps[k].axis,
            StepAxis::Descendant | StepAxis::DescendantOrSelf
        ) {
            s |= 1 << k;
        }
    }
    let mut a = 0u64;
    // Child-axis steps fire from the parent's anchored states only.
    let mut anchored = pa & mask;
    while anchored != 0 {
        let k = anchored.trailing_zeros() as usize;
        anchored &= anchored - 1;
        if steps[k].axis == StepAxis::Child && matches(steps[k].test) {
            a |= 1 << (k + 1);
        }
    }
    // Searching steps fire at any matching node below their origin.
    let mut searching = s;
    while searching != 0 {
        let k = searching.trailing_zeros() as usize;
        searching &= searching - 1;
        if matches(steps[k].test) {
            a |= 1 << (k + 1);
        }
    }
    (a, s)
}

/// Fixpoint closure over `self`/`descendant-or-self` steps that match
/// the current node itself (chains like `//self::a//…` need the loop).
#[inline]
fn closure(steps: &[StepInstr], mask: u64, a: &mut u64, matches: impl Fn(StepTest) -> bool) {
    loop {
        let mut added = 0u64;
        let mut live = *a & mask;
        while live != 0 {
            let k = live.trailing_zeros() as usize;
            live &= live - 1;
            if matches!(
                steps[k].axis,
                StepAxis::SelfStep | StepAxis::DescendantOrSelf
            ) && matches(steps[k].test)
            {
                added |= 1 << (k + 1);
            }
        }
        if added & !*a == 0 {
            return;
        }
        *a |= added;
    }
}

// ---------------------------------------------------------------------
// Guard NFA: one instance per open candidate with a `[rel-path]` guard
// ---------------------------------------------------------------------

/// The existential guard NFA for one candidate: anchored at the
/// candidate node, it walks the candidate's subtree in lockstep with the
/// main pass; the candidate is an answer iff the accept state is
/// reached anywhere in that subtree.
struct GuardExec {
    satisfied: bool,
    /// (anchored, searching) per open element, candidate first. Frozen
    /// (and no longer balanced) once `satisfied` — it is never read
    /// again.
    stack: Vec<(u64, u64)>,
}

impl GuardExec {
    fn start(
        guard: &[StepInstr],
        mask: u64,
        accept: u64,
        matches: impl Fn(StepTest) -> bool,
    ) -> GuardExec {
        let mut a = 1u64;
        closure(guard, mask, &mut a, matches);
        GuardExec {
            satisfied: a & accept != 0,
            stack: vec![(a, 0)],
        }
    }

    fn enter_element(&mut self, guard: &[StepInstr], mask: u64, accept: u64, name: NameId) {
        if self.satisfied {
            return;
        }
        let (pa, ps) = *self.stack.last().expect("guard stack never empty");
        let (mut a, s) = child_transition(guard, mask, pa, ps, |t| t.matches_element(name));
        closure(guard, mask, &mut a, |t| t.matches_element(name));
        if a & accept != 0 {
            self.satisfied = true;
            return;
        }
        self.stack.push((a, s));
    }

    fn leave_element(&mut self) {
        if !self.satisfied {
            self.stack.pop();
        }
    }

    fn visit_text(&mut self, guard: &[StepInstr], mask: u64, accept: u64) {
        if self.satisfied {
            return;
        }
        let (pa, ps) = *self.stack.last().expect("guard stack never empty");
        let (mut a, _) = child_transition(guard, mask, pa, ps, |t| t.matches_text());
        closure(guard, mask, &mut a, |t| t.matches_text());
        if a & accept != 0 {
            self.satisfied = true;
        }
    }
}

// ---------------------------------------------------------------------
// Captures
// ---------------------------------------------------------------------

#[derive(PartialEq, Eq, Clone, Copy)]
enum CapState {
    Open,
    Done,
    Failed,
}

/// One in-flight result item, serialized incrementally as its bytes
/// stream past. Captures are created in document (start-tag) order and
/// emitted in that same order once complete — nested matches simply hold
/// the front of the queue until they close.
struct Capture {
    buf: String,
    /// Matcher stack length *including* the candidate's own frame (the
    /// virtual document frame counts, so the whole-document capture has
    /// `start_depth == 1`). Text captures are born complete and never
    /// consult it.
    start_depth: usize,
    state: CapState,
    guard: Option<GuardExec>,
}

// ---------------------------------------------------------------------
// The streaming matcher
// ---------------------------------------------------------------------

/// One open element (plus the virtual document node at the bottom).
#[derive(Clone, Copy)]
struct MatchFrame {
    a: u64,
    s: u64,
    /// The start tag has been written to captures but not yet closed
    /// with `>` — resolved to `/>` if the element ends childless.
    open_pending: bool,
}

struct Matcher {
    dtd: Arc<Dtd>,
    table: ProjectorTable,
    steps: Vec<StepInstr>,
    guard: Vec<StepInstr>,
    accept: u64,
    mask: u64,
    gaccept: u64,
    gmask: u64,
    stack: Vec<MatchFrame>,
    caps: Vec<Capture>,
    /// Index of the first not-yet-emitted capture.
    head: usize,
    /// Indices into `caps` of the captures in `CapState::Open`,
    /// outermost first. A recording capture is an ancestor-or-self of
    /// the current node, so they nest: a stack, pushed in `start`, popped
    /// in `end`, and the only captures an event visits — however many
    /// completed ones queue behind an open front one.
    open: Vec<usize>,
    /// Bytes held by `caps[head..]`: the not-yet-emitted answer, kept as
    /// a running sum so reading the gauge costs nothing per capture.
    held: usize,
    /// Open captures touched, summed over events.
    visits: u64,
    /// The current event's serialized bytes, rendered once for every
    /// recording capture.
    scratch: String,
    /// The largest rendering `scratch` has held: the matcher's staged
    /// bytes.
    peak_scratch: usize,
    saw_root: bool,
    max_depth: usize,
}

/// What an event is to the guard NFA of a capture recording it.
#[derive(Clone, Copy)]
enum GuardStep {
    Enter(NameId),
    Text,
}

impl Matcher {
    fn new(
        dtd: Arc<Dtd>,
        table: ProjectorTable,
        steps: Vec<StepInstr>,
        guard: Vec<StepInstr>,
    ) -> Matcher {
        let accept = 1u64 << steps.len();
        let mask = accept - 1;
        let gaccept = 1u64 << guard.len();
        let gmask = gaccept - 1;
        // The virtual document node: state 0, closed over self-matching
        // steps. `/descendant-or-self::node()/…` (the `//` expansion)
        // anchors here.
        let mut a = 1u64;
        closure(&steps, mask, &mut a, |t| t.matches_document());
        let doc_capture = if a & accept != 0 {
            // The document node itself is an answer (`/self::node()` et
            // al.): capture the whole serialized content.
            let guard_exec = if guard.is_empty() {
                None
            } else {
                Some(GuardExec::start(&guard, gmask, gaccept, |t| {
                    t.matches_document()
                }))
            };
            Some(Capture {
                buf: String::new(),
                start_depth: 1,
                state: CapState::Open,
                guard: guard_exec,
            })
        } else {
            None
        };
        let mut m = Matcher {
            dtd,
            table,
            steps,
            guard,
            accept,
            mask,
            gaccept,
            gmask,
            stack: Vec::with_capacity(16),
            caps: Vec::new(),
            head: 0,
            open: Vec::new(),
            held: 0,
            visits: 0,
            scratch: String::new(),
            peak_scratch: 0,
            saw_root: false,
            max_depth: 0,
        };
        if let Some(cap) = doc_capture {
            m.caps.push(cap);
            m.open.push(0);
        }
        m.stack.push(MatchFrame {
            a,
            s: 0,
            open_pending: false,
        });
        m
    }

    /// Empties `scratch` for the next event's rendering, keeping the
    /// high-water mark.
    fn restage(&mut self) {
        self.peak_scratch = self.peak_scratch.max(self.scratch.len());
        self.scratch.clear();
    }

    /// The one pass an event makes over the recording captures: close
    /// the parent's pending start tag, step each guard, append `scratch`.
    fn record(&mut self, close_parent: bool, step: GuardStep) {
        let Matcher {
            caps,
            open,
            scratch,
            guard,
            gmask,
            gaccept,
            ..
        } = self;
        for &i in open.iter() {
            let cap = &mut caps[i];
            if close_parent {
                cap.buf.push('>');
            }
            if let Some(g) = &mut cap.guard {
                match step {
                    GuardStep::Enter(name) => g.enter_element(guard, *gmask, *gaccept, name),
                    GuardStep::Text => g.visit_text(guard, *gmask, *gaccept),
                }
            }
            cap.buf.push_str(scratch);
        }
        self.visits += self.open.len() as u64;
        self.held += self.open.len() * (self.scratch.len() + close_parent as usize);
        if close_parent {
            self.stack
                .last_mut()
                .expect("document frame always present")
                .open_pending = false;
        }
    }

    /// Settles a capture whose node has ended: its guard verdict is final.
    fn close(cap: &mut Capture) {
        let ok = cap.guard.as_ref().map(|g| g.satisfied).unwrap_or(true);
        cap.state = if ok { CapState::Done } else { CapState::Failed };
    }

    fn finish_document(&mut self) -> Result<(), StreamPruneError> {
        if !self.saw_root {
            return Err(StreamPruneError::Xml(
                "document has no root element".to_string(),
            ));
        }
        // Every element has ended, so only the whole-document capture
        // can still be recording.
        if let Some(i) = self.open.pop() {
            debug_assert!(self.open.is_empty() && self.caps[i].start_depth == 1);
            Self::close(&mut self.caps[i]);
        }
        Ok(())
    }

    /// Moves every completed front-of-queue capture into `ready`,
    /// preserving document order. Stops at the first still-open capture.
    fn drain_ready(&mut self, ready: &mut Vec<String>) {
        while self.head < self.caps.len() {
            let cap = &mut self.caps[self.head];
            match cap.state {
                CapState::Open => break,
                CapState::Failed => self.held -= std::mem::take(&mut cap.buf).len(),
                CapState::Done => {
                    self.held -= cap.buf.len();
                    ready.push(std::mem::take(&mut cap.buf));
                }
            }
            self.head += 1;
        }
        if self.head > 64 {
            self.caps.drain(..self.head);
            for i in &mut self.open {
                *i -= self.head;
            }
            self.head = 0;
        }
        debug_assert_eq!(
            self.held,
            self.caps[self.head..]
                .iter()
                .map(|c| c.buf.len())
                .sum::<usize>()
        );
    }
}

/// The matcher under the token loop: every event advances the NFA and
/// feeds the open captures.
impl TokenSink for Matcher {
    type Error = EngineError;

    /// Processes a start tag. Returns true when the whole subtree is
    /// skippable: the projector says nothing under this name is in π,
    /// no capture is recording, and the node itself is not an answer —
    /// by Thm 4.6 no answer (or guard witness) can live inside it on a
    /// valid document.
    fn start(&mut self, name_str: &str, attrs_raw: &str) -> Result<bool, EngineError> {
        let name = self
            .dtd
            .name_of_tag_str(name_str)
            .ok_or_else(|| StreamPruneError::UndeclaredElement(name_str.to_string()))?;
        self.saw_root = true;
        let parent = *self.stack.last().expect("document frame always present");
        let (mut a, s) = child_transition(&self.steps, self.mask, parent.a, parent.s, |t| {
            t.matches_element(name)
        });
        closure(&self.steps, self.mask, &mut a, |t| t.matches_element(name));
        let matched = a & self.accept != 0;
        let recording = !self.open.is_empty();
        let can_ff = self.table.verdict(name) == Verdict::PruneSubtree && !matched && !recording;

        if matched || recording {
            // Render `<name a="v" …` (no closing `>` yet) once, for
            // every recording capture, as the pruner renders a kept
            // start tag: byte-identical to the reference serializer.
            self.restage();
            self.scratch.start(name_str, attrs_raw, false)?;
            self.record(recording && parent.open_pending, GuardStep::Enter(name));
        }
        if matched {
            let guard_exec = if self.guard.is_empty() {
                None
            } else {
                Some(GuardExec::start(
                    &self.guard,
                    self.gmask,
                    self.gaccept,
                    |t| t.matches_element(name),
                ))
            };
            self.open.push(self.caps.len());
            self.held += self.scratch.len();
            self.visits += 1;
            self.caps.push(Capture {
                buf: self.scratch.clone(),
                start_depth: self.stack.len() + 1,
                state: CapState::Open,
                guard: guard_exec,
            });
        }
        self.stack.push(MatchFrame {
            a,
            s,
            open_pending: true,
        });
        self.max_depth = self.max_depth.max(self.stack.len() - 1);
        Ok(can_ff)
    }

    fn end(&mut self, name_str: &str) -> Result<(), EngineError> {
        let depth = self.stack.len();
        let top = self.stack.pop().expect("end below the document frame");
        if self.open.is_empty() {
            return Ok(());
        }
        self.restage();
        self.scratch.end(name_str, top.open_pending);
        // Open captures nest, so only the innermost can be the element
        // that is ending.
        let closing = self
            .open
            .last()
            .copied()
            .filter(|&i| self.caps[i].start_depth == depth);
        for &i in &self.open {
            let cap = &mut self.caps[i];
            cap.buf.push_str(&self.scratch);
            if Some(i) == closing {
                Self::close(cap);
            } else if let Some(g) = &mut cap.guard {
                g.leave_element();
            }
        }
        self.visits += self.open.len() as u64;
        self.held += self.open.len() * self.scratch.len();
        if closing.is_some() {
            self.open.pop();
        }
        Ok(())
    }

    fn text(&mut self, decoded: &str) -> Result<(), EngineError> {
        // The reference parser drops whitespace-only text nodes and text
        // directly under the document node; match that node set exactly.
        if self.stack.len() == 1 || decoded.bytes().all(is_xml_space) {
            return Ok(());
        }
        let top = *self.stack.last().expect("document frame always present");
        let (mut a, _) =
            child_transition(&self.steps, self.mask, top.a, top.s, |t| t.matches_text());
        closure(&self.steps, self.mask, &mut a, |t| t.matches_text());
        // A text node answer is born complete — its guard can only hold
        // via self-matching steps, settled on the spot.
        let answer = a & self.accept != 0
            && (self.guard.is_empty()
                || GuardExec::start(&self.guard, self.gmask, self.gaccept, |t| t.matches_text())
                    .satisfied);
        if !answer && self.open.is_empty() {
            return Ok(());
        }
        self.restage();
        self.scratch.text(decoded, false);
        if !self.open.is_empty() {
            self.record(top.open_pending, GuardStep::Text);
        }
        if answer {
            self.held += self.scratch.len();
            self.caps.push(Capture {
                buf: self.scratch.clone(),
                start_depth: usize::MAX,
                state: CapState::Done,
                guard: None,
            });
        }
        Ok(())
    }
}

impl Stage for Matcher {
    fn staged(&self) -> usize {
        self.peak_scratch.max(self.scratch.len())
    }
}

/// What the plan puts under the pass.
enum Sink {
    /// The compiled NFA, serializing matches as they stream past.
    Match(Box<Matcher>),
    /// The pruner, its kept events rendered as the output: the whole
    /// answer for [`QueryOutput::Pruned`].
    Prune(Box<PruneMachine<Arc<Dtd>>>),
    /// The pruner, its kept events building t∖π: a fallback plan, whose
    /// `finish` evaluates the query over the tree.
    Tree(Box<PruneMachine<Arc<Dtd>>>, Box<TreeBuilder>),
    /// A fallback plan whose pass is over: t∖π, built (with its heap
    /// bytes), and the pass's statistics, waiting for an evaluation that
    /// fits its budget.
    Built(Box<Document>, usize, EngineStats),
    Done,
}

/// How [`QueryMachine::finish_within`] ended.
#[derive(Debug)]
pub enum Finish {
    /// The pass and its answer are complete, as after
    /// [`QueryMachine::finish`].
    Done(Box<QueryStats>),
    /// The fallback evaluation spent its budget (`steps`, the charge that
    /// passed it included) and stopped. Nothing was emitted; the pass is
    /// over and the pruned tree kept, so a later [`QueryMachine::finish`]
    /// evaluates it again with no budget.
    OverBudget {
        /// Steps spent before the evaluation stopped.
        steps: u64,
    },
}

// ---------------------------------------------------------------------
// The machine
// ---------------------------------------------------------------------

/// An owned, movable one-document pass: feed chunks, drain output,
/// finish for stats. A self-contained `Send` value, so a server can hand
/// it to a CPU worker and back between feeds, and stop reading input when
/// [`Self::pending_output`] says its peer is not draining.
pub struct QueryMachine {
    pass: Pass,
    sink: Sink,
    out: String,
    mode: QueryOutput,
    emitted: u64,
    prev_atom: bool,
    /// Output bytes already taken.
    taken: u64,
    peak_answer: usize,
    artifact: Arc<QueryArtifact>,
}

impl QueryMachine {
    /// Starts a pass of `artifact` over one document, running from the
    /// artifact's grammar and a copy of its precomputed verdict table.
    pub fn new(artifact: Arc<QueryArtifact>, mode: QueryOutput) -> QueryMachine {
        let (dtd, table) = (Arc::clone(&artifact.dtd), artifact.table.clone());
        let sink = match &artifact.plan {
            Plan::Streaming(p) if mode != QueryOutput::Pruned => Sink::Match(Box::new(
                Matcher::new(dtd, table, p.steps.clone(), p.guard.clone()),
            )),
            _ => {
                let machine = Box::new(PruneMachine::with_table(dtd, table));
                match mode {
                    QueryOutput::Pruned => Sink::Prune(machine),
                    _ => Sink::Tree(
                        machine,
                        Box::new(TreeBuilder::new(artifact.dtd.tags.clone())),
                    ),
                }
            }
        };
        QueryMachine {
            pass: Pass::new(),
            sink,
            out: String::new(),
            mode,
            emitted: 0,
            prev_atom: false,
            taken: 0,
            peak_answer: 0,
            artifact,
        }
    }

    /// What is running: `"streaming"` or `"fallback"` (the artifact's
    /// plan), or `"prune"` for [`QueryOutput::Pruned`].
    pub fn plan_label(&self) -> &'static str {
        match self.mode {
            QueryOutput::Pruned => "prune",
            _ => self.artifact.plan.label(),
        }
    }

    /// Enables or disables pruned-subtree fast-forward (default on).
    /// Output is identical either way on valid documents; with it off,
    /// the pass doubles as a full well-formedness check.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.pass.fast_forward = on;
    }

    /// Feeds one chunk of the serialized document. Completed match
    /// frames (or kept bytes) accumulate as pending output — drain with
    /// [`Self::take_output`].
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), EngineError> {
        let mut ready = Vec::new();
        match &mut self.sink {
            Sink::Match(m) => {
                self.pass.feed(chunk, &mut **m)?;
                m.drain_ready(&mut ready);
            }
            Sink::Prune(machine) => self
                .pass
                .feed(chunk, &mut MachineSink::new(machine, &mut self.out, None))?,
            Sink::Tree(machine, tree) => self
                .pass
                .feed(chunk, &mut MachineSink::new(machine, &mut **tree, None))?,
            Sink::Built(..) | Sink::Done => panic!("query machine already finished"),
        }
        for v in &ready {
            self.emit_match(false, v);
        }
        self.note_answer_peak();
        Ok(())
    }

    /// Ends the document: final matches (all of them, for the fallback
    /// plan) and the summary frame, or the trailing kept bytes, become
    /// pending output; drain with a last [`Self::take_output`]. Every
    /// plan asserts the engine's memory bound here.
    pub fn finish(&mut self) -> Result<QueryStats, EngineError> {
        match self.finish_within(u64::MAX)? {
            Finish::Done(stats) => Ok(*stats),
            Finish::OverBudget { .. } => unreachable!("an unbudgeted evaluation cannot overrun"),
        }
    }

    /// [`Self::finish`], with the fallback plan's evaluation spending at
    /// most `budget` steps. The other plans have no evaluation and always
    /// finish. An overrun ends the pass (its statistics are taken once,
    /// its bound asserted) but emits nothing, and keeps the pruned tree:
    /// a later [`Self::finish`] evaluates it with no budget.
    pub fn finish_within(&mut self, budget: u64) -> Result<Finish, EngineError> {
        let (mut engine, capture_visits) = match &self.sink {
            Sink::Built(_, _, engine) => (engine.clone(), 0),
            _ => self.end_pass()?,
        };
        let mut eval_steps = 0;
        if let Sink::Built(doc, held, _) = &self.sink {
            let (held, steps) = (*held, Steps::within(budget));
            let values = match evaluate_query_within(doc, &self.artifact.ast, &steps) {
                Ok(values) => values,
                Err(Halt::OverBudget) => {
                    return Ok(Finish::OverBudget {
                        steps: steps.spent(),
                    })
                }
                Err(Halt::Error(m)) => return Err(EngineError::Eval(XQueryError(m).to_string())),
            };
            self.sink = Sink::Done;
            for (atom, v) in &values {
                self.emit_match(*atom, v);
            }
            self.peak_answer = self.peak_answer.max(held + self.out.len());
            eval_steps = steps.spent();
        }
        let plan = self.plan_label();
        if self.mode == QueryOutput::Frames {
            use std::fmt::Write as _;
            let _ = writeln!(
                self.out,
                "{{\"done\":true,\"plan\":\"{plan}\",\"matches\":{},\"events\":{},\"bytes_in\":{},\
                 \"fast_forwarded\":{}}}",
                self.emitted, engine.events, engine.bytes_in, engine.subtrees_fast_forwarded,
            );
        }
        self.note_answer_peak();
        // A query's bytes out are its answer, not the pruned tree a
        // fallback plan built.
        engine.bytes_out = self.taken + self.out.len() as u64;
        Ok(Finish::Done(Box::new(QueryStats {
            plan,
            matches: self.emitted,
            peak_answer_bytes: self.peak_answer,
            capture_visits,
            eval_steps,
            engine,
        })))
    }

    /// Ends the pass: the tokenizer's tail, the last streamed matches or
    /// kept bytes, and the statistics and capture visits, taken once. A
    /// fallback plan's tree is left built for the evaluator (sound by Thm
    /// 4.6), its statistics beside it. A fully pruned document (π empty)
    /// is the bare document node, and still evaluates: the query may
    /// construct output without reading any node.
    fn end_pass(&mut self) -> Result<(EngineStats, u64), EngineError> {
        let (mut ready, mut capture_visits) = (Vec::new(), 0);
        let counters = match std::mem::replace(&mut self.sink, Sink::Done) {
            Sink::Match(mut m) => {
                self.pass.finish(&mut *m)?;
                m.finish_document()?;
                m.drain_ready(&mut ready);
                capture_visits = m.visits;
                PruneCounters {
                    max_depth: m.max_depth,
                    ..Default::default()
                }
            }
            Sink::Prune(mut machine) => {
                self.pass
                    .finish(&mut MachineSink::new(&mut machine, &mut self.out, None))?;
                machine.finish()?
            }
            Sink::Tree(mut machine, mut builder) => {
                self.pass
                    .finish(&mut MachineSink::new(&mut machine, &mut *builder, None))?;
                let engine = self.pass.stats(machine.finish()?);
                let held = builder.held();
                self.sink = Sink::Built(Box::new(builder.finish()), held, engine.clone());
                return Ok((engine, 0));
            }
            Sink::Built(..) | Sink::Done => panic!("query machine already finished"),
        };
        for v in &ready {
            self.emit_match(false, v);
        }
        Ok((self.pass.stats(counters), capture_visits))
    }

    /// Appends all pending output to `dst`, clearing it here.
    pub fn take_output(&mut self, dst: &mut Vec<u8>) {
        dst.extend_from_slice(self.out.as_bytes());
        self.taken += self.out.len() as u64;
        self.out.clear();
    }

    /// Bytes of output waiting to be taken — the backpressure signal.
    pub fn pending_output(&self) -> usize {
        self.out.len()
    }

    /// Total resident bytes right now: engine-side buffers plus the
    /// answer-side captures and undrained output.
    pub fn resident_bytes(&self) -> usize {
        self.pass.buffered() + self.held() + self.out.len()
    }

    /// Answer-side bytes held besides the output: the open and queued
    /// captures, or a fallback plan's pruned tree.
    fn held(&self) -> usize {
        match &self.sink {
            Sink::Match(m) => m.held,
            Sink::Tree(_, tree) => tree.held(),
            Sink::Built(_, held, _) => *held,
            _ => 0,
        }
    }

    fn emit_match(&mut self, atom: bool, value: &str) {
        match self.mode {
            QueryOutput::Frames => {
                use std::fmt::Write as _;
                let _ = write!(
                    self.out,
                    "{{\"match\":{},\"atom\":{},\"value\":\"",
                    self.emitted, atom
                );
                json_escape_into(value, &mut self.out);
                self.out.push_str("\"}\n");
            }
            QueryOutput::Answer => {
                // The sequence-level spacing rule: one space between
                // adjacent atoms, nothing elsewhere.
                if self.prev_atom && atom {
                    self.out.push(' ');
                }
                self.out.push_str(value);
                self.prev_atom = atom;
            }
            QueryOutput::Pruned => unreachable!("a pruning pass emits no matches"),
        }
        self.emitted += 1;
    }

    fn note_answer_peak(&mut self) {
        self.peak_answer = self.peak_answer.max(self.held() + self.out.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::tests::one_feed;
    use xproj_core::ErrorCode;
    use xproj_dtd::parse_dtd;
    use xproj_xquery::{evaluate_query, parse_xquery};

    /// Runs `artifact` over a whole in-memory document in `chunk_size`
    /// feeds, returning the output and stats.
    fn run_query(
        artifact: &Arc<QueryArtifact>,
        doc: &[u8],
        mode: QueryOutput,
        fast_forward: bool,
        chunk_size: usize,
    ) -> Result<(Vec<u8>, QueryStats), EngineError> {
        let mut machine = QueryMachine::new(Arc::clone(artifact), mode);
        machine.set_fast_forward(fast_forward);
        let mut out = Vec::new();
        for chunk in doc.chunks(chunk_size) {
            machine.feed(chunk)?;
            machine.take_output(&mut out);
        }
        let stats = machine.finish()?;
        machine.take_output(&mut out);
        Ok((out, stats))
    }

    const DTD: &str = "\
        <!ELEMENT bib (book*)>\
        <!ELEMENT book (title, author*, price?)>\
        <!ATTLIST book id CDATA #IMPLIED>\
        <!ELEMENT title (#PCDATA)>\
        <!ELEMENT author (#PCDATA)>\
        <!ELEMENT price (#PCDATA)>";

    const DOC: &str = "<bib>\
        <book id=\"b1\"><title>T1 &amp; more</title><author>A</author><price>10</price></book>\
        <book id=\"b2\"><title>T2</title></book>\
        </bib>";

    fn artifact(query: &str) -> Arc<QueryArtifact> {
        let dtd = Arc::new(parse_dtd(DTD, "bib").unwrap());
        QueryArtifact::compile(&dtd, query).unwrap()
    }

    fn reference(query: &str, doc: &str) -> String {
        let tree = xproj_xmltree::parse(doc).unwrap();
        evaluate_query(&tree, &parse_xquery(query).unwrap()).unwrap()
    }

    fn answer(query: &str, doc: &str, ff: bool, chunk: usize) -> (String, QueryStats) {
        let art = artifact(query);
        let (out, stats) = run_query(&art, doc.as_bytes(), QueryOutput::Answer, ff, chunk).unwrap();
        (String::from_utf8(out).unwrap(), stats)
    }

    #[test]
    fn streaming_answers_match_reference_at_every_chunk_size() {
        for q in [
            "/bib/book/title",
            "//title",
            "//book[price]",
            "/bib/book",
            "//title/text()",
            "//author",
            "/bib/node()",
            "//zzz",
        ] {
            let want = reference(q, DOC);
            for chunk in [1, 2, 3, 7, 64, 4096] {
                for ff in [true, false] {
                    let (got, stats) = answer(q, DOC, ff, chunk);
                    assert_eq!(got, want, "query {q}, chunk {chunk}, ff {ff}");
                    assert_eq!(stats.plan, "streaming", "{q} should stream");
                }
            }
        }
    }

    #[test]
    fn fallback_answers_match_reference() {
        for q in [
            "for $b in /bib/book where $b/price return <cheap>{$b/title}</cheap>",
            "/bib/book[1]/title",
            "//book[price]/title",
            "count(//book)",
        ] {
            let want = reference(q, DOC);
            for chunk in [3, 4096] {
                let art = artifact(q);
                let (out, stats) =
                    run_query(&art, DOC.as_bytes(), QueryOutput::Answer, true, chunk).unwrap();
                assert_eq!(String::from_utf8(out).unwrap(), want, "query {q}");
                assert_eq!(stats.plan, "fallback");
            }
        }
    }

    /// Runs `q` over `DOC` in frames, finishing with `finish_within(budget)`
    /// and, on an overrun, with a resuming `finish`.
    fn budgeted(q: &str, budget: u64) -> (Vec<u8>, Option<u64>, QueryStats) {
        let mut machine = QueryMachine::new(artifact(q), QueryOutput::Frames);
        machine.feed(DOC.as_bytes()).unwrap();
        let mut out = Vec::new();
        let (overrun, stats) = match machine.finish_within(budget).unwrap() {
            Finish::Done(stats) => (None, *stats),
            Finish::OverBudget { steps } => {
                assert_eq!(machine.pending_output(), 0, "{q}: an overrun emitted");
                (Some(steps), machine.finish().unwrap())
            }
        };
        machine.take_output(&mut out);
        (out, overrun, stats)
    }

    #[test]
    fn an_overrun_emits_nothing_and_the_resumed_finish_is_a_fresh_run() {
        let q = "for $b in /bib/book where $b/price return <cheap>{$b/title}</cheap>";
        let (fresh, overrun, stats) = budgeted(q, u64::MAX);
        assert_eq!(overrun, None);
        assert_eq!(stats.plan, "fallback");
        let (resumed, overrun, resumed_stats) = budgeted(q, 0);
        assert_eq!(overrun, Some(1), "budget 0 stops at the first step");
        assert_eq!(resumed, fresh);
        assert_eq!(resumed_stats.eval_steps, stats.eval_steps);
        assert_eq!(resumed_stats.engine.bytes_out, fresh.len() as u64);
        // A plan with no evaluation has nothing to overrun.
        let (_, overrun, stats) = budgeted("//title", 0);
        assert_eq!(
            (overrun, stats.plan, stats.eval_steps),
            (None, "streaming", 0)
        );
    }

    #[test]
    fn the_charged_steps_are_the_exact_budget() {
        for q in [
            "for $b in /bib/book where $b/price return <cheap>{$b/title}</cheap>",
            "/bib/book[1]/title",
            "//book[price]/title",
            "count(//book)",
            "for $a in //book, $b in //book where $a/title = $b/title return $a/@id",
        ] {
            let (fresh, _, stats) = budgeted(q, u64::MAX);
            let steps = stats.eval_steps;
            assert!(steps > 0, "{q}");
            let (out, overrun, _) = budgeted(q, steps);
            assert_eq!((overrun, &out), (None, &fresh), "{q}: budget = steps");
            let (out, overrun, _) = budgeted(q, steps - 1);
            assert!(
                overrun.is_some_and(|s| s >= steps),
                "{q}: budget = steps - 1"
            );
            assert_eq!(out, fresh, "{q}: resumed");
        }
    }

    #[test]
    fn frames_mode_emits_one_frame_per_match_plus_summary() {
        let art = artifact("//title");
        let (out, stats) =
            run_query(&art, DOC.as_bytes(), QueryOutput::Frames, true, 4096).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"match\":0,\"atom\":false,\"value\":\"<title>T1 &amp; more</title>\"}"
        );
        assert_eq!(
            lines[1],
            "{\"match\":1,\"atom\":false,\"value\":\"<title>T2</title>\"}"
        );
        assert!(lines[2].starts_with("{\"done\":true,\"plan\":\"streaming\",\"matches\":2,"));
        assert_eq!(stats.matches, 2);
        assert_eq!(stats.engine.bytes_out, text.len() as u64);
    }

    #[test]
    fn guard_rejects_candidates_without_witness() {
        // b2 has no price: `//book[price]` must emit only b1.
        let (got, _) = answer("//book[price]", DOC, true, 5);
        assert!(got.contains("id=\"b1\""));
        assert!(!got.contains("id=\"b2\""));
        // Guard satisfied on every candidate: both books captured.
        let (got, stats) = answer("/bib/book[title]", DOC, false, 1);
        assert!(got.contains("id=\"b1\"") && got.contains("id=\"b2\""));
        assert_eq!(stats.plan, "streaming");
    }

    #[test]
    fn fast_forward_skips_subtrees_and_preserves_answers() {
        let (fast, fs) = answer("//title", DOC, true, 4096);
        let (plain, ps) = answer("//title", DOC, false, 4096);
        assert_eq!(fast, plain);
        assert!(
            fs.engine.subtrees_fast_forwarded > 0,
            "price/author subtrees skip"
        );
        assert_eq!(ps.engine.subtrees_fast_forwarded, 0);
        assert!(fs.engine.events < ps.engine.events);
    }

    #[test]
    fn captures_stay_answer_bounded_not_document_bounded() {
        // Many books, query selects only titles: answer-resident bytes
        // must track the largest single title, not the document.
        let body: String = (0..500)
            .map(|i| format!("<book id=\"b{i}\"><title>T{i}</title><author>A{i}</author></book>"))
            .collect();
        let doc = format!("<bib>{body}</bib>");
        let art = artifact("//title");
        let mut machine = QueryMachine::new(art, QueryOutput::Frames);
        let mut out = Vec::new();
        let mut peak_waiting = 0usize;
        for chunk in doc.as_bytes().chunks(64) {
            machine.feed(chunk).unwrap();
            peak_waiting = peak_waiting.max(machine.pending_output());
            machine.take_output(&mut out);
        }
        let stats = machine.finish().unwrap();
        machine.take_output(&mut out);
        assert_eq!(stats.matches, 500);
        assert!(
            stats.engine.peak_resident_bytes < 2048,
            "engine-resident {} should be token-scale",
            stats.engine.peak_resident_bytes
        );
        assert!(
            peak_waiting < 1024,
            "undrained output {} should be chunk-scale when drained per feed",
            peak_waiting
        );
    }

    #[test]
    fn streaming_gauge_keeps_the_largest_rendering_not_the_last() {
        // 4 096 `>` render to 16 384 bytes of `&gt;`; the one-byte answer
        // after them must not hide that from the gauge (or the bound).
        let dtd = Arc::new(parse_dtd("<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)>", "r").unwrap());
        let art = QueryArtifact::compile(&dtd, "//a/text()").unwrap();
        let doc = format!("<r><a>{}</a><a>x</a></r>", ">".repeat(4096));
        for chunk in [doc.len(), 1024, 64] {
            let (_, stats) =
                run_query(&art, doc.as_bytes(), QueryOutput::Frames, true, chunk).unwrap();
            assert_eq!((stats.plan, stats.matches), ("streaming", 2));
            let peak = stats.engine.peak_resident_bytes;
            assert!(peak >= 16_384, "feeds of {chunk}: peak resident {peak}");
        }
    }

    #[test]
    fn undeclared_element_and_malformed_input_error() {
        let art = artifact("//title");
        let err = run_query(&art, b"<bib><zzz/></bib>", QueryOutput::Answer, false, 7).unwrap_err();
        assert_eq!(err.code(), ErrorCode::UndeclaredElement);
        let err = run_query(&art, b"<bib><book>", QueryOutput::Answer, true, 7).unwrap_err();
        assert_eq!(err.code(), ErrorCode::MalformedXml);
        let err = run_query(&art, b"", QueryOutput::Answer, true, 7).unwrap_err();
        assert_eq!(err.code(), ErrorCode::MalformedXml);
    }

    #[test]
    fn cdata_and_entities_round_trip_through_captures() {
        for doc in [
            "<bib><book id=\"x&amp;y\"><title>a<![CDATA[<raw>]]>b</title>\
             <author>&lt;A&gt;</author></book></bib>",
            // A run of XML `S` is no text node; U+00A0 is character data.
            "<bib><book><title>\u{A0}</title><author> \t</author></book></bib>",
        ] {
            for q in ["//title", "//author", "/bib/book", "//book//text()"] {
                let want = reference(q, doc);
                let (got, _) = answer(q, doc, true, 3);
                assert_eq!(got, want, "query {q} on {doc:?}");
            }
        }
    }

    #[test]
    fn whole_document_match_is_supported() {
        let q = "/descendant-or-self::node()";
        let want = reference(q, DOC);
        let (got, stats) = answer(q, DOC, true, 9);
        assert_eq!(got, want);
        assert_eq!(stats.plan, "streaming");
    }

    #[test]
    fn machine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<QueryMachine>();
    }

    /// The executor handoff in miniature: each feed happens on a fresh
    /// thread, with the machine moved there and back.
    #[test]
    fn machine_survives_thread_hops_between_feeds() {
        for mode in [QueryOutput::Answer, QueryOutput::Pruned] {
            let mut machine = QueryMachine::new(artifact("//title"), mode);
            for chunk in DOC.as_bytes().chunks(7) {
                let chunk = chunk.to_vec();
                machine = std::thread::spawn(move || {
                    machine.feed(&chunk).unwrap();
                    machine
                })
                .join()
                .unwrap();
            }
            machine.finish().unwrap();
            let mut out = Vec::new();
            machine.take_output(&mut out);
            let want = match mode {
                QueryOutput::Pruned => pruned("//title"),
                _ => reference("//title", DOC),
            };
            assert_eq!(String::from_utf8(out).unwrap(), want);
        }
    }

    fn pruned(query: &str) -> String {
        let art = artifact(query);
        one_feed(DOC, &art.dtd, &art.projector, false, false)
            .unwrap()
            .0
    }

    #[test]
    fn pruned_mode_matches_prune_str_with_interleaved_drains() {
        // A streaming-plan and a fallback-plan artifact: the plan is
        // irrelevant to a pruning pass.
        for q in ["/bib/book/title", "count(//book)"] {
            let art = artifact(q);
            let (want, c) = one_feed(DOC, &art.dtd, &art.projector, false, false).unwrap();
            for size in [1, 3, 16, 4096] {
                let mut m = QueryMachine::new(Arc::clone(&art), QueryOutput::Pruned);
                let mut out = Vec::new();
                for chunk in DOC.as_bytes().chunks(size) {
                    m.feed(chunk).unwrap();
                    // Drain mid-document, like a server does after
                    // every executor round-trip.
                    m.take_output(&mut out);
                }
                let stats = m.finish().unwrap();
                m.take_output(&mut out);
                assert_eq!(m.pending_output(), 0);
                assert_eq!(String::from_utf8(out).unwrap(), want, "{q}, chunk {size}");
                assert_eq!(stats.plan, "prune");
                assert_eq!(stats.matches, 0);
                assert_eq!(
                    stats.engine.counters.elements_kept,
                    c.counters.elements_kept
                );
                assert_eq!(stats.engine.bytes_out, want.len() as u64);
            }
        }
    }

    #[test]
    fn pruned_mode_reports_undrained_bytes_as_pending() {
        let mut m = QueryMachine::new(artifact("/bib/book/title"), QueryOutput::Pruned);
        m.feed(DOC.as_bytes()).unwrap();
        assert!(m.pending_output() > 0);
        assert!(m.resident_bytes() >= m.pending_output());
        let mut out = Vec::new();
        m.take_output(&mut out);
        assert_eq!(m.pending_output(), 0);
        assert!(!out.is_empty());
        // A fallback plan builds a tree of the same events, evaluator
        // input: resident, not pending.
        // The answer gauge counts the tree.
        let mut m = QueryMachine::new(artifact("count(//book)"), QueryOutput::Answer);
        m.feed(DOC.as_bytes()).unwrap();
        assert_eq!(m.pending_output(), 0);
        let tree = m.held();
        assert!(tree > 0 && m.resident_bytes() >= tree);
        assert!(m.finish().unwrap().peak_answer_bytes >= tree);
    }

    #[test]
    fn pruned_mode_keeps_trailing_output_drainable_after_finish() {
        let mut m = QueryMachine::new(artifact("/bib/book/title"), QueryOutput::Pruned);
        // Feed everything but the closing tag, drain, then finish: the
        // bytes flushed during finish must still come out.
        let split = DOC.len() - "</bib>".len();
        m.feed(&DOC.as_bytes()[..split]).unwrap();
        let mut out = Vec::new();
        m.take_output(&mut out);
        m.feed(&DOC.as_bytes()[split..]).unwrap();
        m.finish().unwrap();
        m.take_output(&mut out);
        assert!(String::from_utf8(out).unwrap().ends_with("</bib>"));
    }

    #[test]
    fn pruned_mode_surfaces_engine_errors_and_may_be_dropped_unfinished() {
        let mut m = QueryMachine::new(artifact("/bib/book/title"), QueryOutput::Pruned);
        assert!(matches!(
            m.feed(b"<bib><zzz></zzz></bib>"),
            Err(EngineError::Prune(_))
        ));
        let mut m = QueryMachine::new(artifact("/bib/book/title"), QueryOutput::Pruned);
        m.feed(b"<bib><book>").unwrap();
        assert!(matches!(m.finish(), Err(EngineError::Xml(_))));
        let mut m = QueryMachine::new(artifact("/bib/book/title"), QueryOutput::Pruned);
        m.feed(b"<bib><book><title>half").unwrap();
        drop(m);
    }
}
