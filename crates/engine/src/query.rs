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
//! loop prunes into an in-memory buffer (sound by the paper's Thm 4.6 —
//! pruning preserves answers), and `finish` parses the pruned tree and
//! runs the reference evaluator. Both plans produce **byte-identical**
//! output to evaluating the query on the unpruned document; the
//! differential fuzzer in `tests/query_pipeline.rs` holds them to that.
//!
//! The pruned document is itself an answer ([`QueryOutput::Pruned`]):
//! the fallback pass without its evaluation step, the kept bytes handed
//! out as they are produced. So a [`QueryMachine`] is the one
//! per-document pass object — what `/v1/prune` and `/v1/query` both
//! drive.
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

use crate::chunked::{ChunkedPruner, EngineError};
use crate::metrics::EngineStats;
use xproj_core::{ProjectorTable, StreamPruneError, Verdict};
use xproj_dtd::{Dtd, NameId};
use xproj_qc::{Plan, QueryArtifact, StepAxis, StepInstr, StepTest};
use xproj_xmltree::document::{escape_attr, escape_text};
use xproj_xmltree::entities::decode_entities;
use xproj_xmltree::push::{is_xml_space, Drained, PushTokenizer, RawAttrs, TokenSink};
use xproj_xmltree::{parse_with_options, Document, ParseOptions};
use xproj_xquery::{evaluate_query_items, serialize_item};

/// What a [`QueryMachine`] writes to its output buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutput {
    /// x-ndjson match frames plus a final summary frame (`/v1/query`).
    Frames,
    /// The bare serialized result sequence, exactly as
    /// [`xproj_xquery::serialize_items`] would produce it (CLI).
    Answer,
    /// The pruned document t∖π itself (`/v1/prune`): by Thm 4.6 just
    /// another answer, and the fallback plan minus its evaluation step.
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
    /// the fallback plan, the buffered pruned document). Scales with the
    /// answer, not the input.
    pub peak_answer_bytes: usize,
    /// Open captures touched, summed over events: at most `events ·
    /// (max_depth + 1)` on the streaming plan, zero elsewhere. The
    /// counter behind the matcher's O(open depth)-per-event gate; not
    /// part of any serialized form.
    pub capture_visits: u64,
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
            if matches!(steps[k].axis, StepAxis::SelfStep | StepAxis::DescendantOrSelf)
                && matches(steps[k].test)
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
    fn start(guard: &[StepInstr], mask: u64, accept: u64, matches: impl Fn(StepTest) -> bool) -> GuardExec {
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
    fn new(dtd: Arc<Dtd>, table: ProjectorTable, steps: Vec<StepInstr>, guard: Vec<StepInstr>) -> Matcher {
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

    /// The one pass an event makes over the recording captures: close
    /// the parent's pending start tag, step each guard, append `scratch`.
    fn record(&mut self, close_parent: bool, step: GuardStep) {
        let Matcher { caps, open, scratch, guard, gmask, gaccept, .. } = self;
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
            self.caps[self.head..].iter().map(|c| c.buf.len()).sum::<usize>()
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
        let (mut a, s) =
            child_transition(&self.steps, self.mask, parent.a, parent.s, |t| {
                t.matches_element(name)
            });
        closure(&self.steps, self.mask, &mut a, |t| t.matches_element(name));
        let matched = a & self.accept != 0;
        let recording = !self.open.is_empty();
        let can_ff = self.table.verdict(name) == Verdict::PruneSubtree && !matched && !recording;

        if matched || recording {
            // Render `<name a="v" …` (no closing `>` yet) once, for
            // every recording capture. Values are decoded then
            // re-escaped — byte-identical to the reference serializer.
            self.scratch.clear();
            self.scratch.push('<');
            self.scratch.push_str(name_str);
            for attr in RawAttrs::new(attrs_raw) {
                let (an, rawv) = attr.map_err(StreamPruneError::Xml)?;
                let decoded = decode_entities(rawv).map_err(StreamPruneError::Xml)?;
                self.scratch.push(' ');
                self.scratch.push_str(an);
                self.scratch.push_str("=\"");
                escape_attr(&decoded, &mut self.scratch);
                self.scratch.push('"');
            }
            self.record(recording && parent.open_pending, GuardStep::Enter(name));
        }
        if matched {
            let guard_exec = if self.guard.is_empty() {
                None
            } else {
                Some(GuardExec::start(&self.guard, self.gmask, self.gaccept, |t| {
                    t.matches_element(name)
                }))
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
        self.scratch.clear();
        if top.open_pending {
            self.scratch.push_str("/>");
        } else {
            self.scratch.push_str("</");
            self.scratch.push_str(name_str);
            self.scratch.push('>');
        }
        // Open captures nest, so only the innermost can be the element
        // that is ending.
        let closing = self.open.last().copied().filter(|&i| self.caps[i].start_depth == depth);
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
        let (mut a, _) = child_transition(&self.steps, self.mask, top.a, top.s, |t| {
            t.matches_text()
        });
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
        self.scratch.clear();
        escape_text(decoded, &mut self.scratch);
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

// ---------------------------------------------------------------------
// Execution backends
// ---------------------------------------------------------------------

struct StreamExec {
    tokenizer: PushTokenizer,
    m: Matcher,
    fast_forward: bool,
    stats: EngineStats,
}

impl StreamExec {
    fn feed(&mut self, chunk: &[u8]) -> Result<(), EngineError> {
        self.stats.bytes_in += chunk.len() as u64;
        self.tokenizer.push_bytes(chunk)?;
        let done = self.tokenizer.drain(&mut self.m, self.fast_forward)?;
        self.book(done);
        Ok(())
    }

    fn book(&mut self, done: Drained) {
        self.stats.events += done.events;
        self.stats.subtrees_fast_forwarded += done.fast_forwarded;
        self.stats.peak_resident_bytes = self
            .stats
            .peak_resident_bytes
            .max(self.tokenizer.peak_buffered() + self.m.scratch.len());
    }

    fn finish_stream(&mut self) -> Result<(), EngineError> {
        let done = self.tokenizer.finish_into(&mut self.m)?;
        self.book(done);
        self.m.finish_document()?;
        self.stats.counters.max_depth = self.m.max_depth;
        self.stats.max_token_bytes = self.tokenizer.max_token_bytes();
        Ok(())
    }
}

enum Exec {
    /// The compiled NFA, serializing matches as they stream past.
    Streaming(Box<StreamExec>),
    /// The pruner into an owned buffer: the whole pass for
    /// [`QueryOutput::Pruned`], the first half of a fallback plan.
    Pruner(Box<ChunkedPruner<Arc<Dtd>, Vec<u8>>>),
    Done,
}

// ---------------------------------------------------------------------
// The machine
// ---------------------------------------------------------------------

/// An owned, movable one-document pass: feed chunks, drain output,
/// finish for stats. A self-contained `Send` value, so a server can hand
/// it to a CPU worker and back between feeds, and stop reading input when
/// [`Self::pending_output`] says its peer is not draining.
pub struct QueryMachine {
    exec: Exec,
    out: Vec<u8>,
    mode: QueryOutput,
    emitted: u64,
    prev_atom: bool,
    bytes_out: u64,
    peak_answer: usize,
    artifact: Arc<QueryArtifact>,
}

impl QueryMachine {
    /// Starts a pass of `artifact` over one document, running from the
    /// artifact's grammar and a copy of its precomputed verdict table.
    pub fn new(artifact: Arc<QueryArtifact>, mode: QueryOutput) -> QueryMachine {
        let art = &artifact;
        let exec = match &art.plan {
            Plan::Streaming(p) if mode != QueryOutput::Pruned => {
                Exec::Streaming(Box::new(StreamExec {
                    tokenizer: PushTokenizer::new(),
                    m: Matcher::new(
                        Arc::clone(&art.dtd),
                        art.table.clone(),
                        p.steps.clone(),
                        p.guard.clone(),
                    ),
                    fast_forward: true,
                    stats: EngineStats {
                        documents: 1,
                        ..Default::default()
                    },
                }))
            }
            _ => Exec::Pruner(Box::new(ChunkedPruner::with_table(
                Arc::clone(&art.dtd),
                art.table.clone(),
                Vec::new(),
            ))),
        };
        QueryMachine {
            exec,
            out: Vec::new(),
            mode,
            emitted: 0,
            prev_atom: false,
            bytes_out: 0,
            peak_answer: 0,
            artifact,
        }
    }

    /// The artifact this machine executes.
    pub fn artifact(&self) -> &Arc<QueryArtifact> {
        &self.artifact
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
        match &mut self.exec {
            Exec::Streaming(s) => s.fast_forward = on,
            Exec::Pruner(p) => p.set_fast_forward(on),
            Exec::Done => {}
        }
    }

    /// Feeds one chunk of the serialized document. Completed match
    /// frames (or kept bytes) accumulate as pending output — drain with
    /// [`Self::take_output`].
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), EngineError> {
        let mut ready = Vec::new();
        match &mut self.exec {
            Exec::Streaming(s) => {
                s.feed(chunk)?;
                s.m.drain_ready(&mut ready);
            }
            Exec::Pruner(p) => p.feed(chunk)?,
            Exec::Done => panic!("query machine already finished"),
        }
        for v in &ready {
            self.emit_match(false, v);
        }
        self.note_answer_peak();
        Ok(())
    }

    /// Ends the document: final matches (all of them, for the fallback
    /// plan) and the summary frame, or the trailing kept bytes, become
    /// pending output; drain with a last [`Self::take_output`]. A
    /// pruner-backed pass also asserts the engine's memory bound here.
    pub fn finish(&mut self) -> Result<QueryStats, EngineError> {
        let mut capture_visits = 0;
        let mut engine = match std::mem::replace(&mut self.exec, Exec::Done) {
            Exec::Streaming(mut s) => {
                s.finish_stream()?;
                let mut ready = Vec::new();
                s.m.drain_ready(&mut ready);
                for v in &ready {
                    self.emit_match(false, v);
                }
                capture_visits = s.m.visits;
                s.stats
            }
            Exec::Pruner(p) => {
                let (engine, pruned) = p.finish_parts()?;
                if self.mode == QueryOutput::Pruned {
                    self.out = pruned;
                } else {
                    self.evaluate(pruned)?;
                }
                engine
            }
            Exec::Done => panic!("query machine already finished"),
        };
        let plan = self.plan_label();
        if self.mode == QueryOutput::Frames {
            let summary = format!(
                "{{\"done\":true,\"plan\":\"{plan}\",\"matches\":{},\"events\":{},\"bytes_in\":{},\
                 \"fast_forwarded\":{}}}\n",
                self.emitted, engine.events, engine.bytes_in, engine.subtrees_fast_forwarded,
            );
            self.out.extend_from_slice(summary.as_bytes());
            self.bytes_out += summary.len() as u64;
        }
        self.note_answer_peak();
        if self.mode != QueryOutput::Pruned {
            // A query's bytes out are its answer, not the pruned
            // intermediate a fallback plan buffered.
            engine.bytes_out = self.bytes_out;
        }
        Ok(QueryStats {
            plan,
            matches: self.emitted,
            peak_answer_bytes: self.peak_answer,
            capture_visits,
            engine,
        })
    }

    /// The fallback plan's second half: parse the pruned document and
    /// run the reference evaluator over it (sound by Thm 4.6).
    fn evaluate(&mut self, pruned: Vec<u8>) -> Result<(), EngineError> {
        let pruned_len = pruned.len();
        let text =
            String::from_utf8(pruned).expect("pruned output re-serializes validated UTF-8 tokens");
        // A fully pruned document (π empty) still evaluates: the
        // query may construct output without reading any node.
        let doc = if text.trim().is_empty() {
            Document::new()
        } else {
            parse_with_options(
                &text,
                ParseOptions {
                    ignore_whitespace_text: true,
                    interner: Some(self.artifact.dtd.tags.clone()),
                },
            )?
        };
        let items = evaluate_query_items(&doc, &self.artifact.ast)
            .map_err(|e| EngineError::Eval(e.to_string()))?;
        for it in &items {
            let v = serialize_item(&doc, it);
            self.emit_match(it.is_atom(), &v);
        }
        self.peak_answer = self.peak_answer.max(pruned_len + self.out.len());
        Ok(())
    }

    /// Appends all pending output to `dst`, clearing it here.
    pub fn take_output(&mut self, dst: &mut Vec<u8>) {
        // A pruning pass's kept bytes are output as they stand, straight
        // from the pruner's buffer (a fallback plan's buffer is input to
        // the evaluator instead).
        if let (Exec::Pruner(p), QueryOutput::Pruned) = (&mut self.exec, self.mode) {
            dst.append(&mut p.sink);
        }
        dst.append(&mut self.out);
    }

    /// Bytes of output waiting to be taken — the backpressure signal.
    pub fn pending_output(&self) -> usize {
        let kept = match (&self.exec, self.mode) {
            (Exec::Pruner(p), QueryOutput::Pruned) => p.sink.len(),
            _ => 0,
        };
        kept + self.out.len()
    }

    /// Total resident bytes right now: engine-side buffers plus the
    /// answer-side captures and undrained output.
    pub fn resident_bytes(&self) -> usize {
        let exec = match &self.exec {
            Exec::Streaming(s) => s.tokenizer.buffered() + s.m.held,
            Exec::Pruner(p) => p.resident_bytes() + p.sink.len(),
            Exec::Done => 0,
        };
        exec + self.out.len()
    }

    fn emit_match(&mut self, atom: bool, value: &str) {
        let before = self.out.len();
        match self.mode {
            QueryOutput::Frames => {
                use std::io::Write as _;
                let _ = write!(self.out, "{{\"match\":{},\"atom\":{},\"value\":\"", self.emitted, atom);
                json_escape_into(value, &mut self.out);
                self.out.extend_from_slice(b"\"}\n");
            }
            QueryOutput::Answer => {
                // The sequence-level spacing rule: one space between
                // adjacent atoms, nothing elsewhere.
                if self.prev_atom && atom {
                    self.out.push(b' ');
                }
                self.out.extend_from_slice(value.as_bytes());
                self.prev_atom = atom;
            }
            QueryOutput::Pruned => unreachable!("a pruning pass emits no matches"),
        }
        self.bytes_out += (self.out.len() - before) as u64;
        self.emitted += 1;
    }

    fn note_answer_peak(&mut self) {
        let held = match &self.exec {
            Exec::Streaming(s) => s.m.held,
            _ => 0,
        };
        self.peak_answer = self.peak_answer.max(held + self.pending_output());
    }
}

/// Escapes `s` into `out` as JSON string contents (UTF-8 passes through
/// verbatim; only quotes, backslashes and control bytes are escaped).
pub fn json_escape_into(s: &str, out: &mut Vec<u8>) {
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0x00..=0x1f => {
                use std::io::Write as _;
                let _ = write!(out, "\\u{:04x}", b);
            }
            _ => out.push(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_core::{prune_str, ErrorCode};
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
        let (out, stats) =
            run_query(&art, doc.as_bytes(), QueryOutput::Answer, ff, chunk).unwrap();
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
        assert!(fs.engine.subtrees_fast_forwarded > 0, "price/author subtrees skip");
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
    fn undeclared_element_and_malformed_input_error() {
        let art = artifact("//title");
        let err = run_query(&art, b"<bib><zzz/></bib>", QueryOutput::Answer, false, 7)
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::UndeclaredElement);
        let err =
            run_query(&art, b"<bib><book>", QueryOutput::Answer, true, 7).unwrap_err();
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
        prune_str(DOC, &art.dtd, &art.projector).unwrap().output
    }

    #[test]
    fn pruned_mode_matches_prune_str_with_interleaved_drains() {
        // A streaming-plan and a fallback-plan artifact: the plan is
        // irrelevant to a pruning pass.
        for q in ["/bib/book/title", "count(//book)"] {
            let art = artifact(q);
            let want = prune_str(DOC, &art.dtd, &art.projector).unwrap();
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
                assert_eq!(String::from_utf8(out).unwrap(), want.output, "{q}, chunk {size}");
                assert_eq!(stats.plan, "prune");
                assert_eq!(stats.matches, 0);
                assert_eq!(stats.engine.counters.elements_kept, want.elements_kept);
                assert_eq!(stats.engine.bytes_out, want.output.len() as u64);
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
        // A fallback plan buffers the same bytes, but as evaluator
        // input: resident, not pending.
        let mut m = QueryMachine::new(artifact("count(//book)"), QueryOutput::Answer);
        m.feed(DOC.as_bytes()).unwrap();
        assert_eq!(m.pending_output(), 0);
        assert!(m.resident_bytes() > 0);
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
