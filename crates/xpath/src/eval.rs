//! The in-memory evaluator, and the one value model both evaluators use.
//!
//! Implements the W3C semantics that Definitions 3.1–3.3 of the paper
//! formalise, extended with attributes, all axes, general predicates
//! (with `position()`/`last()` counted along the axis direction), the
//! XPath 1.0 core function library and the handful of XQuery functions
//! the XMark workload uses (`empty`, `exists`, `zero-or-one`, `data`).
//!
//! A value is a sequence of [`Item`]s: document nodes, atoms and the
//! trees XQuery constructs. XPath 1.0's node-set, boolean, number and
//! string are the sequences it can produce, held compactly as
//! [`Value`]'s first four cases, and read through the views
//! [`Value::to_bool`], [`Value::to_num`] and [`Value::to_str`]. Any other
//! sequence is read by the node-set rules: comparisons are existential,
//! `string()` and `number()` read its first item, and it is true when it
//! is not empty. Only document nodes can be navigated.
//!
//! In the experiments this evaluator plays the role of the Galax engine:
//! queries are run against the original and the pruned document and the
//! results — related through [`Document::src_id`] — must coincide
//! (Theorem 4.5).

use crate::ast::{ArithOp, Axis, CmpOp, Expr, Func, LocationPath, NodeTest, Step};
use std::borrow::Cow;
use std::cell::Cell;
use std::rc::Rc;
use xproj_xmltree::{Document, NodeId, NodeKind};

/// A node as seen by XPath: a tree node or an attribute of one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum XNode {
    /// Element, text or document node.
    Tree(NodeId),
    /// Attribute `idx` of an element.
    Attr(NodeId, u32),
}

impl XNode {
    /// Document-order sort key: attributes come right after their
    /// element, before its children would (sufficient for result sets).
    pub fn order_key(self) -> (u32, u8, u32) {
        match self {
            XNode::Tree(n) => (n.0, 0, 0),
            XNode::Attr(n, i) => (n.0, 1, i),
        }
    }

    /// The underlying tree node (owner element for attributes).
    pub fn tree_node(self) -> NodeId {
        match self {
            XNode::Tree(n) | XNode::Attr(n, _) => n,
        }
    }
}

/// One item of a sequence.
#[derive(Clone, Debug, PartialEq)]
pub enum Item {
    /// A node of the queried document.
    Node(XNode),
    /// A string.
    Str(String),
    /// A number.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A tree an XQuery constructor built: not part of the document, so
    /// no path navigates it.
    Built(Rc<Built>),
}

impl Item {
    /// True for an atom: a string, a number or a boolean.
    pub fn is_atom(&self) -> bool {
        matches!(self, Item::Str(_) | Item::Num(_) | Item::Bool(_))
    }
}

/// A constructed tree.
#[derive(Debug, PartialEq)]
pub enum Built {
    /// An element: its tag and its children, each a document node (whose
    /// subtree it holds) or a constructed tree.
    Elem(String, Vec<Item>),
    /// A text node.
    Text(String),
}

/// A sequence of items: the value of every expression and query.
/// `repr(u64)` keeps each payload word-aligned, so moving a value (every
/// return does) copies whole words; a byte-offset `Bool` made it stall.
#[derive(Clone, Debug, PartialEq)]
#[repr(u64)]
pub enum Value {
    /// Document nodes: from a path, a node-set in document order without
    /// duplicates. The empty sequence is the empty node-set.
    Nodes(Vec<XNode>),
    /// One boolean.
    Bool(bool),
    /// One number.
    Num(f64),
    /// One string.
    Str(String),
    /// Any other sequence: several atoms, constructed trees, or atoms and
    /// nodes mixed.
    Items(Vec<Item>),
}

impl From<Item> for Value {
    /// The sequence of one item.
    fn from(item: Item) -> Value {
        match item {
            Item::Node(n) => Value::Nodes(vec![n]),
            Item::Str(s) => Value::Str(s),
            Item::Num(n) => Value::Num(n),
            Item::Bool(b) => Value::Bool(b),
            built @ Item::Built(_) => Value::Items(vec![built]),
        }
    }
}

impl Value {
    /// The sequence of `items`, in its compact case when it has one.
    pub fn from_items(mut items: Vec<Item>) -> Value {
        let nodes = items.iter().map(|it| match it {
            Item::Node(n) => Some(*n),
            _ => None,
        });
        if let Some(ns) = nodes.collect::<Option<Vec<_>>>() {
            Value::Nodes(ns)
        } else if items.len() == 1 {
            items.pop().unwrap().into()
        } else {
            Value::Items(items)
        }
    }

    /// The items, in order.
    pub fn into_items(self) -> Vec<Item> {
        match self {
            Value::Nodes(ns) => ns.into_iter().map(Item::Node).collect(),
            Value::Bool(b) => vec![Item::Bool(b)],
            Value::Num(n) => vec![Item::Num(n)],
            Value::Str(s) => vec![Item::Str(s)],
            Value::Items(items) => items,
        }
    }

    /// The number of items.
    pub fn len(&self) -> usize {
        match self {
            Value::Nodes(ns) => ns.len(),
            Value::Items(items) => items.len(),
            _ => 1,
        }
    }

    /// Whether this is the empty sequence.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Effective boolean value: a sequence is true when it is not
    /// empty, one atom gives its own value.
    pub fn to_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            seq => !seq.is_empty(),
        }
    }

    /// `string()`: the string of the first item, its walk or its bytes
    /// charged.
    pub fn to_str(&self, doc: &Document, steps: &Steps) -> Result<String, Halt> {
        if self.is_empty() {
            return Ok(String::new());
        }
        Ok(match self.atom(0, doc, steps)?.into_owned() {
            Value::Str(s) => s,
            Value::Num(n) => num_to_str(n),
            Value::Bool(b) => b.to_string(),
            _ => unreachable!("an atom"),
        })
    }

    /// `number()`: the number of the first item, its walk or its bytes
    /// charged.
    pub fn to_num(&self, doc: &Document, steps: &Steps) -> Result<f64, Halt> {
        if self.is_empty() {
            return Ok(f64::NAN);
        }
        Ok(atom_num(&*self.atom(0, doc, steps)?))
    }

    /// Item `i` as an atom: a node's or a constructed tree's string
    /// value, its walk charged, or the atom itself, a string's bytes
    /// charged.
    fn atom(&self, i: usize, doc: &Document, steps: &Steps) -> Result<Cow<'_, Value>, Halt> {
        let node = |n: XNode| {
            steps.charge_walk(doc, n)?;
            Ok(Cow::Owned(Value::Str(string_value(doc, n))))
        };
        match self {
            Value::Nodes(ns) => node(ns[i]),
            Value::Items(items) => match &items[i] {
                Item::Node(n) => node(*n),
                Item::Built(t) => Ok(Cow::Owned(Value::Str(built_text(doc, t, steps)?))),
                atom => Ok(Cow::Owned(
                    Value::from(atom.clone()).atom(0, doc, steps)?.into_owned(),
                )),
            },
            Value::Str(s) => {
                steps.charge_bytes(s.len())?;
                Ok(Cow::Borrowed(self))
            }
            atom => Ok(Cow::Borrowed(atom)),
        }
    }

    /// Makes this the sequence of `item` alone, reusing its buffer when
    /// both are nodes.
    pub fn set_item(&mut self, item: Item) {
        match (self, item) {
            (Value::Nodes(ns), Item::Node(n)) => {
                ns.clear();
                ns.push(n);
            }
            (this, item) => *this = item.into(),
        }
    }
}

/// The string value of a constructed tree: a step a node, and the bytes
/// of its text.
fn built_text(doc: &Document, t: &Built, steps: &Steps) -> Result<String, Halt> {
    steps.charge(1)?;
    match t {
        Built::Text(s) => {
            steps.charge_bytes(s.len())?;
            Ok(s.clone())
        }
        Built::Elem(_, children) => children
            .iter()
            .map(|child| Value::from(child.clone()).to_str(doc, steps))
            .collect(),
    }
}

/// The number of an atom.
fn atom_num(v: &Value) -> f64 {
    match v {
        Value::Num(n) => *n,
        Value::Str(s) => str_to_num(s),
        other => f64::from(u8::from(other.to_bool())),
    }
}

/// XPath string-value of a node.
pub fn string_value(doc: &Document, n: XNode) -> String {
    match n {
        XNode::Tree(id) => doc.string_value(id),
        XNode::Attr(id, i) => doc.attributes(id)[i as usize].value.to_string(),
    }
}

/// A string's number (XPath 1.0 §4.4): optional whitespace, an optional
/// minus sign, a `Number` (digits with an optional `.` and fraction, or
/// `.` and digits) and optional whitespace; anything else is NaN.
pub fn str_to_num(s: &str) -> f64 {
    let t = s.trim_matches([' ', '\t', '\r', '\n']);
    let digits = t.strip_prefix('-').unwrap_or(t);
    let (int, frac) = digits.split_once('.').unwrap_or((digits, ""));
    let all_digits = |p: &str| p.bytes().all(|b| b.is_ascii_digit());
    if (int.is_empty() && frac.is_empty()) || !all_digits(int) || !all_digits(frac) {
        return f64::NAN;
    }
    t.parse().unwrap_or(f64::NAN)
}

/// A number's string (XPath 1.0 §4.2).
pub fn num_to_str(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 { "Infinity" } else { "-Infinity" }.to_string()
    } else if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Evaluation error (unknown function, unbound variable, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError(pub String);

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XPath evaluation error: {}", self.0)
    }
}

impl std::error::Error for EvalError {}

/// Why a budgeted evaluation stopped without a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Halt {
    /// It failed: an unknown function, an unbound variable, …
    Error(String),
    /// Its [`Steps`] budget ran out. Nothing it computed survives.
    OverBudget,
}

/// Bytes of string one step pays for: a walk, a scan or a copy of this
/// many bytes costs about what one node visit does.
pub const BYTES_PER_STEP: u64 = 32;

/// The step counter of one evaluation, with an optional budget.
///
/// A step is one unit of work: a node an axis step visits, a predicate
/// evaluation, a pair of values a general comparison compares, a node
/// walked by `string_value`, an item of a variable each time it is read
/// (XQuery adds its bindings and the nodes serialisation and element
/// construction walk), and every [`BYTES_PER_STEP`] bytes of string a
/// walk, a string function, a comparison, a literal or a variable read
/// copies or scans (XQuery adds sort keys and the output it serialises),
/// so a long text costs what reading it costs. The count is exact: the
/// same query over the same tree spends the same steps, budgeted or not.
/// A walk or a string is charged before it is read (a variable's when
/// it is read, serialised output after it is written),
/// everything else as it happens, so an evaluation stops within one
/// unit of its budget.
#[derive(Debug)]
pub struct Steps {
    spent: Cell<u64>,
    budget: u64,
}

impl Steps {
    /// A counter that stops its evaluation once more than `budget`
    /// steps are spent.
    pub fn within(budget: u64) -> Steps {
        Steps {
            spent: Cell::new(0),
            budget,
        }
    }

    /// A counter with no budget.
    pub fn unbounded() -> Steps {
        Steps::within(u64::MAX)
    }

    /// Steps spent so far, the charge that passed the budget included.
    pub fn spent(&self) -> u64 {
        self.spent.get()
    }

    /// Charges `n` steps; [`Halt::OverBudget`] once more than the
    /// budget is spent.
    pub fn charge(&self, n: u64) -> Result<(), Halt> {
        let spent = self.spent.get().saturating_add(n);
        self.spent.set(spent);
        if spent > self.budget {
            Err(Halt::OverBudget)
        } else {
            Ok(())
        }
    }

    /// Charges a scan or copy of `bytes` bytes of string.
    pub fn charge_bytes(&self, bytes: usize) -> Result<(), Halt> {
        self.charge(bytes as u64 / BYTES_PER_STEP)
    }

    /// Charges a walk of `n`'s subtree (its string value or its
    /// serialisation): one step per node, one for an attribute, and the
    /// bytes of the text and attribute values it reads. The nodes are
    /// charged before their bytes are summed.
    pub fn charge_walk(&self, doc: &Document, n: XNode) -> Result<(), Halt> {
        match n {
            XNode::Tree(id) => {
                let len = doc.subtree_len(id);
                self.charge(len as u64)?;
                let bytes = (id.0..id.0 + len as u32)
                    .map(|i| match doc.kind(NodeId(i)) {
                        NodeKind::Text(t) => t.len(),
                        NodeKind::Element { attrs, .. } => {
                            attrs.iter().map(|a| a.value.len()).sum()
                        }
                        NodeKind::Document => 0,
                    })
                    .sum();
                self.charge_bytes(bytes)
            }
            XNode::Attr(id, i) => {
                self.charge(1)?;
                self.charge_bytes(doc.attributes(id)[i as usize].value.len())
            }
        }
    }
}

/// Evaluates an absolute location path from the document node and returns
/// the resulting node-set in document order.
pub fn evaluate(doc: &Document, path: &LocationPath) -> Result<Vec<XNode>, EvalError> {
    let steps = Steps::unbounded();
    let ev = Evaluator {
        doc,
        vars: &unbound,
        steps: &steps,
    };
    ev.eval_path(&[XNode::Tree(NodeId::DOCUMENT)], path)
        .map_err(unbudgeted)
}

/// Evaluates an arbitrary expression with `ctx` as the context node,
/// charging `steps` for its work. `vars` resolves `$name` each time the
/// expression reads it ([`unbound`] when nothing is bound).
pub fn evaluate_expr_within(
    doc: &Document,
    expr: &Expr,
    ctx: XNode,
    vars: &dyn Fn(&str) -> Result<Value, Halt>,
    steps: &Steps,
) -> Result<Value, Halt> {
    let ev = Evaluator { doc, vars, steps };
    ev.eval_expr(
        expr,
        &Ctx {
            node: ctx,
            position: 1,
            size: 1,
        },
    )
}

/// The variable reader of a scope that binds nothing.
pub fn unbound(name: &str) -> Result<Value, Halt> {
    Err(Halt::Error(format!("unbound variable ${name}")))
}

fn unbudgeted(halt: Halt) -> EvalError {
    match halt {
        Halt::Error(m) => EvalError(m),
        Halt::OverBudget => unreachable!("an unbudgeted evaluation cannot overrun"),
    }
}

struct Ctx {
    node: XNode,
    position: usize,
    size: usize,
}

struct Evaluator<'d> {
    doc: &'d Document,
    vars: &'d dyn Fn(&str) -> Result<Value, Halt>,
    steps: &'d Steps,
}

impl<'d> Evaluator<'d> {
    fn eval_path(&self, start: &[XNode], path: &LocationPath) -> Result<Vec<XNode>, Halt> {
        let mut current: Vec<XNode> = if path.absolute {
            vec![XNode::Tree(NodeId::DOCUMENT)]
        } else {
            start.to_vec()
        };
        for step in &path.steps {
            current = self.eval_step(&current, step)?;
        }
        Ok(current)
    }

    /// Applies one step to a node-set; the result is sorted in document
    /// order and duplicate-free.
    fn eval_step(&self, context: &[XNode], step: &Step) -> Result<Vec<XNode>, Halt> {
        let mut out: Vec<XNode> = Vec::new();
        for &ctx in context {
            // Candidates in axis order (position() counts this way).
            let mut cands = Vec::new();
            self.axis_nodes(ctx, step.axis, &mut cands)?;
            cands.retain(|&n| self.test_matches(n, &step.test));
            for pred in &step.predicates {
                cands = self.filter_predicate(cands, pred)?;
            }
            out.extend(cands);
        }
        out.sort_by_key(|n| n.order_key());
        out.dedup();
        Ok(out)
    }

    fn filter_predicate(&self, cands: Vec<XNode>, pred: &Expr) -> Result<Vec<XNode>, Halt> {
        let size = cands.len();
        let mut kept = Vec::with_capacity(size);
        for (i, n) in cands.into_iter().enumerate() {
            self.steps.charge(1)?;
            let ctx = Ctx {
                node: n,
                position: i + 1,
                size,
            };
            let v = self.eval_expr(pred, &ctx)?;
            let keep = match v {
                // Numeric predicate: position shorthand.
                Value::Num(p) => (ctx.position as f64) == p,
                other => other.to_bool(),
            };
            if keep {
                kept.push(n);
            }
        }
        Ok(kept)
    }

    /// Appends the nodes on `axis` from `ctx` to `out`, in axis order,
    /// one step each.
    fn axis_nodes(&self, ctx: XNode, axis: Axis, out: &mut Vec<XNode>) -> Result<(), Halt> {
        let doc = self.doc;
        let mut visit = |n: XNode| -> Result<(), Halt> {
            self.steps.charge(1)?;
            out.push(n);
            Ok(())
        };
        match (ctx, axis) {
            (XNode::Attr(owner, _), Axis::Parent | Axis::Ancestor | Axis::AncestorOrSelf) => {
                if axis == Axis::AncestorOrSelf {
                    visit(ctx)?;
                }
                visit(XNode::Tree(owner))?;
                if axis != Axis::Parent {
                    doc.ancestors(owner)
                        .map(XNode::Tree)
                        .try_for_each(&mut visit)?;
                }
            }
            (XNode::Attr(_, _), Axis::SelfAxis) => visit(ctx)?,
            (XNode::Attr(_, _), _) => {}
            (XNode::Tree(n), axis) => match axis {
                Axis::SelfAxis => visit(ctx)?,
                Axis::Child => doc.children(n).map(XNode::Tree).try_for_each(&mut visit)?,
                Axis::Descendant => doc
                    .descendants(n)
                    .map(XNode::Tree)
                    .try_for_each(&mut visit)?,
                Axis::DescendantOrSelf => {
                    visit(ctx)?;
                    doc.descendants(n)
                        .map(XNode::Tree)
                        .try_for_each(&mut visit)?;
                }
                Axis::Parent => {
                    if let Some(p) = doc.parent(n) {
                        visit(XNode::Tree(p))?;
                    }
                }
                Axis::Ancestor => doc.ancestors(n).map(XNode::Tree).try_for_each(&mut visit)?,
                Axis::AncestorOrSelf => {
                    visit(ctx)?;
                    doc.ancestors(n).map(XNode::Tree).try_for_each(&mut visit)?;
                }
                Axis::FollowingSibling => {
                    let mut cur = doc.next_sibling(n);
                    while let Some(s) = cur {
                        visit(XNode::Tree(s))?;
                        cur = doc.next_sibling(s);
                    }
                }
                Axis::PrecedingSibling => {
                    let mut cur = doc.prev_sibling(n);
                    while let Some(s) = cur {
                        visit(XNode::Tree(s))?; // reverse document order
                        cur = doc.prev_sibling(s);
                    }
                }
                Axis::Following => {
                    // Everything after the subtree of n, in document order.
                    let after = (n.index() + doc.subtree_len(n)) as u32;
                    (after..doc.len() as u32)
                        .map(|i| XNode::Tree(NodeId(i)))
                        .try_for_each(&mut visit)?;
                }
                Axis::Preceding => {
                    // Everything before n excluding ancestors, reverse
                    // order; a skipped ancestor is visited all the same.
                    let mut anc: Vec<NodeId> = doc.ancestors(n).collect();
                    anc.push(n);
                    for i in (1..n.0).rev().map(NodeId) {
                        if anc.contains(&i) {
                            self.steps.charge(1)?;
                        } else {
                            visit(XNode::Tree(i))?;
                        }
                    }
                }
                Axis::Attribute => (0..doc.attributes(n).len() as u32)
                    .map(|i| XNode::Attr(n, i))
                    .try_for_each(&mut visit)?,
            },
        }
        Ok(())
    }

    fn test_matches(&self, n: XNode, test: &NodeTest) -> bool {
        let doc = self.doc;
        match n {
            XNode::Attr(owner, i) => match test {
                NodeTest::Node => true,
                NodeTest::Tag(t) => {
                    let name = doc.attributes(owner)[i as usize].name;
                    doc.tags.resolve(name) == t.as_str()
                }
                NodeTest::Text | NodeTest::Element => false,
            },
            XNode::Tree(id) => match test {
                // Elements and text, the document node too (only reachable
                // via ancestors).
                NodeTest::Node => true,
                NodeTest::Text => doc.is_text(id),
                NodeTest::Element => doc.is_element(id),
                NodeTest::Tag(t) => doc.tag_name(id) == Some(t.as_str()),
            },
        }
    }

    /// The string-value of a node, its walk charged.
    fn string_value(&self, n: XNode) -> Result<String, Halt> {
        self.steps.charge_walk(self.doc, n)?;
        Ok(string_value(self.doc, n))
    }

    /// `string()` of `e`'s value.
    fn str(&self, e: &Expr, ctx: &Ctx) -> Result<String, Halt> {
        self.eval_expr(e, ctx)?.to_str(self.doc, self.steps)
    }

    /// `number()` of `e`'s value.
    fn num(&self, e: &Expr, ctx: &Ctx) -> Result<f64, Halt> {
        self.eval_expr(e, ctx)?.to_num(self.doc, self.steps)
    }

    /// The document nodes `e` selects: a path navigates, and a function
    /// names or sums, only those.
    fn nodes(&self, e: &Expr, ctx: &Ctx) -> Result<Vec<XNode>, Halt> {
        match self.eval_expr(e, ctx)? {
            Value::Nodes(ns) => Ok(ns),
            Value::Items(items) if items.iter().any(|it| matches!(it, Item::Built(_))) => {
                let what = match e {
                    Expr::Var(name) => format!("variable ${name}"),
                    other => other.to_string(),
                };
                Err(Halt::Error(format!(
                    "{what} holds constructed content and cannot be navigated"
                )))
            }
            other => Err(Halt::Error(format!("expected a node-set, got {other:?}"))),
        }
    }

    fn eval_expr(&self, expr: &Expr, ctx: &Ctx) -> Result<Value, Halt> {
        match expr {
            Expr::Path(p) => Ok(Value::Nodes(self.eval_path(&[ctx.node], p)?)),
            Expr::RootedPath(base, p) => {
                let start = self.nodes(base, ctx)?;
                Ok(Value::Nodes(self.eval_path(&start, p)?))
            }
            Expr::Literal(s) => {
                self.steps.charge_bytes(s.len())?;
                Ok(Value::Str(s.clone()))
            }
            Expr::Number(n) => Ok(Value::Num(*n)),
            Expr::Or(a, b) => Ok(Value::Bool(
                self.eval_expr(a, ctx)?.to_bool() || self.eval_expr(b, ctx)?.to_bool(),
            )),
            Expr::And(a, b) => Ok(Value::Bool(
                self.eval_expr(a, ctx)?.to_bool() && self.eval_expr(b, ctx)?.to_bool(),
            )),
            Expr::Compare(op, a, b) => {
                let va = self.eval_expr(a, ctx)?;
                let vb = self.eval_expr(b, ctx)?;
                Ok(Value::Bool(self.compare(*op, &va, &vb)?))
            }
            Expr::Arith(op, a, b) => {
                let x = self.num(a, ctx)?;
                let y = self.num(b, ctx)?;
                Ok(Value::Num(match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => x / y,
                    ArithOp::Mod => x % y,
                }))
            }
            Expr::Neg(e) => Ok(Value::Num(-self.num(e, ctx)?)),
            Expr::Union(a, b) => {
                let mut na = self.nodes(a, ctx)?;
                na.extend(self.nodes(b, ctx)?);
                na.sort_by_key(|n| n.order_key());
                na.dedup();
                Ok(Value::Nodes(na))
            }
            Expr::Var(name) => {
                let v = (self.vars)(name)?;
                let bytes = match &v {
                    Value::Str(s) => s.len(),
                    Value::Items(items) => items
                        .iter()
                        .map(|it| if let Item::Str(s) = it { s.len() } else { 0 })
                        .sum(),
                    _ => 0,
                };
                self.steps.charge(v.len() as u64)?;
                self.steps.charge_bytes(bytes)?;
                Ok(v)
            }
            Expr::Call(f, args) => self.eval_call(*f, args, ctx),
        }
    }

    /// XPath 1.0 comparison, one step per pair of items compared. A
    /// sequence against a boolean compares its effective boolean value
    /// (§3.4); otherwise the comparison is existential, item by item,
    /// each item of the sequence side read once.
    fn compare(&self, op: CmpOp, a: &Value, b: &Value) -> Result<bool, Halt> {
        let seq = |v: &Value| matches!(v, Value::Nodes(_) | Value::Items(_));
        if matches!((a, b), (Value::Bool(_), s) | (s, Value::Bool(_)) if seq(s)) {
            self.steps.charge(1)?;
            let (x, y) = (Value::Bool(a.to_bool()), Value::Bool(b.to_bool()));
            return Ok(cmp_atoms(op, &x, &y));
        }
        let flip = seq(b) && !seq(a);
        let (xs, ys) = if flip { (b, a) } else { (a, b) };
        for i in 0..xs.len() {
            let x = xs.atom(i, self.doc, self.steps)?;
            for j in 0..ys.len() {
                self.steps.charge(1)?;
                let y = ys.atom(j, self.doc, self.steps)?;
                let (l, r) = if flip { (&y, &x) } else { (&x, &y) };
                if cmp_atoms(op, l, r) {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    fn eval_call(&self, f: Func, args: &[Expr], ctx: &Ctx) -> Result<Value, Halt> {
        let arg = |i: usize| self.eval_expr(&args[i], ctx);
        let str_arg = |i: usize| self.str(&args[i], ctx);
        let num_arg = |i: usize| self.num(&args[i], ctx);
        // The one optional argument, the context node when left out.
        let opt_or_ctx = || match args.first() {
            Some(e) => self.eval_expr(e, ctx),
            None => Ok(Value::Nodes(vec![ctx.node])),
        };
        let opt_str = || opt_or_ctx()?.to_str(self.doc, self.steps);
        Ok(match f {
            Func::Position => Value::Num(ctx.position as f64),
            Func::Last => Value::Num(ctx.size as f64),
            Func::Count => Value::Num(arg(0)?.len() as f64),
            Func::Not => Value::Bool(!arg(0)?.to_bool()),
            Func::True => Value::Bool(true),
            Func::False => Value::Bool(false),
            Func::Boolean => Value::Bool(arg(0)?.to_bool()),
            Func::String => Value::Str(opt_str()?),
            Func::Number => Value::Num(opt_or_ctx()?.to_num(self.doc, self.steps)?),
            Func::Contains => Value::Bool(str_arg(0)?.contains(&str_arg(1)?)),
            Func::StartsWith => Value::Bool(str_arg(0)?.starts_with(&str_arg(1)?)),
            Func::StringLength => Value::Num(opt_str()?.chars().count() as f64),
            Func::NormalizeSpace => {
                Value::Str(opt_str()?.split_whitespace().collect::<Vec<_>>().join(" "))
            }
            Func::Concat => {
                let mut s = String::new();
                for i in 0..args.len() {
                    s.push_str(&str_arg(i)?);
                }
                Value::Str(s)
            }
            Func::Substring => {
                // The characters at positions p with round(start) <= p <
                // round(start) + round(len) (XPath 1.0 §4.2): NaN keeps none.
                let s = str_arg(0)?;
                let from = round(num_arg(1)?);
                let to = match args.get(2) {
                    Some(_) => from + round(num_arg(2)?),
                    None => f64::INFINITY,
                };
                let kept = s.chars().enumerate().filter(|&(i, _)| {
                    let p = (i + 1) as f64;
                    from <= p && p < to
                });
                Value::Str(kept.map(|(_, c)| c).collect())
            }
            Func::SubstringBefore => {
                let s = str_arg(0)?;
                let pat = str_arg(1)?;
                Value::Str(s.find(&pat).map(|i| s[..i].to_string()).unwrap_or_default())
            }
            Func::SubstringAfter => {
                let s = str_arg(0)?;
                let pat = str_arg(1)?;
                Value::Str(
                    s.find(&pat)
                        .map(|i| s[i + pat.len()..].to_string())
                        .unwrap_or_default(),
                )
            }
            Func::Translate => {
                let s = str_arg(0)?;
                let from: Vec<char> = str_arg(1)?.chars().collect();
                let to: Vec<char> = str_arg(2)?.chars().collect();
                // Each character is looked up in `from`.
                self.steps
                    .charge_bytes(s.len().saturating_mul(from.len()))?;
                let mut out = String::with_capacity(s.len());
                for c in s.chars() {
                    match from.iter().position(|&f| f == c) {
                        Some(i) => {
                            if let Some(&r) = to.get(i) {
                                out.push(r);
                            } // else: removed
                        }
                        None => out.push(c),
                    }
                }
                Value::Str(out)
            }
            Func::Sum => {
                let mut total = 0.0;
                for n in self.nodes(&args[0], ctx)? {
                    total += str_to_num(&self.string_value(n)?);
                }
                Value::Num(total)
            }
            Func::Floor => Value::Num(num_arg(0)?.floor()),
            Func::Ceiling => Value::Num(num_arg(0)?.ceil()),
            Func::Round => Value::Num(round(num_arg(0)?)),
            Func::Name => {
                let ns = match args.first() {
                    Some(e) => self.nodes(e, ctx)?,
                    None => vec![ctx.node],
                };
                Value::Str(match ns.first() {
                    Some(XNode::Tree(id)) => self.doc.tag_name(*id).unwrap_or("").to_string(),
                    Some(XNode::Attr(id, i)) => self
                        .doc
                        .tags
                        .resolve(self.doc.attributes(*id)[*i as usize].name)
                        .to_string(),
                    None => String::new(),
                })
            }
            Func::Empty => Value::Bool(arg(0)?.is_empty()),
            Func::Exists => Value::Bool(!arg(0)?.is_empty()),
            Func::ZeroOrOne => arg(0)?,
        })
    }
}

/// Compares two atoms (XPath 1.0 §3.4): `=` and `!=` as booleans when
/// either is one, as numbers when either is one, else as strings; the
/// order operators as numbers.
fn cmp_atoms(op: CmpOp, a: &Value, b: &Value) -> bool {
    let eq = matches!(op, CmpOp::Eq | CmpOp::Ne);
    match (a, b) {
        (Value::Bool(_), _) | (_, Value::Bool(_)) if eq => {
            (a.to_bool() == b.to_bool()) == (op == CmpOp::Eq)
        }
        (Value::Str(x), Value::Str(y)) if eq => (x == y) == (op == CmpOp::Eq),
        _ => cmp_num(op, atom_num(a), atom_num(b)),
    }
}

/// XPath 1.0 `round` (§4.4): a half rounds toward +∞, and [−0.5, 0)
/// rounds to −0.
fn round(x: f64) -> f64 {
    let r = x.floor() + if x - x.floor() >= 0.5 { 1.0 } else { 0.0 };
    if r == 0.0 && x.is_sign_negative() {
        -0.0
    } else {
        r
    }
}

fn cmp_num(op: CmpOp, x: f64, y: f64) -> bool {
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_xpath;
    use xproj_xmltree::parse;

    const AUCTION: &str = "\
<site><people>\
<person id=\"p0\"><name>Alice</name><phone>1</phone></person>\
<person id=\"p1\"><name>Bob</name><homepage>h</homepage></person>\
<person id=\"p2\"><name>Carol</name></person>\
</people>\
<open_auctions>\
<open_auction id=\"a0\"><bidder><increase>10</increase></bidder>\
<bidder><increase>20</increase></bidder><current>30</current></open_auction>\
<open_auction id=\"a1\"><current>5</current></open_auction>\
</open_auctions></site>";

    fn run(doc: &Document, q: &str) -> Vec<XNode> {
        let e = parse_xpath(q).unwrap();
        match e {
            Expr::Path(p) => evaluate(doc, &p).unwrap(),
            other => panic!("expected path query, got {other:?}"),
        }
    }

    fn names(doc: &Document, ns: &[XNode]) -> Vec<String> {
        ns.iter()
            .map(|n| match n {
                XNode::Tree(id) => doc
                    .tag_name(*id)
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("text:{}", doc.text(*id).unwrap_or(""))),
                XNode::Attr(id, i) => format!(
                    "@{}",
                    doc.tags.resolve(doc.attributes(*id)[*i as usize].name)
                ),
            })
            .collect()
    }

    #[test]
    fn simple_child_path() {
        let doc = parse(AUCTION).unwrap();
        let r = run(&doc, "/site/people/person");
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn descendant_or_self() {
        let doc = parse(AUCTION).unwrap();
        let r = run(&doc, "//name");
        assert_eq!(r.len(), 3);
        let r2 = run(&doc, "//bidder/increase");
        assert_eq!(r2.len(), 2);
    }

    #[test]
    fn predicates_filter() {
        let doc = parse(AUCTION).unwrap();
        let r = run(&doc, "/site/people/person[phone]/name");
        assert_eq!(names(&doc, &r), vec!["name"]);
        let r2 = run(&doc, "/site/people/person[phone or homepage]");
        assert_eq!(r2.len(), 2);
    }

    #[test]
    fn positional_predicates() {
        let doc = parse(AUCTION).unwrap();
        let r = run(&doc, "/site/people/person[2]/name/text()");
        assert_eq!(
            r.iter().map(|&n| string_value(&doc, n)).collect::<Vec<_>>(),
            vec!["Bob"]
        );
        let r2 = run(&doc, "/site/people/person[position() = last()]");
        assert_eq!(r2.len(), 1);
    }

    #[test]
    fn attribute_axis() {
        let doc = parse(AUCTION).unwrap();
        let r = run(&doc, "//person/@id");
        assert_eq!(r.len(), 3);
        assert!(matches!(r[0], XNode::Attr(_, _)));
        let r2 = run(&doc, "//person[@id = \"p1\"]/name");
        assert_eq!(r2.len(), 1);
    }

    #[test]
    fn parent_and_ancestor() {
        let doc = parse(AUCTION).unwrap();
        let r = run(&doc, "//increase/parent::bidder");
        assert_eq!(r.len(), 2);
        let r2 = run(&doc, "//increase/ancestor::open_auction");
        assert_eq!(r2.len(), 1);
        let r3 = run(&doc, "//name/..");
        assert_eq!(r3.len(), 3);
    }

    #[test]
    fn sibling_axes() {
        let doc = parse(AUCTION).unwrap();
        let r = run(&doc, "//bidder[following-sibling::bidder]");
        assert_eq!(r.len(), 1); // only the first bidder has a following one
        let r2 = run(&doc, "//bidder[preceding-sibling::bidder]");
        assert_eq!(r2.len(), 1);
        let r3 = run(&doc, "//current/preceding-sibling::bidder");
        assert_eq!(r3.len(), 2);
    }

    #[test]
    fn following_preceding() {
        let doc = parse(AUCTION).unwrap();
        // 'people' precedes the auctions: every open_auction follows it
        let r = run(&doc, "/site/people/following::open_auction");
        assert_eq!(r.len(), 2);
        let r2 = run(&doc, "//open_auctions/preceding::person");
        assert_eq!(r2.len(), 3);
        // preceding excludes ancestors
        let r3 = run(&doc, "//increase/preceding::site");
        assert!(r3.is_empty());
    }

    #[test]
    fn wildcard_and_tests() {
        let doc = parse(AUCTION).unwrap();
        let r = run(&doc, "/site/*");
        assert_eq!(names(&doc, &r), vec!["people", "open_auctions"]);
        let r2 = run(&doc, "//person/node()");
        assert_eq!(r2.len(), 5);
    }

    #[test]
    fn results_in_document_order_no_dups() {
        let doc = parse(AUCTION).unwrap();
        let r = run(&doc, "//bidder/ancestor::*/descendant::increase");
        // both bidders' ancestors reach the same increases; dedup applies
        assert_eq!(r.len(), 2);
        let keys: Vec<_> = r.iter().map(|n| n.order_key()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn comparisons() {
        let doc = parse(AUCTION).unwrap();
        let r = run(&doc, "//open_auction[current > 10]");
        assert_eq!(r.len(), 1);
        let r2 = run(&doc, "//open_auction[current = 5]");
        assert_eq!(r2.len(), 1);
        let r3 = run(&doc, "//person[name = \"Alice\"]");
        assert_eq!(r3.len(), 1);
        let r4 = run(&doc, "//open_auction[10 < current]");
        assert_eq!(r4.len(), 1);
    }

    #[test]
    fn functions() {
        let doc = parse(AUCTION).unwrap();
        let r = run(&doc, "//open_auction[count(bidder) >= 2]");
        assert_eq!(r.len(), 1);
        let r2 = run(&doc, "//person[not(phone)]");
        assert_eq!(r2.len(), 2);
        let r3 = run(&doc, "//person[contains(name, \"li\")]");
        assert_eq!(r3.len(), 1); // Alice
        let r4 = run(&doc, "//person[starts-with(name, \"B\")]");
        assert_eq!(r4.len(), 1);
    }

    #[test]
    fn expr_values() {
        let doc = parse(AUCTION).unwrap();
        let v = evaluate_expr_within(
            &doc,
            &parse_xpath("count(//person) * 2 + 1").unwrap(),
            XNode::Tree(NodeId::DOCUMENT),
            &unbound,
            &Steps::unbounded(),
        )
        .unwrap();
        assert_eq!(v, Value::Num(7.0));
        let v2 = evaluate_expr_within(
            &doc,
            &parse_xpath("sum(//increase)").unwrap(),
            XNode::Tree(NodeId::DOCUMENT),
            &unbound,
            &Steps::unbounded(),
        )
        .unwrap();
        assert_eq!(v2, Value::Num(30.0));
        let v3 = evaluate_expr_within(
            &doc,
            &parse_xpath("string(//name)").unwrap(),
            XNode::Tree(NodeId::DOCUMENT),
            &unbound,
            &Steps::unbounded(),
        )
        .unwrap();
        assert_eq!(v3, Value::Str("Alice".to_string()));
    }

    #[test]
    fn string_functions() {
        let doc = parse("<a>hello</a>").unwrap();
        let ctx = XNode::Tree(NodeId::DOCUMENT);
        let steps = Steps::unbounded();
        let ev = |q: &str| {
            evaluate_expr_within(&doc, &parse_xpath(q).unwrap(), ctx, &unbound, &steps).unwrap()
        };
        assert_eq!(ev("string-length(/a)"), Value::Num(5.0));
        assert_eq!(ev("concat(/a, \"!\")"), Value::Str("hello!".into()));
        assert_eq!(ev("substring(/a, 2, 3)"), Value::Str("ell".into()));
        assert_eq!(
            ev("normalize-space(\"  x   y \")"),
            Value::Str("x y".into())
        );
        assert_eq!(ev("name(/a)"), Value::Str("a".into()));
    }

    #[test]
    fn variables() {
        let doc = parse(AUCTION).unwrap();
        let people = run(&doc, "//person");
        let vars = |name: &str| match name {
            "p" => Ok(Value::Nodes(people.clone())),
            other => unbound(other),
        };
        let v = evaluate_expr_within(
            &doc,
            &parse_xpath("count($p/name)").unwrap(),
            XNode::Tree(NodeId::DOCUMENT),
            &vars,
            &Steps::unbounded(),
        )
        .unwrap();
        assert_eq!(v, Value::Num(3.0));
    }

    #[test]
    fn unbound_variable_errors() {
        let doc = parse("<a/>").unwrap();
        let r = evaluate_expr_within(
            &doc,
            &parse_xpath("$nope").unwrap(),
            XNode::Tree(NodeId::DOCUMENT),
            &unbound,
            &Steps::unbounded(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn union() {
        let doc = parse(AUCTION).unwrap();
        let r = run(&doc, "//person[phone | homepage]");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn empty_and_exists() {
        let doc = parse(AUCTION).unwrap();
        let r = run(&doc, "//person[empty(phone)]");
        assert_eq!(r.len(), 2);
        let r2 = run(&doc, "//person[exists(phone)]");
        assert_eq!(r2.len(), 1);
    }

    #[test]
    fn text_node_string_values() {
        let doc = parse(AUCTION).unwrap();
        let r = run(&doc, "//name/text()");
        let vals: Vec<String> = r.iter().map(|&n| string_value(&doc, n)).collect();
        assert_eq!(vals, vec!["Alice", "Bob", "Carol"]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(num_to_str(3.0), "3");
        assert_eq!(num_to_str(3.5), "3.5");
        assert_eq!(num_to_str(f64::NAN), "NaN");
        assert_eq!(num_to_str(-0.0), "0");
    }
}
