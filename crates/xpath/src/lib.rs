//! XPath support for the type-based projection system.
//!
//! Three layers (paper §3):
//!
//! * [`ast`] + [`parser`] — a full XPath 1.0-style abstract syntax
//!   (all axes, node tests, general predicates with boolean, relational
//!   and arithmetic operators and function calls) and a recursive-descent
//!   parser for it;
//! * [`eval`] — a complete in-memory evaluator over `xproj-xmltree`
//!   documents. This plays the role the Galax engine plays in the paper's
//!   experiments: the thing whose time/memory we measure on original vs.
//!   pruned documents, and the oracle for soundness tests;
//! * [`xpathl`] + [`approx`] — the XPathℓ sublanguage (upward/downward
//!   axes, unnested disjunctive structural predicates) on which the static
//!   analysis operates, and the sound approximation of full XPath into it:
//!   the predicate path-extraction function **P** of §3.3 and the
//!   sibling/`following`/`preceding` rewriting of §4.3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod ast;
pub mod eval;
pub mod parser;
pub mod spec;
pub mod xpathl;

pub use ast::{Axis, Expr, LocationPath, NodeTest, Step};
pub use eval::{evaluate, Value, XNode};
pub use parser::{parse_xpath, QueryParseError};
pub use spec::{check_strongly_specified, SpecViolation};
pub use xpathl::{LAxis, LPath, LStep, LTest, SimplePath, SimpleStep};
