//! XQuery FLWR core (paper §5).
//!
//! The grammar covered is the paper's:
//!
//! ```text
//! q ::= () | q, q | <tag>q</tag> | Exp
//!     | if Exp then q else q
//!     | for $x in q return q | let $x := q return q
//! ```
//!
//! plus the `where` clause (desugared to `if`) and multi-binding
//! `for`/`let` heads, which is what the XMark workload needs.
//!
//! * [`ast`] / [`parser`] — syntax;
//! * [`eval`] — an evaluator producing a serialised result sequence
//!   (the measurement substrate standing in for Galax, and the oracle for
//!   end-to-end soundness: a query must serialise identically on the
//!   original and the pruned document);
//! * [`extract`] — the path-extraction function **E**(q, Γ, m) of
//!   Figure 3 together with the `descendant-or-self` ⇒ predicate
//!   rewriting heuristic, producing the XPathℓ paths whose inferred
//!   projectors are unioned into the query's projector.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod eval;
pub mod extract;
pub mod parser;

pub use ast::XQuery;
pub use eval::{evaluate_query, evaluate_query_within, XQueryError};
pub use extract::{extract_paths, project_xquery, project_xquery_str};
pub use parser::parse_xquery;
pub use xproj_xpath::eval::{Halt, Steps};
