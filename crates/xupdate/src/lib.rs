//! **xproj-xupdate** — a minimal XQuery-Update-style update language.
//!
//! The independence analysis (Bidoit/Colazzo/Ulliana, *Type-Based
//! Detection of XML Query-Update Independence*) needs an update
//! language to analyse. This crate provides the smallest useful one:
//!
//! ```text
//! Update ::= insert Fragment (into | before | after) Path
//!          | delete Path
//!          | replace Path with Fragment
//! ```
//!
//! where `Path` is any XPath location path the workspace parser accepts
//! and `Fragment` is a forest of attribute-free elements and text (the
//! fragment sub-language deliberately stays minimal — it exists to make
//! updated-name inference and the differential fuzzer precise, not to
//! be a full XQuery Update implementation).
//!
//! Three layers:
//!
//! * [`ast`] — the update AST; `Display` renders the *normal form*
//!   (full axis syntax, canonical fragment spelling), so two spellings
//!   of the same update compare equal after `parse → to_string`;
//! * [`parser`] — the concrete-syntax parser;
//! * [`apply`] — the reference tree-update executor: evaluates the
//!   target path and rebuilds a fresh [`xproj_xmltree::Document`]
//!   (the arena is append-only, so updates are rebuilds by design);
//! * [`gen`] — seeded random-update generators for the differential
//!   fuzzer (`TESTKIT_SEED`-replayable like every testkit generator).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apply;
pub mod ast;
pub mod gen;
pub mod parser;

pub use apply::{apply_update, ApplyError};
pub use ast::{Fragment, FragmentNode, InsertPos, Update};
pub use gen::random_update;
pub use parser::{parse_update, UpdateParseError};
