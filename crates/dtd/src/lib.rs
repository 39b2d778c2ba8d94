//! DTDs as *local tree grammars* (paper §2.2).
//!
//! A DTD is a pair `(X, E)` where `X` is a distinguished root name and `E`
//! a set of productions `Xᵢ → aᵢ[rᵢ]` or `Xᵢ → String`, with element tags
//! in bijection with names (the *local* condition). This crate provides:
//!
//! * [`regex`] — regular expressions over names and their Glushkov NFA,
//!   used to validate element content models;
//! * [`nameset`] — dense name identifiers and bitset name-sets (the τ, κ,
//!   π of the paper are all [`nameset::NameSet`]s);
//! * [`grammar`] — the [`grammar::Dtd`] type with reachability `⇒E`,
//!   its closures, and the chain machinery of Def. 2.5/2.6;
//! * [`parser`] — a parser for DTD syntax (`<!ELEMENT …>`, `<!ATTLIST …>`);
//! * [`validate`](mod@validate) — validation of a document against a DTD, producing the
//!   interpretation ℑ : Ids(t) → DN(E) of Def. 2.4;
//! * [`props`] — the three structural properties of Def. 4.3
//!   (\*-guardedness, non-recursivity, parent-unambiguity) that govern
//!   when the static analysis is complete.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chains;
pub mod dataguide;
pub mod generate;
pub mod grammar;
pub mod nameset;
pub mod parser;
pub mod props;
pub mod regex;
pub mod validate;

pub use dataguide::{infer_dtd, DataGuide};
pub use grammar::{Content, Dtd, NameInfo};
pub use nameset::{NameId, NameSet};
pub use parser::{parse_dtd, DtdError};
pub use props::{
    diagnostics, properties, DtdDiagnostics, DtdProperties, ParentAmbiguityWitness,
    RecursionWitness, StarGuardWitness,
};
pub use regex::{LivePositions, Regex};
pub use validate::{interpret, validate, Interpretation, ValidationError};
