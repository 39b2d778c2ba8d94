//! **xproj-qc** — the query compiler.
//!
//! The journal version of the paper frames projection as a
//! *compile-time* product of (query, type): everything needed to
//! execute — the projector π, the dense pruning tables, and the
//! evaluator itself — is derivable before a single document byte
//! arrives. This crate is that compiler:
//!
//! * [`program`] — lowers the path-shaped XPath/XQuery fragment into a
//!   flat register-style instruction sequence ([`PathProgram`]) the
//!   streaming `QueryMachine` (in `xproj-engine`) executes as an NFA
//!   over the raw token stream; out-of-fragment queries lower to
//!   [`Plan::Fallback`].
//! * [`artifact`] — [`QueryArtifact`]: one immutable, `Arc`-shareable
//!   bundle of projector + dense [`xproj_core::ProjectorTable`] +
//!   compiled plan + normalized query, made by one constructor
//!   ([`QueryArtifact::compile`]) and never persisted.
//! * [`cache`] — [`ArtifactCache`]: the LRU keyed by `(DTD
//!   fingerprint, normalized query)` with hit/miss/eviction/compile
//!   counters and a resident-bytes gauge.
//!
//! ```
//! use std::sync::Arc;
//! use xproj_qc::{ArtifactCache, Plan};
//!
//! let dtd = Arc::new(xproj_dtd::parse_dtd(
//!     "<!ELEMENT bib (book*)> <!ELEMENT book (title)> <!ELEMENT title (#PCDATA)>",
//!     "bib",
//! ).unwrap());
//! let cache = ArtifactCache::new(32);
//! let art = cache.get_or_compile(&dtd, "/bib/book/title").unwrap();
//! assert!(matches!(art.plan, Plan::Streaming(_)));
//! // A respelled query is a cache hit, not a second compile:
//! let again = cache.get_or_compile(&dtd, "/child::bib/child::book/child::title").unwrap();
//! assert!(Arc::ptr_eq(&art, &again));
//! assert_eq!(cache.stats().compiles, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod cache;
pub mod program;

pub use artifact::{normalize_query, QueryArtifact, LOOP_COMPILE_STEPS, LOOP_EVAL_STEPS};
pub use cache::{ArtifactCache, ArtifactCacheStats, Lookup, PendingCompile};
pub use program::{PathProgram, Plan, StepAxis, StepInstr, StepTest, MAX_STEPS, UNDECLARED};
