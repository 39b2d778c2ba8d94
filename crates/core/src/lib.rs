//! Type-based XML projection — the primary contribution of
//! *"Type-Based XML Projection"* (Benzaken, Castagna, Colazzo, Nguyên,
//! VLDB 2006).
//!
//! Given a DTD `(X, E)` and an XPath/XQuery workload, the [`analysis`] /
//! [`typeinf`] / [`infer`] modules statically compute a **type projector**
//! π ⊆ DN(E) (Def. 2.6): a chain-closed set of DTD names such that pruning
//! every node whose name is outside π (Def. 2.7) provably preserves the
//! result of every query in the workload (Thm. 4.5). On well-behaved DTDs
//! (\*-guarded, non-recursive, parent-unambiguous) and strongly-specified
//! queries the projector is furthermore optimal (Thm. 4.7).
//!
//! Pruning itself ([`prune`] in memory, [`stream`]'s [`PruneMachine`] over
//! SAX events) is a single bufferless pass: because element tags determine
//! names in a local tree grammar, the keep/discard decision per element is
//! one indexed load. `xproj-engine` drives the machine under the token loop
//! (`ChunkedPruner`, a whole string being one `feed`).
//!
//! ```
//! use xproj_core::StaticAnalyzer;
//! use xproj_dtd::parse_dtd;
//!
//! let dtd = parse_dtd(
//!     "<!ELEMENT bib (book*)> <!ELEMENT book (title, author*)>\
//!      <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)>",
//!     "bib",
//! ).unwrap();
//! let mut analyzer = StaticAnalyzer::new(&dtd);
//! let projector = analyzer.project_query("/bib/book/title").unwrap();
//! // `author` is pruned away, `title` (and its text) survive:
//! let kept = projector.labels(&dtd);
//! assert!(kept.contains(&"title") && kept.contains(&"title#text"));
//! assert!(!kept.contains(&"author"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod infer;
pub mod projector;
pub mod prune;
pub mod stream;
pub mod typeinf;

pub use analysis::{Analyzer, NormPaths, PStep, PathId};
pub use infer::StaticAnalyzer;
pub use infer::{AnalyzeError, TraceEvent, TraceRule};
pub use projector::{Projector, ProjectorTable, Verdict};
pub use prune::prune_document;
pub use stream::{
    json_escape, json_escape_into, ErrorCode, PruneCounters, PruneMachine, StartOutcome,
    StreamPruneError,
};
