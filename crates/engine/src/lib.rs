//! **xproj-engine** — the serving-shaped projection pipeline.
//!
//! The core crates implement the paper's algorithms over complete
//! in-memory strings; this crate turns them into a deployable engine
//! (§6's "faster than parsing, O(depth) memory" deployment mode, and
//! the journal version's fused streaming emphasis). One loop, one pass,
//! one bound — every pass owns the same private driver of the
//! `xproj_xmltree::push` token loop and differs only in the sink under
//! it, and every pass's `finish` **asserts** its resident peak under
//! [`residency_bound`]: O(depth + max token + max chunk), never
//! O(document).
//!
//! * [`chunked`] — [`ChunkedPruner`]: incremental push-mode pruning,
//!   bytes in by `feed` (or a whole `io::Read` by `run`), kept bytes out
//!   to an `io::Write`, with [`xproj_core::PruneMachine`] as the sink.
//!   Two flags: `set_fast_forward` (default on; off makes the pass a full
//!   well-formedness check) and `set_validate` (§6's "prune while
//!   validating", the content-model states carried from feed to feed).
//! * [`query`] — [`QueryMachine`]: the one owned, movable per-document
//!   pass a server hands between threads. Its [`QueryOutput`] says what
//!   the answer is — x-ndjson match frames, the bare result sequence, or
//!   the pruned document itself (by Thm 4.6 just another answer) — and
//!   the artifact's compiled plan which sink runs: the path NFA, or the
//!   `PruneMachine` into a tree evaluated at the end (fallback plan)
//!   or straight into the output (`Pruned`). One [`EngineError`] and
//!   one [`QueryStats`] (wrapping [`EngineStats`]) for every mode.
//! * the query compiler's [`ArtifactCache`] (`xproj-qc`, re-exported
//!   here) — an LRU over `(DTD fingerprint, normalized query)` so
//!   repeated workloads skip re-inference ("analyse once, prune many
//!   documents"); a prune and a query request for the same pair share
//!   one [`QueryArtifact`], whose verdict table every pass copies.
//! * [`metrics`] — [`EngineStats`]: events, bytes in/out, retention,
//!   depth, peak-resident bytes — counts, never a clock; serialized as
//!   the workspace's JSON-lines format.
//!
//! ```
//! use std::sync::Arc;
//! use xproj_engine::{ArtifactCache, ChunkedPruner, QueryMachine, QueryOutput};
//!
//! let dtd = Arc::new(xproj_dtd::parse_dtd(
//!     "<!ELEMENT bib (book*)> <!ELEMENT book (title, author*)>\
//!      <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)>",
//!     "bib",
//! ).unwrap());
//! let cache = ArtifactCache::new(32);
//! let artifact = cache.get_or_compile(&dtd, "/bib/book/title").unwrap();
//!
//! let doc = "<bib><book><title>T</title><author>A</author></book></bib>";
//! let mut pruned = Vec::new();
//! let stats = ChunkedPruner::new(&*dtd, &artifact.projector, &mut pruned)
//!     .run(doc.as_bytes(), 8)
//!     .unwrap();
//! assert_eq!(pruned, b"<bib><book><title>T</title></book></bib>");
//! assert!(stats.retention() < 1.0);
//!
//! // The same pass as an owned machine, fed in arbitrary pieces:
//! let mut machine = QueryMachine::new(artifact, QueryOutput::Pruned);
//! let mut out = Vec::new();
//! machine.feed(&doc.as_bytes()[..20]).unwrap();
//! machine.feed(&doc.as_bytes()[20..]).unwrap();
//! machine.finish().unwrap();
//! machine.take_output(&mut out);
//! assert_eq!(out, pruned);
//! assert_eq!(cache.stats().misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunked;
pub mod metrics;
pub mod query;

pub use chunked::{residency_bound, ChunkedPruner, EngineError, DEFAULT_CHUNK_SIZE};
pub use metrics::{error_json_line, EngineStats};
pub use query::{json_escape_into, QueryMachine, QueryOutput, QueryStats};
pub use xproj_qc::{
    normalize_query, ArtifactCache, ArtifactCacheStats, Lookup, PendingCompile, QueryArtifact,
    LOOP_COMPILE_STEPS,
};
