//! **xproj-engine** — the serving-shaped projection pipeline.
//!
//! The core crates implement the paper's algorithms over complete
//! in-memory strings; this crate turns them into a deployable engine
//! (§6's "faster than parsing, O(depth) memory" deployment mode, and
//! the journal version's fused streaming emphasis):
//!
//! * [`chunked`] — incremental push-mode pruning over `io::Read` →
//!   `io::Write`: [`xproj_core::PruneMachine`] as a sink under the one
//!   token loop of `xproj_xmltree::push`. Resident memory is **asserted** to be
//!   O(depth + max single-token length), never O(document).
//! * the query compiler's [`ArtifactCache`] (`xproj-qc`, re-exported
//!   here) — an LRU over `(DTD fingerprint, normalized query)` so
//!   repeated workloads skip re-inference ("analyse once, prune many
//!   documents"); a prune and a query request for the same pair share
//!   one [`QueryArtifact`], whose verdict table both engines run from.
//! * [`query`] — the compiled-query [`QueryMachine`]: prune **and
//!   answer** in one streaming pass, executing the artifact's compiled
//!   plan (NFA program or prune-then-eval fallback) as a sink under the
//!   same loop.
//! * [`batch`] — a zero-dependency scoped-thread parallel driver for
//!   pruning many documents concurrently.
//! * [`metrics`] — [`EngineStats`] threaded through all of the above:
//!   events, bytes in/out, retention, depth, peak-resident bytes,
//!   per-stage timings; serialized as the workspace's JSON-lines format.
//!
//! ```
//! use std::sync::Arc;
//! use xproj_engine::{prune_reader, ArtifactCache};
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
//! let stats = prune_reader(doc.as_bytes(), &mut pruned, &dtd, &artifact.projector, 8).unwrap();
//! assert_eq!(pruned, b"<bib><book><title>T</title></book></bib>");
//! assert!(stats.retention() < 1.0);
//! assert!(cache.get_or_compile(&dtd, "/bib/book/title").is_ok());
//! assert_eq!(cache.stats().hits, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod chunked;
pub mod metrics;
pub mod query;
pub mod session;

pub use batch::{parallel_map, parallel_map_init, run_batch, BatchJob, BatchReport, EngineFailure};
pub use chunked::{
    prune_reader, prune_reader_buffered, ChunkedPruner, EngineError, DEFAULT_CHUNK_SIZE,
};
pub use metrics::{error_json_line, EngineStats, StageTimings};
pub use query::{json_escape_into, run_query, QueryError, QueryMachine, QueryOutput, QueryStats};
pub use session::PruneSession;
pub use xproj_qc::{
    dtd_fingerprint, normalize_query, ArtifactCache, ArtifactCacheStats, QueryArtifact,
};
