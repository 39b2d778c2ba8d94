//! Experiment harness for reproducing the paper's §6 evaluation.
//!
//! The paper measures, with the Galax engine on a 512 MB machine:
//!
//! * **Table 1** — per query: the largest document processable thanks to
//!   pruning, the size of its pruned version, the memory used to process
//!   it; plus pruned-size % and speedup on a fixed 56 MB document;
//! * **Figure 4** — query processing time on the original vs. the pruned
//!   document;
//! * **Figure 5** — memory used to process a query on the original vs.
//!   the pruned document;
//! * prose claims: static analysis < 0.5 s, pruning linear in document
//!   size with O(depth) memory.
//!
//! Our substitutions (see DESIGN.md): the engine is this workspace's own
//! XPath/XQuery evaluator; "memory used" is **peak allocated bytes**
//! tracked by a counting global allocator; the 512 MB ceiling becomes a
//! configurable byte budget; document sizes are configurable scales of
//! the synthetic XMark generator.
//!
//! The binaries reproduce the paper's figures; tracking this system's
//! speed from change to change is the `benchmark/` ledger's job, the one
//! harness for it. The counting allocator also backs the tests in
//! `tests/`, which gate on allocated bytes, never on a clock.

#![deny(unsafe_code)]
#![warn(missing_docs)]

// The only other `unsafe` in the workspace besides the reactor's
// syscall shims: a `GlobalAlloc` wrapper cannot be written in safe
// Rust. tests/surface.rs fails on `unsafe` outside these two files.
#[allow(unsafe_code)]
pub mod counter;
pub mod harness;

pub use counter::CountingAllocator;
pub use harness::*;

/// All binaries and tests in this crate account allocations through
/// this counter.
#[global_allocator]
pub static ALLOCATOR: CountingAllocator = CountingAllocator::new();
