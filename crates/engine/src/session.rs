//! An owned, movable pruning session — the executor handoff unit.
//!
//! A [`ChunkedPruner`] over a borrowed DTD (`&Dtd`) is the right shape
//! for a blocking worker that sets up and tears down inside one stack
//! frame. The reactor cannot use that shape: a
//! connection's pruner must hop between the reactor thread (which owns
//! the socket) and a CPU worker (which pumps the parse) across `feed`
//! calls, so the session has to be a self-contained `Send` value.
//!
//! [`PruneSession`] packages a pruner that *owns* its grammar — the
//! `ChunkedPruner<Arc<Dtd>, _>` instantiation, built from a compiled
//! artifact's grammar and verdict table — so the session is a
//! self-contained `Send` value with no lifetime ties to the caller's
//! frame. Nothing about the engine's memory-bound guarantees changes —
//! `finish` still runs the same assertion.

use std::sync::Arc;

use crate::chunked::{ChunkedPruner, EngineError};
use crate::metrics::EngineStats;
use xproj_dtd::Dtd;
use xproj_qc::QueryArtifact;

/// An owned pruning session: one in-flight document, movable across
/// threads between `feed` calls.
///
/// Kept output accumulates in an internal buffer; the driver drains it
/// with [`Self::take_output`] after each feed and uses
/// [`Self::pending_output`] to decide when to stop reading input
/// (backpressure).
pub struct PruneSession {
    pruner: Option<ChunkedPruner<Arc<Dtd>, Vec<u8>>>,
    /// Trailing kept bytes handed back by `finish` once the pruner is
    /// consumed, still drainable via `take_output`.
    finished_output: Vec<u8>,
}

impl PruneSession {
    /// Starts a session pruning one document to `artifact`'s projector,
    /// sharing its grammar and copying its precomputed verdict table.
    pub fn new(artifact: &QueryArtifact) -> PruneSession {
        PruneSession {
            pruner: Some(ChunkedPruner::with_table(
                Arc::clone(&artifact.dtd),
                artifact.table.clone(),
                Vec::new(),
            )),
            finished_output: Vec::new(),
        }
    }

    /// Enables or disables pruned-subtree fast-forward (default on); see
    /// [`ChunkedPruner::set_fast_forward`].
    pub fn set_fast_forward(&mut self, on: bool) {
        self.pruner
            .as_mut()
            .expect("session already finished")
            .set_fast_forward(on);
    }

    /// Feeds one chunk of the document body. Kept bytes accumulate
    /// internally until [`Self::take_output`].
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), EngineError> {
        self.pruner
            .as_mut()
            .expect("session already finished")
            .feed(chunk)
    }

    /// Ends the document: runs well-formedness checks and the engine
    /// memory-bound assertion. Remaining kept bytes stay in the output
    /// buffer — drain them with a final [`Self::take_output`].
    pub fn finish(&mut self) -> Result<EngineStats, EngineError> {
        let pruner = self.pruner.take().expect("session already finished");
        let (stats, sink) = pruner.finish_with_sink()?;
        self.finished_output = sink;
        Ok(stats)
    }

    /// Appends all pending kept output to `dst` (clearing it here),
    /// reusing the caller's allocation round to round.
    pub fn take_output(&mut self, dst: &mut Vec<u8>) {
        match self.pruner.as_mut() {
            Some(p) => {
                dst.append(p.sink_mut());
            }
            None => dst.append(&mut self.finished_output),
        }
    }

    /// Bytes of kept output waiting to be taken — the backpressure
    /// signal: a driver whose peer isn't consuming output stops feeding
    /// input once this crosses its high-water mark.
    pub fn pending_output(&self) -> usize {
        match self.pruner.as_ref() {
            Some(p) => p.sink_ref().len(),
            None => self.finished_output.len(),
        }
    }

    /// Engine-resident bytes right now: parser tail + serialization
    /// scratch + undrained output.
    pub fn resident_bytes(&self) -> usize {
        match self.pruner.as_ref() {
            Some(p) => p.resident_bytes() + p.sink_ref().len(),
            None => self.finished_output.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_core::{prune_str, StaticAnalyzer};
    use xproj_dtd::parse_dtd;

    const DTD: &str = "\
        <!ELEMENT bib (book*)>\
        <!ELEMENT book (title, author*, price?)>\
        <!ATTLIST book id CDATA #IMPLIED>\
        <!ELEMENT title (#PCDATA)>\
        <!ELEMENT author (#PCDATA)>\
        <!ELEMENT price (#PCDATA)>";

    const DOC: &str = "<bib>\
        <book id=\"b1\"><title>T1</title><author>A</author><price>10</price></book>\
        <book id=\"b2\"><title>T2</title></book>\
        </bib>";

    fn session(query: &str) -> PruneSession {
        let dtd = Arc::new(parse_dtd(DTD, "bib").unwrap());
        PruneSession::new(&QueryArtifact::compile(&dtd, query).unwrap())
    }

    // The whole point of the type: a session must be movable to a CPU
    // worker between feeds.
    fn assert_send<T: Send>(t: T) -> T {
        t
    }

    #[test]
    fn session_matches_prune_str_with_interleaved_drains() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/title").unwrap();
        let whole = prune_str(DOC, &dtd, &p).unwrap();

        for size in [1, 3, 16, 4096] {
            let mut s = session("/bib/book/title");
            let mut out = Vec::new();
            for chunk in DOC.as_bytes().chunks(size) {
                s.feed(chunk).unwrap();
                // Drain mid-document, like the reactor does after every
                // executor round-trip.
                s.take_output(&mut out);
            }
            let stats = s.finish().unwrap();
            s.take_output(&mut out);
            assert_eq!(s.pending_output(), 0);
            assert_eq!(String::from_utf8(out).unwrap(), whole.output, "chunk {size}");
            assert_eq!(stats.counters.elements_kept, whole.elements_kept);
        }
    }

    #[test]
    fn session_hops_threads_between_feeds() {
        let mut s = assert_send(session("/bib/book/title"));
        let chunks: Vec<Vec<u8>> = DOC.as_bytes().chunks(7).map(<[u8]>::to_vec).collect();
        // Each feed happens on a fresh thread, with the session moved
        // there and back — the executor handoff in miniature.
        for chunk in chunks {
            s = std::thread::spawn(move || {
                s.feed(&chunk).unwrap();
                s
            })
            .join()
            .unwrap();
        }
        let mut out = Vec::new();
        s.finish().unwrap();
        s.take_output(&mut out);
        assert!(String::from_utf8(out).unwrap().contains("<title>T1</title>"));
    }

    #[test]
    fn pending_output_reports_undrained_bytes() {
        let mut s = session("/bib/book/title");
        s.feed(DOC.as_bytes()).unwrap();
        assert!(s.pending_output() > 0);
        assert!(s.resident_bytes() >= s.pending_output());
        let mut out = Vec::new();
        s.take_output(&mut out);
        assert_eq!(s.pending_output(), 0);
        assert!(!out.is_empty());
    }

    #[test]
    fn finish_keeps_trailing_output_drainable() {
        let mut s = session("/bib/book/title");
        // Feed everything but the closing tag, drain, then finish: the
        // bytes flushed during finish must still come out.
        let split = DOC.len() - "</bib>".len();
        s.feed(&DOC.as_bytes()[..split]).unwrap();
        let mut out = Vec::new();
        s.take_output(&mut out);
        s.feed(&DOC.as_bytes()[split..]).unwrap();
        s.finish().unwrap();
        s.take_output(&mut out);
        assert!(String::from_utf8(out).unwrap().ends_with("</bib>"));
    }

    #[test]
    fn errors_surface_through_the_session() {
        let mut s = session("/bib/book/title");
        assert!(matches!(
            s.feed(b"<bib><zzz></zzz></bib>"),
            Err(EngineError::Prune(_))
        ));

        let mut s = session("/bib/book/title");
        s.feed(b"<bib><book>").unwrap();
        assert!(matches!(s.finish(), Err(EngineError::Xml(_))));
    }

    #[test]
    fn dropping_an_unfinished_session_is_fine() {
        let mut s = session("/bib/book/title");
        s.feed(b"<bib><book><title>half").unwrap();
        drop(s);
    }
}
