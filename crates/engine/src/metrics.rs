//! Pipeline metrics: what the engine did and how much it kept resident.
//!
//! Every layer of the engine threads an [`EngineStats`] through: the
//! chunked pruner fills in event/byte counts and the peak-resident
//! high-water mark; the server aggregates them over every pass for
//! `/metrics`; the CLI serializes them as the workspace's usual
//! one-JSON-object-per-line format. They are counts, not times: how long
//! a layer takes is the `benchmark/` ledger's to measure.

use xproj_core::{json_escape, ErrorCode, PruneCounters};
use xproj_qc::ArtifactCacheStats;

/// End-to-end statistics for one chunked pruning run (or an aggregate
/// over many, as `/metrics` reports).
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// SAX events processed (start/end/text/comment/PI/doctype).
    pub events: u64,
    /// Bytes fed into the tokenizer.
    pub bytes_in: u64,
    /// Bytes written to the output sink.
    pub bytes_out: u64,
    /// Keep/discard counters from the pruning machine.
    pub counters: PruneCounters,
    /// High-water mark of engine-resident buffering in bytes: tokenizer
    /// tail + serialization scratch. The memory-bound guarantee is that
    /// this stays O(depth + max single-token length), independent of
    /// document size.
    pub peak_resident_bytes: usize,
    /// Largest single token seen (the dominant term of the bound).
    pub max_token_bytes: usize,
    /// Pruned subtrees consumed by the raw fast-forward scanner instead
    /// of the tokenizer (0 when fast-forward is off or never eligible).
    pub subtrees_fast_forwarded: u64,
    /// Documents aggregated into this stats object (1 for a single run).
    pub documents: u64,
    /// Artifact-cache counters of the run (all-zero when the run did
    /// not go through an [`xproj_qc::ArtifactCache`]).
    pub cache: ArtifactCacheStats,
}

impl EngineStats {
    /// Fraction of input bytes retained in the output.
    pub fn retention(&self) -> f64 {
        if self.bytes_in == 0 {
            return 1.0;
        }
        self.bytes_out as f64 / self.bytes_in as f64
    }

    /// Folds another run into this aggregate.
    pub fn accumulate(&mut self, other: &EngineStats) {
        self.events += other.events;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.counters.elements_kept += other.counters.elements_kept;
        self.counters.elements_pruned += other.counters.elements_pruned;
        self.counters.text_kept += other.counters.text_kept;
        self.counters.text_pruned += other.counters.text_pruned;
        self.counters.max_depth = self.counters.max_depth.max(other.counters.max_depth);
        self.peak_resident_bytes = self.peak_resident_bytes.max(other.peak_resident_bytes);
        self.max_token_bytes = self.max_token_bytes.max(other.max_token_bytes);
        self.subtrees_fast_forwarded += other.subtrees_fast_forwarded;
        self.documents += other.documents;
        self.cache.hits += other.cache.hits;
        self.cache.misses += other.cache.misses;
        self.cache.evictions += other.cache.evictions;
        self.cache.entries = self.cache.entries.max(other.cache.entries);
    }

    /// One JSON object on a single line (collectable with
    /// `grep '^{' | jq`).
    pub fn to_json_line(&self, label: &str) -> String {
        format!(
            "{{\"group\":\"engine\",\"bench\":\"{label}\",\"documents\":{},\"events\":{},\
             \"bytes_in\":{},\"bytes_out\":{},\"retention\":{:.4},\
             \"elements_kept\":{},\"elements_pruned\":{},\"text_kept\":{},\"text_pruned\":{},\
             \"max_depth\":{},\"peak_resident_bytes\":{},\"max_token_bytes\":{},\
             \"subtrees_fast_forwarded\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{}}}",
            self.documents,
            self.events,
            self.bytes_in,
            self.bytes_out,
            self.retention(),
            self.counters.elements_kept,
            self.counters.elements_pruned,
            self.counters.text_kept,
            self.counters.text_pruned,
            self.counters.max_depth,
            self.peak_resident_bytes,
            self.max_token_bytes,
            self.subtrees_fast_forwarded,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
        )
    }
}

/// One JSON error object on a single line, the failure-path counterpart
/// of [`EngineStats::to_json_line`]: a stable [`ErrorCode`] plus the
/// human-readable message (escaped), in the same `grep '^{' | jq`
/// collectable shape.
pub fn error_json_line(label: &str, code: ErrorCode, message: &str) -> String {
    format!(
        "{{\"group\":\"engine\",\"bench\":\"{label}\",\"error\":\"{}\",\"message\":\"{}\"}}",
        code.as_str(),
        json_escape(message),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_handles_empty_input() {
        let s = EngineStats::default();
        assert_eq!(s.retention(), 1.0);
    }

    #[test]
    fn accumulate_takes_max_of_highwater_marks() {
        let mut a = EngineStats {
            peak_resident_bytes: 10,
            bytes_in: 100,
            bytes_out: 50,
            documents: 1,
            ..Default::default()
        };
        let b = EngineStats {
            peak_resident_bytes: 30,
            bytes_in: 100,
            bytes_out: 10,
            documents: 1,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.peak_resident_bytes, 30);
        assert_eq!(a.bytes_in, 200);
        assert_eq!(a.bytes_out, 60);
        assert_eq!(a.documents, 2);
        assert!((a.retention() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn json_line_is_one_object() {
        let s = EngineStats::default();
        let line = s.to_json_line("unit");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        assert!(line.contains("\"bench\":\"unit\""));
    }

    #[test]
    fn json_line_carries_cache_counters() {
        let s = EngineStats {
            cache: ArtifactCacheStats {
                hits: 3,
                misses: 1,
                evictions: 2,
                entries: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let line = s.to_json_line("unit");
        assert!(line.contains("\"cache_hits\":3"));
        assert!(line.contains("\"cache_misses\":1"));
        assert!(line.contains("\"cache_evictions\":2"));
    }

    #[test]
    fn error_line_has_stable_code_and_escaped_message() {
        let line = error_json_line("prune", ErrorCode::MalformedXml, "bad \"tag\"\nat byte 3");
        assert!(line.contains("\"error\":\"malformed-xml\""));
        assert!(line.contains("\\\"tag\\\""));
        assert!(!line.contains('\n'));
    }
}
