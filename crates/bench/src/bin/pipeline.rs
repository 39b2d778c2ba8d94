//! Consolidated pipeline throughput bench: tokenize-only vs pruning,
//! whole-string and chunked, fast-forward off and on, on XMark
//! documents at several scales and retention levels.
//!
//! This is the measured form of the paper's §5 claim — pruning is a
//! single pass that costs *less than parsing itself* — and of this
//! repo's fast-path work: the dense-verdict projector table plus
//! pruned-subtree raw fast-forward should beat full tokenization by a
//! widening margin as retention drops. Every column is the same token
//! loop (`PushTokenizer::drain`) under a different sink and feed shape:
//! `tokenize` a sink that only counts, `whole` the `prune_str*`
//! functions, `chunked` a `ChunkedPruner` fed 64 KiB at a time.
//!
//! Besides the usual JSON result lines on stdout, the run writes a
//! consolidated `BENCH_pipeline.json` (path override:
//! `XPROJ_BENCH_OUT`) that CI parses and diffs against the committed
//! baseline.
//!
//! ```sh
//! cargo run --release -p xproj-bench --bin pipeline
//! # smoke mode:
//! XPROJ_BENCH_SAMPLES=3 XPROJ_BENCH_WARMUP=1 XPROJ_BENCH_SCALES=0.5 \
//!     cargo run --release -p xproj-bench --bin pipeline
//! ```
//!
//! Knobs: `XPROJ_BENCH_SCALES` (comma-separated XMark scale factors,
//! default `0.5,2`), `XPROJ_BENCH_SAMPLES`, `XPROJ_BENCH_WARMUP`.

use std::time::Duration;
use xproj_bench::Timer;
use xproj_core::{prune_str, prune_str_fast, Projector, StaticAnalyzer};
use xproj_dtd::Dtd;
use xproj_engine::ChunkedPruner;
use xproj_xmark::{auction_dtd, generate_auction, XMarkConfig};
use xproj_xmltree::push::{drain_str, TokenSink};
use xproj_xmltree::ParseError;

/// Engine chunk size for the streaming measurements.
const CHUNK: usize = 64 * 1024;

/// Queries spanning the retention range: a narrow path (a few percent
/// of the document survives), a descendant scan, and a subtree-heavy
/// selection.
const QUERIES: &[&str] = &[
    "/site/people/person/name",
    "//keyword",
    "/site/regions/europe/item/description",
];

fn mbps(bytes: usize, t: Duration) -> f64 {
    bytes as f64 / t.as_secs_f64() / 1e6
}

/// One measured (scale, query) cell of the pipeline matrix.
struct Run {
    scale: f64,
    query: String,
    doc_bytes: usize,
    retention: f64,
    tokenize_mbps: f64,
    whole_mbps: f64,
    whole_ff_mbps: f64,
    chunked_mbps: f64,
    chunked_ff_mbps: f64,
}

/// The do-nothing sink: what the token loop costs on its own.
struct CountStarts(usize);

impl TokenSink for CountStarts {
    type Error = ParseError;
    fn start(&mut self, _: &str, _: &str) -> Result<bool, ParseError> {
        self.0 += 1;
        Ok(false)
    }
    fn end(&mut self, _: &str) -> Result<(), ParseError> {
        Ok(())
    }
    fn text(&mut self, _: &str) -> Result<(), ParseError> {
        Ok(())
    }
}

/// One chunked pass over `xml` in [`CHUNK`]-byte feeds into `out`.
fn chunked_pass(
    xml: &str,
    dtd: &Dtd,
    projector: &Projector,
    fast_forward: bool,
    out: &mut Vec<u8>,
) -> usize {
    out.clear();
    let mut pruner = ChunkedPruner::new(dtd, projector, &mut *out);
    pruner.set_fast_forward(fast_forward);
    for chunk in xml.as_bytes().chunks(CHUNK) {
        pruner.feed(chunk).unwrap();
    }
    pruner.finish().unwrap();
    out.len()
}

fn main() {
    let timer = Timer::from_env();
    let scales: Vec<f64> = std::env::var("XPROJ_BENCH_SCALES")
        .unwrap_or_else(|_| "0.5,2".to_string())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let out_path =
        std::env::var("XPROJ_BENCH_OUT").unwrap_or_else(|_| "BENCH_pipeline.json".to_string());

    let dtd = auction_dtd();
    let mut runs: Vec<Run> = Vec::new();

    for &scale in &scales {
        let xml = generate_auction(&dtd, &XMarkConfig::at_scale(scale)).to_xml();
        eprintln!(
            "# pipeline bench: xmark scale {scale}, {:.2} MiB",
            xml.len() as f64 / (1 << 20) as f64
        );

        // Parsing cost alone: the bar the paper says pruning undercuts.
        let tok_label = format!("tokenize_only_s{scale}");
        let t_tok = timer.bench_bytes("pipeline", &tok_label, xml.len(), || {
            let mut sink = CountStarts(0);
            drain_str(&xml, &mut sink, false).unwrap();
            sink.0
        });
        let tokenize_mbps = mbps(xml.len(), t_tok);

        let mut sa = StaticAnalyzer::new(&dtd);
        for &query in QUERIES {
            let projector = sa.project_query(query).unwrap();
            let reference = prune_str(&xml, &dtd, &projector).unwrap();
            let retention = reference.output.len() as f64 / xml.len() as f64;
            let fast = prune_str_fast(&xml, &dtd, &projector).unwrap();
            assert_eq!(
                fast.output, reference.output,
                "fast path diverged on {query} at scale {scale}"
            );

            let tag = format!("s{scale}_{}", query.replace(['/', ':'], "_"));
            // The four cells of a (scale, query) pair are only ever read
            // as ratios of one another, so they are sampled round robin.
            let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
            let t = timer.bench_bytes_interleaved(
                "pipeline",
                xml.len(),
                &mut [
                    (&format!("whole_{tag}"), &mut || {
                        prune_str(&xml, &dtd, &projector).unwrap().output.len()
                    }),
                    (&format!("whole_ff_{tag}"), &mut || {
                        prune_str_fast(&xml, &dtd, &projector).unwrap().output.len()
                    }),
                    (&format!("chunked_{tag}"), &mut || {
                        chunked_pass(&xml, &dtd, &projector, false, &mut out_a)
                    }),
                    (&format!("chunked_ff_{tag}"), &mut || {
                        chunked_pass(&xml, &dtd, &projector, true, &mut out_b)
                    }),
                ],
            );
            let [whole_mbps, whole_ff_mbps, chunked_mbps, chunked_ff_mbps] =
                [t[0], t[1], t[2], t[3]].map(|t| mbps(xml.len(), t));
            // Regression guard for the fast-forward inversion: engaging
            // fast-forward must never cost throughput on any row (the
            // 0.9 factor absorbs run-to-run noise).
            assert!(
                chunked_ff_mbps >= 0.9 * chunked_mbps,
                "chunked fast-forward slower than plain chunked on {query} at scale {scale}: \
                 {chunked_ff_mbps:.1} < {chunked_mbps:.1} MB/s"
            );
            runs.push(Run {
                scale,
                query: query.to_string(),
                doc_bytes: xml.len(),
                retention,
                tokenize_mbps,
                whole_mbps,
                whole_ff_mbps,
                chunked_mbps,
                chunked_ff_mbps,
            });
        }
    }

    // The consolidated document CI parses and diffs.
    let mut json = String::from("{\n  \"bench\": \"pipeline\",\n  \"unit\": \"MB/s of input\",\n  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scale\": {}, \"query\": \"{}\", \"doc_bytes\": {}, \"retention\": {:.4}, \
             \"tokenize_mbps\": {:.1}, \"whole_mbps\": {:.1}, \"whole_ff_mbps\": {:.1}, \
             \"chunked_mbps\": {:.1}, \"chunked_ff_mbps\": {:.1}}}{}\n",
            r.scale,
            r.query,
            r.doc_bytes,
            r.retention,
            r.tokenize_mbps,
            r.whole_mbps,
            r.whole_ff_mbps,
            r.chunked_mbps,
            r.chunked_ff_mbps,
            if i + 1 == runs.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).unwrap();
    eprintln!("# wrote {out_path}");

    // Human-readable recap on stderr.
    for r in &runs {
        eprintln!(
            "# scale {} {:<42} retention {:>5.1}%  tokenize {:>7.1}  whole {:>7.1} -> {:>7.1}  chunked {:>7.1} -> {:>7.1} MB/s (ff off -> on)",
            r.scale,
            r.query,
            r.retention * 100.0,
            r.tokenize_mbps,
            r.whole_mbps,
            r.whole_ff_mbps,
            r.chunked_mbps,
            r.chunked_ff_mbps,
        );
    }
}
