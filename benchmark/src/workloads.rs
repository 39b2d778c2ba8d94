//! The four traffic mixes, their inputs and their reference answers.
//!
//! Documents are generated at a fixed XMark seed and pinned by
//! `expected.json`; `--seed` drives the order the queries cycle in. (A
//! document per seed would move `bytes_out_per_byte_in` by a third from
//! seed to seed on the 34 KB body, and every timing with it.) Every
//! response the daemon gives is later compared with what the engine
//! produces in-process for the same bytes (`ChunkedPruner` for
//! `/v1/prune`, `QueryMachine` for `/v1/query`), computed here during
//! set-up.

use crate::http::{fnv1a, request_head, urlencode, Body, FRAME};
use std::sync::Arc;
use xproj_dtd::Dtd;
use xproj_engine::{ChunkedPruner, QueryMachine, QueryOutput};
use xproj_qc::QueryArtifact;
use xproj_testkit::SplitMix64;
use xproj_xmark::{generate_auction, XMarkConfig};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Endpoint {
    Prune,
    Query,
}

impl Endpoint {
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Prune => "prune",
            Endpoint::Query => "query",
        }
    }
}

/// One workload's definition. `why` is the line `BENCHMARK.json` carries.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub endpoint: Endpoint,
    /// XMark scale of the body; `None` is the hand-written snippet.
    pub scale: Option<f64>,
    pub chunked: bool,
    /// Whether every request after warm-up hits the artifact cache.
    pub hot: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "small_prune_hot",
        why: "1160-byte /v1/prune body, one cached query: per-request cost only (HTTP parse, reactor, executor hand-off, framing); engine work is a small share of it",
        endpoint: Endpoint::Prune,
        scale: None,
        chunked: false,
        hot: true,
    },
    Workload {
        name: "large_prune_stream",
        why: "3.1 MiB chunked /v1/prune body, three cached queries at 0.7/9.5/27.7% retention: per-byte cost only (tokenizer + PruneMachine), and the O(depth+chunk) memory promise",
        endpoint: Endpoint::Prune,
        scale: Some(2.0),
        chunked: true,
        hot: true,
    },
    Workload {
        name: "mid_query_onepass",
        why: "34 KB /v1/query body, four streaming-plan and two fallback-plan cached queries: the same tokenizer driven by QueryMachine, engine and framing each about half the cost",
        endpoint: Endpoint::Query,
        scale: Some(0.02),
        chunked: false,
        hot: true,
    },
    Workload {
        name: "small_query_cold",
        why: "1160-byte /v1/query body cycling 96 distinct queries over a 64-entry cache: every request is an ArtifactCache miss + compile + eviction; bypasses nothing but the engine",
        endpoint: Endpoint::Query,
        scale: None,
        chunked: false,
        hot: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The three pipeline queries (`q1..q3` in the per-layer names), in
/// rising retention.
pub const PIPELINE_QUERIES: [&str; 3] = [
    "/site/people/person/name",
    "/site/regions/europe/item/description",
    "//keyword",
];

const ONEPASS_QUERIES: [&str; 6] = [
    "/site/people/person/name",
    "//bidder",
    "//keyword",
    "//listitem",
    "//item[location='Italy']/name",
    "/site/open_auctions/open_auction[bidder/increase > 5]/seller",
];

const REGIONS: [&str; 6] = [
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];
const ITEM_PATHS: [&str; 16] = [
    "location",
    "quantity",
    "name",
    "payment",
    "shipping",
    "incategory",
    "description",
    "description/text",
    "description/parlist",
    "description/parlist/listitem",
    "mailbox",
    "mailbox/mail",
    "mailbox/mail/from",
    "mailbox/mail/to",
    "mailbox/mail/date",
    "mailbox/mail/text",
];

/// The 96 distinct queries of `small_query_cold` (also the inference and
/// compile probes' input).
pub fn cold_queries() -> Vec<String> {
    REGIONS
        .iter()
        .flat_map(|r| {
            ITEM_PATHS
                .iter()
                .map(move |p| format!("/site/regions/{r}/item/{p}"))
        })
        .collect()
}

/// The queries of a workload, in canonical (pinned) order.
pub fn queries(w: &Workload) -> Vec<String> {
    match w.name {
        "small_prune_hot" => vec!["//keyword".to_string()],
        "large_prune_stream" => PIPELINE_QUERIES.iter().map(|q| q.to_string()).collect(),
        "mid_query_onepass" => ONEPASS_QUERIES.iter().map(|q| q.to_string()).collect(),
        _ => cold_queries(),
    }
}

/// The 1160-byte auction snippet of `bench --bin server`'s sweep.
pub fn snippet() -> String {
    let mut s = String::from("<site><open_auctions>");
    for i in 0..6 {
        s.push_str(&format!(
            "<open_auction id=\"oa{i}\"><annotation><description><text>\
             considerable reserves of <keyword>dust</keyword> and \
             <keyword>echo</keyword> remain</text></description>\
             </annotation></open_auction>"
        ));
    }
    s.push_str("</open_auctions></site>");
    s
}

/// The XMark seed of every generated document.
pub const XMARK_SEED: u64 = 42;

/// The request body of a workload.
pub fn document(dtd: &Dtd, w: &Workload) -> Vec<u8> {
    match w.scale {
        None => snippet().into_bytes(),
        Some(scale) => generate_auction(
            dtd,
            &XMarkConfig {
                scale,
                seed: XMARK_SEED,
            },
        )
        .to_xml()
        .into_bytes(),
    }
}

/// In-process `/v1/prune`: the chunked pruner in daemon-sized feeds.
pub fn reference_prune(
    artifact: &QueryArtifact,
    doc: &[u8],
    out: &mut Vec<u8>,
) -> xproj_engine::EngineStats {
    out.clear();
    let mut pruner = ChunkedPruner::new(&*artifact.dtd, &artifact.projector, out);
    for chunk in doc.chunks(FRAME) {
        pruner.feed(chunk).expect("reference prune: feed");
    }
    pruner.finish().expect("reference prune: finish")
}

/// In-process `/v1/query`: the one-pass machine emitting x-ndjson frames.
pub fn reference_query(
    artifact: &Arc<QueryArtifact>,
    doc: &[u8],
    out: &mut Vec<u8>,
) -> xproj_engine::QueryStats {
    out.clear();
    let mut machine = QueryMachine::new(Arc::clone(artifact), QueryOutput::Frames);
    for chunk in doc.chunks(FRAME) {
        machine.feed(chunk).expect("reference query: feed");
        machine.take_output(out);
    }
    let stats = machine.finish().expect("reference query: finish");
    machine.take_output(out);
    stats
}

/// One (document, query) cell, ready to send and to check.
pub struct Cell {
    pub query: String,
    pub artifact: Arc<QueryArtifact>,
    /// Request head; set once the DTD id is known.
    pub head: Vec<u8>,
    pub expect_len: u64,
    pub expect_fnv: u64,
}

/// A workload's inputs, with the query cycle ordered by one seed.
pub struct Prepared {
    pub workload: &'static Workload,
    pub body: Vec<u8>,
    /// Cells in the order requests cycle through them (a seed-driven
    /// permutation of the canonical order).
    pub cells: Vec<Cell>,
    /// `(key, FNV-1a)` of the document and of every reference output in
    /// canonical order — what `expected.json` pins.
    pub pins: Vec<(String, u64)>,
}

fn framed<'a>(w: &Workload, body: &'a [u8]) -> Body<'a> {
    if w.chunked {
        Body::Chunked(body)
    } else {
        Body::Full(body)
    }
}

impl Prepared {
    pub fn body(&self) -> Body<'_> {
        framed(self.workload, &self.body)
    }

    /// Response payload bytes ÷ request body bytes over one full query
    /// cycle — exact, because every response is verified byte for byte.
    pub fn bytes_out_per_byte_in(&self) -> f64 {
        let out: u64 = self.cells.iter().map(|c| c.expect_len).sum();
        out as f64 / (self.body.len() * self.cells.len()) as f64
    }
}

pub fn prepare(dtd: &Arc<Dtd>, w: &'static Workload, seed: u64) -> Result<Prepared, String> {
    let body = document(dtd, w);
    let mut pins = vec![(format!("{}.doc", w.name), fnv1a(&body))];
    let mut cells = Vec::new();
    let mut out = Vec::new();
    for (i, query) in queries(w).into_iter().enumerate() {
        let artifact = QueryArtifact::compile(dtd, &query).map_err(|e| format!("{query}: {e}"))?;
        match w.endpoint {
            Endpoint::Prune => {
                reference_prune(&artifact, &body, &mut out);
            }
            Endpoint::Query => {
                reference_query(&artifact, &body, &mut out);
            }
        }
        pins.push((format!("{}.ref{i:02}", w.name), fnv1a(&out)));
        cells.push(Cell {
            query,
            artifact,
            head: Vec::new(),
            expect_len: out.len() as u64,
            expect_fnv: fnv1a(&out),
        });
    }
    // Fisher–Yates from the seed: the cycling order, fixed for the run.
    let mut rng = SplitMix64::new(seed);
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.below(i + 1));
    }
    Ok(Prepared {
        workload: w,
        body,
        cells,
        pins,
    })
}

impl Prepared {
    /// Builds the request heads once the daemon has named the DTD.
    pub fn bind(&mut self, dtd_id: &str) {
        let body = framed(self.workload, &self.body);
        for cell in &mut self.cells {
            let target = format!(
                "/v1/{}?dtd={dtd_id}&query={}",
                self.workload.endpoint.label(),
                urlencode(&cell.query)
            );
            cell.head = request_head("POST", &target, body);
        }
    }
}
