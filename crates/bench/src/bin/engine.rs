//! Benchmarks for the serving engine: chunked push-mode pruning vs the
//! whole-string pruner, and projector-cache hit vs miss cost.
//!
//! Emits the workspace's JSON-lines format (one `{"group":…,"bench":…}`
//! object per line), same as the `[[bench]]` binaries:
//!
//! ```sh
//! cargo run --release -p xproj-bench --bin engine | grep '^{'
//! ```
//!
//! Knobs: `XPROJ_BENCH_SCALE` (XMark scale factor, default 0.1),
//! `XPROJ_BENCH_SAMPLES`, `XPROJ_BENCH_WARMUP` (see `xproj_bench::Timer`).

use xproj_bench::Timer;
use xproj_core::{prune_str, StaticAnalyzer};
use xproj_engine::{ArtifactCache, ChunkedPruner};
use xproj_xmark::{auction_dtd, generate_auction, XMarkConfig};

fn main() {
    let scale: f64 = std::env::var("XPROJ_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.1);
    let timer = Timer::from_env();
    let dtd = std::sync::Arc::new(auction_dtd());
    let xml = generate_auction(&dtd, &XMarkConfig::at_scale(scale)).to_xml();
    eprintln!(
        "# engine bench: xmark scale {scale}, {:.1} MiB document",
        xml.len() as f64 / (1 << 20) as f64
    );

    let mut sa = StaticAnalyzer::new(&dtd);
    let query = "/site/people/person/name";
    let projector = sa.project_query(query).unwrap();

    // ---- chunked pruning throughput vs the in-memory baseline ----
    timer.bench_bytes("chunked_prune", "whole_string_baseline", xml.len(), || {
        prune_str(&xml, &dtd, &projector).unwrap().output.len()
    });
    for chunk_size in [4 * 1024, 64 * 1024, 1024 * 1024] {
        let label = format!("chunked_{}k", chunk_size / 1024);
        timer.bench_bytes("chunked_prune", &label, xml.len(), || {
            let mut out = Vec::with_capacity(xml.len() / 4);
            let stats = ChunkedPruner::new(&*dtd, &projector, &mut out)
                .run(xml.as_bytes(), chunk_size)
                .unwrap();
            (out.len(), stats.peak_resident_bytes)
        });
    }

    // ---- artifact cache: miss (inference + lowering) vs hit (Arc clone) ----
    let queries = [
        "/site/people/person/name",
        "//keyword",
        "/site/closed_auctions/closed_auction/price",
        "/site/regions/europe/item/description",
    ];
    timer.bench("projector_cache", "miss_cold_inference", || {
        let cache = ArtifactCache::new(16); // fresh cache: every lookup misses
        for q in queries {
            cache.get_or_compile(&dtd, q).unwrap();
        }
        cache.stats().misses
    });
    let warm = ArtifactCache::new(16);
    for q in queries {
        warm.get_or_compile(&dtd, q).unwrap();
    }
    timer.bench("projector_cache", "hit_warm_lookup", || {
        for q in queries {
            warm.get_or_compile(&dtd, q).unwrap();
        }
        warm.stats().hits
    });
    let s = warm.stats();
    println!(
        "{{\"group\":\"projector_cache\",\"bench\":\"warm_cache_counters\",\"hits\":{},\
         \"misses\":{},\"evictions\":{},\"entries\":{},\"hit_rate\":{:.4}}}",
        s.hits,
        s.misses,
        s.evictions,
        s.entries,
        s.hit_rate()
    );
}
