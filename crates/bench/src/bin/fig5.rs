//! Reproduces **Figure 5**: peak memory used to process a query on the
//! original vs. the pruned document, for every workload query.
//!
//! The paper's headline observation — memory gains exceed size gains,
//! because pruning removes whole *kinds* of nodes the engine would
//! otherwise track — shows up here as `mem ratio > size ratio` for the
//! description-light queries.
//!
//! ```sh
//! cargo run --release -p xproj-bench --bin fig5
//! ```

use xproj_bench::{document_at, mb, process, pruned_document, workload, AnyQuery, Knobs};
use xproj_core::StaticAnalyzer;
use xproj_xmark::auction_dtd;

fn main() {
    let knobs = Knobs::from_env();
    let dtd = auction_dtd();
    let mut sa = StaticAnalyzer::new(&dtd);
    let xml = document_at(&dtd, knobs.ref_scale);
    eprintln!(
        "# Figure 5 — peak memory on a {:.2} MB document (scale {})",
        mb(xml.len()),
        knobs.ref_scale
    );

    println!(
        "{:<6} {:>10} {:>11} {:>9} {:>9}",
        "query", "orig(MB)", "pruned(MB)", "mem-gain", "size-gain"
    );
    for bq in workload() {
        let q = AnyQuery::compile(&bq);
        let projector = q.projector(&mut sa, bq.text);
        let pruned = pruned_document(&xml, &dtd, &projector).0;
        let a = process(&xml, &q);
        let b = process(&pruned, &q);
        assert_eq!(a.fingerprint, b.fingerprint, "{}", bq.id);
        let mem_gain = a.peak_bytes as f64 / (b.peak_bytes.max(1)) as f64;
        let size_gain = xml.len() as f64 / pruned.len().max(1) as f64;
        println!(
            "{:<6} {:>10.1} {:>11.1} {:>8.1}x {:>8.1}x",
            bq.id,
            mb(a.peak_bytes),
            mb(b.peak_bytes),
            mem_gain,
            size_gain
        );
    }
}
