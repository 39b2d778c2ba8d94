//! Retention-model accuracy: for every XMark/XPathMark query, the
//! analyzer's *predicted* retention (structural and sample-calibrated)
//! against the retention *observed* by actually pruning a generated
//! auction document.
//!
//! ```sh
//! cargo run --release -p xproj-bench --bin retention
//! XPROJ_SCALE=4 cargo run --release -p xproj-bench --bin retention
//! ```
//!
//! Columns: query id, projector size, observed retention, structural
//! prediction (and its error factor ×), calibrated prediction (and its
//! error factor ×). The error factor is `max(p, o) / min(p, o)` — 1.00
//! is a perfect prediction, and the analyzer's acceptance band is 2×.

use xproj_analyzer::{analyze, AnalysisOptions};
use xproj_bench::{document_at, pruned_document, workload};
use xproj_xmark::auction_dtd;

fn error_factor(predicted: f64, observed: f64) -> f64 {
    if predicted <= 0.0 || observed <= 0.0 {
        return f64::INFINITY;
    }
    (predicted / observed).max(observed / predicted)
}

fn main() {
    let scale: f64 = std::env::var("XPROJ_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let dtd = auction_dtd();
    eprintln!("# generating auction document at scale {scale} …");
    let xml = document_at(&dtd, scale);
    eprintln!("# document: {} bytes", xml.len());

    println!(
        "{:<6} {:>4}  {:>9}  {:>10} {:>6}  {:>10} {:>6}",
        "query", "|π|", "observed", "structural", "err×", "calibrated", "err×"
    );
    let mut worst_cal = 0.0f64;
    let mut within_2x = 0usize;
    let mut total = 0usize;
    for q in workload() {
        let queries = vec![q.text.to_string()];
        let structural = match analyze(&dtd, &queries, &AnalysisOptions::default()) {
            Ok(a) => a,
            Err(e) => {
                println!("{:<6} skipped: {e}", q.id);
                continue;
            }
        };
        let opts = AnalysisOptions { sample: Some(&xml) };
        let calibrated = analyze(&dtd, &queries, &opts).expect("same workload");
        let observed = pruned_document(&xml, &dtd, &structural.provenance.projector)
            .1
            .retention();
        let sp = structural.retention.predicted;
        let cp = calibrated.retention.predicted;
        let ce = error_factor(cp, observed);
        println!(
            "{:<6} {:>4}  {:>8.2}%  {:>9.2}% {:>5.2}x  {:>9.2}% {:>5.2}x",
            q.id,
            structural.provenance.projector.len(),
            observed * 100.0,
            sp * 100.0,
            error_factor(sp, observed),
            cp * 100.0,
            ce,
        );
        total += 1;
        worst_cal = worst_cal.max(ce);
        if ce <= 2.0 {
            within_2x += 1;
        }
    }
    println!(
        "\n{within_2x} of {total} calibrated predictions within the 2x band \
         (worst {worst_cal:.2}x)"
    );
}
