//! Reproduces **Figure 4**: query processing time (parse + evaluate) on
//! the original vs. the pruned document, for every workload query.
//!
//! ```sh
//! cargo run --release -p xproj-bench --bin fig4
//! ```

use xproj_bench::{document_at, mb, process, pruned_document, workload, AnyQuery, Knobs};
use xproj_core::StaticAnalyzer;
use xproj_xmark::auction_dtd;

fn bar(x: f64, max: f64, width: usize) -> String {
    let n = ((x / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

fn main() {
    let knobs = Knobs::from_env();
    let dtd = auction_dtd();
    let mut sa = StaticAnalyzer::new(&dtd);
    let xml = document_at(&dtd, knobs.ref_scale);
    eprintln!(
        "# Figure 4 — processing time on a {:.2} MB document (scale {})",
        mb(xml.len()),
        knobs.ref_scale
    );

    let mut rows = Vec::new();
    for bq in workload() {
        let q = AnyQuery::compile(&bq);
        let projector = q.projector(&mut sa, bq.text);
        let pruned = pruned_document(&xml, &dtd, &projector).0;
        let a = process(&xml, &q);
        let b = process(&pruned, &q);
        assert_eq!(a.fingerprint, b.fingerprint, "{}", bq.id);
        rows.push((
            bq.id,
            a.total_time().as_secs_f64(),
            b.total_time().as_secs_f64(),
        ));
    }

    let max = rows.iter().map(|r| r.1.max(r.2)).fold(0.0f64, f64::max);
    println!(
        "{:<6} {:>10} {:>10} {:>8}   orig #### / pruned ----",
        "query", "orig(ms)", "pruned(ms)", "ratio"
    );
    for (id, orig, pruned) in rows {
        println!(
            "{:<6} {:>10.2} {:>10.2} {:>7.1}x   {}",
            id,
            orig * 1e3,
            pruned * 1e3,
            orig / pruned.max(1e-9),
            bar(orig, max, 30)
        );
        println!("{:>39} {}", "", bar(pruned, max, 30).replace('#', "-"));
    }
}
