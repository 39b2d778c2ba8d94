//! Reproduces **Table 1**: for every XMark (QM) and XPathMark (QP) query —
//!
//! * the largest document processable *thanks to pruning* within the
//!   memory budget (paper: a 512 MB machine; here `XPROJ_BUDGET_MB`),
//! * the size of its pruned version and the memory used to process it,
//! * the pruned-document size as % of a reference document
//!   (paper: 56 MB; here scale `XPROJ_SCALE`), and
//! * the speedup of query evaluation on the pruned document.
//!
//! ```sh
//! cargo run --release -p xproj-bench --bin table1
//! XPROJ_SCALE=8 XPROJ_MAX_SCALE=32 XPROJ_BUDGET_MB=512 \
//!   cargo run --release -p xproj-bench --bin table1   # closer to paper size
//! ```

use xproj_bench::{document_at, mb, process, pruned_document, workload, AnyQuery, Knobs};
use xproj_core::StaticAnalyzer;
use xproj_xmark::auction_dtd;

fn main() {
    let knobs = Knobs::from_env();
    let dtd = auction_dtd();
    let mut sa = StaticAnalyzer::new(&dtd);

    eprintln!(
        "# Table 1 reproduction — budget {} MB, reference scale {}, ladder {:?}",
        knobs.budget_bytes >> 20,
        knobs.ref_scale,
        knobs.ladder
    );

    // Reference document for the relative columns.
    eprintln!("# generating reference document …");
    let ref_xml = document_at(&dtd, knobs.ref_scale);
    eprintln!("# reference document: {:.2} MB", mb(ref_xml.len()));

    // Ladder documents for the absolute columns.
    let ladder_docs: Vec<(f64, String)> = knobs
        .ladder
        .iter()
        .map(|&s| {
            eprintln!("# generating ladder document at scale {s} …");
            (s, document_at(&dtd, s))
        })
        .collect();

    // Baseline: largest document processable *without* pruning (the paper
    // reports 68 MB for all queries on the 512 MB machine). We probe with
    // a representative cheap query so the limit reflects DOM size.
    let probe = AnyQuery::compile(&workload()[22]); // QP19-ish cheap path
    let mut baseline = 0.0f64;
    let mut baseline_bytes = 0usize;
    for (s, xml) in &ladder_docs {
        let p = process(xml, &probe);
        if p.peak_bytes <= knobs.budget_bytes {
            baseline = *s;
            baseline_bytes = xml.len();
        }
    }
    eprintln!(
        "# without pruning, the largest processable document is {:.1} MB (scale {})",
        mb(baseline_bytes),
        baseline
    );

    println!(
        "{:<6} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "query", "orig(MB)", "pruned(MB)", "mem(MB)", "size%", "speedup"
    );

    for bq in workload() {
        let q = AnyQuery::compile(&bq);
        let projector = q.projector(&mut sa, bq.text);

        // ---- absolute columns: climb the ladder under the budget ----
        let mut best: Option<(usize, usize, usize)> = None; // orig, pruned, mem
        for (_, xml) in &ladder_docs {
            let pruned = pruned_document(xml, &dtd, &projector).0;
            let p = process(&pruned, &q);
            if p.peak_bytes <= knobs.budget_bytes {
                best = Some((xml.len(), pruned.len(), p.peak_bytes));
            } else {
                break;
            }
        }
        let (orig_b, pruned_b, mem_b) = best.unwrap_or((0, 0, 0));

        // ---- relative columns on the reference document ----
        let ref_pruned = pruned_document(&ref_xml, &dtd, &projector).0;
        let on_orig = process(&ref_xml, &q);
        let on_pruned = process(&ref_pruned, &q);
        assert_eq!(
            on_orig.fingerprint, on_pruned.fingerprint,
            "{}: pruning changed the result!",
            bq.id
        );
        let size_pct = 100.0 * ref_pruned.len() as f64 / ref_xml.len() as f64;
        let speedup =
            on_orig.total_time().as_secs_f64() / on_pruned.total_time().as_secs_f64().max(1e-9);

        println!(
            "{:<6} {:>9.1} {:>9.2} {:>8.1} {:>7.1}% {:>7.1}x",
            bq.id,
            mb(orig_b),
            mb(pruned_b),
            mb(mem_b),
            size_pct,
            speedup
        );
    }

    println!(
        "\n(baseline: largest document processable without pruning: {:.1} MB)",
        mb(baseline_bytes)
    );
}
