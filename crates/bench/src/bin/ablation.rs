//! Ablation: what does the *context* (κ) machinery of Figure 1 buy?
//!
//! The paper motivates contexts with the upward-axis precision example in
//! §4.1 (`self::c/child::a/parent::node()` typed `{X}` instead of
//! `{X, W}`). This binary re-runs the whole workload with contexts
//! disabled (upward axes fall back to the raw `A_E`, context restriction
//! becomes the identity) and reports the projector growth and the pruned
//! document growth — both stay sound, only less precise.
//!
//! ```sh
//! cargo run --release -p xproj-bench --bin ablation
//! ```

use xproj_bench::{document_at, mb, pruned_document, workload, AnyQuery, Knobs};
use xproj_core::StaticAnalyzer;
use xproj_xmark::auction_dtd;

fn main() {
    let knobs = Knobs::from_env();
    let dtd = auction_dtd();
    let xml = document_at(&dtd, knobs.ref_scale);
    eprintln!(
        "# Ablation — contexts on/off, reference document {:.2} MB",
        mb(xml.len())
    );

    println!(
        "{:<6} {:>10} {:>10} {:>12} {:>12}",
        "query", "π (ctx)", "π (no-ctx)", "size% (ctx)", "size% (no)"
    );
    let mut affected = 0usize;
    let mut total = 0usize;
    for bq in workload() {
        let q = AnyQuery::compile(&bq);

        let mut with_ctx = StaticAnalyzer::new(&dtd);
        let p_ctx = q.projector(&mut with_ctx, bq.text);

        let mut no_ctx = StaticAnalyzer::new(&dtd);
        no_ctx.set_use_contexts(false);
        let p_no = q.projector(&mut no_ctx, bq.text);

        assert!(
            p_ctx.names().is_subset(p_no.names()),
            "{}: contexts must only shrink the projector",
            bq.id
        );

        let pruned_ctx = pruned_document(&xml, &dtd, &p_ctx).0.len();
        let pruned_no = pruned_document(&xml, &dtd, &p_no).0.len();
        total += 1;
        if p_no.len() > p_ctx.len() {
            affected += 1;
        }
        println!(
            "{:<6} {:>10} {:>10} {:>11.1}% {:>11.1}%",
            bq.id,
            p_ctx.len(),
            p_no.len(),
            100.0 * pruned_ctx as f64 / xml.len() as f64,
            100.0 * pruned_no as f64 / xml.len() as f64,
        );
    }
    println!(
        "\ncontexts shrank the projector for {affected}/{total} queries \
         (they matter exactly where upward axes / predicates navigate back up)"
    );
}
