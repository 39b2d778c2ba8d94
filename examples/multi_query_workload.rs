//! Multi-query workloads (§5): one projector serves a whole set of
//! queries — the capability the paper highlights over Bressan et al.'s
//! one-query-at-a-time pruning.
//!
//! ```sh
//! cargo run --release --example multi_query_workload
//! ```

use xml_projection::xmark::{auction_dtd, generate_auction, XMarkConfig};
use xml_projection::Projection;

fn main() {
    let dtd = auction_dtd();
    let doc = generate_auction(&dtd, &XMarkConfig::at_scale(0.3));
    let xml = doc.to_xml();
    println!("document: {:.2} MB", xml.len() as f64 / 1e6);

    // A dashboard-style workload over the people subtree plus one
    // auction query — mixing XPath and XQuery.
    let workload = [
        "/site/people/person[phone or homepage]/name",
        "//person[profile/@income]/name",
        "for $p in /site/people/person where empty($p/homepage/text()) return <p>{$p/name/text()}</p>",
        "//open_auction/bidder/increase",
    ];

    // Per-query projectors…
    println!("\nper-query pruning:");
    for q in &workload {
        let proj = Projection::for_queries(&dtd, [*q]).unwrap();
        let (_, stats) = proj.prune_str(&xml).unwrap();
        println!(
            "  {:>5.1}%  ({} names)  {}",
            100.0 * stats.retention(),
            proj.projector().len(),
            q
        );
    }

    // …versus the single union projector for the whole workload.
    let union = Projection::for_queries(&dtd, workload).unwrap();
    let (_, stats) = union.prune_str(&xml).unwrap();
    println!(
        "\nunion projector: {} of {} names, pruned document is {:.1}% of the original",
        union.projector().len(),
        dtd.name_count(),
        100.0 * stats.retention()
    );
    println!("kept names: {}", union.projector().labels(&dtd).join(", "));

    // The union projector still answers every query exactly (checked in
    // the test suite); here we just show the document shrank although it
    // serves four different queries at once.
    assert!(stats.retention() < 0.6);
}
