//! Schema-less pruning via dataguides — the paper's conclusion sketches
//! this extension: when no DTD is available, infer a local tree grammar
//! (a dataguide) from the document itself, then run the same projection
//! machinery against it.
//!
//! ```sh
//! cargo run --release --example schemaless
//! ```

use xml_projection::dtd::infer_dtd;
use xml_projection::xmark::{auction_dtd, generate_auction, XMarkConfig};
use xml_projection::Projection;

fn main() {
    // Pretend we received this document with no schema attached.
    let real_dtd = auction_dtd();
    let doc = generate_auction(&real_dtd, &XMarkConfig::at_scale(0.3));
    let xml = doc.to_xml();
    println!(
        "document: {:.2} MB, no DTD supplied",
        xml.len() as f64 / 1e6
    );

    // Infer a dataguide grammar from the document…
    let guide = infer_dtd(&doc).expect("document has a root");
    println!(
        "inferred dataguide grammar: {} names (hand-written DTD has {})",
        guide.name_count(),
        real_dtd.name_count()
    );

    // …and prune against it, exactly as with a real DTD.
    let workload = [
        "/site/people/person[phone or homepage]/name",
        "//open_auction/bidder/increase",
    ];
    let with_guide = Projection::for_queries(&guide, workload).unwrap();
    let (_, pruned_guide) = with_guide.prune_str(&xml).unwrap();

    // Compare with the projector from the genuine DTD.
    let with_dtd = Projection::for_queries(&real_dtd, workload).unwrap();
    let (_, pruned_dtd) = with_dtd.prune_str(&xml).unwrap();

    println!(
        "pruned with dataguide: {:.1}% of the original",
        100.0 * pruned_guide.retention()
    );
    println!(
        "pruned with real DTD:  {:.1}% of the original",
        100.0 * pruned_dtd.retention()
    );
    println!(
        "\nthe dataguide's star-closed content models lose ordering and\n\
         cardinality information, so its projector can be (slightly) larger,\n\
         but pruning stays sound — the trade-off §7 of the paper describes."
    );
}
