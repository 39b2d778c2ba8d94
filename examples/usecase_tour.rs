//! Tour of the XML Query Use Cases corpus (§4.1): for each DTD, report
//! the Def. 4.3 properties — which decide whether the completeness
//! theorem applies — and show a pruning round trip.
//!
//! ```sh
//! cargo run --release --example usecase_tour
//! ```

use xml_projection::core::{prune_document, StaticAnalyzer};
use xml_projection::dtd::generate::{generate, GenConfig};
use xml_projection::dtd::{props, validate};
use xml_projection::xmark::{parse_use_case, use_case_dtds};

fn main() {
    println!(
        "{:<16} {:>8} {:>12} {:>14} {:>10} {:>12}",
        "use case", "names", "*-guarded", "non-recursive", "parent-ua", "complete?"
    );
    for uc in use_case_dtds() {
        let dtd = parse_use_case(&uc);
        let p = props::properties(&dtd);
        println!(
            "{:<16} {:>8} {:>12} {:>14} {:>10} {:>12}",
            uc.name,
            dtd.name_count(),
            p.star_guarded,
            p.non_recursive,
            p.parent_unambiguous,
            if p.completeness_ready() {
                "yes"
            } else {
                "sound only"
            },
        );
    }

    // Pruning works identically across the corpus; demonstrate on one
    // recursive and one non-recursive DTD.
    for name in ["XMP-bib", "TREE-report"] {
        let uc = use_case_dtds()
            .into_iter()
            .find(|u| u.name == name)
            .expect("known corpus member");
        let dtd = parse_use_case(&uc);
        let mut sa = StaticAnalyzer::new(&dtd);
        let projector = sa.project_query("//title").unwrap();
        let doc = generate(&dtd, 7, &GenConfig::default());
        let interp = validate(&doc, &dtd).expect("generated documents validate");
        let pruned = prune_document(&doc, &dtd, &interp, &projector);
        println!(
            "\n[{name}] //title keeps {{{}}} — {} of {} nodes survive",
            projector.labels(&dtd).join(", "),
            pruned.len(),
            doc.len()
        );
    }
}
