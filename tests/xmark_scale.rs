//! Heavy, opt-in scale test: the full workload at a realistic document
//! size, end-to-end sound. Run with:
//!
//! ```sh
//! cargo test --release --test xmark_scale -- --ignored
//! ```

use xml_projection::core::StaticAnalyzer;
use xml_projection::xmark::{auction_dtd, generate_auction, xpathmark_queries, XMarkConfig};
use xml_projection::xpath::ast::Expr;
use xml_projection::Projection;

#[test]
#[ignore = "generates a ~25 MB document; run explicitly in release mode"]
fn full_workload_at_scale_20() {
    let dtd = auction_dtd();
    let doc = generate_auction(&dtd, &XMarkConfig::at_scale(20.0));
    let xml = doc.to_xml();
    assert!(xml.len() > 20 << 20, "{} bytes", xml.len());
    let mut sa = StaticAnalyzer::new(&dtd);
    for q in xpathmark_queries() {
        let projector = sa.project_query(q.text).unwrap();
        let (output, stats) = Projection::from_projector(&dtd, projector)
            .prune_str(&xml)
            .unwrap();
        // pruned output re-parses and yields identical results
        let pruned = xml_projection::xmltree::parse(&output).unwrap();
        let Expr::Path(p) = xml_projection::xpath::parse_xpath(q.text).unwrap() else {
            unreachable!()
        };
        let a = xml_projection::xpath::evaluate(&doc, &p).unwrap().len();
        let b = xml_projection::xpath::evaluate(&pruned, &p).unwrap().len();
        assert_eq!(a, b, "{}", q.id);
        // streaming memory bound
        let depth = stats.counters.max_depth;
        assert!(depth < 40, "{}: depth {depth}", q.id);
    }
}
