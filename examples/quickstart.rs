//! Quickstart: infer a projector for one query and prune a document.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use xml_projection::core::StaticAnalyzer;
use xml_projection::dtd::parse_dtd;
use xml_projection::Projection;

fn main() {
    // 1. A DTD — the schema the documents are valid against.
    let dtd = parse_dtd(
        "<!ELEMENT bib (book*)>\
         <!ELEMENT book (title, author*, price?)>\
         <!ATTLIST book year CDATA #IMPLIED>\
         <!ELEMENT title (#PCDATA)>\
         <!ELEMENT author (#PCDATA)>\
         <!ELEMENT price (#PCDATA)>",
        "bib",
    )
    .expect("DTD parses");

    // 2. The query we intend to run.
    let query = "/bib/book[price > 20]/title";

    // 3. Static analysis: which DTD names can possibly matter?
    let mut analyzer = StaticAnalyzer::new(&dtd);
    let projector = analyzer.project_query(query).expect("query analyses");
    println!("projector for {query}:");
    println!("  {{{}}}", projector.labels(&dtd).join(", "));

    // 4. Prune a document in one streaming pass — authors disappear.
    let doc = "<bib>\
        <book year=\"1320\"><title>Commedia</title><author>Dante</author><price>25</price></book>\
        <book><title>Rime</title><author>Dante</author><price>8</price></book>\
        </bib>";
    let projection = Projection::from_projector(&dtd, projector);
    let (pruned, stats) = projection.prune_str(doc).expect("document prunes");

    println!("\noriginal ({} bytes):\n  {doc}", doc.len());
    println!(
        "\npruned   ({} bytes, {:.0}% of original):\n  {pruned}",
        pruned.len(),
        100.0 * stats.retention(),
    );

    // 5. The query gives the same answer on both documents.
    let original_doc = xml_projection::xmltree::parse(doc).unwrap();
    let pruned_doc = xml_projection::xmltree::parse(&pruned).unwrap();
    let path = match xml_projection::xpath::parse_xpath(query).unwrap() {
        xml_projection::xpath::ast::Expr::Path(p) => p,
        _ => unreachable!(),
    };
    let on_original = xml_projection::xpath::evaluate(&original_doc, &path).unwrap();
    let on_pruned = xml_projection::xpath::evaluate(&pruned_doc, &path).unwrap();
    println!(
        "\nquery selects {} node(s) on the original, {} on the pruned document",
        on_original.len(),
        on_pruned.len()
    );
    assert_eq!(on_original.len(), on_pruned.len());
}
