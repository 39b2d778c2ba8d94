//! The whole-string cases of the pruning pass: a document as one
//! [`ChunkedPruner`](crate::ChunkedPruner) feed, fast-forward off
//! (`plain`), on (`fast`) or validating (`validated`), against the
//! in-memory Def. 2.7 prune, the tree validator and each other.

#[cfg(test)]
mod tests {
    use crate::chunked::tests::one_feed;
    use crate::{EngineError, EngineStats};
    use xproj_core::{Projector, StaticAnalyzer, StreamPruneError};
    use xproj_dtd::{parse_dtd, Dtd};

    type Pruned = Result<(String, EngineStats), EngineError>;

    pub(super) fn plain(doc: &str, dtd: &Dtd, p: &Projector) -> Pruned {
        one_feed(doc, dtd, p, false, false)
    }

    fn fast(doc: &str, dtd: &Dtd, p: &Projector) -> Pruned {
        one_feed(doc, dtd, p, true, false)
    }

    pub(super) fn validated(doc: &str, dtd: &Dtd, p: &Projector) -> Pruned {
        one_feed(doc, dtd, p, false, true)
    }

    const DTD: &str = "\
        <!ELEMENT bib (book*)>\
        <!ELEMENT book (title, author*, price?)>\
        <!ATTLIST book id CDATA #IMPLIED>\
        <!ELEMENT title (#PCDATA)>\
        <!ELEMENT author (#PCDATA)>\
        <!ELEMENT price (#PCDATA)>";

    const DOC: &str = "<bib>\
        <book id=\"b1\"><title>T1</title><author>A</author><price>10</price></book>\
        <book id=\"b2\"><title>T2</title></book>\
        </bib>";

    #[test]
    fn stream_matches_in_memory_prune() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        for q in ["/bib/book/title", "/bib/book[price]/author", "//price"] {
            let p = sa.project_query(q).unwrap();
            let streamed = plain(DOC, &dtd, &p).unwrap();
            // reparse + in-memory prune must agree
            let doc = xproj_xmltree::parse_with_interner(DOC, dtd.tags.clone()).unwrap();
            let interp = xproj_dtd::validate(&doc, &dtd).unwrap();
            let in_mem = xproj_core::prune_document(&doc, &dtd, &interp, &p);
            assert_eq!(streamed.0, in_mem.to_xml(), "query {q}");
        }
    }

    #[test]
    fn stats_reflect_pruning() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/title").unwrap();
        let r = plain(DOC, &dtd, &p).unwrap();
        assert_eq!(r.1.counters.elements_kept, 5); // bib, 2×book, 2×title
        assert_eq!(r.1.counters.elements_pruned, 2); // author, price
        assert_eq!(r.1.counters.text_kept, 2); // the two titles
        assert!(r.1.retention() < 1.0);
        assert_eq!(r.1.counters.max_depth, 3);
    }

    #[test]
    fn whitespace_outside_kept_regions() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/title").unwrap();
        let r = plain(
            "<bib>\n  <book><title>T</title><author>A</author></book>\n</bib>",
            &dtd,
            &p,
        )
        .unwrap();
        // bib allows no text: whitespace dropped
        assert_eq!(r.0, "<bib><book><title>T</title></book></bib>");
    }

    #[test]
    fn undeclared_element_is_an_error() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        let err = plain("<bib><pamphlet/></bib>", &dtd, &p).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Prune(StreamPruneError::UndeclaredElement(_))
        ));
    }

    #[test]
    fn malformed_xml_is_an_error() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        assert!(matches!(
            plain("<bib><book>", &dtd, &p),
            Err(EngineError::Xml(_))
        ));
    }

    #[test]
    fn empty_projector_streams_to_empty() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::empty(&dtd);
        let r = plain(DOC, &dtd, &p).unwrap();
        assert_eq!(r.0, "");
        assert_eq!(r.1.counters.elements_kept, 0);
    }

    #[test]
    fn doctype_and_comments_are_dropped() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        let r = plain("<!DOCTYPE bib SYSTEM \"b.dtd\"><!-- hi --><bib/>", &dtd, &p).unwrap();
        assert_eq!(r.0, "<bib/>");
    }

    #[test]
    fn fast_path_matches_reference_on_every_query() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        for q in [
            "/bib/book/title",
            "/bib/book[price]/author",
            "//price",
            "/bib",
        ] {
            let p = sa.project_query(q).unwrap();
            let (slow_out, slow) = plain(DOC, &dtd, &p).unwrap();
            let (fast_out, fast) = fast(DOC, &dtd, &p).unwrap();
            let (fast, slow) = (fast.counters, slow.counters);
            assert_eq!(fast_out, slow_out, "query {q}");
            assert_eq!(fast.elements_kept, slow.elements_kept, "query {q}");
            assert_eq!(fast.elements_pruned, slow.elements_pruned, "query {q}");
            assert_eq!(fast.text_kept, slow.text_kept, "query {q}");
            assert_eq!(fast.max_depth, slow.max_depth, "query {q}");
        }
    }

    /// For `/bib/book/title`, the `author` subtrees are
    /// fast-forward-eligible (no name reachable from `author` is in π);
    /// the raw scanner must step over markup full of fake end tags.
    #[test]
    fn fast_path_skips_subtrees_with_tricky_markup() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/title").unwrap();
        let doc = "<bib><book id=\"b1\"><title>T</title>\
                   <author a=\"a &gt; b\"><!-- </author> -->\
                   <price><![CDATA[</author>]]></price>A&amp;B</author>\
                   <author/></book></bib>";
        let slow = plain(doc, &dtd, &p).unwrap();
        let fast = fast(doc, &dtd, &p).unwrap();
        assert_eq!(fast.0, slow.0);
        assert_eq!(fast.0, "<bib><book id=\"b1\"><title>T</title></book></bib>");
        assert_eq!(
            fast.1.counters.elements_pruned,
            slow.1.counters.elements_pruned
        );
    }

    #[test]
    fn fast_path_reports_truncation_inside_skipped_subtree() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/title").unwrap();
        assert!(matches!(
            fast("<bib><book><title>T</title><author>unfinished", &dtd, &p),
            Err(EngineError::Xml(_))
        ));
    }
}

#[cfg(test)]
mod validate_tests {
    use super::tests::{plain, validated};
    use crate::EngineError;
    use xproj_core::{Projector, StaticAnalyzer, StreamPruneError};
    use xproj_dtd::parse_dtd;

    const DTD: &str = "\
        <!ELEMENT bib (book*)>\
        <!ELEMENT book (title, author*, price?)>\
        <!ELEMENT title (#PCDATA)>\
        <!ELEMENT author (#PCDATA)>\
        <!ELEMENT price (#PCDATA)>";

    #[test]
    fn valid_document_prunes_identically() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/title").unwrap();
        let doc = "<bib><book><title>T</title><author>A</author></book></bib>";
        let plain = plain(doc, &dtd, &p).unwrap();
        let validated = validated(doc, &dtd, &p).unwrap();
        assert_eq!(plain.0, validated.0);
        assert_eq!(
            plain.1.counters.elements_kept,
            validated.1.counters.elements_kept
        );
    }

    #[test]
    fn invalid_content_detected_even_inside_pruned_subtrees() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("/bib/book/title").unwrap();
        // author before title: invalid, although author is pruned anyway
        let doc = "<bib><book><author>A</author><title>T</title></book></bib>";
        assert!(plain(doc, &dtd, &p).is_ok()); // plain pruner ignores it
        let err = validated(doc, &dtd, &p).unwrap_err();
        assert!(
            matches!(err, EngineError::Prune(StreamPruneError::Xml(m)) if m.contains("not allowed"))
        );
    }

    #[test]
    fn missing_required_child_detected() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        let err = validated("<bib><book><author>A</author></book></bib>", &dtd, &p).unwrap_err();
        assert!(matches!(err, EngineError::Prune(StreamPruneError::Xml(_))));
    }

    /// Children in order but incomplete: no step fails, so only the
    /// end tag's acceptance check can reject the element.
    #[test]
    fn incomplete_content_fails_at_the_end_tag() {
        let dtd = parse_dtd(
            "<!ELEMENT bib (book*)> <!ELEMENT book (title, author+)>\
             <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)>",
            "bib",
        )
        .unwrap();
        let doc = "<bib><book><title>T</title></book></bib>";
        let err = validated(doc, &dtd, &Projector::full(&dtd)).unwrap_err();
        assert!(
            matches!(&err, EngineError::Prune(StreamPruneError::Xml(m))
                if m.contains("content of 'book' does not match")),
            "{err:?}"
        );
    }

    #[test]
    fn wrong_root_detected() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        assert!(validated("<book/>", &dtd, &p).is_err());
    }

    #[test]
    fn stray_text_detected() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        assert!(validated("<bib>oops</bib>", &dtd, &p).is_err());
        // U+00A0 is character data, not XML whitespace.
        assert!(validated("<bib>\u{A0}</bib>", &dtd, &p).is_err());
    }

    #[test]
    fn indentation_is_not_text() {
        let dtd = parse_dtd(DTD, "bib").unwrap();
        let p = Projector::full(&dtd);
        let doc = "<bib>\n<book>\r\n\t<title>T</title> </book>\n</bib>";
        assert!(validated(doc, &dtd, &p).is_ok());
    }

    #[test]
    fn agrees_with_tree_validation_on_xmark() {
        let dtd = xproj_xmark_stub::auction_dtd();
        let doc = xproj_xmark_stub::generate(&dtd, 0.05);
        let xml = doc.to_xml();
        let mut sa = StaticAnalyzer::new(&dtd);
        let p = sa.project_query("//keyword").unwrap();
        let r = validated(&xml, &dtd, &p).unwrap();
        let plain = plain(&xml, &dtd, &p).unwrap();
        assert_eq!(r.0, plain.0);
    }

    /// Tiny local stand-ins to avoid a dev-dependency cycle with the
    /// xmark crate: a miniature auction-like recursive DTD and generator.
    mod xproj_xmark_stub {
        use xproj_dtd::generate::{generate as gen, GenConfig};
        use xproj_dtd::{parse_dtd, Dtd};
        use xproj_xmltree::Document;

        pub fn auction_dtd() -> Dtd {
            parse_dtd(
                "<!ELEMENT site (item*)>\
                 <!ELEMENT item (name, description)>\
                 <!ELEMENT name (#PCDATA)>\
                 <!ELEMENT description (#PCDATA | keyword | bold)*>\
                 <!ELEMENT keyword (#PCDATA)>\
                 <!ELEMENT bold (#PCDATA | keyword)*>",
                "site",
            )
            .unwrap()
        }

        pub fn generate(dtd: &Dtd, _scale: f64) -> Document {
            gen(dtd, 7, &GenConfig::default())
        }
    }
}
