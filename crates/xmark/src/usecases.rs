//! The DTDs of the W3C *XML Query Use Cases* — the corpus the paper uses
//! to argue its Def. 4.3 preconditions are common in practice (§4.1:
//! "among the ten DTDs defined in the Use Cases, seven are both
//! non-recursive and \*-guarded, one is only \*-guarded, one is only
//! non-recursive, and just one does not satisfy either property";
//! parent-unambiguity holds for "five on the ten").
//!
//! These are transcriptions of the Use Cases schemas into DTD syntax
//! (the originals mix DTDs and prose descriptions).

use xproj_dtd::{parse_dtd, Dtd};

/// One Use-Case DTD.
pub struct UseCaseDtd {
    /// Use case name (XMP, TREE, …).
    pub name: &'static str,
    /// Root element.
    pub root: &'static str,
    /// DTD text.
    pub text: &'static str,
}

/// The corpus.
pub fn use_case_dtds() -> Vec<UseCaseDtd> {
    vec![
        UseCaseDtd {
            name: "XMP-bib",
            root: "bib",
            text: r#"
<!ELEMENT bib (book*)>
<!ELEMENT book (title, (author+ | editor+), publisher, price)>
<!ATTLIST book year CDATA #REQUIRED>
<!ELEMENT author (last, first)>
<!ELEMENT editor (last, first, affiliation)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT last (#PCDATA)>
<!ELEMENT first (#PCDATA)>
<!ELEMENT affiliation (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT price (#PCDATA)>
"#,
        },
        UseCaseDtd {
            name: "XMP-reviews",
            root: "reviews",
            text: r#"
<!ELEMENT reviews (entry*)>
<!ELEMENT entry (title, price, review)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT review (#PCDATA)>
"#,
        },
        UseCaseDtd {
            name: "XMP-prices",
            root: "prices",
            text: r#"
<!ELEMENT prices (book*)>
<!ELEMENT book (title, source, price)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT source (#PCDATA)>
<!ELEMENT price (#PCDATA)>
"#,
        },
        UseCaseDtd {
            name: "TREE-report",
            root: "report",
            text: r#"
<!ELEMENT report (title, section*)>
<!ELEMENT section (title, intro?, section*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT intro (para*)>
<!ELEMENT para (#PCDATA)>
"#,
        },
        UseCaseDtd {
            name: "SEQ-report",
            root: "medical_report",
            text: r#"
<!ELEMENT medical_report (section*)>
<!ELEMENT section (section.title, procedure*, incision*, observation*)>
<!ELEMENT section.title (#PCDATA)>
<!ELEMENT procedure (#PCDATA)>
<!ELEMENT incision (#PCDATA)>
<!ELEMENT observation (#PCDATA)>
"#,
        },
        UseCaseDtd {
            name: "R-census",
            root: "census",
            text: r#"
<!ELEMENT census (user*, document*)>
<!ELEMENT user (userid, rating?)>
<!ELEMENT document (docid, owner)>
<!ELEMENT userid (#PCDATA)>
<!ELEMENT rating (#PCDATA)>
<!ELEMENT docid (#PCDATA)>
<!ELEMENT owner (#PCDATA)>
"#,
        },
        UseCaseDtd {
            name: "NS-portfolio",
            root: "portfolio",
            text: r#"
<!ELEMENT portfolio (entry*)>
<!ELEMENT entry (symbol, company?, quote?)>
<!ELEMENT symbol (#PCDATA)>
<!ELEMENT company (#PCDATA)>
<!ELEMENT quote (#PCDATA)>
"#,
        },
        UseCaseDtd {
            name: "PARTS-partlist",
            root: "partlist",
            text: r#"
<!ELEMENT partlist (part*)>
<!ELEMENT part (partid, name, part*)>
<!ELEMENT partid (#PCDATA)>
<!ELEMENT name (#PCDATA)>
"#,
        },
        UseCaseDtd {
            name: "STRING-news",
            root: "news",
            text: r#"
<!ELEMENT news (news_item*)>
<!ELEMENT news_item (title, content, date, author?, news_agent)>
<!ELEMENT content (par | figure)*>
<!ELEMENT par (#PCDATA)>
<!ELEMENT figure (image, title?)>
<!ELEMENT image EMPTY>
<!ATTLIST image source CDATA #REQUIRED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT date (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT news_agent (#PCDATA)>
"#,
        },
        UseCaseDtd {
            name: "SGML-doc",
            root: "doc",
            text: r#"
<!ELEMENT doc (title, chapter*)>
<!ELEMENT chapter (title, (para | section)*)>
<!ELEMENT section (title?, (para | section)*)>
<!ELEMENT para (#PCDATA)>
<!ELEMENT title (#PCDATA)>
"#,
        },
    ]
}

/// Parses one Use Case DTD.
pub fn parse_use_case(uc: &UseCaseDtd) -> Dtd {
    parse_dtd(uc.text, uc.root).unwrap_or_else(|e| panic!("{}: {e}", uc.name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_dtd::props::properties;

    #[test]
    fn all_use_case_dtds_parse() {
        for uc in use_case_dtds() {
            let dtd = parse_use_case(&uc);
            assert!(dtd.name_count() > 1, "{}", uc.name);
            // The tag lookup agrees with the declarations
            // (crates/dtd/tests/tag_lookup.rs), attribute-only names
            // included.
            for (tag, text) in dtd.tags.iter() {
                let declared = dtd.all_names().find(|&n| dtd.info(n).tag == Some(tag));
                assert_eq!(dtd.name_of_tag_str(text), declared, "{}: {text}", uc.name);
            }
            // The rows come in inverse pairs, the document name's edge
            // to the root included (crates/dtd/tests/inverse_rows.rs).
            let universe: Vec<_> = dtd.all_names().chain([dtd.doc_name()]).collect();
            for &x in &universe {
                for &y in &universe {
                    let (down, up) = (dtd.children_of(x), dtd.parents_of(y));
                    assert_eq!(down.contains(y), up.contains(x), "{}", uc.name);
                    let (down, up) = (dtd.descendants_of(x), dtd.ancestors_of(y));
                    assert_eq!(down.contains(y), up.contains(x), "{}", uc.name);
                }
            }
            assert!(
                dtd.parents_of(dtd.root()).contains(dtd.doc_name()),
                "{}",
                uc.name
            );
        }
    }

    /// The paper's §4.1 statistics, qualitatively: most of the corpus is
    /// \*-guarded and non-recursive; recursion and parent-ambiguity do
    /// occur.
    #[test]
    fn property_distribution_matches_paper_narrative() {
        let mut star_guarded = 0;
        let mut non_recursive = 0;
        let mut parent_unambiguous = 0;
        let mut both = 0;
        let total = use_case_dtds().len();
        for uc in use_case_dtds() {
            let dtd = parse_use_case(&uc);
            let p = properties(&dtd);
            star_guarded += p.star_guarded as usize;
            non_recursive += p.non_recursive as usize;
            parent_unambiguous += p.parent_unambiguous as usize;
            both += (p.star_guarded && p.non_recursive) as usize;
        }
        assert!(both * 2 >= total, "most DTDs satisfy both: {both}/{total}");
        assert!(star_guarded >= 7, "{star_guarded}");
        assert!(non_recursive >= 6, "{non_recursive}");
        // recursion exists in the corpus (TREE, PARTS, SGML)
        assert!(non_recursive < total);
        // parent-unambiguity is rarer, as the paper notes
        assert!(parent_unambiguous <= non_recursive + 2);
    }

    #[test]
    fn recursive_cases_are_the_expected_ones() {
        for uc in use_case_dtds() {
            let dtd = parse_use_case(&uc);
            let rec = !properties(&dtd).non_recursive;
            let expected = matches!(uc.name, "TREE-report" | "PARTS-partlist" | "SGML-doc");
            assert_eq!(rec, expected, "{}", uc.name);
        }
    }

    #[test]
    fn analysis_works_on_the_whole_corpus() {
        use xproj_dtd::generate::{generate, GenConfig};
        // A generic structural query analysed against every corpus DTD,
        // checked sound on sampled documents.
        for uc in use_case_dtds() {
            let dtd = parse_use_case(&uc);
            let mut sa = xproj_core::StaticAnalyzer::new(&dtd);
            let p = sa.project_query("//title").unwrap();
            for seed in 0..5u64 {
                let doc = generate(&dtd, seed, &GenConfig::default());
                let interp = xproj_dtd::validate(&doc, &dtd).unwrap();
                let pruned = xproj_core::prune_document(&doc, &dtd, &interp, &p);
                let q = match xproj_xpath::parse_xpath("//title").unwrap() {
                    xproj_xpath::ast::Expr::Path(p) => p,
                    _ => unreachable!(),
                };
                let a = xproj_xpath::evaluate(&doc, &q).unwrap().len();
                let b = xproj_xpath::evaluate(&pruned, &q).unwrap().len();
                assert_eq!(a, b, "{} seed {seed}", uc.name);
            }
        }
    }
}
