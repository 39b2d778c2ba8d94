//! The benchmark workloads: XMark QM01–QM20 (XQuery) and XPathMark
//! QP01–QP23 (XPath).
//!
//! The texts are transcriptions of the published benchmarks into the
//! dialect implemented by this workspace. Deviations (documented per
//! query in its `note`) are of two kinds, both sanctioned by the paper's
//! own scoping: user-defined functions are inlined (Q18), and
//! `some … satisfies` / attribute-valued constructors are rewritten into
//! equivalent predicate/content forms. (`order by`, which the paper's
//! XQuery core omits, is implemented here and used by QM19.)

/// Which language a benchmark query is written in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Full XQuery (FLWR).
    XQuery,
    /// Plain XPath.
    XPath,
}

/// One benchmark query.
#[derive(Clone, Debug)]
pub struct BenchQuery {
    /// Identifier as used in the paper's Table 1 (QM·· / QP··).
    pub id: &'static str,
    /// Language.
    pub kind: QueryKind,
    /// Query text.
    pub text: &'static str,
    /// What the query exercises / how it deviates from the published text.
    pub note: &'static str,
}

/// The XMark XQuery workload.
pub fn xmark_queries() -> Vec<BenchQuery> {
    use QueryKind::XQuery as XQ;
    vec![
        BenchQuery {
            id: "QM01",
            kind: XQ,
            note: "exact-match lookup on person id",
            text: r#"for $b in /site/people/person[@id = "person0"] return $b/name/text()"#,
        },
        BenchQuery {
            id: "QM02",
            kind: XQ,
            note: "positional access to first bidder",
            text: r#"for $b in /site/open_auctions/open_auction return <increase>{$b/bidder[1]/increase/text()}</increase>"#,
        },
        BenchQuery {
            id: "QM03",
            kind: XQ,
            note: "first vs last bidder comparison; attribute constructor rewritten as content",
            text: r#"for $b in /site/open_auctions/open_auction where $b/bidder[1]/increase/text() * 2 <= $b/bidder[last()]/increase/text() return <increase>{$b/bidder[1]/increase/text(), $b/bidder[last()]/increase/text()}</increase>"#,
        },
        BenchQuery {
            id: "QM04",
            kind: XQ,
            note: "existential quantifier over bidders",
            text: r#"for $b in /site/open_auctions/open_auction where some $pr in $b/bidder/personref satisfies $pr/@person = "person18" return <history>{$b/reserve/text()}</history>"#,
        },
        BenchQuery {
            id: "QM05",
            kind: XQ,
            note: "aggregation over value predicate",
            text: r#"<count>{count(/site/closed_auctions/closed_auction[price >= 40])}</count>"#,
        },
        BenchQuery {
            id: "QM06",
            kind: XQ,
            note: "descendant count per region",
            text: r#"for $b in /site/regions return <items>{count($b//item)}</items>"#,
        },
        BenchQuery {
            id: "QM07",
            kind: XQ,
            note: "counts across three descendant paths",
            text: r#"<pieces>{count(/site//description) + count(/site//annotation) + count(/site//emailaddress)}</pieces>"#,
        },
        BenchQuery {
            id: "QM08",
            kind: XQ,
            note: "value join buyers/persons",
            text: r#"for $p in /site/people/person let $a := count(/site/closed_auctions/closed_auction[buyer/@person = $p/@id]) return <item>{$p/name/text(), $a}</item>"#,
        },
        BenchQuery {
            id: "QM09",
            kind: XQ,
            note: "three-way join persons/auctions/european items",
            text: r#"for $p in /site/people/person let $a := for $t in /site/closed_auctions/closed_auction where $p/@id = $t/buyer/@person return /site/regions/europe/item[@id = $t/itemref/@item]/name return <person>{$p/name/text(), count($a)}</person>"#,
        },
        BenchQuery {
            id: "QM10",
            kind: XQ,
            note: "grouping by interest category, materialising person records",
            text: r#"for $i in /site/categories/category let $p := /site/people/person[profile/interest/@category = $i/@id] return <categoryGroup>{$i/name/text(), $p}</categoryGroup>"#,
        },
        BenchQuery {
            id: "QM11",
            kind: XQ,
            note: "value join on income vs initial price",
            text: r#"for $p in /site/people/person let $l := /site/open_auctions/open_auction/initial[. * 5000 < $p/profile/@income] return <items>{$p/name/text(), count($l)}</items>"#,
        },
        BenchQuery {
            id: "QM12",
            kind: XQ,
            note: "as QM11 restricted to high incomes",
            text: r#"for $p in /site/people/person[profile/@income > 50000] let $l := /site/open_auctions/open_auction/initial[. * 5000 < $p/profile/@income] return <items>{count($l)}</items>"#,
        },
        BenchQuery {
            id: "QM13",
            kind: XQ,
            note: "materialises item descriptions of one region",
            text: r#"for $i in /site/regions/australia/item return <item>{$i/name/text(), $i/description}</item>"#,
        },
        BenchQuery {
            id: "QM14",
            kind: XQ,
            note: "full-text containment over descriptions (keeps them whole)",
            text: r#"for $i in /site//item where contains(string($i/description), "gold") return $i/name/text()"#,
        },
        BenchQuery {
            id: "QM15",
            kind: XQ,
            note: "very long, very selective path",
            text: r#"for $a in /site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text() return <text>{$a}</text>"#,
        },
        BenchQuery {
            id: "QM16",
            kind: XQ,
            note: "long path as existential condition",
            text: r#"for $a in /site/closed_auctions/closed_auction where $a/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text() return <person>{$a/seller/@person}</person>"#,
        },
        BenchQuery {
            id: "QM17",
            kind: XQ,
            note: "emptiness test on homepage",
            text: r#"for $p in /site/people/person where empty($p/homepage/text()) return <person>{$p/name/text()}</person>"#,
        },
        BenchQuery {
            id: "QM18",
            kind: XQ,
            note: "user-defined currency conversion inlined",
            text: r#"for $i in /site/open_auctions/open_auction return $i/reserve * 2.20371"#,
        },
        BenchQuery {
            id: "QM19",
            kind: XQ,
            note: "global ordering by item name",
            text: r#"for $b in /site/regions//item order by $b/name/text() return <item>{$b/location/text(), $b/name/text()}</item>"#,
        },
        BenchQuery {
            id: "QM20",
            kind: XQ,
            note: "income bands over profiles",
            text: r#"<result><preferred>{count(/site/people/person/profile[@income >= 100000])}</preferred><standard>{count(/site/people/person/profile[@income < 100000][@income >= 30000])}</standard><challenge>{count(/site/people/person/profile[@income < 30000])}</challenge><na>{count(/site/people/person[not(profile/@income)])}</na></result>"#,
        },
    ]
}

/// The XPathMark XPath workload (exercising every axis, per the paper:
/// "the latter is interesting because its queries use all the available
/// axes").
pub fn xpathmark_queries() -> Vec<BenchQuery> {
    use QueryKind::XPath as XP;
    vec![
        BenchQuery { id: "QP01", kind: XP, note: "long child path",
            text: "/site/closed_auctions/closed_auction/annotation/description/text/keyword" },
        BenchQuery { id: "QP02", kind: XP, note: "double descendant",
            text: "//closed_auction//keyword" },
        BenchQuery { id: "QP03", kind: XP, note: "child then descendant",
            text: "/site/closed_auctions/closed_auction//keyword" },
        BenchQuery { id: "QP04", kind: XP, note: "structural predicate (long path)",
            text: "/site/closed_auctions/closed_auction[annotation/description/text/keyword]/date" },
        BenchQuery { id: "QP05", kind: XP, note: "descendant inside predicate",
            text: "/site/closed_auctions/closed_auction[descendant::keyword]/date" },
        BenchQuery { id: "QP06", kind: XP, note: "conjunctive structural predicate",
            text: "/site/people/person[profile/gender and profile/age]/name" },
        BenchQuery { id: "QP07", kind: XP, note: "disjunctive structural predicate",
            text: "/site/people/person[phone or homepage]/name" },
        BenchQuery { id: "QP08", kind: XP, note: "nested boolean predicate",
            text: "/site/people/person[address and (phone or homepage) and (creditcard or profile)]/name" },
        BenchQuery { id: "QP09", kind: XP, note: "parent axis in predicate (sibling rewriting §4.3)",
            text: "/site/regions/*/item[parent::namerica or parent::samerica]/name" },
        BenchQuery { id: "QP10", kind: XP, note: "ancestor axis",
            text: "//keyword/ancestor::listitem/text/keyword" },
        BenchQuery { id: "QP11", kind: XP, note: "following-sibling in predicate (§4.3 claim: prunes to a few %)",
            text: "/site/open_auctions/open_auction/bidder[following-sibling::bidder]" },
        BenchQuery { id: "QP12", kind: XP, note: "preceding-sibling in predicate",
            text: "/site/open_auctions/open_auction/bidder[preceding-sibling::bidder]" },
        BenchQuery { id: "QP13", kind: XP, note: "unselective: the whole document is the answer",
            text: "/site//node()" },
        BenchQuery { id: "QP14", kind: XP, note: "following axis",
            text: "/site/regions/*/item[following::item]/name" },
        BenchQuery { id: "QP15", kind: XP, note: "preceding axis",
            text: "/site/regions/*/item[preceding::item]/name" },
        BenchQuery { id: "QP16", kind: XP, note: "attribute existence predicate",
            text: "//person[profile/@income]/name" },
        BenchQuery { id: "QP17", kind: XP, note: "negated sibling predicate (first bidder)",
            text: "/site/open_auctions/open_auction[bidder and not(bidder/preceding-sibling::bidder)]/interval" },
        BenchQuery { id: "QP18", kind: XP, note: "complex boolean over following/preceding",
            text: "/site/open_auctions/open_auction[(not(bidder/following::bidder) or not(bidder/preceding::bidder)) or (bidder/following::bidder and bidder/preceding::bidder)]/interval" },
        BenchQuery { id: "QP19", kind: XP, note: "short descendant path",
            text: "//open_auction/bidder/increase" },
        BenchQuery { id: "QP20", kind: XP, note: "keywords in mails of european items",
            text: "/site/regions/europe/item/mailbox/mail/text/keyword" },
        BenchQuery { id: "QP21", kind: XP, note: "value predicate on city",
            text: r#"//person[address/city = "Paris"]/name"# },
        BenchQuery { id: "QP22", kind: XP, note: "ancestor-or-self axis",
            text: "//keyword/ancestor-or-self::text" },
        BenchQuery { id: "QP23", kind: XP, note: "upward then downward navigation",
            text: "//increase/ancestor::open_auction/seller" },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auction::auction_dtd;
    use crate::gen::{generate_auction, XMarkConfig};
    use xproj_xpath::ast::Expr;

    #[test]
    fn all_xpath_queries_parse() {
        for q in xpathmark_queries() {
            let e = xproj_xpath::parse_xpath(q.text);
            assert!(e.is_ok(), "{}: {:?}", q.id, e.err());
            assert!(matches!(e.unwrap(), Expr::Path(_)), "{} not a path", q.id);
        }
    }

    #[test]
    fn all_xquery_queries_parse() {
        for q in xmark_queries() {
            let e = xproj_xquery::parse_xquery(q.text);
            assert!(e.is_ok(), "{}: {:?}", q.id, e.err());
        }
    }

    #[test]
    fn all_queries_evaluate() {
        let dtd = auction_dtd();
        let doc = generate_auction(&dtd, &XMarkConfig::at_scale(0.05));
        for q in xpathmark_queries() {
            let Expr::Path(p) = xproj_xpath::parse_xpath(q.text).unwrap() else {
                unreachable!()
            };
            let r = xproj_xpath::evaluate(&doc, &p);
            assert!(r.is_ok(), "{}: {:?}", q.id, r.err());
        }
        for q in xmark_queries() {
            let parsed = xproj_xquery::parse_xquery(q.text).unwrap();
            let r = xproj_xquery::evaluate_query(&doc, &parsed);
            assert!(r.is_ok(), "{}: {:?}", q.id, r.err());
        }
    }

    #[test]
    fn selective_queries_are_nonempty_at_modest_scale() {
        let dtd = auction_dtd();
        let doc = generate_auction(&dtd, &XMarkConfig::at_scale(0.3));
        // sanity: the workload is not vacuous on generated data
        for id_text in [
            ("QP07", "/site/people/person[phone or homepage]/name"),
            ("QP19", "//open_auction/bidder/increase"),
            ("QP16", "//person[profile/@income]/name"),
        ] {
            let Expr::Path(p) = xproj_xpath::parse_xpath(id_text.1).unwrap() else {
                unreachable!()
            };
            let r = xproj_xpath::evaluate(&doc, &p).unwrap();
            assert!(!r.is_empty(), "{} selected nothing", id_text.0);
        }
    }
}
