//! Schema-less mode: dataguide-inferred grammars must be sound for
//! pruning — any document a grammar was inferred from validates against
//! it, and queries evaluate identically on documents pruned with
//! projectors inferred from the *dataguide* DTD (the paper's
//! conclusion: "adapt the approach to work in the absence of DTDs, by
//! using data-guides / path-summaries instead").

use xml_projection::core::{prune_document, StaticAnalyzer};
use xml_projection::dtd::generate::{
    generate, random_dtd, GenConfig, RandomDtdConfig, RANDOM_DTD_TAGS,
};
use xml_projection::dtd::{infer_dtd, validate, DataGuide};
use xml_projection::xmltree::Document;
use xml_projection::xpath::ast::Expr;
use xml_projection::xquery::project_xquery_str;
use xml_projection::Projection;
use xproj_testkit::forall;
use xproj_testkit::SplitMix64;

fn random_query(rng: &mut SplitMix64) -> String {
    const AXES: &[&str] = &[
        "child::",
        "descendant::",
        "descendant-or-self::",
        "parent::",
        "ancestor::",
        "self::",
    ];
    let nsteps = rng.range_incl(1, 3);
    let parts: Vec<String> = (0..nsteps)
        .map(|_| {
            let axis = *rng.pick(AXES);
            let test = match rng.below(5) {
                0 => "node()".to_string(),
                1 => "text()".to_string(),
                2 => "*".to_string(),
                _ => rng.pick(RANDOM_DTD_TAGS).to_string(),
            };
            format!("{axis}{test}")
        })
        .collect();
    format!("/{}", parts.join("/"))
}

fn eval_ids(
    doc: &Document,
    path: &xml_projection::xpath::ast::LocationPath,
) -> Vec<(u32, Option<u32>)> {
    use xml_projection::xpath::eval::XNode;
    let mut v: Vec<(u32, Option<u32>)> = xml_projection::xpath::evaluate(doc, path)
        .unwrap()
        .into_iter()
        .map(|n| match n {
            XNode::Tree(id) => (doc.src_id(id).0, None),
            XNode::Attr(id, i) => (doc.src_id(id).0, Some(i)),
        })
        .collect();
    v.sort();
    v
}

forall! {
    #![cases(128)]

    /// Every document validates against the grammar inferred from it.
    fn inferred_grammar_accepts_its_document(seed in 0u64..1_000_000) {
        let mut rng = SplitMix64::new(seed);
        let dtd = random_dtd(&mut rng, &RandomDtdConfig::default());
        let doc = generate(&dtd, rng.next_u64(), &GenConfig::default());
        let inferred = infer_dtd(&doc).expect("inference succeeds");
        validate(&doc, &inferred)
            .expect("document must validate against its own dataguide");
    }

    /// Theorem 4.6 in schema-less mode: projectors inferred from the
    /// *dataguide* grammar (not the true DTD) preserve query results,
    /// in memory and streaming.
    fn schema_less_pruning_is_sound(seed in 0u64..1_000_000) {
        let mut rng = SplitMix64::new(seed);
        let dtd = random_dtd(&mut rng, &RandomDtdConfig::default());
        let doc = generate(&dtd, rng.next_u64(), &GenConfig::default());
        let inferred = infer_dtd(&doc).unwrap();
        let interp = validate(&doc, &inferred).unwrap();
        let q = random_query(&mut rng);
        let mut sa = StaticAnalyzer::new(&inferred);
        let projector = sa.project_query_exact(&q)
            .unwrap_or_else(|e| panic!("query {q:?}: {e}"));
        let pruned = prune_document(&doc, &inferred, &interp, &projector);
        let Expr::Path(path) = xml_projection::xpath::parse_xpath(&q).unwrap() else {
            unreachable!()
        };
        assert_eq!(
            eval_ids(&doc, &path),
            eval_ids(&pruned, &path),
            "schema-less pruning changed results of {q}"
        );
        let (streamed, _) = Projection::from_projector(&inferred, projector).prune_str(&doc.to_xml()).unwrap();
        assert_eq!(streamed, pruned.to_xml(), "streaming diverged for {q}");
    }

    /// A guide built from several documents stays sound for all of them.
    fn multi_document_guides_accept_all_samples(seed in 0u64..1_000_000) {
        let mut rng = SplitMix64::new(seed);
        let dtd = random_dtd(&mut rng, &RandomDtdConfig::default());
        let docs: Vec<_> = (0..3)
            .map(|_| generate(&dtd, rng.next_u64(), &GenConfig::default()))
            .collect();
        let mut guide = DataGuide::new();
        for d in &docs {
            guide.observe(d).unwrap();
        }
        let inferred = guide.into_dtd().unwrap();
        for d in &docs {
            validate(d, &inferred).expect("sampled document rejected by its guide");
        }
    }
}

/// Schema-less XQuery leg over the synthetic XMark document.
#[test]
fn xmark_dataguide_projects_soundly() {
    use xml_projection::xmark::{auction_dtd, generate_auction, XMarkConfig};
    let doc = generate_auction(&auction_dtd(), &XMarkConfig::at_scale(0.05));
    let inferred = infer_dtd(&doc).expect("xmark document infers");
    let interp = validate(&doc, &inferred).expect("xmark doc validates against its guide");
    let mut sa = StaticAnalyzer::new(&inferred);
    for q in [
        "for $p in /site/people/person return <n>{$p/name/text()}</n>",
        "for $a in /site/closed_auctions/closed_auction where $a/annotation \
         return <p>{$a/price/text()}</p>",
    ] {
        let projector = project_xquery_str(&mut sa, q).unwrap();
        let pruned = prune_document(&doc, &inferred, &interp, &projector);
        let parsed = xml_projection::xquery::parse_xquery(q).unwrap();
        let a = xml_projection::xquery::evaluate_query(&doc, &parsed).unwrap();
        let b = xml_projection::xquery::evaluate_query(&pruned, &parsed).unwrap();
        assert_eq!(a, b, "schema-less xquery pruning changed results of {q}");
        assert!(pruned.len() <= doc.len());
    }
}
