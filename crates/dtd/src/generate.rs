//! Random generation of valid documents from a DTD.
//!
//! Used by property-based tests (generate a document, prune it with an
//! inferred projector, check query results are unchanged) and by the
//! completeness experiments. The generator walks content models
//! producing matching child words; unbounded constructs (`*`, `+`,
//! recursion) are damped by a depth budget so generation terminates on
//! recursive DTDs.

use crate::grammar::{Content, Dtd};
use crate::nameset::NameId;
use crate::regex::Regex;
use xproj_testkit::SplitMix64;
use xproj_xmltree::{Document, NodeId};

/// The workspace PRNG, re-exported under the name this module
/// historically used (the private copy was promoted to `xproj-testkit`).
pub type SplitMix = SplitMix64;

/// Knobs for the generator.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Expected repetitions for `*`/`+` at depth 0 (halves as depth grows).
    pub fanout: f64,
    /// Depth beyond which optional content is dropped whenever possible.
    pub max_depth: usize,
    /// Words per generated text node.
    pub text_words: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            fanout: 2.0,
            max_depth: 12,
            text_words: 3,
        }
    }
}

const WORDS: &[&str] = &[
    "gold", "silver", "auction", "lorem", "ipsum", "dolor", "amet", "offer", "price", "rare",
    "vintage", "mint", "original", "shipping", "reserve",
];

/// Generates a random valid document (shares the DTD's interner, so tag
/// ids line up for validation).
pub fn generate(dtd: &Dtd, seed: u64, config: &GenConfig) -> Document {
    let mut doc = Document::with_interner(dtd.tags.clone());
    let mut rng = SplitMix::new(seed);
    emit(
        dtd,
        dtd.root(),
        NodeId::DOCUMENT,
        &mut doc,
        &mut rng,
        0,
        config,
    );
    doc
}

fn emit(
    dtd: &Dtd,
    name: NameId,
    parent: NodeId,
    doc: &mut Document,
    rng: &mut SplitMix,
    depth: usize,
    cfg: &GenConfig,
) {
    match &dtd.info(name).content {
        Content::Text => {
            let n = 1 + rng.below(cfg.text_words);
            let words: Vec<&str> = (0..n).map(|_| WORDS[rng.below(WORDS.len())]).collect();
            doc.push_text(parent, &words.join(" "));
        }
        Content::Element(re) => {
            let tag = dtd.info(name).tag.expect("element name has a tag");
            // Give some elements their declared attributes.
            let attrs: Vec<xproj_xmltree::document::Attribute> = dtd
                .info(name)
                .attributes
                .iter()
                .map(|&a| xproj_xmltree::document::Attribute {
                    name: a,
                    value: format!("v{}", rng.below(1000)).into_boxed_str(),
                })
                .collect();
            let me = doc.push_element_with_attrs(parent, tag, attrs);
            let word = sample_word(re, rng, depth, cfg);
            for child in word {
                emit(dtd, child, me, doc, rng, depth + 1, cfg);
            }
        }
    }
}

/// Samples a word of names from the language of `re`.
fn sample_word(re: &Regex, rng: &mut SplitMix, depth: usize, cfg: &GenConfig) -> Vec<NameId> {
    let mut out = Vec::new();
    sample_into(re, rng, depth, cfg, &mut out);
    out
}

fn sample_into(
    re: &Regex,
    rng: &mut SplitMix,
    depth: usize,
    cfg: &GenConfig,
    out: &mut Vec<NameId>,
) {
    let deep = depth >= cfg.max_depth;
    match re {
        Regex::Epsilon => {}
        Regex::Name(n) => out.push(*n),
        Regex::Seq(rs) => {
            for r in rs {
                sample_into(r, rng, depth, cfg, out);
            }
        }
        Regex::Alt(rs) => {
            let pick = if deep {
                // Prefer the shallowest alternative when deep: approximate
                // by choosing a nullable branch if one exists.
                rs.iter()
                    .position(Regex::nullable)
                    .unwrap_or_else(|| rng.below(rs.len()))
            } else {
                rng.below(rs.len())
            };
            sample_into(&rs[pick], rng, depth, cfg, out);
        }
        Regex::Star(r) => {
            let reps = repetitions(rng, depth, cfg, 0);
            for _ in 0..reps {
                sample_into(r, rng, depth, cfg, out);
            }
        }
        Regex::Plus(r) => {
            let reps = repetitions(rng, depth, cfg, 1);
            for _ in 0..reps {
                sample_into(r, rng, depth, cfg, out);
            }
        }
        Regex::Opt(r) => {
            if !deep && rng.unit() < 0.5 {
                sample_into(r, rng, depth, cfg, out);
            }
        }
    }
}

fn repetitions(rng: &mut SplitMix, depth: usize, cfg: &GenConfig, min: usize) -> usize {
    let damp = cfg.fanout / (1.0 + depth as f64 / 4.0);
    let mut n = min;
    let mut p = damp / (1.0 + damp);
    if depth >= cfg.max_depth {
        return min;
    }
    while rng.unit() < p && n < min + 8 {
        n += 1;
        p *= 0.7;
    }
    n
}

/// Knobs for [`random_dtd`].
#[derive(Clone, Debug)]
pub struct RandomDtdConfig {
    /// Upper bound on the number of element names (≥ 2, ≤ 10).
    pub max_elements: usize,
    /// Probability that an element admits `#PCDATA` content.
    pub text_prob: f64,
    /// Probability that an element declares attributes.
    pub attr_prob: f64,
    /// Probability of adding a guarded recursive back-edge (`x?`/`x*`)
    /// to an element's content model.
    pub recursion_prob: f64,
}

impl Default for RandomDtdConfig {
    fn default() -> Self {
        RandomDtdConfig {
            max_elements: 8,
            text_prob: 0.5,
            attr_prob: 0.3,
            recursion_prob: 0.25,
        }
    }
}

/// Fixed tag pool for random DTDs: short names that double as XPath
/// name-test material in the soundness fuzzer.
pub const RANDOM_DTD_TAGS: &[&str] = &["r", "a", "b", "c", "d", "e", "f", "g", "h", "k"];

const RANDOM_DTD_ATTRS: &[&str] = &["id", "kind", "ref"];

/// Generates a random DTD: a forward-edge DAG of content models (so
/// every document bottoms out) plus optional *guarded* back-edges
/// (`x?` / `x*`), which introduce recursion the generator's depth
/// damping can always escape. Tags come from [`RANDOM_DTD_TAGS`];
/// element 0 (`r`) is the root.
pub fn random_dtd(rng: &mut SplitMix64, cfg: &RandomDtdConfig) -> Dtd {
    let n = rng.range_incl(2, cfg.max_elements.clamp(2, RANDOM_DTD_TAGS.len()));
    let mut b = Dtd::builder();
    let ids: Vec<NameId> = RANDOM_DTD_TAGS[..n].iter().map(|t| b.element(t)).collect();
    for i in 0..n {
        // Leaves available to element i: strictly later elements (the
        // acyclic skeleton).
        let leaves: Vec<Regex> = ids[i + 1..].iter().map(|&x| Regex::Name(x)).collect();
        let mut re = if leaves.is_empty() {
            Regex::Epsilon
        } else {
            rand_regex(rng, &leaves, 3)
        };
        if rng.chance(cfg.text_prob) || ids.len() == i + 1 {
            // The text name occurs at most once and never under */+:
            // serialisation merges adjacent text nodes, so a model whose
            // words could contain adjacent text tokens would not survive
            // a serialise → parse round trip.
            let tn = b.text(&format!("{}#text", RANDOM_DTD_TAGS[i]));
            let text = Regex::Name(tn);
            re = match rng.below(3) {
                0 => Regex::Seq(vec![Regex::Opt(Box::new(text)), re]),
                1 => Regex::Seq(vec![re, Regex::Opt(Box::new(text))]),
                _ => Regex::Alt(vec![re, text]),
            };
        }
        if rng.chance(cfg.recursion_prob) {
            let back = Regex::Name(ids[rng.below(i + 1)]);
            let guarded = if rng.chance(0.5) {
                Regex::Opt(Box::new(back))
            } else {
                Regex::Star(Box::new(back))
            };
            re = Regex::Seq(vec![re, guarded]);
        }
        b.content(ids[i], re);
        if rng.chance(cfg.attr_prob) {
            let a = *rng.pick(RANDOM_DTD_ATTRS);
            b.attributes(ids[i], &[a]);
        }
    }
    b.finish(ids[0])
        .expect("random DTDs are well-formed by construction")
}

/// A random content-model regex over the given leaf regexes.
fn rand_regex(rng: &mut SplitMix64, leaves: &[Regex], depth: usize) -> Regex {
    if depth == 0 {
        return rng.pick(leaves).clone();
    }
    match rng.below(8) {
        0 => Regex::Epsilon,
        1 | 2 => rng.pick(leaves).clone(),
        3 => Regex::Opt(Box::new(rand_regex(rng, leaves, depth - 1))),
        4 => Regex::Star(Box::new(rand_regex(rng, leaves, depth - 1))),
        5 => Regex::Plus(Box::new(rand_regex(rng, leaves, depth - 1))),
        6 => {
            let k = rng.range_incl(1, 3);
            Regex::Seq((0..k).map(|_| rand_regex(rng, leaves, depth - 1)).collect())
        }
        _ => {
            let k = rng.range_incl(1, 3);
            Regex::Alt((0..k).map(|_| rand_regex(rng, leaves, depth - 1)).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_dtd;
    use crate::validate::validate;

    const BOOKS: &str = "\
        <!ELEMENT bib (book*)>\
        <!ELEMENT book (title, author+, year?)>\
        <!ATTLIST book isbn CDATA #REQUIRED>\
        <!ELEMENT title (#PCDATA)>\
        <!ELEMENT author (#PCDATA)>\
        <!ELEMENT year (#PCDATA)>";

    #[test]
    fn generated_documents_validate() {
        let dtd = parse_dtd(BOOKS, "bib").unwrap();
        for seed in 0..50 {
            let doc = generate(&dtd, seed, &GenConfig::default());
            assert!(
                validate(&doc, &dtd).is_ok(),
                "seed {seed} produced an invalid document:\n{}",
                doc.to_xml()
            );
        }
    }

    #[test]
    fn recursive_dtds_terminate() {
        let dtd = parse_dtd("<!ELEMENT a (a*, b?)> <!ELEMENT b (#PCDATA)>", "a").unwrap();
        for seed in 0..30 {
            let doc = generate(&dtd, seed, &GenConfig::default());
            assert!(validate(&doc, &dtd).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn deep_recursion_is_damped() {
        let dtd = parse_dtd("<!ELEMENT a (a?)>", "a").unwrap();
        let cfg = GenConfig {
            max_depth: 5,
            ..Default::default()
        };
        for seed in 0..20 {
            let doc = generate(&dtd, seed, &cfg);
            let root = doc.root_element().unwrap();
            let depth = doc
                .descendants(root)
                .map(|n| doc.depth(n))
                .max()
                .unwrap_or(1);
            assert!(depth <= 8, "depth {depth} too large");
        }
    }

    #[test]
    fn seeds_are_deterministic() {
        let dtd = parse_dtd(BOOKS, "bib").unwrap();
        let a = generate(&dtd, 42, &GenConfig::default()).to_xml();
        let b = generate(&dtd, 42, &GenConfig::default()).to_xml();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let dtd = parse_dtd(BOOKS, "bib").unwrap();
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..20 {
            distinct.insert(generate(&dtd, seed, &GenConfig::default()).to_xml());
        }
        assert!(distinct.len() > 5);
    }

    #[test]
    fn random_dtds_generate_valid_documents() {
        let cfg = RandomDtdConfig::default();
        for seed in 0..200u64 {
            let mut rng = SplitMix64::new(seed);
            let dtd = random_dtd(&mut rng, &cfg);
            let doc = generate(&dtd, rng.next_u64(), &GenConfig::default());
            assert!(
                validate(&doc, &dtd).is_ok(),
                "seed {seed}: invalid document\nDTD:\n{}\ndoc:\n{}",
                dtd.to_dtd_syntax(),
                doc.to_xml()
            );
        }
    }

    #[test]
    fn random_dtds_are_deterministic() {
        let cfg = RandomDtdConfig::default();
        let a = random_dtd(&mut SplitMix64::new(11), &cfg).to_dtd_syntax();
        let b = random_dtd(&mut SplitMix64::new(11), &cfg).to_dtd_syntax();
        assert_eq!(a, b);
        let c = random_dtd(&mut SplitMix64::new(12), &cfg).to_dtd_syntax();
        assert_ne!(a, c, "different seeds should give different DTDs");
    }

    #[test]
    fn random_dtds_cover_recursion() {
        let cfg = RandomDtdConfig::default();
        let mut recursive_seen = 0;
        for seed in 0..50u64 {
            let mut rng = SplitMix64::new(seed);
            let dtd = random_dtd(&mut rng, &cfg);
            if dtd.all_names().any(|n| dtd.descendants_of(n).contains(n)) {
                recursive_seen += 1;
            }
        }
        assert!(
            recursive_seen > 5,
            "only {recursive_seen}/50 recursive DTDs"
        );
    }

    #[test]
    fn attributes_generated() {
        let dtd = parse_dtd(BOOKS, "bib").unwrap();
        // find a seed that generates at least one book
        for seed in 0..50 {
            let doc = generate(&dtd, seed, &GenConfig::default());
            let book = doc.all_nodes().find(|&n| doc.tag_name(n) == Some("book"));
            if let Some(book) = book {
                assert_eq!(doc.attributes(book).len(), 1);
                return;
            }
        }
        panic!("no seed generated a book");
    }
}
