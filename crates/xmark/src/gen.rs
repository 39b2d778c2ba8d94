//! Synthetic XMark document generator.
//!
//! Stands in for the benchmark's `xmlgen`: produces documents valid
//! against [`crate::auction_dtd`] whose size scales linearly with the
//! scale factor and whose byte distribution matches the original's
//! salient property — mixed-content `description` elements account for
//! the majority of the bytes (the paper measures ~70%), which is why
//! queries that do not touch descriptions prune so well.

use xproj_dtd::Dtd;
use xproj_testkit::SplitMix64;
use xproj_xmltree::{Attribute, Document, NodeId, TagId};

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct XMarkConfig {
    /// Linear size factor. 1.0 ≈ 1.5 MB serialised.
    pub scale: f64,
    /// RNG seed (generation is deterministic per seed).
    pub seed: u64,
}

impl Default for XMarkConfig {
    fn default() -> Self {
        XMarkConfig {
            scale: 0.1,
            seed: 42,
        }
    }
}

impl XMarkConfig {
    /// A config with the given scale and the default seed.
    pub fn at_scale(scale: f64) -> Self {
        XMarkConfig { scale, seed: 42 }
    }

    fn count(&self, base: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(1)
    }
}

const WORDS: &[&str] = &[
    "gold",
    "silver",
    "vintage",
    "rare",
    "mint",
    "original",
    "preferred",
    "duteous",
    "hither",
    "sorrow",
    "cassio",
    "wherefore",
    "mistress",
    "enforced",
    "shipping",
    "condition",
    "penalty",
    "reserve",
    "jealous",
    "cunning",
    "honest",
    "purse",
    "monster",
    "heaven",
    "lieutenant",
    "handkerchief",
    "willow",
    "reputation",
    "serpent",
    "commodity",
    "merchant",
    "argosy",
];

const CITIES: &[&str] = &[
    "Paris", "Seoul", "Tokyo", "Lima", "Cairo", "Oslo", "Quito", "Perth",
];
const COUNTRIES: &[&str] = &[
    "France",
    "Korea",
    "Japan",
    "Peru",
    "Egypt",
    "Norway",
    "Ecuador",
    "Australia",
];

struct Gen<'d> {
    dtd: &'d Dtd,
    doc: Document,
    rng: SplitMix64,
    n_categories: usize,
    n_people: usize,
    n_items: usize,
    n_open: usize,
}

/// Generates an auction document valid against `dtd` (use
/// [`crate::auction_dtd`]).
pub fn generate_auction(dtd: &Dtd, config: &XMarkConfig) -> Document {
    let mut g = Gen {
        dtd,
        doc: Document::with_interner(dtd.tags.clone()),
        rng: SplitMix64::new(config.seed),
        n_categories: config.count(60),
        n_people: config.count(200),
        n_items: config.count(400),
        n_open: config.count(200),
    };
    g.site(config);
    g.doc
}

impl Gen<'_> {
    fn tag(&self, name: &str) -> TagId {
        self.dtd
            .tags
            .get(name)
            .expect("tag declared in auction DTD")
    }

    fn elem(&mut self, parent: NodeId, tag: &str) -> NodeId {
        let t = self.tag(tag);
        self.doc.push_element(parent, t)
    }

    fn elem_attrs(&mut self, parent: NodeId, tag: &str, attrs: &[(&str, String)]) -> NodeId {
        let t = self.tag(tag);
        let attrs: Vec<Attribute> = attrs
            .iter()
            .map(|(k, v)| Attribute {
                name: self.tag(k),
                value: v.clone().into_boxed_str(),
            })
            .collect();
        self.doc.push_element_with_attrs(parent, t, attrs)
    }

    fn leaf(&mut self, parent: NodeId, tag: &str, text: &str) {
        let e = self.elem(parent, tag);
        self.doc.push_text(e, text);
    }

    fn words(&mut self, lo: usize, hi: usize) -> String {
        let n = self.rng.range_incl(lo, hi);
        let mut s = String::with_capacity(n * 8);
        for i in 0..n {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(WORDS[self.rng.range(0, WORDS.len())]);
        }
        s
    }

    fn site(&mut self, config: &XMarkConfig) {
        let site = self.elem(NodeId::DOCUMENT, "site");
        self.regions(site);
        self.categories(site);
        self.catgraph(site);
        self.people(site);
        self.open_auctions(site);
        self.closed_auctions(site, config);
    }

    fn regions(&mut self, site: NodeId) {
        let regions = self.elem(site, "regions");
        // XMark's regional distribution of items.
        let shares: &[(&str, f64)] = &[
            ("africa", 0.055),
            ("asia", 0.10),
            ("australia", 0.11),
            ("europe", 0.30),
            ("namerica", 0.40),
            ("samerica", 0.035),
        ];
        let mut item_id = 0usize;
        for (region, share) in shares {
            let r = self.elem(regions, region);
            let n = ((self.n_items as f64) * share).round() as usize;
            for _ in 0..n.max(1) {
                self.item(r, item_id);
                item_id += 1;
            }
        }
        self.n_items = item_id; // actual count after rounding
    }

    fn item(&mut self, region: NodeId, id: usize) {
        let featured = self.rng.chance(0.1);
        let mut attrs = vec![("id", format!("item{id}"))];
        if featured {
            attrs.push(("featured", "yes".to_string()));
        }
        let item = self.elem_attrs(region, "item", &attrs);
        let city = CITIES[self.rng.range(0, CITIES.len())];
        self.leaf(item, "location", city);
        let q = self.rng.range(1, 5).to_string();
        self.leaf(item, "quantity", &q);
        let name = self.words(2, 4);
        self.leaf(item, "name", &name);
        let pay = if self.rng.chance(0.5) {
            "Creditcard"
        } else {
            "Cash, personal check"
        };
        self.leaf(item, "payment", pay);
        self.description(item, 0);
        let ship = if self.rng.chance(0.5) {
            "Will ship internationally"
        } else {
            "Buyer pays fixed shipping charges"
        };
        self.leaf(item, "shipping", ship);
        let ncat = self.rng.range_incl(1, 3);
        for _ in 0..ncat {
            let c = self.rng.range(0, self.n_categories);
            self.elem_attrs(item, "incategory", &[("category", format!("category{c}"))]);
        }
        let mailbox = self.elem(item, "mailbox");
        let nmail = self.rng.range(0, 3);
        for _ in 0..nmail {
            let mail = self.elem(mailbox, "mail");
            let from = self.words(1, 2);
            self.leaf(mail, "from", &from);
            let to = self.words(1, 2);
            self.leaf(mail, "to", &to);
            let d = self.date();
            self.leaf(mail, "date", &d);
            self.mixed_text(mail, 1);
        }
    }

    /// `description ::= (text | parlist)` — the size-dominating part.
    fn description(&mut self, parent: NodeId, depth: usize) {
        let d = self.elem(parent, "description");
        if depth < 2 && self.rng.chance(0.25) {
            self.parlist(d, depth + 1);
        } else {
            self.mixed_text(d, depth + 1);
        }
    }

    fn parlist(&mut self, parent: NodeId, depth: usize) {
        let pl = self.elem(parent, "parlist");
        let n = self.rng.range_incl(1, 3);
        for _ in 0..n {
            let li = self.elem(pl, "listitem");
            if depth < 3 && self.rng.chance(0.2) {
                self.parlist(li, depth + 1);
            } else {
                self.mixed_text(li, depth + 1);
            }
        }
    }

    /// Mixed content: `(#PCDATA | bold | keyword | emph)*`.
    fn mixed_text(&mut self, parent: NodeId, depth: usize) {
        let t = self.elem(parent, "text");
        self.mixed_content(t, depth);
    }

    fn mixed_content(&mut self, node: NodeId, depth: usize) {
        // Buffer consecutive text so the document never contains adjacent
        // text nodes (parsed documents never do; keeping that invariant
        // makes serialise∘parse the identity on generated documents).
        let chunks = self.rng.range_incl(3, 6);
        let mut pending = String::new();
        for _ in 0..chunks {
            if !pending.is_empty() {
                pending.push(' ');
            }
            let w = self.words(8, 25);
            pending.push_str(&w);
            if depth < 3 && self.rng.chance(0.5) {
                self.doc.push_text(node, &pending);
                pending.clear();
                let markup = ["bold", "keyword", "emph"][self.rng.range(0, 3)];
                let m = self.elem(node, markup);
                if self.rng.chance(0.15) {
                    self.mixed_content(m, depth + 1);
                } else {
                    let w2 = self.words(1, 4);
                    self.doc.push_text(m, &w2);
                }
            }
        }
        if !pending.is_empty() {
            self.doc.push_text(node, &pending);
        }
    }

    fn categories(&mut self, site: NodeId) {
        let cats = self.elem(site, "categories");
        for i in 0..self.n_categories {
            let c = self.elem_attrs(cats, "category", &[("id", format!("category{i}"))]);
            let name = self.words(1, 3);
            self.leaf(c, "name", &name);
            self.description(c, 1);
        }
    }

    fn catgraph(&mut self, site: NodeId) {
        let cg = self.elem(site, "catgraph");
        let n = self.n_categories * 2;
        for _ in 0..n {
            let from = self.rng.range(0, self.n_categories);
            let to = self.rng.range(0, self.n_categories);
            self.elem_attrs(
                cg,
                "edge",
                &[
                    ("from", format!("category{from}")),
                    ("to", format!("category{to}")),
                ],
            );
        }
    }

    fn people(&mut self, site: NodeId) {
        let people = self.elem(site, "people");
        for i in 0..self.n_people {
            let p = self.elem_attrs(people, "person", &[("id", format!("person{i}"))]);
            let name = self.words(2, 2);
            self.leaf(p, "name", &name);
            self.leaf(p, "emailaddress", &format!("mailto:person{i}@example.org"));
            if self.rng.chance(0.5) {
                let ph = format!(
                    "+{} ({}) {}",
                    self.rng.range(1, 99),
                    self.rng.range(10, 999),
                    self.rng.range(1000000, 9999999)
                );
                self.leaf(p, "phone", &ph);
            }
            if self.rng.chance(0.4) {
                let a = self.elem(p, "address");
                let street = format!("{} {} St", self.rng.range(1, 99), self.words(1, 1));
                self.leaf(a, "street", &street);
                let city = CITIES[self.rng.range(0, CITIES.len())];
                self.leaf(a, "city", city);
                let country = COUNTRIES[self.rng.range(0, COUNTRIES.len())];
                self.leaf(a, "country", country);
                if self.rng.chance(0.3) {
                    let prov = self.words(1, 1);
                    self.leaf(a, "province", &prov);
                }
                let zip = self.rng.range(10000, 99999).to_string();
                self.leaf(a, "zipcode", &zip);
            }
            if self.rng.chance(0.5) {
                self.leaf(p, "homepage", &format!("http://www.example.org/person{i}"));
            }
            if self.rng.chance(0.6) {
                let cc = format!(
                    "{} {} {} {}",
                    self.rng.range(1000, 9999),
                    self.rng.range(1000, 9999),
                    self.rng.range(1000, 9999),
                    self.rng.range(1000, 9999)
                );
                self.leaf(p, "creditcard", &cc);
            }
            if self.rng.chance(0.7) {
                let income = format!("{:.2}", self.rng.f64_range(9876.0, 99999.0));
                let prof = self.elem_attrs(p, "profile", &[("income", income)]);
                let ni = self.rng.range(0, 4);
                for _ in 0..ni {
                    let c = self.rng.range(0, self.n_categories);
                    self.elem_attrs(prof, "interest", &[("category", format!("category{c}"))]);
                }
                if self.rng.chance(0.5) {
                    let ed = ["High School", "College", "Graduate School", "Other"]
                        [self.rng.range(0, 4)];
                    self.leaf(prof, "education", ed);
                }
                if self.rng.chance(0.8) {
                    let g = if self.rng.chance(0.5) {
                        "male"
                    } else {
                        "female"
                    };
                    self.leaf(prof, "gender", g);
                }
                let b = if self.rng.chance(0.5) { "Yes" } else { "No" };
                self.leaf(prof, "business", b);
                if self.rng.chance(0.6) {
                    let age = self.rng.range(18, 80).to_string();
                    self.leaf(prof, "age", &age);
                }
            }
            if self.rng.chance(0.4) {
                let w = self.elem(p, "watches");
                let nw = self.rng.range(1, 4);
                for _ in 0..nw {
                    let a = self.rng.range(0, self.n_open);
                    self.elem_attrs(w, "watch", &[("open_auction", format!("open_auction{a}"))]);
                }
            }
        }
    }

    fn open_auctions(&mut self, site: NodeId) {
        let oas = self.elem(site, "open_auctions");
        for i in 0..self.n_open {
            let oa = self.elem_attrs(oas, "open_auction", &[("id", format!("open_auction{i}"))]);
            let initial = self.money(5.0, 100.0);
            self.leaf(oa, "initial", &initial);
            if self.rng.chance(0.5) {
                let r = self.money(20.0, 300.0);
                self.leaf(oa, "reserve", &r);
            }
            let nbid = self.rng.range(0, 6);
            let mut current = 10.0;
            for _ in 0..nbid {
                let b = self.elem(oa, "bidder");
                let d = self.date();
                self.leaf(b, "date", &d);
                let t = self.time();
                self.leaf(b, "time", &t);
                let pr = self.rng.range(0, self.n_people);
                self.elem_attrs(b, "personref", &[("person", format!("person{pr}"))]);
                let inc = self.rng.range(1, 20) as f64 * 1.5;
                current += inc;
                self.leaf(b, "increase", &format!("{inc:.2}"));
            }
            self.leaf(oa, "current", &format!("{current:.2}"));
            if self.rng.chance(0.3) {
                self.leaf(oa, "privacy", "Yes");
            }
            let it = self.rng.range(0, self.n_items);
            self.elem_attrs(oa, "itemref", &[("item", format!("item{it}"))]);
            let s = self.rng.range(0, self.n_people);
            self.elem_attrs(oa, "seller", &[("person", format!("person{s}"))]);
            self.annotation(oa);
            let q = self.rng.range(1, 5).to_string();
            self.leaf(oa, "quantity", &q);
            let ty = if self.rng.chance(0.5) {
                "Regular"
            } else {
                "Featured"
            };
            self.leaf(oa, "type", ty);
            let iv = self.elem(oa, "interval");
            let st = self.date();
            self.leaf(iv, "start", &st);
            let en = self.date();
            self.leaf(iv, "end", &en);
        }
    }

    fn annotation(&mut self, parent: NodeId) {
        let an = self.elem(parent, "annotation");
        let a = self.rng.range(0, self.n_people);
        self.elem_attrs(an, "author", &[("person", format!("person{a}"))]);
        if self.rng.chance(0.8) {
            self.description(an, 1);
        }
        let h = self.rng.range(1, 10).to_string();
        self.leaf(an, "happiness", &h);
    }

    fn closed_auctions(&mut self, site: NodeId, config: &XMarkConfig) {
        let cas = self.elem(site, "closed_auctions");
        let n = config.count(160);
        for _ in 0..n {
            let ca = self.elem(cas, "closed_auction");
            let s = self.rng.range(0, self.n_people);
            self.elem_attrs(ca, "seller", &[("person", format!("person{s}"))]);
            let b = self.rng.range(0, self.n_people);
            self.elem_attrs(ca, "buyer", &[("person", format!("person{b}"))]);
            let it = self.rng.range(0, self.n_items);
            self.elem_attrs(ca, "itemref", &[("item", format!("item{it}"))]);
            let p = self.money(10.0, 500.0);
            self.leaf(ca, "price", &p);
            let d = self.date();
            self.leaf(ca, "date", &d);
            let q = self.rng.range(1, 5).to_string();
            self.leaf(ca, "quantity", &q);
            let ty = if self.rng.chance(0.5) {
                "Regular"
            } else {
                "Featured"
            };
            self.leaf(ca, "type", ty);
            if self.rng.chance(0.7) {
                self.annotation(ca);
            }
        }
    }

    fn money(&mut self, lo: f64, hi: f64) -> String {
        format!("{:.2}", self.rng.f64_range(lo, hi))
    }

    fn date(&mut self) -> String {
        format!(
            "{:02}/{:02}/{}",
            self.rng.range_incl(1, 12),
            self.rng.range_incl(1, 28),
            self.rng.range_incl(1998, 2001)
        )
    }

    fn time(&mut self) -> String {
        format!(
            "{:02}:{:02}:{:02}",
            self.rng.range(0, 24),
            self.rng.range(0, 60),
            self.rng.range(0, 60)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auction::auction_dtd;
    use xproj_dtd::validate;

    #[test]
    fn generated_documents_validate() {
        let dtd = auction_dtd();
        for seed in [1u64, 7, 42] {
            let doc = generate_auction(&dtd, &XMarkConfig { scale: 0.05, seed });
            let r = validate(&doc, &dtd);
            assert!(r.is_ok(), "seed {seed}: {:?}", r.err());
        }
    }

    #[test]
    fn scaling_is_roughly_linear() {
        let dtd = auction_dtd();
        let small = generate_auction(&dtd, &XMarkConfig::at_scale(0.05))
            .to_xml()
            .len();
        let large = generate_auction(&dtd, &XMarkConfig::at_scale(0.2))
            .to_xml()
            .len();
        let ratio = large as f64 / small as f64;
        assert!((2.0..8.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn descriptions_dominate_size() {
        let dtd = auction_dtd();
        let doc = generate_auction(&dtd, &XMarkConfig::at_scale(0.1));
        let total = doc.to_xml().len();
        let mut desc_bytes = 0usize;
        for n in doc.all_nodes() {
            if doc.tag_name(n) == Some("description") {
                desc_bytes += doc.subtree_to_xml(n).len();
            }
        }
        let frac = desc_bytes as f64 / total as f64;
        assert!(
            frac > 0.45,
            "descriptions are only {frac:.2} of the document"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let dtd = auction_dtd();
        let a = generate_auction(
            &dtd,
            &XMarkConfig {
                scale: 0.05,
                seed: 9,
            },
        )
        .to_xml();
        let b = generate_auction(
            &dtd,
            &XMarkConfig {
                scale: 0.05,
                seed: 9,
            },
        )
        .to_xml();
        assert_eq!(a, b);
    }

    #[test]
    fn references_are_wellformed() {
        let dtd = auction_dtd();
        let doc = generate_auction(&dtd, &XMarkConfig::at_scale(0.05));
        // every personref points at an existing person id
        let mut person_ids = std::collections::HashSet::new();
        for n in doc.all_nodes() {
            if doc.tag_name(n) == Some("person") {
                let id = doc.tags.get("id").unwrap();
                person_ids.insert(doc.attribute(n, id).unwrap().to_string());
            }
        }
        let person_att = doc.tags.get("person").unwrap();
        for n in doc.all_nodes() {
            if doc.tag_name(n) == Some("personref") {
                let target = doc.attribute(n, person_att).unwrap();
                assert!(person_ids.contains(target), "dangling {target}");
            }
        }
    }

    #[test]
    fn key_query_targets_exist() {
        let dtd = auction_dtd();
        let doc = generate_auction(&dtd, &XMarkConfig::at_scale(0.1));
        for tag in ["keyword", "bidder", "price", "profile", "parlist"] {
            assert!(
                doc.all_nodes().any(|n| doc.tag_name(n) == Some(tag)),
                "no <{tag}> generated"
            );
        }
    }
}

#[cfg(test)]
mod adjacency_tests {
    use super::*;
    use crate::auction::auction_dtd;

    /// serialize ∘ parse is the identity on generated documents — in
    /// particular no adjacent text nodes exist.
    #[test]
    fn no_adjacent_text_nodes() {
        let dtd = auction_dtd();
        let doc = generate_auction(&dtd, &XMarkConfig::at_scale(0.1));
        for n in doc.all_nodes() {
            let mut prev_text = false;
            for c in doc.children(n) {
                let is_text = doc.is_text(c);
                assert!(!(is_text && prev_text), "adjacent text under {n:?}");
                prev_text = is_text;
            }
        }
        let xml = doc.to_xml();
        let reparsed = xproj_xmltree::parse(&xml).unwrap();
        assert_eq!(doc.len(), reparsed.len());
        assert_eq!(xml, reparsed.to_xml());
    }
}
