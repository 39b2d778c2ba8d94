//! Seeded random-update generation for the differential fuzzer.
//!
//! Generation is tag-alphabet driven (pass the DTD's element tags), so
//! the same generator works for random grammars and for XMark:
//! [`random_update`] draws one update from a seeded generator.

use crate::ast::{Fragment, FragmentNode, InsertPos, Update};
use crate::parser::parse_update;
use xproj_testkit::SplitMix64;

const AXES: &[&str] = &["child::", "descendant::", "descendant-or-self::"];

/// A random target path over `tags`: 1–3 downward steps, mostly tag
/// tests, occasionally `node()`/`text()`/`*` and a structural
/// predicate. `allow_text` gates `text()` tests (insertion *into* a
/// text node is meaningless, so insert-into targets disable it).
fn random_target(rng: &mut SplitMix64, tags: &[&str], allow_text: bool) -> String {
    let nsteps = rng.range_incl(1, 3);
    let mut parts = Vec::new();
    for i in 0..nsteps {
        let axis = *rng.pick(AXES);
        let last = i + 1 == nsteps;
        let test = match rng.below(8) {
            0 => "*".to_string(),
            1 if allow_text && last => "text()".to_string(),
            2 if !last => "node()".to_string(),
            _ => rng.pick(tags).to_string(),
        };
        let pred = if rng.chance(0.2) && test != "text()" {
            format!("[child::{}]", rng.pick(tags))
        } else {
            String::new()
        };
        parts.push(format!("{axis}{test}{pred}"));
    }
    format!("/{}", parts.join("/"))
}

fn random_fragment(rng: &mut SplitMix64, tags: &[&str]) -> Fragment {
    const WORDS: &[&str] = &["new", "patched", "updated", "fresh", "delta"];
    if rng.chance(0.15) {
        return Fragment {
            nodes: vec![FragmentNode::Text(rng.pick(WORDS).to_string())],
        };
    }
    let n = rng.range_incl(1, 2);
    let nodes = (0..n)
        .map(|_| random_fragment_element(rng, tags, 0))
        .collect();
    Fragment { nodes }
}

fn random_fragment_element(rng: &mut SplitMix64, tags: &[&str], depth: usize) -> FragmentNode {
    const WORDS: &[&str] = &["alpha", "beta", "gamma", "delta"];
    let tag = rng.pick(tags).to_string();
    let mut children: Vec<FragmentNode> = Vec::new();
    if depth < 2 {
        let k = rng.below(3);
        for _ in 0..k {
            // Adjacent text runs would merge on serialization, so the
            // normal form never contains two in a row.
            let prev_text = matches!(children.last(), Some(FragmentNode::Text(_)));
            if rng.chance(0.4) && !prev_text {
                children.push(FragmentNode::Text(rng.pick(WORDS).to_string()));
            } else {
                children.push(random_fragment_element(rng, tags, depth + 1));
            }
        }
    }
    FragmentNode::Element { tag, children }
}

/// Draws one random update over the tag alphabet. The result always
/// parses back (`parse_update(u.to_string())` round-trips), which the
/// generator asserts — a generation bug fails loudly at the source.
pub fn random_update(rng: &mut SplitMix64, tags: &[&str]) -> Update {
    let u = match rng.below(4) {
        0 => Update::Delete {
            target: parse_target(&random_target(rng, tags, true)),
        },
        1 => Update::Replace {
            target: parse_target(&random_target(rng, tags, true)),
            fragment: random_fragment(rng, tags),
        },
        _ => {
            let pos = match rng.below(3) {
                0 => InsertPos::Before,
                1 => InsertPos::After,
                _ => InsertPos::Into,
            };
            let allow_text = pos != InsertPos::Into;
            Update::Insert {
                fragment: random_fragment(rng, tags),
                pos,
                target: parse_target(&random_target(rng, tags, allow_text)),
            }
        }
    };
    debug_assert_eq!(
        parse_update(&u.to_string()).as_ref(),
        Ok(&u),
        "generated update must round-trip through its normal form"
    );
    u
}

fn parse_target(s: &str) -> xproj_xpath::LocationPath {
    match xproj_xpath::parse_xpath(s).expect("generated target parses") {
        xproj_xpath::Expr::Path(p) => p,
        other => unreachable!("generated target is a path, got {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAGS: &[&str] = &["r", "a", "b", "c"];

    #[test]
    fn generated_updates_round_trip_and_cover_all_ops() {
        let mut rng = SplitMix64::new(0xDECAF);
        let mut seen = [false; 3];
        for _ in 0..300 {
            let u = random_update(&mut rng, TAGS);
            let back = parse_update(&u.to_string()).unwrap();
            assert_eq!(u, back);
            match u {
                Update::Insert { .. } => seen[0] = true,
                Update::Delete { .. } => seen[1] = true,
                Update::Replace { .. } => seen[2] = true,
            }
        }
        assert_eq!(seen, [true; 3], "all three update forms generated");
    }
}
