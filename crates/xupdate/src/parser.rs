//! Concrete-syntax parser for the update language.
//!
//! ```text
//! insert  <frag>  into|before|after  path
//! delete  path
//! replace path  with  <frag>
//! ```
//!
//! Fragments are forests of attribute-free elements and text with the
//! usual `&lt; &gt; &amp; &apos; &quot;` entities. The target path is
//! parsed by the workspace XPath parser, so every axis and predicate
//! `xmlprune` accepts elsewhere works here too.

use crate::ast::{Fragment, FragmentNode, InsertPos, Update};
use std::fmt;
use xproj_xmltree::MAX_NESTING;
use xproj_xpath::{parse_xpath, Expr};

/// A parse failure, with a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateParseError(pub String);

impl fmt::Display for UpdateParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "update parse error: {}", self.0)
    }
}

impl std::error::Error for UpdateParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, UpdateParseError> {
    Err(UpdateParseError(msg.into()))
}

/// Parses one update.
pub fn parse_update(input: &str) -> Result<Update, UpdateParseError> {
    let s = input.trim();
    if let Some(rest) = s.strip_prefix("insert") {
        let rest = expect_ws(rest, "insert")?;
        let (fragment, rest) = parse_fragment_prefix(rest)?;
        let rest = rest.trim_start();
        let (pos, rest) = if let Some(r) = rest.strip_prefix("into") {
            (InsertPos::Into, r)
        } else if let Some(r) = rest.strip_prefix("before") {
            (InsertPos::Before, r)
        } else if let Some(r) = rest.strip_prefix("after") {
            (InsertPos::After, r)
        } else {
            return err(format!(
                "expected 'into', 'before' or 'after' after the fragment, found {rest:?}"
            ));
        };
        let target = parse_target(expect_ws(rest, pos.keyword())?)?;
        Ok(Update::Insert {
            fragment,
            pos,
            target,
        })
    } else if let Some(rest) = s.strip_prefix("delete") {
        let target = parse_target(expect_ws(rest, "delete")?)?;
        Ok(Update::Delete { target })
    } else if let Some(rest) = s.strip_prefix("replace") {
        let rest = expect_ws(rest, "replace")?;
        // The path runs up to the ` with ` whose right-hand side is a
        // fragment (starts with `<`) — so a tag literally named `with`
        // inside the path does not end it.
        let Some((path_part, frag_part)) = split_on_with(rest) else {
            return err("expected 'with <fragment>' after the replace target");
        };
        let target = parse_target(path_part)?;
        let (fragment, tail) = parse_fragment_prefix(frag_part.trim_start())?;
        if !tail.trim().is_empty() {
            return err(format!("unexpected trailing input {:?}", tail.trim()));
        }
        Ok(Update::Replace { target, fragment })
    } else {
        err(format!(
            "expected 'insert', 'delete' or 'replace', found {s:?}"
        ))
    }
}

fn expect_ws<'a>(rest: &'a str, after: &str) -> Result<&'a str, UpdateParseError> {
    if rest.starts_with(char::is_whitespace) {
        Ok(rest.trim_start())
    } else {
        err(format!("expected whitespace after '{after}'"))
    }
}

/// Finds the ` with ` separator whose remainder is a fragment. Element
/// fragments (starting with `<`) win over any ` with ` inside the path;
/// for text fragments the *first* ` with ` separates (so a path may
/// contain a tag named `with` only when the fragment is an element).
fn split_on_with(s: &str) -> Option<(&str, &str)> {
    let mut from = 0;
    while let Some(i) = s[from..].find(" with ") {
        let at = from + i;
        let rhs = s[at + 6..].trim_start();
        if rhs.starts_with('<') {
            return Some((&s[..at], &s[at + 6..]));
        }
        from = at + 6;
    }
    s.find(" with ").map(|at| (&s[..at], &s[at + 6..]))
}

fn parse_target(s: &str) -> Result<xproj_xpath::LocationPath, UpdateParseError> {
    let text = s.trim();
    if text.is_empty() {
        return err("missing target path");
    }
    match parse_xpath(text) {
        Ok(Expr::Path(p)) => Ok(p),
        Ok(other) => err(format!(
            "target must be a location path, got the expression {other}"
        )),
        Err(e) => err(format!("bad target path {text:?}: {e}")),
    }
}

/// Parses a fragment at the start of `s`; returns it plus the rest.
/// A fragment is a maximal run of elements and text, where text runs
/// end at the next `<` (or at the keyword boundary for top-level text —
/// top-level text may not contain the unescaped words `into`, `before`,
/// `after`; use entities if you really need them).
fn parse_fragment_prefix(s: &str) -> Result<(Fragment, &str), UpdateParseError> {
    let mut nodes = Vec::new();
    let mut rest = s;
    loop {
        rest = rest.trim_start();
        if rest.starts_with('<') {
            if rest.starts_with("</") {
                break; // closes an enclosing element — not ours
            }
            let (node, tail) = parse_element(rest, 1)?;
            nodes.push(node);
            rest = tail;
        } else if nodes.is_empty() && !rest.starts_with('<') {
            // A top-level text run: up to the next `<` or keyword.
            let end = top_level_text_end(rest);
            if end == 0 {
                break;
            }
            let raw = &rest[..end];
            let text = unescape(raw.trim_end())?;
            if !text.is_empty() {
                nodes.push(FragmentNode::Text(text));
            }
            rest = &rest[end..];
        } else {
            break;
        }
    }
    if nodes.is_empty() {
        return err(format!("expected a fragment, found {rest:?}"));
    }
    Ok((Fragment { nodes }, rest))
}

/// Where a top-level text run ends: the next `<` or the next
/// whitespace-delimited position keyword.
fn top_level_text_end(s: &str) -> usize {
    let lt = s.find('<').unwrap_or(s.len());
    for kw in ["into", "before", "after", "with"] {
        let mut from = 0;
        while let Some(i) = s[from..lt].find(kw) {
            let at = from + i;
            let before_ok = at == 0 || s[..at].ends_with(char::is_whitespace);
            let after = &s[at + kw.len()..];
            let after_ok = after.is_empty() || after.starts_with(char::is_whitespace);
            if before_ok && after_ok && at < lt {
                return at.min(lt);
            }
            from = at + kw.len();
        }
    }
    lt
}

/// Parses the element at the front of `s`, itself `depth` elements deep
/// in the fragment.
fn parse_element(s: &str, depth: usize) -> Result<(FragmentNode, &str), UpdateParseError> {
    debug_assert!(s.starts_with('<'));
    if depth > MAX_NESTING {
        return err(format!("fragment nesting exceeds {MAX_NESTING} levels"));
    }
    let body = &s[1..];
    let name_len = body
        .char_indices()
        .find(|(_, c)| !(c.is_alphanumeric() || *c == '_' || *c == '-' || *c == '.'))
        .map(|(i, _)| i)
        .unwrap_or(body.len());
    if name_len == 0 {
        return err(format!("expected an element name at {s:?}"));
    }
    let tag = body[..name_len].to_string();
    let rest = body[name_len..].trim_start();
    if let Some(rest) = rest.strip_prefix("/>") {
        return Ok((
            FragmentNode::Element {
                tag,
                children: Vec::new(),
            },
            rest,
        ));
    }
    let Some(mut rest) = rest.strip_prefix('>') else {
        return err(format!(
            "expected '>' or '/>' after element name '{tag}' (fragments are attribute-free)"
        ));
    };
    // Children: elements and text until `</tag>`.
    let mut children = Vec::new();
    loop {
        if let Some(tail) = rest.strip_prefix("</") {
            let Some(close) = tail.find('>') else {
                return err(format!("unterminated closing tag in fragment for '{tag}'"));
            };
            if tail[..close].trim() != tag {
                return err(format!(
                    "mismatched closing tag </{}> for <{tag}>",
                    tail[..close].trim()
                ));
            }
            return Ok((FragmentNode::Element { tag, children }, &tail[close + 1..]));
        }
        if rest.starts_with('<') {
            let (child, tail) = parse_element(rest, depth + 1)?;
            children.push(child);
            rest = tail;
        } else {
            let end = rest.find('<').unwrap_or(rest.len());
            if end == 0 {
                return err(format!("unterminated element <{tag}> in fragment"));
            }
            let text = unescape(&rest[..end])?;
            if !text.trim().is_empty() {
                children.push(FragmentNode::Text(text));
            }
            rest = &rest[end..];
        }
    }
}

fn unescape(s: &str) -> Result<String, UpdateParseError> {
    if !s.contains('&') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        let tail = &rest[i + 1..];
        let Some(semi) = tail.find(';') else {
            return err(format!("bare '&' in fragment text {s:?}"));
        };
        match &tail[..semi] {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            other => return err(format!("unknown entity '&{other};' in fragment")),
        }
        rest = &tail[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_forms() {
        let u = parse_update("insert <open_auction/> into /site/open_auctions").unwrap();
        assert!(matches!(
            u,
            Update::Insert {
                pos: InsertPos::Into,
                ..
            }
        ));
        let u = parse_update("delete //person[child::phone]").unwrap();
        assert!(matches!(u, Update::Delete { .. }));
        let u = parse_update("replace /site/regions with <regions><africa/></regions>").unwrap();
        let Update::Replace { fragment, .. } = &u else {
            panic!("not a replace")
        };
        assert_eq!(fragment.tags(), vec!["regions", "africa"]);
    }

    #[test]
    fn normal_form_round_trips() {
        for src in [
            "insert <a><b/>hi</a> before //x",
            "  insert   <k/>  after  /r/a ",
            "delete /a/descendant::b[child::c]",
            "replace //b with <b>new &amp; improved</b>",
            "insert value text into /r/a",
        ] {
            let u = parse_update(src).unwrap();
            let normal = u.to_string();
            let back = parse_update(&normal)
                .unwrap_or_else(|e| panic!("normal form {normal:?} did not reparse: {e}"));
            assert_eq!(u, back, "round trip through {normal:?}");
            assert_eq!(normal, back.to_string());
        }
    }

    #[test]
    fn equivalent_spellings_normalize_together() {
        let a = parse_update("insert <x/> into //a[b]").unwrap();
        let b =
            parse_update("insert  <x></x>  into /descendant-or-self::node()/child::a[child::b]")
                .unwrap();
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn with_inside_path_is_not_the_separator() {
        let u = parse_update("replace /a/with with <with/>").unwrap();
        let Update::Replace { target, fragment } = &u else {
            panic!()
        };
        assert_eq!(target.to_string(), "/child::a/child::with");
        assert_eq!(fragment.to_string(), "<with/>");
    }

    #[test]
    fn errors_are_structured_not_panics() {
        for bad in [
            "",
            "insert",
            "insert <a/>",
            "insert <a/> into",
            "insert <a> into /x",
            "insert <a></b> into /x",
            "insert <a attr=\"v\"/> into /x",
            "delete",
            "delete 1 + 1",
            "replace /a with",
            "munge /a",
            "insert <a>&bogus;</a> into /x",
        ] {
            assert!(parse_update(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn entities_unescape() {
        let u = parse_update("insert <t>&lt;b&gt; &amp; co</t> into /x").unwrap();
        let Update::Insert { fragment, .. } = &u else {
            panic!()
        };
        assert_eq!(
            fragment.nodes,
            vec![FragmentNode::Element {
                tag: "t".into(),
                children: vec![FragmentNode::Text("<b> & co".into())],
            }]
        );
    }

    /// Fragments nest at most `MAX_NESTING` elements deep and target
    /// paths are held to the XPath parser's bound: beyond either a parse
    /// error, never a stack overflow.
    #[test]
    fn nesting_is_bounded() {
        let fragment = |n: usize| format!("{}x{}", "<a>".repeat(n), "</a>".repeat(n));
        assert!(parse_update(&format!("insert {} into /x", fragment(MAX_NESTING))).is_ok());
        for n in [MAX_NESTING + 1, 100_000] {
            let err = parse_update(&format!("insert {} into /x", fragment(n))).unwrap_err();
            assert!(err.to_string().contains("nesting exceeds"), "{err}");
        }
        let deep_path = format!("/x{}{}", "[a".repeat(100_000), "]".repeat(100_000));
        for update in [
            format!("delete {deep_path}"),
            format!("replace {deep_path} with <a/>"),
        ] {
            let err = parse_update(&update).unwrap_err();
            assert!(err.to_string().contains("nesting exceeds"), "{err}");
        }
    }
}
