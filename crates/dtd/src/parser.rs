//! Parser for DTD concrete syntax (`<!ELEMENT …>` / `<!ATTLIST …>`).
//!
//! The parser produces a [`Dtd`] local tree grammar. Per the §6 heuristic,
//! every element whose content model allows `#PCDATA` gets its *own* text
//! name (`tag#text`), so each `Y → String` production occurs in exactly
//! one right-hand side.
//!
//! `ANY` content is expanded, at finish time, to `(e₁ | … | eₙ | #PCDATA)*`
//! over all declared elements.

use crate::grammar::{Dtd, DtdBuilder, GrammarError};
use crate::nameset::NameId;
use crate::regex::Regex;
use std::collections::HashMap;
use std::fmt;
use xproj_xmltree::MAX_NESTING;

/// DTD parsing or assembly error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DtdError {
    /// Byte offset in the DTD text (0 when the error is structural).
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for DtdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DTD error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for DtdError {}

impl From<GrammarError> for DtdError {
    fn from(e: GrammarError) -> Self {
        DtdError {
            offset: 0,
            message: e.to_string(),
        }
    }
}

/// Parses DTD text; `root_tag` names the root element (the DOCTYPE name).
pub fn parse_dtd(text: &str, root_tag: &str) -> Result<Dtd, DtdError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
        builder: Dtd::builder(),
        pending: Vec::new(),
        attlists: Vec::new(),
        declared: HashMap::new(),
        any_elements: Vec::new(),
    };
    p.run()?;
    p.finish(root_tag)
}

/// Content model as parsed, before name resolution.
#[derive(Debug, Clone)]
enum RawContent {
    Empty,
    Any,
    Mixed(Vec<String>),
    Children(RawRegex),
}

#[derive(Debug, Clone)]
enum RawRegex {
    Name(String),
    Pcdata,
    Seq(Vec<RawRegex>),
    Alt(Vec<RawRegex>),
    Star(Box<RawRegex>),
    Plus(Box<RawRegex>),
    Opt(Box<RawRegex>),
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Content-model groups currently open, against [`MAX_NESTING`] (the
    /// regex compiler and automaton builder recurse over the model too).
    depth: usize,
    builder: DtdBuilder,
    /// (element tag, raw content) in declaration order.
    pending: Vec<(String, RawContent)>,
    /// (element tag, attribute names).
    attlists: Vec<(String, Vec<String>)>,
    declared: HashMap<String, NameId>,
    any_elements: Vec<String>,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, m: impl Into<String>) -> Result<T, DtdError> {
        Err(DtdError {
            offset: self.pos,
            message: m.into(),
        })
    }

    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            let n = self
                .rest()
                .find(|c: char| !c.is_ascii_whitespace())
                .unwrap_or(self.rest().len());
            self.pos += n;
            if self.rest().starts_with("<!--") {
                match self.rest().find("-->") {
                    Some(i) => self.pos += i + 3,
                    None => {
                        self.pos = self.text.len();
                        return;
                    }
                }
            } else if self.rest().starts_with("<?") {
                match self.rest().find("?>") {
                    Some(i) => self.pos += i + 2,
                    None => {
                        self.pos = self.text.len();
                        return;
                    }
                }
            } else {
                return;
            }
        }
    }

    fn run(&mut self) -> Result<(), DtdError> {
        loop {
            self.skip_ws_and_comments();
            if self.pos >= self.text.len() {
                return Ok(());
            }
            if self.eat("<!ELEMENT") {
                self.parse_element()?;
            } else if self.eat("<!ATTLIST") {
                self.parse_attlist()?;
            } else if self.eat("<!ENTITY") || self.eat("<!NOTATION") {
                // Skipped: general/parameter entities and notations are not
                // needed for projection analysis.
                match self.rest().find('>') {
                    Some(i) => self.pos += i + 1,
                    None => return self.err("unterminated declaration"),
                }
            } else {
                return self.err("expected a DTD declaration");
            }
        }
    }

    fn eat(&mut self, kw: &str) -> bool {
        if self.rest().starts_with(kw) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        let n = self
            .rest()
            .find(|c: char| !c.is_ascii_whitespace())
            .unwrap_or(self.rest().len());
        self.pos += n;
    }

    fn read_name(&mut self) -> Result<String, DtdError> {
        let rest = self.rest();
        let mut end = 0;
        for (i, c) in rest.char_indices() {
            let ok = if i == 0 {
                c.is_alphabetic() || c == '_'
            } else {
                c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')
            };
            if !ok {
                end = i;
                break;
            }
            end = i + c.len_utf8();
        }
        if end == 0 {
            return self.err("expected a name");
        }
        let n = rest[..end].to_string();
        self.pos += end;
        Ok(n)
    }

    fn parse_element(&mut self) -> Result<(), DtdError> {
        self.skip_ws();
        let tag = self.read_name()?;
        self.skip_ws();
        let content = if self.eat("EMPTY") {
            RawContent::Empty
        } else if self.eat("ANY") {
            RawContent::Any
        } else if self.rest().starts_with('(') {
            // Look ahead for #PCDATA to distinguish mixed content.
            let re = self.parse_regex()?;
            // Trailing * on mixed is consumed by parse_regex via suffix.
            classify(re)
        } else {
            return self.err(format!("bad content model for '{tag}'"));
        };
        self.skip_ws();
        if !self.eat(">") {
            return self.err("expected '>' after content model");
        }
        if self.pending.iter().any(|(t, _)| *t == tag) {
            return self.err(format!("element '{tag}' declared twice"));
        }
        if matches!(content, RawContent::Any) {
            self.any_elements.push(tag.clone());
        }
        self.pending.push((tag, content));
        Ok(())
    }

    /// Parses a parenthesised regex with `,`/`|` and postfix `* + ?`.
    fn parse_regex(&mut self) -> Result<RawRegex, DtdError> {
        let base = self.parse_primary()?;
        Ok(self.parse_suffix(base))
    }

    fn parse_suffix(&mut self, base: RawRegex) -> RawRegex {
        if self.eat("*") {
            RawRegex::Star(Box::new(base))
        } else if self.eat("+") {
            RawRegex::Plus(Box::new(base))
        } else if self.eat("?") {
            RawRegex::Opt(Box::new(base))
        } else {
            base
        }
    }

    fn parse_primary(&mut self) -> Result<RawRegex, DtdError> {
        self.skip_ws();
        if self.eat("(") {
            if self.depth == MAX_NESTING {
                return self.err(format!(
                    "content-model nesting exceeds {MAX_NESTING} levels"
                ));
            }
            self.depth += 1;
            let group = self.parse_group();
            self.depth -= 1;
            group
        } else if self.eat("#PCDATA") {
            Ok(RawRegex::Pcdata)
        } else {
            Ok(RawRegex::Name(self.read_name()?))
        }
    }

    /// The inside of a `( … )` group, after the opening parenthesis.
    fn parse_group(&mut self) -> Result<RawRegex, DtdError> {
        let mut items = vec![self.parse_regex_inner()?];
        self.skip_ws();
        let sep = if self.rest().starts_with(',') {
            ','
        } else if self.rest().starts_with('|') {
            '|'
        } else if self.eat(")") {
            return Ok(items.pop().unwrap());
        } else {
            return self.err("expected ',', '|' or ')' in content model");
        };
        while self.eat(&sep.to_string()) {
            items.push(self.parse_regex_inner()?);
            self.skip_ws();
        }
        if !self.eat(")") {
            return self.err("expected ')'");
        }
        Ok(if sep == ',' {
            RawRegex::Seq(items)
        } else {
            RawRegex::Alt(items)
        })
    }

    fn parse_regex_inner(&mut self) -> Result<RawRegex, DtdError> {
        self.skip_ws();
        let base = self.parse_primary()?;
        Ok(self.parse_suffix(base))
    }

    fn parse_attlist(&mut self) -> Result<(), DtdError> {
        self.skip_ws();
        let tag = self.read_name()?;
        let mut atts = Vec::new();
        loop {
            self.skip_ws();
            if self.eat(">") {
                break;
            }
            if self.pos >= self.text.len() {
                return self.err("unterminated ATTLIST");
            }
            let att = self.read_name()?;
            self.skip_ws();
            // Type: NAME or enumeration.
            if self.rest().starts_with('(') {
                match self.rest().find(')') {
                    Some(i) => self.pos += i + 1,
                    None => return self.err("unterminated enumeration"),
                }
            } else {
                self.read_name()?;
            }
            self.skip_ws();
            // Default declaration.
            if self.eat("#REQUIRED") || self.eat("#IMPLIED") {
                // no default value
            } else {
                let _ = self.eat("#FIXED");
                self.skip_ws();
                let q = self.rest().chars().next();
                if let Some(q @ ('"' | '\'')) = q {
                    self.pos += 1;
                    match self.rest().find(q) {
                        Some(i) => self.pos += i + 1,
                        None => return self.err("unterminated default value"),
                    }
                }
            }
            atts.push(att);
        }
        self.attlists.push((tag, atts));
        Ok(())
    }

    fn finish(mut self, root_tag: &str) -> Result<Dtd, DtdError> {
        // Pass 1: declare every element name.
        let tags: Vec<String> = self.pending.iter().map(|(t, _)| t.clone()).collect();
        for tag in &tags {
            let id = self.builder.element(tag);
            self.declared.insert(tag.clone(), id);
        }
        // Pass 2: per-element text names where #PCDATA occurs.
        let mut text_names: HashMap<String, NameId> = HashMap::new();
        for (tag, content) in &self.pending {
            let needs_text = match content {
                RawContent::Mixed(_) | RawContent::Any => true,
                RawContent::Children(re) => raw_contains_pcdata(re),
                RawContent::Empty => false,
            };
            if needs_text {
                let id = self.builder.text(&format!("{tag}#text"));
                text_names.insert(tag.clone(), id);
            }
        }
        // Pass 3: content models.
        let all_elements: Vec<NameId> = tags.iter().map(|t| self.declared[t]).collect();
        for (tag, content) in &self.pending {
            let me = self.declared[tag];
            let text = text_names.get(tag).copied();
            let re = match content {
                RawContent::Empty => Regex::Epsilon,
                RawContent::Any => {
                    let mut alts: Vec<Regex> =
                        all_elements.iter().map(|&n| Regex::Name(n)).collect();
                    alts.push(Regex::Name(text.expect("ANY implies a text name")));
                    Regex::Star(Box::new(Regex::Alt(alts)))
                }
                RawContent::Mixed(names) => {
                    let mut alts = vec![Regex::Name(text.expect("mixed implies text"))];
                    for n in names {
                        let id = *self.declared.get(n).ok_or_else(|| DtdError {
                            offset: 0,
                            message: format!("undeclared element '{n}' in content of '{tag}'"),
                        })?;
                        alts.push(Regex::Name(id));
                    }
                    Regex::Star(Box::new(Regex::Alt(alts)))
                }
                RawContent::Children(raw) => resolve_regex(raw, &self.declared, text, tag)?,
            };
            self.builder.content(me, re);
        }
        // Pass 4: attributes.
        for (tag, atts) in &self.attlists {
            if let Some(&id) = self.declared.get(tag) {
                let refs: Vec<&str> = atts.iter().map(String::as_str).collect();
                self.builder.attributes(id, &refs);
            }
        }
        let root = *self.declared.get(root_tag).ok_or_else(|| DtdError {
            offset: 0,
            message: format!("root element '{root_tag}' is not declared"),
        })?;
        Ok(self.builder.finish(root)?)
    }
}

fn raw_contains_pcdata(re: &RawRegex) -> bool {
    match re {
        RawRegex::Pcdata => true,
        RawRegex::Name(_) => false,
        RawRegex::Seq(rs) | RawRegex::Alt(rs) => rs.iter().any(raw_contains_pcdata),
        RawRegex::Star(r) | RawRegex::Plus(r) | RawRegex::Opt(r) => raw_contains_pcdata(r),
    }
}

/// Recognises the mixed-content shape `(#PCDATA | a | …)*` / `(#PCDATA)`.
fn classify(re: RawRegex) -> RawContent {
    match &re {
        RawRegex::Pcdata => return RawContent::Mixed(vec![]),
        RawRegex::Star(inner) => match inner.as_ref() {
            RawRegex::Pcdata => return RawContent::Mixed(vec![]),
            RawRegex::Alt(items) if matches!(items.first(), Some(RawRegex::Pcdata)) => {
                let mut names = Vec::new();
                for it in &items[1..] {
                    if let RawRegex::Name(n) = it {
                        names.push(n.clone());
                    } else {
                        return RawContent::Children(re.clone());
                    }
                }
                return RawContent::Mixed(names);
            }
            _ => {}
        },
        _ => {}
    }
    RawContent::Children(re)
}

fn resolve_regex(
    raw: &RawRegex,
    declared: &HashMap<String, NameId>,
    text: Option<NameId>,
    owner: &str,
) -> Result<Regex, DtdError> {
    Ok(match raw {
        RawRegex::Pcdata => Regex::Name(text.expect("text name allocated for #PCDATA owner")),
        RawRegex::Name(n) => Regex::Name(*declared.get(n).ok_or_else(|| DtdError {
            offset: 0,
            message: format!("undeclared element '{n}' in content of '{owner}'"),
        })?),
        RawRegex::Seq(rs) => Regex::Seq(
            rs.iter()
                .map(|r| resolve_regex(r, declared, text, owner))
                .collect::<Result<_, _>>()?,
        ),
        RawRegex::Alt(rs) => Regex::Alt(
            rs.iter()
                .map(|r| resolve_regex(r, declared, text, owner))
                .collect::<Result<_, _>>()?,
        ),
        RawRegex::Star(r) => Regex::Star(Box::new(resolve_regex(r, declared, text, owner)?)),
        RawRegex::Plus(r) => Regex::Plus(Box::new(resolve_regex(r, declared, text, owner)?)),
        RawRegex::Opt(r) => Regex::Opt(Box::new(resolve_regex(r, declared, text, owner)?)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::Content;

    const BOOKS: &str = r#"
        <!-- a tiny bibliography -->
        <!ELEMENT bib (book*)>
        <!ELEMENT book (title, author+, year?)>
        <!ATTLIST book isbn CDATA #REQUIRED lang (en|fr) "en">
        <!ELEMENT title (#PCDATA)>
        <!ELEMENT author (#PCDATA)>
        <!ELEMENT year (#PCDATA)>
    "#;

    #[test]
    fn parses_books() {
        let d = parse_dtd(BOOKS, "bib").unwrap();
        assert_eq!(d.label(d.root()), "bib");
        let book = d.name_of_tag_str("book").unwrap();
        assert!(d.children_of(d.root()).contains(book));
        // title, author, year + their text names + bib + book = 4 + 3 + ...
        assert_eq!(d.name_count(), 8);
        let title = d.name_of_tag_str("title").unwrap();
        assert_eq!(d.text_children_of(title).len(), 1);
    }

    #[test]
    fn attlist_parsed() {
        let d = parse_dtd(BOOKS, "bib").unwrap();
        let book = d.name_of_tag_str("book").unwrap();
        assert_eq!(d.info(book).attributes.len(), 2);
        let isbn = d.tags.get("isbn").unwrap();
        assert!(d.info(book).attributes.contains(&isbn));
    }

    #[test]
    fn mixed_content() {
        let d = parse_dtd(
            "<!ELEMENT text (#PCDATA | bold | keyword)*>\
             <!ELEMENT bold (#PCDATA)>\
             <!ELEMENT keyword (#PCDATA)>",
            "text",
        )
        .unwrap();
        let text = d.name_of_tag_str("text").unwrap();
        let bold = d.name_of_tag_str("bold").unwrap();
        assert!(d.children_of(text).contains(bold));
        assert_eq!(d.text_children_of(text).len(), 1);
        // mixed is star-guarded
        match &d.info(text).content {
            Content::Element(re) => assert!(re.is_star_guarded()),
            _ => panic!("expected element content"),
        }
    }

    #[test]
    fn empty_and_any() {
        let d = parse_dtd(
            "<!ELEMENT a (b, c)> <!ELEMENT b EMPTY> <!ELEMENT c ANY>",
            "a",
        )
        .unwrap();
        let b = d.name_of_tag_str("b").unwrap();
        assert!(d.children_of(b).is_empty());
        let c = d.name_of_tag_str("c").unwrap();
        // ANY can contain every element plus text
        assert_eq!(d.children_of(c).len(), 4);
    }

    #[test]
    fn undeclared_reference_is_error() {
        assert!(parse_dtd("<!ELEMENT a (ghost)>", "a").is_err());
    }

    #[test]
    fn duplicate_element_is_error() {
        assert!(parse_dtd("<!ELEMENT a EMPTY><!ELEMENT a EMPTY>", "a").is_err());
    }

    #[test]
    fn missing_root_is_error() {
        assert!(parse_dtd("<!ELEMENT a EMPTY>", "nope").is_err());
    }

    #[test]
    fn nested_groups() {
        let d = parse_dtd(
            "<!ELEMENT a ((b | c)*, d?)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY> <!ELEMENT d EMPTY>",
            "a",
        )
        .unwrap();
        let a = d.name_of_tag_str("a").unwrap();
        assert_eq!(d.children_of(a).len(), 3);
        match &d.info(a).content {
            Content::Element(re) => assert!(re.is_star_guarded()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn entities_and_comments_skipped() {
        let d = parse_dtd(
            "<!-- hi --><!ENTITY % x \"y\"><!ELEMENT a EMPTY><?pi data?>",
            "a",
        )
        .unwrap();
        assert_eq!(d.name_count(), 1);
    }
}

#[cfg(test)]
mod syntax_edge_tests {
    use super::*;

    #[test]
    fn mixed_separators_rejected() {
        // (a, b | c) is not legal DTD syntax
        assert!(parse_dtd(
            "<!ELEMENT a (b, c | d)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY> <!ELEMENT d EMPTY>",
            "a"
        )
        .is_err());
    }

    #[test]
    fn deeply_nested_groups() {
        let d = parse_dtd("<!ELEMENT a (((b)))> <!ELEMENT b EMPTY>", "a").unwrap();
        let a = d.name_of_tag_str("a").unwrap();
        assert_eq!(d.children_of(a).len(), 1);
    }

    #[test]
    fn attlist_before_element() {
        let d = parse_dtd("<!ATTLIST x id CDATA #REQUIRED> <!ELEMENT x EMPTY>", "x").unwrap();
        let x = d.name_of_tag_str("x").unwrap();
        assert_eq!(d.info(x).attributes.len(), 1);
    }

    #[test]
    fn attlist_for_undeclared_element_is_ignored() {
        let d = parse_dtd(
            "<!ELEMENT a EMPTY> <!ATTLIST ghost id CDATA #REQUIRED>",
            "a",
        )
        .unwrap();
        assert_eq!(d.name_count(), 1);
    }

    #[test]
    fn enumerated_attribute_types() {
        let d = parse_dtd(
            "<!ELEMENT a EMPTY> <!ATTLIST a kind (x | y | z) \"x\" id ID #IMPLIED>",
            "a",
        )
        .unwrap();
        let a = d.name_of_tag_str("a").unwrap();
        assert_eq!(d.info(a).attributes.len(), 2);
    }

    #[test]
    fn unterminated_declarations() {
        assert!(parse_dtd("<!ELEMENT a (b", "a").is_err());
        assert!(parse_dtd("<!ATTLIST a id CDATA", "a").is_err());
    }

    #[test]
    fn whitespace_and_newlines_everywhere() {
        let d = parse_dtd(
            "<!ELEMENT a\n  ( b\n  , c? )\n>\n<!ELEMENT b EMPTY>\n<!ELEMENT c EMPTY>",
            "a",
        )
        .unwrap();
        let a = d.name_of_tag_str("a").unwrap();
        assert_eq!(d.children_of(a).len(), 2);
    }

    /// Content-model groups nest at most `MAX_NESTING` deep: beyond
    /// that a parse error, never a stack overflow.
    #[test]
    fn group_nesting_is_bounded() {
        let model = |n: usize| {
            format!(
                "<!ELEMENT a {}b{}> <!ELEMENT b EMPTY>",
                "(".repeat(n),
                ")*".repeat(n)
            )
        };
        assert!(parse_dtd(&model(MAX_NESTING), "a").is_ok());
        for n in [MAX_NESTING + 1, 100_000] {
            let err = parse_dtd(&model(n), "a").unwrap_err();
            assert!(err.message.contains("nesting exceeds"), "{err}");
        }
    }
}
