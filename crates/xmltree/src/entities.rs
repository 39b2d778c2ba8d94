//! Entity decoding for text and attribute values (the five predefined
//! entities and numeric character references, held to the XML 1.0
//! `Char` production), and the [`ParseError`] that it and every XML
//! front-end report.

use std::borrow::Cow;
use std::fmt;

/// A parse error with byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// True iff `c` is in the XML 1.0 `Char` production:
/// `#x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] | [#x10000-#x10FFFF]`.
///
/// Surrogate code points can never reach this predicate through a
/// `char`, but the control range below `#x20` and the two non-characters
/// `#xFFFE`/`#xFFFF` can — a character reference to any of them makes the
/// document ill-formed.
pub fn is_xml_char(c: char) -> bool {
    matches!(
        c,
        '\u{9}' | '\u{A}' | '\u{D}' | '\u{20}'..='\u{D7FF}' | '\u{E000}'..='\u{FFFD}' | '\u{10000}'..='\u{10FFFF}'
    )
}

/// Resolves a numeric character reference, enforcing the XML 1.0 `Char`
/// production (`&#0;`, `&#x1F;`, surrogates, `&#xFFFF;` are all
/// ill-formed even though some pass `char::from_u32`).
fn char_ref(code: u32) -> Result<char, String> {
    char::from_u32(code)
        .filter(|&c| is_xml_char(c))
        .ok_or_else(|| format!("character reference to non-XML-Char code point {code:#x}"))
}

/// Walks the entity and character references of `raw` in order, handing
/// `each` the literal run before a reference and the character it
/// resolves to; returns the literal run after the last one.
fn walk_entities<'a>(raw: &'a str, mut each: impl FnMut(&'a str, char)) -> Result<&'a str, String> {
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        let (literal, reference) = rest.split_at(amp);
        let semi = reference
            .find(';')
            .ok_or_else(|| "unterminated entity reference".to_string())?;
        let ent = &reference[1..semi];
        let bad = |_| format!("bad character reference &{ent};");
        let resolved = match ent {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "apos" => '\'',
            "quot" => '"',
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                char_ref(u32::from_str_radix(&ent[2..], 16).map_err(bad)?)?
            }
            _ if ent.starts_with('#') => char_ref(ent[1..].parse().map_err(bad)?)?,
            _ => return Err(format!("unknown entity &{ent};")),
        };
        each(literal, resolved);
        rest = &reference[semi + 1..];
    }
    Ok(rest)
}

/// Decodes the five predefined entities and numeric character references.
/// Returns `Cow::Borrowed` when no entity occurs.
pub fn decode_entities(raw: &str) -> Result<Cow<'_, str>, String> {
    if !raw.contains('&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let tail = walk_entities(raw, |literal, resolved| {
        out.push_str(literal);
        out.push(resolved);
    })?;
    out.push_str(tail);
    Ok(Cow::Owned(out))
}

/// Checks that `raw` would decode cleanly with [`decode_entities`],
/// without allocating the decoded text — the same walk with nothing
/// kept, for callers (the chunked pruning engine) that copy the raw
/// encoded bytes through to their output.
pub fn validate_entities(raw: &str) -> Result<(), String> {
    walk_entities(raw, |_, _| {}).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_borrowed_when_clean() {
        assert!(matches!(
            decode_entities("hello").unwrap(),
            Cow::Borrowed("hello")
        ));
    }

    #[test]
    fn validate_entities_agrees_with_decode() {
        for s in [
            "",
            "plain text",
            "a &amp; b &lt;&gt;&apos;&quot;",
            "&#65;&#x42;&#x10000;",
            "&broken",
            "&nope;",
            "&#xZZ;",
            "&#99999999999;",
            "&#0;",
            "&#xFFFF;",
            "mixed &amp; &bad; tail",
            "& lone;",
        ] {
            let decoded = decode_entities(s).map(|_| ());
            assert_eq!(validate_entities(s), decoded, "input {s:?}");
        }
    }
}
