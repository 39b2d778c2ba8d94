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
        write!(f, "XML parse error at byte {}: {}", self.offset, self.message)
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

/// Decodes the five predefined entities and numeric character references.
/// Returns `Cow::Borrowed` when no entity occurs.
pub fn decode_entities(raw: &str) -> Result<Cow<'_, str>, String> {
    let Some(first) = raw.find('&') else {
        return Ok(Cow::Borrowed(raw));
    };
    let mut out = String::with_capacity(raw.len());
    out.push_str(&raw[..first]);
    let mut rest = &raw[first..];
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest
            .find(';')
            .ok_or_else(|| "unterminated entity reference".to_string())?;
        let ent = &rest[1..semi];
        match ent {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                let code = u32::from_str_radix(&ent[2..], 16)
                    .map_err(|_| format!("bad character reference &{ent};"))?;
                out.push(char_ref(code)?);
            }
            _ if ent.starts_with('#') => {
                let code: u32 = ent[1..]
                    .parse()
                    .map_err(|_| format!("bad character reference &{ent};"))?;
                out.push(char_ref(code)?);
            }
            _ => return Err(format!("unknown entity &{ent};")),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

/// Checks that `raw` would decode cleanly with [`decode_entities`],
/// without allocating the decoded text — the validation half of the
/// decoder, for callers (the chunked pruning engine) that copy the raw
/// encoded bytes through to their output. The two functions accept and
/// reject identically, with identical error messages.
pub fn validate_entities(raw: &str) -> Result<(), String> {
    let Some(first) = raw.find('&') else {
        return Ok(());
    };
    let mut rest = &raw[first..];
    while let Some(amp) = rest.find('&') {
        rest = &rest[amp..];
        let semi = rest
            .find(';')
            .ok_or_else(|| "unterminated entity reference".to_string())?;
        let ent = &rest[1..semi];
        match ent {
            "lt" | "gt" | "amp" | "apos" | "quot" => {}
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                let code = u32::from_str_radix(&ent[2..], 16)
                    .map_err(|_| format!("bad character reference &{ent};"))?;
                char_ref(code)?;
            }
            _ if ent.starts_with('#') => {
                let code: u32 = ent[1..]
                    .parse()
                    .map_err(|_| format!("bad character reference &{ent};"))?;
                char_ref(code)?;
            }
            _ => return Err(format!("unknown entity &{ent};")),
        }
        rest = &rest[semi + 1..];
    }
    Ok(())
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
