//! A minimal JSON reader for tests and CI smoke checks.
//!
//! The workspace serializes all of its machine-readable output as
//! hand-rolled JSON (metrics documents, `--stats` lines, analyzer
//! reports). Tests need to *parse* that output without pulling in
//! `serde`, so this module implements the small recursive-descent
//! reader the JSON grammar needs: strict on structure, numbers kept as
//! `f64`, strings fully unescaped (including `\uXXXX` with UTF-16
//! surrogate pairing, so non-BMP escapes like `"😀"` decode;
//! lone or mismatched surrogates are rejected).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (kept as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error (so concatenated JSON lines must be split first).
pub fn parse_json(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("expected '{lit}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            let c = match cp {
                                // High surrogate: a low surrogate escape
                                // must follow; combine them (RFC 8259 §7).
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                        return Err(format!("lone high surrogate \\u{cp:04X}"));
                                    }
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&lo) {
                                        return Err(format!(
                                            "high surrogate \\u{cp:04X} followed by \\u{lo:04X}, not a low surrogate"
                                        ));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                        .expect("paired surrogates are a valid scalar")
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(format!("lone low surrogate \\u{cp:04X}"));
                                }
                                _ => char::from_u32(cp)
                                    .expect("non-surrogate BMP code points are scalars"),
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(format!("bad escape '\\{}'", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (strings arrive validated —
                    // the input is a &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    /// Reads the 4 hex digits of a `\u` escape (cursor past the `\u`).
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_shapes() {
        let v = parse_json(r#"{"a":1,"b":[true,false,null],"c":{"d":"x\ny","e":-2.5e1},"f":""}"#)
            .unwrap();
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(1.0));
        let arr = v.get("b").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[2], Json::Null);
        let c = v.get("c").unwrap();
        assert_eq!(c.get("d").and_then(Json::as_str), Some("x\ny"));
        assert_eq!(c.get("e").and_then(Json::as_f64), Some(-25.0));
        assert_eq!(v.get("f").and_then(Json::as_str), Some(""));
    }

    #[test]
    fn unicode_escapes() {
        let v = parse_json(r#""caf\u00e9 \u2192 bar""#).unwrap();
        assert_eq!(v.as_str(), Some("café → bar"));
    }

    #[test]
    fn surrogate_pairs_decode() {
        // U+1F600 GRINNING FACE as a UTF-16 surrogate pair.
        let v = parse_json("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        // Mid-string, adjacent pairs, mixed hex case.
        let v = parse_json("\"a\\uD83D\\uDE00b\\ud83c\\udf89c\"").unwrap();
        assert_eq!(v.as_str(), Some("a\u{1F600}b\u{1F389}c"));
    }

    #[test]
    fn lone_surrogates_rejected() {
        assert!(parse_json("\"\\ud83d\"").is_err()); // lone high at end
        assert!(parse_json("\"\\ud83d rest\"").is_err()); // high not followed by \u
        assert!(parse_json("\"\\ud83d\\u0041\"").is_err()); // high + non-low escape
        assert!(parse_json("\"\\ud83d\\ud83d\"").is_err()); // high + high
        assert!(parse_json("\"\\ude00\"").is_err()); // lone low
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{}x").is_err());
        assert!(parse_json("\"\\q\"").is_err());
        assert!(parse_json("01a").is_err());
    }
}
