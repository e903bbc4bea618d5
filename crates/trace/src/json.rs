//! The workspace's one JSON implementation: a string escaper for the
//! hand-rolled writers and a minimal std-only reader.
//!
//! Writers keep their own `format!` layouts — those bytes are the JSONL
//! record, daemon and Chrome trace contracts — and pass every string
//! through [`escape`]. [`parse`] reads any of them back: the trace
//! validator (`gpsched-engine trace-check`) and the tests.

use std::fmt::Write as _;

/// Escapes `s` for the inside of a JSON string literal (the quotes are the
/// caller's): `"` and `\` are backslashed, newline, carriage return and
/// tab use their named escapes, and every other control character becomes
/// `\u00XX`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value (minimal model: numbers are `f64`).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered as a pair list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
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

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members in document order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (rejects trailing data).
///
/// # Errors
///
/// A message naming the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut r = Reader { text, pos: 0 };
    let value = r.value()?;
    r.skip_ws();
    if r.pos != text.len() {
        return Err(format!("trailing data at byte {}", r.pos));
    }
    Ok(value)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if self.peek() != Some(b':') {
                        return Err(format!("expected ':' at byte {}", self.pos));
                    }
                    self.pos += 1;
                    members.push((key, self.value()?));
                    if !self.comma_or(b'}')? {
                        return Ok(Json::Obj(members));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if !self.comma_or(b']')? {
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    /// Consumes `,` and returns `true`, or consumes `close` and returns
    /// `false`.
    fn comma_or(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.pos
            )),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one slice.
            // Both are ASCII, so the run ends on a character boundary.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    out.push(self.escaped()?);
                }
            }
        }
    }

    /// Decodes the escape after a backslash, leaving `pos` past it.
    fn escaped(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'u') => {
                let code = self
                    .text
                    .get(self.pos + 1..self.pos + 5)
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                self.pos += 4;
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(format!("bad escape at byte {}", self.pos)),
        };
        self.pos += 1;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_names_the_common_controls_and_hexes_the_rest() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("\n\r\t"), "\\n\\r\\t");
        assert_eq!(escape("\u{1}\u{1f}"), "\\u0001\\u001f");
        assert_eq!(escape("é ✓"), "é ✓");
    }

    #[test]
    fn multibyte_strings_with_every_escape_round_trip() {
        let mut all_controls: String = (0u8..0x20).map(char::from).collect();
        all_controls.push_str("\"\\/");
        for s in [
            "plain",
            "",
            "naïve — ünïcödé ✓ 🦀",
            "🦀\"🦀\\🦀\n🦀\t",
            "\u{7f}\u{80}\u{ffff}",
            all_controls.as_str(),
        ] {
            let doc = format!("{{\"k\":\"{}\"}}", escape(s));
            assert!(!doc.chars().any(|c| (c as u32) < 0x20), "{doc:?}");
            let back = parse(&doc).unwrap();
            assert_eq!(back.get("k").and_then(Json::as_str), Some(s), "{doc}");
        }
        // Escapes the writer never emits still decode.
        let doc = parse(r#""\/\b\f\u00e9\u2713""#).unwrap();
        assert_eq!(doc.as_str(), Some("/\u{8}\u{c}é✓"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // One copy per unescaped run: a multi-megabyte string with sparse
        // escapes parses in well under a second even in debug builds.
        let body = "ü".repeat(1 << 20) + "\\n" + &"x".repeat(1 << 20);
        let doc = parse(&format!("[\"{body}\"]")).unwrap();
        let s = doc.as_arr().unwrap()[0].as_str().unwrap();
        assert_eq!(s.len(), (2 << 20) + 1 + (1 << 20));
    }
}
