//! A deliberately tiny, std-only JSON reader/writer.
//!
//! The workspace is dependency-free by policy, so the fault-plan
//! round-trip ([`crate::FaultPlan::to_json`] /
//! [`crate::FaultPlan::from_json`]) carries its own encoding: a value
//! tree, a recursive-descent parser, and a writer. It supports exactly
//! the JSON the plan encoding produces — objects, arrays, finite
//! numbers, strings without exotic escapes, booleans, null — which is
//! also all that a hand-edited plan file needs.
//!
//! The module is `#[doc(hidden)] pub` for the benefit of the other
//! workspace crates (the `cubemm-serve` JSON-lines protocol reuses it);
//! it is an internal utility, not a supported public API.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered; plan encodings never repeat a key.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A non-negative integer small enough to round-trip through `f64`.
    pub fn as_index(&self) -> Option<u64> {
        let x = self.as_f64()?;
        if x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53) {
            Some(x as u64)
        } else {
            None
        }
    }

    /// Serializes the value on one line (no pretty-printing; plan files
    /// are small and diff-friendly enough as-is).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) {
                    // Keep whole numbers readable (indices, steps).
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    // `{:?}` prints f64 with enough digits to round-trip.
                    let _ = write!(out, "{x:?}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded depth would let one hostile line
/// (`[[[[…`) overflow the stack and abort the process; no plan or
/// request comes anywhere near this.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing garbage is an error, and
/// so is nesting deeper than [`MAX_DEPTH`]).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

/// Parses the value at `pos`, nested `depth` containers deep.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key at byte {} is not a string", *pos)),
                };
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'u') => {
                                let hex = bytes
                                    .get(*pos + 1..*pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or_else(|| "truncated \\u escape".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                                s.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| format!("bad code point {code:#x}"))?,
                                );
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (the input is a &str,
                        // so byte boundaries are valid).
                        let rest = &bytes[*pos..];
                        let text = std::str::from_utf8(rest)
                            .map_err(|_| "invalid UTF-8 in string".to_string())?;
                        let c = text.chars().next().ok_or("unterminated string")?;
                        s.push(c);
                        *pos += c.len_utf8();
                    }
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos])
                .map_err(|_| "invalid UTF-8 in number".to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("invalid number '{text}' at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let text = r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "s": "hi\nthere"}"#;
        let value = parse(text).unwrap();
        assert_eq!(value.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            value.get("b").unwrap().get("c").unwrap().as_bool(),
            Some(true)
        );
        let reparsed = parse(&value.encode()).unwrap();
        assert_eq!(reparsed, value);
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_numbers() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1, ]").is_err());
        assert!(parse("nope").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        // `depth` objects: depth - 1 keyed wrappers around an empty one.
        let objects = |depth: usize| "{\"k\":".repeat(depth - 1) + "{}" + &"}".repeat(depth - 1);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        for too_deep in [arrays(MAX_DEPTH + 1), objects(MAX_DEPTH + 1)] {
            let err = parse(&too_deep).unwrap_err();
            assert!(err.contains("nesting"), "{err}");
        }
        // Far past any stack: answered with an error, not an abort.
        for hostile in ["[".repeat(300_000), "{\"a\":".repeat(300_000)] {
            let err = parse(&hostile).unwrap_err();
            assert!(err.contains("nesting"), "{err}");
        }
    }

    #[test]
    fn index_guard_rejects_negatives_and_fractions() {
        assert_eq!(parse("7").unwrap().as_index(), Some(7));
        assert_eq!(parse("-7").unwrap().as_index(), None);
        assert_eq!(parse("7.5").unwrap().as_index(), None);
    }
}
