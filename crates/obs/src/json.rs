//! The workspace's one JSON reader and string escaper.
//!
//! Every JSON artifact the ecosystem writes is hand-rolled: metrics
//! snapshots ([`Snapshot::to_json`](crate::Snapshot::to_json)), Chrome
//! traces ([`to_chrome_json`](crate::to_chrome_json)), campaign
//! checkpoint lines and incident bundles (`s4e-faultsim`). Their
//! writers escape strings with [`escape`], and their readers decode
//! through [`parse`]. The subset parsed is exactly what those writers
//! emit: objects, arrays, strings and unsigned integers, with no floats,
//! booleans or nulls.

use std::collections::BTreeMap;
use std::iter::Peekable;
use std::str::Chars;

/// A parsed JSON value (the emitted subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// An object, keys in parse order not preserved (BTreeMap).
    Obj(BTreeMap<String, Json>),
    /// An array.
    Arr(Vec<Json>),
    /// A string.
    Str(String),
    /// An unsigned integer.
    Num(u64),
}

impl Json {
    /// The object's members, when this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array's items, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, when this is an unsigned integer.
    pub fn as_num(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses one complete JSON document; trailing garbage is an error.
pub fn parse(text: &str) -> Option<Json> {
    let mut chars = text.chars().peekable();
    let value = parse_value(&mut chars)?;
    skip_ws(&mut chars);
    chars.next().is_none().then_some(value)
}

fn skip_ws(chars: &mut Peekable<Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn parse_value(chars: &mut Peekable<Chars<'_>>) -> Option<Json> {
    skip_ws(chars);
    match chars.peek()? {
        '{' => parse_object(chars),
        '[' => parse_array(chars),
        '"' => parse_string(chars).map(Json::Str),
        '0'..='9' => parse_number(chars).map(Json::Num),
        _ => None,
    }
}

fn parse_object(chars: &mut Peekable<Chars<'_>>) -> Option<Json> {
    chars.next_if_eq(&'{')?;
    let mut map = BTreeMap::new();
    skip_ws(chars);
    if chars.next_if_eq(&'}').is_some() {
        return Some(Json::Obj(map));
    }
    loop {
        skip_ws(chars);
        let key = parse_string(chars)?;
        skip_ws(chars);
        chars.next_if_eq(&':')?;
        let value = parse_value(chars)?;
        map.insert(key, value);
        skip_ws(chars);
        match chars.next()? {
            ',' => continue,
            '}' => return Some(Json::Obj(map)),
            _ => return None,
        }
    }
}

fn parse_array(chars: &mut Peekable<Chars<'_>>) -> Option<Json> {
    chars.next_if_eq(&'[')?;
    let mut items = Vec::new();
    skip_ws(chars);
    if chars.next_if_eq(&']').is_some() {
        return Some(Json::Arr(items));
    }
    loop {
        items.push(parse_value(chars)?);
        skip_ws(chars);
        match chars.next()? {
            ',' => continue,
            ']' => return Some(Json::Arr(items)),
            _ => return None,
        }
    }
}

fn parse_number(chars: &mut Peekable<Chars<'_>>) -> Option<u64> {
    let mut n: u64 = 0;
    let mut any = false;
    while let Some(d) = chars.peek().and_then(|c| c.to_digit(10)) {
        n = n.checked_mul(10)?.checked_add(u64::from(d))?;
        chars.next();
        any = true;
    }
    any.then_some(n)
}

fn parse_string(chars: &mut Peekable<Chars<'_>>) -> Option<String> {
    chars.next_if_eq(&'"')?;
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a":{"type":"histogram","buckets":[[0,1],[3,2]]},"b":7}"#;
        let v = parse(doc).expect("parses");
        let obj = v.as_obj().unwrap();
        assert_eq!(obj["b"].as_num(), Some(7));
        let a = obj["a"].as_obj().unwrap();
        assert_eq!(a["type"].as_str(), Some("histogram"));
        assert_eq!(a["buckets"].as_arr().unwrap().len(), 2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_none());
        assert!(parse("{").is_none());
        assert!(parse("{}x").is_none());
        assert!(parse("[1,]").is_none());
        assert!(parse("{\"a\":}").is_none());
        assert!(parse("-1").is_none());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "a\"b\\c\nd\u{1}";
        let doc = format!("\"{}\"", escape(s));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(s));
    }
}
