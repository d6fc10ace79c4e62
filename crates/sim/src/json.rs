//! A minimal JSON reader/writer for replay artifacts.
//!
//! The workspace builds offline with no serde, so the shrinker's replay
//! artifacts use this hand-rolled implementation instead. It covers
//! exactly what the artifact schema needs — objects, arrays, strings,
//! booleans, and *unsigned integers* — and nothing more. Floats, escapes
//! beyond the JSON basics, and non-integer numbers are out of scope; the
//! schema never produces them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value (integers only; the artifact schema has no floats).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. `BTreeMap` keeps key order deterministic.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value at `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// This value as an integer.
    pub fn as_int(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises compactly (no whitespace), with object keys in
    /// `BTreeMap` order — the same input always produces the same bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => write_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

/// An object of `fields`; the map orders the keys.
pub fn object<'k>(fields: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
    let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
    Value::Object(fields.collect())
}

/// `v[key]` in the integer type it fills; `None` when it is missing, not
/// an integer, or does not fit: a reader never narrows with `as`.
pub fn int<T: TryFrom<u64>>(v: &Value, key: &str) -> Option<T> {
    T::try_from(v.get(key)?.as_int()?).ok()
}

/// Serializes records as JSONL: one compact object per line.
pub fn to_jsonl<T>(records: &[T], to_value: impl Fn(&T) -> Value) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&to_value(r).to_json());
        out.push('\n');
    }
    out
}

/// Parses the output of [`to_jsonl`], one record per non-empty line;
/// `what` names the record in errors.
pub fn from_jsonl<T>(
    text: &str,
    what: &str,
    from_value: impl Fn(&Value) -> Option<T>,
) -> Result<Vec<T>, String> {
    let lines = text.lines().map(str::trim).enumerate();
    let records = lines.filter(|(_, line)| !line.is_empty()).map(|(i, line)| {
        let v = parse(line).ok_or_else(|| format!("line {}: not valid JSON", i + 1))?;
        from_value(&v).ok_or_else(|| format!("line {}: not {what}", i + 1))
    });
    records.collect()
}

/// Parses a JSON document. Returns `None` on any syntax error or on
/// trailing garbage after the top-level value.
pub fn parse(input: &str) -> Option<Value> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Some(v)
    } else {
        None
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn literal(&mut self, word: &str) -> Option<()> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Value> {
        self.skip_ws();
        match self.peek()? {
            b'n' => self.literal("null").map(|()| Value::Null),
            b't' => self.literal("true").map(|()| Value::Bool(true)),
            b'f' => self.literal("false").map(|()| Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => self.array(),
            b'{' => self.object(),
            b'0'..=b'9' => self.integer(),
            _ => None,
        }
    }

    fn integer(&mut self) -> Option<Value> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        text.parse::<u64>().ok().map(Value::Int)
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => {
                    // Consume one UTF-8 character, not one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).ok()?;
                    let c = rest.chars().next()?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Option<Value> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => {
                    self.pos += 1;
                }
                b']' => {
                    self.pos += 1;
                    return Some(Value::Array(items));
                }
                _ => return None,
            }
        }
    }

    fn object(&mut self) -> Option<Value> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek()? {
                b',' => {
                    self.pos += 1;
                }
                b'}' => {
                    self.pos += 1;
                    return Some(Value::Object(map));
                }
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, Value)]) -> Value {
        Value::Object(
            pairs
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn round_trips_the_artifact_shapes() {
        let doc = obj(&[
            ("schema", Value::Str("wv-chaos-repro/1".into())),
            ("seed", Value::Int(18446744073709551615)),
            (
                "events",
                Value::Array(vec![
                    obj(&[
                        ("at_ms", Value::Int(10)),
                        ("kind", Value::Str("heal".into())),
                    ]),
                    obj(&[
                        ("at_ms", Value::Int(20)),
                        ("group_a", Value::Array(vec![Value::Int(0), Value::Int(3)])),
                    ]),
                ]),
            ),
            ("unchecked", Value::Bool(true)),
        ]);
        let text = doc.to_json();
        assert_eq!(parse(&text), Some(doc));
    }

    #[test]
    fn serialisation_is_deterministic() {
        let a = obj(&[("b", Value::Int(2)), ("a", Value::Int(1))]);
        // BTreeMap ordering: keys serialise sorted regardless of insertion.
        assert_eq!(a.to_json(), r#"{"a":1,"b":2}"#);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = Value::Str("line\n\"quoted\"\\x\tend\u{1}".into());
        let text = s.to_json();
        assert_eq!(parse(&text), Some(s));
        assert!(text.contains("\\u0001"));
    }

    #[test]
    fn parses_whitespace_liberally() {
        let v = parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").expect("parses");
        assert_eq!(
            v.get("a").and_then(Value::as_array).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.get("b"), Some(&Value::Null));
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "12x", "{\"a\":1} extra", "nul"] {
            assert_eq!(parse(bad), None, "should reject {bad:?}");
        }
    }

    #[test]
    fn unicode_survives() {
        let s = Value::Str("héllo → wörld".into());
        assert_eq!(parse(&s.to_json()), Some(s));
    }
}
