//! A minimal JSON value model with an exactness-preserving parser, shared by
//! every hand-rolled exporter in the workspace (snapshot JSON and the core
//! crate's `QueryPlan` encoding).
//!
//! Numbers keep their **lexeme** (the exact byte sequence from the input)
//! instead of eagerly converting to `f64`, so integers larger than 2^53 and
//! shortest-round-trip floats survive a parse → re-render cycle bit-exactly.
//!
//! The second half of the module is the codec those exporters are *derived*
//! from: a [`Field`] says how one value is written and read back, and
//! [`record!`](crate::record) declares a struct once and emits its writer and
//! its parser from that one field list, so the two cannot drift apart.

use std::fmt::Write as _;

/// Deepest container nesting [`parse`] accepts. The parser recurses per
/// level, so unbounded input (`[[[[…`) would otherwise overflow the stack
/// and abort the process; the deepest legal document — a `QueryPlan`
/// nesting the full 64 remote forwards — needs about 135 levels.
pub const MAX_DEPTH: usize = 256;

/// One parsed JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// A number, kept as its source lexeme for exactness.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered field list (duplicate keys keep first wins
    /// via [`Json::get`]).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up `key` in an object.
    pub fn get<'a>(&'a self, key: &str) -> Result<&'a Json, String> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing key {key}")),
            _ => Err(format!("not an object while looking up {key}")),
        }
    }

    /// The elements of an array.
    pub fn arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err("expected array".into()),
        }
    }

    /// The contents of a string.
    pub fn str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err("expected string".into()),
        }
    }

    /// Parse a number lexeme into any `FromStr` numeric type.
    pub fn num<T: std::str::FromStr>(&self) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self {
            Json::Num(s) => s.parse().map_err(|e| format!("bad number {s}: {e}")),
            _ => Err("expected number".into()),
        }
    }
}

/// Escape a string for embedding between JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parse one complete JSON document. Trailing non-whitespace bytes are an
/// error — every caller is a validator, so partial parses must not pass.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let root = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing bytes after JSON at {}", parser.pos));
    }
    Ok(root)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of JSON".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = match self.value()? {
                Json::Str(s) => s,
                _ => return Err("object key must be a string".into()),
            };
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("bad object separator {:?}", other as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("bad array separator {:?}", other as char)),
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("JSON nests deeper than {MAX_DEPTH} levels"));
                }
                self.depth += 1;
                self.pos += 1;
                let container = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                container
            }
            b'"' => {
                self.pos += 1;
                let mut out = String::new();
                loop {
                    let b = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated string".to_string())?;
                    self.pos += 1;
                    match b {
                        b'"' => return Ok(Json::Str(out)),
                        b'\\' => {
                            let esc = *self
                                .bytes
                                .get(self.pos)
                                .ok_or_else(|| "dangling escape".to_string())?;
                            self.pos += 1;
                            match esc {
                                b'"' => out.push('"'),
                                b'\\' => out.push('\\'),
                                b'/' => out.push('/'),
                                b'n' => out.push('\n'),
                                b'r' => out.push('\r'),
                                b't' => out.push('\t'),
                                b'u' => {
                                    let hex = self
                                        .bytes
                                        .get(self.pos..self.pos + 4)
                                        .ok_or_else(|| "short \\u escape".to_string())?;
                                    self.pos += 4;
                                    let code = u32::from_str_radix(
                                        std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                        16,
                                    )
                                    .map_err(|e| e.to_string())?;
                                    out.push(
                                        char::from_u32(code)
                                            .ok_or_else(|| "bad \\u escape".to_string())?,
                                    );
                                }
                                other => return Err(format!("bad escape \\{}", other as char)),
                            }
                        }
                        _ => {
                            // Re-sync to char boundary for multi-byte UTF-8.
                            let start = self.pos - 1;
                            let mut end = self.pos;
                            while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                                end += 1;
                            }
                            out.push_str(
                                std::str::from_utf8(&self.bytes[start..end])
                                    .map_err(|e| e.to_string())?,
                            );
                            self.pos = end;
                        }
                    }
                }
            }
            b'n' => {
                if self.bytes[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Ok(Json::Null)
                } else {
                    Err("bad literal".into())
                }
            }
            _ => {
                let start = self.pos;
                while self.pos < self.bytes.len()
                    && matches!(
                        self.bytes[self.pos],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.pos += 1;
                }
                if start == self.pos {
                    return Err(format!("unexpected byte at {}", self.pos));
                }
                Ok(Json::Num(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?
                        .to_string(),
                ))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Derived codecs
// ---------------------------------------------------------------------------

/// One JSON-encodable value: how it is written and how it is read back.
/// Numbers use Rust's shortest-round-trip `Display`, so `read(write(x)) == x`
/// bit-exactly; `u64`s never pass through `f64`.
pub trait Field: Sized {
    /// Append the value's JSON text to `out`.
    fn write(&self, out: &mut String);
    /// Read the value back from its parsed form.
    fn read(v: &Json) -> Result<Self, String>;
}

/// A struct exported as a JSON object, declared with [`record!`](crate::record).
pub trait Record: Sized {
    /// Append the `"key": value` members joined by `sep`, without braces (a
    /// `flat` member splices its own members into the enclosing object).
    fn write_members(&self, out: &mut String, sep: &str);
    /// Read every member back out of object `v`; a missing key is an error.
    fn read_members(v: &Json) -> Result<Self, String>;
}

macro_rules! number_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read(v: &Json) -> Result<Self, String> {
                v.num()
            }
        }
    )*};
}
number_fields!(u16, u32, u64, i64, f64);

/// Flags are exported as `0` / `1`.
impl Field for bool {
    fn write(&self, out: &mut String) {
        out.push(if *self { '1' } else { '0' });
    }
    fn read(v: &Json) -> Result<Self, String> {
        Ok(v.num::<u64>()? != 0)
    }
}

/// Append `s` as a quoted, escaped JSON string.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    out.push_str(&escape(s));
    out.push('"');
}

impl Field for String {
    fn write(&self, out: &mut String) {
        write_str(self, out);
    }
    fn read(v: &Json) -> Result<Self, String> {
        Ok(v.str()?.to_string())
    }
}

/// `null` when absent.
impl<T: Field> Field for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
    fn read(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::read(v).map(Some),
        }
    }
}

/// A two-element array, e.g. a `["key","value"]` annotation or a
/// `[le,count]` histogram bucket.
impl<A: Field, B: Field> Field for (A, B) {
    fn write(&self, out: &mut String) {
        out.push('[');
        self.0.write(out);
        out.push(',');
        self.1.write(out);
        out.push(']');
    }
    fn read(v: &Json) -> Result<Self, String> {
        match v.arr()? {
            [a, b] => Ok((A::read(a)?, B::read(b)?)),
            other => Err(format!(
                "expected a 2-element pair, got {} elements",
                other.len()
            )),
        }
    }
}

/// `[` + the items, each after `lead`, comma-separated + `close` + `]`.
fn write_array<T: Field>(items: &[T], lead: &str, close: &str, out: &mut String) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(lead);
        item.write(out);
    }
    out.push_str(close);
    out.push(']');
}

/// A compact one-line array.
impl<T: Field> Field for Vec<T> {
    fn write(&self, out: &mut String) {
        write_array(self, "", "", out);
    }
    fn read(v: &Json) -> Result<Self, String> {
        v.arr()?.iter().map(T::read).collect()
    }
}

/// An array with one element per line: elements indented two spaces past
/// `indent`, the closing bracket at `indent`. Reads back like any array.
pub fn write_rows<T: Field>(items: &[T], indent: &str, out: &mut String) {
    write_array(items, &format!("\n{indent}  "), &format!("\n{indent}"), out);
}

/// Declare an exported struct **once**: the struct itself (every field
/// `pub`), its JSON writer and its JSON parser all come from this one field
/// list, so adding a field is a one-line change and forgetting the parser is
/// impossible. Members are written in declaration order as
/// `{"field": value, ...}`; the JSON key is the field name.
///
/// A field may carry a layout after `=`:
/// * `= rows` — a `Vec` written one element per line ([`write_rows`]) at the
///   snapshot document's nesting instead of as a compact array;
/// * `= flat` — a nested record whose members are spliced into this object
///   (a metric's `id` contributes `"name"` and `"label"`).
///
/// One type parameter is supported (`ScalarSnapshot<T>`).
#[macro_export]
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(<$g:ident>)? {
            $( $(#[$fmeta:meta])* $field:ident : $ty:ty $(= $layout:ident)? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name $(<$g>)? {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $(<$g: $crate::json::Field>)? $crate::json::Record for $name $(<$g>)? {
            fn write_members(&self, out: &mut String, sep: &str) {
                let mut first = true;
                $(
                    if !std::mem::take(&mut first) {
                        out.push_str(sep);
                    }
                    $crate::record!(@write [$($layout)?] self.$field, stringify!($field), out, sep);
                )*
            }
            fn read_members(v: &$crate::json::Json) -> Result<Self, String> {
                Ok(Self { $( $field: $crate::record!(@read [$($layout)?] v, stringify!($field)), )* })
            }
        }

        impl $(<$g: $crate::json::Field>)? $crate::json::Field for $name $(<$g>)? {
            fn write(&self, out: &mut String) {
                out.push('{');
                $crate::json::Record::write_members(self, out, ", ");
                out.push('}');
            }
            fn read(v: &$crate::json::Json) -> Result<Self, String> {
                $crate::json::Record::read_members(v)
            }
        }
    };
    (@write [flat] $value:expr, $key:expr, $out:ident, $sep:ident) => {
        $crate::json::Record::write_members(&$value, $out, $sep)
    };
    (@write [$($layout:ident)?] $value:expr, $key:expr, $out:ident, $sep:ident) => {{
        $out.push('"');
        $out.push_str($key);
        $out.push_str("\": ");
        $crate::record!(@value [$($layout)?] $value, $out);
    }};
    (@value [rows] $value:expr, $out:ident) => { $crate::json::write_rows(&$value, "  ", $out) };
    (@value [] $value:expr, $out:ident) => { $crate::json::Field::write(&$value, $out) };
    (@read [flat] $v:ident, $key:expr) => { $crate::json::Record::read_members($v)? };
    (@read [$($layout:ident)?] $v:ident, $key:expr) => { $crate::json::Field::read($v.get($key)?)? };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexemes_survive_exactly() {
        let doc = r#"{"big": 18446744073709551615, "f": 0.1234567890123456789}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("big").unwrap().num::<u64>().unwrap(), u64::MAX);
        match v.get("f").unwrap() {
            Json::Num(lex) => assert_eq!(lex, "0.1234567890123456789"),
            other => panic!("expected number, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        assert!(parse("{} x").is_err());
        assert!(parse("{}").is_ok());
        assert!(parse("  [1, 2]\n").is_ok());
    }

    /// Failed on the parent: the parser recursed once per `[` and the
    /// process died with a stack overflow (SIGABRT, not an `Err`).
    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
        let deepest = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&deepest).is_ok(), "the cap itself is legal");
        let too_deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&too_deep).unwrap_err().contains("deeper"));
    }

    crate::record! {
        #[derive(Debug, PartialEq)]
        pub struct Inner {
            key: String,
            pair: Option<(String, String)>,
        }
    }

    crate::record! {
        #[derive(Debug, PartialEq)]
        pub struct Outer<T> {
            id: Inner = flat,
            value: T,
            on: bool,
            list: Vec<(f64, u64)>,
            table: Vec<Inner> = rows,
        }
    }

    #[test]
    fn records_write_their_layouts_and_read_back() {
        let inner = |k: &str| Inner {
            key: k.into(),
            pair: Some(("a\"b".into(), "c".into())),
        };
        let rec = Outer {
            id: Inner {
                key: "k".into(),
                pair: None,
            },
            value: u64::MAX,
            on: true,
            list: vec![(0.5, 1), (1e-9, 2)],
            table: vec![inner("x"), inner("y")],
        };
        let mut text = String::new();
        rec.write(&mut text);
        assert_eq!(
            text,
            "{\"key\": \"k\", \"pair\": null, \"value\": 18446744073709551615, \"on\": 1, \
             \"list\": [[0.5,1],[0.000000001,2]], \"table\": [\
             \n    {\"key\": \"x\", \"pair\": [\"a\\\"b\",\"c\"]},\
             \n    {\"key\": \"y\", \"pair\": [\"a\\\"b\",\"c\"]}\n  ]}"
        );
        assert_eq!(Outer::<u64>::read(&parse(&text).unwrap()).unwrap(), rec);
        // Every member is required, pairs have exactly two elements.
        let missing = text.replace("\"on\": 1, ", "");
        assert!(Outer::<u64>::read(&parse(&missing).unwrap())
            .unwrap_err()
            .contains("missing key on"));
        let triple = text.replace("[0.5,1]", "[0.5,1,2]");
        assert!(Outer::<u64>::read(&parse(&triple).unwrap()).is_err());
    }
}
