//! The JSON writer every exporter in the workspace is derived from
//! (snapshot JSON and the core crate's `QueryPlan` document).
//!
//! A [`Field`] says how one value is written, and
//! [`record!`](crate::record) declares a struct once and emits its writer
//! from that one field list. Exports are write-only: nothing in the
//! workspace reads them back, so there is no parser to keep in step.

use std::fmt::Write as _;

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

// ---------------------------------------------------------------------------
// Derived writers
// ---------------------------------------------------------------------------

/// One JSON-encodable value: how it is written. Numbers use Rust's
/// shortest-round-trip `Display`, so a reader's `parse::<f64>()` recovers
/// them bit-exactly; `u64`s never pass through `f64`.
pub trait Field {
    /// Append the value's JSON text to `out`.
    fn write(&self, out: &mut String);
}

/// A struct exported as a JSON object, declared with [`record!`](crate::record).
pub trait Record {
    /// Append the `"key": value` members joined by `sep`, without braces (a
    /// `flat` member splices its own members into the enclosing object).
    fn write_members(&self, out: &mut String, sep: &str);
}

macro_rules! number_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
number_fields!(u32, u64, i64, f64);

/// A quoted, escaped JSON string.
impl Field for String {
    fn write(&self, out: &mut String) {
        out.push('"');
        out.push_str(&escape(self));
        out.push('"');
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
}

/// An array with one element per line: elements indented two spaces past
/// `indent`, the closing bracket at `indent`.
pub fn write_rows<T: Field>(items: &[T], indent: &str, out: &mut String) {
    write_array(items, &format!("\n{indent}  "), &format!("\n{indent}"), out);
}

/// Declare an exported struct **once**: the struct itself (every field
/// `pub`) and its JSON writer both come from this one field list, so adding
/// a field is a one-line change. Members are written in declaration order
/// as `{"field": value, ...}`; the JSON key is the field name.
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
        }

        impl $(<$g: $crate::json::Field>)? $crate::json::Field for $name $(<$g>)? {
            fn write(&self, out: &mut String) {
                out.push('{');
                $crate::json::Record::write_members(self, out, ", ");
                out.push('}');
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every character JSON requires escaped, and neighbours that must pass
    /// through untouched (`/`, DEL, multi-byte UTF-8).
    #[test]
    fn escape_table() {
        for (raw, escaped) in [
            ("plain", "plain"),
            ("\"", "\\\""),
            ("\\", "\\\\"),
            ("\n", "\\n"),
            ("\r", "\\r"),
            ("\t", "\\t"),
            ("\u{0}", "\\u0000"),
            ("\u{1}", "\\u0001"),
            ("\u{1f}", "\\u001f"),
            (" ", " "),
            ("/", "/"),
            ("\u{7f}", "\u{7f}"),
            ("\u{e9}\u{4e16}", "\u{e9}\u{4e16}"),
            ("a\"b\\c\nd\te\u{1}f", "a\\\"b\\\\c\\nd\\te\\u0001f"),
        ] {
            assert_eq!(escape(raw), escaped, "escape({raw:?})");
        }
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
            list: Vec<(f64, u64)>,
            table: Vec<Inner> = rows,
        }
    }

    #[test]
    fn records_write_their_layouts() {
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
            list: vec![(0.5, 1), (1e-9, 2)],
            table: vec![inner("x"), inner("y")],
        };
        let mut text = String::new();
        rec.write(&mut text);
        assert_eq!(
            text,
            "{\"key\": \"k\", \"pair\": null, \"value\": 18446744073709551615, \
             \"list\": [[0.5,1],[0.000000001,2]], \"table\": [\
             \n    {\"key\": \"x\", \"pair\": [\"a\\\"b\",\"c\"]},\
             \n    {\"key\": \"y\", \"pair\": [\"a\\\"b\",\"c\"]}\n  ]}"
        );
    }
}
