//! The one hand-rolled JSON emitter behind every machine-readable
//! output path (`traffic_sweep --json`, the fault-churn example): a
//! tiny object/document builder so the format
//! lives in exactly one place.
//!
//! The workspace has no serialization dependency (the build is
//! offline), so this module is the single place JSON is written. The
//! emitter enforces the invariant the hand-rolled format relies on:
//! every emitted string is plain `[A-Za-z0-9_.-]`, so no escaping is
//! ever required.

use std::fmt::Display;
use std::fmt::Write as _;

/// A flat JSON object under construction (one row, or one config
/// header). Keys are emitted in insertion order.
#[derive(Clone, Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    fn key(&mut self, key: &str) {
        debug_assert!(
            key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "JSON keys stay snake_case: {key:?}"
        );
        if !self.buf.is_empty() {
            self.buf.push_str(", ");
        }
        let _ = write!(self.buf, "\"{key}\": ");
    }

    /// A raw (unquoted) value: integers, booleans, or floats whose
    /// `Display` form is already the wanted JSON.
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// A float rendered with a fixed number of decimals. Non-finite
    /// values (a zero-duration rate, an empty-histogram mean) emit
    /// `null` — `NaN`/`inf` are not JSON and would corrupt the
    /// document.
    pub fn float(&mut self, key: &str, value: f64, decimals: usize) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value:.decimals$}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// A `null`: the key is part of the row's schema, but this record
    /// has no measurement for it.
    pub(crate) fn null(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str("null");
        self
    }

    /// A quoted string value. Only plain `[A-Za-z0-9_.-]` strings are
    /// accepted (panics otherwise) — the emitter has no escaping on
    /// purpose; see the module docs.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        assert!(
            value.chars().all(|c| c.is_ascii_alphanumeric() || "_-.".contains(c)),
            "JSON string needs escaping, which this emitter refuses: {value:?}"
        );
        self.key(key);
        let _ = write!(self.buf, "\"{value}\"");
        self
    }

    /// An array of unsigned integers.
    pub fn array_u64(&mut self, key: &str, values: &[u64]) -> &mut Self {
        self.key(key);
        self.buf.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.buf.push_str(", ");
            }
            let _ = write!(self.buf, "{v}");
        }
        self.buf.push(']');
        self
    }

    /// The object as `{...}`.
    pub(crate) fn render(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// The standard two-part document every `BENCH_*.json` artifact uses:
/// a `config` summary object plus one flat `rows` object per record.
/// Renders as
///
/// ```json
/// {
///   "config": {...},
///   "rows": [
///     {...},
///     {...}
///   ]
/// }
/// ```
pub fn document(config: &JsonObject, rows: &[JsonObject]) -> String {
    document_with(config, rows, &[])
}

/// [`document`] plus named extra top-level sections, each an array of
/// flat objects — how the observability report (`obs_report`) rides
/// along in `traffic_sweep --json` without disturbing the `rows`
/// trajectory format.
pub(crate) fn document_with(
    config: &JsonObject,
    rows: &[JsonObject],
    sections: &[(&str, &[JsonObject])],
) -> String {
    let mut s = String::with_capacity(64 + 256 * rows.len());
    s.push_str("{\n  \"config\": ");
    s.push_str(&config.render());
    s.push_str(",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        s.push_str("    ");
        s.push_str(&row.render());
        s.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    s.push_str("  ]");
    for (name, objs) in sections {
        debug_assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "section names stay snake_case: {name:?}"
        );
        let _ = write!(s, ",\n  \"{name}\": [\n");
        for (i, o) in objs.iter().enumerate() {
            s.push_str("    ");
            s.push_str(&o.render());
            s.push_str(if i + 1 == objs.len() { "\n" } else { ",\n" });
        }
        s.push_str("  ]");
    }
    s.push_str("\n}\n");
    s
}

/// A value parsed from a flat JSON object line — the subset
/// [`JsonObject`] can emit (numbers, restricted strings, booleans,
/// `null`, arrays of numbers or restricted strings).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum FlatValue {
    /// An integer or float (floats are representable losslessly enough
    /// for every field this workspace round-trips).
    Num(f64),
    /// A quoted string (same restricted charset the emitter enforces).
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array of numbers.
    Nums(Vec<f64>),
    /// An array of strings.
    Strs(Vec<String>),
}

impl FlatValue {
    /// The value as a `u64`, if it is a non-negative integral number.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, which does not fit.
            FlatValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            FlatValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a string array, if it is one (an empty array
    /// parses as `Nums`; it is accepted here too).
    pub(crate) fn as_strs(&self) -> Option<&[String]> {
        match self {
            FlatValue::Strs(v) => Some(v),
            FlatValue::Nums(v) if v.is_empty() => Some(&[]),
            _ => None,
        }
    }
}

/// Parses one flat JSON object line (`{"k": v, ...}`) into its
/// `(key, value)` pairs, in order — the reader for the formats
/// [`JsonObject`] writes (trace files, DAG files). Nested objects and
/// repeated keys are refused; strings must use the emitter's restricted
/// charset (no escapes).
pub(crate) fn parse_flat(line: &str) -> Result<Vec<(String, FlatValue)>, String> {
    let s = line.trim();
    let inner = s
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not a flat object: {line:?}"))?
        .trim();
    let mut pairs = Vec::new();
    let mut rest = inner;
    while !rest.is_empty() {
        let (key, after_key) = take_string(rest)?;
        let after_colon = after_key
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("expected ':' after key {key:?}"))?
            .trim_start();
        let (value, after_value) = take_value(after_colon)?;
        if pairs.iter().any(|(k, _)| *k == key) {
            return Err(format!("repeated key {key:?}"));
        }
        pairs.push((key, value));
        rest = after_value.trim_start();
        match rest.strip_prefix(',') {
            Some(r) => rest = r.trim_start(),
            None if rest.is_empty() => break,
            None => return Err(format!("expected ',' before {rest:?}")),
        }
    }
    Ok(pairs)
}

/// Reads a leading quoted string; returns it and the remaining input.
fn take_string(s: &str) -> Result<(String, &str), String> {
    let body = s.strip_prefix('"').ok_or_else(|| format!("expected a string at {s:?}"))?;
    let end = body.find('"').ok_or_else(|| format!("unterminated string at {s:?}"))?;
    let text = &body[..end];
    if !text.chars().all(|c| c.is_ascii_alphanumeric() || "_-.".contains(c)) {
        return Err(format!("string outside the restricted charset: {text:?}"));
    }
    Ok((text.to_string(), &body[end + 1..]))
}

/// Reads a leading scalar or array value; returns it and the rest.
fn take_value(s: &str) -> Result<(FlatValue, &str), String> {
    if let Some(rest) = s.strip_prefix("true") {
        return Ok((FlatValue::Bool(true), rest));
    }
    if let Some(rest) = s.strip_prefix("false") {
        return Ok((FlatValue::Bool(false), rest));
    }
    if let Some(rest) = s.strip_prefix("null") {
        return Ok((FlatValue::Null, rest));
    }
    if s.starts_with('"') {
        let (text, rest) = take_string(s)?;
        return Ok((FlatValue::Str(text), rest));
    }
    if let Some(mut rest) = s.strip_prefix('[') {
        rest = rest.trim_start();
        let mut nums = Vec::new();
        let mut strs = Vec::new();
        loop {
            rest = rest.trim_start();
            if let Some(after) = rest.strip_prefix(']') {
                break if !strs.is_empty() {
                    Ok((FlatValue::Strs(strs), after))
                } else {
                    Ok((FlatValue::Nums(nums), after))
                };
            }
            // The format has no nested arrays: refuse one before
            // recursing, so a line of `[[[[...` cannot exhaust the stack.
            if rest.starts_with('[') {
                return Err(format!("nested array at {s:?}"));
            }
            match take_value(rest)? {
                (FlatValue::Num(n), after) if strs.is_empty() => {
                    nums.push(n);
                    rest = after;
                }
                (FlatValue::Str(t), after) if nums.is_empty() => {
                    strs.push(t);
                    rest = after;
                }
                _ => return Err(format!("mixed or nested array at {s:?}")),
            }
            rest = rest.trim_start();
            if let Some(after) = rest.strip_prefix(',') {
                rest = after;
            } else if !rest.starts_with(']') {
                return Err(format!("expected ',' or ']' in array at {s:?}"));
            }
        }
    } else {
        let end = s.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c))).unwrap_or(s.len());
        let (num, rest) = s.split_at(end);
        let n: f64 = num.parse().map_err(|_| format!("expected a value at {s:?}"))?;
        Ok((FlatValue::Num(n), rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_render_flat_and_ordered() {
        let mut o = JsonObject::new();
        o.field("a", 1).string("b", "x-y.z").float("c", 1.5, 3).array_u64("d", &[3, 4]);
        assert_eq!(o.render(), r#"{"a": 1, "b": "x-y.z", "c": 1.500, "d": [3, 4]}"#);
    }

    #[test]
    fn documents_have_no_trailing_comma() {
        let mut c = JsonObject::new();
        c.field("mesh", 8);
        let mut r = JsonObject::new();
        r.field("v", true);
        let doc = document(&c, &[r.clone(), r]);
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert!(!doc.contains(",\n  ]"), "{doc}");
        assert!(doc.ends_with("  ]\n}\n"));
    }

    #[test]
    #[should_panic(expected = "needs escaping")]
    fn strings_requiring_escapes_are_refused() {
        JsonObject::new().string("k", "a\"b");
    }

    #[test]
    fn parse_flat_round_trips_the_emitter() {
        let mut o = JsonObject::new();
        o.field("a", 3)
            .string("b", "x-y.z")
            .float("c", 1.5, 3)
            .array_u64("d", &[3, 4])
            .field("e", true)
            .float("f", f64::NAN, 2);
        let pairs = parse_flat(&o.render()).expect("parses");
        assert_eq!(pairs.len(), 6);
        assert_eq!(pairs[0], ("a".into(), FlatValue::Num(3.0)));
        assert_eq!(pairs[0].1.as_u64(), Some(3));
        assert_eq!(pairs[1].1.as_str(), Some("x-y.z"));
        assert_eq!(pairs[2].1, FlatValue::Num(1.5));
        assert_eq!(pairs[3].1, FlatValue::Nums(vec![3.0, 4.0]));
        assert_eq!(pairs[4].1, FlatValue::Bool(true));
        assert_eq!(pairs[5].1, FlatValue::Null);
    }

    #[test]
    fn parse_flat_reads_string_arrays_and_rejects_garbage() {
        let pairs = parse_flat(r#"{"deps": ["a", "b-2"], "none": []}"#).expect("parses");
        assert_eq!(pairs[0].1.as_strs(), Some(&["a".to_string(), "b-2".to_string()][..]));
        assert_eq!(pairs[1].1.as_strs(), Some(&[][..]), "empty arrays act as string arrays");
        assert!(parse_flat("not json").is_err());
        assert!(parse_flat(r#"{"k": }"#).is_err());
        assert!(parse_flat(r#"{"k": [1, "x"]}"#).is_err(), "mixed arrays refused");
        assert!(parse_flat(r#"{"k": "a b"}"#).is_err(), "unrestricted strings refused");
        assert!(parse_flat(r#"{"k": 1, "k": 2}"#).is_err(), "repeated keys refused");
    }

    #[test]
    fn a_deeply_nested_array_is_an_error_not_a_stack_overflow() {
        let line = format!("{{\"k\": {}}}", "[".repeat(1 << 20));
        assert!(parse_flat(&line).unwrap_err().starts_with("nested array"));
        assert!(parse_flat(r#"{"k": [1, [2]]}"#).is_err());
    }

    #[test]
    fn non_finite_floats_emit_null() {
        let mut o = JsonObject::new();
        o.float("nan", f64::NAN, 2).float("inf", f64::INFINITY, 2).float("ok", 2.0, 1);
        assert_eq!(o.render(), r#"{"nan": null, "inf": null, "ok": 2.0}"#);
    }

    #[test]
    fn sections_append_after_rows() {
        let mut c = JsonObject::new();
        c.field("mesh", 8);
        let mut r = JsonObject::new();
        r.field("v", 1);
        let mut s = JsonObject::new();
        s.field("events", 7);
        let doc = document_with(&c, &[r], &[("obs_report", &[s])]);
        assert!(doc.contains("\"obs_report\": [\n    {\"events\": 7}\n  ]"), "{doc}");
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        assert!(!doc.contains(",\n  ]"), "{doc}");
        // The plain document is byte-identical to the sectionless call.
        let mut c2 = JsonObject::new();
        c2.field("mesh", 8);
        let mut r2 = JsonObject::new();
        r2.field("v", 1);
        assert_eq!(document(&c2, &[r2.clone()]), document_with(&c2, &[r2], &[]));
    }
}
