//! The bench record format: a writer that declares each gated metric
//! where it writes it, and a minimal reader for the perf gate.
//!
//! The workspace has zero external dependencies, so the `BENCH_*.json`
//! records are written by [`Obj`] and read back by [`Json`], a small,
//! strict recursive-descent parser with dotted-path lookup. Numbers parse
//! as `f64` (every gated metric is scalar), strings support the standard
//! escapes, and trailing garbage is an error.
//!
//! [`Obj::gated`] writes a metric and declares its [`Band`]: which way is
//! better, the relative band and the absolute floor. [`Obj::record`]
//! appends every declaration as the record's `gate` list, one entry
//! (`{"path", "better", "band", "floor"}`) per gated metric. The
//! `perf_gate` bin judges exactly the list a committed baseline carries
//! ([`gates`]), so each gated metric is declared once, in the call that
//! writes its value.
//!
//! ```
//! use grw_bench::json::{gates, higher, Json, Obj};
//!
//! let summary = Obj::new().gated("walks", 4096.0, 0, higher(0.05));
//! let record = Obj::new().str("bench", "demo").obj("summary", summary).record();
//! let declared = gates(&Json::parse(&record).unwrap()).unwrap();
//! assert_eq!(declared[0].path, "summary.walks");
//! ```

use grw_obs::PhaseSummary;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

/// A parse error with byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl Json {
    /// Parses a complete JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after document"));
        }
        Ok(value)
    }

    /// Looks up a dotted path: object keys by name, array elements by
    /// decimal index (e.g. `"points.0.mean_latency_ticks"`). An empty
    /// path returns `self`.
    pub fn get(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        if path.is_empty() {
            return Some(cur);
        }
        for part in path.split('.') {
            cur = match cur {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == part).map(|(_, v)| v)?,
                Json::Arr(items) => items.get(part.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn err(at: usize, msg: &str) -> JsonError {
    JsonError {
        at,
        msg: msg.to_string(),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), JsonError> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected '{}'", ch as char)))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(err(*pos, &format!("unexpected character '{}'", *c as char))),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected '{word}'")))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii slice");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, &format!("invalid number '{text}'")))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| err(*pos, "bad \\u escape"))?,
                            16,
                        )
                        .map_err(|_| err(*pos, "bad \\u escape"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "unknown escape")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through untouched.
                let len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = b
                    .get(*pos..*pos + len)
                    .ok_or_else(|| err(*pos, "truncated utf-8"))?;
                out.push_str(std::str::from_utf8(chunk).map_err(|_| err(*pos, "invalid utf-8"))?);
                *pos += len;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

/// How far a gated metric may move: the gate fails a value that is
/// worse than the baseline's by more than `max(rel · |baseline|, floor)`.
/// The floor keeps near-zero baselines (bubble ratios, small tick
/// counts) from failing on ±1 noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Higher is better (throughput, counts), or lower is (latency).
    pub higher_is_better: bool,
    /// Relative band, as a fraction of the baseline value.
    pub rel: f64,
    /// Absolute floor of the band.
    pub floor: f64,
}

/// A higher-is-better band of `rel` relative slack and no floor.
pub const fn higher(rel: f64) -> Band {
    Band {
        higher_is_better: true,
        ..lower(rel, 0.0)
    }
}

/// A lower-is-better band of `rel` relative slack, never narrower than
/// `floor`.
pub const fn lower(rel: f64, floor: f64) -> Band {
    Band {
        higher_is_better: false,
        rel,
        floor,
    }
}

/// One entry of a record's `gate` list: a dotted path and its band.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Dotted path of the gated value in the record.
    pub path: String,
    /// Its direction, relative band and absolute floor.
    pub band: Band,
}

/// A JSON object under construction. Fields print in the order they are
/// added. A [`gated`](Self::gated) field also declares a [`Gate`]; a
/// parent [`obj`](Self::obj) prefixes its children's declarations with
/// their key, so each gated path is spelled once.
#[derive(Debug, Default)]
pub struct Obj {
    /// Rendered `"key": value` pairs.
    fields: Vec<String>,
    gates: Vec<Gate>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn field(mut self, key: &str, value: &str) -> Self {
        self.fields.push(format!("{}: {value}", quote(key)));
        self
    }

    /// An integer.
    pub fn int(self, key: &str, value: u64) -> Self {
        self.field(key, &value.to_string())
    }

    /// A number with `decimals` places; `null` if it is not finite.
    pub fn num(self, key: &str, value: f64, decimals: usize) -> Self {
        self.opt(key, Some(value), decimals)
    }

    /// An optional number with `decimals` places; `null` if it is absent
    /// or not finite.
    pub fn opt(self, key: &str, value: Option<f64>, decimals: usize) -> Self {
        match value {
            Some(v) if v.is_finite() => self.field(key, &format!("{v:.decimals$}")),
            _ => self.field(key, "null"),
        }
    }

    /// A string.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.field(key, &quote(value))
    }

    /// A gated metric: written as [`opt`](Self::opt) writes it, and
    /// declared with its band.
    pub fn gated(
        mut self,
        key: &str,
        value: impl Into<Option<f64>>,
        decimals: usize,
        band: Band,
    ) -> Self {
        let path = key.to_string();
        self.gates.push(Gate { path, band });
        self.opt(key, value.into(), decimals)
    }

    /// A nested object, printed on its parent's line. Its declarations
    /// move up under `key.`.
    pub fn obj(mut self, key: &str, child: Obj) -> Self {
        self.adopt(key, &child.gates);
        self.field(key, &child.inline())
    }

    /// An array of objects, one element per line. An element has no
    /// stable path, so a gated metric inside one keeps the unresolvable
    /// path `key[].…`, which [`record`](Self::record) rejects.
    pub fn arr(mut self, key: &str, items: impl IntoIterator<Item = Obj>) -> Self {
        let mut text = String::from("[");
        for item in items {
            self.adopt(&format!("{key}[]"), &item.gates);
            text += if text.len() == 1 { "\n    " } else { ",\n    " };
            // An array nested in an element indents one step further.
            text += &item.inline().replace('\n', "\n  ");
        }
        text += if text.len() == 1 { "]" } else { "\n  ]" };
        self.field(key, &text)
    }

    fn adopt(&mut self, prefix: &str, gates: &[Gate]) {
        self.gates.extend(gates.iter().map(|g| Gate {
            path: format!("{prefix}.{}", g.path),
            band: g.band,
        }));
    }

    fn inline(&self) -> String {
        format!("{{{}}}", self.fields.join(", "))
    }

    /// The `phases` block: the exact integer sums and p99s of a
    /// [`PhaseSummary`], so a regression between two records can be
    /// attributed to a phase without their traces. Gates the span count
    /// exactly and each sum at its relative band, given in the order
    /// `[total, batch_wait, backend, sink_wait]`, above a shared `floor`.
    pub fn phases(self, s: &PhaseSummary, bands: [f64; 4], floor: f64) -> Self {
        let [total, batch_wait, backend, sink_wait] = bands.map(|rel| lower(rel, floor));
        let [bw, be, sw] = s.phase_sums.map(|v| v as f64);
        let block = Obj::new()
            .gated("count", s.count as f64, 0, higher(0.0))
            .gated("batch_wait_sum", bw, 0, batch_wait)
            .int("batch_wait_p99", s.phase_p99[0])
            .gated("backend_sum", be, 0, backend)
            .int("backend_p99", s.phase_p99[1])
            .gated("sink_wait_sum", sw, 0, sink_wait)
            .int("sink_wait_p99", s.phase_p99[2])
            .gated("total_sum", s.total_sum as f64, 0, total)
            .int("total_p99", s.total_p99)
            .int("total_max", s.total_max);
        self.obj("phases", block)
    }

    /// Renders the object as a bench record: one top-level field per
    /// line, then the `gate` list of every declaration, in the order
    /// they were made.
    ///
    /// # Panics
    ///
    /// If a declared path does not resolve to a number or `null` in the
    /// record, as for a gated metric inside an array element.
    pub fn record(mut self) -> String {
        let gates = std::mem::take(&mut self.gates);
        let entries = gates.iter().map(|g| {
            let better = if g.band.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let (rel, floor) = (format!("{:?}", g.band.rel), format!("{:?}", g.band.floor));
            let entry = Obj::new().str("path", &g.path).str("better", better);
            entry.field("band", &rel).field("floor", &floor)
        });
        let fields = self.arr("gate", entries).fields;
        let text = format!("{{\n  {}\n}}\n", fields.join(",\n  "));
        let doc = Json::parse(&text).expect("the record writer emits valid JSON");
        for g in &gates {
            assert!(
                matches!(doc.get(&g.path), Some(Json::Num(_) | Json::Null)),
                "gated path `{}` does not resolve to a number or null in the record",
                g.path
            );
        }
        text
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out += &format!("\\u{:04x}", u32::from(c)),
            c => out.push(c),
        }
    }
    out + "\""
}

/// Reads a record's `gate` list, in order. A record without one declares
/// nothing.
///
/// # Errors
///
/// If `gate` is not a list, or an entry lacks a string `path`, names a
/// direction other than `"higher"` or `"lower"`, or has a `band` or
/// `floor` that is missing, negative or not finite.
pub fn gates(record: &Json) -> Result<Vec<Gate>, String> {
    let Some(list) = record.get("gate") else {
        return Ok(Vec::new());
    };
    let list = list.as_arr().ok_or("`gate` is not a list")?;
    let entry = |(i, e): (usize, &Json)| {
        let bad = |what: &str| format!("gate entry {i}: {what}");
        let path = e.get("path").and_then(Json::as_str);
        let path = path.ok_or_else(|| bad("no string `path`"))?.to_string();
        let higher_is_better = match e.get("better").and_then(Json::as_str) {
            Some(better @ ("higher" | "lower")) => better == "higher",
            _ => return Err(bad("`better` is neither \"higher\" nor \"lower\"")),
        };
        let slack = |key: &str| {
            let v = e.get(key).and_then(Json::as_f64);
            v.filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| bad(&format!("`{key}` is not a finite non-negative number")))
        };
        let (rel, floor) = (slack("band")?, slack("floor")?);
        let band = Band {
            higher_is_better,
            rel,
            floor,
        };
        Ok(Gate { path, band })
    };
    list.iter().enumerate().map(entry).collect()
}

/// A record's `phases` block as a [`PhaseSummary`], if it carries a
/// complete one. Integer sums round-trip exactly through the JSON.
pub fn phase_summary(record: &Json) -> Option<PhaseSummary> {
    let num = |k: &str| Some(record.get(&format!("phases.{k}"))?.as_f64()? as u64);
    let phase = |p: &str| Some([num(&format!("{p}_sum"))?, num(&format!("{p}_p99"))?]);
    let [bw, be, sw] = ["batch_wait", "backend", "sink_wait"].map(phase);
    let ([bw, bw99], [be, be99], [sw, sw99]) = (bw?, be?, sw?);
    Some(PhaseSummary {
        count: num("count")?,
        phase_sums: [bw, be, sw],
        phase_p99: [bw99, be99, sw99],
        total_sum: num("total_sum")?,
        total_p99: num("total_p99")?,
        total_max: num("total_max")?,
    })
}

/// The host's available parallelism, which every record notes as
/// context for its wall-clock figures.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_paths() {
        let doc = Json::parse(
            r#"{"bench": "load", "nested": {"rate": 1.5e2, "ok": true, "none": null},
                "points": [{"x": 1}, {"x": -2.25}]}"#,
        )
        .unwrap();
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("load"));
        assert_eq!(doc.get("nested.rate").unwrap().as_f64(), Some(150.0));
        assert_eq!(doc.get("nested.ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("nested.none"), Some(&Json::Null));
        assert_eq!(doc.get("points.1.x").unwrap().as_f64(), Some(-2.25));
        assert_eq!(doc.get("points.2.x"), None);
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.get("points").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn parses_our_own_bench_output_shape() {
        let doc = Json::parse(
            "{\n  \"bench\": \"serving\",\n  \"batch\": {\"simulated_cycles\": 123456, \
             \"bubble_ratio\": 0.031250},\n  \"bubble_improvement\": null\n}\n",
        )
        .unwrap();
        assert_eq!(
            doc.get("batch.simulated_cycles").unwrap().as_f64(),
            Some(123_456.0)
        );
        assert_eq!(doc.get("bubble_improvement"), Some(&Json::Null));
    }

    #[test]
    fn strings_support_escapes() {
        let doc = Json::parse(r#"{"s": "a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(doc.get("s").unwrap().as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{}extra").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn rejects_overlong_number_runs() {
        assert!(Json::parse("1.2.3").is_err());
    }

    #[test]
    fn non_finite_and_absent_numbers_are_written_as_null() {
        let record = Obj::new()
            .num("inf", f64::INFINITY, 3)
            .num("nan", f64::NAN, 3)
            .opt("none", None, 3)
            .opt("some", Some(1.5), 2)
            .gated("gated_inf", f64::NEG_INFINITY, 0, higher(0.1))
            .record();
        let doc = Json::parse(&record).unwrap();
        for key in ["inf", "nan", "none", "gated_inf"] {
            assert_eq!(doc.get(key), Some(&Json::Null), "{key} in {record}");
        }
        assert!(record.contains("\"some\": 1.50"), "{record}");
    }

    #[test]
    fn strings_round_trip_through_the_reader() {
        let text = "a \"quoted\" \\path\\ on\ntwo lines\t";
        let record = Obj::new().str("s", text).str(text, "key").record();
        let doc = Json::parse(&record).unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some(text));
        assert!(matches!(&doc, Json::Obj(f) if f[1].0 == text));
    }

    #[test]
    fn nested_gates_are_declared_under_their_full_path() {
        let record = Obj::new()
            .int("top", 1)
            .obj(
                "outer",
                Obj::new().obj("inner", Obj::new().gated("x", 2.0, 1, lower(0.3, 8.0))),
            )
            .record();
        let doc = Json::parse(&record).unwrap();
        assert_eq!(
            gates(&doc).unwrap(),
            [Gate {
                path: "outer.inner.x".into(),
                band: lower(0.3, 8.0),
            }]
        );
        assert_eq!(doc.get("outer.inner.x").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn gates_reads_back_every_declaration_in_order() {
        let summary = PhaseSummary {
            count: 4,
            phase_sums: [2, 8, 4],
            phase_p99: [1, 3, 2],
            total_sum: 14,
            total_p99: 5,
            total_max: 6,
        };
        let record = Obj::new()
            .gated("a", 1.0, 0, higher(0.15))
            .obj("s", Obj::new().gated("b", None, 3, lower(0.0, 0.03)))
            .arr("points", [Obj::new().int("x", 1), Obj::new().int("x", 2)])
            .phases(&summary, [0.35, 0.5, 0.3, 0.0], 64.0)
            .record();
        let doc = Json::parse(&record).unwrap();
        let declared: Vec<(String, Band)> = gates(&doc)
            .unwrap()
            .into_iter()
            .map(|g| (g.path, g.band))
            .collect();
        let expect = [
            ("a", higher(0.15)),
            ("s.b", lower(0.0, 0.03)),
            ("phases.count", higher(0.0)),
            ("phases.batch_wait_sum", lower(0.5, 64.0)),
            ("phases.backend_sum", lower(0.3, 64.0)),
            ("phases.sink_wait_sum", lower(0.0, 64.0)),
            ("phases.total_sum", lower(0.35, 64.0)),
        ]
        .map(|(p, b)| (p.to_string(), b));
        assert_eq!(declared, expect);
        assert_eq!(phase_summary(&doc), Some(summary));
        assert_eq!(doc.get("points.1.x").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "points[].x")]
    fn record_rejects_a_gate_inside_an_array_element() {
        Obj::new()
            .arr("points", [Obj::new().gated("x", 1.0, 0, higher(0.1))])
            .record();
    }

    #[test]
    #[should_panic(expected = "does not resolve")]
    fn record_rejects_a_declared_path_that_does_not_resolve() {
        // A dotted key declares a path that looks one level deeper than
        // where the value sits.
        Obj::new().gated("a.b", 1.0, 0, higher(0.1)).record();
    }

    #[test]
    fn gates_rejects_malformed_entries() {
        let entry = |better: &str, band: &str, floor: &str| {
            format!(
                r#"{{"gate": [{{"path": "x", "better": {better}, "band": {band}, "floor": {floor}}}]}}"#
            )
        };
        let read = |text: String| gates(&Json::parse(&text).unwrap());
        assert!(read(entry("\"higher\"", "0.1", "0.0")).is_ok());
        for bad in [
            entry("\"sideways\"", "0.1", "0.0"),
            entry("1", "0.1", "0.0"),
            entry("\"lower\"", "-0.1", "0.0"),
            entry("\"lower\"", "0.1", "-2"),
            entry("\"lower\"", "1e999", "0.0"),
            entry("\"lower\"", "0.1", "-1e999"),
            entry("\"lower\"", "null", "0.0"),
            r#"{"gate": [{"better": "lower", "band": 0.1, "floor": 0.0}]}"#.to_string(),
            r#"{"gate": {"summary": {"x": 0.1}}}"#.to_string(),
        ] {
            assert!(read(bad.clone()).is_err(), "accepted {bad}");
        }
        assert_eq!(read("{}".to_string()), Ok(Vec::new()));
    }
}
