//! Machine-readable performance reports and the regression gate behind the
//! `perf_harness` binary and the CI `bench` job.
//!
//! A [`BenchReport`] records wall times of named sections plus a
//! machine-speed *probe* measured in the same process. The regression gate
//! compares **probe-normalised** ratios (`wall_ms / probe_ms`), so a report
//! captured on a fast workstation can gate a slower CI runner without
//! tripping on raw hardware differences. Reports serialise to a small JSON
//! dialect written and parsed here (the workspace is offline and vendors no
//! serde).

use std::fmt::Write as _;
use std::time::Instant;

/// One timed section of a harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Stable section name (compared against the baseline by name).
    pub name: String,
    /// Wall time in milliseconds.
    pub wall_ms: f64,
    /// Whether the CI regression gate applies to this section.
    pub gated: bool,
}

/// A full harness report: metadata, the machine probe, and all sections.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Report schema version (bump on breaking format changes).
    pub schema: u32,
    /// Revision identifier (git SHA, or `"local"`).
    pub rev: String,
    /// Worker threads the run used.
    pub threads: usize,
    /// Machine-speed probe duration in milliseconds (see
    /// [`calibration_probe_ms`]).
    pub probe_ms: f64,
    /// Timed sections in execution order.
    pub sections: Vec<Section>,
}

impl BenchReport {
    /// Creates an empty report for `rev` on `threads` workers.
    pub fn new(rev: &str, threads: usize, probe_ms: f64) -> Self {
        BenchReport {
            schema: 1,
            rev: rev.to_string(),
            threads,
            probe_ms,
            sections: Vec::new(),
        }
    }

    /// Times `f`, records it as a section, and passes its value through.
    pub fn time<T>(&mut self, name: &str, gated: bool, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.sections.push(Section {
            name: name.to_string(),
            wall_ms,
            gated,
        });
        out
    }

    /// Times `f` `samples` times and records the median as one section
    /// (for sections too short to time once); passes the last value
    /// through.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn time_median<T>(
        &mut self,
        name: &str,
        gated: bool,
        samples: usize,
        mut f: impl FnMut() -> T,
    ) -> T {
        assert!(samples > 0, "need at least one sample");
        let mut walls = Vec::with_capacity(samples);
        let mut out = None;
        for _ in 0..samples {
            let t0 = Instant::now();
            out = Some(f());
            walls.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        walls.sort_by(f64::total_cmp);
        self.sections.push(Section {
            name: name.to_string(),
            wall_ms: walls[samples / 2],
            gated,
        });
        out.expect("at least one sample")
    }

    /// Looks up a section by name.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Probe-normalised cost of a section (`wall_ms / probe_ms`).
    pub fn normalized(&self, s: &Section) -> f64 {
        s.wall_ms / self.probe_ms.max(1e-9)
    }

    /// Serialises the report to JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", self.schema);
        let _ = writeln!(out, "  \"rev\": {},", json_string(&self.rev));
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"probe_ms\": {:.3},", self.probe_ms);
        out.push_str("  \"sections\": [\n");
        for (i, s) in self.sections.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": {}, \"wall_ms\": {:.3}, \"gated\": {}}}",
                json_string(&s.name),
                s.wall_ms,
                s.gated
            );
            out.push_str(if i + 1 == self.sections.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report from JSON produced by [`BenchReport::to_json`] (or
    /// hand-edited equivalents).
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not valid JSON or required fields
    /// are missing / mistyped.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let obj = v.as_object().ok_or("top level must be an object")?;
        let num = |k: &str| -> Result<f64, String> {
            json::get(obj, k)
                .and_then(json::Value::as_number)
                .ok_or_else(|| format!("missing numeric field `{k}`"))
        };
        let rev = json::get(obj, "rev")
            .and_then(json::Value::as_string)
            .ok_or("missing string field `rev`")?
            .to_string();
        let mut sections = Vec::new();
        let raw = json::get(obj, "sections")
            .and_then(json::Value::as_array)
            .ok_or("missing array field `sections`")?;
        for item in raw {
            let s = item.as_object().ok_or("section must be an object")?;
            sections.push(Section {
                name: json::get(s, "name")
                    .and_then(json::Value::as_string)
                    .ok_or("section missing `name`")?
                    .to_string(),
                wall_ms: json::get(s, "wall_ms")
                    .and_then(json::Value::as_number)
                    .ok_or("section missing `wall_ms`")?,
                gated: json::get(s, "gated")
                    .and_then(json::Value::as_bool)
                    .unwrap_or(false),
            });
        }
        Ok(BenchReport {
            schema: num("schema")? as u32,
            rev,
            threads: num("threads")? as usize,
            probe_ms: num("probe_ms")?,
            sections,
        })
    }
}

/// One gate violation found by [`compare_reports`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Section that regressed.
    pub name: String,
    /// Probe-normalised cost in the current run.
    pub current_norm: f64,
    /// Probe-normalised cost in the baseline.
    pub baseline_norm: f64,
    /// `current_norm / baseline_norm - 1`.
    pub ratio: f64,
}

/// Compares gated sections of `current` against `baseline` on
/// probe-normalised cost; returns every section whose cost grew by more
/// than `max_regression` (e.g. `0.25` = 25%).
///
/// Sections present only on one side are ignored (renames should refresh
/// the baseline in the same PR).
pub fn compare_reports(
    current: &BenchReport,
    baseline: &BenchReport,
    max_regression: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for s in current.sections.iter().filter(|s| s.gated) {
        let Some(b) = baseline.section(&s.name).filter(|b| b.gated) else {
            continue;
        };
        let current_norm = current.normalized(s);
        let baseline_norm = baseline.normalized(b);
        if baseline_norm <= 0.0 {
            continue;
        }
        let ratio = current_norm / baseline_norm - 1.0;
        if ratio > max_regression {
            out.push(Regression {
                name: s.name.clone(),
                current_norm,
                baseline_norm,
                ratio,
            });
        }
    }
    out
}

/// Measures the machine-speed probe: a fixed, allocation-free integer +
/// float workload whose wall time scales with single-core speed. Used to
/// normalise section times across machines of different speed.
pub fn calibration_probe_ms() -> f64 {
    // Take the fastest of three runs to shed warm-up and scheduler noise.
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut acc: u64 = 0x9E37_79B9_7F4A_7C15;
            let mut f = 1.000_000_1_f64;
            for i in 0..8_000_000u64 {
                acc = acc
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                    .rotate_left(17)
                    .wrapping_add(i);
                f = (f * 1.000_000_3).min(2.0) + (acc & 0xFF) as f64 * 1e-12;
            }
            std::hint::black_box((acc, f));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Minimal recursive-descent parser for the JSON subset the reports use
/// (objects, arrays, strings, numbers, booleans, null).
mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// Object as ordered key/value pairs.
        Object(Vec<(String, Value)>),
        /// Array.
        Array(Vec<Value>),
        /// String.
        Str(String),
        /// Number (always f64).
        Num(f64),
        /// Boolean.
        Bool(bool),
        /// Null.
        Null,
    }

    impl Value {
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Object(o) => Some(o),
                _ => None,
            }
        }
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(a) => Some(a),
                _ => None,
            }
        }
        pub fn as_string(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_number(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }
    }

    /// Looks up a key in an object.
    pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Parses a complete JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, *pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Value::Null),
            Some(_) => parse_number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", *pos))
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut out = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(out));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            expect(b, pos, b':')?;
            let val = parse_value(b, pos)?;
            out.push((key, val));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(out));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
            }
        }
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut out = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            out.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(out));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
            }
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", *pos));
        }
        *pos += 1;
        let mut out = String::new();
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                c => {
                    // Copy the full UTF-8 sequence starting at this byte.
                    let start = *pos;
                    let len = match c {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = b.get(start..start + len).ok_or("truncated UTF-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    *pos += len;
                }
            }
        }
        Err("unterminated string".into())
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("abc123", 2, 50.0);
        r.sections.push(Section {
            name: "eval".into(),
            wall_ms: 100.0,
            gated: true,
        });
        r.sections.push(Section {
            name: "prepare".into(),
            wall_ms: 40.0,
            gated: false,
        });
        r
    }

    #[test]
    fn json_roundtrip_preserves_report() {
        let r = sample();
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.rev, r.rev);
        assert_eq!(parsed.threads, r.threads);
        assert_eq!(parsed.sections.len(), 2);
        assert_eq!(parsed.sections[0].name, "eval");
        assert!(parsed.sections[0].gated);
        assert!(!parsed.sections[1].gated);
        assert!((parsed.sections[0].wall_ms - 100.0).abs() < 1e-9);
        assert!((parsed.probe_ms - 50.0).abs() < 1e-9);
    }

    #[test]
    fn compare_flags_only_gated_regressions() {
        let baseline = sample();
        let mut current = sample();
        current.sections[0].wall_ms = 150.0; // gated: +50% > 25% → flagged
        current.sections[1].wall_ms = 400.0; // ungated: ignored
        let viol = compare_reports(&current, &baseline, 0.25);
        assert_eq!(viol.len(), 1);
        assert_eq!(viol[0].name, "eval");
        assert!((viol[0].ratio - 0.5).abs() < 1e-9);
    }

    #[test]
    fn compare_normalises_by_probe_speed() {
        let baseline = sample();
        let mut current = sample();
        // Machine is 2x slower: probe and section both double → no flag.
        current.probe_ms = 100.0;
        current.sections[0].wall_ms = 220.0; // 2.2 norm vs 2.0 baseline: +10%
        assert!(compare_reports(&current, &baseline, 0.25).is_empty());
        // But a real 2x algorithmic regression on the same machine trips.
        current.probe_ms = 50.0;
        current.sections[0].wall_ms = 220.0;
        assert_eq!(compare_reports(&current, &baseline, 0.25).len(), 1);
    }

    #[test]
    fn missing_sections_are_ignored() {
        let baseline = sample();
        let mut current = sample();
        current.sections[0].name = "renamed".into();
        assert!(compare_reports(&current, &baseline, 0.25).is_empty());
    }

    #[test]
    fn time_median_records_one_section() {
        let mut r = BenchReport::new("local", 1, 1.0);
        let mut calls = 0;
        let last = r.time_median("s", false, 3, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (3, 3));
        assert_eq!(r.sections.len(), 1);
        assert!(r.section("s").is_some_and(|s| s.wall_ms >= 0.0 && !s.gated));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(BenchReport::from_json("{not json").is_err());
        assert!(BenchReport::from_json("[1, 2]").is_err());
        assert!(BenchReport::from_json("{\"schema\": 1} trailing").is_err());
    }
}
