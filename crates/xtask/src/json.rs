//! A minimal JSON reader for `BENCHMARK.json` and the result line each
//! benchmark run ends with (the build environment is offline and vendors
//! no serde).
//!
//! Recursive descent over objects, arrays, strings, numbers, booleans and
//! null. Malformed input of any kind, nesting deeper than [`MAX_DEPTH`]
//! included, is an `Err`, never a panic.

/// Nesting limit: keeps the recursion's stack use bounded on hostile
/// input (the files read here nest three levels deep).
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, PartialEq)]
pub enum Value {
    /// Object as ordered key/value pairs.
    Object(Vec<(String, Value)>),
    Array(Vec<Value>),
    Str(String),
    /// Number (always f64).
    Num(f64),
    Bool(bool),
    Null,
}

impl Value {
    /// The value under `key`, if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Object(o) = self else { return None };
        o.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        let Value::Array(a) = self else { return None };
        Some(a)
    }

    pub fn as_str(&self) -> Option<&str> {
        let Value::Str(s) = self else { return None };
        Some(s)
    }

    pub fn as_f64(&self) -> Option<f64> {
        let Value::Num(n) = self else { return None };
        Some(*n)
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a message naming the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `c` if it comes next.
    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting too deep at byte {}", self.pos));
        }
        self.skip_ws();
        let rest = &self.b[self.pos..];
        let (lit, v) = match self.peek() {
            Some(b'{') => return self.list(b'}', depth).map(Value::Object),
            Some(b'[') => {
                let items = self.list(b']', depth)?.into_iter().map(|(_, v)| v);
                return Ok(Value::Array(items.collect()));
            }
            Some(b'"') => return self.string().map(Value::Str),
            Some(b't') => ("true", Value::Bool(true)),
            Some(b'f') => ("false", Value::Bool(false)),
            Some(b'n') => ("null", Value::Null),
            _ => {
                let len = rest.iter().take_while(|c| b"0123456789+-.eE".contains(c));
                let num = std::str::from_utf8(&rest[..len.count()]).ok();
                let num = num.and_then(|n| Some((n.len(), Value::Num(n.parse().ok()?))));
                let (len, v) = num.ok_or(format!("bad number at byte {}", self.pos))?;
                self.pos += len;
                return Ok(v);
            }
        };
        if !rest.starts_with(lit.as_bytes()) {
            return Err(format!("bad literal at byte {}", self.pos));
        }
        self.pos += lit.len();
        Ok(v)
    }

    /// The items of an object (`close` = `}`, keyed) or an array (`]`,
    /// keys empty); the opening bracket is at `pos`.
    fn list(&mut self, close: u8, depth: usize) -> Result<Vec<(String, Value)>, String> {
        self.pos += 1;
        let mut out = Vec::new();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            let mut key = String::new();
            if close == b'}' {
                self.skip_ws();
                key = self.string()?;
                if !self.eat(b':') {
                    return Err(format!("expected `:` at byte {}", self.pos));
                }
            }
            out.push((key, self.value(depth + 1)?));
            if self.eat(close) {
                return Ok(out);
            }
            if !self.eat(b',') {
                return Err(format!(
                    "expected `,` or `{}` at byte {}",
                    close as char, self.pos
                ));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote or escape:
            // both are ASCII, so the run ends on a char boundary of the
            // (valid UTF-8) input.
            let start = self.pos + 1;
            let run = self.b[start..]
                .iter()
                .take_while(|c| !matches!(c, b'"' | b'\\'));
            self.pos = start + run.count();
            out.push_str(std::str::from_utf8(&self.b[start..self.pos]).map_err(|e| e.to_string())?);
            let escaped = match (self.peek(), self.b.get(self.pos + 1)) {
                (None, _) => return Err("unterminated string".into()),
                (Some(b'"'), _) => {
                    self.pos += 1;
                    return Ok(out);
                }
                (_, Some(&c @ (b'"' | b'\\' | b'/'))) => c as char,
                (_, Some(b'n')) => '\n',
                (_, Some(b't')) => '\t',
                (_, Some(b'r')) => '\r',
                (_, Some(b'u')) => {
                    let hex = self.b.get(self.pos + 2..self.pos + 6);
                    let hex = hex.and_then(|h| std::str::from_utf8(h).ok());
                    let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                    self.pos += 4;
                    code.and_then(char::from_u32).ok_or("bad \\u escape")?
                }
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            };
            out.push(escaped);
            // Leave `pos` on the escape's last byte: the next run starts
            // after it.
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_result_line() {
        let v = parse(
            r#"{"correct": true, "attempted": 3, "failed": 0,
                "metrics": {"wall_s": {"value": 2.5e0, "unit": "s"}},
                "tags": ["a\"b\u00e9", null, false]}"#,
        )
        .unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(3.0));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s"));
        assert_eq!(
            wall.and_then(|w| w.get("value")).and_then(Value::as_f64),
            Some(2.5)
        );
        let tags = v.get("tags").and_then(Value::as_array).unwrap();
        assert_eq!(tags[0].as_str(), Some("a\"bé"));
        assert_eq!(tags[1..], [Value::Null, Value::Bool(false)]);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{not json").is_err());
        assert!(parse("{\"schema\": 1} trailing").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"\\u12\"").is_err());
        assert!(parse(&"[".repeat(MAX_DEPTH + 2)).is_err());
    }

    /// Seeded byte strings never make the reader panic: random bytes,
    /// and JSON-ish token soup that reaches past the first byte.
    #[test]
    fn reader_never_panics_on_arbitrary_bytes() {
        const TOKENS: [&str; 16] = [
            "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "1e", "-", "true", "nul", " ", "é",
            "\"k\":",
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for case in 0..4000 {
            let len = (next() % 48) as usize;
            let text = if case % 2 == 0 {
                let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                String::from_utf8_lossy(&bytes).into_owned()
            } else {
                (0..len).map(|_| TOKENS[(next() % 16) as usize]).collect()
            };
            let _ = parse(&text);
        }
    }
}
