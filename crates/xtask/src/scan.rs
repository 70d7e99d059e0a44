//! File scanning: comment/string stripping, allow-annotation handling,
//! and the finding type shared by every rule.

use crate::rules;

/// One lint finding, printed as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (the name accepted by allow annotations).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A source file prepared for rule checks: raw lines plus a "code view"
/// with string literals and comments blanked out, so patterns inside
/// doc text, comments, or string literals never trip a rule.
pub struct FileView<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Raw lines, as written.
    pub raw: Vec<&'a str>,
    /// Per-line code view (strings/comments replaced by spaces).
    pub code: Vec<String>,
}

/// Scans one file: builds the code view, runs every rule, applies allow
/// annotations, and reports unused annotations.
pub fn scan_file(path: &str, text: &str) -> Vec<Finding> {
    let raw: Vec<&str> = text.lines().collect();
    let code = strip(text);
    debug_assert_eq!(code.len(), raw.len(), "code view must mirror raw lines");
    let view = FileView { path, raw, code };

    let mut findings = rules::check_all(&view);
    findings.sort_by_key(|f| (f.line, f.rule));

    // Allow annotations: `qucad-lint: allow(<rule>)` suppresses findings
    // of <rule> on its own line and the line below.
    let allows = collect_allows(&view.raw);
    let mut used = vec![false; allows.len()];
    findings.retain(|f| {
        let mut suppressed = false;
        for (i, a) in allows.iter().enumerate() {
            if a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line) {
                used[i] = true;
                suppressed = true;
            }
        }
        !suppressed
    });
    for (a, used) in allows.iter().zip(used) {
        if !used {
            findings.push(Finding {
                file: path.to_string(),
                line: a.line,
                rule: "unused-allow",
                message: format!(
                    "allow({}) suppresses nothing; remove the stale annotation",
                    a.rule
                ),
            });
        }
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// One parsed allow annotation.
struct Allow {
    /// 1-based line the annotation sits on.
    line: usize,
    /// The rule it suppresses.
    rule: &'static str,
}

/// Extracts allow annotations from the raw lines. The marker is assembled
/// at runtime so the scanner does not read its own pattern as an
/// annotation when linting this file.
fn collect_allows(raw: &[&str]) -> Vec<Allow> {
    let marker = ["qucad-lint:", " allow("].concat();
    let mut out = Vec::new();
    for (i, line) in raw.iter().enumerate() {
        let mut rest = *line;
        while let Some(at) = rest.find(&marker) {
            rest = &rest[at + marker.len()..];
            let Some(close) = rest.find(')') else { break };
            let names = &rest[..close];
            rest = &rest[close + 1..];
            for name in names.split(',') {
                if let Some(rule) = rules::rule_name(name.trim()) {
                    out.push(Allow { line: i + 1, rule });
                }
            }
        }
    }
    out
}

/// Blanks string literals and comments out of the source, preserving the
/// line structure (each removed character becomes a space). Handles line
/// comments, nested-free block comments, ordinary/raw string literals,
/// and char literals enough for token scanning; lifetimes (`'a`) are left
/// intact.
pub fn strip(text: &str) -> Vec<String> {
    blank(text, false)
}

/// Blanks comments only, keeping string and char literals: the view in
/// which a line holding nothing but part of a literal is still code.
pub fn strip_comments(text: &str) -> Vec<String> {
    blank(text, true)
}

/// The scanner behind [`strip`] and [`strip_comments`].
fn blank(text: &str, keep_literals: bool) -> Vec<String> {
    #[derive(PartialEq)]
    enum State {
        Code,
        Block,
        Str,
        RawStr(usize),
    }
    let mut state = State::Code;
    let mut out = Vec::new();
    // Byte length of the UTF-8 character starting at `i`, so the scanner
    // always advances on character boundaries (string literals may hold
    // multi-byte text like `π`).
    let char_len = |line: &str, i: usize| line[i..].chars().next().map_or(1, char::len_utf8);
    for line in text.lines() {
        let bytes = line.as_bytes();
        let mut kept = vec![b' '; bytes.len()];
        let mut i = 0;
        while i < bytes.len() {
            let from = i;
            let mut literal = matches!(state, State::Str | State::RawStr(_));
            match state {
                State::Code => {
                    let rest = &line[i..];
                    if rest.starts_with("//") {
                        break; // rest of the line is comment
                    } else if rest.starts_with("/*") {
                        state = State::Block;
                        i += 2;
                    } else if rest.starts_with('"') {
                        state = State::Str;
                        literal = true;
                        i += 1;
                    } else if let Some((h, open_len)) = raw_string_open(rest) {
                        state = State::RawStr(h);
                        literal = true;
                        i += open_len; // br##" etc.
                    } else if rest.starts_with('\'') {
                        // Char literal or lifetime: a closing quote within
                        // a few bytes means a literal; otherwise keep it
                        // (lifetime) and move on.
                        if let Some(len) = char_literal_len(rest) {
                            literal = true;
                            i += len;
                        } else {
                            kept[i] = bytes[i];
                            i += 1;
                        }
                    } else {
                        let n = char_len(line, i);
                        kept[i..i + n].copy_from_slice(&bytes[i..i + n]);
                        i += n;
                    }
                }
                State::Block => {
                    if line[i..].starts_with("*/") {
                        state = State::Code;
                        i += 2;
                    } else {
                        i += char_len(line, i);
                    }
                }
                State::Str => {
                    if line[i..].starts_with('\\') {
                        // An escape is ASCII-led; its payload may still be
                        // multi-byte, which the next iteration handles.
                        i += 2;
                        i = i.min(bytes.len());
                        while i < bytes.len() && !line.is_char_boundary(i) {
                            i += 1;
                        }
                    } else {
                        if line[i..].starts_with('"') {
                            state = State::Code;
                        }
                        i += char_len(line, i);
                    }
                }
                State::RawStr(h) => {
                    if bytes[i] == b'"' && line.as_bytes()[i + 1..].starts_with(&vec![b'#'; h][..])
                    {
                        state = State::Code;
                        i += h + 1;
                    } else {
                        i += char_len(line, i);
                    }
                }
            }
            if keep_literals && literal {
                kept[from..i].copy_from_slice(&bytes[from..i]);
            }
        }
        // Strings continue across lines; everything else resets at EOL.
        if state == State::Block {
            // block comments continue too
        } else if !matches!(state, State::Str | State::RawStr(_)) {
            state = State::Code;
        }
        out.push(String::from_utf8(kept).expect("ascii blanks"));
    }
    out
}

/// If `rest` starts a raw string literal (`r"`, `r#"`, `br##"`, …),
/// returns its `#` count and the opening delimiter's byte length.
fn raw_string_open(rest: &str) -> Option<(usize, usize)> {
    let s = rest.strip_prefix('b').unwrap_or(rest);
    let s = s.strip_prefix('r')?;
    let hashes = s.len() - s.trim_start_matches('#').len();
    if s[hashes..].starts_with('"') {
        Some((hashes, rest.len() - s.len() + hashes + 1))
    } else {
        None
    }
}

/// Length of a char literal at the start of `rest`, or `None` for a
/// lifetime.
fn char_literal_len(rest: &str) -> Option<usize> {
    let bytes = rest.as_bytes();
    if bytes.len() >= 2 && bytes[1] == b'\\' {
        // Escaped char: find the closing quote.
        rest[2..].find('\'').map(|p| p + 3)
    } else {
        // `'x'` with a possibly multi-byte payload (e.g. `'π'`); anything
        // else is a lifetime such as `'a` or `'static`.
        let payload = rest[1..].chars().next()?;
        let n = payload.len_utf8();
        (bytes.len() > 1 + n && bytes[1 + n] == b'\'').then_some(n + 2)
    }
}

/// Whether `code` contains `token` as a standalone word (neither side is
/// an identifier character).
pub fn has_token(code: &str, token: &str) -> bool {
    find_token(code, token).is_some()
}

/// Byte offset of the first standalone-word occurrence of `token`.
pub fn find_token(code: &str, token: &str) -> Option<usize> {
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(at) = code[from..].find(token) {
        let start = from + at;
        let end = start + token.len();
        let ok_before = start == 0 || !is_ident(bytes[start - 1]);
        let ok_after = end >= bytes.len() || !is_ident(bytes[end]);
        if ok_before && ok_after {
            return Some(start);
        }
        from = start + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_strings_comments_and_char_literals() {
        let src = "let a = \"SystemTime\"; // Instant in a comment\nlet b = 'x'; /* Instant */ let c = 1;\n";
        let code = strip(src);
        assert!(!code[0].contains("SystemTime"));
        assert!(!code[0].contains("Instant"));
        assert!(code[0].contains("let a ="));
        assert!(!code[1].contains("Instant"));
        assert!(code[1].contains("let c = 1;"));
    }

    #[test]
    fn keeps_lifetimes_and_spans_multiline_strings() {
        let src =
            "fn f<'a>(x: &'a str) {}\nlet s = \"multi\nInstant still string\";\nlet done = 1;\n";
        let code = strip(src);
        assert!(code[0].contains("fn f<'a>(x: &'a str) {}"));
        assert!(!code[1].contains("multi"));
        assert!(!code[2].contains("Instant"));
        assert!(code[3].contains("let done = 1;"));
    }

    #[test]
    fn survives_multibyte_text_in_literals() {
        let src = "let s = \"coarse {0, π}\"; let c = 'π'; // π comment\nlet done = Instant;\n";
        let code = strip(src);
        assert!(!code[0].contains('π'));
        assert!(code[0].contains("let c ="));
        assert!(code[1].contains("Instant"));
    }

    #[test]
    fn token_matching_respects_word_boundaries() {
        assert!(has_token("use std::time::Instant;", "Instant"));
        assert!(!has_token("unsafe_code = 1", "unsafe"));
        assert!(has_token("unsafe { x }", "unsafe"));
        assert!(!has_token("MyInstant", "Instant"));
    }

    #[test]
    fn unused_allow_is_reported() {
        let marker = format!("// qucad-lint: {}", "allow(wall-clock)");
        let src = format!("{marker}\nlet x = 1;\n");
        let findings = scan_file("test.rs", &src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "unused-allow");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn allow_suppresses_same_and_next_line() {
        let marker = format!("// qucad-lint: {}", "allow(wall-clock)");
        let src = format!("{marker}\nlet t = std::time::Instant::now();\n");
        assert!(scan_file("crates/quasim/src/x.rs", &src).is_empty());
        let inline = format!("let t = std::time::Instant::now(); {marker}");
        assert!(scan_file("crates/quasim/src/x.rs", &inline).is_empty());
    }
}
