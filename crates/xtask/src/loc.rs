//! The `loc` task: first-party code lines per workspace crate.
//!
//! A code line is a line under `crates/*/src` that is non-blank once
//! comments (doc comments included) are stripped with
//! [`scan::strip_comments`], and that lies outside every `#[cfg(test)]`
//! module — inline unit tests are not production code. The count is what
//! the ROADMAP tracks next to speed: a PR that keeps the bits and deletes
//! code shows up here.

use crate::scan;
use std::path::Path;

/// Counts the code lines of one source file (see the module doc).
pub fn code_lines(text: &str) -> usize {
    let mut count = 0;
    // Attribute lines held back until the item they decorate shows
    // whether they open a test module.
    let mut held = 0;
    let mut cfg_test = false;
    // Brace depth inside a skipped test module (`None` outside one).
    let mut test_depth: Option<isize> = None;
    // Attributes, `mod` items and braces are read from the view with the
    // literals blanked too, so a brace inside a string is never counted.
    let code = scan::strip(text);
    for (line, literal_view) in code.iter().zip(scan::strip_comments(text)) {
        let t = line.trim();
        if literal_view.trim().is_empty() {
            continue;
        }
        if let Some(depth) = test_depth.as_mut() {
            *depth += braces(t);
            if *depth <= 0 {
                test_depth = None;
            }
            continue;
        }
        if t.starts_with("#[") {
            cfg_test |= t == "#[cfg(test)]";
            held += 1;
            continue;
        }
        let is_mod = ["mod ", "pub mod ", "pub(crate) mod "]
            .iter()
            .any(|p| t.starts_with(p));
        if cfg_test && is_mod {
            let depth = braces(t);
            if depth > 0 {
                test_depth = Some(depth);
            }
        } else {
            count += held + 1;
        }
        held = 0;
        cfg_test = false;
    }
    count + held
}

/// Net brace depth change of one stripped code line.
fn braces(code: &str) -> isize {
    code.bytes()
        .map(|b| match b {
            b'{' => 1,
            b'}' => -1,
            _ => 0,
        })
        .sum()
}

/// Code lines of every crate under `<root>/crates`, sorted by crate name.
pub fn count_crates(root: &Path) -> Vec<(String, usize)> {
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        return Vec::new();
    };
    let mut out: Vec<(String, usize)> = entries
        .flatten()
        .filter(|e| e.path().join("src").is_dir())
        .map(|e| {
            let lines = crate::collect_sources(&e.path().join("src"))
                .iter()
                .filter_map(|f| std::fs::read_to_string(f).ok())
                .map(|text| code_lines(&text))
                .sum();
            (e.file_name().to_string_lossy().into_owned(), lines)
        })
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_code_outside_comments_blanks_and_test_modules() {
        let src = r#"//! Module doc.

/// Item doc.
#[derive(Debug)]
pub struct A; // trailing comment

/* block
   comment */
fn f() -> &'static str {
    "// not a comment"
}

#[cfg(test)]
fn test_helper() {}

#[cfg(test)]
mod tests {
    fn nested() {
        let _ = '{';
    }
}

fn after() {}
"#;
        // `#[derive]` + struct, `f` (3 lines, the literal one included),
        // the cfg(test) fn with its attribute (2), and `after`.
        assert_eq!(code_lines(src), 8);
    }

    #[test]
    fn external_test_module_declaration_is_skipped() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests;\nfn b() {}\n";
        assert_eq!(code_lines(src), 2);
    }
}
