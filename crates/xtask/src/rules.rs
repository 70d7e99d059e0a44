//! The qucad-lint rule catalogue.
//!
//! Six rules guard the properties the reproduction's bit-identity
//! contract depends on (see README "Correctness tooling"):
//!
//! - `hash-iter` — no iteration over `HashMap`/`HashSet` contents in
//!   result-affecting paths: hash iteration order is unspecified, so any
//!   result folded from it is nondeterministic. Lookups (`get`/`insert`/
//!   `contains_key`/`len`/`clear`) are fine.
//! - `wall-clock` — no `SystemTime`/`Instant` outside the benchmark
//!   packages (`crates/bench`, `qbench`): wall-clock reads in compute
//!   paths smuggle nondeterminism (and the temptation to branch on it)
//!   into results.
//! - `adhoc-rng` — no `thread_rng`/`from_entropy`/`rand::random` outside
//!   the benchmark packages: every random stream must come from an
//!   explicitly seeded generator so runs replay bit-exactly.
//! - `unsafe-safety` — every `unsafe` token carries a `// SAFETY:`
//!   comment on the same line or within the three lines above it.
//! - `env-read` — `env::var` reads only at the audited configuration
//!   entry points (each carries an allow annotation); scattered env reads
//!   make results depend on invisible ambient state.
//! - `target-feature` — no `target_feature`, `core::arch` or `std::arch`
//!   outside the one audited AVX2 dispatch (`quasim::config`): kernels
//!   are written once as plain Rust and compiled twice through it, so a
//!   hand-written intrinsic copy, whose bit-identity to the plain kernel
//!   nothing checks by construction, cannot land unaudited.
//!
//! Audited exceptions: `// qucad-lint: allow(<rule>)` on the offending
//! line or the line above. Unused annotations are themselves findings.

use crate::scan::{find_token, has_token, FileView, Finding};

/// Canonical rule names (the alphabet accepted by allow annotations).
pub const RULE_NAMES: [&str; 6] = [
    "hash-iter",
    "wall-clock",
    "adhoc-rng",
    "unsafe-safety",
    "env-read",
    "target-feature",
];

/// Maps an annotation name onto its canonical `&'static str`, if valid.
pub fn rule_name(name: &str) -> Option<&'static str> {
    RULE_NAMES.iter().copied().find(|&r| r == name)
}

/// Path prefixes of the benchmark packages, the only code allowed to read
/// the wall clock or draw unseeded randomness.
const BENCH_ONLY_PATHS: [&str; 2] = ["crates/bench/", "qbench/"];

/// Runs every rule that applies to the file's path.
pub fn check_all(view: &FileView<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(hash_iter(view));
    if !BENCH_ONLY_PATHS.iter().any(|p| view.path.starts_with(p)) {
        out.extend(token_rule(
            view,
            "wall-clock",
            &["SystemTime", "Instant"],
            "wall-clock read in a deterministic path (bench-only API)",
        ));
        out.extend(token_rule(
            view,
            "adhoc-rng",
            &["thread_rng", "from_entropy", "rand::random"],
            "unseeded RNG in a deterministic path (seed explicitly)",
        ));
    }
    out.extend(unsafe_safety(view));
    out.extend(env_read(view));
    out.extend(token_rule(
        view,
        "target-feature",
        &["target_feature", "core::arch", "std::arch"],
        "CPU-feature code outside the audited dispatch (compile the plain kernel twice)",
    ));
    out
}

/// Shared shape of the single-token rules: flag every line whose code
/// view contains one of `tokens` as a standalone word.
fn token_rule(
    view: &FileView<'_>,
    rule: &'static str,
    tokens: &[&str],
    message: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, code) in view.code.iter().enumerate() {
        for token in tokens {
            if has_token(code, token) {
                out.push(Finding {
                    file: view.path.to_string(),
                    line: i + 1,
                    rule,
                    message: format!("{message}: `{token}`"),
                });
                break;
            }
        }
    }
    out
}

/// Method suffixes that iterate a hash container's contents.
const ITER_SUFFIXES: [&str; 8] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
    ".retain(",
];

/// `hash-iter`: two passes per file. First collect every identifier
/// bound or typed as a `HashMap`/`HashSet` (let-bindings, struct fields,
/// parameters); then flag iteration over any of them — method calls in
/// [`ITER_SUFFIXES`] or `for … in [&[mut ]]name`.
fn hash_iter(view: &FileView<'_>) -> Vec<Finding> {
    let mut names: Vec<String> = Vec::new();
    for code in &view.code {
        if !(has_token(code, "HashMap") || has_token(code, "HashSet")) {
            continue;
        }
        // `let [mut] name` on the same line as the hash type.
        if let Some(at) = find_token(code, "let") {
            let rest = code[at + 3..].trim_start();
            let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
            if let Some(name) = leading_ident(rest) {
                names.push(name.to_string());
            }
        }
        // `name: HashMap<…>` (fields and parameters).
        for ty in ["HashMap", "HashSet"] {
            let Some(at) = find_token(code, ty) else {
                continue;
            };
            let before = code[..at].trim_end();
            if let Some(before) = before.strip_suffix(':') {
                if let Some(name) = trailing_ident(before.trim_end()) {
                    names.push(name.to_string());
                }
            }
        }
    }
    names.sort();
    names.dedup();

    let mut out = Vec::new();
    for (i, code) in view.code.iter().enumerate() {
        for name in &names {
            let iterated =
                ITER_SUFFIXES.iter().any(|s| has_call(code, name, s)) || for_loop_over(code, name);
            if iterated {
                out.push(Finding {
                    file: view.path.to_string(),
                    line: i + 1,
                    rule: "hash-iter",
                    message: format!(
                        "iteration over hash container `{name}` \
                         (unspecified order; use a sorted or indexed structure)"
                    ),
                });
                break;
            }
        }
    }
    out
}

/// Whether `code` contains `name` (word-boundary) immediately followed by
/// `suffix`.
fn has_call(code: &str, name: &str, suffix: &str) -> bool {
    let needle = format!("{name}{suffix}");
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(at) = code[from..].find(&needle) {
        let start = from + at;
        if start == 0 || !is_ident(code.as_bytes()[start - 1]) {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Whether `code` has a `for … in <expr>` loop header whose iterated
/// expression mentions `name` (e.g. `for x in &cache.entries {`).
fn for_loop_over(code: &str, name: &str) -> bool {
    if find_token(code, "for").is_none() {
        return false;
    }
    let Some(at) = find_token(code, "in") else {
        return false;
    };
    let rest = &code[at + 2..];
    let expr = rest.split('{').next().unwrap_or(rest);
    has_token(expr, name)
}

/// The identifier at the start of `s`, if any.
fn leading_ident(s: &str) -> Option<&str> {
    let end = s
        .bytes()
        .position(|b| !(b.is_ascii_alphanumeric() || b == b'_'))
        .unwrap_or(s.len());
    if end == 0 || s.as_bytes()[0].is_ascii_digit() {
        None
    } else {
        Some(&s[..end])
    }
}

/// The identifier at the end of `s`, if any.
fn trailing_ident(s: &str) -> Option<&str> {
    let start = s
        .bytes()
        .rposition(|b| !(b.is_ascii_alphanumeric() || b == b'_'))
        .map_or(0, |p| p + 1);
    if start == s.len() || s.as_bytes()[start].is_ascii_digit() {
        None
    } else {
        Some(&s[start..])
    }
}

/// `unsafe-safety`: every `unsafe` token must carry a `SAFETY:` comment
/// on its own line or within the three raw lines above it.
fn unsafe_safety(view: &FileView<'_>) -> Vec<Finding> {
    let marker = ["SAFE", "TY:"].concat();
    let mut out = Vec::new();
    for (i, code) in view.code.iter().enumerate() {
        if !has_token(code, "unsafe") {
            continue;
        }
        let from = i.saturating_sub(3);
        let documented = view.raw[from..=i].iter().any(|l| l.contains(&marker));
        if !documented {
            out.push(Finding {
                file: view.path.to_string(),
                line: i + 1,
                rule: "unsafe-safety",
                message: format!(
                    "`unsafe` without a `// {marker}` comment on the same \
                     line or the three lines above"
                ),
            });
        }
    }
    out
}

/// `env-read`: `env::var` only at audited entry points (which carry an
/// allow annotation).
fn env_read(view: &FileView<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, code) in view.code.iter().enumerate() {
        if has_token(code, "env::var") || has_token(code, "var_os") {
            out.push(Finding {
                file: view.path.to_string(),
                line: i + 1,
                rule: "env-read",
                message: "environment read outside an audited config entry point".to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::scan::scan_file;

    #[test]
    fn hash_iteration_is_flagged_but_lookups_are_not() {
        let src = "struct C { entries: HashMap<K, V> }\n\
                   fn ok(c: &C, k: &K) { c.entries.get(k); c.entries.len(); }\n\
                   fn bad(c: &C) { for v in c.entries.values() { use_it(v); } }\n";
        let findings = scan_file("crates/qnn/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "hash-iter");
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn let_bound_hash_sets_are_tracked() {
        let src = "fn f() {\n\
                   let mut seen = HashSet::new();\n\
                   seen.insert(1);\n\
                   for x in &seen { g(x); }\n\
                   }\n";
        let findings = scan_file("crates/quasim/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn wall_clock_and_rng_are_bench_only() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); }\n";
        assert_eq!(scan_file("crates/bench/src/x.rs", src).len(), 0);
        assert_eq!(scan_file("qbench/src/x.rs", src).len(), 0);
        let findings = scan_file("crates/quasim/src/x.rs", src);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().any(|f| f.rule == "wall-clock"));
        assert!(findings.iter().any(|f| f.rule == "adhoc-rng"));
    }

    #[test]
    fn undocumented_unsafe_is_flagged_everywhere() {
        let bare = "fn f() { unsafe { g() } }\n";
        let findings = scan_file("crates/bench/src/x.rs", bare);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "unsafe-safety");
        let marker = ["// SAFE", "TY: g has no preconditions"].concat();
        let documented = format!("{marker}\nfn f() {{ unsafe {{ g() }} }}\n");
        assert!(scan_file("crates/bench/src/x.rs", &documented).is_empty());
    }

    #[test]
    fn forbid_unsafe_code_attribute_is_not_an_unsafe_token() {
        let src = "#![forbid(unsafe_code)]\n";
        assert!(scan_file("crates/qnn/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cpu_feature_code_needs_an_audited_annotation() {
        let src = "#[target_feature(enable = \"avx2\")]\n\
                   fn f() { use core::arch::x86_64::_mm256_add_pd; }\n\
                   fn g() -> bool { std::arch::is_x86_feature_detected!(\"avx2\") }\n\
                   #[cfg(target_arch = \"x86_64\")] fn h() {}\n";
        let findings = scan_file("crates/quasim/src/x.rs", src);
        assert_eq!(findings.len(), 3);
        assert!(findings.iter().all(|f| f.rule == "target-feature"));
        assert_eq!(
            findings.iter().map(|f| f.line).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        let marker = format!("// qucad-lint: {}", "allow(target-feature)");
        let ok = format!("#[target_feature(enable = \"avx2\")] {marker}\nfn f() {{}}\n");
        assert!(scan_file("crates/quasim/src/x.rs", &ok).is_empty());
    }

    #[test]
    fn env_reads_need_an_audited_annotation() {
        let src = "fn f() { let v = std::env::var(\"QUCAD_X\"); }\n";
        let findings = scan_file("crates/qnn/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "env-read");
        let marker = format!("// qucad-lint: {}", "allow(env-read)");
        let ok = format!("{marker}\nfn f() {{ let v = std::env::var(\"QUCAD_X\"); }}\n");
        assert!(scan_file("crates/qnn/src/x.rs", &ok).is_empty());
    }
}
