//! Workspace automation tasks (`cargo run -p xtask -- <task>`).
//!
//! - `lint`: a hand-rolled line scanner (the build environment has no
//!   crates.io access, so no syn/regex) enforcing the project's
//!   determinism and unsafe-readiness rules over the source tree. See the
//!   rule catalogue in [`rules`] and the "Correctness tooling" section of
//!   the README.
//! - `loc`: first-party code lines per crate and in total (see [`loc`]).
//!
//! Audited exceptions are annotated in the source with
//! `// qucad-lint: allow(<rule>)` on the offending line or the line
//! directly above it; an annotation that suppresses nothing is itself an
//! error, so stale allows cannot accumulate.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod loc;
mod rules;
mod scan;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some("loc") => loc(),
        Some(other) => {
            eprintln!("unknown task '{other}'; available tasks: lint, loc");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo run -p xtask -- <lint|loc>");
            ExitCode::FAILURE
        }
    }
}

/// Runs every lint rule over the workspace's own sources; prints one line
/// per finding and exits non-zero if any rule fires.
fn lint() -> ExitCode {
    let root = workspace_root();
    let files = collect_sources(&root);
    let mut findings = Vec::new();
    for file in &files {
        let Ok(text) = std::fs::read_to_string(file) else {
            eprintln!("warning: unreadable source file {}", file.display());
            continue;
        };
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(scan::scan_file(&rel, &text));
    }
    if findings.is_empty() {
        println!("qucad-lint: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!(
            "qucad-lint: {} finding(s) in {} files",
            findings.len(),
            files.len()
        );
        ExitCode::FAILURE
    }
}

/// Prints first-party code lines per crate and in total.
fn loc() -> ExitCode {
    let counts = loc::count_crates(&workspace_root());
    for (name, lines) in &counts {
        println!("{name:<12} {lines:>7}");
    }
    let total: usize = counts.iter().map(|(_, n)| n).sum();
    println!("{:<12} {total:>7}", "total");
    ExitCode::SUCCESS
}

/// The workspace root: xtask always runs via `cargo run -p xtask`, so the
/// manifest dir is `<root>/crates/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

/// Every `.rs` file the lint covers: workspace sources and tests, skipping
/// the vendored stand-ins (external idiom, not project code) and build
/// artifacts. Sorted for deterministic output.
pub(crate) fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(name.as_ref(), "target" | "vendor" | ".git" | ".github") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}
