//! Markdown link checker over the repo's documentation.
//!
//! `cargo doc` (with `RUSTDOCFLAGS=-D warnings`) already fails CI on
//! broken *intra-doc* links; this suite covers what rustdoc cannot
//! see: the standalone markdown under `docs/` and the README. Every
//! relative link target must exist on disk, and every fragment link
//! (`file.md#anchor`) must match a heading in the target file under
//! GitHub's slugification rules. External (`http(s)://`) links are
//! not fetched — the build environment is offline by design.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The markdown files the docs CI job guards.
fn doc_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("README.md")];
    let docs = root.join("docs");
    let mut entries: Vec<_> = std::fs::read_dir(&docs)
        .expect("docs/ directory exists")
        .map(|e| e.expect("readable docs entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    entries.sort();
    assert!(
        !entries.is_empty(),
        "docs/ must contain at least one markdown file"
    );
    files.extend(entries);
    files
}

/// Extract `[text](target)` link targets, skipping fenced code blocks
/// and inline code spans (a regex-free scan: the shims policy keeps
/// this crate dependency-light).
fn link_targets(markdown: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        let mut in_code_span = false;
        while i < bytes.len() {
            match bytes[i] {
                b'`' => in_code_span = !in_code_span,
                b']' if !in_code_span && i + 1 < bytes.len() && bytes[i + 1] == b'(' => {
                    if let Some(close) = line[i + 2..].find(')') {
                        out.push(line[i + 2..i + 2 + close].to_string());
                        i += close + 2;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    out
}

/// GitHub's heading-to-anchor slugification: lowercase, drop anything
/// that is not alphanumeric/space/hyphen/underscore, spaces to
/// hyphens.
fn slugify(heading: &str) -> String {
    heading
        .trim()
        .chars()
        .filter(|c| c.is_alphanumeric() || *c == ' ' || *c == '-' || *c == '_')
        .map(|c| {
            if c == ' ' {
                '-'
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect()
}

/// Anchors defined by a markdown file's ATX headings.
fn anchors(markdown: &str) -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    let mut in_fence = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if !in_fence && line.starts_with('#') {
            found.insert(slugify(line.trim_start_matches('#')));
        }
    }
    found
}

#[test]
fn relative_links_resolve() {
    let mut broken = Vec::new();
    for file in doc_files() {
        let text = std::fs::read_to_string(&file).expect("doc file readable");
        let dir = file.parent().expect("doc file has a parent");
        for target in link_targets(&text) {
            if target.starts_with("http://") || target.starts_with("https://") {
                continue;
            }
            let (path_part, fragment) = match target.split_once('#') {
                Some((p, f)) => (p, Some(f.to_string())),
                None => (target.as_str(), None),
            };
            let resolved = if path_part.is_empty() {
                file.clone()
            } else {
                dir.join(path_part)
            };
            if !resolved.exists() {
                broken.push(format!("{}: missing target {target}", file.display()));
                continue;
            }
            if let Some(fragment) = fragment {
                let linked =
                    std::fs::read_to_string(&resolved).expect("link target must be readable");
                if !anchors(&linked).contains(&fragment) {
                    broken.push(format!(
                        "{}: no heading for anchor #{fragment} in {}",
                        file.display(),
                        resolved.display()
                    ));
                }
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken markdown links:\n{}",
        broken.join("\n")
    );
}

/// The benchmarks guide keeps pointing at the repository benchmark;
/// `relative_links_resolve` checks that both targets exist.
#[test]
fn benchmarks_doc_links_the_repository_benchmark() {
    let guide = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/BENCHMARKS.md");
    let targets = link_targets(&std::fs::read_to_string(guide).expect("guide readable"));
    for want in ["../BENCHMARK.json", "../perfbench/README.md"] {
        assert!(
            targets.iter().any(|t| t == want),
            "docs/BENCHMARKS.md no longer links {want}"
        );
    }
}

#[test]
fn slugification_matches_github_rules() {
    assert_eq!(slugify("Hash engine dispatch"), "hash-engine-dispatch");
    assert_eq!(
        slugify("Segmented signatures and parallel validation"),
        "segmented-signatures-and-parallel-validation"
    );
    assert_eq!(
        slugify("  BENCH_<name>.json schema "),
        "bench_namejson-schema"
    );
    assert_eq!(
        slugify("Single-device vs. batched provisioning"),
        "single-device-vs-batched-provisioning"
    );
}

#[test]
fn link_extraction_skips_code() {
    let md = "see [a](x.md)\n```\n[no](nope.md)\n```\nand `[not](skip.md)` but [b](y.md#z)";
    assert_eq!(
        link_targets(md),
        vec!["x.md".to_string(), "y.md#z".to_string()]
    );
}
