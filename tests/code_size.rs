//! Size ceiling for `eric-core` and `eric-hde`, the crates the device
//! and delivery stack live in.
//!
//! Counting rule: in every `.rs` file under each crate's `src`, the
//! lines before the file's first `#[cfg(test)]` are non-test lines.
//! The public items are the non-test lines that start with `pub fn`,
//! `pub struct`, `pub enum`, `pub const`, `pub trait`, `pub type`,
//! `pub mod`, `pub static` or `pub use` (`pub(crate)` does not count).
//!
//! A change that grows either count raises its ceiling in the same
//! diff and says why in CHANGES.md.

use std::fs;
use std::path::Path;

const MAX_NON_TEST_LINES: usize = 7_208;
const MAX_PUBLIC_ITEMS: usize = 320;

const PUBLIC_KINDS: [&str; 9] = [
    "fn", "struct", "enum", "const", "trait", "type", "mod", "static", "use",
];

/// Non-test lines and public items of every `.rs` file under `dir`.
fn count(dir: &Path) -> (usize, usize) {
    let (mut lines, mut items) = (0, 0);
    for entry in fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry is readable").path();
        if path.is_dir() {
            let (l, i) = count(&path);
            lines += l;
            items += i;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path).expect("source file is readable");
            for line in text.lines().take_while(|l| !l.contains("#[cfg(test)]")) {
                lines += 1;
                let kind = line
                    .trim_start()
                    .strip_prefix("pub ")
                    .and_then(|rest| rest.split(' ').next());
                items += usize::from(kind.is_some_and(|k| PUBLIC_KINDS.contains(&k)));
            }
        }
    }
    (lines, items)
}

#[test]
fn core_and_hde_stay_under_their_size_ceiling() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut lines, mut items) = (0, 0);
    for krate in ["crates/eric-core/src", "crates/eric-hde/src"] {
        let (l, i) = count(&root.join(krate));
        lines += l;
        items += i;
    }
    assert!(
        lines <= MAX_NON_TEST_LINES && items <= MAX_PUBLIC_ITEMS,
        "eric-core + eric-hde: {lines} non-test lines (ceiling {MAX_NON_TEST_LINES}), \
         {items} public items (ceiling {MAX_PUBLIC_ITEMS})"
    );
}
