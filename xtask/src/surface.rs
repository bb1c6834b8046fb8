//! The public-surface audit `analyze` runs after the lints: every
//! `pub` item under `crates/*/src` whose name no other file uses.
//!
//! A `pub` item is an option the crate offers its callers. When no
//! other file names it — test code, `pub use` re-exports and the
//! out-of-tree `benchmark/` workspace do not count — it is either dead
//! or private in all but name. The audit is textual, on the masked view
//! of [`crate::lexer`]: a name counts as used wherever it appears as a
//! whole identifier, so a method called `new` is always used and the
//! audit can only under-report. [`PINNED`] holds the count at the last
//! audit; `analyze` fails when the count rises above it.

use crate::lexer::SourceMap;
use crate::lint::collect_rs_files;
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Unused `pub` items in the workspace at the last audit. Lower it when
/// an item goes; an item added with no user fails `analyze`.
pub const PINNED: usize = 90;

/// One source file the audit reads.
struct Source {
    /// Path relative to the repo root, as reported.
    path: PathBuf,
    /// The file's text.
    text: String,
    /// Whether its `pub` items are audited (`crates/*/src`); every
    /// file is read for uses.
    audited: bool,
}

/// A `pub` item no other file names.
#[derive(Debug)]
pub struct Unused {
    /// File the item is defined in.
    file: PathBuf,
    /// 1-based line of its `pub`.
    line: usize,
    /// `fn`, `struct`, `enum`, `trait`, `type`, `const` or `static`.
    kind: &'static str,
    /// The item's name.
    name: String,
}

impl fmt::Display for Unused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: pub {} {} has no user outside its file",
            self.file.display(),
            self.line,
            self.kind,
            self.name
        )
    }
}

/// The audited items of `sources` that no other source names.
fn audit(sources: &[Source]) -> Vec<Unused> {
    let maps: Vec<SourceMap> = sources.iter().map(|s| SourceMap::new(&s.text)).collect();
    let uses: Vec<BTreeSet<&str>> = maps.iter().map(identifiers).collect();
    let mut unused = Vec::new();
    for (i, (source, map)) in sources.iter().zip(&maps).enumerate() {
        if !source.audited {
            continue;
        }
        for (offset, kind, name) in definitions(map) {
            let used = uses
                .iter()
                .enumerate()
                .any(|(j, names)| j != i && names.contains(name));
            if !used {
                unused.push(Unused {
                    file: source.path.clone(),
                    line: map.line_of(offset),
                    kind,
                    name: name.to_string(),
                });
            }
        }
    }
    unused
}

/// Audits the workspace at `repo_root`: the items of `crates/*/src`,
/// against uses there and in `crates/*/benches`, `examples` and
/// `xtask/src`.
pub fn audit_workspace(repo_root: &Path) -> std::io::Result<Vec<Unused>> {
    let mut sources = Vec::new();
    let mut read = |dir: &Path, audited: bool| -> std::io::Result<()> {
        if !dir.is_dir() {
            return Ok(());
        }
        let mut files = Vec::new();
        collect_rs_files(dir, &mut files)?;
        files.sort();
        for file in files {
            sources.push(Source {
                text: std::fs::read_to_string(&file)?,
                path: file.strip_prefix(repo_root).unwrap_or(&file).to_path_buf(),
                audited,
            });
        }
        Ok(())
    };
    let mut crates: Vec<PathBuf> = std::fs::read_dir(repo_root.join("crates"))?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<std::io::Result<_>>()?;
    crates.sort();
    for krate in &crates {
        read(&krate.join("src"), true)?;
        read(&krate.join("benches"), false)?;
    }
    read(&repo_root.join("examples"), false)?;
    read(&repo_root.join("xtask/src"), false)?;
    Ok(audit(&sources))
}

/// The item keywords a `pub` item's name directly follows.
const KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Every identifier outside test code and `pub use` re-exports.
fn identifiers(map: &SourceMap) -> BTreeSet<&str> {
    let masked = map.masked.as_str();
    let mut skip = map.test_regions.clone();
    for (start, _) in masked.match_indices("pub use ") {
        let end = masked[start..]
            .find(';')
            .map_or(masked.len(), |e| start + e);
        skip.push((start, end));
    }
    let bytes = masked.as_bytes();
    let mut names = BTreeSet::new();
    let mut i = 0;
    while i < bytes.len() {
        if !is_ident(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident(bytes[i]) {
            i += 1;
        }
        let skipped = skip.iter().any(|&(s, e)| start >= s && start < e);
        if !skipped && !bytes[start].is_ascii_digit() {
            names.insert(&masked[start..i]);
        }
    }
    names
}

/// `(offset of pub, kind, name)` of every `pub` item outside test code;
/// `pub(crate)` and narrower, fields and modules are not items here.
fn definitions(map: &SourceMap) -> Vec<(usize, &'static str, &str)> {
    let masked = map.masked.as_str();
    let mut out = Vec::new();
    for (offset, _) in masked.match_indices("pub") {
        let before = masked[..offset].bytes().next_back();
        let rest = &masked[offset + 3..];
        if before.is_some_and(is_ident)
            || !rest.starts_with(char::is_whitespace)
            || map.in_test_region(offset)
        {
            continue;
        }
        let mut words = rest
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty());
        let kind = words
            .next()
            .and_then(|w| KINDS.into_iter().find(|&k| k == w));
        if let Some((kind, name)) = kind.zip(words.next()) {
            out.push((offset, kind, name));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(path: &str, text: &str) -> Source {
        Source {
            path: PathBuf::from(path),
            text: text.into(),
            audited: path.contains("/src/"),
        }
    }

    fn unused_names(sources: &[Source]) -> Vec<String> {
        audit(sources).into_iter().map(|u| u.name).collect()
    }

    /// A planted `pub fn` only its own file, a test and a re-export
    /// name is flagged; one another file calls is not.
    #[test]
    fn a_planted_dead_pub_fn_is_flagged_and_a_used_one_is_not() {
        let sources = [
            source(
                "crates/a/src/inner.rs",
                "pub fn planted_dead() {}\npub fn used_elsewhere() { planted_dead() }\n",
            ),
            source(
                "crates/a/src/lib.rs",
                "pub use inner::{planted_dead, used_elsewhere};\n",
            ),
            source(
                "crates/b/src/lib.rs",
                "fn call() { a::used_elsewhere(); }\n\
                 #[cfg(test)]\nmod t { fn probe() { a::planted_dead(); } }\n",
            ),
        ];
        assert_eq!(unused_names(&sources), ["planted_dead"]);
        assert_eq!(
            audit(&sources)[0].to_string(),
            "crates/a/src/inner.rs:1: pub fn planted_dead has no user outside its file"
        );
    }

    /// Every item kind is audited; restricted visibility, fields and
    /// comments are not items, and a use in an unaudited file counts.
    #[test]
    fn item_kinds_and_what_is_not_an_item() {
        let sources = [
            source(
                "crates/a/src/lib.rs",
                "pub struct S { pub field: u8 }\npub enum E {}\npub trait T {}\n\
                 pub type A = u8;\npub const C: u8 = 0;\npub static M: u8 = 0;\n\
                 pub fn f() {}\npub(crate) fn narrow() {}\n// pub fn commented() {}\n",
            ),
            source("examples/demo.rs", "fn main() { f(); }\n"),
        ];
        assert_eq!(unused_names(&sources), ["S", "E", "T", "A", "C", "M"]);
    }
}
