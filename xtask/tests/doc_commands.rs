//! Every `cargo run|bench|test -p <pkg> --bin|--bench|--test|--example
//! <name>` in the docs names a package and a target that exist: in the
//! member's `Cargo.toml` tables, or where cargo finds them on its own
//! (`src/main.rs`, `src/bin/`, `benches/`, `tests/`, `examples/`). And
//! every experiment a doc names in backticks (`` `exp_…` ``) is a
//! `sentinet-bench` bench target.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Each target flag's kind and the directory cargo discovers it in.
const KINDS: [(&str, &str); 4] = [
    ("bin", "src/bin"),
    ("bench", "benches"),
    ("test", "tests"),
    ("example", "examples"),
];

/// Package name → its targets, each as `"kind name"`.
type Members = BTreeMap<String, BTreeSet<String>>;

fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Every workspace member: `crates/*` and `xtask`.
fn workspace() -> Members {
    let crates = std::fs::read_dir(root().join("crates")).expect("crates/ readable");
    let dirs = crates.map(|e| e.expect("dir entry").path());
    dirs.chain([root().join("xtask")]).map(package).collect()
}

fn package(dir: PathBuf) -> (String, BTreeSet<String>) {
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("manifest readable");
    let (mut name, mut section, mut targets) = (String::new(), "", BTreeSet::new());
    let mut main_declared = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']);
        } else if let Some((key, value)) = line.split_once('=') {
            let value = value.trim().trim_matches('"');
            match (section, key.trim()) {
                ("package", "name") => name = value.to_string(),
                ("bin", "path") => main_declared |= value == "src/main.rs",
                (kind, "name") => _ = targets.insert(format!("{kind} {value}")),
                _ => {}
            }
        }
    }
    if dir.join("src/main.rs").is_file() && !main_declared {
        targets.insert(format!("bin {name}"));
    }
    for (kind, sub) in KINDS {
        for entry in std::fs::read_dir(dir.join(sub)).into_iter().flatten() {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "rs") || path.join("main.rs").is_file() {
                let stem = path.file_stem().and_then(|s| s.to_str()).expect("utf-8");
                targets.insert(format!("{kind} {stem}"));
            }
        }
    }
    (name, targets)
}

/// `(line, command)` for every `cargo run|bench|test` in `doc`. An
/// inline code span runs to its closing backtick, across a line break
/// if it wraps; anything else to the end of its line.
fn commands(doc: &str) -> Vec<(usize, &str)> {
    let found = doc.match_indices("cargo ").filter_map(|(at, _)| {
        let end = if doc[..at].ends_with('`') { '`' } else { '\n' };
        let rest = &doc[at..];
        let text = &rest[..rest.find(end).unwrap_or(rest.len())];
        let sub = text.split_whitespace().nth(1)?;
        let wanted = matches!(sub, "run" | "bench" | "test");
        wanted.then_some((doc[..at].matches('\n').count() + 1, text))
    });
    found.collect()
}

/// What is wrong with one command: a `-p` naming no member, or a target
/// none of its packages has. Placeholders such as `<name>` pass, and
/// arguments after `--`, a shell operator or a comment are not cargo's.
fn problems(command: &str, members: &Members) -> Vec<String> {
    let real = |s: &&str| !s.contains(['<', '{', '*', '$']);
    let (mut packages, mut targets) = (Vec::new(), Vec::new());
    let cargo_args = command.split_whitespace().skip(2);
    let mut tokens = cargo_args.take_while(|t| !["--", "|", "&&", ";", "#"].contains(t));
    while let Some(flag) = tokens.next() {
        let kind = KINDS.iter().find(|k| flag.strip_prefix("--") == Some(k.0));
        match (flag, kind) {
            ("-p", _) => packages.extend(tokens.next().filter(real)),
            (_, Some((kind, _))) => {
                targets.extend(tokens.next().filter(real).map(|t| format!("{kind} {t}")))
            }
            _ => {}
        }
    }
    let owners: Vec<_> = packages.iter().filter_map(|p| members.get(*p)).collect();
    let missing = packages.iter().filter(|p| !members.contains_key(**p));
    let missing = missing.map(|p| format!("no package `{p}`"));
    let orphans = targets
        .iter()
        .filter(|t| !packages.is_empty() && !owners.iter().any(|m| m.contains(*t)));
    let orphans = orphans.map(|t| format!("no `{t}` target in {}", packages.join(", ")));
    missing.chain(orphans).collect()
}

fn check(command: &str) -> Vec<String> {
    problems(command, &workspace())
}

/// Every problem in one doc, each as `doc:line: problem: command`.
fn stale(doc: &str) -> Vec<String> {
    let members = workspace();
    let text = std::fs::read_to_string(root().join(doc)).expect("doc readable");
    let mut stale = Vec::new();
    for (line, command) in commands(&text) {
        let found = problems(command, &members).into_iter();
        stale.extend(found.map(|p| format!("{doc}:{line}: {p}: {}", command.trim())));
    }
    stale
}

/// Every backticked experiment name (`exp_` and an identifier) in
/// `text` that `benches` lacks, each as `line: name`.
fn unknown_experiments(text: &str, benches: &BTreeSet<String>) -> Vec<String> {
    let mut unknown = Vec::new();
    for (line, content) in text.lines().enumerate() {
        let spans = content.split('`').skip(1).step_by(2);
        let names = spans.filter(|s| {
            let ident = s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
            s.starts_with("exp_") && ident
        });
        let missing = names.filter(|name| !benches.contains(&format!("bench {name}")));
        unknown.extend(missing.map(|name| format!("{}: {name}", line + 1)));
    }
    unknown
}

/// Every experiment `doc` names that `sentinet-bench` does not have.
fn stale_experiments(doc: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join(doc)).expect("doc readable");
    let found = unknown_experiments(&text, &workspace()["sentinet-bench"]);
    found.into_iter().map(|u| format!("{doc}:{u}")).collect()
}

#[test]
fn an_unknown_experiment_is_named_and_placeholders_pass() {
    let benches = BTreeSet::from(["bench exp_fig6".to_string()]);
    let doc = "`exp_fig6` and `exp_gone`\n`exp_*`, `exp_<name>`, exp_bare, `cargo bench exp_x`";
    assert_eq!(unknown_experiments(doc, &benches), ["1: exp_gone"]);
}

#[test]
fn docs_name_only_real_experiments() {
    let stale: Vec<_> = ["README.md", "EXPERIMENTS.md", "DESIGN.md"]
        .into_iter()
        .flat_map(stale_experiments)
        .collect();
    assert!(
        stale.is_empty(),
        "no such bench target:\n{}",
        stale.join("\n")
    );
}

#[test]
fn declared_targets_are_seen() {
    let members = workspace();
    let has = |package: &str, target: &str| members[package].contains(target);
    assert!(has("sentinet-cli", "bin sentinet") && !has("sentinet-cli", "bin sentinet-cli"));
    assert!(has("sentinet-bench", "bench exp_table1"));
}

#[test]
fn discovered_targets_are_seen() {
    let members = workspace();
    let has = |package: &str, target: &str| members[package].contains(target);
    assert!(has("sentinet-bench", "bin inspect") && !has("sentinet-bench", "bin sentinet-bench"));
    assert!(has("sentinet-core", "example quickstart") && has("xtask", "test doc_commands"));
    assert!(has("xtask", "bin xtask"));
}

#[test]
fn missing_package_and_orphan_target_are_named() {
    let stale = check("cargo run -p sentinet-bench --bin gone -p nope -- --bin x");
    let gone = "no `bin gone` target in sentinet-bench, nope";
    assert_eq!(stale, ["no package `nope`", gone]);
}

#[test]
fn each_target_kind_is_checked() {
    for kind in ["bin", "bench", "test", "example"] {
        let stale = check(&format!("cargo test -p xtask --{kind} gone"));
        assert_eq!(stale, [format!("no `{kind} gone` target in xtask")]);
    }
}

#[test]
fn placeholders_pass() {
    assert!(check("cargo bench -p sentinet-bench --bench <name>").is_empty());
    assert!(check("cargo run -p {pkg} --bin $BIN").is_empty());
    assert!(check("cargo test -p xtask --test '*'").is_empty());
}

#[test]
fn shell_operators_and_comments_end_the_cargo_arguments() {
    assert!(check("cargo test -p xtask && cargo run --bin gone").is_empty());
    assert!(check("cargo test -p xtask | tee --bin gone").is_empty());
    assert!(check("cargo test -p xtask # --bin gone").is_empty());
    assert_eq!(check("cargo test -p gone ; true"), ["no package `gone`"]);
}

#[test]
fn a_target_without_a_package_is_not_checked() {
    assert!(check("cargo run --bin gone").is_empty());
}

#[test]
fn inline_spans_wrap_and_other_commands_end_at_the_line() {
    let doc = "`cargo run -p a\n--bin b`\n```\ncargo build\ncargo test # c\n```";
    let found = [(1, "cargo run -p a\n--bin b"), (5, "cargo test # c")];
    assert_eq!(commands(doc), found);
    assert!(commands("cargo build -p a --bin b\ncargo check\ncargo").is_empty());
}

#[test]
fn readme_commands_name_real_targets() {
    let stale = stale("README.md");
    assert!(stale.is_empty(), "stale:\n{}", stale.join("\n"));
}

#[test]
fn experiments_commands_name_real_targets() {
    let stale = stale("EXPERIMENTS.md");
    assert!(stale.is_empty(), "stale:\n{}", stale.join("\n"));
}

#[test]
fn design_commands_name_real_targets() {
    let stale = stale("DESIGN.md");
    assert!(stale.is_empty(), "stale:\n{}", stale.join("\n"));
}

#[test]
fn verify_recipe_commands_name_real_targets() {
    let stale = stale(".claude/skills/verify/SKILL.md");
    assert!(stale.is_empty(), "stale:\n{}", stale.join("\n"));
}
