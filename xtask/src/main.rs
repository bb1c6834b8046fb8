//! `cargo run -p xtask -- <command>` — workspace automation CLI.

use sentinet_gateway::Mutant;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xtask::trajectory::{self, AbPlan};
use xtask::{lint, protocol_check, surface};

const USAGE: &str = "\
Usage: cargo run -p xtask -- <command>

Commands:
  analyze [--skip-invariants]  run lints, the public-surface audit, the
                               protocol/durability checker and (unless
                               skipped) the test suite under the
                               check-invariants feature
  lint [PATH...]               run the lint engine over the workspace, or
                               over the given files only
  protocol-check               exhaustively explore v2 uplink interleavings
                               (loss, reorder, reconnect, crash, poisoned
                               WAL) against the durability invariants
  doc-size                     fail when DESIGN.md or the newest CHANGES.md
                               row is over its byte budget
  nemesis [--seed S] [--episodes N]
                               run the seeded nemesis campaign (default
                               seed 12648430, 200 episodes) composing
                               network, process and disk faults against
                               the in-process federation, then the
                               migration campaign (a live split and a
                               rebalance-back inside every episode, cut
                               probes against fenced former owners),
                               then prove the fence-skip, cut-skip and
                               horizon-skip mutants are caught
  ab <parent-rev> [--workload W] [--pairs N] [--seconds S] [--seeds A,B,..]
     [--aligned] [--record PR]
                               run benchmark/run.sh alternately in a copy
                               of <parent-rev> (under target/ab) and in
                               the working tree, parent first in odd
                               pairs (default ingest-saturate, 10 pairs,
                               55 s, seed 42); print per-pair values,
                               medians, pairs won and the parent's IQR;
                               with --record, append the rows to
                               BENCH_trajectory.json as that PR's
  trajectory                   check BENCH_trajectory.json's rows, and
                               that a \"claim met\" in the newest
                               CHANGES.md row has one
";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives one level under the repo root")
        .to_path_buf()
}

/// Single reporting path for lint results: every finding goes to stderr
/// as `file:line: [lint] message`, then either `lint: clean` on stdout or
/// an Err carrying the `lint: N finding(s)` summary. Both the `lint`
/// subcommand and the `analyze` umbrella flow through here so their
/// output is identical; the format is pinned by the fixture tests.
fn report_findings(findings: &[lint::Finding]) -> Result<(), String> {
    for f in findings {
        eprintln!("{f}");
    }
    if findings.is_empty() {
        println!("lint: clean");
        Ok(())
    } else {
        Err(format!("lint: {} finding(s)", findings.len()))
    }
}

fn run_lint(paths: &[String]) -> Result<(), String> {
    let findings = if paths.is_empty() {
        lint::lint_workspace(&repo_root()).map_err(|e| format!("lint walk failed: {e}"))?
    } else {
        let mut findings = Vec::new();
        for p in paths {
            let path = PathBuf::from(p);
            let source =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let ctx = lint::FileContext::for_path(&path);
            findings.extend(lint::lint_source(&path, &source, &ctx));
        }
        findings
    };
    report_findings(&findings)
}

/// The public-surface audit: lists every `pub` item no other file
/// names and fails if there are more than [`surface::PINNED`].
fn run_surface() -> Result<(), String> {
    let audited =
        surface::audit_workspace(&repo_root()).map_err(|e| format!("surface walk failed: {e}"))?;
    let (shims, unused): (Vec<_>, Vec<_>) =
        audited.into_iter().partition(|u| u.shim_caller().is_some());
    for item in &unused {
        println!("surface: {item}");
    }
    for shim in &shims {
        let caller = shim.shim_caller().unwrap_or_default();
        println!("surface: ruler shim (kept for {caller}): {shim}");
    }
    let summary = format!(
        "surface: {} pub item(s) no other file names (pinned at {})",
        unused.len(),
        surface::PINNED
    );
    if unused.len() > surface::PINNED {
        Err(format!("{summary}: use, narrow or delete the new ones"))
    } else {
        println!("{summary}");
        Ok(())
    }
}

/// DESIGN.md's byte budget. The design document is meant to be read
/// whole, so a change that adds to it cuts elsewhere first.
const DESIGN_BYTES: usize = 70_000;

/// The newest CHANGES.md row's byte budget: a row states the claim,
/// the protocol, the medians and what was not met.
const CHANGES_ROW_BYTES: usize = 8_000;

fn run_doc_size() -> Result<(), String> {
    let read = |name: &str| {
        std::fs::read_to_string(repo_root().join(name))
            .map_err(|e| format!("doc-size: {name}: {e}"))
    };
    let design = read("DESIGN.md")?.len();
    if design > DESIGN_BYTES {
        return Err(format!(
            "doc-size: DESIGN.md is {design} B, over its {DESIGN_BYTES} B budget; cut before adding"
        ));
    }
    let changes = read("CHANGES.md")?;
    let row = newest_row(&changes).ok_or("doc-size: CHANGES.md has no `PR ` row")?;
    let name = row.split(':').next().unwrap_or(row);
    if row.len() > CHANGES_ROW_BYTES {
        return Err(format!(
            "doc-size: CHANGES.md's newest row ({name}) is {} B, over its {CHANGES_ROW_BYTES} B budget",
            row.len()
        ));
    }
    println!(
        "doc-size: DESIGN.md is {design} B of {DESIGN_BYTES} B; CHANGES.md's newest row ({name}) is {} B of {CHANGES_ROW_BYTES} B",
        row.len()
    );
    Ok(())
}

/// The last line of CHANGES.md that opens a PR's row.
fn newest_row(changes: &str) -> Option<&str> {
    changes.lines().rev().find(|line| line.starts_with("PR "))
}

fn run_trajectory() -> Result<(), String> {
    let read = |name: &str| {
        std::fs::read_to_string(repo_root().join(name))
            .map_err(|e| format!("trajectory: {name}: {e}"))
    };
    let (file, benchmark, changes) = (
        read(trajectory::TRAJECTORY)?,
        read("BENCHMARK.json")?,
        read("CHANGES.md")?,
    );
    match trajectory::check(&file, &benchmark, &changes) {
        Ok(rows) => {
            println!("trajectory: {rows} row(s), all well formed");
            Ok(())
        }
        Err(problems) => {
            for p in &problems {
                eprintln!("trajectory: {p}");
            }
            Err(format!("trajectory: {} problem(s)", problems.len()))
        }
    }
}

fn run_ab(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let parent = it.next().filter(|a| !a.starts_with("--"));
    let parent = parent.ok_or("ab: name the parent revision first")?;
    let mut plan = AbPlan {
        parent: parent.clone(),
        workload: "ingest-saturate".into(),
        pairs: 10,
        seconds: 55,
        seeds: vec![42],
        aligned: false,
        record: None,
    };
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("ab: {flag} needs a value"));
        let number = |flag: &str, v: &str| -> Result<u64, String> {
            v.parse().map_err(|e| format!("ab: bad {flag} `{v}`: {e}"))
        };
        match flag.as_str() {
            "--workload" => plan.workload = value(flag)?.clone(),
            "--pairs" => plan.pairs = number(flag, value(flag)?)? as usize,
            "--seconds" => plan.seconds = number(flag, value(flag)?)?,
            "--seeds" => {
                let list = value(flag)?;
                plan.seeds = list
                    .split(',')
                    .map(|s| number(flag, s))
                    .collect::<Result<_, _>>()?;
            }
            "--record" => plan.record = Some(number(flag, value(flag)?)?),
            "--aligned" => plan.aligned = true,
            other => return Err(format!("ab: unknown flag {other:?}")),
        }
    }
    if plan.pairs == 0 || plan.seconds == 0 {
        return Err("ab: --pairs and --seconds must be at least 1".into());
    }
    trajectory::run_ab(&repo_root(), &plan)
}

fn run_protocol_check() -> Result<(), String> {
    match protocol_check::check(protocol_check::Scale::Full) {
        Ok(report) => {
            for (name, space) in &report.spaces {
                println!(
                    "protocol-check: space `{name}`: {} episodes, {} transitions",
                    space.episodes, space.transitions
                );
            }
            println!(
                "protocol-check: {} episodes, {} transitions across {} spaces, all invariants held",
                report.episodes(),
                report.transitions(),
                report.spaces.len()
            );
            if report.transitions() <= 10_000 {
                return Err(format!(
                    "protocol-check: only {} transitions explored (expected > 10000); \
                     the configured space is too small to be meaningful",
                    report.transitions()
                ));
            }
        }
        Err(v) => return Err(format!("protocol-check: invariant violated\n{v}")),
    }
    // The self-tests: the checker must catch each planted bug with the
    // invariant that guards against it.
    for test in &protocol_check::SELF_TESTS {
        let label = test.label;
        match protocol_check::check_mutation(protocol_check::Scale::Full, test) {
            Err(v) if v.invariant == test.invariant => println!(
                "protocol-check: {label} mutation caught as expected ({} in space `{}`)",
                v.invariant, v.space
            ),
            Err(v) => return Err(format!("protocol-check: {label}: wrong violation\n{v}")),
            Ok(_) => {
                return Err(format!(
                    "protocol-check: {label} mutation survived undetected; checker is blind"
                ))
            }
        }
    }
    Ok(())
}

/// The nemesis self-tests: label, the mutant planted in every drilled
/// owner, episodes at most, and whether the migration schedule runs.
const NEMESIS_SELF_TESTS: [(&str, Mutant, u32, bool); 3] = [
    ("fence-skip", Mutant::SkipFence, 12, false),
    ("cut-skip", Mutant::SkipCut, 8, true),
    ("horizon-skip", Mutant::SkipHorizon, 12, false),
];

/// The nemesis campaign runner: a pinned-seed randomized campaign over
/// the in-process federation, then the migration campaign (the same
/// fault families landing on live split/rebalance handoffs), followed
/// by the [`NEMESIS_SELF_TESTS`] — re-running short campaigns with the
/// deliver-path fence check ([`Mutant::SkipFence`]), the migration cut
/// ([`Mutant::SkipCut`]) or the stream horizon ([`Mutant::SkipHorizon`])
/// broken and requiring each to FAIL. A checker that stays green under
/// its own mutant proves nothing.
fn run_nemesis(args: &[String]) -> Result<(), String> {
    use sentinet_controller::{run_campaign, NemesisConfig};

    let mut seed: u64 = 0xC0_FFEE;
    let mut episodes: u32 = 200;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("nemesis: {flag} needs a value"))
        };
        match flag.as_str() {
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("nemesis: bad --seed: {e}"))?
            }
            "--episodes" => {
                episodes = value("--episodes")?
                    .parse()
                    .map_err(|e| format!("nemesis: bad --episodes: {e}"))?
            }
            other => return Err(format!("nemesis: unknown flag {other:?}")),
        }
    }
    if episodes == 0 {
        return Err("nemesis: --episodes must be at least 1".into());
    }

    let scratch = std::env::temp_dir().join(format!("sentinet-nemesis-{}", std::process::id()));
    let summary = run_campaign(&NemesisConfig::new(
        seed,
        episodes,
        scratch.join("enforced"),
    ))
    .map_err(|f| format!("nemesis: {f}"))?;
    println!("nemesis: {summary}");
    if summary.failovers == 0
        || summary.zombie_probes == 0
        || summary.disk_episodes == 0
        || summary.rogue_clocks == 0
    {
        return Err(format!(
            "nemesis: degenerate campaign (failovers {}, zombie probes {}, disk episodes {}, \
             rogue clocks {}); a run that forces nothing proves nothing",
            summary.failovers, summary.zombie_probes, summary.disk_episodes, summary.rogue_clocks
        ));
    }

    // The migration campaign: the same seed, with a live split and a
    // rebalance-back scheduled inside every episode so the fault plan
    // lands on the handoff ladder itself, plus cut probes against
    // fenced former owners of migrated ranges.
    let migration = run_campaign(
        &NemesisConfig::new(seed, episodes, scratch.join("migration")).with_migration(),
    )
    .map_err(|f| format!("nemesis: migration campaign: {f}"))?;
    println!("nemesis: migration campaign: {migration}");
    if migration.migrations != 2 * u64::from(migration.episodes) || migration.cut_probes == 0 {
        return Err(format!(
            "nemesis: degenerate migration campaign ({} migration(s) over {} episodes, \
             {} cut probe(s)); a run that moves nothing proves nothing",
            migration.migrations, migration.episodes, migration.cut_probes
        ));
    }
    for (label, s) in [("", &summary), ("migration campaign: ", &migration)] {
        if s.horizon_rejects != s.rogue_clocks {
            return Err(format!(
                "nemesis: {label}{} of {} rogue clock(s) got past the stream horizon",
                s.rogue_clocks - s.horizon_rejects,
                s.rogue_clocks
            ));
        }
    }

    let mut verdict = Ok(());
    for (label, mutant, most, migration) in NEMESIS_SELF_TESTS {
        let mut config = NemesisConfig::new(seed, episodes.min(most), scratch.join(label));
        config.migration = migration;
        config.mutant = Some(mutant);
        match run_campaign(&config) {
            Err(failure) => println!("nemesis: {label} mutation caught as expected ({failure})"),
            Ok(_) => {
                verdict = verdict.and(Err(format!(
                    "nemesis: {label} mutation survived undetected; the campaign is blind"
                )))
            }
        }
    }
    // The mutated runs fail by design; their debris is not a debugging
    // artifact worth keeping.
    let _ = std::fs::remove_dir_all(&scratch);
    verdict
}

fn run_invariant_tests() -> Result<(), String> {
    println!("invariants: running numeric test suites with --features check-invariants");
    let status = std::process::Command::new(env!("CARGO"))
        .current_dir(repo_root())
        .args([
            "test",
            "-q",
            "-p",
            "sentinet-hmm",
            "-p",
            "sentinet-cluster",
            "-p",
            "sentinet-core",
            "--features",
            "sentinet-core/check-invariants",
        ])
        .status()
        .map_err(|e| format!("invariants: failed to spawn cargo: {e}"))?;
    if status.success() {
        println!("invariants: test suite green under check-invariants");
        Ok(())
    } else {
        Err("invariants: test suite failed under check-invariants".into())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("analyze") => {
            let skip_invariants = args.iter().any(|a| a == "--skip-invariants");
            let mut failures = Vec::new();
            for step in [
                run_lint(&[]),
                run_surface(),
                run_protocol_check(),
                if skip_invariants {
                    Ok(())
                } else {
                    run_invariant_tests()
                },
            ] {
                if let Err(e) = step {
                    eprintln!("{e}");
                    failures.push(e);
                }
            }
            if failures.is_empty() {
                println!("analyze: all checks passed");
                Ok(())
            } else {
                Err(format!("analyze: {} check(s) failed", failures.len()))
            }
        }
        Some("lint") => run_lint(&args[1..]),
        Some("protocol-check") => run_protocol_check(),
        Some("doc-size") => run_doc_size(),
        Some("nemesis") => run_nemesis(&args[1..]),
        Some("ab") => run_ab(&args[1..]),
        Some("trajectory") => run_trajectory(),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::newest_row;

    #[test]
    fn the_newest_changes_row_is_the_last_line_opening_a_pr() {
        let changes = "# Changes\nPR 1 (a): first\nFOUND: x\nPR 2 (b): second\nFOUND: y\n";
        assert_eq!(newest_row(changes), Some("PR 2 (b): second"));
        assert_eq!(newest_row("# Changes\nFOUND: x\n"), None);
    }
}
