//! `cargo run -p xtask -- <command>` — workspace automation CLI.

use sentinet_gateway::AckDiscipline;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xtask::protocol_check::RestoreMutation;
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
  doc-size                     fail when DESIGN.md is over its byte budget
  nemesis [--seed S] [--episodes N]
                               run the seeded nemesis campaign (default
                               seed 12648430, 200 episodes) composing
                               network, process and disk faults against
                               the in-process federation, then the
                               migration campaign (a live split and a
                               rebalance-back inside every episode, cut
                               probes against fenced former owners),
                               then prove the fence-check and cut-check
                               Skip mutations are caught
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
    let unused =
        surface::audit_workspace(&repo_root()).map_err(|e| format!("surface walk failed: {e}"))?;
    for item in &unused {
        println!("surface: {item}");
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
const DESIGN_BYTES: u64 = 70_000;

fn run_doc_size() -> Result<(), String> {
    let path = repo_root().join("DESIGN.md");
    let len = std::fs::metadata(&path)
        .map_err(|e| format!("doc-size: {}: {e}", path.display()))?
        .len();
    if len > DESIGN_BYTES {
        return Err(format!(
            "doc-size: DESIGN.md is {len} B, over its {DESIGN_BYTES} B budget; cut before adding"
        ));
    }
    println!("doc-size: DESIGN.md is {len} B of {DESIGN_BYTES} B");
    Ok(())
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
    // Self-tests: the checker must catch each deliberately broken ack
    // discipline (acks released before the WAL is synced; an
    // overlapped sync credited with the cursor read after its fsync
    // returned — six scheduled choices deep, hence the full budget). If
    // a mutation survives, the checker is blind and its green run
    // above proves nothing.
    for (label, discipline) in [
        ("eager-ack", AckDiscipline::Eager),
        ("late-capture", AckDiscipline::LateCapture),
    ] {
        match protocol_check::check_mutation(protocol_check::Scale::Full, discipline) {
            Err(v) => println!(
                "protocol-check: {label} mutation caught as expected ({} in space `{}`)",
                v.invariant, v.space
            ),
            Ok(_) => {
                return Err(format!(
                    "protocol-check: {label} mutation survived undetected; checker is blind"
                ))
            }
        }
    }
    // The restore space's own self-tests: I6 must reject a restore
    // point committed before its covering fsync, the disk a
    // delete-before-rename reclaim could leave behind, and a restore
    // point naming by position readings below its own base.
    for (label, mutation) in [
        ("commit-before-sync", RestoreMutation::CommitBeforeSync),
        ("delete-before-rename", RestoreMutation::DeleteBeforeRename),
        ("position-below-base", RestoreMutation::PositionBelowBase),
    ] {
        match protocol_check::check_restore_mutation(protocol_check::Scale::Full, mutation) {
            Err(v) if v.invariant == "I6 restore-durability" => println!(
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

/// The nemesis campaign runner: a pinned-seed randomized campaign over
/// the in-process federation, then the migration campaign (the same
/// fault families landing on live split/rebalance handoffs), followed
/// by the mutation self-tests — re-running short campaigns with the
/// deliver-path fence check ([`FenceCheck::Skip`]) and the migration
/// cut check ([`CutCheck::Skip`]) compiled out and requiring both to
/// FAIL. A checker that stays green under its own mutation proves
/// nothing.
fn run_nemesis(args: &[String]) -> Result<(), String> {
    use sentinet_controller::{run_campaign, NemesisConfig};
    use sentinet_gateway::{CutCheck, FenceCheck};

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
    if summary.failovers == 0 || summary.zombie_probes == 0 || summary.disk_episodes == 0 {
        return Err(format!(
            "nemesis: degenerate campaign (failovers {}, zombie probes {}, disk episodes {}); \
             a run that forces nothing proves nothing",
            summary.failovers, summary.zombie_probes, summary.disk_episodes
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

    let mut mutated = NemesisConfig::new(seed, episodes.min(12), scratch.join("fence-skip"));
    mutated.fence = FenceCheck::Skip;
    let fence_verdict: Result<(), String> = match run_campaign(&mutated) {
        Err(failure) => {
            println!("nemesis: fence-skip mutation caught as expected ({failure})");
            Ok(())
        }
        Ok(_) => {
            Err("nemesis: fence-skip mutation survived undetected; the campaign is blind".into())
        }
    };

    // The cut-check mutation ships an empty snapshot for the moved
    // range while still retiring it on the source; the migration
    // campaign must catch the loss.
    let mut cut =
        NemesisConfig::new(seed, episodes.min(8), scratch.join("cut-skip")).with_migration();
    cut.cut = CutCheck::Skip;
    let cut_verdict: Result<(), String> = match run_campaign(&cut) {
        Err(failure) => {
            println!("nemesis: cut-skip mutation caught as expected ({failure})");
            Ok(())
        }
        Ok(_) => Err(
            "nemesis: cut-skip mutation survived undetected; the migration campaign is blind"
                .into(),
        ),
    };
    // The mutated runs fail by design; their debris is not a debugging
    // artifact worth keeping.
    let _ = std::fs::remove_dir_all(&scratch);
    fence_verdict.and(cut_verdict)
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
            "-p",
            "sentinet-engine",
            "--features",
            "sentinet-core/check-invariants,sentinet-engine/check-invariants",
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
