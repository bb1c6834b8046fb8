//! Nemesis campaign tests: a pinned-seed campaign composing network,
//! process and disk faults must pass every fleet invariant under
//! enforced fencing, exercise all three fault families (a degenerate
//! campaign that injects nothing must not pass as green), replay
//! deterministically, and — the mutation self-tests — FAIL when the
//! deliver-path fence check is skipped via [`Mutant::SkipFence`], or
//! the stream horizon via [`Mutant::SkipHorizon`].

use sentinet_controller::{run_campaign, NemesisConfig, NemesisViolation};
use sentinet_gateway::Mutant;
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmproot(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sentinet-nemesis-{name}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn enforced_campaign_passes_and_exercises_every_fault_family() {
    let root = tmproot("enforced");
    let config = NemesisConfig::new(0xC0FFEE, 24, &root);
    let summary = run_campaign(&config).expect("enforced campaign must hold every invariant");

    assert_eq!(summary.episodes, 24);
    assert!(summary.process_faults > 0, "no process faults fired");
    assert!(summary.net_faults > 0, "no network faults fired");
    assert!(summary.disk_faults > 0, "no disk faults fired");
    assert!(summary.disk_episodes > 0, "no FaultyVfs-composed episode");
    assert!(
        summary.pipelined_episodes > 0 && summary.pipelined_episodes < summary.episodes,
        "both delivery modes must run (got {} pipelined of {})",
        summary.pipelined_episodes,
        summary.episodes
    );
    assert!(summary.failovers > 0, "no failover was forced");
    assert!(
        summary.zombie_probes > 0,
        "no fenced-but-live owner was probed — invariant 3 never ran"
    );
    assert_eq!(
        summary.fence_probe_rejects, summary.zombie_probes,
        "every zombie append must be fence-rejected"
    );
    assert!(summary.rogue_clocks > 0, "no rogue clock fired");
    assert_eq!(
        summary.horizon_rejects, summary.rogue_clocks,
        "every rogue copy must be horizon-rejected"
    );
}

#[test]
fn campaigns_replay_deterministically() {
    let a = run_campaign(&NemesisConfig::new(77, 9, tmproot("det-a"))).expect("campaign a");
    let b = run_campaign(&NemesisConfig::new(77, 9, tmproot("det-b"))).expect("campaign b");
    assert_eq!(a, b, "same seed must reproduce the same campaign");
    // The whole summary line is pinned, so a change to what a short
    // campaign exercises shows here, not only in the 200-episode run.
    assert_eq!(
        a.to_string(),
        "9 episode(s): 5 process / 14 net / 2 disk fault(s) (2 disk episode(s), 4 pipelined), \
         7 failover(s), 2 flap(s), 4 zombie probe(s) (4 fence-rejected), 0 migration(s), \
         0 cut probe(s) (0 fence-rejected), 3 rogue clock(s) (3 horizon-rejected)"
    );
}

#[test]
fn migration_campaign_passes_and_probes_moved_ranges() {
    let root = tmproot("migration");
    let config = NemesisConfig::new(0xC0FFEE, 16, &root).with_migration();
    let summary = run_campaign(&config).expect("migration campaign must hold every invariant");

    assert_eq!(summary.episodes, 16);
    assert_eq!(
        summary.migrations,
        2 * u64::from(summary.episodes),
        "every episode must complete its split and its rebalance-back"
    );
    assert!(summary.failovers > 0, "no fault landed on a handoff");
    assert!(
        summary.cut_probes > 0,
        "no fenced owner of a migrated range was probed — the cut probe never ran"
    );
    assert_eq!(
        summary.cut_probe_rejects, summary.cut_probes,
        "every moved-range zombie append must be fence-rejected"
    );
}

#[test]
fn migration_campaigns_replay_deterministically() {
    let a = run_campaign(&NemesisConfig::new(78, 7, tmproot("mig-det-a")).with_migration())
        .expect("campaign a");
    let b = run_campaign(&NemesisConfig::new(78, 7, tmproot("mig-det-b")).with_migration())
        .expect("campaign b");
    assert_eq!(a, b, "same seed must reproduce the same campaign");
}

#[test]
fn cut_check_skip_mutation_makes_the_migration_campaign_fail() {
    let root = tmproot("cut-skip");
    let mut config = NemesisConfig::new(0xC0FFEE, 8, &root).with_migration();
    config.mutant = Some(Mutant::SkipCut);
    let failure =
        run_campaign(&config).expect_err("with the cut check compiled out, the campaign MUST fail");
    assert!(
        matches!(
            failure.violation,
            NemesisViolation::AckedLost { .. }
                | NemesisViolation::DiagnosisDiverged { .. }
                | NemesisViolation::Orphaned { .. }
        ),
        "the empty-cut mutation must surface as acked loss, divergence or an orphan, got: {failure}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fence_check_skip_mutation_makes_the_campaign_fail() {
    let root = tmproot("skip");
    let mut config = NemesisConfig::new(0xC0FFEE, 24, &root);
    config.mutant = Some(Mutant::SkipFence);
    let failure = run_campaign(&config)
        .expect_err("with the fence check compiled out, the campaign MUST fail");
    assert!(
        matches!(
            failure.violation,
            NemesisViolation::SplitBrain { .. } | NemesisViolation::DiagnosisDiverged { .. }
        ),
        "the mutation must surface as split-brain or diagnosis divergence, got: {failure}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn horizon_skip_mutation_makes_the_campaign_fail() {
    let root = tmproot("horizon-skip");
    let mut config = NemesisConfig::new(0xC0FFEE, 12, &root);
    config.mutant = Some(Mutant::SkipHorizon);
    let failure = run_campaign(&config)
        .expect_err("with the stream horizon compiled out, a rogue clock MUST break the run");
    assert!(
        matches!(
            failure.violation,
            NemesisViolation::AckedLost { .. } | NemesisViolation::DiagnosisDiverged { .. }
        ),
        "an admitted rogue copy must surface as acked loss or divergence, got: {failure}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
