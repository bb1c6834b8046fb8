//! Cross-commit pin of the serial pipeline's output.
//!
//! The benchmark's output check only proves a commit agrees with
//! itself (serial vs. sharded, rep vs. reference). This file pins the
//! pipeline against the commit *before* the window-close path went
//! flat: a seeded 200-sensor × 2-day field carrying one fault of every
//! [`FaultModel`] and one `DynamicCreation` attack runs through
//! [`Pipeline`], and the FNV-1a digests of the operator report and of
//! the encoded checkpoint must equal the values recorded by running
//! this same file at that commit (568f592). Every centroid, estimator
//! cell, alarm history and track is in the checkpoint text with floats
//! verbatim, so an equal digest means the model state is bit-identical.
//! On mismatch the test prints the report for diffing.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_core::{encode_pipeline, Pipeline, PipelineConfig};
use sentinet_inject::{
    inject_attacks, inject_faults, AttackInjection, AttackModel, FaultInjection, FaultModel,
};
use sentinet_sim::{gdi, simulate, SensorId, DAY_S};

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digests recorded at parent commit 568f592.
const SNAPSHOT_DIGEST: u64 = 1_583_934_005_129_867_244;
const REPORT_DIGEST: u64 = 424_754_040_791_017_449;

#[test]
fn report_and_checkpoint_match_the_parent_commit() {
    let mut cfg = gdi::month_config();
    cfg.num_sensors = 200;
    cfg.duration = 2 * DAY_S;
    let clean = simulate(&cfg, &mut StdRng::seed_from_u64(0x5e17_1e57));

    let onset = DAY_S / 2;
    let models = [
        FaultModel::StuckAt {
            value: vec![15.0, 1.0],
        },
        FaultModel::DriftToStuck {
            target: vec![15.0, 1.0],
            drift_duration: DAY_S / 4,
        },
        FaultModel::Calibration {
            gain: vec![1.15, 1.15],
        },
        FaultModel::Additive {
            offset: vec![-9.0, -4.5],
        },
        FaultModel::RandomNoise {
            std: vec![10.0, 10.0],
        },
        FaultModel::Outage { drop_prob: 0.5 },
    ];
    let faults: Vec<FaultInjection> = models
        .into_iter()
        .enumerate()
        .map(|(i, model)| FaultInjection::from_onset(SensorId(70 + 20 * i as u16), model, onset))
        .collect();
    let faulty = inject_faults(
        &clean,
        &faults,
        &cfg.ranges,
        &mut StdRng::seed_from_u64(0x5afe),
    );
    // A third of the field forges a state the environment never visits.
    let attack = AttackInjection::from_onset(
        (0..66).map(SensorId).collect(),
        AttackModel::DynamicCreation {
            target: vec![25.0, 69.0],
        },
        DAY_S + DAY_S / 4,
    );
    let trace = inject_attacks(&faulty, &[attack], &cfg.ranges);

    let mut p = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
    for (time, sensor, reading) in trace.delivered() {
        for outcome in p.push_reading(time, sensor, reading) {
            p.recycle_outcome(outcome);
        }
    }
    // Mid-window: the checkpoint carries the in-progress window too.
    let snapshot = encode_pipeline(&p.snapshot());
    p.finalize();
    let report = p.report().to_string();

    let flagged = p.report().flagged().count();
    assert!(flagged >= 4, "scenario went quiet: {flagged} flagged");
    assert!(
        p.model_states().expect("bootstrapped").num_slots() > 4,
        "scenario never spawned a state"
    );
    assert_eq!(
        (fnv(snapshot.as_bytes()), fnv(report.as_bytes())),
        (SNAPSHOT_DIGEST, REPORT_DIGEST),
        "pipeline output drifted from commit 568f592:\n{report}"
    );
}
