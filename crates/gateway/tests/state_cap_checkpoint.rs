//! Regression: a collector must be able to reopen its own checkpoint
//! once the clustering module holds more state *slots* than
//! `max_states`. Merged-away slots are never reclaimed, so a long
//! faulted stream (merge, then spawn) gets there while the *active*
//! count still respects the cap; `ModelStates::from_snapshot` used to
//! compare the slot count and refuse ("state snapshot exceeds its own
//! max_states"), which broke `Pipeline::from_snapshot` and every
//! restore-mode `Collector::open`.

use sentinet_core::{decode_pipeline, encode_pipeline, Pipeline};
use sentinet_gateway::snapshot::encode_collector;
use sentinet_gateway::{Collector, DeliverOutcome, GatewayConfig};
use sentinet_sim::SensorId;
use std::fs;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sentinet-state-cap-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &PathBuf) -> GatewayConfig {
    let mut config = GatewayConfig::new(dir);
    config.reorder.watermark_delay = 600;
    config.pipeline.window_samples = 2;
    // Two neighbouring initial states merge in the first clustering
    // round; the cap then admits exactly one spawn.
    config.pipeline.initial_states = Some(vec![vec![20.0, 50.0], vec![21.0, 50.0]]);
    config.pipeline.cluster.max_states = 2;
    config
}

#[test]
fn checkpoint_with_more_slots_than_max_states_reopens() {
    let src = tmpdir("src");
    let (mut c, _) = Collector::open(config(&src)).expect("open");
    // Eight windows near (20, 50), then the environment jumps far
    // enough to spawn a state.
    for i in 0..32u64 {
        let values = if i < 16 {
            vec![20.0, 50.0]
        } else {
            vec![60.0, 50.0]
        };
        for s in 0..3u16 {
            let outcome = c
                .deliver(SensorId(s), i, 300 * (i + 1), values.clone())
                .expect("deliver");
            assert_eq!(outcome, DeliverOutcome::Accepted);
        }
    }
    let snap = c.snapshot();
    let cursor = c.wal_records();
    drop(c);
    let states = &snap
        .pipeline
        .global
        .states
        .as_ref()
        .expect("bootstrapped from initial states")
        .states;
    let active = states.active.iter().filter(|&&a| a).count();
    assert!(
        states.centroids.len() > states.config.max_states && active <= states.config.max_states,
        "scenario must merge then spawn past the cap: {} slots, {active} active, cap {}",
        states.centroids.len(),
        states.config.max_states
    );

    // Through the pipeline's text codec and its restore path.
    let text = encode_pipeline(&snap.pipeline);
    let decoded = decode_pipeline(&text).expect("decode");
    let cfg = config(&src);
    let restored = Pipeline::from_snapshot(cfg.pipeline.clone(), cfg.sample_period, decoded)
        .expect("pipeline restores its own snapshot");
    assert_eq!(encode_pipeline(&restored.snapshot()), text);

    // Through a checkpoint-v2 restore point and `Collector::open`.
    let dst = tmpdir("dst");
    Collector::install_snapshot(&config(&dst), &snap, cursor).expect("install");
    let (d, info) = Collector::open(config(&dst)).expect("collector reopens its own checkpoint");
    assert_eq!(info.restored_from, Some(cursor));
    assert_eq!(encode_collector(&d.snapshot()), encode_collector(&snap));
    drop(d);
    let _ = fs::remove_dir_all(&src);
    let _ = fs::remove_dir_all(&dst);
}
