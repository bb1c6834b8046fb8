//! The engine's construction contract and the shape of a run: what it
//! refuses, what an empty trace yields, and that the operator-facing
//! report is the serial pipeline's at every shard count.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_core::{Pipeline, PipelineConfig};
use sentinet_engine::Engine;
use sentinet_inject::{inject_faults, FaultInjection, FaultModel};
use sentinet_sim::{gdi, simulate, SensorId, Trace, DAY_S};

#[test]
#[should_panic(expected = "need at least one shard")]
fn zero_shards_are_refused() {
    let _ = Engine::new(PipelineConfig::default(), 300, 0);
}

#[test]
#[should_panic(expected = "sample period must be positive")]
fn zero_sample_period_is_refused() {
    let _ = Engine::new(PipelineConfig::default(), 0, 2);
}

#[test]
fn empty_trace_processes_no_windows() {
    let trace = Trace::from_records(Vec::new());
    let serial = Pipeline::new(PipelineConfig::default(), 300).report();
    for shards in [1, 3] {
        let Ok(run) = Engine::new(PipelineConfig::default(), 300, shards).process_trace(&trace);
        assert!(run.outcomes().is_empty(), "{shards} shards");
        assert_eq!(run.windows_processed(), 0, "{shards} shards");
        assert!(run.pipeline().sensor_ids().is_empty(), "{shards} shards");
        assert_eq!(run.report(), serial, "{shards} shards");
    }
}

#[test]
fn reports_match_the_serial_report_at_every_shard_count() {
    let mut cfg = gdi::month_config();
    cfg.duration = 3 * DAY_S;
    let mut rng = StdRng::seed_from_u64(17);
    let clean = simulate(&cfg, &mut rng);
    let fault = FaultInjection::from_onset(
        SensorId(6),
        FaultModel::StuckAt {
            value: vec![15.0, 1.0],
        },
        DAY_S,
    );
    let trace = inject_faults(&clean, &[fault], &cfg.ranges, &mut rng);

    let mut pipeline = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
    pipeline.process_trace(&trace);
    let serial = pipeline.report();
    assert!(
        serial.to_string().contains("sensor6"),
        "the fault is in the report"
    );
    for shards in [1, 2, 3] {
        let engine = Engine::new(PipelineConfig::default(), cfg.sample_period, shards);
        let Ok(run) = engine.process_trace(&trace);
        let report = run.report();
        assert_eq!(report, serial, "{shards} shards");
        assert_eq!(report.to_string(), serial.to_string(), "{shards} shards");
    }
}
