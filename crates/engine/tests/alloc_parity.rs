//! The 1-shard engine is the serial pipeline, allocation for
//! allocation: a counting `#[global_allocator]` (this test binary only)
//! runs one trace through `Engine` at one shard and through `Pipeline`
//! and allows the engine a small constant more allocator calls — the
//! run's own bookkeeping — where a coordinator that re-derives the
//! window in its own shapes pays per sensor per window.

use sentinet_core::{Pipeline, PipelineConfig};
use sentinet_engine::Engine;
use sentinet_sim::{Payload, Reading, SensorId, Trace, TraceRecord};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SAMPLE_PERIOD: u64 = 300;
const SENSORS: u16 = 200;
const HOURS: u64 = 40;

/// `SENSORS` sensors around one environment state for `HOURS` one-hour
/// windows, every fifth reading lost.
fn trace() -> Trace {
    let mut records = Vec::new();
    for sample in 0..HOURS * 12 {
        for s in (0..SENSORS).filter(|s| (u64::from(*s) + sample) % 5 != 4) {
            let wobble = f64::from(s % 7) / 7.0;
            records.push(TraceRecord {
                time: sample * SAMPLE_PERIOD,
                sensor: SensorId(s),
                payload: Payload::Delivered(Reading::new(vec![12.5 + wobble, 93.0 - wobble])),
            });
        }
    }
    Trace::from_records(records)
}

#[test]
fn one_shard_engine_allocates_like_the_serial_pipeline() {
    let trace = trace();
    let (serial, windows) = allocations(|| {
        Pipeline::new(PipelineConfig::default(), SAMPLE_PERIOD)
            .process_trace(&trace)
            .len()
    });
    let (engine, run) = allocations(|| {
        Engine::new(PipelineConfig::default(), SAMPLE_PERIOD, 1)
            .process_trace(&trace)
            .expect("one inline shard cannot fail")
    });
    assert_eq!(windows, HOURS as usize);
    assert_eq!(run.outcomes().len(), windows);
    assert!(
        engine <= serial + 8,
        "Engine at 1 shard made {engine} allocator calls over {windows} windows of \
         {SENSORS} sensors, Pipeline {serial}"
    );
}
