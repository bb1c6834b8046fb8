//! Property tests for the ingest sanitizer: whatever arrives off the
//! wire — NaN/∞ payloads, empty readings, duplicate and regressed
//! timestamps, inconsistent dimensionality, in any interleaving —
//! sanitization never panics, accounts for every record exactly once,
//! and the accepted stream is well-formed (finite, per-sensor strictly
//! increasing, dimension-consistent). The estimators never see garbage
//! unflagged.

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use seeded::TestRng;
use sentinet_sim::{sanitize_records, RawRecord, Sanitizer, SensorId};
use std::collections::BTreeMap;

/// Arbitrary wire input: short bursts of records over a handful of
/// sensors and a tight timestamp range, so duplicates, regressions and
/// dimension flips all occur frequently. Values are drawn from a pool
/// that includes every non-finite class.
fn raw_records(rng: &mut TestRng) -> Vec<RawRecord> {
    const POOL: [f64; 6] = [17.0, -3.5, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    rng.vec(0..60, |r| RawRecord {
        time: r.range(0u64..40),
        sensor: SensorId(r.range(0u16..4)),
        values: r.vec(0..4, |r| r.pick(&POOL)),
    })
}

seeded::properties! {
    var: "SANITIZE_PROPS_SEED", package: "sentinet-sim", target: "--test sanitize_props",
    cases: 256;

    fn every_record_is_accounted_for(rng) {
        let records = raw_records(rng);
        let total = records.len();
        let (trace, report) = sanitize_records(records);
        assert_eq!(report.accepted + report.rejected.len(), total);
        assert_eq!(trace.delivered().count(), report.accepted);
    }

    fn accepted_stream_is_well_formed(rng) {
        let records = raw_records(rng);
        let (trace, _report) = sanitize_records(records);
        let mut latest: BTreeMap<SensorId, u64> = BTreeMap::new();
        let mut dims: Option<usize> = None;
        for (time, sensor, reading) in trace.delivered() {
            assert!(!reading.values().is_empty(), "empty reading reached the trace");
            for v in reading.values() {
                assert!(v.is_finite(), "non-finite value reached the trace");
            }
            let d = *dims.get_or_insert(reading.values().len());
            assert_eq!(reading.values().len(), d, "dimensionality drifted");
            if let Some(&prev) = latest.get(&sensor) {
                assert!(time > prev, "{} regressed t={} after t={}", sensor, time, prev);
            }
            latest.insert(sensor, time);
        }
    }

    fn sanitization_is_idempotent(rng) {
        let records = raw_records(rng);
        let (trace, _first) = sanitize_records(records);
        let accepted: Vec<RawRecord> = trace
            .delivered()
            .map(|(time, sensor, reading)| RawRecord {
                time,
                sensor,
                values: reading.values().to_vec(),
            })
            .collect();
        let count = accepted.len();
        let (again, second) = sanitize_records(accepted);
        assert!(second.is_clean(), "accepted output re-rejected: {:?}", second.rejected);
        assert_eq!(again.delivered().count(), count);
    }

    fn rejections_never_advance_history(rng) {
        let time = rng.range(1u64..100);
        let sensor = rng.range(0u16..4);
        let id = SensorId(sensor);
        let mut s = Sanitizer::new();
        let clean = |t: u64, v: f64| RawRecord { time: t, sensor: id, values: vec![v] };
        s.accept(clean(time, 1.0)).expect("clean record");
        // A rejected NaN at a later stamp must not claim the stamp...
        assert!(s
            .accept(RawRecord { time: time + 1, sensor: id, values: vec![f64::NAN] })
            .is_err());
        // ...so the clean retransmission at that stamp still lands.
        assert!(s.accept(clean(time + 1, 2.0)).is_ok());
    }
}
