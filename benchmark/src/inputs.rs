//! Workload inputs. Everything the program sees is generated here from
//! `--seed`: the same seed gives the same trace, the same faults and
//! the same records.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_core::PipelineConfig;
use sentinet_gateway::trace_to_raw;
use sentinet_inject::{inject_faults, FaultInjection, FaultModel};
use sentinet_sim::{gdi, simulate, RawRecord, SensorId, Timestamp, Trace, DAY_S};

/// One generated field trace, in both shapes the layers take.
pub struct Field {
    pub trace: Trace,
    /// The delivered readings in trace order (what a gateway client
    /// would send).
    pub records: Vec<RawRecord>,
    pub sample_period: u64,
    pub sensors: u16,
    /// Faulted sensors with the observation window their fault starts
    /// in. Empty for a clean field.
    pub faulted: Vec<(SensorId, u64)>,
    /// Observation windows the trace spans.
    pub windows: u64,
}

impl Field {
    /// Seconds of stream per observation window.
    pub fn window_seconds(&self) -> u64 {
        u64::from(PipelineConfig::default().window_samples) * self.sample_period
    }
}

/// Hour at which `analyze`'s faults start: one clean day first, so the
/// model states and `M_CO` are learned before anything misbehaves.
const FAULT_ONSET: Timestamp = DAY_S;

/// The four accidental-error models of the paper's §3.3, dealt
/// round-robin over the faulted sensors.
fn fault_model(i: usize) -> FaultModel {
    match i % 4 {
        0 => FaultModel::DriftToStuck {
            target: vec![15.0, 1.0],
            drift_duration: DAY_S / 4,
        },
        1 => FaultModel::Calibration {
            gain: vec![1.15, 1.15],
        },
        2 => FaultModel::Additive {
            offset: vec![-9.0, -4.5],
        },
        _ => FaultModel::RandomNoise {
            std: vec![10.0, 10.0],
        },
    }
}

/// A GDI-like field of `sensors` sensors over `days` days. With
/// `fault_every = Some(n)`, one sensor in every `n` carries a fault
/// from [`FAULT_ONSET`] to the end of the trace.
pub fn field(sensors: u16, days: u64, seed: u64, fault_every: Option<u16>) -> Field {
    let mut cfg = gdi::month_config();
    cfg.num_sensors = sensors;
    cfg.duration = days * DAY_S;
    let mut trace = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
    let mut faulted = Vec::new();
    let window = u64::from(PipelineConfig::default().window_samples) * cfg.sample_period;
    if let Some(every) = fault_every {
        let injections: Vec<FaultInjection> = (0..sensors / every)
            .map(|i| {
                let sensor = SensorId(i * every + every / 2);
                FaultInjection::from_onset(sensor, fault_model(usize::from(i)), FAULT_ONSET)
            })
            .collect();
        faulted = injections
            .iter()
            .map(|f| (f.sensor, f.start / window))
            .collect();
        trace = inject_faults(
            &trace,
            &injections,
            &cfg.ranges,
            &mut StdRng::seed_from_u64(seed ^ 0x5afe),
        );
    }
    let records = trace_to_raw(&trace);
    Field {
        trace,
        records,
        sample_period: cfg.sample_period,
        sensors,
        faulted,
        windows: cfg.duration.div_ceil(window),
    }
}

/// One `DataBatch` worth of consecutive readings of one sensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    pub sensor: SensorId,
    pub first_seq: u64,
    pub readings: Vec<(Timestamp, Vec<f64>)>,
    /// How many records of the stream had been offered when this batch
    /// sealed — its last reading is record number `sealed_at` (1-based)
    /// of the trace, which fixes when an open-loop sender owes it.
    pub sealed_at: usize,
}

/// Groups `records` into per-sensor batches of `size` readings in the
/// order a v2 uplink seals them: a sensor's batch goes out when its
/// `size`-th reading arrives, and what is left at the end of the
/// stream is flushed in sensor order.
pub fn batches(records: &[RawRecord], size: usize) -> Vec<Batch> {
    use std::collections::BTreeMap;
    let mut open: BTreeMap<SensorId, Batch> = BTreeMap::new();
    let mut next_seq: BTreeMap<SensorId, u64> = BTreeMap::new();
    let mut out = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let seq = next_seq.entry(r.sensor).or_insert(0);
        let batch = open.entry(r.sensor).or_insert_with(|| Batch {
            sensor: r.sensor,
            first_seq: *seq,
            readings: Vec::with_capacity(size),
            sealed_at: 0,
        });
        batch.readings.push((r.time, r.values.clone()));
        *seq += 1;
        if batch.readings.len() == size {
            let mut sealed = open.remove(&r.sensor).expect("batch was just filled");
            sealed.sealed_at = i + 1;
            out.push(sealed);
        }
    }
    for (_, mut rest) in open {
        rest.sealed_at = records.len();
        out.push(rest);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(sensor: u16, time: u64) -> RawRecord {
        RawRecord {
            time,
            sensor: SensorId(sensor),
            values: vec![1.0],
        }
    }

    #[test]
    fn batches_seal_in_arrival_order_and_flush_the_rest() {
        let records = vec![
            rec(1, 0),
            rec(0, 0),
            rec(1, 1),
            rec(0, 1),
            rec(1, 2),
            rec(2, 2),
        ];
        let b = batches(&records, 2);
        let shape: Vec<(u16, u64, usize, usize)> = b
            .iter()
            .map(|b| (b.sensor.0, b.first_seq, b.readings.len(), b.sealed_at))
            .collect();
        assert_eq!(
            shape,
            vec![(1, 0, 2, 3), (0, 0, 2, 4), (1, 2, 1, 6), (2, 0, 1, 6)]
        );
        let total: usize = b.iter().map(|b| b.readings.len()).sum();
        assert_eq!(total, records.len());
    }

    #[test]
    fn same_seed_same_field() {
        let a = field(10, 1, 7, Some(10));
        let b = field(10, 1, 7, Some(10));
        assert_eq!(a.records, b.records);
        assert_eq!(a.faulted, vec![(SensorId(5), 24)]);
        assert_eq!(a.windows, 24);
        assert_ne!(a.records, field(10, 1, 8, Some(10)).records);
    }
}
