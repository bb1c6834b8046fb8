//! Ingest-boundary sanitization of raw sensor records.
//!
//! [`Reading::new`] deliberately panics on empty or non-finite values —
//! inside the pipeline those are programming errors. At the *ingest
//! boundary*, however, they are expected inputs: real deployments see
//! malformed packets (the paper's GDI data set motivates exactly this,
//! §3), NaN payloads from broken ADCs, and duplicate or out-of-order
//! timestamps from store-and-forward radios. The [`Sanitizer`] turns
//! each of those into a typed [`IngestError`] instead of a panic, so
//! corrupt input degrades into an accounted-for rejection and never
//! reaches the estimators unflagged.
//!
//! The sanitizer is deliberately strict about time: per sensor,
//! timestamps must be strictly increasing. A duplicate or regressed
//! timestamp is rejected rather than reordered — reordering would make
//! ingest output depend on buffering, breaking replay determinism.

use crate::types::{Payload, Reading, SensorId, Timestamp, Trace, TraceRecord};
use std::collections::BTreeMap;
use std::fmt;

/// One raw record as it arrives off the wire, before validation.
#[derive(Debug, Clone, PartialEq)]
pub struct RawRecord {
    /// Claimed sample timestamp.
    pub time: Timestamp,
    /// Reporting sensor.
    pub sensor: SensorId,
    /// Claimed attribute values (possibly empty, NaN, or infinite).
    pub values: Vec<f64>,
}

/// Why the sanitizer rejected a record. Equal refusals compare equal,
/// a NaN's included: a `NonFinite` value compares by its bits.
#[derive(Debug, Clone)]
pub enum IngestError {
    /// A delivered record carried no values.
    EmptyReading {
        /// Record timestamp.
        time: Timestamp,
        /// Reporting sensor.
        sensor: SensorId,
    },
    /// A value was NaN or infinite.
    NonFinite {
        /// Record timestamp.
        time: Timestamp,
        /// Reporting sensor.
        sensor: SensorId,
        /// Index of the offending attribute.
        index: usize,
        /// The offending value (NaN or ±∞).
        value: f64,
    },
    /// The sensor already reported at this timestamp.
    DuplicateTimestamp {
        /// Record timestamp.
        time: Timestamp,
        /// Reporting sensor.
        sensor: SensorId,
    },
    /// The record's timestamp precedes the sensor's latest.
    OutOfOrder {
        /// Record timestamp.
        time: Timestamp,
        /// Reporting sensor.
        sensor: SensorId,
        /// The sensor's latest accepted timestamp.
        latest: Timestamp,
    },
    /// The record's dimensionality disagrees with the first accepted
    /// record.
    DimensionMismatch {
        /// Record timestamp.
        time: Timestamp,
        /// Reporting sensor.
        sensor: SensorId,
        /// Dimensionality established by the first accepted record.
        expected: usize,
        /// This record's dimensionality.
        actual: usize,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::EmptyReading { time, sensor } => {
                write!(f, "t={time} {sensor}: delivered record with no values")
            }
            IngestError::NonFinite {
                time,
                sensor,
                index,
                value,
            } => write!(f, "t={time} {sensor}: non-finite value {value} at v{index}"),
            IngestError::DuplicateTimestamp { time, sensor } => {
                write!(f, "t={time} {sensor}: duplicate timestamp")
            }
            IngestError::OutOfOrder {
                time,
                sensor,
                latest,
            } => write!(
                f,
                "t={time} {sensor}: out of order (latest accepted t={latest})"
            ),
            IngestError::DimensionMismatch {
                time,
                sensor,
                expected,
                actual,
            } => write!(
                f,
                "t={time} {sensor}: {actual} value(s), expected {expected}"
            ),
        }
    }
}

impl IngestError {
    /// The refusal as plain integers, a value by its bits: what
    /// equality compares.
    fn key(&self) -> (u8, Timestamp, SensorId, usize, usize, u64) {
        match *self {
            Self::EmptyReading { time, sensor } => (0, time, sensor, 0, 0, 0),
            Self::NonFinite {
                time,
                sensor,
                index,
                value,
            } => (1, time, sensor, index, 0, value.to_bits()),
            Self::DuplicateTimestamp { time, sensor } => (2, time, sensor, 0, 0, 0),
            Self::OutOfOrder {
                time,
                sensor,
                latest,
            } => (3, time, sensor, 0, 0, latest),
            Self::DimensionMismatch {
                time,
                sensor,
                expected,
                actual,
            } => (4, time, sensor, expected, actual, 0),
        }
    }
}

impl PartialEq for IngestError {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for IngestError {}

impl std::error::Error for IngestError {}

/// Summary of one sanitization pass.
///
/// The gateway's transport layer resolves most delivery pathologies
/// *before* the sanitizer sees them (sequence-number deduplication,
/// watermark reordering, bounded-queue load shedding); those outcomes
/// are tallied in the transport-layer counters below so the report
/// accounts for every delivered record, while `rejected` stays the
/// sanitizer's own last-resort catalogue.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IngestReport {
    /// Records accepted into the trace.
    pub accepted: usize,
    /// Every rejection, in input order.
    pub rejected: Vec<IngestError>,
    /// Retransmitted frames dropped by sequence-number deduplication,
    /// plus same-timestamp duplicates caught by the reorder buffer.
    pub duplicates: usize,
    /// Records that arrived behind the reorder watermark and were
    /// dropped as hopelessly late.
    pub late: usize,
    /// Records dropped oldest-first under overload (explicit load
    /// shedding, never silent).
    pub shed: usize,
}

impl IngestReport {
    /// Whether anything was rejected.
    pub fn is_clean(&self) -> bool {
        self.rejected.is_empty()
    }
}

/// Streaming ingest validator: feed raw records in arrival order, get
/// back well-formed [`TraceRecord`]s or typed rejections.
#[derive(Debug, Default)]
pub struct Sanitizer {
    latest: BTreeMap<SensorId, Timestamp>,
    dims: Option<usize>,
}

/// Plain-data image of a [`Sanitizer`], for checkpointing ingest state
/// alongside the pipeline it feeds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SanitizerSnapshot {
    /// Per-sensor latest accepted timestamp, in sensor order.
    pub latest: Vec<(SensorId, Timestamp)>,
    /// Dimensionality established by the first accepted record.
    pub dims: Option<usize>,
}

impl Sanitizer {
    /// Creates a sanitizer with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Captures the sanitizer's history for checkpointing.
    pub fn snapshot(&self) -> SanitizerSnapshot {
        SanitizerSnapshot {
            latest: self.latest.iter().map(|(&s, &t)| (s, t)).collect(),
            dims: self.dims,
        }
    }

    /// Rebuilds a sanitizer from a snapshot; accept/reject decisions
    /// continue exactly as the captured instance's would. The parts
    /// are untrusted: a sensor listed twice keeps its newest time, and
    /// a dimensionality of zero — which no accepted record sets, and
    /// which would refuse every later one — counts as not established.
    pub fn from_snapshot(snapshot: SanitizerSnapshot) -> Self {
        let mut latest = snapshot.latest;
        latest.sort_unstable(); // of one sensor's times, the last in wins
        Self {
            latest: latest.into_iter().collect(),
            dims: snapshot.dims.filter(|&dims| dims > 0),
        }
    }

    /// [`Sanitizer::check`] on an owned record, which on success
    /// becomes a well-formed [`TraceRecord`].
    ///
    /// # Errors
    ///
    /// Any [`IngestError`] variant; see the enum for the catalogue.
    pub fn accept(&mut self, raw: RawRecord) -> Result<TraceRecord, IngestError> {
        self.check(raw.time, raw.sensor, &raw.values)?;
        Ok(TraceRecord {
            time: raw.time,
            sensor: raw.sensor,
            payload: Payload::Delivered(Reading::new(raw.values)),
        })
    }

    /// Validates one delivered record where it lies: the empty,
    /// non-finite, dimension and order checks, once each. On success
    /// the record is remembered as the sensor's latest; on failure the
    /// sensor's history is unchanged.
    ///
    /// # Errors
    ///
    /// Any [`IngestError`] variant; see the enum for the catalogue.
    pub fn check(
        &mut self,
        time: Timestamp,
        sensor: SensorId,
        values: &[f64],
    ) -> Result<(), IngestError> {
        if values.is_empty() {
            return Err(IngestError::EmptyReading { time, sensor });
        }
        if let Some((index, &value)) = values.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(IngestError::NonFinite {
                time,
                sensor,
                index,
                value,
            });
        }
        if let Some(expected) = self.dims {
            if values.len() != expected {
                return Err(IngestError::DimensionMismatch {
                    time,
                    sensor,
                    expected,
                    actual: values.len(),
                });
            }
        }
        match self.latest.get(&sensor) {
            Some(&latest) if time == latest => {
                return Err(IngestError::DuplicateTimestamp { time, sensor });
            }
            Some(&latest) if time < latest => {
                return Err(IngestError::OutOfOrder {
                    time,
                    sensor,
                    latest,
                });
            }
            _ => {}
        }
        self.dims.get_or_insert(values.len());
        self.latest.insert(sensor, time);
        Ok(())
    }
}

/// Sanitizes a batch of raw records into a [`Trace`] plus an
/// [`IngestReport`] accounting for every rejection. Never panics,
/// whatever the input.
pub fn sanitize_records(records: impl IntoIterator<Item = RawRecord>) -> (Trace, IngestReport) {
    let mut sanitizer = Sanitizer::new();
    let mut report = IngestReport::default();
    let mut accepted = Vec::new();
    for raw in records {
        match sanitizer.accept(raw) {
            Ok(record) => {
                accepted.push(record);
                report.accepted += 1;
            }
            Err(e) => report.rejected.push(e),
        }
    }
    (Trace::from_records(accepted), report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(time: Timestamp, sensor: u16, values: Vec<f64>) -> RawRecord {
        RawRecord {
            time,
            sensor: SensorId(sensor),
            values,
        }
    }

    #[test]
    fn clean_records_pass_through() {
        let (trace, report) = sanitize_records(vec![
            raw(300, 0, vec![17.0, 80.0]),
            raw(300, 1, vec![17.5, 81.0]),
            raw(600, 0, vec![18.0, 79.0]),
        ]);
        assert!(report.is_clean());
        assert_eq!(report.accepted, 3);
        assert_eq!(trace.delivered().count(), 3);
    }

    #[test]
    fn equal_refusals_of_the_same_nan_payload_compare_equal() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let refuse = || sanitize_records(vec![raw(300, 0, vec![nan]), raw(600, 0, vec![1.0])]).1;
        let (a, b) = (refuse(), refuse());
        assert!(matches!(a.rejected[..], [IngestError::NonFinite { .. }]));
        assert_eq!(a, b);
        // Another payload is another refusal.
        let other = f64::from_bits(nan.to_bits() ^ 1);
        let (_, c) = sanitize_records(vec![raw(300, 0, vec![other]), raw(600, 0, vec![1.0])]);
        assert_ne!(a, c);
    }

    #[test]
    fn nan_and_inf_are_rejected_not_panicking() {
        let (trace, report) = sanitize_records(vec![
            raw(300, 0, vec![f64::NAN, 80.0]),
            raw(300, 1, vec![17.5, f64::INFINITY]),
            raw(600, 0, vec![18.0, 79.0]),
        ]);
        assert_eq!(report.accepted, 1);
        assert_eq!(report.rejected.len(), 2);
        assert!(matches!(
            report.rejected[0],
            IngestError::NonFinite { index: 0, .. }
        ));
        assert_eq!(trace.delivered().count(), 1);
    }

    #[test]
    fn duplicate_and_regressed_timestamps_are_rejected() {
        let (_, report) = sanitize_records(vec![
            raw(600, 0, vec![1.0]),
            raw(600, 0, vec![2.0]),
            raw(300, 0, vec![3.0]),
            raw(900, 0, vec![4.0]),
        ]);
        assert_eq!(report.accepted, 2);
        assert!(matches!(
            report.rejected[0],
            IngestError::DuplicateTimestamp { .. }
        ));
        assert!(matches!(
            report.rejected[1],
            IngestError::OutOfOrder { latest: 600, .. }
        ));
    }

    #[test]
    fn per_sensor_ordering_is_independent() {
        let (_, report) = sanitize_records(vec![
            raw(900, 0, vec![1.0]),
            raw(300, 1, vec![2.0]), // earlier, but a different sensor
        ]);
        assert!(report.is_clean());
    }

    #[test]
    fn empty_and_mismatched_dims_are_rejected() {
        let (_, report) = sanitize_records(vec![
            raw(300, 0, vec![]),
            raw(300, 1, vec![1.0, 2.0]),
            raw(600, 1, vec![1.0]),
        ]);
        assert_eq!(report.accepted, 1);
        assert!(matches!(
            report.rejected[0],
            IngestError::EmptyReading { .. }
        ));
        assert!(matches!(
            report.rejected[1],
            IngestError::DimensionMismatch {
                expected: 2,
                actual: 1,
                ..
            }
        ));
    }

    #[test]
    fn rejection_leaves_history_untouched() {
        let mut s = Sanitizer::new();
        s.accept(raw(600, 0, vec![1.0])).unwrap();
        // A rejected NaN at t=900 must not advance the latest stamp...
        assert!(s.accept(raw(900, 0, vec![f64::NAN])).is_err());
        // ...so a later clean record at t=900 is still accepted.
        assert!(s.accept(raw(900, 0, vec![2.0])).is_ok());
    }

    #[test]
    fn sanitizer_snapshot_round_trips() {
        let mut s = Sanitizer::new();
        s.accept(raw(600, 0, vec![1.0, 2.0])).unwrap();
        s.accept(raw(300, 4, vec![3.0, 4.0])).unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.dims, Some(2));
        let mut restored = Sanitizer::from_snapshot(snap.clone());
        assert_eq!(restored.snapshot(), snap);
        // Restored history still rejects what the original would.
        assert!(matches!(
            restored.accept(raw(600, 0, vec![5.0, 6.0])),
            Err(IngestError::DuplicateTimestamp { .. })
        ));
        assert!(matches!(
            restored.accept(raw(900, 0, vec![5.0])),
            Err(IngestError::DimensionMismatch { .. })
        ));
        assert!(restored.accept(raw(900, 0, vec![5.0, 6.0])).is_ok());
    }

    /// What `from_snapshot` used to take on trust (ROADMAP 6c): a
    /// dimensionality of zero — which no accepted record establishes —
    /// refused every record from then on, and a sensor listed twice
    /// kept whichever time came last, so an already accepted time
    /// could be accepted again.
    #[test]
    fn hostile_snapshot_parts_neither_wedge_nor_rewind_the_sanitizer() {
        let mut restored = Sanitizer::from_snapshot(SanitizerSnapshot {
            latest: vec![(SensorId(0), 900), (SensorId(0), 300)],
            dims: Some(0),
        });
        assert_eq!(
            restored.snapshot(),
            SanitizerSnapshot {
                latest: vec![(SensorId(0), 900)],
                dims: None,
            }
        );
        assert!(matches!(
            restored.accept(raw(600, 0, vec![1.0, 2.0])),
            Err(IngestError::OutOfOrder { latest: 900, .. })
        ));
        assert!(restored.accept(raw(1200, 0, vec![1.0, 2.0])).is_ok());
        assert_eq!(restored.snapshot().dims, Some(2));
    }

    #[test]
    fn check_is_accept_without_the_owned_record() {
        let (mut by_slice, mut by_value) = (Sanitizer::new(), Sanitizer::new());
        for (time, sensor, values) in [
            (300, 0, vec![1.0, 2.0]),
            (300, 0, vec![1.0, 2.0]),
            (600, 0, vec![f64::NAN, 2.0]),
            (600, 1, vec![]),
            (600, 1, vec![1.0]),
            (200, 0, vec![1.0, 2.0]),
            (900, 1, vec![3.0, 4.0]),
        ] {
            let checked = by_slice.check(time, SensorId(sensor), &values);
            let accepted = by_value.accept(raw(time, sensor, values)).map(|_| ());
            assert_eq!(format!("{checked:?}"), format!("{accepted:?}"));
            assert_eq!(by_slice.snapshot(), by_value.snapshot());
        }
    }

    #[test]
    fn errors_display_their_context() {
        let (_, report) = sanitize_records(vec![
            raw(300, 3, vec![f64::NEG_INFINITY]),
            raw(300, 3, vec![1.0]),
        ]);
        let shown: Vec<String> = report.rejected.iter().map(ToString::to_string).collect();
        assert!(shown[0].contains("non-finite"), "{shown:?}");
        assert!(shown[0].contains("sensor3"), "{shown:?}");
    }
}
