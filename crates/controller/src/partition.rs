//! Sensor-range partition map: which collector owns which sensors.
//!
//! The map is deliberately dumb data — contiguous half-open sensor
//! ranges, each with an owner epoch and a health state. All mutation
//! goes through the two `commit_*` methods, and the
//! `partition-map-mutation` xtask lint pins their call sites to the
//! federation commit path (`crates/controller/src/federation.rs`), so
//! no backend or report code can flip ownership behind the
//! controller's back.

use sentinet_sim::SensorId;
use std::fmt;

/// Index of a partition inside a [`PartitionMap`].
pub type PartitionId = usize;

/// Lifecycle of a partition's owning collector, as seen by the
/// controller. The only transitions are the ones the federation
/// engine commits: `Ok → Suspect` (transport failure or storage NACK
/// streak), `Suspect → Dead` (silence deadline elapsed on the stream
/// clock), `Dead → HandingOff` (standby adoption starting),
/// `HandingOff → Ok` (handoff succeeded) or `HandingOff → Orphaned`
/// (every attempt exhausted; readings NACK from here on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionHealth {
    /// Owner is live and acking.
    Ok,
    /// Owner stopped acking; the silence clock is running.
    Suspect,
    /// Silence deadline elapsed; owner is declared dead.
    Dead,
    /// A standby is adopting the dead owner's WAL.
    HandingOff,
    /// No standby could adopt; readings are NACKed, never dropped.
    Orphaned,
}

impl fmt::Display for PartitionHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PartitionHealth::Ok => "ok",
            PartitionHealth::Suspect => "suspect",
            PartitionHealth::Dead => "dead",
            PartitionHealth::HandingOff => "handing-off",
            PartitionHealth::Orphaned => "orphaned",
        })
    }
}

/// Contiguous half-open sensor range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorRange {
    /// First sensor id in the range.
    pub start: u16,
    /// One past the last sensor id in the range.
    pub end: u16,
}

impl SensorRange {
    /// Whether `sensor` falls inside this range.
    pub fn contains(&self, sensor: SensorId) -> bool {
        self.start <= sensor.0 && sensor.0 < self.end
    }

    /// Number of sensors in the range.
    pub fn len(&self) -> u16 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the range holds no sensors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for SensorRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// Error constructing or reshaping a [`PartitionMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionMapError {
    /// `split_even` was asked for zero partitions.
    NoPartitions,
    /// `split_even` was asked for more partitions than sensors — the
    /// surplus partitions could only be zero-width ranges, which
    /// silently own nothing and rot as permanently-idle slots.
    DegenerateSplit {
        /// Sensors available to split.
        num_sensors: u16,
        /// Partitions requested.
        partitions: usize,
    },
    /// `split_at` named a sensor that is not a strict interior point
    /// of the partition's range, so one half would be empty.
    SplitOutsideRange {
        /// The partition asked to split.
        partition: PartitionId,
        /// The offending split point.
        sensor: u16,
        /// The partition's current range.
        range: SensorRange,
    },
    /// `transfer` named two partitions whose ranges do not abut, so
    /// the union would not be contiguous.
    NotAdjacent {
        /// The donating partition and its range.
        from: (PartitionId, SensorRange),
        /// The receiving partition and its range.
        to: (PartitionId, SensorRange),
    },
}

impl fmt::Display for PartitionMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionMapError::NoPartitions => {
                write!(f, "a partition map needs at least one partition")
            }
            PartitionMapError::DegenerateSplit {
                num_sensors,
                partitions,
            } => write!(
                f,
                "cannot split {num_sensors} sensor(s) over {partitions} partitions: \
                 every partition must own at least one sensor"
            ),
            PartitionMapError::SplitOutsideRange {
                partition,
                sensor,
                range,
            } => write!(
                f,
                "cannot split partition {partition} [sensors {range}] at sensor \
                 {sensor}: the split point must fall strictly inside the range"
            ),
            PartitionMapError::NotAdjacent { from, to } => write!(
                f,
                "cannot transfer partition {} [sensors {}] into partition {} \
                 [sensors {}]: the ranges do not abut",
                from.0, from.1, to.0, to.1
            ),
        }
    }
}

impl std::error::Error for PartitionMapError {}

#[derive(Debug, Clone)]
struct Slot {
    range: SensorRange,
    epoch: u64,
    health: PartitionHealth,
}

/// The partition map: who owns which contiguous sensor range, at
/// which epoch, in which health state.
#[derive(Debug, Clone)]
pub struct PartitionMap {
    slots: Vec<Slot>,
}

impl PartitionMap {
    /// Splits `num_sensors` sensors into `partitions` contiguous
    /// ranges as evenly as possible (earlier partitions absorb the
    /// remainder). Every partition starts at epoch 0 (no owner) in
    /// [`PartitionHealth::Ok`]; the federation engine commits epoch 1
    /// when it starts the initial owners.
    ///
    /// Degenerate shapes are typed errors, not silent zero-width
    /// ranges: zero partitions is [`PartitionMapError::NoPartitions`]
    /// and more partitions than sensors is
    /// [`PartitionMapError::DegenerateSplit`].
    pub fn split_even(num_sensors: u16, partitions: usize) -> Result<Self, PartitionMapError> {
        if partitions == 0 {
            return Err(PartitionMapError::NoPartitions);
        }
        if partitions > usize::from(num_sensors) {
            return Err(PartitionMapError::DegenerateSplit {
                num_sensors,
                partitions,
            });
        }
        let n = partitions as u16;
        let per = num_sensors / n;
        let rem = num_sensors % n;
        let mut slots = Vec::with_capacity(partitions);
        let mut start = 0u16;
        for i in 0..n {
            let width = per + u16::from(i < rem);
            slots.push(Slot {
                range: SensorRange {
                    start,
                    end: start + width,
                },
                epoch: 0,
                health: PartitionHealth::Ok,
            });
            start += width;
        }
        Ok(Self { slots })
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the map holds no partitions (never true for a map from
    /// [`PartitionMap::split_even`]).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The partition owning `sensor`, or `None` when the sensor falls
    /// outside every range.
    pub fn partition_of(&self, sensor: SensorId) -> Option<PartitionId> {
        self.slots.iter().position(|s| s.range.contains(sensor))
    }

    /// The sensor range of partition `p`.
    pub fn range(&self, p: PartitionId) -> SensorRange {
        self.slots[p].range
    }

    /// The owner epoch of partition `p` (0 = never owned).
    pub fn epoch(&self, p: PartitionId) -> u64 {
        self.slots[p].epoch
    }

    /// The health of partition `p`.
    pub fn health(&self, p: PartitionId) -> PartitionHealth {
        self.slots[p].health
    }

    /// Commits a new owner epoch for partition `p`. Epochs only move
    /// forward; committing a stale epoch is a controller bug.
    ///
    /// Only the federation commit path may call this (enforced by the
    /// `partition-map-mutation` lint).
    pub fn commit_owner(&mut self, p: PartitionId, epoch: u64) {
        assert!(
            epoch > self.slots[p].epoch,
            "owner epoch must advance (partition {p}: {} -> {epoch})",
            self.slots[p].epoch
        );
        self.slots[p].epoch = epoch;
    }

    /// Commits a health transition for partition `p`.
    ///
    /// Only the federation commit path may call this (enforced by the
    /// `partition-map-mutation` lint).
    pub fn commit_health(&mut self, p: PartitionId, health: PartitionHealth) {
        self.slots[p].health = health;
    }

    /// Splits partition `p`'s range at `sensor`: `p` keeps
    /// `[start, sensor)` and a new partition appended at the end of
    /// the map adopts `[sensor, end)` at epoch 0 (no owner) in
    /// [`PartitionHealth::Ok`]. Appending keeps every existing
    /// [`PartitionId`] stable, so per-partition controller state never
    /// re-keys mid-stream. Returns the new partition's id.
    ///
    /// The split point must fall strictly inside `p`'s range — both
    /// halves own at least one sensor — so the cover-every-sensor-
    /// exactly-once invariant is preserved by construction.
    ///
    /// Only the federation commit path may call this (enforced by the
    /// `partition-map-mutation` lint): the caller must fence the old
    /// ownership generation through [`PartitionMap::commit_owner`]
    /// before routing to the new shape.
    pub fn split_at(
        &mut self,
        p: PartitionId,
        sensor: SensorId,
    ) -> Result<PartitionId, PartitionMapError> {
        let range = self.slots[p].range;
        if sensor.0 <= range.start || sensor.0 >= range.end {
            return Err(PartitionMapError::SplitOutsideRange {
                partition: p,
                sensor: sensor.0,
                range,
            });
        }
        self.slots[p].range.end = sensor.0;
        self.slots.push(Slot {
            range: SensorRange {
                start: sensor.0,
                end: range.end,
            },
            epoch: 0,
            health: PartitionHealth::Ok,
        });
        Ok(self.slots.len() - 1)
    }

    /// Transfers partition `from`'s entire range into the adjacent
    /// partition `to`: `to`'s range grows to the contiguous union and
    /// `from` is left owning the zero-width range at the old boundary.
    /// This is the inverse of [`PartitionMap::split_at`] — the
    /// migration abort path uses it to return a split-off range to its
    /// source so the map never leaks ownership.
    ///
    /// The two ranges must abut (`to.end == from.start` or
    /// `from.end == to.start`); anything else would tear the
    /// contiguous cover. Only the federation commit path may call this
    /// (enforced by the `partition-map-mutation` lint).
    pub fn transfer(
        &mut self,
        from: PartitionId,
        to: PartitionId,
    ) -> Result<(), PartitionMapError> {
        let fr = self.slots[from].range;
        let tr = self.slots[to].range;
        if from == to || (tr.end != fr.start && fr.end != tr.start) || fr.is_empty() {
            return Err(PartitionMapError::NotAdjacent {
                from: (from, fr),
                to: (to, tr),
            });
        }
        if tr.end == fr.start {
            self.slots[to].range.end = fr.end;
            self.slots[from].range = SensorRange {
                start: fr.end,
                end: fr.end,
            };
        } else {
            self.slots[to].range.start = fr.start;
            self.slots[from].range = SensorRange {
                start: fr.start,
                end: fr.start,
            };
        }
        Ok(())
    }
}

#[cfg(test)]
#[path = "../../../tests/support/seeded.rs"]
mod seeded;

#[cfg(test)]
mod tests {
    use super::*;

    /// Every sensor in `[0, num_sensors)` owned exactly once, nothing
    /// else owned, ranges contiguous in partition order.
    fn assert_covers_exactly_once(map: &PartitionMap, num_sensors: u16) {
        for s in 0..num_sensors {
            let owners: Vec<_> = (0..map.len())
                .filter(|&p| map.range(p).contains(SensorId(s)))
                .collect();
            assert_eq!(owners.len(), 1, "sensor {s} owned by {owners:?}");
        }
        assert_eq!(map.partition_of(SensorId(num_sensors)), None);
        assert_eq!(map.partition_of(SensorId(u16::MAX)), None);
    }

    #[test]
    fn split_even_covers_every_sensor_exactly_once() {
        let map = PartitionMap::split_even(10, 3).expect("non-degenerate");
        assert_eq!(map.len(), 3);
        assert_eq!(map.range(0), SensorRange { start: 0, end: 4 });
        assert_eq!(map.range(1), SensorRange { start: 4, end: 7 });
        assert_eq!(map.range(2), SensorRange { start: 7, end: 10 });
        assert_covers_exactly_once(&map, 10);
    }

    #[test]
    fn degenerate_splits_are_typed_errors() {
        assert_eq!(
            PartitionMap::split_even(4, 0).unwrap_err(),
            PartitionMapError::NoPartitions
        );
        assert_eq!(
            PartitionMap::split_even(3, 5).unwrap_err(),
            PartitionMapError::DegenerateSplit {
                num_sensors: 3,
                partitions: 5
            }
        );
        assert_eq!(
            PartitionMap::split_even(0, 1).unwrap_err(),
            PartitionMapError::DegenerateSplit {
                num_sensors: 0,
                partitions: 1
            }
        );
    }

    #[test]
    fn commit_owner_refuses_to_move_backwards() {
        let mut map = PartitionMap::split_even(4, 2).expect("non-degenerate");
        map.commit_owner(0, 1);
        map.commit_owner(0, 2);
        assert_eq!(map.epoch(0), 2);
        let r = std::panic::catch_unwind(move || map.commit_owner(0, 2));
        assert!(r.is_err(), "stale epoch commit must panic");
    }

    #[test]
    fn split_at_appends_the_new_partition_and_keeps_ids_stable() {
        let mut map = PartitionMap::split_even(10, 2).expect("non-degenerate");
        map.commit_owner(0, 1);
        map.commit_owner(1, 1);
        let new = map.split_at(0, SensorId(2)).expect("interior point");
        assert_eq!(new, 2, "the split-off partition is appended");
        assert_eq!(map.range(0), SensorRange { start: 0, end: 2 });
        assert_eq!(map.range(1), SensorRange { start: 5, end: 10 });
        assert_eq!(map.range(2), SensorRange { start: 2, end: 5 });
        assert_eq!(map.epoch(2), 0, "the new partition has no owner yet");
        assert_eq!(map.health(2), PartitionHealth::Ok);
        assert_covers_exactly_once(&map, 10);
    }

    #[test]
    fn split_at_rejects_boundary_and_exterior_points() {
        let mut map = PartitionMap::split_even(10, 2).expect("non-degenerate");
        for s in [0u16, 5, 7, 10] {
            assert_eq!(
                map.split_at(0, SensorId(s)).unwrap_err(),
                PartitionMapError::SplitOutsideRange {
                    partition: 0,
                    sensor: s,
                    range: SensorRange { start: 0, end: 5 },
                },
                "split at {s} must be rejected"
            );
        }
        assert_eq!(map.len(), 2, "a rejected split must not reshape the map");
    }

    #[test]
    fn transfer_returns_a_split_off_range_to_its_source() {
        let mut map = PartitionMap::split_even(10, 2).expect("non-degenerate");
        let new = map.split_at(0, SensorId(2)).expect("interior point");
        map.transfer(new, 0).expect("adjacent ranges");
        assert_eq!(map.range(0), SensorRange { start: 0, end: 5 });
        assert!(map.range(new).is_empty(), "the donor is left empty");
        assert_covers_exactly_once(&map, 10);
    }

    #[test]
    fn transfer_rejects_non_adjacent_and_empty_donors() {
        let mut map = PartitionMap::split_even(12, 3).expect("non-degenerate");
        assert!(matches!(
            map.transfer(0, 2).unwrap_err(),
            PartitionMapError::NotAdjacent { .. }
        ));
        assert!(matches!(
            map.transfer(0, 0).unwrap_err(),
            PartitionMapError::NotAdjacent { .. }
        ));
        map.transfer(0, 1).expect("adjacent");
        assert!(
            matches!(
                map.transfer(0, 1).unwrap_err(),
                PartitionMapError::NotAdjacent { .. }
            ),
            "an empty donor has nothing to transfer"
        );
        assert_covers_exactly_once(&map, 12);
    }

    mod props {
        use super::super::seeded;
        use super::*;

        seeded::properties! {
            var: "PARTITION_PROPS_SEED", package: "sentinet-controller", target: "--lib", cases: 48;

            /// Every sensor in `[0, num_sensors)` is owned by exactly
            /// one partition, and nothing beyond the range is owned;
            /// asking for more partitions than sensors (or zero of
            /// either) is a typed error, never a map with zero-width
            /// ranges.
            fn split_even_covers_and_is_disjoint(rng) {
                let num_sensors = rng.range(0u16..200);
                let partitions = rng.range(0usize..40);
                match PartitionMap::split_even(num_sensors, partitions) {
                    Ok(map) => {
                        assert!(partitions >= 1 && partitions <= usize::from(num_sensors));
                        assert_eq!(map.len(), partitions);
                        for s in 0..num_sensors {
                            let owners = (0..map.len())
                                .filter(|&p| map.range(p).contains(SensorId(s)))
                                .count();
                            assert_eq!(owners, 1, "sensor {} owned {} times", s, owners);
                            assert!(map.partition_of(SensorId(s)).is_some());
                        }
                        assert_eq!(map.partition_of(SensorId(num_sensors)), None);
                        assert_eq!(map.partition_of(SensorId(u16::MAX)), None);
                        for p in 0..map.len() {
                            assert!(!map.range(p).is_empty(), "no silent empty ranges");
                        }
                    }
                    Err(PartitionMapError::NoPartitions) => assert_eq!(partitions, 0),
                    Err(PartitionMapError::DegenerateSplit { num_sensors: n, partitions: p }) => {
                        assert_eq!((n, p), (num_sensors, partitions));
                        assert!(p > usize::from(n));
                    }
                    Err(other) => panic!("unexpected error {other:?}"),
                }
            }

            /// Ranges tile the sensor space contiguously in partition
            /// order and widths never differ by more than one.
            fn split_even_ranges_are_contiguous_and_balanced(rng) {
                let num_sensors = rng.range(1u16..200);
                let partitions = rng.range(1usize..40).min(usize::from(num_sensors));
                let map = PartitionMap::split_even(num_sensors, partitions)
                    .expect("clamped to a non-degenerate shape");
                let mut expected_start = 0u16;
                let mut widths = Vec::new();
                for p in 0..map.len() {
                    let r = map.range(p);
                    assert_eq!(r.start, expected_start, "gap or overlap at partition {}", p);
                    assert!(r.end > r.start);
                    expected_start = r.end;
                    widths.push(r.len());
                }
                assert_eq!(expected_start, num_sensors, "ranges must cover the full space");
                let min = widths.iter().copied().min().unwrap_or(0);
                let max = widths.iter().copied().max().unwrap_or(0);
                assert!(max - min <= 1, "uneven split: widths {:?}", widths);
            }

            /// Any interleaving of valid `split_at` and undo
            /// `transfer` operations preserves cover-every-sensor-
            /// exactly-once, and invalid operations leave the map
            /// untouched.
            fn split_and_transfer_preserve_the_cover(rng) {
                let num_sensors = rng.range(2u16..64);
                let partitions = rng.range(1usize..6).min(usize::from(num_sensors));
                let ops = rng.vec(0..12, |r| (r.range(0usize..8), r.range(0u16..64), r.bool()));
                let mut map = PartitionMap::split_even(num_sensors, partitions)
                    .expect("clamped to a non-degenerate shape");
                for (p, s, undo) in ops {
                    let p = p % map.len();
                    if let Ok(new) = map.split_at(p, SensorId(s)) {
                        assert_eq!(new, map.len() - 1, "split appends");
                        if undo {
                            map.transfer(new, p).expect("a fresh split is adjacent to its source");
                            assert!(map.range(new).is_empty());
                        }
                    }
                    // Valid or rejected, the cover must hold.
                    for sensor in 0..num_sensors {
                        let owners = (0..map.len())
                            .filter(|&q| map.range(q).contains(SensorId(sensor)))
                            .count();
                        assert_eq!(owners, 1, "sensor {} owned {} times", sensor, owners);
                    }
                    assert_eq!(map.partition_of(SensorId(num_sensors)), None);
                }
            }
        }
    }

    #[test]
    fn health_displays_in_kebab_case() {
        let all = [
            PartitionHealth::Ok,
            PartitionHealth::Suspect,
            PartitionHealth::Dead,
            PartitionHealth::HandingOff,
            PartitionHealth::Orphaned,
        ];
        let shown: Vec<String> = all.iter().map(|h| h.to_string()).collect();
        assert_eq!(shown, ["ok", "suspect", "dead", "handing-off", "orphaned"]);
    }
}
