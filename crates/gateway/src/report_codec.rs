//! Stable text codec for [`GatewayReport`] counters, so a controller
//! tier can merge per-collector accounting without field-order (or
//! struct-layout) coupling.
//!
//! Every counter travels as one `name value` line under a magic
//! header. Names are the wire contract: decoding is keyed by name and
//! accepts any line order, rejects unknown and duplicate names, and
//! fails loudly when a name is missing — a silently-defaulted counter
//! would make a fleet merge lie. The encoding is pinned by a
//! round-trip test (including a shuffled-lines decode) so a renamed
//! struct field cannot drift the wire format unnoticed.

use crate::collector::GatewayReport;
use sentinet_core::checkpoint::{CheckpointError, Reader};
use std::fmt::{self, Write as _};

/// Magic first line of the encoding.
pub const COUNTERS_MAGIC: &str = "sentinet-report-counters v1";

/// The mergeable accounting of one gateway run, under stable names.
///
/// Everything here is additive across collectors (the `poisoned` flag
/// merges as a saturating OR-count: how many collectors reported a
/// poisoned WAL), so a fleet-wide roll-up is `merge` over the parts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportCounters {
    /// Readings admitted through the full path (`accepted`).
    pub accepted: u64,
    /// Sanitizer rejections (`sanitizer-rejects`).
    pub sanitizer_rejects: u64,
    /// Transport-level duplicates absorbed (`duplicates`).
    pub duplicates: u64,
    /// Readings refused as late by the reorder buffer (`late`).
    pub late: u64,
    /// Readings shed by bounded reorder occupancy (`shed`).
    pub shed: u64,
    /// Readings NACKed on an exhausted WAL budget (`budget-shed`).
    pub budget_shed: u64,
    /// Readings NACKed while the WAL was poisoned (`storage-rejects`).
    pub storage_rejects: u64,
    /// Checkpoint writes that failed (`checkpoint-failures`).
    pub checkpoint_failures: u64,
    /// Reclaims whose deletion failed (`reclaim-failures`).
    pub reclaim_failures: u64,
    /// WAL segments reclaimed by retention (`reclaimed-segments`).
    pub reclaimed_segments: u64,
    /// Collectors whose WAL ended the run poisoned (`poisoned`).
    pub poisoned: u64,
    /// Sensors silent at end of run (`silent-sensors`).
    pub silent_sensors: u64,
    /// Silence episodes over the whole run (`silence-episodes`).
    pub silence_episodes: u64,
    /// Hellos refused for an unsupported version (`version-rejects`).
    /// Counted by the server/harness tier; zero when unavailable.
    pub version_rejects: u64,
    /// Uplink frames written, retransmissions included
    /// (`frames-sent`).
    pub frames_sent: u64,
    /// Uplink frames re-sent (`retransmits`).
    pub retransmits: u64,
    /// Uplink ack waits that hit the deadline (`timeouts`).
    pub timeouts: u64,
    /// NACKs the uplink received (`nacks`).
    pub nacks: u64,
    /// Uplink reconnections after a failure (`reconnects`).
    pub reconnects: u64,
    /// Uplink frames/batches fully acknowledged (`uplink-acked`).
    pub uplink_acked: u64,
    /// Deliveries NACKed by epoch fencing — a stale owner fail-stopped
    /// instead of racing its successor (`fence-rejects`).
    pub fence_rejects: u64,
    /// Suspect streaks that recovered before the hysteresis threshold
    /// — transient link blips that did *not* trigger fencing churn
    /// (`flaps`). Counted by the federation tier; zero elsewhere.
    pub flaps: u64,
    /// Live range migrations the controller began
    /// (`migrations-started`). Federation tier only; zero elsewhere.
    pub migrations_started: u64,
    /// Migrations that committed the new owner
    /// (`migrations-completed`). Federation tier only; zero elsewhere.
    pub migrations_completed: u64,
    /// Migrations rolled back before the cut committed
    /// (`migrations-aborted`). Federation tier only; zero elsewhere.
    pub migrations_aborted: u64,
}

/// Where a counter lives in the struct.
type Slot = fn(&mut ReportCounters) -> &mut u64;

/// Every wire name with its field, in encoding order: the one list
/// `encode`, `decode` and `merge` walk. Decoding requires exactly this
/// set of names (any order). A new counter is a struct field plus one
/// row here.
const TABLE: &[(&str, Slot)] = &[
    ("accepted", |c| &mut c.accepted),
    ("sanitizer-rejects", |c| &mut c.sanitizer_rejects),
    ("duplicates", |c| &mut c.duplicates),
    ("late", |c| &mut c.late),
    ("shed", |c| &mut c.shed),
    ("budget-shed", |c| &mut c.budget_shed),
    ("storage-rejects", |c| &mut c.storage_rejects),
    ("checkpoint-failures", |c| &mut c.checkpoint_failures),
    ("reclaim-failures", |c| &mut c.reclaim_failures),
    ("reclaimed-segments", |c| &mut c.reclaimed_segments),
    ("poisoned", |c| &mut c.poisoned),
    ("silent-sensors", |c| &mut c.silent_sensors),
    ("silence-episodes", |c| &mut c.silence_episodes),
    ("version-rejects", |c| &mut c.version_rejects),
    ("frames-sent", |c| &mut c.frames_sent),
    ("retransmits", |c| &mut c.retransmits),
    ("timeouts", |c| &mut c.timeouts),
    ("nacks", |c| &mut c.nacks),
    ("reconnects", |c| &mut c.reconnects),
    ("uplink-acked", |c| &mut c.uplink_acked),
    ("fence-rejects", |c| &mut c.fence_rejects),
    ("flaps", |c| &mut c.flaps),
    ("migrations-started", |c| &mut c.migrations_started),
    ("migrations-completed", |c| &mut c.migrations_completed),
    ("migrations-aborted", |c| &mut c.migrations_aborted),
];

/// A counters decode failure (typed, loud — never a silent default).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountersError(pub String);

impl fmt::Display for CountersError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "report counters: {}", self.0)
    }
}

impl std::error::Error for CountersError {}

impl ReportCounters {
    /// Extracts the mergeable counters of one finished run. The
    /// `version-rejects` counter lives in the serving tier, not the
    /// report — callers that have it set the field afterwards.
    pub fn from_report(report: &GatewayReport) -> Self {
        let uplink = report.uplink.unwrap_or_default();
        Self {
            accepted: report.ingest.accepted as u64,
            sanitizer_rejects: report.ingest.rejected.len() as u64,
            duplicates: report.ingest.duplicates as u64,
            late: report.ingest.late as u64,
            shed: report.ingest.shed as u64,
            budget_shed: report.storage.budget_shed as u64,
            storage_rejects: report.storage.storage_rejects as u64,
            checkpoint_failures: report.storage.checkpoint_failures as u64,
            reclaim_failures: report.storage.reclaim_failures as u64,
            reclaimed_segments: report.storage.reclaimed_segments as u64,
            poisoned: u64::from(report.storage.error.is_some()),
            silent_sensors: report.liveness.silent.len() as u64,
            silence_episodes: report.liveness.episodes as u64,
            version_rejects: 0,
            frames_sent: uplink.frames_sent,
            retransmits: uplink.retransmits,
            timeouts: uplink.timeouts,
            nacks: uplink.nacks,
            reconnects: uplink.reconnects,
            uplink_acked: uplink.acked,
            fence_rejects: report.storage.fence_rejects as u64,
            flaps: 0,
            migrations_started: 0,
            migrations_completed: 0,
            migrations_aborted: 0,
        }
    }

    /// Adds `other` into `self`, saturating — the fleet roll-up.
    pub fn merge(&mut self, other: &Self) {
        let mut other = *other;
        for (_, slot) in TABLE {
            let sum = slot(self).saturating_add(*slot(&mut other));
            *slot(self) = sum;
        }
    }

    /// Encodes as the stable named-line text format.
    pub fn encode(&self) -> String {
        // Slots hand out `&mut`, so read through a copy.
        let (mut out, mut values) = (String::new(), *self);
        // `fmt::Write for String` never fails.
        let _ = writeln!(out, "{COUNTERS_MAGIC}");
        for (name, slot) in TABLE {
            let _ = writeln!(out, "{name} {}", slot(&mut values));
        }
        out
    }

    /// Decodes the named-line format, in any line order.
    ///
    /// # Errors
    ///
    /// [`CountersError`] on a missing magic, an unknown or duplicate
    /// name, a malformed value, or a missing field — every failure
    /// names the offending line.
    pub fn decode(text: &str) -> Result<Self, CountersError> {
        let mut r = Reader::new(text);
        let magic = r.peek();
        if r.marker(COUNTERS_MAGIC).is_err() {
            return Err(CountersError(format!(
                "bad magic line {magic:?} (expected {COUNTERS_MAGIC:?})"
            )));
        }
        Self::read(&mut r).map_err(|e| match e {
            CheckpointError::Malformed { line, reason } => {
                CountersError(format!("line {line}: {reason}"))
            }
            CheckpointError::Invalid(reason) => CountersError(reason),
        })
    }

    /// The counter lines after the magic header.
    fn read(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let mut out = Self::default();
        let mut seen = [false; TABLE.len()];
        while let Some(mut f) = r.fields() {
            let name = f.token()?;
            let Some(at) = TABLE.iter().position(|(known, _)| *known == name) else {
                return f.fail(format!("unknown counter `{name}`"));
            };
            if std::mem::replace(&mut seen[at], true) {
                return f.fail(format!("duplicate counter `{name}`"));
            }
            let Ok(value) = f.num() else {
                return f.fail(format!("bad value for `{name}`"));
            };
            f.end()?;
            *TABLE[at].1(&mut out) = value;
        }
        match seen.iter().position(|seen| !seen) {
            Some(at) => r.fail(format!("missing counter `{}`", TABLE[at].0)),
            None => Ok(out),
        }
    }
}

impl fmt::Display for ReportCounters {
    /// One human-oriented summary line (the stderr roll-up format).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accepted, {} duplicate(s), {} late, {} shed, {} budget-shed, \
             {} storage-reject(s), {} silence episode(s), {} version-reject(s)",
            self.accepted,
            self.duplicates,
            self.late,
            self.shed,
            self.budget_shed,
            self.storage_rejects,
            self.silence_episodes,
            self.version_rejects
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReportCounters {
        ReportCounters {
            accepted: 240,
            sanitizer_rejects: 3,
            duplicates: 7,
            late: 1,
            shed: 2,
            budget_shed: 4,
            storage_rejects: 5,
            checkpoint_failures: 0,
            reclaim_failures: 0,
            reclaimed_segments: 6,
            poisoned: 1,
            silent_sensors: 2,
            silence_episodes: 3,
            version_rejects: 9,
            frames_sent: 260,
            retransmits: 11,
            timeouts: 8,
            nacks: 5,
            reconnects: 3,
            uplink_acked: 240,
            fence_rejects: 2,
            flaps: 1,
            migrations_started: 4,
            migrations_completed: 3,
            migrations_aborted: 1,
        }
    }

    /// The literal wire format is the contract: renaming a struct
    /// field must not silently rename a wire line.
    #[test]
    fn encoding_is_pinned() {
        let expected = "sentinet-report-counters v1\n\
                        accepted 240\n\
                        sanitizer-rejects 3\n\
                        duplicates 7\n\
                        late 1\n\
                        shed 2\n\
                        budget-shed 4\n\
                        storage-rejects 5\n\
                        checkpoint-failures 0\n\
                        reclaim-failures 0\n\
                        reclaimed-segments 6\n\
                        poisoned 1\n\
                        silent-sensors 2\n\
                        silence-episodes 3\n\
                        version-rejects 9\n\
                        frames-sent 260\n\
                        retransmits 11\n\
                        timeouts 8\n\
                        nacks 5\n\
                        reconnects 3\n\
                        uplink-acked 240\n\
                        fence-rejects 2\n\
                        flaps 1\n\
                        migrations-started 4\n\
                        migrations-completed 3\n\
                        migrations-aborted 1\n";
        assert_eq!(sample().encode(), expected);
    }

    #[test]
    fn roundtrip_is_exact() {
        let c = sample();
        assert_eq!(ReportCounters::decode(&c.encode()).unwrap(), c);
    }

    /// Decoding is keyed by name: any line order reproduces the same
    /// counters (the whole point — no field-order coupling).
    #[test]
    fn decode_accepts_shuffled_lines() {
        let c = sample();
        let encoded = c.encode();
        let mut lines: Vec<&str> = encoded.lines().skip(1).collect();
        lines.reverse();
        let shuffled = format!("{COUNTERS_MAGIC}\n{}\n", lines.join("\n"));
        assert_eq!(ReportCounters::decode(&shuffled).unwrap(), c);
    }

    #[test]
    fn decode_rejects_unknown_duplicate_and_missing() {
        let c = sample().encode();
        let unknown = format!("{c}frobnicated 3\n");
        assert!(ReportCounters::decode(&unknown)
            .unwrap_err()
            .to_string()
            .contains("unknown counter"));
        let duplicate = format!("{c}accepted 240\n");
        assert!(ReportCounters::decode(&duplicate)
            .unwrap_err()
            .to_string()
            .contains("duplicate counter"));
        let missing: String = c.lines().take(10).collect::<Vec<_>>().join("\n");
        assert!(ReportCounters::decode(&missing)
            .unwrap_err()
            .to_string()
            .contains("missing counter"));
        assert!(ReportCounters::decode("not the magic\n")
            .unwrap_err()
            .to_string()
            .contains("bad magic"));
        let garbled = format!("{COUNTERS_MAGIC}\naccepted over9000\n");
        assert!(ReportCounters::decode(&garbled)
            .unwrap_err()
            .to_string()
            .contains("bad value"));
    }

    #[test]
    fn merge_sums_every_counter() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.accepted, 480);
        assert_eq!(a.version_rejects, 18);
        assert_eq!(a.poisoned, 2);
        assert_eq!(a.uplink_acked, 480);
        assert_eq!(a.migrations_started, 8);
        assert_eq!(a.migrations_completed, 6);
        assert_eq!(a.migrations_aborted, 2);
    }
}
