//! Restore-point snapshots of the whole collector.
//!
//! A v2 gateway checkpoint carries a [`CollectorSnapshot`] — the
//! complete replay-deterministic state of the collector at a WAL
//! cursor: the detection pipeline (via
//! [`sentinet_core::checkpoint::write_pipeline`]), the reorder
//! buffer, the sanitizer, per-sensor sequence dedup state, and the
//! ingest/liveness accounting. Restoring it yields a collector that
//! continues bit-identically, which is what lets checkpoint-gated
//! retention delete the WAL prefix below the cursor: replay of the
//! remaining tail from the snapshot equals replay of the full log from
//! genesis, byte for byte.
//!
//! Deliberately *excluded* is everything that is not a function of the
//! admitted record sequence — retransmission counts
//! (`seq_duplicates`), the optional released-trace log, and the
//! storage-fault counters. Those reset on restart (the existing
//! restart tests pin this: duplicate counts differ across a restart,
//! reports otherwise match bit-exactly).
//!
//! The codec follows the workspace convention: hand-rolled line-based
//! text, floats as IEEE-754 bit patterns (`{:016x}`), so a round-trip
//! is bit-exact and encoding a live collector equals encoding its
//! restored twin.

use crate::reorder::{ReorderSnapshot, ReorderStats};
use sentinet_core::checkpoint::{decode_pipeline, push_dec, push_hex, write_pipeline};
use sentinet_core::{PipelineSnapshot, WindowerSnapshot};
use sentinet_sim::{IngestError, SanitizerSnapshot, SensorId, Timestamp};
use std::fmt;

const MAGIC: &str = "sentinet-collector v1";

/// Plain-data image of a `Collector` at a WAL cursor.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectorSnapshot {
    /// The detection pipeline.
    pub pipeline: PipelineSnapshot,
    /// The reorder buffer (contents, watermark, drop accounting).
    pub reorder: ReorderSnapshot,
    /// The sanitizer's per-sensor history.
    pub sanitizer: SanitizerSnapshot,
    /// Per-sensor dedup state: `(sensor, next expected seq, seen seqs
    /// above next)`.
    pub seqs: Vec<(SensorId, u64, Vec<u64>)>,
    /// Records accepted by the sanitizer so far.
    pub accepted: usize,
    /// Sanitizer rejections so far, in input order.
    pub rejected: Vec<IngestError>,
    /// Per-sensor last admitted timestamp.
    pub last_heard: Vec<(SensorId, Timestamp)>,
    /// Sensors currently declared silent.
    pub silent: Vec<SensorId>,
    /// Silence episodes declared so far.
    pub episodes: usize,
}

/// `tag`, then ` sensor:value` per pair (` -` for none), then a newline.
fn put_pairs<W: fmt::Write>(out: &mut W, tag: &str, pairs: &[(SensorId, u64)]) -> fmt::Result {
    out.write_str(tag)?;
    if pairs.is_empty() {
        out.write_str(" -")?;
    }
    for (s, t) in pairs {
        out.write_char(' ')?;
        push_dec(out, u64::from(s.0))?;
        out.write_char(':')?;
        push_dec(out, *t)?;
    }
    out.write_char('\n')
}

fn put_ingest_error<W: fmt::Write>(out: &mut W, e: &IngestError) -> fmt::Result {
    match e {
        IngestError::EmptyReading { time, sensor } => {
            writeln!(out, "rej empty {time} {}", sensor.0)
        }
        IngestError::NonFinite {
            time,
            sensor,
            index,
            value,
        } => {
            write!(out, "rej nonfinite {time} {} {index} ", sensor.0)?;
            push_hex(out, *value)?;
            out.write_char('\n')
        }
        IngestError::DuplicateTimestamp { time, sensor } => {
            writeln!(out, "rej dup {time} {}", sensor.0)
        }
        IngestError::OutOfOrder {
            time,
            sensor,
            latest,
        } => writeln!(out, "rej ooo {time} {} {latest}", sensor.0),
        IngestError::DimensionMismatch {
            time,
            sensor,
            expected,
            actual,
        } => writeln!(out, "rej dim {time} {} {expected} {actual}", sensor.0),
    }
}

/// Encodes a collector snapshot as durable checkpoint text.
pub fn encode_collector(snap: &CollectorSnapshot) -> String {
    let mut out = String::new();
    // `fmt::Write for String` never fails.
    let _ = write_collector(&mut out, snap);
    out
}

/// [`encode_collector`] appended to a caller-supplied buffer: the
/// checkpoint file's header, this body and the pipeline section inside
/// it are written in one pass into one allocation, each float's hex
/// digits placed directly ([`push_hex`]).
///
/// # Errors
///
/// Whatever `out` reports; a `String` never fails.
pub fn write_collector<W: fmt::Write>(out: &mut W, snap: &CollectorSnapshot) -> fmt::Result {
    write!(out, "{MAGIC}\nsanitizer ")?;
    match snap.sanitizer.dims {
        Some(d) => writeln!(out, "{d}")?,
        None => out.write_str("-\n")?,
    }
    put_pairs(out, "slatest", &snap.sanitizer.latest)?;
    let ReorderStats {
        duplicates,
        late,
        shed,
    } = snap.reorder.stats;
    match snap.reorder.watermark {
        Some(w) => writeln!(out, "reorder {w} {duplicates} {late} {shed}")?,
        None => writeln!(out, "reorder - {duplicates} {late} {shed}")?,
    }
    for (time, sensor, values) in &snap.reorder.buffer {
        out.write_str("rbuf ")?;
        push_dec(out, *time)?;
        out.write_char(' ')?;
        push_dec(out, u64::from(sensor.0))?;
        for v in values {
            out.write_char(' ')?;
            push_hex(out, *v)?;
        }
        out.write_char('\n')?;
    }
    put_pairs(out, "rrel", &snap.reorder.last_released)?;
    for (sensor, next, above) in &snap.seqs {
        write!(out, "seq {} {next} ", sensor.0)?;
        if above.is_empty() {
            out.write_char('-')?;
        }
        for (i, seq) in above.iter().enumerate() {
            if i > 0 {
                out.write_char(',')?;
            }
            push_dec(out, *seq)?;
        }
        out.write_char('\n')?;
    }
    writeln!(out, "accepted {}", snap.accepted)?;
    for e in &snap.rejected {
        put_ingest_error(out, e)?;
    }
    put_pairs(out, "heard", &snap.last_heard)?;
    out.write_str("silent")?;
    if snap.silent.is_empty() {
        out.write_str(" -")?;
    }
    for s in &snap.silent {
        write!(out, " {}", s.0)?;
    }
    writeln!(out, "\nepisodes {}\npipeline", snap.episodes)?;
    write_pipeline(out, &snap.pipeline)
}

/// Splits `snap` into the state for sensors inside the half-open
/// range `[range.start, range.end)` and the complement, in that
/// order. This is the migration cut: the *inside* half ships to the
/// destination collector, the *outside* half is what the source keeps
/// owning.
///
/// Per-sensor state (pipeline runtimes, windower readings, sanitizer
/// history, reorder buffer and release marks, dedup seqs, liveness)
/// partitions exactly. Whole-collector state splits by two rules:
///
/// - *Lineage* — the global model, the in-progress window coordinates,
///   the reorder watermark and the sanitizer dimensionality are
///   duplicated into both halves: the migrated sensors keep being
///   classified under the model they were trained with.
/// - *Accounting* — `accepted`, `episodes`, the rejection log and the
///   reorder drop counters stay with the outside half; the inside
///   half starts a fresh ledger, exactly like any newly opened
///   collector.
///
/// [`merge_snapshot`] inverts the split bit-exactly (pinned by the
/// sub-range filter proptests), which is what the migration engine's
/// cut-coverage check leans on: a cut that cannot be re-merged into
/// the original snapshot byte-for-byte is refused before anything
/// ships.
pub fn split_snapshot(
    snap: &CollectorSnapshot,
    range: std::ops::Range<u16>,
) -> (CollectorSnapshot, CollectorSnapshot) {
    let inside = |sensor: SensorId| range.contains(&sensor.0);
    fn part<T: Clone>(items: &[T], is_inside: impl Fn(&T) -> bool) -> (Vec<T>, Vec<T>) {
        items.iter().cloned().partition(is_inside)
    }
    let (p_in, p_out) = part(&snap.pipeline.sensors, |(s, _)| inside(*s));
    let (w_in, w_out) = part(&snap.pipeline.windower.readings, |(s, _, _)| inside(*s));
    let (sl_in, sl_out) = part(&snap.sanitizer.latest, |(s, _)| inside(*s));
    let (rb_in, rb_out) = part(&snap.reorder.buffer, |(_, s, _)| inside(*s));
    let (rr_in, rr_out) = part(&snap.reorder.last_released, |(s, _)| inside(*s));
    let (sq_in, sq_out) = part(&snap.seqs, |(s, _, _)| inside(*s));
    let (lh_in, lh_out) = part(&snap.last_heard, |(s, _)| inside(*s));
    let (si_in, si_out) = part(&snap.silent, |s| inside(*s));
    let half = |sensors, readings, latest, buffer, released, seqs, heard, silent, keep_ledger| {
        CollectorSnapshot {
            pipeline: PipelineSnapshot {
                global: snap.pipeline.global.clone(),
                windower: WindowerSnapshot {
                    started: snap.pipeline.windower.started,
                    index: snap.pipeline.windower.index,
                    start: snap.pipeline.windower.start,
                    readings,
                },
                sensors,
            },
            reorder: ReorderSnapshot {
                buffer,
                last_released: released,
                watermark: snap.reorder.watermark,
                stats: if keep_ledger {
                    snap.reorder.stats
                } else {
                    ReorderStats::default()
                },
            },
            sanitizer: SanitizerSnapshot {
                latest,
                dims: snap.sanitizer.dims,
            },
            seqs,
            accepted: if keep_ledger { snap.accepted } else { 0 },
            rejected: if keep_ledger {
                snap.rejected.clone()
            } else {
                Vec::new()
            },
            last_heard: heard,
            silent,
            episodes: if keep_ledger { snap.episodes } else { 0 },
        }
    };
    (
        half(p_in, w_in, sl_in, rb_in, rr_in, sq_in, lh_in, si_in, false),
        half(
            p_out, w_out, sl_out, rb_out, rr_out, sq_out, lh_out, si_out, true,
        ),
    )
}

/// Merges two [`split_snapshot`] halves back into one snapshot — the
/// exact inverse of the split. Per-sensor lists merge by ascending
/// sensor id (the canonical order every collector structure keeps),
/// the reorder buffer by its `(time, sensor)` release order; lineage
/// fields come from `outside`, and the accounting ledgers add.
pub fn merge_snapshot(
    outside: &CollectorSnapshot,
    inside: &CollectorSnapshot,
) -> CollectorSnapshot {
    fn merge_by<T: Clone, K: Ord>(a: &[T], b: &[T], key: impl Fn(&T) -> K) -> Vec<T> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if key(&a[i]) <= key(&b[j]) {
                out.push(a[i].clone());
                i += 1;
            } else {
                out.push(b[j].clone());
                j += 1;
            }
        }
        out.extend(a[i..].iter().cloned());
        out.extend(b[j..].iter().cloned());
        out
    }
    let (o, n) = (outside, inside);
    CollectorSnapshot {
        pipeline: PipelineSnapshot {
            global: o.pipeline.global.clone(),
            windower: WindowerSnapshot {
                started: o.pipeline.windower.started,
                index: o.pipeline.windower.index,
                start: o.pipeline.windower.start,
                readings: merge_by(
                    &o.pipeline.windower.readings,
                    &n.pipeline.windower.readings,
                    |(s, _, _)| *s,
                ),
            },
            sensors: merge_by(&o.pipeline.sensors, &n.pipeline.sensors, |(s, _)| *s),
        },
        reorder: ReorderSnapshot {
            buffer: merge_by(&o.reorder.buffer, &n.reorder.buffer, |(t, s, _)| (*t, *s)),
            last_released: merge_by(
                &o.reorder.last_released,
                &n.reorder.last_released,
                |(s, _)| *s,
            ),
            watermark: o.reorder.watermark,
            stats: ReorderStats {
                duplicates: o.reorder.stats.duplicates + n.reorder.stats.duplicates,
                late: o.reorder.stats.late + n.reorder.stats.late,
                shed: o.reorder.stats.shed + n.reorder.stats.shed,
            },
        },
        sanitizer: SanitizerSnapshot {
            latest: merge_by(&o.sanitizer.latest, &n.sanitizer.latest, |(s, _)| *s),
            dims: o.sanitizer.dims,
        },
        seqs: merge_by(&o.seqs, &n.seqs, |(s, _, _)| *s),
        accepted: o.accepted + n.accepted,
        rejected: o
            .rejected
            .iter()
            .chain(n.rejected.iter())
            .cloned()
            .collect(),
        last_heard: merge_by(&o.last_heard, &n.last_heard, |(s, _)| *s),
        silent: merge_by(&o.silent, &n.silent, |s| *s),
        episodes: o.episodes + n.episodes,
    }
}

/// Line cursor over the head section, with single-line pushback for
/// the variable-length groups.
struct Cursor<'a> {
    lines: Vec<&'a str>,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Option<&'a str> {
        let line = self.lines.get(self.pos).copied();
        if line.is_some() {
            self.pos += 1;
        }
        line
    }

    fn fail<T>(&self, reason: impl Into<String>) -> Result<T, String> {
        Err(format!(
            "collector snapshot line {}: {}",
            self.pos,
            reason.into()
        ))
    }

    fn num<T: std::str::FromStr>(&self, s: &str) -> Result<T, String> {
        s.parse()
            .map_err(|_| format!("collector snapshot line {}: bad number `{s}`", self.pos))
    }

    fn hexf(&self, s: &str) -> Result<f64, String> {
        u64::from_str_radix(s, 16)
            .map(f64::from_bits)
            .map_err(|_| format!("collector snapshot line {}: bad hex float `{s}`", self.pos))
    }

    fn pairs(&mut self, tag: &str) -> Result<Vec<(SensorId, u64)>, String> {
        let Some(rest) = self.next().and_then(|l| l.strip_prefix(tag)) else {
            return self.fail(format!("expected {tag} line"));
        };
        let mut out = Vec::new();
        for item in rest.split_whitespace() {
            if item == "-" {
                continue;
            }
            let Some((s, t)) = item.split_once(':') else {
                return self.fail(format!("bad pair `{item}`"));
            };
            out.push((SensorId(self.num(s)?), self.num(t)?));
        }
        Ok(out)
    }

    /// Consumes consecutive lines starting with `prefix`.
    fn group(&mut self, prefix: &str) -> Vec<&'a str> {
        let mut rows = Vec::new();
        while let Some(line) = self.lines.get(self.pos) {
            let Some(rest) = line.strip_prefix(prefix) else {
                break;
            };
            self.pos += 1;
            rows.push(rest);
        }
        rows
    }
}

fn parse_ingest_error(cur: &Cursor<'_>, rest: &str) -> Result<IngestError, String> {
    let parts: Vec<&str> = rest.split(' ').collect();
    let arity_err = || format!("collector snapshot line {}: bad rej arity", cur.pos);
    match parts.first().copied() {
        Some("empty") if parts.len() == 3 => Ok(IngestError::EmptyReading {
            time: cur.num(parts[1])?,
            sensor: SensorId(cur.num(parts[2])?),
        }),
        Some("nonfinite") if parts.len() == 5 => Ok(IngestError::NonFinite {
            time: cur.num(parts[1])?,
            sensor: SensorId(cur.num(parts[2])?),
            index: cur.num(parts[3])?,
            value: cur.hexf(parts[4])?,
        }),
        Some("dup") if parts.len() == 3 => Ok(IngestError::DuplicateTimestamp {
            time: cur.num(parts[1])?,
            sensor: SensorId(cur.num(parts[2])?),
        }),
        Some("ooo") if parts.len() == 4 => Ok(IngestError::OutOfOrder {
            time: cur.num(parts[1])?,
            sensor: SensorId(cur.num(parts[2])?),
            latest: cur.num(parts[3])?,
        }),
        Some("dim") if parts.len() == 5 => Ok(IngestError::DimensionMismatch {
            time: cur.num(parts[1])?,
            sensor: SensorId(cur.num(parts[2])?),
            expected: cur.num(parts[3])?,
            actual: cur.num(parts[4])?,
        }),
        Some(other) if !matches!(other, "empty" | "nonfinite" | "dup" | "ooo" | "dim") => {
            Err(format!(
                "collector snapshot line {}: unknown rejection kind `{other}`",
                cur.pos
            ))
        }
        _ => Err(arity_err()),
    }
}

/// Decodes checkpoint text produced by [`encode_collector`].
///
/// # Errors
///
/// A human-readable description of the first syntax problem.
pub fn decode_collector(text: &str) -> Result<CollectorSnapshot, String> {
    let Some((head, pipeline_text)) = text.split_once("\npipeline\n") else {
        return Err("collector snapshot: missing pipeline section".into());
    };
    let mut cur = Cursor {
        lines: head.lines().collect(),
        pos: 0,
    };
    match cur.next() {
        Some(MAGIC) => {}
        Some(other) => return cur.fail(format!("bad magic `{other}`")),
        None => return cur.fail("empty snapshot"),
    }
    let dims = match cur.next().and_then(|l| l.strip_prefix("sanitizer ")) {
        Some("-") => None,
        Some(d) => Some(cur.num(d)?),
        None => return cur.fail("expected sanitizer line"),
    };
    let latest = cur.pairs("slatest")?;
    let Some(rest) = cur.next().and_then(|l| l.strip_prefix("reorder ")) else {
        return cur.fail("expected reorder line");
    };
    let parts: Vec<&str> = rest.split(' ').collect();
    if parts.len() != 4 {
        return cur.fail("reorder needs `watermark duplicates late shed`");
    }
    let watermark = if parts[0] == "-" {
        None
    } else {
        Some(cur.num(parts[0])?)
    };
    let stats = ReorderStats {
        duplicates: cur.num(parts[1])?,
        late: cur.num(parts[2])?,
        shed: cur.num(parts[3])?,
    };
    let mut buffer = Vec::new();
    for row in cur.group("rbuf ") {
        let mut it = row.split(' ');
        let (Some(t), Some(s)) = (it.next(), it.next()) else {
            return cur.fail("rbuf needs `time sensor values…`");
        };
        let values: Vec<f64> = it.map(|v| cur.hexf(v)).collect::<Result<_, _>>()?;
        buffer.push((cur.num(t)?, SensorId(cur.num(s)?), values));
    }
    let last_released = cur.pairs("rrel")?;
    let mut seqs = Vec::new();
    for row in cur.group("seq ") {
        let parts: Vec<&str> = row.split(' ').collect();
        if parts.len() != 3 {
            return cur.fail("seq needs `sensor next above`");
        }
        let above = if parts[2] == "-" {
            Vec::new()
        } else {
            parts[2]
                .split(',')
                .map(|n| cur.num(n))
                .collect::<Result<_, _>>()?
        };
        seqs.push((SensorId(cur.num(parts[0])?), cur.num(parts[1])?, above));
    }
    let accepted = match cur.next().and_then(|l| l.strip_prefix("accepted ")) {
        Some(n) => cur.num(n)?,
        None => return cur.fail("expected accepted line"),
    };
    let mut rejected = Vec::new();
    for row in cur.group("rej ") {
        rejected.push(parse_ingest_error(&cur, row)?);
    }
    let last_heard = cur.pairs("heard")?;
    let Some(rest) = cur.next().and_then(|l| l.strip_prefix("silent")) else {
        return cur.fail("expected silent line");
    };
    let mut silent = Vec::new();
    for item in rest.split_whitespace() {
        if item == "-" {
            continue;
        }
        silent.push(SensorId(cur.num(item)?));
    }
    let episodes = match cur.next().and_then(|l| l.strip_prefix("episodes ")) {
        Some(n) => cur.num(n)?,
        None => return cur.fail("expected episodes line"),
    };
    if let Some(extra) = cur.next() {
        return cur.fail(format!("unexpected trailing line `{extra}`"));
    }
    let pipeline = decode_pipeline(pipeline_text).map_err(|e| e.to_string())?;
    Ok(CollectorSnapshot {
        pipeline,
        reorder: ReorderSnapshot {
            buffer,
            last_released,
            watermark,
            stats,
        },
        sanitizer: SanitizerSnapshot { latest, dims },
        seqs,
        accepted,
        rejected,
        last_heard,
        silent,
        episodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinet_core::{Pipeline, PipelineConfig};

    fn sample() -> CollectorSnapshot {
        let mut pipeline = Pipeline::new(PipelineConfig::default(), 300);
        for i in 0..30u64 {
            for s in 0..3u16 {
                let v = 20.0 + (i % 5) as f64 + f64::from(s);
                pipeline.push_values(300 * (i + 1), SensorId(s), &[v, v + 30.0]);
            }
        }
        CollectorSnapshot {
            pipeline: pipeline.snapshot(),
            reorder: ReorderSnapshot {
                buffer: vec![(9300, SensorId(1), vec![24.5, 54.5])],
                last_released: vec![(SensorId(0), 9000), (SensorId(1), 9000)],
                watermark: Some(8700),
                stats: ReorderStats {
                    duplicates: 2,
                    late: 1,
                    shed: 0,
                },
            },
            sanitizer: SanitizerSnapshot {
                latest: vec![(SensorId(0), 9000), (SensorId(1), 9000)],
                dims: Some(2),
            },
            seqs: vec![(SensorId(0), 31, vec![]), (SensorId(1), 30, vec![32, 33])],
            accepted: 88,
            rejected: vec![
                IngestError::EmptyReading {
                    time: 600,
                    sensor: SensorId(2),
                },
                IngestError::NonFinite {
                    time: 900,
                    sensor: SensorId(0),
                    index: 1,
                    value: f64::NEG_INFINITY,
                },
                IngestError::DuplicateTimestamp {
                    time: 1200,
                    sensor: SensorId(1),
                },
                IngestError::OutOfOrder {
                    time: 300,
                    sensor: SensorId(1),
                    latest: 1200,
                },
                IngestError::DimensionMismatch {
                    time: 1500,
                    sensor: SensorId(2),
                    expected: 2,
                    actual: 3,
                },
            ],
            last_heard: vec![(SensorId(0), 9000), (SensorId(1), 9300)],
            silent: vec![SensorId(2)],
            episodes: 1,
        }
    }

    #[test]
    fn collector_codec_round_trips_bit_exactly() {
        let snap = sample();
        let text = encode_collector(&snap);
        let decoded = decode_collector(&text).expect("round trip");
        assert_eq!(decoded, snap);
        assert_eq!(encode_collector(&decoded), text);
    }

    #[test]
    fn collector_codec_round_trips_empty_state() {
        let snap = CollectorSnapshot {
            pipeline: Pipeline::new(PipelineConfig::default(), 300).snapshot(),
            reorder: ReorderSnapshot::default(),
            sanitizer: SanitizerSnapshot::default(),
            seqs: Vec::new(),
            accepted: 0,
            rejected: Vec::new(),
            last_heard: Vec::new(),
            silent: Vec::new(),
            episodes: 0,
        };
        let decoded = decode_collector(&encode_collector(&snap)).expect("round trip");
        assert_eq!(decoded, snap);
    }

    #[test]
    fn collector_decode_rejects_malformed() {
        let text = encode_collector(&sample());
        assert!(decode_collector("").is_err());
        assert!(decode_collector("nonsense\npipeline\n").is_err());
        assert!(decode_collector(&text.replace("\npipeline\n", "\n")).is_err());
        assert!(decode_collector(&text.replace("rej dup", "rej dupp")).is_err());
        assert!(decode_collector(&text.replace("episodes 1", "episodes x")).is_err());
        let err = decode_collector(&text.replace("accepted ", "acepted ")).expect_err("corrupt");
        assert!(err.contains("line"), "{err}");
    }
}
