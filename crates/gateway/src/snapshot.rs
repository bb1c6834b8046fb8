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
//! The text is the grammar of `DESIGN.md` §12.5, written and read with
//! the kit in [`sentinet_core::checkpoint`]: the collector's own lines,
//! then a `pipeline` marker and the pipeline section, decoded by one
//! [`Reader`] from top to bottom so errors name absolute lines. The
//! round-trip is bit-exact and encoding a live collector equals
//! encoding its restored twin.
//!
//! Layout v2 (`sentinet-collector v2`, the one written) may name the
//! reorder buffer's records by log position: a `redo` line with the
//! smallest log index among them and a `front` list with each named
//! sensor's first named time stand for them, and `rbuf` lines carry
//! only the records written by value ([`ByPosition`]). The reader
//! refuses a naming no writer produces: fronts out of sensor order or
//! repeated, a front for a sensor that never logged a reading (no `seq`
//! line), or one not above the watermark or its sensor's release mark.
//! What only the log can refute — a redo cursor outside `[base,
//! cursor)`, a front no logged reading reaches, a slot named both ways
//! — the reopen refuses. Layout v1 has no `redo` or `front` line; it is
//! read, every record by value.

use crate::frame::ReadingArena;
use crate::reorder::{ByPosition, ReorderSnapshot, ReorderStats};
use sentinet_core::checkpoint::{
    push_dec, push_hex, put_joined, put_opt, read_pipeline, write_pipeline, CheckpointError,
    Fields, Reader,
};
use sentinet_core::{PipelineSnapshot, WindowerSnapshot};
use sentinet_sim::{IngestError, SanitizerSnapshot, SensorId, Timestamp};
use std::fmt;

/// The collector magic of layouts v1 and v2; only v2 is written.
const MAGICS: [&str; 2] = ["sentinet-collector v1", "sentinet-collector v2"];

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
    write!(out, "{}\nsanitizer ", MAGICS[1])?;
    put_opt(out, snap.sanitizer.dims)?;
    out.write_char('\n')?;
    put_pairs(out, "slatest", &snap.sanitizer.latest)?;
    let ReorderStats {
        duplicates,
        late,
        shed,
    } = snap.reorder.stats;
    out.write_str("reorder ")?;
    put_opt(out, snap.reorder.watermark)?;
    writeln!(out, " {duplicates} {late} {shed}")?;
    for ((time, sensor), values) in snap.reorder.buffer.iter() {
        out.write_str("rbuf ")?;
        push_dec(out, time)?;
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
        put_joined(out, above)?;
        out.write_char('\n')?;
    }
    let by_position = snap.reorder.by_position.as_ref();
    out.write_str("redo ")?;
    put_opt(out, by_position.map(|named| named.redo))?;
    out.write_char('\n')?;
    put_pairs(out, "front", by_position.map_or(&[], |named| &named.fronts))?;
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
/// sub-range filter properties), which is what the migration engine's
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
    let (rb_in, rb_out): (ReadingArena<_>, _) = snap
        .reorder
        .buffer
        .iter()
        .partition(|((_, s), _)| inside(*s));
    let (rr_in, rr_out) = part(&snap.reorder.last_released, |(s, _)| inside(*s));
    let fronts = snap
        .reorder
        .by_position
        .as_ref()
        .map_or(&[][..], |n| &n.fronts);
    let (fr_in, fr_out) = part(fronts, |(s, _)| inside(*s));
    let (sq_in, sq_out) = part(&snap.seqs, |(s, _, _)| inside(*s));
    let (lh_in, lh_out) = part(&snap.last_heard, |(s, _)| inside(*s));
    let (si_in, si_out) = part(&snap.silent, |s| inside(*s));
    let named = |fronts: Vec<_>| {
        let redo = snap.reorder.by_position.as_ref().map(|n| n.redo);
        redo.filter(|_| !fronts.is_empty())
            .map(|redo| ByPosition { redo, fronts })
    };
    let half =
        |sensors, readings, latest, buffer, fronts, released, seqs, heard, silent, keep_ledger| {
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
                    by_position: named(fronts),
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
        half(
            p_in, w_in, sl_in, rb_in, fr_in, rr_in, sq_in, lh_in, si_in, false,
        ),
        half(
            p_out, w_out, sl_out, rb_out, fr_out, rr_out, sq_out, lh_out, si_out, true,
        ),
    )
}

/// Merges two [`split_snapshot`] halves back into one snapshot — the
/// exact inverse of the split. Per-sensor lists merge by ascending
/// sensor id (the canonical order every collector structure keeps),
/// the reorder buffer by its `(time, sensor)` release order, the redo
/// cursor is the lower of the two; lineage fields come from `outside`,
/// and the accounting ledgers add.
pub fn merge_snapshot(
    outside: &CollectorSnapshot,
    inside: &CollectorSnapshot,
) -> CollectorSnapshot {
    fn merge_by<T: Clone, K: Ord>(a: &[T], b: &[T], key: impl Fn(&T) -> K) -> Vec<T> {
        // sentinet-allow(codec-alloc): sized by two slices already in memory, not by decoded input
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
    let buffers: [Vec<_>; 2] = [o, n].map(|s| s.reorder.buffer.iter().collect());
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
            buffer: merge_by(&buffers[0], &buffers[1], |&(key, _)| key)
                .into_iter()
                .collect(),
            by_position: match (&o.reorder.by_position, &n.reorder.by_position) {
                (Some(a), Some(b)) => Some(ByPosition {
                    redo: a.redo.min(b.redo),
                    fronts: merge_by(&a.fronts, &b.fronts, |(s, _)| *s),
                }),
                (a, b) => a.clone().or_else(|| b.clone()),
            },
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

/// One `sensor:value` item of a pair list.
fn read_pair(p: &mut Fields<'_>) -> Result<(SensorId, u64), CheckpointError> {
    Ok((SensorId(p.num()?), p.num()?))
}

/// The fields of one `rej` line, after the tag.
fn read_ingest_error(mut f: Fields<'_>) -> Result<IngestError, CheckpointError> {
    let kind = f.token()?;
    let (time, sensor) = (f.num()?, SensorId(f.num()?));
    let error = match kind {
        "empty" => IngestError::EmptyReading { time, sensor },
        "nonfinite" => IngestError::NonFinite {
            time,
            sensor,
            index: f.num()?,
            value: f.hex()?,
        },
        "dup" => IngestError::DuplicateTimestamp { time, sensor },
        "ooo" => IngestError::OutOfOrder {
            time,
            sensor,
            latest: f.num()?,
        },
        "dim" => IngestError::DimensionMismatch {
            time,
            sensor,
            expected: f.num()?,
            actual: f.num()?,
        },
        other => return f.fail(format!("unknown rejection kind `{other}`")),
    };
    f.end()?;
    Ok(error)
}

/// Refuses a naming by position no writer produces (see the module
/// header); `redo` and `front` were read as `named`.
fn check_named(
    named: Option<&ByPosition>,
    released: &[(SensorId, Timestamp)],
    watermark: Option<Timestamp>,
    seqs: &[(SensorId, u64, Vec<u64>)],
) -> Result<(), String> {
    let Some(named) = named else {
        return Ok(());
    };
    if named.fronts.is_empty() {
        return Err("a redo cursor names no sensor's front".into());
    }
    let mut before = None;
    for &(sensor, front) in &named.fronts {
        if before.is_some_and(|b| b >= sensor) {
            return Err(format!(
                "front of sensor {} out of order or repeated",
                sensor.0
            ));
        }
        before = Some(sensor);
        if !seqs.iter().any(|(s, ..)| *s == sensor) {
            return Err(format!(
                "front of sensor {}, which logged nothing",
                sensor.0
            ));
        }
        let mark = released
            .iter()
            .filter(|(s, _)| *s == sensor)
            .map(|(_, t)| *t);
        if watermark
            .into_iter()
            .chain(mark)
            .any(|floor| front <= floor)
        {
            return Err(format!(
                "front {front} of sensor {} not above the watermark and its release mark",
                sensor.0
            ));
        }
    }
    Ok(())
}

/// Whether `text` opens with the collector layout [`encode_collector`]
/// writes.
pub(crate) fn is_current_layout(text: &str) -> bool {
    text.strip_prefix(MAGICS[1])
        .is_some_and(|rest| rest.starts_with('\n'))
}

/// Decodes checkpoint text produced by [`encode_collector`].
///
/// # Errors
///
/// [`CheckpointError::Malformed`] naming the first offending line,
/// counted from the top of `text` through the nested pipeline and
/// shard sections.
pub fn decode_collector(text: &str) -> Result<CollectorSnapshot, CheckpointError> {
    let mut r = Reader::new(text);
    let snap = read_collector(&mut r)?;
    r.finish()?;
    Ok(snap)
}

/// [`decode_collector`] from wherever `r` stands — the body of an
/// outbox file, after its header lines.
pub(crate) fn read_collector(r: &mut Reader<'_>) -> Result<CollectorSnapshot, CheckpointError> {
    let v1 = r.peek() == Some(MAGICS[0]);
    r.marker(MAGICS[usize::from(!v1)])?;
    let dims = r.single("sanitizer", Fields::opt)?;
    let latest = r.list("slatest", read_pair)?;
    let mut f = r.tagged("reorder")?;
    let watermark = f.opt()?;
    let stats = ReorderStats {
        duplicates: f.num()?,
        late: f.num()?,
        shed: f.num()?,
    };
    f.end()?;
    let mut buffer = ReadingArena::default();
    while let Some(mut f) = r.tagged_if("rbuf") {
        let key = (f.num()?, SensorId(f.num()?));
        buffer.push(key, &f.hex_row()?);
    }
    let last_released = r.list("rrel", read_pair)?;
    let mut seqs = Vec::new();
    while let Some(mut f) = r.tagged_if("seq") {
        seqs.push((SensorId(f.num()?), f.num()?, f.opt_nums()?));
        f.end()?;
    }
    let by_position = if v1 {
        None
    } else {
        let redo = r.single("redo", Fields::opt)?;
        let fronts = r.list("front", read_pair)?;
        let named = redo.map(|redo| ByPosition { redo, fronts });
        if let Err(why) = check_named(named.as_ref(), &last_released, watermark, &seqs) {
            return r.fail(why);
        }
        named
    };
    let accepted = r.single("accepted", Fields::num)?;
    let mut rejected = Vec::new();
    while let Some(f) = r.tagged_if("rej") {
        rejected.push(read_ingest_error(f)?);
    }
    let last_heard = r.list("heard", read_pair)?;
    let silent = r.list("silent", |s| Ok(SensorId(s.num()?)))?;
    let episodes = r.single("episodes", Fields::num)?;
    r.marker("pipeline")?;
    Ok(CollectorSnapshot {
        pipeline: read_pipeline(r)?,
        reorder: ReorderSnapshot {
            buffer,
            by_position,
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
                buffer: [((9300, SensorId(1)), &[24.5, 54.5][..])]
                    .into_iter()
                    .collect(),
                by_position: Some(ByPosition {
                    redo: 41,
                    fronts: vec![(SensorId(0), 9300)],
                }),
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
        assert!(matches!(err, CheckpointError::Malformed { line, .. } if line > 1));
    }

    /// The collector level of the nesting: a bad line inside the
    /// pipeline section, and one inside the shard section inside it,
    /// are both reported where they stand in the collector text — as a
    /// typed error, where a `String` used to carry a section-relative
    /// number.
    #[test]
    fn nested_sections_report_absolute_lines() {
        let text = encode_collector(&sample());
        let line_of = |text: &str, line: &str| {
            1 + text
                .split('\n')
                .position(|l| l == line)
                .expect("line present")
        };
        for (good, bad) in [("windows 1", "windows x"), ("sensor 1", "sensor x")] {
            let damaged = text.replace(&format!("\n{good}\n"), &format!("\n{bad}\n"));
            let at = line_of(&damaged, bad);
            assert!(at > line_of(&damaged, "pipeline"), "{good} is nested");
            match decode_collector(&damaged) {
                Err(CheckpointError::Malformed { line, .. }) => assert_eq!(line, at, "{good}"),
                other => panic!("{good}: expected a malformed-line error, got {other:?}"),
            }
        }
    }
}
