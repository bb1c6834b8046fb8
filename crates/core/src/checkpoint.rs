//! Checkpoint snapshots of per-sensor pipeline state.
//!
//! The sharded engine's supervisor checkpoints every
//! [`SensorRuntime`](crate::SensorRuntime) at each window boundary so a
//! crashed shard can be respawned and replayed without losing model
//! state. A [`SensorSnapshot`] is plain data — the alarm filter's
//! [`FilterSnapshot`], the `M_CE` [`EstimatorState`] (which carries the
//! estimator's generation counter, keeping memo caches coherent across
//! a restore), and the track/alarm history — so it crosses thread
//! boundaries freely and can be serialized.
//!
//! The durable wire format is the hand-rolled text codec below
//! ([`encode_shard`]/[`decode_shard`]): floating-point fields are
//! written as the hexadecimal IEEE-754 bit pattern (`f64::to_bits`), so
//! a round-trip is bit-exact — the property the engine's kill-anywhere
//! determinism proof rests on. The `serde` derives on the snapshot
//! types are the workspace's usual offline marker stubs (see
//! `vendor/README.md`); they document intent but do no serialization.

use crate::runtime::TrackRecord;
use sentinet_cluster::StatesSnapshot;
use sentinet_filter::FilterSnapshot;
use sentinet_hmm::{EstimatorState, MarkovState};
use sentinet_sim::SensorId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Plain-data image of one [`SensorRuntime`](crate::SensorRuntime),
/// produced by [`SensorRuntime::snapshot`](crate::SensorRuntime::snapshot).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorSnapshot {
    /// Alarm-filter state.
    pub filter: FilterSnapshot,
    /// `M_CE` estimator state (includes its generation counter).
    pub m_ce: EstimatorState,
    /// Whether an error/attack track is currently open.
    pub track_open: bool,
    /// All tracks opened so far.
    pub tracks: Vec<TrackRecord>,
    /// Raw-alarm history as `(window, raw)` pairs.
    pub raw_history: Vec<(u64, bool)>,
    /// Whether a filtered alarm was ever raised.
    pub ever_alarmed: bool,
}

/// Plain-data image of the in-progress observation window, produced by
/// [`Windower::snapshot`](crate::Windower::snapshot). Only sensors with
/// at least one delivered reading appear, so a live windower (whose
/// recycled windows keep cleared per-sensor buffers around) and a
/// restored one encode identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowerSnapshot {
    /// Whether any reading has ever arrived.
    pub started: bool,
    /// Index of the in-progress window.
    pub index: u64,
    /// Start time of the in-progress window.
    pub start: u64,
    /// Per-sensor `(id, dims, flat row-major samples)` for every sensor
    /// with at least one reading in the in-progress window.
    pub readings: Vec<(SensorId, usize, Vec<f64>)>,
}

/// The bootstrapped portion of a [`GlobalSnapshot`]: the model states
/// and the three estimators that are installed together at bootstrap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalStates {
    /// The evolving model-state set.
    pub states: StatesSnapshot,
    /// The `M_CO` (correct → observable) estimator.
    pub m_co: EstimatorState,
    /// The `M_C` Markov model of the correct states.
    pub m_c: MarkovState,
    /// The `M_O` Markov model of the observable states.
    pub m_o: MarkovState,
}

/// Plain-data image of the [`GlobalModel`](crate::GlobalModel),
/// produced by [`GlobalModel::snapshot`](crate::GlobalModel::snapshot).
///
/// The model's RNG is deliberately *not* captured: it is consumed only
/// by the bootstrap k-means call that installs the states. Before
/// bootstrap it is still virgin (re-seeding from `config.seed` restores
/// it exactly); after bootstrap it is never drawn from again, so its
/// position is irrelevant to all future behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalSnapshot {
    /// Decisive windows processed so far.
    pub windows_processed: u64,
    /// The `(window, correct, observable)` decisive-window history.
    pub state_history: Vec<(u64, usize, usize)>,
    /// Window means accumulated toward the bootstrap k-means (empty
    /// once states are installed).
    pub bootstrap_points: Vec<Vec<f64>>,
    /// The bootstrapped state, once installed.
    pub states: Option<GlobalStates>,
}

/// Plain-data image of a whole [`Pipeline`](crate::Pipeline), produced
/// by [`Pipeline::snapshot`](crate::Pipeline::snapshot): the global
/// model, the in-progress window, and every per-sensor runtime.
/// Restoring with [`Pipeline::from_snapshot`](crate::Pipeline::from_snapshot)
/// yields a pipeline whose behaviour is bit-identical from this point
/// on — this is what turns the gateway checkpoint from a verification
/// fingerprint into a restore point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineSnapshot {
    /// The coordinator-side global model.
    pub global: GlobalSnapshot,
    /// The in-progress observation window.
    pub windower: WindowerSnapshot,
    /// Every sensor's runtime, in ascending sensor order.
    pub sensors: Vec<(SensorId, SensorSnapshot)>,
}

/// Error decoding or restoring a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint text failed to parse at `line`.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The checkpoint parsed but failed semantic re-validation.
    Invalid(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Malformed { line, reason } => {
                write!(f, "malformed checkpoint at line {line}: {reason}")
            }
            CheckpointError::Invalid(reason) => write!(f, "invalid checkpoint: {reason}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

const MAGIC: &str = "sentinet-checkpoint v1";

/// Appends `v` as the 16 lowercase hex digits of its IEEE-754 bit
/// pattern — the one float encoding every sentinet text codec shares,
/// so a round-trip is bit-exact for NaN payloads, signed zeros and
/// subnormals alike. Writes straight into `out`: no intermediate
/// `String` per float.
///
/// # Errors
///
/// Whatever `out` reports; a `String` never fails.
pub fn push_hex<W: fmt::Write>(out: &mut W, v: f64) -> fmt::Result {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let bits = v.to_bits();
    let mut buf = [0u8; 16];
    for (i, digit) in buf.iter_mut().enumerate() {
        *digit = DIGITS[(bits >> (60 - 4 * i)) as usize & 0xf];
    }
    write_ascii(out, &buf)
}

/// Appends `n` in decimal, as `{n}` would print it, without the
/// formatting machinery's per-call setup — for the codecs' per-record
/// and per-window loops, where a checkpoint writes tens of thousands
/// of small integers.
///
/// # Errors
///
/// Whatever `out` reports; a `String` never fails.
pub fn push_dec<W: fmt::Write>(out: &mut W, mut n: u64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    write_ascii(out, &buf[at..])
}

/// `digits` are ASCII by construction; the check is a few words wide.
fn write_ascii<W: fmt::Write>(out: &mut W, digits: &[u8]) -> fmt::Result {
    match std::str::from_utf8(digits) {
        Ok(digits) => out.write_str(digits),
        Err(_) => Err(fmt::Error),
    }
}

/// `tag`, then every value of `row` as ` <hex>`, then a newline.
fn put_hex_row<W: fmt::Write>(out: &mut W, tag: fmt::Arguments<'_>, row: &[f64]) -> fmt::Result {
    out.write_fmt(tag)?;
    for v in row {
        out.write_char(' ')?;
        push_hex(out, *v)?;
    }
    out.write_char('\n')
}

/// `v` comma-joined (nothing at all for an empty slice).
fn put_joined<W: fmt::Write>(out: &mut W, v: &[u64]) -> fmt::Result {
    for (i, n) in v.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        push_dec(out, *n)?;
    }
    Ok(())
}

/// `Some(n)` as the number, `None` as `-`.
fn put_opt<W: fmt::Write, T: fmt::Display>(out: &mut W, v: Option<T>) -> fmt::Result {
    match v {
        Some(n) => write!(out, "{n}"),
        None => out.write_char('-'),
    }
}

/// The `tag` header line of one estimator, then its `a`/`b`/`counts`
/// rows, each named with the `rows` prefix: the shard codec's `mce`
/// rows are bare (`a …`), the pipeline codec's `mco` rows are
/// `mco-a …`.
fn put_estimator<W: fmt::Write>(
    out: &mut W,
    tag: &str,
    rows: &str,
    m: &EstimatorState,
) -> fmt::Result {
    write!(out, "{tag} ")?;
    push_hex(out, m.beta)?;
    out.write_char(' ')?;
    push_hex(out, m.gamma)?;
    out.write_char(' ')?;
    put_opt(out, m.prev_state)?;
    writeln!(out, " {} {}", m.steps, m.generation)?;
    for row in &m.a {
        put_hex_row(out, format_args!("{rows}a"), row)?;
    }
    for row in &m.b {
        put_hex_row(out, format_args!("{rows}b"), row)?;
    }
    write!(out, "{rows}counts ")?;
    put_joined(out, &m.state_counts)?;
    out.write_char(' ')?;
    put_joined(out, &m.obs_counts)?;
    out.write_char('\n')
}

/// Encodes one shard's sensors as durable checkpoint text.
pub fn encode_shard(sensors: &[(SensorId, SensorSnapshot)]) -> String {
    let mut out = String::new();
    // `fmt::Write for String` never fails.
    let _ = write_shard(&mut out, sensors);
    out
}

/// [`encode_shard`] appended to a caller-supplied buffer, every field
/// written in place.
///
/// # Errors
///
/// Whatever `out` reports; a `String` never fails.
pub fn write_shard<W: fmt::Write>(
    out: &mut W,
    sensors: &[(SensorId, SensorSnapshot)],
) -> fmt::Result {
    writeln!(out, "{MAGIC}")?;
    for (id, snap) in sensors {
        writeln!(out, "sensor {}", id.0)?;
        match &snap.filter {
            FilterSnapshot::KOfN { k, n, window } => {
                write!(out, "filter kofn {k} {n} ")?;
                if window.is_empty() {
                    out.write_char('-')?;
                }
                for &bit in window {
                    out.write_char(if bit { '1' } else { '0' })?;
                }
                out.write_char('\n')?;
            }
            FilterSnapshot::Sprt {
                llr_true,
                llr_false,
                upper,
                lower,
                llr,
                steps,
                raised,
            } => {
                out.write_str("filter sprt")?;
                for v in [llr_true, llr_false, upper, lower, llr] {
                    out.write_char(' ')?;
                    push_hex(out, *v)?;
                }
                writeln!(out, " {steps} {}", u8::from(*raised))?;
            }
        }
        put_estimator(out, "mce", "", &snap.m_ce)?;
        writeln!(out, "track {}", u8::from(snap.track_open))?;
        out.write_str("tracks")?;
        if snap.tracks.is_empty() {
            out.write_str(" -")?;
        }
        for t in &snap.tracks {
            write!(out, " {}:", t.opened)?;
            put_opt(out, t.closed)?;
        }
        out.write_str("\nraw")?;
        if snap.raw_history.is_empty() {
            out.write_str(" -")?;
        }
        for (w, raw) in &snap.raw_history {
            out.write_char(' ')?;
            push_dec(out, *w)?;
            out.write_str(if *raw { ":1" } else { ":0" })?;
        }
        writeln!(out, "\nalarmed {}\nend", u8::from(snap.ever_alarmed))?;
    }
    Ok(())
}

/// Cursor over checkpoint lines, tracking the 1-based position for
/// error reporting.
struct Lines<'a> {
    iter: std::iter::Enumerate<std::str::Lines<'a>>,
    pos: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            iter: text.lines().enumerate(),
            pos: 0,
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        let (i, line) = self.iter.next()?;
        self.pos = i + 1;
        Some(line)
    }

    fn fail<T>(&self, reason: impl Into<String>) -> Result<T, CheckpointError> {
        Err(CheckpointError::Malformed {
            line: self.pos,
            reason: reason.into(),
        })
    }
}

fn parse_hex(lines: &Lines<'_>, s: &str) -> Result<f64, CheckpointError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| CheckpointError::Malformed {
            line: lines.pos,
            reason: format!("bad hex float `{s}`: {e}"),
        })
}

fn parse_num<T: std::str::FromStr>(lines: &Lines<'_>, s: &str) -> Result<T, CheckpointError>
where
    T::Err: fmt::Display,
{
    s.parse().map_err(|e| CheckpointError::Malformed {
        line: lines.pos,
        reason: format!("bad number `{s}`: {e}"),
    })
}

fn parse_counts(lines: &Lines<'_>, s: &str) -> Result<Vec<u64>, CheckpointError> {
    if s.is_empty() {
        return lines.fail("empty count vector");
    }
    s.split(',').map(|c| parse_num(lines, c)).collect()
}

/// Decodes checkpoint text produced by [`encode_shard`].
///
/// # Errors
///
/// [`CheckpointError::Malformed`] on any syntax problem, with the
/// offending line. Semantic validation (stochastic rows etc.) happens
/// when the snapshot is restored into a runtime.
pub fn decode_shard(text: &str) -> Result<Vec<(SensorId, SensorSnapshot)>, CheckpointError> {
    let mut lines = Lines::new(text);
    match lines.next() {
        Some(MAGIC) => {}
        Some(other) => return lines.fail(format!("bad magic `{other}`")),
        None => return lines.fail("empty checkpoint"),
    }
    let mut sensors = Vec::new();
    while let Some(line) = lines.next() {
        if line.is_empty() {
            continue;
        }
        let Some(id) = line.strip_prefix("sensor ") else {
            return lines.fail(format!("expected `sensor <id>`, got `{line}`"));
        };
        let id = SensorId(parse_num(&lines, id)?);

        // Filter line.
        let Some(filter_line) = lines.next() else {
            return lines.fail("truncated: missing filter line");
        };
        let filter = if let Some(rest) = filter_line.strip_prefix("filter kofn ") {
            let parts: Vec<&str> = rest.split(' ').collect();
            if parts.len() != 3 {
                return lines.fail("filter kofn needs `k n bits`");
            }
            let window = if parts[2] == "-" {
                Vec::new()
            } else {
                parts[2]
                    .chars()
                    .map(|c| match c {
                        '0' => Ok(false),
                        '1' => Ok(true),
                        other => Err(CheckpointError::Malformed {
                            line: lines.pos,
                            reason: format!("bad window bit `{other}`"),
                        }),
                    })
                    .collect::<Result<_, _>>()?
            };
            FilterSnapshot::KOfN {
                k: parse_num(&lines, parts[0])?,
                n: parse_num(&lines, parts[1])?,
                window,
            }
        } else if let Some(rest) = filter_line.strip_prefix("filter sprt ") {
            let parts: Vec<&str> = rest.split(' ').collect();
            if parts.len() != 7 {
                return lines.fail("filter sprt needs 7 fields");
            }
            FilterSnapshot::Sprt {
                llr_true: parse_hex(&lines, parts[0])?,
                llr_false: parse_hex(&lines, parts[1])?,
                upper: parse_hex(&lines, parts[2])?,
                lower: parse_hex(&lines, parts[3])?,
                llr: parse_hex(&lines, parts[4])?,
                steps: parse_num(&lines, parts[5])?,
                raised: parts[6] == "1",
            }
        } else {
            return lines.fail(format!("expected filter line, got `{filter_line}`"));
        };

        // Estimator header.
        let Some(mce_line) = lines.next() else {
            return lines.fail("truncated: missing mce line");
        };
        let Some(rest) = mce_line.strip_prefix("mce ") else {
            return lines.fail(format!("expected mce line, got `{mce_line}`"));
        };
        let parts: Vec<&str> = rest.split(' ').collect();
        if parts.len() != 5 {
            return lines.fail("mce needs `beta gamma prev steps generation`");
        }
        let beta = parse_hex(&lines, parts[0])?;
        let gamma = parse_hex(&lines, parts[1])?;
        let prev_state = if parts[2] == "-" {
            None
        } else {
            Some(parse_num(&lines, parts[2])?)
        };
        let steps = parse_num(&lines, parts[3])?;
        let generation = parse_num(&lines, parts[4])?;

        // Matrix rows, then counts.
        let mut a: Vec<Vec<f64>> = Vec::new();
        let mut b: Vec<Vec<f64>> = Vec::new();
        let (state_counts, obs_counts) = loop {
            let Some(row_line) = lines.next() else {
                return lines.fail("truncated: missing counts line");
            };
            if let Some(rest) = row_line.strip_prefix("a ") {
                let row = rest
                    .split(' ')
                    .map(|s| parse_hex(&lines, s))
                    .collect::<Result<Vec<f64>, _>>()?;
                a.push(row);
            } else if let Some(rest) = row_line.strip_prefix("b ") {
                let row = rest
                    .split(' ')
                    .map(|s| parse_hex(&lines, s))
                    .collect::<Result<Vec<f64>, _>>()?;
                b.push(row);
            } else if let Some(rest) = row_line.strip_prefix("counts ") {
                let parts: Vec<&str> = rest.split(' ').collect();
                if parts.len() != 2 {
                    return lines.fail("counts needs two vectors");
                }
                break (
                    parse_counts(&lines, parts[0])?,
                    parse_counts(&lines, parts[1])?,
                );
            } else {
                return lines.fail(format!("expected a/b/counts line, got `{row_line}`"));
            }
        };

        // Track flag, tracks, raw history, alarmed flag, end marker.
        let track_open = match lines.next() {
            Some("track 0") => false,
            Some("track 1") => true,
            _ => return lines.fail("expected `track 0|1`"),
        };
        let Some(tracks_line) = lines.next() else {
            return lines.fail("truncated: missing tracks line");
        };
        let Some(rest) = tracks_line.strip_prefix("tracks") else {
            return lines.fail(format!("expected tracks line, got `{tracks_line}`"));
        };
        let mut tracks = Vec::new();
        for item in rest.split_whitespace() {
            if item == "-" {
                continue;
            }
            let Some((opened, closed)) = item.split_once(':') else {
                return lines.fail(format!("bad track `{item}`"));
            };
            tracks.push(TrackRecord {
                opened: parse_num(&lines, opened)?,
                closed: if closed == "-" {
                    None
                } else {
                    Some(parse_num(&lines, closed)?)
                },
            });
        }
        let Some(raw_line) = lines.next() else {
            return lines.fail("truncated: missing raw line");
        };
        let Some(rest) = raw_line.strip_prefix("raw") else {
            return lines.fail(format!("expected raw line, got `{raw_line}`"));
        };
        let mut raw_history = Vec::new();
        for item in rest.split_whitespace() {
            if item == "-" {
                continue;
            }
            let Some((w, r)) = item.split_once(':') else {
                return lines.fail(format!("bad raw entry `{item}`"));
            };
            raw_history.push((parse_num(&lines, w)?, r == "1"));
        }
        let ever_alarmed = match lines.next() {
            Some("alarmed 0") => false,
            Some("alarmed 1") => true,
            _ => return lines.fail("expected `alarmed 0|1`"),
        };
        match lines.next() {
            Some("end") => {}
            _ => return lines.fail("expected `end`"),
        }

        sensors.push((
            id,
            SensorSnapshot {
                filter,
                m_ce: EstimatorState {
                    a,
                    b,
                    beta,
                    gamma,
                    prev_state,
                    state_counts,
                    obs_counts,
                    steps,
                    generation,
                },
                track_open,
                tracks,
                raw_history,
                ever_alarmed,
            },
        ));
    }
    Ok(sensors)
}

const PIPELINE_MAGIC: &str = "sentinet-pipeline v1";

fn put_markov<W: fmt::Write>(out: &mut W, tag: &str, m: &MarkovState) -> fmt::Result {
    write!(out, "{tag} ")?;
    push_hex(out, m.beta)?;
    out.write_char(' ')?;
    put_opt(out, m.prev)?;
    out.write_char(' ')?;
    put_joined(out, &m.visits)?;
    out.write_char('\n')?;
    for row in &m.transition {
        put_hex_row(out, format_args!("{tag}-row"), row)?;
    }
    Ok(())
}

/// Encodes a whole pipeline's restore-point snapshot as durable
/// checkpoint text. Floating-point fields use the same IEEE-754
/// bit-pattern encoding as [`encode_shard`] (whose output forms the
/// final section), so a round-trip is bit-exact and the encoding of a
/// live pipeline equals the encoding of its restored twin.
pub fn encode_pipeline(snap: &PipelineSnapshot) -> String {
    let mut out = String::new();
    // `fmt::Write for String` never fails.
    let _ = write_pipeline(&mut out, snap);
    out
}

/// [`encode_pipeline`] appended to a caller-supplied buffer — how the
/// gateway's checkpoint embeds the pipeline without a copy.
///
/// # Errors
///
/// Whatever `out` reports; a `String` never fails.
pub fn write_pipeline<W: fmt::Write>(out: &mut W, snap: &PipelineSnapshot) -> fmt::Result {
    let g = &snap.global;
    write!(
        out,
        "{PIPELINE_MAGIC}\nwindows {}\nhistory",
        g.windows_processed
    )?;
    if g.state_history.is_empty() {
        out.write_str(" -")?;
    }
    for (w, c, o) in &g.state_history {
        out.write_char(' ')?;
        push_dec(out, *w)?;
        out.write_char(':')?;
        push_dec(out, *c as u64)?;
        out.write_char(':')?;
        push_dec(out, *o as u64)?;
    }
    writeln!(out, "\nbootstrap {}", g.bootstrap_points.len())?;
    for point in &g.bootstrap_points {
        put_hex_row(out, format_args!("bp"), point)?;
    }
    match &g.states {
        None => out.write_str("states 0\n")?,
        Some(gs) => {
            out.write_str("states 1\ncluster")?;
            let s = &gs.states;
            for v in [
                s.config.alpha,
                s.config.merge_threshold,
                s.config.spawn_threshold,
            ] {
                out.write_char(' ')?;
                push_hex(out, v)?;
            }
            writeln!(out, " {} {}", s.config.max_states, s.generation)?;
            for (centroid, active) in s.centroids.iter().zip(&s.active) {
                put_hex_row(out, format_args!("slot {}", u8::from(*active)), centroid)?;
            }
            put_estimator(out, "mco", "mco-", &gs.m_co)?;
            put_markov(out, "mc", &gs.m_c)?;
            put_markov(out, "mo", &gs.m_o)?;
        }
    }
    let w = &snap.windower;
    writeln!(
        out,
        "windower {} {} {}",
        u8::from(w.started),
        w.index,
        w.start
    )?;
    for (id, dims, data) in &w.readings {
        put_hex_row(out, format_args!("wsensor {} {dims}", id.0), data)?;
    }
    out.write_str("sensors\n")?;
    write_shard(out, &snap.sensors)
}

/// Line cursor with single-line pushback, for the sections of the
/// pipeline codec whose row counts are discovered by lookahead.
struct Cursor<'a> {
    lines: Vec<&'a str>,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            lines: text.lines().collect(),
            pos: 0,
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        let line = self.lines.get(self.pos).copied();
        if line.is_some() {
            self.pos += 1;
        }
        line
    }

    fn peek(&self) -> Option<&'a str> {
        self.lines.get(self.pos).copied()
    }

    fn fail<T>(&self, reason: impl Into<String>) -> Result<T, CheckpointError> {
        Err(CheckpointError::Malformed {
            line: self.pos,
            reason: reason.into(),
        })
    }

    fn hexf(&self, s: &str) -> Result<f64, CheckpointError> {
        u64::from_str_radix(s, 16)
            .map(f64::from_bits)
            .map_err(|e| CheckpointError::Malformed {
                line: self.pos,
                reason: format!("bad hex float `{s}`: {e}"),
            })
    }

    fn num<T: std::str::FromStr>(&self, s: &str) -> Result<T, CheckpointError>
    where
        T::Err: fmt::Display,
    {
        s.parse().map_err(|e| CheckpointError::Malformed {
            line: self.pos,
            reason: format!("bad number `{s}`: {e}"),
        })
    }

    fn hex_row(&self, rest: &str) -> Result<Vec<f64>, CheckpointError> {
        rest.split_whitespace().map(|s| self.hexf(s)).collect()
    }

    fn u64s(&self, s: &str) -> Result<Vec<u64>, CheckpointError> {
        if s.is_empty() {
            return Err(CheckpointError::Malformed {
                line: self.pos,
                reason: "empty count vector".into(),
            });
        }
        s.split(',').map(|c| self.num(c)).collect()
    }

    /// Consumes `<tag>-<suffix> …` rows while they match.
    fn rows(&mut self, prefix: &str) -> Result<Vec<Vec<f64>>, CheckpointError> {
        let mut rows = Vec::new();
        while let Some(line) = self.peek() {
            let Some(rest) = line.strip_prefix(prefix) else {
                break;
            };
            self.pos += 1;
            rows.push(self.hex_row(rest)?);
        }
        Ok(rows)
    }
}

fn parse_estimator(cur: &mut Cursor<'_>, tag: &str) -> Result<EstimatorState, CheckpointError> {
    let Some(line) = cur.next() else {
        return cur.fail(format!("truncated: missing {tag} line"));
    };
    let Some(rest) = line.strip_prefix(&format!("{tag} ")) else {
        return cur.fail(format!("expected {tag} line, got `{line}`"));
    };
    let parts: Vec<&str> = rest.split(' ').collect();
    if parts.len() != 5 {
        return cur.fail(format!("{tag} needs `beta gamma prev steps generation`"));
    }
    let beta = cur.hexf(parts[0])?;
    let gamma = cur.hexf(parts[1])?;
    let prev_state = if parts[2] == "-" {
        None
    } else {
        Some(cur.num(parts[2])?)
    };
    let steps = cur.num(parts[3])?;
    let generation = cur.num(parts[4])?;
    let a = cur.rows(&format!("{tag}-a "))?;
    let b = cur.rows(&format!("{tag}-b "))?;
    let Some(counts_line) = cur.next() else {
        return cur.fail(format!("truncated: missing {tag}-counts line"));
    };
    let Some(rest) = counts_line.strip_prefix(&format!("{tag}-counts ")) else {
        return cur.fail(format!("expected {tag}-counts line, got `{counts_line}`"));
    };
    let parts: Vec<&str> = rest.split(' ').collect();
    if parts.len() != 2 {
        return cur.fail(format!("{tag}-counts needs two vectors"));
    }
    Ok(EstimatorState {
        a,
        b,
        beta,
        gamma,
        prev_state,
        state_counts: cur.u64s(parts[0])?,
        obs_counts: cur.u64s(parts[1])?,
        steps,
        generation,
    })
}

fn parse_markov(cur: &mut Cursor<'_>, tag: &str) -> Result<MarkovState, CheckpointError> {
    let Some(line) = cur.next() else {
        return cur.fail(format!("truncated: missing {tag} line"));
    };
    let Some(rest) = line.strip_prefix(&format!("{tag} ")) else {
        return cur.fail(format!("expected {tag} line, got `{line}`"));
    };
    let parts: Vec<&str> = rest.split(' ').collect();
    if parts.len() != 3 {
        return cur.fail(format!("{tag} needs `beta prev visits`"));
    }
    let beta = cur.hexf(parts[0])?;
    let prev = if parts[1] == "-" {
        None
    } else {
        Some(cur.num(parts[1])?)
    };
    let visits = cur.u64s(parts[2])?;
    let transition = cur.rows(&format!("{tag}-row "))?;
    Ok(MarkovState {
        transition,
        beta,
        prev,
        visits,
    })
}

/// Decodes checkpoint text produced by [`encode_pipeline`].
///
/// # Errors
///
/// [`CheckpointError::Malformed`] on any syntax problem. Semantic
/// validation (stochastic rows, structural invariants) happens when the
/// snapshot is restored into a pipeline.
pub fn decode_pipeline(text: &str) -> Result<PipelineSnapshot, CheckpointError> {
    let Some((head, shard_text)) = text.split_once("\nsensors\n") else {
        return Err(CheckpointError::Malformed {
            line: 1,
            reason: "missing `sensors` section".into(),
        });
    };
    let mut cur = Cursor::new(head);
    match cur.next() {
        Some(PIPELINE_MAGIC) => {}
        Some(other) => return cur.fail(format!("bad pipeline magic `{other}`")),
        None => return cur.fail("empty pipeline snapshot"),
    }

    let windows_processed = match cur.next().and_then(|l| l.strip_prefix("windows ")) {
        Some(n) => cur.num(n)?,
        None => return cur.fail("expected `windows <n>`"),
    };
    let Some(history_line) = cur.next().and_then(|l| l.strip_prefix("history")) else {
        return cur.fail("expected history line");
    };
    let mut state_history = Vec::new();
    for item in history_line.split_whitespace() {
        if item == "-" {
            continue;
        }
        let mut it = item.split(':');
        let (Some(w), Some(c), Some(o), None) = (it.next(), it.next(), it.next(), it.next()) else {
            return cur.fail(format!("bad history entry `{item}`"));
        };
        state_history.push((cur.num(w)?, cur.num(c)?, cur.num(o)?));
    }
    let bootstrap_count: usize = match cur.next().and_then(|l| l.strip_prefix("bootstrap ")) {
        Some(n) => cur.num(n)?,
        None => return cur.fail("expected `bootstrap <n>`"),
    };
    let mut bootstrap_points = Vec::with_capacity(bootstrap_count);
    for _ in 0..bootstrap_count {
        match cur.next().and_then(|l| l.strip_prefix("bp ")) {
            Some(rest) => bootstrap_points.push(cur.hex_row(rest)?),
            None => return cur.fail("truncated bootstrap points"),
        }
    }

    let states = match cur.next() {
        Some("states 0") => None,
        Some("states 1") => {
            let Some(rest) = cur.next().and_then(|l| l.strip_prefix("cluster ")) else {
                return cur.fail("expected cluster line");
            };
            let parts: Vec<&str> = rest.split(' ').collect();
            if parts.len() != 5 {
                return cur.fail("cluster needs `alpha merge spawn max generation`");
            }
            let config = sentinet_cluster::ClusterConfig {
                alpha: cur.hexf(parts[0])?,
                merge_threshold: cur.hexf(parts[1])?,
                spawn_threshold: cur.hexf(parts[2])?,
                max_states: cur.num(parts[3])?,
            };
            let generation = cur.num(parts[4])?;
            let mut centroids = Vec::new();
            let mut active = Vec::new();
            while let Some(line) = cur.peek() {
                let Some(rest) = line.strip_prefix("slot ") else {
                    break;
                };
                cur.pos += 1;
                let (flag, row) = match rest.split_once(' ') {
                    Some((f, r)) => (f, r),
                    None => (rest, ""),
                };
                active.push(match flag {
                    "0" => false,
                    "1" => true,
                    other => return cur.fail(format!("bad slot flag `{other}`")),
                });
                centroids.push(cur.hex_row(row)?);
            }
            let m_co = parse_estimator(&mut cur, "mco")?;
            let m_c = parse_markov(&mut cur, "mc")?;
            let m_o = parse_markov(&mut cur, "mo")?;
            Some(GlobalStates {
                states: StatesSnapshot {
                    centroids,
                    active,
                    config,
                    generation,
                },
                m_co,
                m_c,
                m_o,
            })
        }
        _ => return cur.fail("expected `states 0|1`"),
    };

    let Some(rest) = cur.next().and_then(|l| l.strip_prefix("windower ")) else {
        return cur.fail("expected windower line");
    };
    let parts: Vec<&str> = rest.split(' ').collect();
    if parts.len() != 3 {
        return cur.fail("windower needs `started index start`");
    }
    let started = match parts[0] {
        "0" => false,
        "1" => true,
        other => return cur.fail(format!("bad windower started flag `{other}`")),
    };
    let index = cur.num(parts[1])?;
    let start = cur.num(parts[2])?;
    let mut readings = Vec::new();
    while let Some(line) = cur.next() {
        let Some(rest) = line.strip_prefix("wsensor ") else {
            return cur.fail(format!("expected wsensor line, got `{line}`"));
        };
        let mut it = rest.splitn(3, ' ');
        let (Some(id), Some(dims)) = (it.next(), it.next()) else {
            return cur.fail("wsensor needs `id dims values…`");
        };
        let id = SensorId(cur.num(id)?);
        let dims: usize = cur.num(dims)?;
        let data = cur.hex_row(it.next().unwrap_or(""))?;
        if dims == 0 || !data.len().is_multiple_of(dims) {
            return cur.fail(format!(
                "wsensor data length {} not a multiple of dims {dims}",
                data.len()
            ));
        }
        readings.push((id, dims, data));
    }

    let sensors = decode_shard(shard_text)?;
    Ok(PipelineSnapshot {
        global: GlobalSnapshot {
            windows_processed,
            state_history,
            bootstrap_points,
            states,
        },
        windower: WindowerSnapshot {
            started,
            index,
            start,
            readings,
        },
        sensors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FilterPolicy, PipelineConfig};
    use crate::runtime::SensorRuntime;

    fn runtime_with_history(config: &PipelineConfig) -> SensorRuntime {
        let mut rt = SensorRuntime::new(config, 3);
        for w in 0..12u64 {
            // Disagreements on a burst so tracks open, close, reopen.
            let label = if (3..7).contains(&w) || w >= 10 { 2 } else { 1 };
            rt.step(w, label, 1);
        }
        rt
    }

    #[test]
    fn shard_codec_round_trips_kofn_and_sprt() {
        for filter in [
            FilterPolicy::KOfN { k: 2, n: 4 },
            FilterPolicy::Sprt {
                p0: 0.05,
                p1: 0.6,
                alpha: 0.01,
                beta: 0.01,
            },
        ] {
            let config = PipelineConfig {
                filter,
                ..PipelineConfig::default()
            };
            let shard = vec![
                (SensorId(0), runtime_with_history(&config).snapshot()),
                (SensorId(7), SensorRuntime::new(&config, 2).snapshot()),
            ];
            let decoded = decode_shard(&encode_shard(&shard)).expect("round trip");
            assert_eq!(decoded, shard);
        }
    }

    #[test]
    fn decode_reports_offending_line() {
        let config = PipelineConfig::default();
        let shard = vec![(SensorId(1), runtime_with_history(&config).snapshot())];
        let mut text = encode_shard(&shard);
        text = text.replace("alarmed", "alarme");
        let err = decode_shard(&text).expect_err("corrupted");
        match err {
            CheckpointError::Malformed { line, .. } => assert!(line > 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_bad_magic_and_empty() {
        assert!(decode_shard("").is_err());
        assert!(decode_shard("not a checkpoint\n").is_err());
    }

    fn sample_pipeline_snapshot(with_states: bool) -> PipelineSnapshot {
        let config = PipelineConfig::default();
        let states = with_states.then(|| GlobalStates {
            states: StatesSnapshot {
                centroids: vec![vec![1.5, -2.25], vec![0.125, 7.75], vec![0.0, 0.0]],
                active: vec![true, true, false],
                config: sentinet_cluster::ClusterConfig::default(),
                generation: 4,
            },
            m_co: {
                let mut est = sentinet_hmm::OnlineHmmEstimator::new(3, 3, 0.9, 0.9).unwrap();
                est.observe(0, 1).unwrap();
                est.observe(1, 1).unwrap();
                est.export_state()
            },
            m_c: {
                let mut m = sentinet_hmm::OnlineMarkovEstimator::new(3, 0.9).unwrap();
                m.observe(0).unwrap();
                m.observe(2).unwrap();
                m.export_state()
            },
            m_o: sentinet_hmm::OnlineMarkovEstimator::new(3, 0.9)
                .unwrap()
                .export_state(),
        });
        PipelineSnapshot {
            global: GlobalSnapshot {
                windows_processed: 17,
                state_history: vec![(3, 2, 2), (4, 3, 2)],
                bootstrap_points: vec![vec![1.0, 2.0], vec![-0.5, f64::MIN_POSITIVE]],
                states,
            },
            windower: WindowerSnapshot {
                started: true,
                index: 17,
                start: 17 * 3600,
                readings: vec![(SensorId(0), 2, vec![20.5, 50.0, 21.0, 49.5])],
            },
            sensors: vec![
                (SensorId(0), runtime_with_history(&config).snapshot()),
                (SensorId(3), SensorRuntime::new(&config, 2).snapshot()),
            ],
        }
    }

    #[test]
    fn pipeline_codec_round_trips_with_and_without_states() {
        for with_states in [false, true] {
            let snap = sample_pipeline_snapshot(with_states);
            let decoded = decode_pipeline(&encode_pipeline(&snap)).expect("round trip");
            assert_eq!(decoded, snap);
        }
    }

    #[test]
    fn pipeline_decode_rejects_malformed() {
        let snap = sample_pipeline_snapshot(true);
        let text = encode_pipeline(&snap);
        assert!(decode_pipeline("").is_err());
        assert!(decode_pipeline("bad magic\nsensors\n").is_err());
        assert!(decode_pipeline(&text.replace("\nsensors\n", "\n")).is_err());
        assert!(decode_pipeline(&text.replace("windower 1", "windower 2")).is_err());
        assert!(decode_pipeline(&text.replace("mco-counts", "mco-count")).is_err());
        let err = decode_pipeline(&text.replace("cluster ", "clutter ")).expect_err("corrupt");
        match err {
            CheckpointError::Malformed { line, .. } => assert!(line > 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn restored_runtime_continues_bit_identically() {
        let config = PipelineConfig::default();
        let mut original = runtime_with_history(&config);
        let decoded =
            decode_shard(&encode_shard(&[(SensorId(0), original.snapshot())])).expect("round trip");
        let mut restored =
            SensorRuntime::from_snapshot(decoded[0].1.clone()).expect("valid snapshot");
        for w in 12..30u64 {
            let label = if w % 3 == 0 { 2 } else { 1 };
            assert_eq!(original.step(w, label, 1), restored.step(w, label, 1));
        }
        assert_eq!(original.m_ce(), restored.m_ce());
        assert_eq!(original.tracks(), restored.tracks());
    }
}
