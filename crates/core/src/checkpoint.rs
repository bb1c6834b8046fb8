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
//! The durable format is the line-based text of `DESIGN.md` §12.5, and
//! this module holds the one kit every such text in the workspace is
//! written and read with: the writer primitives ([`push_hex`],
//! [`push_dec`], [`put_opt`], [`put_joined`]) and the streaming
//! [`Reader`] with its [`Fields`]. Floats travel as the hexadecimal
//! IEEE-754 bit pattern, so a round-trip is bit-exact — the property
//! the engine's kill-anywhere determinism proof rests on — and the
//! reader accepts only what the writers emit, so whatever decodes
//! re-encodes to the bytes read. [`encode_shard`]/[`decode_shard`] and
//! [`encode_pipeline`]/[`decode_pipeline`] are the two codecs defined
//! here; the pipeline text ends in a shard section, read by the same
//! reader. The `serde` derives on the snapshot types are the
//! workspace's usual offline marker stubs (see `vendor/README.md`);
//! they document intent but do no serialization.

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
///
/// # Errors
///
/// Whatever `out` reports; a `String` never fails.
pub fn put_joined<W: fmt::Write>(out: &mut W, v: &[u64]) -> fmt::Result {
    for (i, n) in v.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        push_dec(out, *n)?;
    }
    Ok(())
}

/// `Some(n)` as the number, `None` as `-`.
///
/// # Errors
///
/// Whatever `out` reports; a `String` never fails.
pub fn put_opt<W: fmt::Write, T: fmt::Display>(out: &mut W, v: Option<T>) -> fmt::Result {
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

fn malformed<T>(line: usize, reason: impl Into<String>) -> Result<T, CheckpointError> {
    Err(CheckpointError::Malformed {
        line,
        reason: reason.into(),
    })
}

/// The one line reader every durable text format decodes through —
/// shard, pipeline and collector snapshots, the gateway's sidecar files
/// and the report counters (grammar: `DESIGN.md` §12.5). It streams over
/// `\n`-separated lines, counting them from 1 in the text handed to the
/// outermost decoder, so a nested section reports absolute positions,
/// and it accepts exactly what the writers above emit: whatever decodes
/// re-encodes to the bytes read. Every failure, here and in
/// [`Fields`], is a [`CheckpointError::Malformed`] naming the line.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a str,
    line: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the first line of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            rest: text,
            line: 0,
        }
    }

    /// The unread remainder of the text.
    pub fn rest(&self) -> &'a str {
        self.rest
    }

    /// The next line, not consumed.
    pub fn peek(&self) -> Option<&'a str> {
        let end = self.rest.find('\n').unwrap_or(self.rest.len());
        (!self.rest.is_empty()).then(|| &self.rest[..end])
    }

    /// Consumes the next line, whose fields are `rest`.
    fn take(&mut self, line: &str, rest: Option<&'a str>) -> Fields<'a> {
        self.rest = self.rest.get(line.len() + 1..).unwrap_or("");
        self.line += 1;
        Fields {
            rest,
            sep: b' ',
            line: self.line,
        }
    }

    /// Fails at the last consumed line.
    pub fn fail<T>(&self, reason: impl Into<String>) -> Result<T, CheckpointError> {
        malformed(self.line, reason)
    }

    /// Fails at the next line, which is not the `wanted` one — or at
    /// the last, when the text ended before it.
    fn unexpected<T>(&self, wanted: &str) -> Result<T, CheckpointError> {
        match self.peek() {
            Some(line) => malformed(self.line + 1, format!("expected {wanted}, got `{line}`")),
            None => self.fail(format!("truncated: missing {wanted}")),
        }
    }

    /// Consumes a line that must read exactly `literal`: a magic
    /// header, a section marker, a terminator.
    pub fn marker(&mut self, literal: &str) -> Result<(), CheckpointError> {
        match self.peek() {
            Some(line) if line == literal => {
                self.take(line, None);
                Ok(())
            }
            _ => self.unexpected(&format!("`{literal}`")),
        }
    }

    /// Consumes the next line whole, as space-separated fields.
    pub fn fields(&mut self) -> Option<Fields<'a>> {
        let line = self.peek()?;
        Some(self.take(line, Some(line)))
    }

    /// Consumes the next line if its first field is `tag`, yielding
    /// the fields after it — the lookahead that ends a run of rows.
    pub fn tagged_if(&mut self, tag: &str) -> Option<Fields<'a>> {
        let line = self.peek()?;
        let rest = line.strip_prefix(tag)?;
        let rest = match rest.strip_prefix(' ') {
            Some(fields) => Some(fields),
            None if rest.is_empty() => None,
            None => return None,
        };
        Some(self.take(line, rest))
    }

    /// Consumes a line that must open with `tag`.
    pub fn tagged(&mut self, tag: &str) -> Result<Fields<'a>, CheckpointError> {
        match self.tagged_if(tag) {
            Some(fields) => Ok(fields),
            None => self.unexpected(&format!("`{tag}` line")),
        }
    }

    /// Consumes a `tag <field>` line holding the one field `read`
    /// parses: `r.single("cursor", Fields::num)`.
    pub fn single<T>(
        &mut self,
        tag: &str,
        read: impl FnOnce(&mut Fields<'a>) -> Result<T, CheckpointError>,
    ) -> Result<T, CheckpointError> {
        let mut fields = self.tagged(tag)?;
        let value = read(&mut fields)?;
        fields.end()?;
        Ok(value)
    }

    /// Consumes every consecutive `tag <hex>…` line, one row each.
    pub fn rows(&mut self, tag: &str) -> Result<Vec<Vec<f64>>, CheckpointError> {
        let mut rows = Vec::new();
        while let Some(fields) = self.tagged_if(tag) {
            rows.push(fields.hex_row()?);
        }
        Ok(rows)
    }

    /// Consumes a `tag item item…` line (`tag -` when there are none),
    /// each item's `:`-separated parts read by `item`: `3:7 10:-`.
    pub fn list<T>(
        &mut self,
        tag: &str,
        mut item: impl FnMut(&mut Fields<'a>) -> Result<T, CheckpointError>,
    ) -> Result<Vec<T>, CheckpointError> {
        let fields = self.tagged(tag)?;
        let mut items = Vec::new();
        match fields.rest {
            None => return fields.fail("missing list (`-` for empty)"),
            Some("-") => {}
            Some(list) => {
                for parts in list.split(' ') {
                    let mut parts = Fields {
                        rest: Some(parts),
                        sep: b':',
                        line: fields.line,
                    };
                    items.push(item(&mut parts)?);
                    parts.end()?;
                }
            }
        }
        Ok(items)
    }

    /// Requires that every line has been consumed.
    pub fn finish(&self) -> Result<(), CheckpointError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => self.unexpected("end of text"),
        }
    }
}

/// The fields of one line — or, inside [`Reader::list`], the parts of
/// one `a:b` item — taken left to right. Every parser is strict: a
/// number is canonical decimal, a float is 16 lowercase hex digits, a
/// flag is `0` or `1`, `-` stands for none or empty only where the
/// method says so, and separators are single.
#[derive(Debug, Clone)]
pub struct Fields<'a> {
    rest: Option<&'a str>,
    sep: u8,
    line: usize,
}

impl<'a> Fields<'a> {
    /// Fails at this line.
    pub fn fail<T>(&self, reason: impl Into<String>) -> Result<T, CheckpointError> {
        malformed(self.line, reason)
    }

    /// The next field, verbatim.
    pub fn token(&mut self) -> Result<&'a str, CheckpointError> {
        let Some(rest) = self.rest else {
            return self.fail("missing field");
        };
        // A byte loop: fields are short, and the separators are ASCII,
        // so the cut is always a character boundary.
        let (token, rest) = match rest.bytes().position(|b| b == self.sep) {
            Some(at) => (&rest[..at], Some(&rest[at + 1..])),
            None => (rest, None),
        };
        self.rest = rest;
        Ok(token)
    }

    /// Requires that every field has been taken.
    pub fn end(&self) -> Result<(), CheckpointError> {
        match self.rest {
            None => Ok(()),
            Some(extra) => self.fail(format!("unexpected trailing `{extra}`")),
        }
    }

    fn parse_num<T: std::str::FromStr>(&self, s: &str) -> Result<T, CheckpointError> {
        let canonical = s == "0" || (!s.starts_with('0') && s.bytes().all(|b| b.is_ascii_digit()));
        match s.parse() {
            Ok(n) if canonical => Ok(n),
            _ => self.fail(format!("bad number `{s}`")),
        }
    }

    /// The next field as an unsigned decimal exactly as [`push_dec`]
    /// writes it: no sign, no leading zeros, in range for `T`.
    pub fn num<T: std::str::FromStr>(&mut self) -> Result<T, CheckpointError> {
        let token = self.token()?;
        self.parse_num(token)
    }

    /// The next field as [`Fields::num`], or `None` for `-`.
    pub fn opt<T: std::str::FromStr>(&mut self) -> Result<Option<T>, CheckpointError> {
        match self.token()? {
            "-" => Ok(None),
            token => self.parse_num(token).map(Some),
        }
    }

    /// The next field as a comma-joined vector of at least one number.
    pub fn nums<T: std::str::FromStr>(&mut self) -> Result<Vec<T>, CheckpointError> {
        let token = self.token()?;
        token.split(',').map(|n| self.parse_num(n)).collect()
    }

    /// The closing field as [`Fields::nums`], or empty for `-`.
    pub fn opt_nums<T: std::str::FromStr>(&mut self) -> Result<Vec<T>, CheckpointError> {
        match self.rest {
            Some("-") => self.token().map(|_| Vec::new()),
            _ => self.nums(),
        }
    }

    /// The next field as a float exactly as [`push_hex`] writes it.
    pub fn hex(&mut self) -> Result<f64, CheckpointError> {
        let s = self.token()?;
        // `from_str_radix` also takes upper case and a sign; the fixed
        // width makes ruling those out one branch-free pass.
        let canonical = <&[u8; 16]>::try_from(s.as_bytes()).is_ok_and(|digits| {
            digits
                .iter()
                .fold(true, |ok, b| ok & !(b.is_ascii_uppercase() | (*b == b'+')))
        });
        match u64::from_str_radix(s, 16) {
            Ok(bits) if canonical => Ok(f64::from_bits(bits)),
            _ => self.fail(format!("bad hex float `{s}`")),
        }
    }

    /// Every remaining field as a float.
    pub fn hex_row(mut self) -> Result<Vec<f64>, CheckpointError> {
        let mut row = Vec::new();
        while self.rest.is_some() {
            row.push(self.hex()?);
        }
        Ok(row)
    }

    /// The next field as a flag: `0` or `1`, nothing else.
    pub fn flag(&mut self) -> Result<bool, CheckpointError> {
        match self.token()? {
            "0" => Ok(false),
            "1" => Ok(true),
            other => self.fail(format!("bad flag `{other}` (expected 0 or 1)")),
        }
    }
}

/// One estimator block: the `tag` header line, then `a`, `b` and
/// `counts` rows named with the `rows` prefix — [`put_estimator`]'s
/// inverse.
fn parse_estimator(
    r: &mut Reader<'_>,
    tag: &str,
    rows: &str,
) -> Result<EstimatorState, CheckpointError> {
    let mut f = r.tagged(tag)?;
    let (beta, gamma, prev_state) = (f.hex()?, f.hex()?, f.opt()?);
    let (steps, generation) = (f.num()?, f.num()?);
    f.end()?;
    let a = r.rows(&format!("{rows}a"))?;
    let b = r.rows(&format!("{rows}b"))?;
    let mut f = r.tagged(&format!("{rows}counts"))?;
    let (state_counts, obs_counts) = (f.nums()?, f.nums()?);
    f.end()?;
    Ok(EstimatorState {
        a,
        b,
        beta,
        gamma,
        prev_state,
        state_counts,
        obs_counts,
        steps,
        generation,
    })
}

/// Decodes checkpoint text produced by [`encode_shard`].
///
/// # Errors
///
/// [`CheckpointError::Malformed`] on any syntax problem, with the
/// offending line. Semantic validation (stochastic rows etc.) happens
/// when the snapshot is restored into a runtime.
pub fn decode_shard(text: &str) -> Result<Vec<(SensorId, SensorSnapshot)>, CheckpointError> {
    let mut r = Reader::new(text);
    let sensors = read_shard(&mut r)?;
    r.finish()?;
    Ok(sensors)
}

/// [`decode_shard`] from wherever `r` stands — the closing section of
/// a pipeline snapshot — up to the first line that opens no sensor.
fn read_shard(r: &mut Reader<'_>) -> Result<Vec<(SensorId, SensorSnapshot)>, CheckpointError> {
    r.marker(MAGIC)?;
    let mut sensors = Vec::new();
    while let Some(mut f) = r.tagged_if("sensor") {
        let id = SensorId(f.num()?);
        f.end()?;
        let mut f = r.tagged("filter")?;
        let filter = match f.token()? {
            "kofn" => FilterSnapshot::KOfN {
                k: f.num()?,
                n: f.num()?,
                window: match f.token()? {
                    "-" => Vec::new(),
                    "" => return f.fail("empty filter window (`-` for none)"),
                    bits => bits
                        .bytes()
                        .map(|bit| match bit {
                            b'0' => Ok(false),
                            b'1' => Ok(true),
                            _ => f.fail(format!("bad filter window `{bits}`")),
                        })
                        .collect::<Result<_, _>>()?,
                },
            },
            "sprt" => FilterSnapshot::Sprt {
                llr_true: f.hex()?,
                llr_false: f.hex()?,
                upper: f.hex()?,
                lower: f.hex()?,
                llr: f.hex()?,
                steps: f.num()?,
                raised: f.flag()?,
            },
            other => return f.fail(format!("unknown filter kind `{other}`")),
        };
        f.end()?;
        let snapshot = SensorSnapshot {
            filter,
            m_ce: parse_estimator(r, "mce", "")?,
            track_open: r.single("track", Fields::flag)?,
            tracks: r.list("tracks", |t| {
                Ok(TrackRecord {
                    opened: t.num()?,
                    closed: t.opt()?,
                })
            })?,
            raw_history: r.list("raw", |w| Ok((w.num()?, w.flag()?)))?,
            ever_alarmed: r.single("alarmed", Fields::flag)?,
        };
        r.marker("end")?;
        sensors.push((id, snapshot));
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

fn parse_markov(r: &mut Reader<'_>, tag: &str) -> Result<MarkovState, CheckpointError> {
    let mut f = r.tagged(tag)?;
    let (beta, prev, visits) = (f.hex()?, f.opt()?, f.nums()?);
    f.end()?;
    Ok(MarkovState {
        transition: r.rows(&format!("{tag}-row"))?,
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
    let mut r = Reader::new(text);
    let snap = read_pipeline(&mut r)?;
    r.finish()?;
    Ok(snap)
}

/// [`decode_pipeline`] from wherever `r` stands — the closing section
/// of a collector snapshot.
///
/// # Errors
///
/// As [`decode_pipeline`], with lines counted from the start of `r`'s
/// text.
pub fn read_pipeline(r: &mut Reader<'_>) -> Result<PipelineSnapshot, CheckpointError> {
    r.marker(PIPELINE_MAGIC)?;
    let windows_processed = r.single("windows", Fields::num)?;
    let state_history = r.list("history", |h| Ok((h.num()?, h.num()?, h.num()?)))?;
    // The declared count is checked against the rows actually read,
    // never used to size anything.
    let declared: usize = r.single("bootstrap", Fields::num)?;
    let bootstrap_points = r.rows("bp")?;
    if bootstrap_points.len() != declared {
        return r.fail(format!(
            "bootstrap declares {declared} points, {} follow",
            bootstrap_points.len()
        ));
    }
    let states = if r.single("states", Fields::flag)? {
        let mut f = r.tagged("cluster")?;
        let config = sentinet_cluster::ClusterConfig {
            alpha: f.hex()?,
            merge_threshold: f.hex()?,
            spawn_threshold: f.hex()?,
            max_states: f.num()?,
        };
        let generation = f.num()?;
        f.end()?;
        let (mut centroids, mut active) = (Vec::new(), Vec::new());
        while let Some(mut f) = r.tagged_if("slot") {
            active.push(f.flag()?);
            centroids.push(f.hex_row()?);
        }
        Some(GlobalStates {
            states: StatesSnapshot {
                centroids,
                active,
                config,
                generation,
            },
            m_co: parse_estimator(r, "mco", "mco-")?,
            m_c: parse_markov(r, "mc")?,
            m_o: parse_markov(r, "mo")?,
        })
    } else {
        None
    };
    let mut f = r.tagged("windower")?;
    let (started, index, start) = (f.flag()?, f.num()?, f.num()?);
    f.end()?;
    let mut readings = Vec::new();
    while let Some(mut f) = r.tagged_if("wsensor") {
        let (id, dims) = (SensorId(f.num()?), f.num::<usize>()?);
        let data = f.hex_row()?;
        if dims == 0 || !data.len().is_multiple_of(dims) {
            return r.fail(format!(
                "wsensor data length {} not a multiple of dims {dims}",
                data.len()
            ));
        }
        readings.push((id, dims, data));
    }
    r.marker("sensors")?;
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
        sensors: read_shard(r)?,
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

    /// 1-based number of the first line of `text` that is `line`.
    fn line_of(text: &str, line: &str) -> usize {
        1 + text
            .split('\n')
            .position(|l| l == line)
            .unwrap_or_else(|| panic!("no line `{line}`"))
    }

    fn malformed_line<T: fmt::Debug>(outcome: Result<T, CheckpointError>) -> usize {
        match outcome {
            Err(CheckpointError::Malformed { line, .. }) => line,
            other => panic!("expected a malformed-line error, got {other:?}"),
        }
    }

    /// The declared bootstrap count is untrusted input: it used to size
    /// a `Vec::with_capacity` and panic with `capacity overflow`.
    #[test]
    fn inflated_bootstrap_count_is_malformed_not_a_panic() {
        let text = encode_pipeline(&sample_pipeline_snapshot(true));
        let inflated = text.replace("\nbootstrap 2\n", "\nbootstrap 18446744073709551615\n");
        let last_point = line_of(&text, "bootstrap 2") + 2;
        assert_eq!(malformed_line(decode_pipeline(&inflated)), last_point);
        let short = text.replace("\nbootstrap 2\n", "\nbootstrap 1\n");
        assert_eq!(malformed_line(decode_pipeline(&short)), last_point);
    }

    /// One reader runs through every nested section, so the reported
    /// line is the line in the text that was handed in — at the shard
    /// level and one level up, where the shard section used to restart
    /// at 1.
    #[test]
    fn nested_sections_report_absolute_lines() {
        let snap = sample_pipeline_snapshot(true);
        let shard = encode_shard(&snap.sensors).replace("sensor 3", "sensor x");
        assert_eq!(
            malformed_line(decode_shard(&shard)),
            line_of(&shard, "sensor x")
        );
        let pipeline = encode_pipeline(&snap).replace("sensor 3", "sensor x");
        let at = line_of(&pipeline, "sensor x");
        assert!(at > line_of(&pipeline, "sensors") + 2, "inside the section");
        assert_eq!(malformed_line(decode_pipeline(&pipeline)), at);
    }

    /// Every flag is `0` or `1`; the SPRT `raised` field and the raw
    /// history used to read any other token as `false`.
    #[test]
    fn flags_are_strictly_zero_or_one() {
        let config = PipelineConfig {
            filter: FilterPolicy::Sprt {
                p0: 0.05,
                p1: 0.6,
                alpha: 0.01,
                beta: 0.01,
            },
            ..PipelineConfig::default()
        };
        let text = encode_shard(&[(SensorId(0), runtime_with_history(&config).snapshot())]);
        assert!(decode_shard(&text).is_ok());
        let raw = text.replace("\nraw 0:0 ", "\nraw 0:3 ");
        assert_eq!(malformed_line(decode_shard(&raw)), line_of(&raw, "end") - 2);
        let filter = text.lines().nth(2).expect("filter line");
        assert!(filter.starts_with("filter sprt "));
        let raised = text.replace(filter, &format!("{}3", &filter[..filter.len() - 1]));
        assert_eq!(malformed_line(decode_shard(&raised)), 3);
        for (flag, bad) in [("track 1", "track 2"), ("alarmed 1", "alarmed yes")] {
            let bad = text.replace(flag, bad);
            assert!(text.contains(flag), "{flag}");
            assert!(decode_shard(&bad).is_err(), "{flag}");
        }
    }

    /// Filter bounds a live filter asserts are semantic errors when
    /// they come from a restore point (`k` scaled past `n` used to
    /// panic in `KOfNFilter::from_parts` at collector open).
    #[test]
    fn out_of_bounds_filter_parts_are_invalid_not_a_panic() {
        let config = PipelineConfig::default();
        let text = encode_shard(&[(SensorId(0), SensorRuntime::new(&config, 2).snapshot())]);
        let scaled = text.replace("filter kofn 6 10 ", "filter kofn 60 10 ");
        let decoded = decode_shard(&scaled).expect("syntactically fine");
        assert!(matches!(
            SensorRuntime::from_snapshot(decoded[0].1.clone()),
            Err(CheckpointError::Invalid(_))
        ));
    }

    /// The reader's field parsers accept the writers' output and
    /// nothing else.
    #[test]
    fn fields_accept_only_canonical_forms() {
        let mut r =
            Reader::new("n 7 07 +7 -\nh 3ff0000000000000 3FF0000000000000 3ff0\nv 1,2 - 1,,2\n");
        let mut f = r.tagged("n").expect("tag");
        assert_eq!(f.num::<u8>(), Ok(7));
        assert!(f.num::<u8>().is_err(), "leading zero");
        assert!(f.num::<u8>().is_err(), "sign");
        assert_eq!(f.opt::<u8>(), Ok(None));
        assert!(f.token().is_err(), "exhausted");
        let mut f = r.tagged("h").expect("tag");
        assert_eq!(f.hex(), Ok(1.0));
        assert!(f.hex().is_err(), "upper case");
        assert!(f.hex().is_err(), "short");
        let mut f = r.tagged("v").expect("tag");
        assert_eq!(f.nums::<u64>(), Ok(vec![1, 2]));
        assert!(f.nums::<u64>().is_err(), "`-` is not a vector here");
        assert!(f.nums::<u64>().is_err(), "empty element");
        assert_eq!(r.tagged_if("v").map(|_| ()), None);
        assert_eq!(r.finish(), Ok(()));
        let mut r = Reader::new("list 1:2 3:-\nlist -\nlist\nlist  1:2\n");
        let pair = |p: &mut Fields<'_>| Ok((p.num::<u8>()?, p.opt::<u8>()?));
        assert_eq!(r.list("list", pair), Ok(vec![(1, Some(2)), (3, None)]));
        assert_eq!(r.list("list", pair), Ok(vec![]));
        assert_eq!(malformed_line(r.list("list", pair)), 3);
        assert_eq!(malformed_line(r.list("list", pair)), 4);
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
