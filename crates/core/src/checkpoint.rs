//! Checkpoint snapshots of per-sensor pipeline state.
//!
//! A restore point carries every [`SensorRuntime`](crate::SensorRuntime)
//! so a restarted collector resumes without losing model state. A
//! [`SensorSnapshot`] is plain data — the alarm filter's
//! [`FilterSnapshot`], the `M_CE` as an [`MceSnapshot`] (its prior, or
//! the estimator with its generation counter), the tracks and the
//! raw-alarm history — so it crosses thread boundaries freely and can
//! be serialized.
//!
//! The durable format is the line-based text of `DESIGN.md` §12.5, and
//! this module holds the one kit every such text in the workspace is
//! written and read with: the writer primitives ([`push_hex`],
//! [`push_dec`], [`put_opt`], [`put_joined`]) and the streaming
//! [`Reader`] with its [`Fields`]. Floats travel as the hexadecimal
//! IEEE-754 bit pattern, so a round-trip is bit-exact — the property
//! the engine's kill-anywhere determinism proof rests on — and the
//! reader accepts only what the writers emit, so whatever decodes
//! re-encodes to the bytes read. [`encode_pipeline`]/[`decode_pipeline`]
//! is the codec defined here, and the only serialization the snapshot
//! types have; the pipeline text ends in a shard section of every
//! sensor, read by the same reader. It writes layout v5: the state, and
//! nothing derived from it, each raw-alarm history as runs of equal
//! flags, a row's `+0.0` cell as `0`. The reader also takes v1 to v4
//! text by its magic, reading what those layouts also wrote for syntax
//! and dropping it; a derived field that disagrees with the state it
//! copies is malformed.

use crate::runtime::{AlarmRun, IdentityPrior, TrackRecord};
use sentinet_cluster::StatesSnapshot;
use sentinet_filter::FilterSnapshot;
use sentinet_hmm::{EstimatorState, MarkovState};
use sentinet_sim::SensorId;
use std::fmt;

/// Plain-data image of one [`SensorRuntime`](crate::SensorRuntime),
/// produced by [`SensorRuntime::snapshot`](crate::SensorRuntime::snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct SensorSnapshot {
    /// Alarm-filter state.
    pub filter: FilterSnapshot,
    /// The `M_CE`: its prior, or the estimator.
    pub m_ce: MceSnapshot,
    /// All tracks opened so far; the last one may be open.
    pub tracks: Vec<TrackRecord>,
    /// Raw-alarm history as maximal runs, strictly ascending.
    pub raw_runs: Vec<AlarmRun>,
}

/// A sensor's `M_CE` in a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum MceSnapshot {
    /// An `M_CE` without visits.
    Prior(IdentityPrior),
    /// An estimator with at least one visit, and no chain.
    Built(EstimatorState),
}

/// Plain-data image of the in-progress observation window, produced by
/// [`Windower::snapshot`](crate::Windower::snapshot). Only sensors with
/// at least one delivered reading appear, so a live windower (whose
/// recycled windows keep cleared per-sensor buffers around) and a
/// restored one encode identically.
#[derive(Debug, Clone, PartialEq)]
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
/// and the estimator installed with them at bootstrap.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalStates {
    /// The evolving model-state set.
    pub states: StatesSnapshot,
    /// The `M_CO` (correct → observable) estimator; its transition
    /// half is the `M_C` Markov model of the correct states.
    pub m_co: EstimatorState,
}

/// Plain-data image of the [`GlobalModel`](crate::GlobalModel),
/// produced by [`GlobalModel::snapshot`](crate::GlobalModel::snapshot).
///
/// The model's RNG is deliberately *not* captured: it is consumed only
/// by the bootstrap k-means call that installs the states. Before
/// bootstrap it is still virgin (re-seeding from `config.seed` restores
/// it exactly); after bootstrap it is never drawn from again, so its
/// position is irrelevant to all future behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalSnapshot {
    /// Decisive windows processed so far.
    pub windows_processed: u64,
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
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSnapshot {
    /// The global model.
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

/// The shard magic of layouts v1 to v5; only v5 is written. v4 wrote
/// a row's `+0.0` cell as 16 digits; v3 also each raw-alarm window as a
/// token of its own; v2 also the
/// decisive-window `history` and each sensor's `track` and `alarmed`
/// flags; v1 on top of that `M_CE`'s **A**, β and previous state,
/// `counts` twice and the `mc`/`mo` blocks.
const MAGICS: [&str; 5] = [
    "sentinet-checkpoint v1",
    "sentinet-checkpoint v2",
    "sentinet-checkpoint v3",
    "sentinet-checkpoint v4",
    "sentinet-checkpoint v5",
];

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

/// `tag`, then every value of `row` as ` <cell>`, then a newline: a
/// cell whose bits are `+0.0` as `0`, any other as [`push_hex`] writes
/// it (`-0.0` and NaN payloads keep their 16 digits).
fn put_hex_row<W: fmt::Write>(out: &mut W, tag: fmt::Arguments<'_>, row: &[f64]) -> fmt::Result {
    out.write_fmt(tag)?;
    for v in row {
        out.write_char(' ')?;
        if v.to_bits() == 0 {
            out.write_char('0')?;
        } else {
            push_hex(out, *v)?;
        }
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

/// One estimator: a `tag` header — β, γ and the previous state with a
/// chain, γ alone without, then the steps (the visits' sum) and the
/// generation — then `a` (with a chain), `b` and `counts` rows named
/// with the `rows` prefix (`mce`'s bare, `mco`'s `mco-b …`).
fn put_estimator<W: fmt::Write>(
    out: &mut W,
    tag: &str,
    rows: &str,
    m: &EstimatorState,
) -> fmt::Result {
    write!(out, "{tag} ")?;
    if let Some(chain) = &m.chain {
        push_hex(out, chain.beta)?;
        out.write_char(' ')?;
    }
    push_hex(out, m.gamma)?;
    if let Some(chain) = &m.chain {
        out.write_char(' ')?;
        put_opt(out, chain.prev)?;
    }
    writeln!(out, " {} {}", steps(&m.visits), m.generation)?;
    for row in m.chain.iter().flat_map(|chain| &chain.transition) {
        put_hex_row(out, format_args!("{rows}a"), row)?;
    }
    for row in &m.b {
        put_hex_row(out, format_args!("{rows}b"), row)?;
    }
    write!(out, "{rows}counts ")?;
    put_joined(out, &m.visits)?;
    out.write_char('\n')
}

/// One step a visit, wrapping: no count a text can state overflows.
fn steps(visits: &[u64]) -> u64 {
    visits.iter().fold(0, |sum, &v| sum.wrapping_add(v))
}

/// Appends the shard section closing a pipeline text: its magic, then
/// each sensor, every field written in place.
///
/// # Errors
///
/// Whatever `out` reports; a `String` never fails.
fn write_shard<W: fmt::Write>(out: &mut W, sensors: &[(SensorId, SensorSnapshot)]) -> fmt::Result {
    writeln!(out, "{}", MAGICS[4])?;
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
        match &snap.m_ce {
            MceSnapshot::Prior(p) => {
                let tag = format_args!("prior {} {}", p.slots, p.generation);
                put_hex_row(out, tag, &[p.gamma])?;
            }
            MceSnapshot::Built(m) => put_estimator(out, "mce", "", m)?,
        }
        out.write_str("tracks")?;
        if snap.tracks.is_empty() {
            out.write_str(" -")?;
        }
        for t in &snap.tracks {
            write!(out, " {}:", t.opened)?;
            put_opt(out, t.closed)?;
        }
        out.write_str("\nraw")?;
        if snap.raw_runs.is_empty() {
            out.write_str(" -")?;
        }
        for run in &snap.raw_runs {
            out.write_char(' ')?;
            push_dec(out, run.first)?;
            out.write_str(if run.raw { ":1" } else { ":0" })?;
            if run.windows > 1 {
                out.write_char(':')?;
                push_dec(out, run.windows)?;
            }
        }
        out.write_str("\nend\n")?;
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
    fn nums<T: std::str::FromStr>(&mut self) -> Result<Vec<T>, CheckpointError> {
        let token = self.token()?;
        token.split(',').map(|n| self.parse_num(n)).collect()
    }

    /// The closing field as `Fields::nums`, or empty for `-`.
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

/// The next cell of a row [`put_hex_row`] wrote in layout `layout`: as
/// [`Fields::hex`], but from v5 on `+0.0` is `0` and only `0`.
fn cell(f: &mut Fields<'_>, layout: u8) -> Result<f64, CheckpointError> {
    if layout < 5 {
        return f.hex();
    }
    if f.rest
        .is_some_and(|rest| rest.starts_with("0 ") || rest == "0")
    {
        f.token()?;
        return Ok(0.0);
    }
    match f.hex()? {
        zero if zero.to_bits() == 0 => f.fail("a `+0.0` cell written in 16 digits (v5 writes `0`)"),
        v => Ok(v),
    }
}

/// Every remaining field as a [`cell`].
fn cells(mut f: Fields<'_>, layout: u8) -> Result<Vec<f64>, CheckpointError> {
    let mut row = Vec::new();
    while f.rest.is_some() {
        row.push(cell(&mut f, layout)?);
    }
    Ok(row)
}

/// Every consecutive `tag <cell>…` line, one row each.
fn rows(r: &mut Reader<'_>, tag: &str, layout: u8) -> Result<Vec<Vec<f64>>, CheckpointError> {
    let mut rows = Vec::new();
    while let Some(fields) = r.tagged_if(tag) {
        rows.push(cells(fields, layout)?);
    }
    Ok(rows)
}

/// One estimator block, [`put_estimator`]'s inverse: the header's
/// chain fields and the `a` rows are read when `chained`, `counts`
/// twice in v1, and counters not derived from the visits are rejected.
fn parse_estimator(
    r: &mut Reader<'_>,
    tag: &str,
    prefix: &str,
    chained: bool,
    layout: u8,
) -> Result<EstimatorState, CheckpointError> {
    let v1 = layout == 1;
    let mut f = r.tagged(tag)?;
    let beta = if chained { Some(f.hex()?) } else { None };
    let gamma = f.hex()?;
    let prev = if chained { f.opt()? } else { None };
    let (header_steps, generation) = (f.num::<u64>()?, f.num()?);
    f.end()?;
    let transition = if chained {
        rows(r, &format!("{prefix}a"), layout)?
    } else {
        Vec::new()
    };
    let chain = beta.map(|beta| MarkovState {
        transition,
        beta,
        prev,
    });
    let b = rows(r, &format!("{prefix}b"), layout)?;
    let mut f = r.tagged(&format!("{prefix}counts"))?;
    let visits: Vec<u64> = f.nums()?;
    // v1 wrote the visits a second time, as `B`'s row update counts.
    let updates_differ = v1 && f.nums::<u64>()? != visits;
    f.end()?;
    if updates_differ || header_steps != steps(&visits) {
        return f.fail("counts or steps other than the visits'");
    }
    Ok(EstimatorState {
        chain,
        b,
        gamma,
        visits,
        generation,
    })
}

/// A sensor's `M_CE`: a `prior` line or an `mce` block with a visit. A
/// v1 block has a chain, dropped here; without visits it must be the
/// identity prior bit for bit, and is read as one.
fn read_mce(r: &mut Reader<'_>, layout: u8) -> Result<MceSnapshot, CheckpointError> {
    let v1 = layout == 1;
    let (slots, generation, gamma) = match (!v1).then(|| r.tagged_if("prior")).flatten() {
        Some(mut f) => {
            let prior = (f.num()?, f.num()?, cell(&mut f, layout)?);
            f.end()?;
            prior
        }
        None => {
            let mut m = parse_estimator(r, "mce", "", v1, layout)?;
            if m.visits.iter().any(|&v| v > 0) {
                m.chain = None;
                return Ok(MceSnapshot::Built(m));
            }
            if !(v1 && is_identity_prior(&m)) {
                return r.fail("an `mce` block without visits (v2 writes a `prior` line)");
            }
            (m.b.len(), m.generation, m.gamma)
        }
    };
    let prior = IdentityPrior {
        slots,
        gamma,
        generation,
    };
    Ok(MceSnapshot::Prior(prior))
}

/// Whether a v1 `M_CE` is the identity prior of its shape, bit for bit
/// (a `-0.0` cell is not): no previous state, **A** the identity,
/// hidden state `i`'s **B** row one-hot on symbol `i + 1`.
fn is_identity_prior(m: &EstimatorState) -> bool {
    let n = m.b.len();
    let one_hot = |rows: &[Vec<f64>], len: usize, shift: usize| {
        rows.len() == n
            && rows.iter().enumerate().all(|(i, row)| {
                row.len() == len
                    && row.iter().enumerate().all(|(j, x)| {
                        let want: f64 = if j == i + shift { 1.0 } else { 0.0 };
                        x.to_bits() == want.to_bits()
                    })
            })
    };
    let chain = m.chain.as_ref();
    chain.is_some_and(|c| c.prev.is_none() && one_hot(&c.transition, n, 0))
        && one_hot(&m.b, n + 1, 1)
}

/// The shard section [`write_shard`] writes, after its magic line, from
/// wherever `r` stands up to the first line that opens no sensor, each
/// sensor's runs spanning at most `windows` windows in all.
fn read_shard(
    r: &mut Reader<'_>,
    layout: u8,
    windows: u64,
) -> Result<Vec<(SensorId, SensorSnapshot)>, CheckpointError> {
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
        let m_ce = read_mce(r, layout)?;
        // v1 and v2 wrote `track` (a track is open) and `alarmed` (one
        // ever opened) beside the tracks they copy.
        let track = flag_line(r, "track", layout < 3)?;
        let tracks = r.list("tracks", |t| {
            Ok(TrackRecord {
                opened: t.num()?,
                closed: t.opt()?,
            })
        })?;
        let raw_runs = read_runs(r, layout, windows)?;
        let alarmed = flag_line(r, "alarmed", layout < 3)?;
        let open = tracks.last().is_some_and(|t| t.closed.is_none());
        for (copied, derived) in [(track, open), (alarmed, !tracks.is_empty())] {
            if let Some((f, _)) = copied.filter(|&(_, flag)| flag != derived) {
                return f.fail("a flag other than what `tracks` implies");
            }
        }
        r.marker("end")?;
        let snapshot = SensorSnapshot {
            filter,
            m_ce,
            tracks,
            raw_runs,
        };
        sensors.push((id, snapshot));
    }
    Ok(sensors)
}

/// The `raw` line of layout `layout` as the maximal runs [`write_shard`]
/// writes: ` w:f:n`, `n` windows from `w` all with flag `f`, `:n` left
/// out for one. Before v4 every token is a run of one, joined here to
/// the run it continues. Each run holds at least one window, none past
/// `u64::MAX`, starts after the run before it (in v4, not as its
/// continuation) and keeps the total within `windows`. The runs stay
/// runs: no number the line states sizes anything, one run a token.
fn read_runs(
    r: &mut Reader<'_>,
    layout: u8,
    windows: u64,
) -> Result<Vec<AlarmRun>, CheckpointError> {
    // The first window the next run may start at, the flag of the run
    // before it and the windows so far.
    let (mut next, mut last, mut total) = (0u64, None, 0u64);
    let mut runs = r.list("raw", |t| {
        let (w, raw) = (t.num::<u64>()?, t.flag()?);
        let n: u64 = match t.rest {
            Some(_) if layout > 3 => match t.num()? {
                0 => return t.fail("a run of no windows"),
                1 => return t.fail("a run of one window with its length written"),
                n => n,
            },
            _ => 1,
        };
        let Some(end) = w.checked_add(n) else {
            return t.fail(format!("a run of {n} windows from {w} ends past the last"));
        };
        if w < next {
            return t.fail(format!(
                "a run from {w} before the end {next} of the one before"
            ));
        }
        if layout > 3 && w == next && last == Some(raw) {
            return t.fail(format!("a run from {w} continues the one before"));
        }
        // Disjoint runs below `u64::MAX` sum to at most that.
        total += n;
        if total > windows {
            return t.fail(format!("{total} raw-alarm windows of {windows} processed"));
        }
        (next, last) = (end, Some(raw));
        Ok(AlarmRun {
            first: w,
            windows: n,
            raw,
        })
    })?;
    runs.dedup_by(|run, kept| kept.join(run));
    Ok(runs)
}

/// The pipeline magic of layouts v1 to v5, as [`MAGICS`].
const PIPELINE_MAGICS: [&str; 5] = [
    "sentinet-pipeline v1",
    "sentinet-pipeline v2",
    "sentinet-pipeline v3",
    "sentinet-pipeline v4",
    "sentinet-pipeline v5",
];

/// Encodes a whole pipeline's restore-point snapshot as durable
/// checkpoint text, closed by the shard section of its sensors.
/// Floating-point fields use the IEEE-754 bit-pattern encoding
/// ([`push_hex`]), so a round-trip is bit-exact and the encoding of a
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
    writeln!(
        out,
        "{}\nwindows {}\nbootstrap {}",
        PIPELINE_MAGICS[4],
        g.windows_processed,
        g.bootstrap_points.len()
    )?;
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

/// v1's `mc` and `mo` blocks: `mc` repeats `mco`'s transition half and
/// visits or is malformed; `mo`, which nothing read, is read past.
fn read_v1_chains(r: &mut Reader<'_>, m_co: &EstimatorState) -> Result<(), CheckpointError> {
    let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
        let row_bits = |row: &Vec<f64>| row.iter().map(|x| x.to_bits()).collect();
        rows.iter().map(row_bits).collect()
    };
    for tag in ["mc", "mo"] {
        let mut f = r.tagged(tag)?;
        let (beta, prev, visits) = (f.hex()?, f.opt::<usize>()?, f.nums::<u64>()?);
        f.end()?;
        let rows = rows(r, &format!("{tag}-row"), 1)?;
        let copies = |a: &MarkovState| {
            (a.beta.to_bits(), a.prev, bits(&a.transition)) == (beta.to_bits(), prev, bits(&rows))
        };
        if tag == "mc" && !(m_co.chain.as_ref().is_some_and(copies) && visits == m_co.visits) {
            return r.fail("`mc` is not `mco`'s transition half");
        }
    }
    Ok(())
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
    // The layout the magic line names; any other line fails as v5's.
    let at = PIPELINE_MAGICS.iter().position(|m| r.peek() == Some(*m));
    let at = at.unwrap_or(PIPELINE_MAGICS.len() - 1);
    r.marker(PIPELINE_MAGICS[at])?;
    let layout = at as u8 + 1;
    let v1 = layout == 1;
    let windows_processed = r.single("windows", Fields::num)?;
    if layout < 3 {
        // The decisive-window history, which nothing read.
        r.list("history", |h| {
            Ok((h.num::<u64>()?, h.num::<u64>()?, h.num::<u64>()?))
        })?;
    }
    // The declared count is checked against the rows actually read,
    // never used to size anything.
    let declared: usize = r.single("bootstrap", Fields::num)?;
    let bootstrap_points = rows(r, "bp", layout)?;
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
            centroids.push(cells(f, layout)?);
        }
        let m_co = parse_estimator(r, "mco", "mco-", true, layout)?;
        if v1 {
            read_v1_chains(r, &m_co)?;
        }
        Some(GlobalStates {
            states: StatesSnapshot {
                centroids,
                active,
                config,
                generation,
            },
            m_co,
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
        let data = cells(f, layout)?;
        if dims == 0 || !data.len().is_multiple_of(dims) {
            return r.fail(format!(
                "wsensor data length {} not a multiple of dims {dims}",
                data.len()
            ));
        }
        readings.push((id, dims, data));
    }
    r.marker("sensors")?;
    r.marker(MAGICS[usize::from(layout) - 1])?;
    Ok(PipelineSnapshot {
        global: GlobalSnapshot {
            windows_processed,
            bootstrap_points,
            states,
        },
        windower: WindowerSnapshot {
            started,
            index,
            start,
            readings,
        },
        sensors: read_shard(r, layout, windows_processed)?,
    })
}

/// A `tag <flag>` line with its fields, when the layout `wrote` it.
fn flag_line<'a>(
    r: &mut Reader<'a>,
    tag: &str,
    wrote: bool,
) -> Result<Option<(Fields<'a>, bool)>, CheckpointError> {
    if !wrote {
        return Ok(None);
    }
    let mut f = r.tagged(tag)?;
    let flag = f.flag()?;
    f.end()?;
    Ok(Some((f, flag)))
}

#[cfg(test)]
use crate::classify::seeded;

#[cfg(test)]
#[path = "../../../tests/support/runs.rs"]
mod runs;

#[cfg(test)]
mod tests {
    use super::runs::as_v4;
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

    /// `sensors` in the text production writes them in: the shard
    /// section closing a pipeline text, here behind a header with no
    /// model states and no window bound.
    fn with_sensors(sensors: Vec<(SensorId, SensorSnapshot)>) -> PipelineSnapshot {
        PipelineSnapshot {
            global: GlobalSnapshot {
                windows_processed: u64::MAX,
                bootstrap_points: Vec::new(),
                states: None,
            },
            windower: WindowerSnapshot {
                started: false,
                index: 0,
                start: 0,
                readings: Vec::new(),
            },
            sensors,
        }
    }

    /// The sensors `text`, a pipeline text, decodes to.
    fn sensors_of(text: &str) -> Result<Vec<(SensorId, SensorSnapshot)>, CheckpointError> {
        decode_pipeline(text).map(|p| p.sensors)
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
            let text = encode_pipeline(&with_sensors(shard.clone()));
            let decoded = sensors_of(&text).expect("round trip");
            assert_eq!(decoded, shard);
        }
    }

    #[test]
    fn decode_reports_offending_line() {
        let config = PipelineConfig::default();
        let shard = vec![(SensorId(1), runtime_with_history(&config).snapshot())];
        let mut text = encode_pipeline(&with_sensors(shard));
        text = text.replace("\nraw ", "\nrow ");
        let err = sensors_of(&text).expect_err("corrupted");
        match err {
            CheckpointError::Malformed { line, .. } => assert!(line > 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// The shard section opens with its magic: an empty or foreign
    /// line in its place is malformed.
    #[test]
    fn decode_rejects_bad_magic_and_empty() {
        let text = encode_pipeline(&with_sensors(Vec::new()));
        assert_eq!(sensors_of(&text), Ok(Vec::new()));
        assert!(sensors_of(&text.replace(MAGICS[4], "")).is_err());
        assert!(sensors_of(&text.replace(MAGICS[4], "not a checkpoint")).is_err());
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
        });
        PipelineSnapshot {
            global: GlobalSnapshot {
                windows_processed: 17,
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

    /// The first line of `text` that starts with `prefix`.
    fn line_starting<'t>(text: &'t str, prefix: &str) -> &'t str {
        text.split('\n')
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no line starting `{prefix}`"))
    }

    /// The golden pipeline snapshot as layout v1 wrote it (pinned by
    /// `tests/properties.rs`).
    const GOLDEN_V1: &str = include_str!("../tests/fixtures/golden_pipeline_v1.txt");

    /// `M_C` is `M_CO`'s transition half: a v1 `mc` block whose rows,
    /// β, previous state or visits say otherwise is malformed.
    #[test]
    fn mc_block_differing_from_mcos_transition_half_is_malformed() {
        let text = GOLDEN_V1;
        assert!(decode_pipeline(text).is_ok());
        let header = line_starting(text, "mc ");
        let [_, beta, prev, visits] = header.split(' ').collect::<Vec<_>>()[..] else {
            panic!("mc header `{header}`");
        };
        let row = line_starting(text, "mc-row ");
        let block = line_of(text, header)..line_of(text, line_starting(text, "mo "));
        for damaged in [
            text.replacen(header, &format!("mc 3fe0000000000000 {prev} {visits}"), 1),
            text.replacen(header, &format!("mc {beta} - {visits}"), 1),
            text.replacen(header, &format!("mc {beta} {prev} 9,9"), 1),
            text.replacen(row, "mc-row 0000000000000000 3ff0000000000000", 1),
            text.replacen(&format!("{row}\n"), "", 1),
        ] {
            assert_ne!(damaged, text);
            let line = malformed_line(decode_pipeline(&damaged));
            assert!(block.contains(&line), "line {line} outside {block:?}");
        }
    }

    /// An estimator header's steps are the visits' sum, and v1's
    /// `counts` lines held the visits twice; `mco` and `mce` blocks
    /// that say otherwise are malformed.
    #[test]
    fn estimator_counters_other_than_the_visits_are_malformed() {
        let bump_first = |list: &str| {
            let first = list.split(',').next().unwrap_or(list);
            let bumped = first.parse::<u64>().expect("a count") + 1;
            format!("{bumped}{}", &list[first.len()..])
        };
        for counts in ["mco-counts ", "counts "] {
            let line = line_starting(GOLDEN_V1, counts);
            let (head, updates) = line.rsplit_once(' ').expect("two vectors");
            let bumped = format!("{head} {}", bump_first(updates));
            let damaged = GOLDEN_V1.replacen(&format!("\n{line}\n"), &format!("\n{bumped}\n"), 1);
            let at = malformed_line(decode_pipeline(&damaged));
            assert_eq!(at, line_of(&damaged, &bumped));
        }
        let text = encode_pipeline(&sample_pipeline_snapshot(true));
        for (tag, steps, counts) in [("mco ", 4, "mco-counts "), ("mce ", 2, "counts ")] {
            let header = line_starting(&text, tag);
            let mut fields: Vec<&str> = header.split(' ').collect();
            let bumped = bump_first(fields[steps]);
            fields[steps] = &bumped;
            let damaged = text.replacen(header, &fields.join(" "), 1);
            let counts = line_of(
                &damaged,
                line_starting(&damaged[damaged.find(tag).unwrap()..], counts),
            );
            assert_eq!(malformed_line(decode_pipeline(&damaged)), counts);
        }
    }

    /// An `M_CE` without visits is one `prior` line (slots, generation,
    /// γ); the full block it used to be is malformed in v2.
    #[test]
    fn an_unbuilt_sensor_is_one_prior_line() {
        let config = PipelineConfig::default();
        let sensors = vec![(SensorId(3), SensorRuntime::new(&config, 4).snapshot())];
        let text = encode_pipeline(&with_sensors(sensors.clone()));
        let prior = line_starting(&text, "prior ");
        assert_eq!(prior, "prior 4 0 3fb999999999999a");
        let shard = &text[text.find(MAGICS[4]).expect("a shard section")..];
        assert_eq!(shard.lines().count(), 7, "{shard}");
        assert_eq!(sensors_of(&text), Ok(sensors));
        let one_hot = |i: usize| {
            let mut row = ["0"; 5];
            row[i + 1] = "3ff0000000000000";
            format!("b {}\n", row.join(" "))
        };
        let block = format!(
            "mce 3fb999999999999a 0 0\n{}counts 0,0,0,0",
            (0..4).map(one_hot).collect::<String>()
        );
        let full = text.replacen(prior, &block, 1);
        assert_eq!(
            malformed_line(sensors_of(&full)),
            line_of(&full, "counts 0,0,0,0")
        );
    }

    /// Layout v5 writes a row's `+0.0` cell as `0`, and every other
    /// float (`-0.0` too) as 16 digits. A v5 row refuses the 16-digit
    /// zero, a v4 row refuses `0`, `00` and `-0` are refused in both,
    /// and `0` outside a row is refused: whatever decodes re-encodes
    /// to the bytes read.
    #[test]
    fn a_zero_cell_is_0_in_a_v5_row_and_nowhere_else() {
        let mut snap = sample_pipeline_snapshot(true);
        snap.global.bootstrap_points[0][0] = -0.0;
        let text = encode_pipeline(&snap);
        assert!(text.contains("\nbp 8000000000000000 4000000000000000\n"));
        assert!(text.contains("\nslot 0 0 0\n"));
        let v4 = as_v4(&text);
        let v4_slot = "\nslot 0 0000000000000000 0000000000000000\n";
        assert!(v4.contains(v4_slot));
        assert_eq!(
            decode_pipeline(&v4).map(|s| encode_pipeline(&s)),
            Ok(text.clone())
        );
        assert_eq!(decode_pipeline(&text), Ok(snap));
        let at = line_of(&text, "slot 0 0 0");
        let wide = text.replace("\nslot 0 0 0\n", "\nslot 0 0000000000000000 0\n");
        assert_eq!(malformed_line(decode_pipeline(&wide)), at);
        let short = v4.replace(v4_slot, "\nslot 0 0 0000000000000000\n");
        assert_eq!(malformed_line(decode_pipeline(&short)), at);
        for bad in ["00", "-0", "+0", "0.0", "0x0"] {
            let v5 = text.replace("\nslot 0 0 0\n", &format!("\nslot 0 {bad} 0\n"));
            assert_eq!(malformed_line(decode_pipeline(&v5)), at, "{bad}");
            let v4 = v4.replace(v4_slot, &format!("\nslot 0 {bad} 0000000000000000\n"));
            assert_eq!(malformed_line(decode_pipeline(&v4)), at, "{bad}");
        }
        let cluster = line_starting(&text, "cluster ");
        let zeroed = format!("cluster 0{}", &cluster["cluster ".len() + 16..]);
        let outside = text.replacen(cluster, &zeroed, 1);
        assert_eq!(
            malformed_line(decode_pipeline(&outside)),
            line_of(&text, cluster)
        );
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
    /// line is the line in the text that was handed in, inside the
    /// shard section too.
    #[test]
    fn nested_sections_report_absolute_lines() {
        let snap = sample_pipeline_snapshot(true);
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
        let snap = runtime_with_history(&config).snapshot();
        let text = encode_pipeline(&with_sensors(vec![(SensorId(0), snap.clone())]));
        assert!(sensors_of(&text).is_ok());
        let raw = text.replace("\nraw 0:0:3 ", "\nraw 0:3:3 ");
        assert_eq!(malformed_line(sensors_of(&raw)), line_of(&raw, "end") - 1);
        let filter = line_starting(&text, "filter ");
        assert!(filter.starts_with("filter sprt "));
        let raised = text.replace(filter, &format!("{}3", &filter[..filter.len() - 1]));
        assert_eq!(malformed_line(sensors_of(&raised)), line_of(&text, filter));
        // The flags v2 also wrote: a track is open, one ever opened.
        let open = u8::from(snap.tracks.last().is_some_and(|t| t.closed.is_none()));
        let alarmed = u8::from(!snap.tracks.is_empty());
        let per_window: String = (snap.raw_runs.iter())
            .flat_map(|r| (r.first..r.first + r.windows).map(move |w| (w, r.raw)))
            .map(|(w, raw)| format!(" {w}:{}", u8::from(raw)))
            .collect();
        let v2 = as_v4(&text)
            .replace(PIPELINE_MAGICS[3], PIPELINE_MAGICS[1])
            .replace("\nbootstrap ", "\nhistory -\nbootstrap ")
            .replace(MAGICS[3], MAGICS[1])
            .replacen(line_starting(&text, "raw "), &format!("raw{per_window}"), 1)
            .replace("\ntracks ", &format!("\ntrack {open}\ntracks "))
            .replace("\nend", &format!("\nalarmed {alarmed}\nend"));
        assert_eq!(sensors_of(&v2), Ok(vec![(SensorId(0), snap)]));
        for (flag, bad) in [("track ", "2"), ("alarmed ", "yes")] {
            let at = v2.find(&format!("\n{flag}")).expect("a flag") + 1 + flag.len();
            let bad = format!("{}{bad}{}", &v2[..at], &v2[at + 1..]);
            assert!(sensors_of(&bad).is_err(), "{flag}");
        }
    }

    /// Filter bounds a live filter asserts are semantic errors when
    /// they come from a restore point (`k` scaled past `n` used to
    /// panic in `KOfNFilter::from_parts` at collector open).
    #[test]
    fn out_of_bounds_filter_parts_are_invalid_not_a_panic() {
        let config = PipelineConfig::default();
        let unbuilt = SensorRuntime::new(&config, 2).snapshot();
        let text = encode_pipeline(&with_sensors(vec![(SensorId(0), unbuilt)]));
        let scaled = text.replace("filter kofn 6 10 ", "filter kofn 60 10 ");
        let decoded = sensors_of(&scaled).expect("syntactically fine");
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
        let text = encode_pipeline(&with_sensors(vec![(SensorId(0), original.snapshot())]));
        let decoded = sensors_of(&text).expect("round trip");
        let mut restored =
            SensorRuntime::from_snapshot(decoded[0].1.clone()).expect("valid snapshot");
        // Expanded before the steps on one side, after them on the other.
        assert_eq!(original.raw_history().len(), 12);
        for w in 12..30u64 {
            let label = if w % 3 == 0 { 2 } else { 1 };
            assert_eq!(original.step(w, label, 1), restored.step(w, label, 1));
        }
        assert_eq!(original.m_ce(), restored.m_ce());
        assert_eq!(original.tracks(), restored.tracks());
        assert_eq!(original.raw_history(), restored.raw_history());
        assert_eq!(original.snapshot().raw_runs, restored.snapshot().raw_runs);
    }

    /// Raw-alarm runs no sensor writes — of no windows, ending past
    /// `u64::MAX`, out of order, overlapping or not maximal — are
    /// refused at restore; maximal ones with a gap are not.
    #[test]
    fn raw_alarm_runs_no_sensor_writes_are_invalid() {
        let snap = runtime_with_history(&PipelineConfig::default()).snapshot();
        let run = |first, windows, raw| AlarmRun {
            first,
            windows,
            raw,
        };
        let with = |raw_runs| {
            SensorRuntime::from_snapshot(SensorSnapshot {
                raw_runs,
                ..snap.clone()
            })
        };
        for runs in [
            vec![run(0, 0, false)],
            vec![run(u64::MAX, 1, true)],
            vec![run(5, 2, false), run(3, 1, true)],
            vec![run(0, 4, false), run(3, 2, true)],
            vec![run(0, 4, false), run(4, 2, false)],
        ] {
            let restored = with(runs.clone()).map(|_| ());
            assert!(
                matches!(restored, Err(CheckpointError::Invalid(_))),
                "{runs:?}"
            );
        }
        let gap = vec![run(0, 4, false), run(4, 2, true), run(9, 1, true)];
        assert!(with(gap).is_ok());
    }
}
