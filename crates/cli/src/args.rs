//! Argument parsing: one flag table per subcommand, one loop over them.
//!
//! A row is a flag's name, its value placeholder (empty for a switch)
//! and a setter that parses the value, range-checks it and writes it
//! into the configuration value the library already takes — so a
//! default is stated once, by the library, and `main` hands the parsed
//! configs on without copying a field. The rows that shape durable
//! state and the report are one shared group ([`SHAPE`]) with one range
//! check and one renderer back to argv. `help`'s synopsis is generated
//! from the same tables. Hand-rolled: no CLI crate is on the approved
//! dependency list.

use sentinet_controller::{FederationConfig, ProcessConfig};
use sentinet_gateway::{FsyncPolicy, GatewayConfig, ServerConfig, UplinkConfig};
use sentinet_inject::{AttackModel, FaultModel};
use sentinet_sim::SensorId;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// A parsed CLI invocation.
#[derive(Debug, Clone)]
pub enum Command {
    /// Generate a synthetic trace CSV.
    Simulate(SimulateArgs),
    /// Run the detection pipeline over a trace CSV.
    Analyze(AnalyzeArgs),
    /// Run the durable live-ingest daemon over a socket.
    Serve(ServeArgs),
    /// Replay a write-ahead log offline into a report.
    ReplayWal(ReplayWalArgs),
    /// Drive a trace through a federated collector fleet.
    Federate(Box<FederateArgs>),
    /// Print usage.
    Help,
}

/// Arguments of `sentinet simulate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateArgs {
    /// Output CSV path.
    pub output: String,
    /// Simulated days.
    pub days: u64,
    /// RNG seed.
    pub seed: u64,
    /// Number of sensors.
    pub sensors: u16,
    /// Optional fault injection: `(sensor, model)`.
    pub fault: Option<(SensorId, FaultModel)>,
    /// Optional attack injection: `(compromised count, model)`.
    pub attack: Option<(u16, AttackModel)>,
}

/// Arguments of `sentinet analyze`.
#[derive(Debug, Clone)]
pub struct AnalyzeArgs {
    /// Input CSV path.
    pub input: String,
    /// Where the shared flags land; `analyze` takes the paper's three
    /// and reads only `sample_period` and `pipeline`.
    pub shape: GatewayConfig,
    /// Emit the report as one summary line per sensor only.
    pub quiet: bool,
}

/// Arguments of `sentinet serve`.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// The collector: WAL, pipeline shape, liveness, retention, epoch.
    pub gateway: GatewayConfig,
    /// The socket server: endpoint and credit window.
    pub server: ServerConfig,
    /// Emit the report as one summary line per sensor only.
    pub quiet: bool,
}

/// Arguments of `sentinet replay-wal`.
#[derive(Debug, Clone)]
pub struct ReplayWalArgs {
    /// The collector the log is reopened under; it reproduces the live
    /// run only under the shared flags the log was served with.
    pub gateway: GatewayConfig,
    /// Emit the report as one summary line per sensor only.
    pub quiet: bool,
}

/// Arguments of `sentinet federate`.
#[derive(Debug, Clone)]
pub struct FederateArgs {
    /// Input CSV path.
    pub input: String,
    /// Collector partitions the sensor range is split over.
    pub partitions: usize,
    /// The process backend. Its `replay` is the fleet's one collector
    /// configuration: the shared flags, `--fsync` and
    /// `--checkpoint-every` land there, the children's `serve_flags` are
    /// rendered from it and the final merge reopens each log under it.
    /// `binary` is `main`'s to fill in.
    pub process: ProcessConfig,
    /// The controller: its own `--silence-deadline` (when a suspect
    /// partition is declared dead; not forwarded) and handoff attempts.
    pub federation: FederationConfig,
    /// `--split P:S[@N]`: partition, sensor, readings routed first.
    pub split: Option<(usize, u16, usize)>,
    /// `--rebalance P@N`: partition, readings routed first.
    pub rebalance: Option<(usize, usize)>,
    /// Emit the report as one summary line per sensor only.
    pub quiet: bool,
}

/// A parse failure: the user-facing message.
pub type ParseError = String;

/// What a setter (and everything under it) returns.
type Set = Result<(), ParseError>;

/// What `help`, the dispatcher's callers and the table-driven tests
/// need of a row.
#[derive(Clone, Copy)]
struct FlagSpec {
    /// `--name`.
    name: &'static str,
    /// Value placeholder in the synopsis; empty for a switch.
    metavar: &'static str,
    /// The subcommand is refused without it.
    required: bool,
}

/// Parses a flag's value (empty for a switch), range-checks it and
/// writes it into the target; the loop prefixes `bad <flag>: `.
type Setter<T> = fn(&mut T, &str) -> Set;

/// One row of a flag table over the target `T`.
struct Flag<T> {
    spec: FlagSpec,
    set: Setter<T>,
}

impl<T> Flag<T> {
    const fn new(name: &'static str, metavar: &'static str, set: Setter<T>) -> Self {
        let spec = FlagSpec {
            name,
            metavar,
            required: false,
        };
        Self { spec, set }
    }

    const fn required(name: &'static str, metavar: &'static str, set: Setter<T>) -> Self {
        let mut row = Self::new(name, metavar, set);
        row.spec.required = true;
        row
    }

    /// Takes this flag's value off `it` (none for a switch) and sets it.
    fn apply(&self, target: &mut T, it: &mut dyn Iterator<Item = &str>) -> Set {
        let FlagSpec { name, metavar, .. } = self.spec;
        let value = match metavar {
            "" => "",
            _ => it.next().ok_or_else(|| format!("{name} needs a value"))?,
        };
        (self.set)(target, value).map_err(|e| format!("bad {name}: {e}"))
    }
}

/// Parses `v` into `slot`.
fn num<N: FromStr>(v: &str, slot: &mut N) -> Set
where
    N::Err: fmt::Display,
{
    *slot = v.parse().map_err(|e: N::Err| e.to_string())?;
    Ok(())
}

/// [`num`], refusing zero.
fn positive<N: FromStr + Default + PartialEq>(v: &str, slot: &mut N) -> Set
where
    N::Err: fmt::Display,
{
    num(v, slot)?;
    if *slot == N::default() {
        return Err("must be positive".into());
    }
    Ok(())
}

/// [`num`] where zero turns the feature off.
fn unless_zero(v: &str, slot: &mut Option<u64>) -> Set {
    let mut n = 0;
    num(v, &mut n)?;
    *slot = (n > 0).then_some(n);
    Ok(())
}

/// [`num`] in milliseconds.
fn millis(v: &str, slot: &mut Duration) -> Set {
    let mut ms = 0;
    num(v, &mut ms)?;
    *slot = Duration::from_millis(ms);
    Ok(())
}

/// Stores an already parsed value, or passes its error on.
fn put<V>(slot: &mut V, value: Result<V, ParseError>) -> Set {
    *slot = value?;
    Ok(())
}

/// A path or an endpoint: any text.
fn text<S: From<String>>(v: &str, slot: &mut S) -> Set {
    *slot = v.to_string().into();
    Ok(())
}

fn fsync(v: &str, slot: &mut FsyncPolicy) -> Set {
    put(slot, FsyncPolicy::parse(v))
}

/// A switch.
fn on(slot: &mut bool) -> Set {
    *slot = true;
    Ok(())
}

/// The flags that shape durable state and the report: a log replays to
/// the live run's classification only under the values it was served
/// with, so every subcommand that takes them takes these rows, and a
/// fleet's children get them from [`shape_argv`]. Ordered so that each
/// subcommand takes a prefix: the paper's sampling period, window `w`
/// and Eq. 2 trim (`analyze`), then the reorder watermark (`federate`,
/// whose `--silence-deadline` is the controller's), then the
/// collector's silence deadline (`serve`, `replay-wal`).
static SHAPE: [Flag<GatewayConfig>; 5] = [
    Flag::new("--period", "SECS", |c, v| num(v, &mut c.sample_period)),
    Flag::new("--window", "SAMPLES", |c, v| {
        num(v, &mut c.pipeline.window_samples)
    }),
    Flag::new("--trim", "FRACTION", |c, v| {
        num(v, &mut c.pipeline.observable_trim)
    }),
    Flag::new("--watermark", "SECS", |c, v| {
        num(v, &mut c.reorder.watermark_delay)
    }),
    Flag::new("--silence-deadline", "SECS", |c, v| {
        unless_zero(v, &mut c.silence_deadline)
    }),
];

/// The shared group's one range check.
fn check_shape(c: &GatewayConfig) -> Set {
    let (window, trim) = (c.pipeline.window_samples, c.pipeline.observable_trim);
    if c.sample_period == 0 || window == 0 || !(0.0..0.5).contains(&trim) {
        return Err("--period/--window must be positive, --trim in [0, 0.5)".into());
    }
    Ok(())
}

/// Renders the shared group back to the argv that parses to it (values
/// in [`SHAPE`]'s row order).
fn shape_argv(c: &GatewayConfig) -> Vec<String> {
    let values = [
        c.sample_period.to_string(),
        c.pipeline.window_samples.to_string(),
        c.pipeline.observable_trim.to_string(),
        c.reorder.watermark_delay.to_string(),
        c.silence_deadline.unwrap_or(0).to_string(),
    ];
    let rows = SHAPE.iter().zip(values);
    rows.flat_map(|(row, value)| [row.spec.name.to_string(), value])
        .collect()
}

/// The library's collector, but fsynced as `serve` ships it
/// (`batch:64`; the library's own default suits tests).
fn durable_collector() -> GatewayConfig {
    let mut config = GatewayConfig::new("");
    config.wal.fsync = FsyncPolicy::Batch(64);
    config
}

/// A leading operand: as the synopsis shows it, and as "needs …" calls it.
type Operand = Option<(&'static str, &'static str)>;

/// How many leading [`SHAPE`] rows a subcommand takes, and where they land.
type Shared<T> = Option<(usize, fn(&mut T) -> &mut GatewayConfig)>;

/// A subcommand: where its flags land and what it checks once they have.
trait Args: Sized + 'static {
    const NAME: &'static str;
    const OPERAND: Operand = None;
    const SHARED: Shared<Self> = None;
    /// Its own rows.
    const FLAGS: &'static [Flag<Self>];
    /// Its [`Command`] variant.
    const COMMAND: fn(Self) -> Command;

    /// The defaults, around the operand (empty when it takes none).
    fn new(operand: String) -> Self;

    /// Cross-flag checks, once every flag has landed.
    fn check(&mut self) -> Set {
        Ok(())
    }
}

impl Args for SimulateArgs {
    const COMMAND: fn(Self) -> Command = Command::Simulate;
    const NAME: &'static str = "simulate";
    const OPERAND: Operand = Some(("<out.csv>", "an output path"));
    const FLAGS: &'static [Flag<Self>] = &[
        Flag::new("--days", "N", |a, v| positive(v, &mut a.days)),
        Flag::new("--seed", "S", |a, v| num(v, &mut a.seed)),
        Flag::new("--sensors", "K", |a, v| positive(v, &mut a.sensors)),
        Flag::new("--fault", "SENSOR:MODEL", |a, v| {
            put(&mut a.fault, parse_fault(v).map(Some))
        }),
        Flag::new("--attack", "COUNT:MODEL", |a, v| {
            put(&mut a.attack, parse_attack(v).map(Some))
        }),
    ];

    fn new(output: String) -> Self {
        Self {
            output,
            days: 7,
            seed: 1,
            sensors: 10,
            fault: None,
            attack: None,
        }
    }
}

impl Args for AnalyzeArgs {
    const COMMAND: fn(Self) -> Command = Command::Analyze;
    const NAME: &'static str = "analyze";
    const OPERAND: Operand = Some(("<trace.csv>", "an input path"));
    const SHARED: Shared<Self> = Some((3, |a| &mut a.shape));
    const FLAGS: &'static [Flag<Self>] = &[Flag::new("--quiet", "", |a, _| on(&mut a.quiet))];

    fn new(input: String) -> Self {
        Self {
            input,
            shape: GatewayConfig::new(""),
            quiet: false,
        }
    }
}

impl Args for ServeArgs {
    const COMMAND: fn(Self) -> Command = Command::Serve;
    const NAME: &'static str = "serve";
    const SHARED: Shared<Self> = Some((5, |a| &mut a.gateway));
    const FLAGS: &'static [Flag<Self>] = &[
        Flag::required("--wal-dir", "DIR", |a, v| text(v, &mut a.gateway.wal.dir)),
        Flag::new("--bind", "HOST:PORT|unix:/path", |a, v| {
            text(v, &mut a.server.bind)
        }),
        Flag::new("--fsync", "never|batch:N|always", |a, v| {
            fsync(v, &mut a.gateway.wal.fsync)
        }),
        Flag::new("--checkpoint-every", "N", |a, v| {
            num(v, &mut a.gateway.checkpoint_every)
        }),
        Flag::new("--wal-retain-bytes", "N", |a, v| {
            positive(v, a.gateway.wal.retain_bytes.insert(0))
        }),
        Flag::new("--wal-segment-bytes", "N", |a, v| {
            positive(v, &mut a.gateway.wal.segment_max_bytes)
        }),
        Flag::new("--crash-after", "N", |a, v| {
            num(v, a.gateway.wal.crash_after.insert(0))
        }),
        Flag::new("--credit-window", "N", |a, v| {
            positive(v, &mut a.server.credit_window)
        }),
        Flag::new("--epoch", "N", |a, v| num(v, &mut a.gateway.epoch)),
        Flag::new("--quiet", "", |a, _| on(&mut a.quiet)),
    ];

    fn new(_: String) -> Self {
        Self {
            gateway: durable_collector(),
            server: ServerConfig::default(),
            quiet: false,
        }
    }
}

impl Args for ReplayWalArgs {
    const COMMAND: fn(Self) -> Command = Command::ReplayWal;
    const NAME: &'static str = "replay-wal";
    const SHARED: Shared<Self> = Some((5, |a| &mut a.gateway));
    const FLAGS: &'static [Flag<Self>] = &[
        Flag::required("--wal-dir", "DIR", |a, v| text(v, &mut a.gateway.wal.dir)),
        Flag::new("--quiet", "", |a, _| on(&mut a.quiet)),
    ];

    fn new(_: String) -> Self {
        Self {
            gateway: GatewayConfig::new(""),
            quiet: false,
        }
    }
}

impl Args for FederateArgs {
    const COMMAND: fn(Self) -> Command = |a| Command::Federate(Box::new(a));
    const NAME: &'static str = "federate";
    const OPERAND: Operand = Some(("<trace.csv>", "an input path"));
    const SHARED: Shared<Self> = Some((4, |a| &mut a.process.replay));
    const FLAGS: &'static [Flag<Self>] = &[
        Flag::required("--wal-root", "DIR", |a, v| text(v, &mut a.process.wal_root)),
        Flag::new("--partitions", "N", |a, v| positive(v, &mut a.partitions)),
        Flag::new("--standbys", "N", |a, v| num(v, &mut a.process.standbys)),
        Flag::new("--fsync", "never|batch:N|always", |a, v| {
            fsync(v, &mut a.process.replay.wal.fsync)
        }),
        Flag::new("--checkpoint-every", "N", |a, v| {
            num(v, &mut a.process.replay.checkpoint_every)
        }),
        Flag::new("--silence-deadline", "SECS", |a, v| {
            positive(v, &mut a.federation.silence_deadline)
        }),
        Flag::new("--kill", "P:N[,P:N...]", |a, v| {
            parse_kills(v, &mut a.process.kills)
        }),
        Flag::new("--handoff-attempts", "N", |a, v| {
            positive(v, &mut a.federation.handoff_attempts)
        }),
        Flag::new("--split", "P:S[@N]", |a, v| {
            put(&mut a.split, parse_split(v).map(Some))
        }),
        Flag::new("--rebalance", "P@N", |a, v| {
            put(&mut a.rebalance, parse_rebalance(v).map(Some))
        }),
        Flag::new("--ack-timeout-ms", "N", |a, v| {
            millis(v, &mut a.process.uplink.ack_timeout)
        }),
        Flag::new("--max-attempts", "N", |a, v| {
            positive(v, &mut a.process.uplink.max_attempts)
        }),
        Flag::new("--backoff-base-ms", "N", |a, v| {
            millis(v, &mut a.process.uplink.backoff_base)
        }),
        Flag::new("--backoff-cap-ms", "N", |a, v| {
            millis(v, &mut a.process.uplink.backoff_cap)
        }),
        Flag::new("--jitter-pct", "N", |a, v| {
            num(v, &mut a.process.uplink.jitter_pct)
        }),
        Flag::new("--quiet", "", |a, _| on(&mut a.quiet)),
    ];

    fn new(input: String) -> Self {
        Self {
            input,
            partitions: 2,
            process: ProcessConfig {
                binary: Default::default(),
                wal_root: Default::default(),
                standbys: 1,
                serve_flags: Vec::new(),
                uplink: UplinkConfig::new(""),
                kills: Vec::new(),
                replay: durable_collector(),
            },
            federation: FederationConfig::default(),
            split: None,
            rebalance: None,
            quiet: false,
        }
    }

    fn check(&mut self) -> Set {
        let partitions = self.partitions;
        let in_range = |flag: &str, p: usize, limit: usize| {
            if p < limit {
                return Ok(());
            }
            Err(format!("{flag} partition {p} out of range (0..{limit})"))
        };
        for &(p, _) in &self.process.kills {
            in_range("--kill", p, partitions)?;
        }
        if let Some((p, _, _)) = self.split {
            in_range("--split", p, partitions)?;
        }
        if let Some((p, _)) = self.rebalance {
            // A rebalance may name the partition a split creates,
            // whose id is the pre-split partition count.
            in_range(
                "--rebalance",
                p,
                partitions + usize::from(self.split.is_some()),
            )?;
        }
        // The children serve under exactly the collector configuration
        // the merge replays their logs with.
        let replay = &self.process.replay;
        self.process.serve_flags = shape_argv(replay);
        self.process.serve_flags.extend([
            "--fsync".to_string(),
            replay.wal.fsync.to_string(),
            "--checkpoint-every".to_string(),
            replay.checkpoint_every.to_string(),
        ]);
        Ok(())
    }
}

/// The leading [`SHAPE`] rows `T` takes.
fn shared_rows<T: Args>() -> &'static [Flag<GatewayConfig>] {
    &SHAPE[..T::SHARED.map_or(0, |(n, _)| n)]
}

/// One pass over one subcommand's arguments: the operand, then flags
/// looked up in its own table and its share of [`SHAPE`].
fn parse_as<T: Args>(it: &mut dyn Iterator<Item = &str>) -> Result<Command, ParseError> {
    let operand = match T::OPERAND {
        Some((_, what)) => it
            .next()
            .ok_or_else(|| format!("{} needs {what}", T::NAME))?,
        None => "",
    };
    let mut target = T::new(operand.to_string());
    let mut seen = Vec::new();
    while let Some(arg) = it.next() {
        if let Some(row) = T::FLAGS.iter().find(|row| row.spec.name == arg) {
            row.apply(&mut target, it)?;
        } else if let (Some(row), Some((_, shape))) = (
            shared_rows::<T>().iter().find(|row| row.spec.name == arg),
            T::SHARED,
        ) {
            row.apply(shape(&mut target), it)?;
        } else {
            return Err(format!("unknown flag {arg:?}"));
        }
        seen.push(arg);
    }
    if let Some(row) = T::FLAGS
        .iter()
        .find(|row| row.spec.required && !seen.contains(&row.spec.name))
    {
        return Err(format!("{} needs {}", T::NAME, row.spec.name));
    }
    if let Some((_, shape)) = T::SHARED {
        check_shape(shape(&mut target))?;
    }
    target.check()?;
    Ok(T::COMMAND(target))
}

/// A subcommand as the dispatcher, `help` and the table-driven tests
/// see it.
struct Subcommand {
    /// Its name.
    name: &'static str,
    /// Its operand's placeholder, when it takes one.
    operand: Option<&'static str>,
    /// Its rows, required ones first, then shared, then its own.
    flags: Vec<FlagSpec>,
    parse: fn(&mut dyn Iterator<Item = &str>) -> Result<Command, ParseError>,
}

fn subcommand<T: Args>() -> Subcommand {
    let mut flags: Vec<FlagSpec> = shared_rows::<T>().iter().map(|row| row.spec).collect();
    flags.extend(T::FLAGS.iter().map(|row| row.spec));
    flags.sort_by_key(|spec| !spec.required);
    Subcommand {
        name: T::NAME,
        operand: T::OPERAND.map(|(placeholder, _)| placeholder),
        flags,
        parse: parse_as::<T>,
    }
}

/// Every subcommand, in `help`'s order.
fn subcommands() -> [Subcommand; 5] {
    [
        subcommand::<SimulateArgs>(),
        subcommand::<AnalyzeArgs>(),
        subcommand::<ServeArgs>(),
        subcommand::<ReplayWalArgs>(),
        subcommand::<FederateArgs>(),
    ]
}

/// Parses a full argument list (excluding the program name).
pub fn parse<'a, I: IntoIterator<Item = &'a str>>(args: I) -> Result<Command, ParseError> {
    let mut it = args.into_iter();
    let name = match it.next() {
        None | Some("help" | "--help" | "-h") => return Ok(Command::Help),
        Some(name) => name,
    };
    let subcommands = subcommands();
    match subcommands.iter().find(|sub| sub.name == name) {
        Some(sub) => (sub.parse)(&mut it),
        None => {
            let names: Vec<&str> = subcommands.iter().map(|sub| sub.name).collect();
            Err(format!(
                "unknown command {name:?} ({}|help)",
                names.join("|")
            ))
        }
    }
}

/// Usage text: the synopsis, generated from the tables and wrapped the
/// way it used to be written, then the prose.
pub fn usage() -> String {
    let mut out = String::from(
        "sentinet — detect and distinguish errors vs attacks in sensor traces\n\nUSAGE:\n",
    );
    for sub in subcommands() {
        let mut line = format!("  sentinet {}", sub.name);
        let operand = sub.operand.map(str::to_string);
        let flags = sub.flags.iter().map(|spec| {
            let token = format!("{} {}", spec.name, spec.metavar);
            match spec.required {
                true => token,
                false => format!("[{}]", token.trim_end()),
            }
        });
        for token in operand.into_iter().chain(flags) {
            if line.len() + 1 + token.len() > 73 {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(19);
            }
            line.push(' ');
            line.push_str(&token);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("  sentinet help\n\n");
    out.push_str(PROSE);
    out
}

/// The sections of `help` that are prose, not table.
const PROSE: &str = "\
LIVE INGEST (serve / replay-wal):
  serve binds a socket, prints `listening on ADDR` on stdout, and runs
  the durable collector until a client sends Fin: every accepted frame
  is WAL-appended before it is acked, so `kill -9` at any point (try
  --crash-after N) resumes to a bit-identical report on restart.
  replay-wal rebuilds the report offline from a WAL directory.
  --silence-deadline 0 disables liveness tracking.
  --wal-retain-bytes N bounds the WAL on disk: segments wholly covered
  by a durable checkpoint are deleted after the checkpoint commits, and
  when nothing is reclaimable new records are shed with counted NACKs
  instead of breaching the budget.

FEDERATION (federate):
  federate splits the trace's sensors evenly over N collector
  partitions, spawns one `sentinet serve` child per partition, and
  routes every reading through the real uplink. A partition that stops
  acking turns suspect; once its last ack trails the stream clock by
  more than --silence-deadline it is declared dead and a standby
  adopts its WAL (checkpoint snapshot restore + tail replay), with the
  controller redelivering the routed backlog. With no standby left the
  partition orphans: readings NACK, counted, never dropped. The fleet
  diagnosis goes to stdout (byte-comparable across drilled and
  uninterrupted runs); federation events and merged counters go to
  stderr; exit status 3 flags a diagnosis or a degraded fleet.
  --kill P:N[,P:N...] SIGKILLs each listed partition's collector
  mid-stream — the failover drill; partitions may not repeat.
  --split P:S[@N] migrates live: once partition P has routed N
  readings (default 0) it splits at sensor S — the upper sub-range
  drains, cuts a snapshot at a WAL cursor and a fresh partition adopts
  it durably before the map commits, without stopping ingest.
  --rebalance P@N moves partition P's whole range into its adjacent
  partition the same way once P has routed N readings; P may name the
  partition a --split creates (id = --partitions). Ingest never stops;
  a crash mid-handoff rolls the migration back or forward, never both.
  serve --epoch N starts the collector fenced at owner epoch N: the
  fence token persists beside the WAL, a stale restart fail-stops,
  and a client announcing a newer epoch turns the running collector
  into a zombie that NACKs every append with a typed rejection.

FAULT MODELS (simulate --fault):
  6:stuck=15,1        sensor 6 stuck at (15, 1)
  7:calib=1.15,1.15   sensor 7 gains ×(1.15, 1.15)
  3:add=-9,-4.5       sensor 3 offset (−9, −4.5)
  5:noise=10,10       sensor 5 extra noise σ (10, 10)
  2:outage=0.5        sensor 2 drops 50% of its packets

ATTACK MODELS (simulate --attack):
  3:delete=12,94      3 sensors pin the observed state at (12, 94)
  3:create=25,69      3 sensors forge state (25, 69)
  3:change=-15,0      3 sensors shift the observed state by (−15, 0)
";

/// Parses one field of a spec, naming it when it is bad.
fn field<N: FromStr>(text: &str, what: &str) -> Result<N, ParseError>
where
    N::Err: fmt::Display,
{
    text.parse()
        .map_err(|e| format!("bad {what} {text:?}: {e}"))
}

/// Splits a spec at `sep`, or says what shape it needs.
fn halves<'a>(spec: &'a str, sep: char, shape: &str) -> Result<(&'a str, &'a str), ParseError> {
    spec.split_once(sep)
        .ok_or_else(|| format!("spec {spec:?} needs {shape}"))
}

/// Parses a comma-separated `--kill` list `P:N[,P:N...]` onto `kills`,
/// rejecting a partition named twice — in one list or across repeated
/// flags (two SIGKILL coordinates for one collector would race each
/// other and make the drill ambiguous).
fn parse_kills(spec: &str, kills: &mut Vec<(usize, u64)>) -> Set {
    for one in spec.split(',') {
        let (p, after) = halves(one, ':', "PARTITION:AFTER")?;
        let p = field(p, "kill partition")?;
        if kills.iter().any(|&(seen, _)| seen == p) {
            return Err(format!("kill list {spec:?} names partition {p} twice"));
        }
        kills.push((p, field(after, "kill coordinate")?));
    }
    Ok(())
}

/// Parses a `--split` spec `PARTITION:SENSOR[@AFTER]`: split partition
/// P at sensor S once P has routed AFTER readings (0 when omitted —
/// split on the first reading).
fn parse_split(spec: &str) -> Result<(usize, u16, usize), ParseError> {
    let (head, after) = spec.split_once('@').unwrap_or((spec, "0"));
    let (p, sensor) = halves(head, ':', "PARTITION:SENSOR[@AFTER]")?;
    Ok((
        field(p, "split partition")?,
        field(sensor, "split sensor")?,
        field(after, "split trigger")?,
    ))
}

/// Parses a `--rebalance` spec `PARTITION@AFTER`: move partition P's
/// whole range into its adjacent partition once P has routed AFTER
/// readings.
fn parse_rebalance(spec: &str) -> Result<(usize, usize), ParseError> {
    let (p, after) = halves(spec, '@', "PARTITION@AFTER")?;
    Ok((
        field(p, "rebalance partition")?,
        field(after, "rebalance trigger")?,
    ))
}

/// Splits `WHO:MODEL=ARGS` into who, the model's name and its
/// comma-separated values.
fn parse_model<N: FromStr>(spec: &str, shape: &str) -> Result<(N, String, Vec<f64>), ParseError>
where
    N::Err: fmt::Display,
{
    let (who, rest) = halves(spec, ':', shape)?;
    let (model, args) = rest.split_once('=').unwrap_or((rest, ""));
    let values: Result<Vec<f64>, _> = args.split(',').map(str::parse).collect();
    let values = values.map_err(|e| format!("bad {model} values {args:?}: {e}"))?;
    Ok((field(who, "sensor")?, model.to_string(), values))
}

/// Parses `SENSOR:MODEL=ARGS` into a fault injection spec.
fn parse_fault(spec: &str) -> Result<(SensorId, FaultModel), ParseError> {
    let (sensor, model, values) = parse_model(spec, "SENSOR:MODEL")?;
    let model = match model.as_str() {
        "stuck" => FaultModel::StuckAt { value: values },
        "calib" => FaultModel::Calibration { gain: values },
        "add" => FaultModel::Additive { offset: values },
        "noise" => FaultModel::RandomNoise { std: values },
        "outage" => match values[..] {
            [drop_prob] => FaultModel::Outage { drop_prob },
            _ => return Err(format!("outage takes one probability, got {values:?}")),
        },
        other => {
            return Err(format!(
                "unknown fault model {other:?} (stuck|calib|add|noise|outage)"
            ))
        }
    };
    Ok((SensorId(sensor), model))
}

/// Parses `COUNT:MODEL=ARGS` into an attack injection spec.
fn parse_attack(spec: &str) -> Result<(u16, AttackModel), ParseError> {
    let (count, model, values) = parse_model(spec, "COUNT:MODEL")?;
    if count == 0 {
        return Err("attack needs at least one sensor".into());
    }
    let model = match model.as_str() {
        "delete" => AttackModel::DynamicDeletion { freeze_at: values },
        "create" => AttackModel::DynamicCreation { target: values },
        "change" => AttackModel::DynamicChange { offset: values },
        other => {
            return Err(format!(
                "unknown attack model {other:?} (delete|create|change)"
            ))
        }
    };
    Ok((count, model))
}

#[cfg(test)]
#[path = "../../../tests/support/seeded.rs"]
mod seeded;

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn help_variants() {
        assert!(matches!(parse([]).unwrap(), Command::Help));
        assert!(matches!(parse(["help"]).unwrap(), Command::Help));
        assert!(matches!(parse(["--help"]).unwrap(), Command::Help));
    }

    #[test]
    fn simulate_defaults() {
        match parse(["simulate", "out.csv"]).unwrap() {
            Command::Simulate(a) => {
                assert_eq!(a.output, "out.csv");
                assert_eq!(a.days, 7);
                assert_eq!(a.sensors, 10);
                assert!(a.fault.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn simulate_full_flags() {
        match parse([
            "simulate",
            "t.csv",
            "--days",
            "3",
            "--seed",
            "9",
            "--sensors",
            "6",
            "--fault",
            "6:stuck=15,1",
            "--attack",
            "2:delete=12,94",
        ])
        .unwrap()
        {
            Command::Simulate(a) => {
                assert_eq!(a.days, 3);
                assert_eq!(a.seed, 9);
                assert_eq!(a.sensors, 6);
                let (s, f) = a.fault.unwrap();
                assert_eq!(s, SensorId(6));
                assert_eq!(
                    f,
                    FaultModel::StuckAt {
                        value: vec![15.0, 1.0]
                    }
                );
                let (n, m) = a.attack.unwrap();
                assert_eq!(n, 2);
                assert_eq!(
                    m,
                    AttackModel::DynamicDeletion {
                        freeze_at: vec![12.0, 94.0]
                    }
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn analyze_flags() {
        match parse([
            "analyze", "t.csv", "--period", "60", "--window", "15", "--trim", "0.1", "--quiet",
        ])
        .unwrap()
        {
            Command::Analyze(a) => {
                assert_eq!(a.shape.sample_period, 60);
                assert_eq!(a.shape.pipeline.window_samples, 15);
                assert!((a.shape.pipeline.observable_trim - 0.1).abs() < 1e-12);
                assert!(a.quiet);
            }
            other => panic!("{other:?}"),
        }
    }

    /// The sharded engine's flags are refused, not ignored: a script
    /// that still passes one learns why instead of getting serial output.
    #[test]
    fn sharded_engine_flags_are_unknown() {
        for (args, flag) in [
            (&["analyze", "t.csv", "--shards", "2"][..], "--shards"),
            (&["analyze", "t.csv", "--chaos-seed", "7"], "--chaos-seed"),
            (
                &["analyze", "t.csv", "--max-shard-restarts", "3"],
                "--max-shard-restarts",
            ),
            (
                &["replay-wal", "--wal-dir", "w", "--shards", "2"],
                "--shards",
            ),
        ] {
            let e = parse(args.iter().copied()).unwrap_err();
            assert_eq!(e, format!("unknown flag {flag:?}"));
        }
    }

    #[test]
    fn serve_defaults_and_flags() {
        match parse(["serve", "--wal-dir", "/tmp/wal"]).unwrap() {
            Command::Serve(a) => {
                assert_eq!(a.gateway.wal.dir, Path::new("/tmp/wal"));
                assert_eq!(a.server.bind, "127.0.0.1:0");
                assert_eq!(a.gateway.wal.fsync, FsyncPolicy::Batch(64));
                assert_eq!(a.gateway.reorder.watermark_delay, 1800);
                assert_eq!(a.gateway.silence_deadline, Some(3600));
                assert_eq!(a.gateway.wal.retain_bytes, None);
                // No flag, so the library's roll size stands.
                assert_eq!(
                    a.gateway.wal.segment_max_bytes,
                    GatewayConfig::new("").wal.segment_max_bytes
                );
                assert_eq!(a.gateway.wal.crash_after, None);
                assert_eq!(a.server.credit_window, 32);
            }
            other => panic!("{other:?}"),
        }
        match parse([
            "serve",
            "--wal-dir",
            "w",
            "--bind",
            "unix:/tmp/s.sock",
            "--fsync",
            "never",
            "--watermark",
            "600",
            "--silence-deadline",
            "0",
            "--wal-retain-bytes",
            "65536",
            "--wal-segment-bytes",
            "4096",
            "--crash-after",
            "40",
            "--credit-window",
            "8",
            "--quiet",
        ])
        .unwrap()
        {
            Command::Serve(a) => {
                assert_eq!(a.server.bind, "unix:/tmp/s.sock");
                assert_eq!(a.gateway.wal.fsync, FsyncPolicy::Never);
                assert_eq!(a.gateway.reorder.watermark_delay, 600);
                assert_eq!(a.gateway.silence_deadline, None);
                assert_eq!(a.gateway.wal.retain_bytes, Some(65536));
                assert_eq!(a.gateway.wal.segment_max_bytes, 4096);
                assert_eq!(a.gateway.wal.crash_after, Some(40));
                assert_eq!(a.server.credit_window, 8);
                assert_eq!(a.gateway.epoch, 0);
                assert!(a.quiet);
            }
            other => panic!("{other:?}"),
        }
        match parse(["serve", "--wal-dir", "w", "--epoch", "3"]).unwrap() {
            Command::Serve(a) => assert_eq!(a.gateway.epoch, 3),
            other => panic!("{other:?}"),
        }
        assert!(parse(["serve", "--wal-dir", "w", "--epoch", "x"])
            .unwrap_err()
            .to_string()
            .contains("epoch"));
        assert!(parse(["serve", "--wal-dir", "w", "--credit-window", "0"])
            .unwrap_err()
            .to_string()
            .contains("credit-window"));
        assert!(parse(["serve"])
            .unwrap_err()
            .to_string()
            .contains("wal-dir"));
        assert!(parse(["serve", "--wal-dir", "w", "--fsync", "sometimes"])
            .unwrap_err()
            .to_string()
            .contains("fsync"));
        assert!(
            parse(["serve", "--wal-dir", "w", "--wal-retain-bytes", "0"])
                .unwrap_err()
                .to_string()
                .contains("wal-retain-bytes")
        );
    }

    #[test]
    fn replay_wal_flags() {
        match parse(["replay-wal", "--wal-dir", "w"]).unwrap() {
            Command::ReplayWal(a) => {
                assert_eq!(a.gateway.wal.dir, Path::new("w"));
                assert_eq!(a.gateway.reorder.watermark_delay, 1800);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(["replay-wal"])
            .unwrap_err()
            .to_string()
            .contains("wal-dir"));
    }

    #[test]
    fn federate_defaults_and_flags() {
        match parse(["federate", "t.csv", "--wal-root", "/tmp/fleet"]).unwrap() {
            Command::Federate(a) => {
                assert_eq!(a.input, "t.csv");
                assert_eq!(a.process.wal_root, Path::new("/tmp/fleet"));
                assert_eq!(a.partitions, 2);
                assert_eq!(a.process.standbys, 1);
                assert_eq!(a.process.replay.wal.fsync.to_string(), "batch:64");
                assert_eq!(a.federation.silence_deadline, 3600);
                assert_eq!(a.process.kills, vec![]);
                assert_eq!(a.federation.handoff_attempts, 4);
                assert_eq!(a.process.uplink.jitter_pct, 50);
            }
            other => panic!("{other:?}"),
        }
        match parse([
            "federate",
            "t.csv",
            "--wal-root",
            "w",
            "--partitions",
            "3",
            "--standbys",
            "0",
            "--fsync",
            "never",
            "--silence-deadline",
            "900",
            "--kill",
            "1:40",
            "--handoff-attempts",
            "2",
            "--ack-timeout-ms",
            "200",
            "--max-attempts",
            "3",
            "--backoff-base-ms",
            "5",
            "--backoff-cap-ms",
            "50",
            "--jitter-pct",
            "0",
            "--quiet",
        ])
        .unwrap()
        {
            Command::Federate(a) => {
                assert_eq!(a.partitions, 3);
                assert_eq!(a.process.standbys, 0);
                assert_eq!(a.process.replay.wal.fsync.to_string(), "never");
                assert_eq!(a.federation.silence_deadline, 900);
                assert_eq!(a.process.kills, vec![(1, 40)]);
                assert_eq!(a.federation.handoff_attempts, 2);
                assert_eq!(a.process.uplink.ack_timeout.as_millis(), 200);
                assert_eq!(a.process.uplink.max_attempts, 3);
                assert_eq!(a.process.uplink.backoff_base.as_millis(), 5);
                assert_eq!(a.process.uplink.backoff_cap.as_millis(), 50);
                assert_eq!(a.process.uplink.jitter_pct, 0);
                assert!(a.quiet);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn federate_kill_accepts_a_comma_separated_list() {
        match parse([
            "federate",
            "t.csv",
            "--wal-root",
            "w",
            "--partitions",
            "3",
            "--kill",
            "0:20,2:40",
        ])
        .unwrap()
        {
            Command::Federate(a) => assert_eq!(a.process.kills, vec![(0, 20), (2, 40)]),
            other => panic!("{other:?}"),
        }
        assert!(parse([
            "federate",
            "t.csv",
            "--wal-root",
            "w",
            "--kill",
            "0:20,0:40"
        ])
        .unwrap_err()
        .to_string()
        .contains("twice"));
        assert!(parse([
            "federate",
            "t.csv",
            "--wal-root",
            "w",
            "--partitions",
            "3",
            "--kill",
            "0:20,7:40"
        ])
        .unwrap_err()
        .to_string()
        .contains("out of range"));
    }

    #[test]
    fn federate_migration_flags() {
        match parse([
            "federate",
            "t.csv",
            "--wal-root",
            "w",
            "--partitions",
            "2",
            "--split",
            "0:3@120",
            "--rebalance",
            "2@40",
        ])
        .unwrap()
        {
            Command::Federate(a) => {
                assert_eq!(a.split, Some((0, 3, 120)));
                assert_eq!(a.rebalance, Some((2, 40)));
            }
            other => panic!("{other:?}"),
        }
        // The trigger defaults to 0 when omitted.
        match parse(["federate", "t.csv", "--wal-root", "w", "--split", "1:5"]).unwrap() {
            Command::Federate(a) => assert_eq!(a.split, Some((1, 5, 0))),
            other => panic!("{other:?}"),
        }
        assert!(
            parse(["federate", "t.csv", "--wal-root", "w", "--split", "0"])
                .unwrap_err()
                .to_string()
                .contains("PARTITION:SENSOR")
        );
        assert!(
            parse(["federate", "t.csv", "--wal-root", "w", "--split", "9:1"])
                .unwrap_err()
                .to_string()
                .contains("out of range")
        );
        assert!(
            parse(["federate", "t.csv", "--wal-root", "w", "--rebalance", "1:9"])
                .unwrap_err()
                .to_string()
                .contains("PARTITION@AFTER")
        );
        // Without a split, only the configured partitions exist.
        assert!(
            parse(["federate", "t.csv", "--wal-root", "w", "--rebalance", "2@9"])
                .unwrap_err()
                .to_string()
                .contains("out of range")
        );
    }

    #[test]
    fn federate_validation_is_descriptive() {
        assert!(parse(["federate"])
            .unwrap_err()
            .to_string()
            .contains("input path"));
        assert!(parse(["federate", "t.csv"])
            .unwrap_err()
            .to_string()
            .contains("wal-root"));
        assert!(
            parse(["federate", "t.csv", "--wal-root", "w", "--partitions", "0"])
                .unwrap_err()
                .to_string()
                .contains("partitions")
        );
        for gone in ["--protocol", "--batch-size"] {
            assert!(parse(["federate", "t.csv", "--wal-root", "w", gone, "1"])
                .unwrap_err()
                .to_string()
                .contains(&format!("unknown flag \"{gone}\"")));
        }
        assert!(
            parse(["federate", "t.csv", "--wal-root", "w", "--kill", "7:10"])
                .unwrap_err()
                .to_string()
                .contains("out of range")
        );
        assert!(
            parse(["federate", "t.csv", "--wal-root", "w", "--kill", "bogus"])
                .unwrap_err()
                .to_string()
                .contains("PARTITION:AFTER")
        );
        assert!(parse([
            "federate",
            "t.csv",
            "--wal-root",
            "w",
            "--silence-deadline",
            "0"
        ])
        .unwrap_err()
        .to_string()
        .contains("silence-deadline"));
        assert!(parse([
            "federate",
            "t.csv",
            "--wal-root",
            "w",
            "--fsync",
            "sometimes"
        ])
        .unwrap_err()
        .to_string()
        .contains("fsync"));
    }

    #[test]
    fn fault_specs_parse() {
        assert!(parse_fault("7:calib=1.15,1.15").is_ok());
        assert!(parse_fault("3:add=-9,-4.5").is_ok());
        assert!(parse_fault("5:noise=10,10").is_ok());
        assert!(parse_fault("2:outage=0.5").is_ok());
        assert!(parse_fault("bogus").is_err());
        assert!(parse_fault("1:bogus=1").is_err());
        assert!(parse_fault("1:stuck=abc").is_err());
    }

    #[test]
    fn attack_specs_parse() {
        assert!(parse_attack("3:create=25,69").is_ok());
        assert!(parse_attack("3:change=-15,0").is_ok());
        assert!(parse_attack("0:delete=1,1").is_err());
        assert!(parse_attack("3:bogus=1,1").is_err());
    }

    #[test]
    fn errors_are_descriptive() {
        let e = parse(["analyze"]).unwrap_err();
        assert!(e.to_string().contains("input path"));
        let e = parse(["simulate", "x", "--days", "0"]).unwrap_err();
        assert!(e.to_string().contains("positive"));
        let e = parse(["frobnicate"]).unwrap_err();
        assert!(e.to_string().contains("unknown command"));
        let e = parse(["analyze", "x", "--trim", "0.9"]).unwrap_err();
        assert!(e.to_string().contains("trim"));
    }

    #[test]
    fn a_repeated_kill_appends_to_the_list() {
        let fleet = ["federate", "t.csv", "--wal-root", "w", "--partitions", "3"];
        let kills = |rest: &[&'static str]| parse(fleet.iter().chain(rest).copied());
        match kills(&["--kill", "0:20", "--kill", "2:40,1:7"]).unwrap() {
            Command::Federate(a) => assert_eq!(a.process.kills, vec![(0, 20), (2, 40), (1, 7)]),
            other => panic!("{other:?}"),
        }
        let e = kills(&["--kill", "0:20", "--kill", "1:5,0:40"]).unwrap_err();
        assert!(e.contains("names partition 0 twice"), "{e}");
    }

    #[test]
    fn replay_wal_takes_the_collectors_silence_deadline() {
        let deadline = |rest: &[&'static str]| match parse(
            ["replay-wal", "--wal-dir", "w"].iter().chain(rest).copied(),
        )
        .unwrap()
        {
            Command::ReplayWal(a) => a.gateway.silence_deadline,
            other => panic!("{other:?}"),
        };
        assert_eq!(deadline(&[]), Some(3600));
        assert_eq!(deadline(&["--silence-deadline", "600"]), Some(600));
        assert_eq!(deadline(&["--silence-deadline", "0"]), None);
    }

    const ROUND_TRIP: seeded::Replay = seeded::Replay {
        var: "FLAG_TABLE_SEED",
        package: "sentinet-cli",
        target: "--bin sentinet",
        test: "table_shared_flags_round_trip",
    };

    /// The five shared values of a parsed collector, trim by its bits.
    fn shape_of(c: &GatewayConfig) -> (u64, u32, u64, u64, Option<u64>) {
        let trim = c.pipeline.observable_trim.to_bits();
        let window = c.pipeline.window_samples;
        let watermark = c.reorder.watermark_delay;
        (c.sample_period, window, trim, watermark, c.silence_deadline)
    }

    /// Whatever shape a collector has, `shape_argv` renders it to flags
    /// that parse back to it — under `serve`, under `replay-wal`, and
    /// through `federate` into the children's flags and the template
    /// their logs are replayed with.
    #[test]
    fn table_shared_flags_round_trip() {
        ROUND_TRIP.for_each_seed(500, |seed| {
            let mut rng = seeded::TestRng::new(seed);
            let mut shape = GatewayConfig::new("w");
            shape.sample_period = 1 + rng.next_u64() % 100_000;
            shape.pipeline.window_samples = 1 + rng.usize_in(0, 1000) as u32;
            shape.pipeline.observable_trim = rng.next_f64() * 0.5;
            shape.reorder.watermark_delay = rng.next_u64() >> rng.usize_in(0, 64);
            shape.silence_deadline = match rng.usize_in(0, 4) {
                0 => None,
                _ => Some(1 + rng.next_u64() % 1_000_000),
            };
            let argv = shape_argv(&shape);
            let parsed = |head: &[&'static str], flags: &[String]| {
                let flags = flags.iter().map(String::as_str);
                parse(head.iter().copied().chain(flags)).map_err(|e| format!("{head:?}: {e}"))
            };
            let Command::Serve(serve) = parsed(&["serve", "--wal-dir", "w"], &argv)? else {
                return Err("serve parsed to another command".into());
            };
            let Command::ReplayWal(replay) = parsed(&["replay-wal", "--wal-dir", "w"], &argv)?
            else {
                return Err("replay-wal parsed to another command".into());
            };
            for (who, got) in [("serve", &serve.gateway), ("replay-wal", &replay.gateway)] {
                if shape_of(got) != shape_of(&shape) || shape_argv(got) != argv {
                    return Err(format!("{who} parsed {argv:?} to {:?}", shape_of(got)));
                }
            }
            // federate takes the first four; its children get all five.
            let head = ["federate", "t.csv", "--wal-root", "w"];
            let Command::Federate(fleet) = parsed(&head, &argv[..8])? else {
                return Err("federate parsed to another command".into());
            };
            let template = &fleet.process.replay;
            let Command::Serve(child) =
                parsed(&["serve", "--wal-dir", "w"], &fleet.process.serve_flags)?
            else {
                return Err("the children's flags parsed to another command".into());
            };
            let mut expected = shape_of(&shape);
            expected.4 = GatewayConfig::new("").silence_deadline;
            if shape_of(template) != expected || shape_of(&child.gateway) != expected {
                return Err(format!(
                    "federate {argv:?}: template {:?}, children {:?}",
                    shape_of(template),
                    shape_of(&child.gateway)
                ));
            }
            let (fsync, every) = (&template.wal.fsync, template.checkpoint_every);
            if child.gateway.wal.fsync != *fsync || child.gateway.checkpoint_every != every {
                return Err(
                    "the children's fsync or checkpoint cadence is not the template's".into(),
                );
            }
            Ok(())
        });
    }

    /// No flag plants a checker's mutant: the collector configuration
    /// of every command, `federate`'s children included, runs the
    /// shipped code.
    #[test]
    fn no_command_plants_a_mutant() {
        fn collectors(argv: &[&str]) -> Vec<GatewayConfig> {
            match parse(argv.iter().copied()).unwrap() {
                Command::Analyze(a) => vec![a.shape],
                Command::Serve(a) => vec![a.gateway],
                Command::ReplayWal(a) => vec![a.gateway],
                Command::Federate(a) => {
                    let mut child = vec!["serve", "--wal-dir", "w"];
                    child.extend(a.process.serve_flags.iter().map(String::as_str));
                    let mut all = collectors(&child);
                    all.push(a.process.replay);
                    all
                }
                other => panic!("{other:?}"),
            }
        }
        for argv in [
            &["analyze", "t.csv"][..],
            &["serve", "--wal-dir", "w", "--epoch", "2"],
            &["replay-wal", "--wal-dir", "w"],
            &["federate", "t.csv", "--wal-root", "w", "--partitions", "2"],
        ] {
            for config in collectors(argv) {
                assert_eq!(config.mutant, None, "{argv:?}");
            }
        }
    }

    /// The rows whose value is free text: a path or an endpoint.
    const FREE_TEXT: [&str; 3] = ["--wal-dir", "--bind", "--wal-root"];

    /// Every row of every table fails the same three ways: a value flag
    /// at the end of the line, a value its setter refuses, and a name no
    /// table holds. Driven from the tables, so a new row is covered
    /// without a new test.
    #[test]
    fn table_rows_report_the_three_error_shapes() {
        for sub in subcommands() {
            let mut head = vec![sub.name];
            head.extend(sub.operand.map(|_| "operand"));
            let error = |rest: &[&'static str]| {
                parse(head.iter().chain(rest).copied())
                    .err()
                    .unwrap_or_else(|| panic!("{} {rest:?} parsed", sub.name))
            };
            assert_eq!(
                error(&["--no-such-flag"]),
                "unknown flag \"--no-such-flag\""
            );
            assert!(!sub.flags.is_empty());
            for FlagSpec { name, metavar, .. } in sub.flags.iter().copied() {
                if metavar.is_empty() {
                    // A switch takes no value: the next word is a flag.
                    assert_eq!(error(&[name, "\u{1}"]), "unknown flag \"\\u{1}\"");
                    continue;
                }
                assert_eq!(error(&[name]), format!("{name} needs a value"));
                let refused = error(&[name, "\u{1}", "--no-such-flag"]);
                let free_text = FREE_TEXT.contains(&name);
                assert_eq!(
                    refused.starts_with(&format!("bad {name}: ")),
                    !free_text,
                    "{} {name}: {refused}",
                    sub.name
                );
                assert!(free_text || refused.len() > format!("bad {name}: ").len());
            }
        }
    }

    /// The synopsis block as it was written by hand before the tables
    /// generated it.
    const HAND_WRITTEN_SYNOPSIS: &str = "\
  sentinet simulate <out.csv> [--days N] [--seed S] [--sensors K]
                    [--fault SENSOR:MODEL] [--attack COUNT:MODEL]
  sentinet analyze <trace.csv> [--period SECS] [--window SAMPLES]
                    [--trim FRACTION] [--shards N] [--quiet]
                    [--chaos-seed S] [--max-shard-restarts N]
  sentinet serve --wal-dir DIR [--bind HOST:PORT|unix:/path]
                    [--period SECS] [--window SAMPLES] [--trim FRACTION]
                    [--fsync never|batch:N|always] [--watermark SECS]
                    [--silence-deadline SECS] [--checkpoint-every N]
                    [--wal-retain-bytes N] [--wal-segment-bytes N]
                    [--crash-after N] [--credit-window N] [--v1-only]
                    [--epoch N] [--quiet]
  sentinet replay-wal --wal-dir DIR [--period SECS] [--window SAMPLES]
                    [--trim FRACTION] [--watermark SECS] [--shards N]
                    [--quiet]
  sentinet federate <trace.csv> --wal-root DIR [--partitions N]
                    [--standbys N] [--protocol v1|v2] [--period SECS]
                    [--window SAMPLES] [--trim FRACTION]
                    [--fsync never|batch:N|always] [--watermark SECS]
                    [--checkpoint-every N] [--silence-deadline SECS]
                    [--kill P:N[,P:N...]] [--handoff-attempts N]
                    [--split P:S[@N]] [--rebalance P@N]
                    [--ack-timeout-ms N] [--max-attempts N]
                    [--backoff-base-ms N] [--backoff-cap-ms N]
                    [--jitter-pct N] [--batch-size N] [--quiet]
                    [--nemesis-seed S [--episodes N]
                     [--nemesis-migration]]
  sentinet help
";

    /// `--flag METAVAR` pairs per subcommand of a synopsis block, sorted.
    fn synopsis_flags(synopsis: &str) -> Vec<(String, Vec<(String, String)>)> {
        let mut subs: Vec<(String, Vec<(String, String)>)> = Vec::new();
        let mut words = synopsis.split_whitespace().peekable();
        while let Some(word) = words.next() {
            if word == "sentinet" {
                subs.push((words.next().unwrap().to_string(), Vec::new()));
            }
            let Some(flag) = word.trim_start_matches('[').strip_prefix("--") else {
                continue;
            };
            let name = flag.trim_end_matches(']');
            let metavar = match name == flag {
                // A switch closes its bracket at once.
                false => "",
                true => words.next().unwrap(),
            };
            // The brackets a metavar does not open close the groups around it.
            let open = metavar.matches('[').count();
            let close = metavar.matches(']').count().saturating_sub(open);
            let metavar = &metavar[..metavar.len() - close];
            let flags = &mut subs.last_mut().unwrap().1;
            flags.push((format!("--{name}"), metavar.to_string()));
        }
        for (_, flags) in &mut subs {
            flags.sort();
        }
        subs
    }

    /// `help` names exactly the flags the hand-written synopsis named,
    /// metavars included, plus `replay-wal`'s `--silence-deadline` and
    /// less the sharded engine's flags, `federate`'s nemesis flags
    /// (the campaign runs from `xtask nemesis`), `serve --v1-only`
    /// (the server speaks both versions) and `federate`'s `--protocol`
    /// and `--batch-size` (its links send one reading a v2 frame) — and
    /// both agree with the tables.
    #[test]
    fn table_synopsis_names_the_parents_flags() {
        let mut expected = synopsis_flags(HAND_WRITTEN_SYNOPSIS);
        let gone = [
            "--shards",
            "--chaos-seed",
            "--max-shard-restarts",
            "--nemesis-seed",
            "--episodes",
            "--nemesis-migration",
            "--v1-only",
            "--protocol",
            "--batch-size",
        ];
        for (_, flags) in &mut expected {
            flags.retain(|(name, _)| !gone.contains(&name.as_str()));
        }
        let replay_wal = expected.iter_mut().find(|(name, _)| name == "replay-wal");
        let flags = &mut replay_wal.unwrap().1;
        flags.push(("--silence-deadline".into(), "SECS".into()));
        flags.sort();

        let usage = usage();
        let (synopsis, prose) = usage
            .split_once("\n\n")
            .unwrap()
            .1
            .split_once("\n\n")
            .unwrap();
        assert_eq!(prose, PROSE);
        assert!(synopsis.lines().all(|line| line.len() <= 73), "{synopsis}");
        assert_eq!(synopsis_flags(synopsis), expected);

        let mut tables: Vec<(String, Vec<(String, String)>)> = subcommands()
            .iter()
            .map(|sub| {
                let flag = |spec: &FlagSpec| (spec.name.to_string(), spec.metavar.to_string());
                let mut flags: Vec<_> = sub.flags.iter().map(flag).collect();
                flags.sort();
                (sub.name.to_string(), flags)
            })
            .collect();
        tables.push(("help".into(), Vec::new()));
        assert_eq!(tables, expected);
    }

    /// README.md cannot name a flag that does not exist: every fenced
    /// `$ sentinet …` line (or `$ cargo run … -p sentinet-cli -- …`)
    /// parses, and every `--flag` in the prose is a row of some table.
    /// A line that runs cargo is read from its ` -- ` on, where the
    /// program's own arguments start.
    #[test]
    fn readme_names_only_flags_that_exist() {
        let readme = include_str!("../../../README.md");
        let rows: Vec<&str> = subcommands()
            .iter()
            .flat_map(|sub| sub.flags.iter().map(|spec| spec.name).collect::<Vec<_>>())
            .collect();
        let (mut fenced, mut parsed) = (false, 0);
        for (at, line) in readme.lines().enumerate() {
            fenced ^= line.starts_with("```");
            let ours = match line.split_once("cargo ") {
                Some((_, cargo)) => cargo.split_once(" -- ").map_or("", |(_, args)| args),
                None => line,
            };
            let word = |c: char| c.is_ascii_alphanumeric() || c == '-';
            for flag in ours.split(|c| !word(c)).filter(|w| w.starts_with("--")) {
                let named = flag.chars().nth(2).is_some_and(|c| c.is_ascii_lowercase());
                assert!(
                    !named || rows.contains(&flag),
                    "README.md:{}: no table has a row {flag}",
                    at + 1
                );
            }
            let command = ours.split("  #").next().unwrap_or(ours);
            let command = match line.contains("-p sentinet-cli -- ") {
                true => Some(command),
                false => command.strip_prefix("$ sentinet "),
            };
            if let (true, Some(command)) = (fenced && line.starts_with("$ "), command) {
                let parsed_ok = parse(command.split_whitespace());
                assert!(parsed_ok.is_ok(), "README.md:{}: {parsed_ok:?}", at + 1);
                parsed += 1;
            }
        }
        assert!(parsed >= 6, "only {parsed} README command lines were found");
    }
}
