//! `sentinet-benchmark` — the repo's ruler. One process runs one
//! workload: it builds the inputs from `--seed`, measures for
//! `--seconds`, checks the program's outputs against a reference and
//! prints every metric by name. `--trace 0` gives the end-to-end
//! metrics; `--trace 1` re-runs the workload under spans and then walks
//! the layer ladder over the same trace for the per-layer metrics.
//! The last line of standard output is the driver's JSON object.

mod analyze;
mod federate;
mod host;
mod ingest;
mod inputs;
mod ladder;
mod paced;
mod report;
mod span;
mod stats;

use host::Scratch;
use report::Outcome;
use std::path::PathBuf;
use std::time::Instant;

/// The five workloads: the two `BENCHMARK.json` names, which the
/// driver checks against bounds, then the three informational ones
/// `run.sh` runs after them (see the README for why they are not
/// bounded).
pub const WORKLOADS: [&str; 5] = [
    "analyze",
    "ingest-saturate",
    "ingest-retain",
    "ingest-paced",
    "federate",
];

/// Where the detailed result, the span file and the WAL scratch
/// directories go, relative to the checkout root `run.sh` runs from.
const OUT: &str = "benchmark/out";

/// How often the set-up is repeated; `setup_s` is the 5th percentile
/// of the repetitions, like every other timing.
const SETUP_REPEATS: usize = 9;

/// What every workload is handed.
pub struct Ctx {
    pub seed: u64,
    /// Seconds the measured phase lasts (the rep in progress finishes;
    /// at least one rep always runs).
    pub seconds: f64,
    pub scratch: Scratch,
    /// Where the span file and the detailed result go.
    pub out: PathBuf,
}

impl Ctx {
    /// Runs the set-up [`SETUP_REPEATS`] times, returning the last
    /// result and the wall seconds of each repetition.
    pub fn setup<T>(&self, f: impl Fn() -> T) -> (T, Vec<f64>) {
        let mut seconds = Vec::new();
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            drop(last.take());
            let start = Instant::now();
            last = Some(f());
            seconds.push(start.elapsed().as_secs_f64());
        }
        (last.expect("set-up ran"), seconds)
    }

    /// Runs `rep` (handed its index) until the measured phase has
    /// lasted [`Ctx::seconds`]; returns how many reps ran.
    pub fn reps(&self, rep: impl FnMut(u32)) -> u32 {
        repeat(self.seconds, rep)
    }
}

/// Runs `rep` until `seconds` have passed — the rep in progress
/// finishes, and at least one always runs. Returns the rep count.
pub fn repeat(seconds: f64, mut rep: impl FnMut(u32)) -> u32 {
    let clock = Instant::now();
    let mut n = 0;
    while n == 0 || clock.elapsed().as_secs_f64() < seconds {
        rep(n);
        n += 1;
    }
    n
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: sentinet-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 55.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str())
        || !args.seconds.is_finite()
        || args.seconds < 0.0
    {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let out = PathBuf::from(OUT);
    std::fs::create_dir_all(&out).expect("create output directory");
    // An earlier run's result must not pass for this one's if this one
    // fails.
    let detail = out.join(format!(
        "{}.seed{}.trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::remove_file(&detail);
    let scratch = Scratch::new(&out.join("scratch")).expect("create scratch directory");
    let ticks = host::cpu_ticks();
    println!(
        "host cpus {} kernel {} filesystem {} ({})",
        host::cpus(),
        host::kernel(),
        host::filesystem_type(scratch.root()),
        scratch.root().display()
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        scratch,
        out: out.clone(),
    };
    let workload = WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == args.workload)
        .expect("validated workload name");
    let mut outcome: Outcome = if args.trace {
        ladder::run(&ctx, workload)
    } else {
        let e = match workload {
            "analyze" => analyze::run(&ctx),
            "ingest-saturate" => ingest::run(&ctx, ingest::Retention::Off),
            "ingest-retain" => ingest::run(&ctx, ingest::Retention::On),
            "ingest-paced" => paced::run(&ctx),
            _ => federate::run(&ctx),
        };
        Outcome {
            workload,
            traced: false,
            tally: e.tally,
            metrics: e.metrics(),
            info: e.info,
            failures: e.failures,
        }
    };
    // How much of the run's CPU time the hypervisor gave away: a run
    // with a large share measured the neighbours as well.
    outcome.info.push(report::Metric::exact(
        "host.steal_share",
        "ratio",
        host::steal_share(ticks, host::cpu_ticks()),
    ));
    // Remove the WAL directories before reporting, whatever happened.
    drop(ctx);
    if !outcome.correct() {
        // A run whose outputs are wrong reports nothing — no table, no
        // result file, no driver line: the numbers of a broken program
        // are not numbers.
        for f in &outcome.failures {
            eprintln!("{workload}: output check failed: {f}");
        }
        std::process::exit(1);
    }
    std::fs::write(&detail, outcome.detail_json(args.seed, args.seconds) + "\n")
        .expect("write detailed result");
    print!("{}", outcome.table());
    println!("{}", outcome.driver_json());
}
