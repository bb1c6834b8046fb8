//! `sentinet` — command-line front end.
//!
//! Five subcommands close the loop for a downstream user:
//!
//! - `sentinet simulate out.csv --fault 6:stuck=15,1` generates a
//!   GDI-like trace CSV with optional fault/attack injections;
//! - `sentinet analyze out.csv` runs the full detection pipeline over
//!   any trace CSV (simulated or real) and prints the diagnosis report
//!   plus the recommended recovery plan;
//! - `sentinet serve --wal-dir w` runs the durable live-ingest daemon:
//!   frames arrive over a socket, are WAL-appended before being acked,
//!   and a killed process resumes to a bit-identical report;
//! - `sentinet replay-wal --wal-dir w` rebuilds that report offline
//!   from the log alone;
//! - `sentinet federate trace.csv --wal-root r` partitions the sensors
//!   over several `serve` children behind a controller that fails a
//!   dead one over to a standby, and prints the merged fleet diagnosis.

mod args;

use args::{AnalyzeArgs, Command, FederateArgs, ReplayWalArgs, ServeArgs, SimulateArgs};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_controller::{Federation, PartitionMap, ProcessBackend};
use sentinet_core::{Pipeline, PipelineReport, RecoveryPlan};
use sentinet_gateway::{Collector, GatewayReport, Server};
use sentinet_inject::{inject_attacks, inject_faults, AttackInjection, FaultInjection};
use sentinet_sim::{gdi, read_trace_sanitized, simulate, write_trace, SensorId, DAY_S};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::parse(argv.iter().map(String::as_str)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", args::usage());
            return ExitCode::from(2);
        }
    };
    let result = match parsed {
        Command::Help => {
            print!("{}", args::usage());
            Ok(())
        }
        Command::Simulate(a) => run_simulate(a),
        Command::Analyze(a) => run_analyze(a),
        Command::Serve(a) => run_serve(a),
        Command::ReplayWal(a) => run_replay_wal(a),
        Command::Federate(a) => run_federate(*a),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_simulate(a: SimulateArgs) -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = gdi::month_config();
    cfg.duration = a.days * DAY_S;
    cfg.num_sensors = a.sensors;
    let mut rng = StdRng::seed_from_u64(a.seed);
    let mut trace = simulate(&cfg, &mut rng);
    if let Some((sensor, model)) = a.fault {
        if sensor.0 >= a.sensors {
            return Err(
                format!("fault sensor {} out of range (0..{})", sensor.0, a.sensors).into(),
            );
        }
        trace = inject_faults(
            &trace,
            // Fault onset after one clean day (or immediately for
            // single-day traces) so the bootstrap sees healthy data.
            &[FaultInjection::from_onset(
                sensor,
                model,
                if a.days > 1 { DAY_S } else { 0 },
            )],
            &cfg.ranges,
            &mut rng,
        );
    }
    if let Some((count, model)) = a.attack {
        if count > a.sensors {
            return Err(format!("cannot compromise {count} of {} sensors", a.sensors).into());
        }
        trace = inject_attacks(
            &trace,
            &[AttackInjection::from_onset(
                (0..count).map(SensorId).collect(),
                model,
                a.days / 2 * DAY_S,
            )],
            &cfg.ranges,
        );
    }
    // sentinet-allow(io-outside-vfs): the simulate subcommand's CSV output
    // is a terminal-program deliverable, not gateway-durable state.
    let file = File::create(&a.output)?;
    write_trace(&trace, 2, BufWriter::new(file))?;
    println!(
        "wrote {} records ({} days, {} sensors, {:.1}% lost/malformed) to {}",
        trace.len(),
        a.days,
        a.sensors,
        100.0 * trace.loss_rate(),
        a.output
    );
    Ok(())
}

fn run_analyze(a: AnalyzeArgs) -> Result<(), Box<dyn std::error::Error>> {
    let file = File::open(&a.input)?;
    // Sanitized ingest: NaN/∞ payloads, duplicate and out-of-order
    // timestamps are dropped and accounted for instead of aborting
    // (or, worse, panicking inside the estimators).
    let (trace, ingest) = read_trace_sanitized(BufReader::new(file))?;
    if !ingest.is_clean() {
        eprintln!(
            "warning: ingest rejected {} of {} delivered record(s):",
            ingest.rejected.len(),
            ingest.accepted + ingest.rejected.len()
        );
        for e in &ingest.rejected {
            eprintln!("  {e}");
        }
    }
    if trace.is_empty() {
        return Err("trace contains no records".into());
    }
    let mut pipeline = Pipeline::new(a.shape.pipeline, a.shape.sample_period);
    pipeline.process_trace(&trace);
    let plan = RecoveryPlan::from_pipeline(&pipeline);
    print_pipeline_report(&pipeline.report(), &plan, a.quiet);
    Ok(())
}

/// Prints a finished gateway run (diagnosis stdout, accounting stderr)
/// and applies the same exit-3-when-flagged scripting contract as
/// `analyze`. Keeping accounting off stdout keeps reports comparable
/// byte for byte across live, crashed-and-resumed, and replayed runs.
fn finish_gateway_report(report: &GatewayReport, quiet: bool) {
    let ingest = &report.ingest;
    if !ingest.rejected.is_empty() {
        eprintln!(
            "warning: sanitizer rejected {} record(s):",
            ingest.rejected.len()
        );
        for e in &ingest.rejected {
            eprintln!("  {e}");
        }
    }
    eprintln!(
        "ingest: {} accepted, {} duplicate(s), {} late, {} shed",
        ingest.accepted, ingest.duplicates, ingest.late, ingest.shed
    );
    let storage = &report.storage;
    if !storage.is_clean() {
        eprintln!(
            "storage: {} budget-shed, {} rejected-while-poisoned, \
             {} checkpoint failure(s), {} reclaim failure(s)",
            storage.budget_shed,
            storage.storage_rejects,
            storage.checkpoint_failures,
            storage.reclaim_failures
        );
        if let Some(err) = &storage.error {
            eprintln!("warning: wal poisoned by storage failure: {err}");
        }
    }
    if let Some(epoch) = storage.fenced_by {
        eprintln!(
            "warning: fenced by newer owner epoch {epoch}: {} append(s) NACKed",
            storage.fence_rejects
        );
    }
    if storage.unframable_rejects > 0 {
        eprintln!(
            "warning: {} reading(s) NACKed as too wide for a wal frame",
            storage.unframable_rejects
        );
    }
    if storage.reclaimed_segments > 0 {
        eprintln!(
            "retention: reclaimed {} checkpointed segment(s)",
            storage.reclaimed_segments
        );
    }
    if report.liveness.episodes > 0 || !report.liveness.is_live() {
        eprintln!("warning: {}", report.liveness);
    }
    print_pipeline_report(&report.pipeline, &report.plan, quiet);
}

fn print_pipeline_report(report: &PipelineReport, plan: &RecoveryPlan, quiet: bool) {
    if quiet {
        for s in &report.sensors {
            println!("{}\t{}", s.sensor, s.diagnosis);
        }
    } else {
        print!("{report}");
        println!("\nrecovery plan:");
        for (id, action) in &plan.actions {
            println!("  {id}: {action:?}");
        }
    }
    if report.flagged().count() > 0 || report.network_attack.is_some() {
        std::process::exit(3);
    }
}

fn run_serve(a: ServeArgs) -> Result<(), Box<dyn std::error::Error>> {
    let (mut collector, info) = Collector::open(a.gateway)?;
    if info.replayed > 0 || info.restored_from.is_some() {
        eprintln!(
            "recovered {} record(s) from the wal{}",
            info.replayed,
            match (info.restored_from, info.verified_cursor) {
                (Some(cursor), _) => format!(" (restored from checkpoint at cursor {cursor})"),
                (None, Some(cursor)) => format!(" (checkpoint verified at cursor {cursor})"),
                (None, None) => String::new(),
            }
        );
    }
    let server = Server::start(a.server)?;
    // Scripts (and the crash-recovery tests) parse this line to learn
    // the resolved ephemeral port; stdout is line-buffered, so it is
    // visible before the first client connects.
    println!("listening on {}", server.addr());
    let stats = server.run(&mut collector)?;
    eprintln!(
        "served {} connection(s), {} dropped on bad frames",
        stats.connections, stats.bad_frames
    );
    for e in &stats.frame_errors {
        eprintln!("  dropped connection: {e}");
    }
    let report = collector.finish()?;
    finish_gateway_report(&report, a.quiet);
    Ok(())
}

fn run_federate(mut a: FederateArgs) -> Result<(), Box<dyn std::error::Error>> {
    let file = File::open(&a.input)?;
    let (trace, ingest) = read_trace_sanitized(BufReader::new(file))?;
    if !ingest.is_clean() {
        eprintln!(
            "warning: ingest rejected {} of {} delivered record(s)",
            ingest.rejected.len(),
            ingest.accepted + ingest.rejected.len()
        );
    }
    if trace.is_empty() {
        return Err("trace contains no records".into());
    }
    let num_sensors = trace
        .delivered()
        .map(|(_, sensor, _)| sensor.0 + 1)
        .max()
        .ok_or("trace delivered no records")?;
    if (a.partitions as u64) > u64::from(num_sensors) {
        return Err(format!(
            "cannot split {num_sensors} sensor(s) over {} partitions",
            a.partitions
        )
        .into());
    }

    a.process.binary = std::env::current_exe()?;
    let backend = ProcessBackend::new(a.process);
    let map = PartitionMap::split_even(num_sensors, a.partitions)?;
    let mut fed = Federation::new(map, a.federation, backend)?;
    if let Some((p, sensor, after)) = a.split {
        fed.schedule_split(p, SensorId(sensor), after)?;
    }
    if let Some((p, after)) = a.rebalance {
        fed.schedule_rebalance(p, after);
    }
    for (time, sensor, reading) in trace.delivered() {
        fed.route(sensor, time, reading.values())?;
    }
    let fleet = fed.finish()?;

    // The run facts go to stderr; stdout stays byte-comparable across
    // drilled and uninterrupted runs, mirroring serve/replay-wal.
    for event in &fleet.events {
        eprintln!("federation: {event}");
    }
    eprint!("{}", fleet.render_accounting());
    if a.quiet {
        for p in &fleet.partitions {
            for s in &p.report.pipeline.sensors {
                println!("{}\t{}", s.sensor, s.diagnosis);
            }
        }
    } else {
        print!("{}", fleet.render_diagnosis());
    }
    if fleet.flagged() {
        std::process::exit(3);
    }
    Ok(())
}

fn run_replay_wal(a: ReplayWalArgs) -> Result<(), Box<dyn std::error::Error>> {
    let mut config = a.gateway;
    // Offline replay must not rewrite the log's checkpoints.
    config.checkpoint_every = 0;
    let (collector, info) = Collector::open(config)?;
    if let Some(cursor) = info.restored_from {
        eprintln!("restored from checkpoint at cursor {cursor}");
    }
    eprintln!("replayed {} record(s) from the wal", info.replayed);
    let report = collector.finish()?;
    finish_gateway_report(&report, a.quiet);
    Ok(())
}
