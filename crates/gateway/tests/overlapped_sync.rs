//! The socket server's overlapped group commit, end to end over
//! loopback TCP: the WAL's policy fsync runs on the syncer thread, and
//! an ack is released only when the fsync that was *started* after its
//! batch was appended has come back clean.
//!
//! The fault tests fail the nth fsync of the run through a
//! [`FaultyVfs`] plan and prove the failed one ran on the syncer
//! thread: the collector reports zero nanoseconds blocked in inline
//! fsyncs, so every fsync the plan counted was a background one.
//!
//! The second half is the restore point that rides such a sync: staged
//! on the event loop at the `checkpoint_every` tick, committed (encode,
//! tmp write, rename) by the syncer after the covering fsync, landed
//! back on the loop. Fault plans aim at `checkpoint.tmp` /
//! `checkpoint.ck`; a `Slow` fault holds a commit in flight long enough
//! for a synchronous writer to run into it.

use sentinet_gateway::frame::encode_frame;
use sentinet_gateway::{
    probe_heartbeat, probe_migrate_cut, Collector, FaultPlan, FaultSpec, FaultyVfs, FrameBuffer,
    FsyncPolicy, GatewayConfig, GatewayReport, Message, RestoreStep, Server, ServerConfig,
    StepEvent, StepServer, StorageFault, VfsOp, Wal, WalConfig, CHECKPOINT_FILE, PROTOCOL_VERSION,
};
use sentinet_sim::SensorId;
use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sentinet-overlap-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Readings per batch: at least the `batch:8` threshold, so every
/// admitted batch makes a policy sync due under both policies.
const BATCH: u64 = 16;

fn readings(index: u64) -> Vec<(u64, Vec<f64>)> {
    (index * BATCH..(index + 1) * BATCH)
        .map(|i| (300 * (i + 1), vec![20.0 + (i % 7) as f64, 50.0]))
        .collect()
}

fn batch_of(sensor: u16, index: u64) -> Vec<u8> {
    encode_frame(&Message::DataBatch {
        sensor: SensorId(sensor),
        first_seq: index * BATCH,
        readings: readings(index),
    })
}

fn batch(index: u64) -> Vec<u8> {
    batch_of(0, index)
}

/// A raw v2 client: frames out, typed replies in.
struct Client {
    sock: TcpStream,
    frames: FrameBuffer,
}

impl Client {
    fn connect(addr: &str) -> Self {
        let mut sock = TcpStream::connect(addr).expect("connect");
        sock.write_all(&encode_frame(&Message::Hello {
            version: PROTOCOL_VERSION,
            epoch: 0,
        }))
        .expect("hello");
        let mut client = Self {
            sock,
            frames: FrameBuffer::new(),
        };
        let reply = client.next(Duration::from_secs(10));
        assert!(matches!(reply, Some(Message::HelloAck { .. })), "{reply:?}");
        client
    }

    fn send(&mut self, frame: &[u8]) {
        self.sock.write_all(frame).expect("send");
    }

    /// The next reply, or `None` if none arrives within `patience`.
    fn next(&mut self, patience: Duration) -> Option<Message> {
        self.sock
            .set_read_timeout(Some(patience))
            .expect("read timeout");
        let mut buf = [0u8; 1024];
        loop {
            if let Some(message) = self.frames.next_message().expect("well-formed reply") {
                return Some(message);
            }
            match self.sock.read(&mut buf) {
                Ok(0) => panic!("server closed the connection"),
                Ok(n) => self.frames.feed(&buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return None
                }
                Err(e) => panic!("waiting for a reply: {e}"),
            }
        }
    }
}

/// The third background fsync fails. Batches 0 and 1 are sent
/// stop-and-wait, so syncs one and two cover exactly them; batch 2's
/// sync is the one that fails.
fn background_fsync_failure_loses_no_acked_reading(name: &str, policy: FsyncPolicy) {
    let dir = tmpdir(name);
    let vfs = Arc::new(FaultyVfs::new(FaultPlan::new().with_fault(FaultSpec {
        path: ".seg".into(),
        op: VfsOp::Fsync,
        nth: 3,
        kind: StorageFault::FsyncFail,
        count: 1,
    })));
    let mut config = GatewayConfig::new(&dir);
    config.wal.fsync = policy;
    config.wal.vfs = vfs.clone();
    // No checkpoint, no roll: the only fsyncs are the policy's.
    config.checkpoint_every = 0;
    let (mut collector, _) = Collector::open(config).expect("open");
    let server = Server::start(ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();

    let client = std::thread::spawn(move || {
        let mut client = Client::connect(&addr);
        let patience = Duration::from_secs(10);
        let mut acked = None;
        for index in 0..2 {
            client.send(&batch(index));
            match client.next(patience) {
                Some(Message::AckUpTo { seq, .. }) => acked = Some(seq),
                other => panic!("batch {index}: expected its ack, got {other:?}"),
            }
        }
        // Batch 2's covering fsync fails when it completes: silence for
        // it and for whatever was admitted while it ran, a NACK for the
        // first batch that arrives after the poisoning — and never
        // another ack.
        let mut index = 2;
        let nacked = loop {
            client.send(&batch(index));
            match client.next(Duration::from_millis(20)) {
                Some(Message::Nack { seq, .. }) => break seq,
                None => index += 1,
                Some(other) => panic!("batch {index}: {other:?} after a failed fsync"),
            }
            assert!(index < 500, "the poisoned server never NACKed");
        };
        client.send(&encode_frame(&Message::Fin));
        loop {
            match client.next(patience) {
                Some(Message::FinAck) => break,
                Some(Message::Nack { .. }) => {}
                other => panic!("expected FinAck, got {other:?}"),
            }
        }
        (acked, nacked)
    });

    server.run(&mut collector).expect("serve");
    let (acked, nacked) = client.join().expect("client thread");
    let acked = acked.expect("two clean syncs acked two batches");
    assert_eq!(
        acked,
        2 * BATCH - 1,
        "{policy}: syncs one and two, nothing more"
    );
    assert!(
        nacked >= 3 * BATCH,
        "{policy}: batch 2 itself is never NACKed"
    );
    let status = collector.storage_status();
    let error = status.error.expect("the failed fsync poisoned the wal");
    assert_eq!(error.op, VfsOp::Fsync);
    assert_eq!(vfs.injected().len(), 1);
    assert_eq!(
        collector.stage_timings().sync_blocked_ns,
        0,
        "{policy}: an fsync ran inline, so the failed one may not have been a background one"
    );
    assert!(collector.stage_timings().fsync_ns > 0);
    drop(collector);

    // Reopen on healthy storage: every acked reading is in the log.
    let (_, recovered) = Wal::open(WalConfig::new(&dir), None).expect("reopen");
    for seq in 0..=acked {
        assert!(
            recovered.iter().any(|r| r.seq == seq),
            "{policy}: acked seq {seq} did not survive"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn background_fsync_failure_loses_no_acked_reading_under_batch_8() {
    background_fsync_failure_loses_no_acked_reading("fault-batch8", FsyncPolicy::Batch(8));
}

#[test]
fn background_fsync_failure_loses_no_acked_reading_under_always() {
    background_fsync_failure_loses_no_acked_reading("fault-always", FsyncPolicy::Always);
}

/// A burst of batches with nothing waiting between them: the fsyncs
/// overlap admission, so there are fewer of them than batches, none of
/// them inline, and every batch is still acked before the `FinAck`.
#[test]
fn a_burst_is_covered_by_fewer_background_fsyncs_than_batches() {
    const BATCHES: u64 = 200;
    let dir = tmpdir("burst");
    let vfs = Arc::new(FaultyVfs::new(FaultPlan::new()));
    let mut config = GatewayConfig::new(&dir);
    config.wal.fsync = FsyncPolicy::Always;
    config.wal.vfs = vfs.clone();
    config.checkpoint_every = 0;
    let (mut collector, _) = Collector::open(config).expect("open");
    let server = Server::start(ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let client = std::thread::spawn(move || {
        let mut client = Client::connect(&addr);
        let burst: Vec<u8> = (0..BATCHES).flat_map(batch).collect();
        client.send(&burst);
        let mut acked = None;
        while acked != Some(BATCHES * BATCH - 1) {
            match client.next(Duration::from_secs(10)) {
                Some(Message::AckUpTo { seq, .. }) => {
                    assert!(acked < Some(seq), "cumulative acks only move forward");
                    acked = Some(seq);
                }
                other => panic!("expected an ack, got {other:?}"),
            }
        }
        client.send(&encode_frame(&Message::Fin));
        let reply = client.next(Duration::from_secs(10));
        assert_eq!(reply, Some(Message::FinAck));
    });
    server.run(&mut collector).expect("serve");
    client.join().expect("client thread");
    let fsyncs = vfs.op_count(VfsOp::Fsync);
    assert!(
        (1..BATCHES).contains(&fsyncs),
        "{fsyncs} fsyncs for {BATCHES} batches: the syncs did not group"
    );
    assert_eq!(collector.stage_timings().sync_blocked_ns, 0);
    assert_eq!(collector.unsynced_records(), 0);
    let report = collector.finish().expect("finish");
    assert!(report.storage.is_clean());
    fs::remove_dir_all(&dir).ok();
}

/// `shutdown_handle()` ends a run without a `Fin`, also when no client
/// ever connected and the accept thread sits blocked in `accept`.
#[test]
fn shutdown_handle_stops_an_idle_server() {
    let dir = tmpdir("shutdown");
    let (mut collector, _) = Collector::open(GatewayConfig::new(&dir)).expect("open");
    let server = Server::start(ServerConfig::default()).expect("bind");
    let stop = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.run(&mut collector).expect("serve"));
    stop.store(true, Ordering::SeqCst);
    let stats = serving.join().expect("server thread");
    assert_eq!(
        stats.connections, 0,
        "the wake-up connection is not a client"
    );
    fs::remove_dir_all(&dir).ok();
}

const PATIENCE: Duration = Duration::from_secs(10);

impl Client {
    /// Sends one batch of `sensor` and waits for its cumulative ack.
    fn send_acked(&mut self, sensor: u16, index: u64) {
        self.send(&batch_of(sensor, index));
        match self.next(PATIENCE) {
            Some(Message::AckUpTo { seq, .. }) => assert_eq!(seq, (index + 1) * BATCH - 1),
            other => panic!("batch {index}: expected its ack, got {other:?}"),
        }
    }

    /// Reads cumulative acks until the one for `seq`.
    fn await_ack(&mut self, seq: u64) {
        loop {
            match self.next(PATIENCE) {
                Some(Message::AckUpTo { seq: acked, .. }) if acked == seq => break,
                Some(Message::AckUpTo { .. }) => {}
                other => panic!("expected an ack, got {other:?}"),
            }
        }
    }

    fn fin(&mut self) {
        self.send(&encode_frame(&Message::Fin));
        assert_eq!(self.next(PATIENCE), Some(Message::FinAck));
    }
}

/// Polls the probe connection until heartbeats advertise `cursor`: the
/// restore point taken there has landed.
fn await_landed(addr: &str, cursor: u64) {
    let deadline = std::time::Instant::now() + PATIENCE;
    while probe_heartbeat(addr, 0, Duration::from_secs(1)).map(|(_, c)| c) != Some(cursor) {
        assert!(
            std::time::Instant::now() < deadline,
            "no restore point landed at {cursor}"
        );
    }
}

/// Stops the server when the client is done with it — by then through
/// its `Fin`, unless it panicked.
struct StopOnDrop(Arc<std::sync::atomic::AtomicBool>);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Serves `script`'s client over loopback until its `Fin`.
fn serve(
    config: GatewayConfig,
    script: impl FnOnce(&mut Client, &str) + Send + 'static,
) -> Collector {
    let (mut collector, _) = Collector::open(config).expect("open");
    let server = Server::start(ServerConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let stop = StopOnDrop(server.shutdown_handle());
    let client = std::thread::spawn(move || {
        let _stop = stop;
        let mut client = Client::connect(&addr);
        script(&mut client, &addr);
        client.fin();
    });
    server.run(&mut collector).expect("serve");
    client.join().expect("client thread");
    collector
}

/// One restore point a batch, `batch:8` so every batch's sync is due
/// the moment it is admitted, over a fault plan.
fn restore_config(dir: &PathBuf, faults: FaultPlan) -> (GatewayConfig, Arc<FaultyVfs>) {
    let vfs = Arc::new(FaultyVfs::new(faults));
    let mut config = GatewayConfig::new(dir);
    config.wal.fsync = FsyncPolicy::Batch(8);
    config.wal.vfs = vfs.clone();
    config.checkpoint_every = BATCH;
    (config, vfs)
}

fn fault(path: &str, op: VfsOp, nth: u64, kind: StorageFault, count: u32) -> FaultSpec {
    FaultSpec {
        path: path.into(),
        op,
        nth,
        kind,
        count,
    }
}

const TMP: &str = "checkpoint.tmp";
const SLOW_MS: u64 = 40;

/// (a) The third restore point's commit fails on the syncer — its tmp
/// write torn, or its rename refused. The first two commits are slowed
/// inside the vfs, so any of them running on the event loop would show
/// in the loop's own checkpoint clock.
fn a_commit_failing_on_the_syncer_keeps_the_previous_restore_point(name: &str, failing: FaultSpec) {
    let dir = tmpdir(name);
    let slow = StorageFault::Slow { ms: SLOW_MS };
    let plan = FaultPlan::new()
        .with_fault(fault(TMP, VfsOp::Write, 1, slow, 2))
        .with_fault(failing);
    let (config, vfs) = restore_config(&dir, plan);
    let watch = vfs.clone();
    let mut collector = serve(config, move |client, addr| {
        for index in 0..2 {
            client.send_acked(0, index);
            await_landed(addr, (index + 1) * BATCH);
        }
        // The ack is not held back by the commit that is about to
        // fail: its WAL fsync succeeded.
        client.send_acked(0, 2);
        let deadline = std::time::Instant::now() + PATIENCE;
        while watch.injected().len() < 3 {
            assert!(
                std::time::Instant::now() < deadline,
                "the fault never fired"
            );
            std::thread::yield_now();
        }
    });
    let status = collector.storage_status();
    assert_eq!(status.checkpoint_failures, 1, "counted at the landing");
    assert!(status.error.is_none(), "a failed commit poisons nothing");
    assert_eq!(collector.checkpoint_cursor(), 2 * BATCH);
    let timings = collector.stage_timings();
    assert_eq!(timings.sync_blocked_ns, 0);
    assert!(timings.checkpoint_overlapped_ns >= 2 * SLOW_MS * 1_000_000);
    assert!(
        timings.checkpoint_ns < SLOW_MS * 1_000_000,
        "the event loop ran a commit's IO: {timings:?}"
    );
    collector.sync_wal().expect("sync");
    drop(collector);
    let (_, info) = Collector::open(GatewayConfig::new(&dir)).expect("reopen");
    assert_eq!(info.verified_cursor, Some(2 * BATCH), "the previous one");
    assert_eq!(info.replayed, 3 * BATCH);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_torn_tmp_write_on_the_syncer_keeps_the_previous_restore_point() {
    let torn = StorageFault::TornWrite { bytes: 40 };
    // The plan's first spec slows writes one and two; this one tears
    // the third.
    a_commit_failing_on_the_syncer_keeps_the_previous_restore_point(
        "restore-torn",
        fault(TMP, VfsOp::Write, 3, torn, 1),
    );
}

#[test]
fn a_failed_rename_on_the_syncer_keeps_the_previous_restore_point() {
    a_commit_failing_on_the_syncer_keeps_the_previous_restore_point(
        "restore-rename",
        fault(CHECKPOINT_FILE, VfsOp::Rename, 3, StorageFault::Enospc, 1),
    );
}

/// (b) The WAL fsync a staged restore point rides fails: the log is
/// poisoned and nothing is committed past the unsynced cursor — the
/// tmp file is never even written.
#[test]
fn a_failed_covering_fsync_commits_no_restore_point() {
    let dir = tmpdir("restore-unsynced");
    let plan =
        FaultPlan::new().with_fault(fault(".seg", VfsOp::Fsync, 1, StorageFault::FsyncFail, 1));
    let (config, vfs) = restore_config(&dir, plan);
    let collector = serve(config, |client, _| {
        client.send(&batch(0));
        assert_eq!(client.next(Duration::from_millis(50)), None, "no ack");
        let mut index = 1;
        loop {
            client.send(&batch(index));
            match client.next(Duration::from_millis(20)) {
                Some(Message::Nack { .. }) => break,
                None => index += 1,
                Some(other) => panic!("{other:?} after a failed fsync"),
            }
            assert!(index < 500, "the poisoned server never NACKed");
        }
    });
    let status = collector.storage_status();
    assert_eq!(status.error.expect("poisoned").op, VfsOp::Fsync);
    assert_eq!(vfs.op_count(VfsOp::Write), 0, "no checkpoint.tmp write");
    assert_eq!(vfs.op_count(VfsOp::Rename), 0);
    assert_eq!(collector.checkpoint_cursor(), 0);
    assert!(!dir.join(CHECKPOINT_FILE).exists() && !dir.join(TMP).exists());
    fs::remove_dir_all(&dir).ok();
}

/// The report of `batches` batches of sensor 0 delivered in process to
/// a collector configured by `tweak`, and its final `checkpoint.ck`.
fn in_process(name: &str, batches: u64, tweak: impl Fn(&mut GatewayConfig)) -> (String, Vec<u8>) {
    let dir = tmpdir(name);
    let mut config = GatewayConfig::new(&dir);
    tweak(&mut config);
    let (mut collector, _) = Collector::open(config).expect("open");
    for index in 0..batches {
        let out = collector
            .deliver_batch(SensorId(0), index * BATCH, &readings(index))
            .expect("deliver");
        assert_eq!(out.accepted, BATCH as usize);
    }
    let report = collector.finish().expect("finish");
    let checkpoint = fs::read(dir.join(CHECKPOINT_FILE)).unwrap_or_default();
    fs::remove_dir_all(&dir).ok();
    (pipeline_text(&report), checkpoint)
}

fn pipeline_text(report: &GatewayReport) -> String {
    format!("{}", report.pipeline)
}

/// (c) Retention on, through the server: the first cadence restore
/// point rides the sync that acks batch 3 and is held in its rename
/// while the burst behind it fills the budget, so the budget tick that
/// follows finds it in flight, lands it first and only then plans its
/// own reclaim. No segment is deleted twice, none
/// before its restore point landed, nothing is shed, and the report is
/// the unretained one.
#[test]
fn a_budget_tick_lands_the_cadence_restore_point_in_flight_first() {
    const BATCHES: u64 = 40;
    let (expect, _) = in_process("retain-base", BATCHES, |c| c.checkpoint_every = 0);
    let dir = tmpdir("retain-served");
    let slow = StorageFault::Slow { ms: 10 * SLOW_MS };
    let plan = FaultPlan::new().with_fault(fault(CHECKPOINT_FILE, VfsOp::Rename, 1, slow, 1));
    let (mut config, vfs) = restore_config(&dir, plan);
    let frame = batch(0).len() as u64;
    let budget = 8 * frame;
    config.wal.segment_max_bytes = 2 * frame;
    config.wal.retain_bytes = Some(budget);
    config.checkpoint_every = 4 * BATCH;
    let reopen = config.clone();
    let mut collector = serve(config, |client, _| {
        for index in 0..4 {
            client.send_acked(0, index);
        }
        let burst: Vec<u8> = (4..BATCHES).flat_map(batch).collect();
        client.send(&burst);
        client.await_ack(BATCHES * BATCH - 1);
    });
    let status = collector.storage_status();
    assert!(status.reclaimed_segments > 0, "{status:?}");
    assert_eq!(
        (
            status.reclaim_failures,
            status.checkpoint_failures,
            status.budget_shed
        ),
        (0, 0, 0),
        "{status:?}"
    );
    assert_eq!(
        vfs.op_count(VfsOp::Remove),
        status.reclaimed_segments as u64
    );
    assert!(collector.wal_footprint() <= budget, "the budget is held");
    let timings = collector.stage_timings();
    assert!(
        timings.checkpoint_overlapped_ns >= 10 * SLOW_MS * 1_000_000
            && timings.checkpoint_ns >= 5 * SLOW_MS * 1_000_000,
        "the budget tick never waited for the restore point in flight: {timings:?}"
    );
    collector.sync_wal().expect("sync");
    drop(collector);
    let (reopened, info) = Collector::open(reopen).expect("reopen");
    assert!(info.restored_from.is_some(), "from its restore point");
    assert_eq!(
        pipeline_text(&reopened.finish().expect("finish")),
        expect,
        "byte-equal to the unretained in-process run"
    );
    fs::remove_dir_all(&dir).ok();
}

/// (d) A migration cut ordered on the probe connection while a restore
/// point is held in its rename: the cut lands it first, so the restore
/// point on disk afterwards is the cut's — the pre-cut snapshot is
/// never renamed over it.
#[test]
fn a_migration_cut_is_never_overwritten_by_the_restore_point_in_flight() {
    let dir = tmpdir("restore-cut");
    let slow = StorageFault::Slow { ms: 5 * SLOW_MS };
    let plan = FaultPlan::new().with_fault(fault(CHECKPOINT_FILE, VfsOp::Rename, 2, slow, 1));
    let (config, _) = restore_config(&dir, plan);
    let reopen = config.clone();
    let (cut_tx, cut_rx) = std::sync::mpsc::channel();
    let collector = serve(config, move |client, addr| {
        client.send_acked(0, 0);
        await_landed(addr, BATCH);
        // Sensor 1's restore point is now asleep in its rename.
        client.send_acked(1, 0);
        let (cursor, _) = probe_migrate_cut(addr, 1, 2, PATIENCE).expect("the cut commits");
        cut_tx.send(cursor).expect("report the cut");
    });
    let cut = cut_rx.recv().expect("cut cursor");
    assert_eq!(cut, 2 * BATCH);
    assert_eq!(collector.checkpoint_cursor(), cut);
    assert_eq!(collector.storage_status().checkpoint_failures, 0);
    assert!(
        collector.stage_timings().checkpoint_ns >= SLOW_MS * 1_000_000,
        "the cut never waited for the restore point in flight"
    );
    drop(collector);
    assert!(!dir.join(TMP).exists());
    let (reopened, info) = Collector::open(reopen).expect("reopen");
    assert_eq!(info.restored_from, Some(cut), "the cut's restore point");
    let sensors: Vec<u16> = reopened.snapshot().seqs.iter().map(|(s, ..)| s.0).collect();
    assert_eq!(sensors, [0], "the moved range is not in it");
    fs::remove_dir_all(&dir).ok();
}

/// (e) The end state is the in-process one: the same stream through
/// the server (a burst, so restore points are staged, superseded and
/// overlapped at will) and through `deliver_batch` leaves the same
/// bytes in `checkpoint.ck` and no `checkpoint.tmp` — with no fsync
/// and no commit on the event loop.
#[test]
fn a_served_run_leaves_the_in_process_restore_point() {
    const BATCHES: u64 = 60;
    let tweak = |c: &mut GatewayConfig| {
        c.wal.fsync = FsyncPolicy::Batch(64);
        c.checkpoint_every = 5 * BATCH / 2;
    };
    let (expect, checkpoint) = in_process("restore-inproc", BATCHES, tweak);
    assert!(!checkpoint.is_empty());
    let dir = tmpdir("restore-served");
    let mut config = GatewayConfig::new(&dir);
    tweak(&mut config);
    let collector = serve(config, |client, _| {
        let burst: Vec<u8> = (0..BATCHES).flat_map(batch).collect();
        client.send(&burst);
        client.await_ack(BATCHES * BATCH - 1);
    });
    let timings = collector.stage_timings();
    assert_eq!(
        timings.sync_blocked_ns, 0,
        "no inline fsync in a served run"
    );
    assert!(timings.checkpoint_overlapped_ns > 0);
    let report = collector.finish().expect("finish");
    assert!(report.storage.is_clean());
    assert_eq!(pipeline_text(&report), expect);
    assert!(
        fs::read(dir.join(CHECKPOINT_FILE)).expect("checkpoint") == checkpoint,
        "checkpoint.ck differs from the in-process run's"
    );
    assert!(!dir.join(TMP).exists(), "no tmp left behind");
    fs::remove_dir_all(&dir).ok();
}

/// (e) at the step seam, on the schedule a served run reaches only when
/// the reader falls behind: the syncer's policy sync completes with
/// fewer than `batch:64` readings left uncovered, and the queue runs
/// dry. That flush rides the syncer too — no fsync on the event loop.
#[test]
fn a_dry_queue_behind_a_completed_sync_flushes_on_the_syncer() {
    let dir = tmpdir("dry-flush");
    let mut config = GatewayConfig::new(&dir);
    config.wal.fsync = FsyncPolicy::Batch(64);
    config.checkpoint_every = 0;
    let (collector, _) = Collector::open(config).expect("open");
    let mut server = StepServer::new(collector, 8);
    let conn = server.connect();
    let deliver = |server: &mut StepServer, frame: &[u8]| {
        server.feed(conn, frame);
        match server.step(conn) {
            Ok(StepEvent::Replies(replies)) => replies,
            other => panic!("{other:?}"),
        }
    };
    // The cumulative ack of each batch in `batches`, in order.
    let acks = |batches: std::ops::Range<u64>| -> Vec<(usize, Message)> {
        let sensor = SensorId(0);
        let ack = |index| Message::AckUpTo {
            sensor,
            seq: (index + 1) * BATCH - 1,
        };
        batches.map(|index| (conn, ack(index))).collect()
    };
    let hello = Message::Hello {
        version: PROTOCOL_VERSION,
        epoch: 0,
    };
    deliver(&mut server, &encode_frame(&hello));
    for index in 0..4 {
        assert_eq!(deliver(&mut server, &batch(index)), []);
    }
    assert!(server.start_sync(), "64 readings: the policy's sync");
    assert_eq!(deliver(&mut server, &batch(4)), [], "admitted beside it");
    assert_eq!(server.complete_sync(), acks(0..4));
    assert!(!server.collector().sync_due(), "16 readings: none due");
    let replies = server.queue_dry().expect("healthy storage");
    assert!(
        replies.is_empty() && server.sync_in_flight(),
        "the flush rides the syncer: {replies:?}"
    );
    assert_eq!(
        server.collector().stage_timings().sync_blocked_ns,
        0,
        "no fsync on the event loop"
    );
    assert_eq!(server.complete_sync(), acks(4..5));
    fs::remove_dir_all(&dir).ok();
}

/// The one syncer runs a job's restore commit after its fsync, so a
/// restore point whose sync completed keeps the syncer busy until its
/// commit has an outcome: with the policy's next sync due, the check
/// the server makes after every event, the step seam and a dry queue
/// all refuse to start one, and the sync starts once the restore point
/// has landed — with the next staged one riding it.
#[test]
fn no_sync_starts_while_a_restore_commit_is_unrun() {
    let dir = tmpdir("restore-busy");
    let mut config = GatewayConfig::new(&dir);
    config.wal.fsync = FsyncPolicy::Batch(32);
    config.checkpoint_every = 2 * BATCH;
    let (collector, _) = Collector::open(config).expect("open");
    let mut server = StepServer::new(collector, 8);
    let conn = server.connect();
    let deliver = |server: &mut StepServer, frame: &[u8]| {
        server.feed(conn, frame);
        match server.step(conn) {
            Ok(StepEvent::Replies(replies)) => replies,
            other => panic!("{other:?}"),
        }
    };
    let acks = |batches: std::ops::Range<u64>| -> Vec<(usize, Message)> {
        let ack = |index| Message::AckUpTo {
            sensor: SensorId(0),
            seq: (index + 1) * BATCH - 1,
        };
        batches.map(|index| (conn, ack(index))).collect()
    };
    let hello = Message::Hello {
        version: PROTOCOL_VERSION,
        epoch: 0,
    };
    deliver(&mut server, &encode_frame(&hello));
    for index in 0..2 {
        assert_eq!(deliver(&mut server, &batch(index)), []);
    }
    assert!(server.start_sync(), "32 readings: a restore point rides it");
    for index in 2..4 {
        assert_eq!(deliver(&mut server, &batch(index)), []);
    }
    assert_eq!(server.complete_sync(), acks(0..2));
    assert_eq!(server.restore_step_ready(), Some(RestoreStep::Write));
    assert!(!server.collector().sync_due(), "the syncer is busy");
    assert!(!server.start_sync());
    assert_eq!(server.queue_dry().expect("healthy storage"), []);
    assert!(!server.sync_in_flight(), "the flush waits for the syncer");
    for step in [RestoreStep::Write, RestoreStep::Rename, RestoreStep::Land] {
        assert_eq!(server.restore_step_ready(), Some(step));
        server.step_restore();
    }
    assert_eq!(server.collector().checkpoint_cursor(), 2 * BATCH);
    assert!(server.collector().sync_due(), "idle: the policy's sync");
    assert!(server.start_sync());
    assert_eq!(server.restore_step_ready(), None, "the next one rides it");
    assert_eq!(server.complete_sync(), acks(2..4));
    assert_eq!(server.restore_step_ready(), Some(RestoreStep::Write));
    fs::remove_dir_all(&dir).ok();
}

/// (f) Kill between the tmp write and the rename, through the step
/// seam: the reopened collector verifies the previous restore point,
/// replays the whole log, and finishes to the uninterrupted report.
#[test]
fn a_kill_between_tmp_write_and_rename_recovers_from_the_previous_restore_point() {
    const BATCHES: u64 = 6;
    let tweak = |c: &mut GatewayConfig| {
        c.wal.fsync = FsyncPolicy::Batch(1_000_000);
        c.checkpoint_every = BATCH;
    };
    let (expect, _) = in_process("restore-kill-base", BATCHES, tweak);
    let dir = tmpdir("restore-kill");
    let mut config = GatewayConfig::new(&dir);
    tweak(&mut config);
    let (collector, _) = Collector::open(config.clone()).expect("open");
    let mut server = StepServer::new(collector, 4);
    let conn = server.connect();
    let deliver = |server: &mut StepServer, frame: &[u8]| {
        server.feed(conn, frame);
        assert!(matches!(server.step(conn), Ok(StepEvent::Replies(_))));
    };
    deliver(
        &mut server,
        &encode_frame(&Message::Hello {
            version: PROTOCOL_VERSION,
            epoch: 0,
        }),
    );
    for index in 0..2 {
        deliver(&mut server, &batch(index));
        assert_eq!(server.restore_step_ready(), None, "staged, not dispatched");
        assert!(server.start_sync());
        assert_eq!(server.restore_step_ready(), None, "not before its fsync");
        let acks = server.complete_sync();
        assert!(matches!(acks[..], [(_, Message::AckUpTo { .. })]));
        assert_eq!(server.restore_step_ready(), Some(RestoreStep::Write));
        server.step_restore(); // checkpoint.tmp written
        assert!(dir.join(TMP).exists());
        if index == 1 {
            break;
        }
        server.step_restore(); // renamed
        assert!(!dir.join(TMP).exists());
        assert_eq!(server.collector().checkpoint_cursor(), 0, "not landed");
        assert_eq!(server.restore_step_ready(), Some(RestoreStep::Land));
        server.step_restore(); // landed
        assert_eq!(server.collector().checkpoint_cursor(), BATCH);
    }
    drop(server); // kill -9 with the second restore point's tmp written
    let (mut collector, info) = Collector::open(config).expect("reopen");
    assert_eq!(info.verified_cursor, Some(BATCH));
    assert_eq!(info.replayed, 2 * BATCH);
    for index in 2..BATCHES {
        collector
            .deliver_batch(SensorId(0), index * BATCH, &readings(index))
            .expect("deliver");
    }
    let report = collector.finish().expect("finish");
    assert_eq!(pipeline_text(&report), expect);
    assert!(
        !dir.join(TMP).exists(),
        "the next commit replaced the leftover"
    );
    fs::remove_dir_all(&dir).ok();
}
