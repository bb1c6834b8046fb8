//! A replayed log reproduces the live run only under the flags it was
//! served with, and `replay-wal` takes every one of them: a log served
//! under `--silence-deadline 600`, whose last restore point was cut
//! while a sensor had been silent for more than 600 s but less than the
//! default 3 600 s, replays under `--silence-deadline 600` — and is
//! still refused, loudly, under the default.

use sentinet_gateway::{SensorUplink, UplinkConfig};
use sentinet_sim::SensorId;
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Output, Stdio};

fn replay_wal(dir: &std::path::Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sentinet"))
        .args(["replay-wal", "--wal-dir", dir.to_str().unwrap()])
        .args(extra)
        .output()
        .expect("spawn replay-wal")
}

#[test]
fn a_log_served_under_a_short_silence_deadline_replays_under_it() {
    let dir = std::env::temp_dir().join(format!("sentinet-replay-shape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_sentinet"))
        .args(["serve", "--wal-dir", dir.to_str().unwrap()])
        .args(["--silence-deadline", "600", "--checkpoint-every", "8"])
        .args(["--fsync", "never"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listening line");
    let addr = line.strip_prefix("listening on ").expect("listening line");

    // Sensor 1 stops after five readings; sensor 0 carries on to the
    // 24th record at t = 5 700. The default 1 800 s watermark then
    // stands at 3 900: sensor 1, last heard at 1 500, is 2 400 s behind
    // it — silent under a 600 s deadline, live under 3 600 s — and the
    // third restore point (every 8 records) is cut exactly there.
    let mut uplink = SensorUplink::new(UplinkConfig::new(addr.trim()));
    for tick in 0..19u64 {
        let sensors = if tick < 5 { 2 } else { 1 };
        for sensor in 0..sensors {
            let values = [20.0 + (tick % 7) as f64, 50.0 + f64::from(sensor)];
            uplink
                .send_at(SensorId(sensor), tick, 300 * (tick + 1), &values)
                .expect("durable ack");
        }
    }
    uplink.finish().expect("fin/finack");
    let mut live = String::new();
    stdout.read_to_string(&mut live).expect("read report");
    let mut live_err = String::new();
    let mut stderr = child.stderr.take().expect("piped stderr");
    stderr.read_to_string(&mut live_err).expect("read stderr");
    let live_status = child.wait().expect("wait serve");
    assert!(
        live_err.contains("silent"),
        "the live run must have seen the silence:\n{live_err}"
    );

    let same = replay_wal(&dir, &["--silence-deadline", "600"]);
    let replay_err = String::from_utf8_lossy(&same.stderr);
    assert_eq!(same.status.code(), live_status.code(), "{replay_err}");
    assert_eq!(String::from_utf8_lossy(&same.stdout), live, "{replay_err}");
    assert!(replay_err.contains("replayed 24 record(s)"), "{replay_err}");

    // The check that catches a mismatched shape is a safety property
    // and stays: the default deadline is not the one this log ran under.
    let other = replay_wal(&dir, &[]);
    assert_eq!(other.status.code(), Some(1));
    let refusal = String::from_utf8_lossy(&other.stderr);
    assert!(
        refusal.contains("checkpoint mismatch at wal cursor 24"),
        "{refusal}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
