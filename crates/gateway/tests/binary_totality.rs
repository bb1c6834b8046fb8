//! Decoder totality for the two binary formats (ROADMAP 4c, the half
//! the text suites left): the frame stream a socket hands
//! [`FrameBuffer`] — through both of its entry points, the reader's
//! [`FrameBuffer::next_frame`] (a batch stays in its arena) and
//! [`FrameBuffer::next_message`], which must agree frame for frame and
//! error for error — and the segment files a disk hands [`Wal::open`].
//! Arbitrary bytes, truncations and every single-bit flip of a valid
//! input give a value or a typed error — never a panic, never an
//! allocation sized by a length the input merely states (a batch
//! frame's reading count and each reading's value count are the two
//! such fields a peer or a bad sector controls). On top of totality,
//! damage is contained: a frame stream yields exactly the messages in
//! front of the damaged frame; a flip in the WAL's last segment
//! recovers exactly the records of the whole frames in front of it, a
//! flip in an earlier segment is [`WalError::Corrupt`]. A restore point
//! that names buffered readings by log position is held to its log: a
//! naming the log cannot back is `CheckpointMalformed` at the reopen.

#[path = "../../../tests/support/seeded.rs"]
mod seeded;
mod support;
#[path = "../../../tests/support/totality.rs"]
mod totality;

use seeded::{mutate, Replay, TestRng};
use sentinet_gateway::frame::{encode_frame, frame_payload};
use sentinet_gateway::{
    AckDiscipline, Collector, Frame, FrameBuffer, FrameError, FsyncPolicy, GatewayConfig,
    GatewayError, Message, StepEvent, StepServer, Wal, WalConfig, WalError, WalRecord,
    CHECKPOINT_FILE, MAX_BATCH_READINGS, PROTOCOL_VERSION,
};
use sentinet_sim::SensorId;
use std::path::{Path, PathBuf};
use support::frame_ends;
use totality::{check_total_bytes, PeakAlloc};

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

fn replay(test: &'static str) -> Replay {
    Replay {
        var: "BINARY_TOTALITY_SEED",
        package: "sentinet-gateway",
        target: "--test binary_totality",
        test,
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sentinet-binary-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One of every message kind a server-bound or client-bound stream
/// carries, batches of several shapes among them.
fn stream() -> Vec<Message> {
    vec![
        Message::Hello {
            version: PROTOCOL_VERSION,
            epoch: 3,
        },
        Message::Data {
            sensor: SensorId(1),
            seq: 0,
            time: 300,
            values: vec![20.5, 55.0],
        },
        Message::DataBatch {
            sensor: SensorId(2),
            first_seq: 7,
            readings: vec![
                (300, vec![1.0, 2.0]),
                (600, vec![]),
                (900, vec![f64::NAN, -0.0, 1e300]),
            ],
        },
        Message::AckUpTo {
            sensor: SensorId(2),
            seq: 9,
        },
        Message::MigrateAccept {
            start: 0,
            end: 4,
            cursor: 12,
            snapshot: b"sentinet-collector v1\nnot really".to_vec(),
        },
        Message::DataBatch {
            sensor: SensorId(0),
            first_seq: 0,
            readings: (0..40).map(|i| (300 * (i + 1), vec![i as f64])).collect(),
        },
        Message::Fin,
    ]
}

/// Everything `bytes` decodes to before the stream runs dry or dies.
fn drain(bytes: &[u8]) -> (Vec<Message>, Result<(), FrameError>) {
    let mut fb = FrameBuffer::new();
    fb.feed(bytes);
    let mut popped = Vec::new();
    loop {
        match fb.next_message() {
            Ok(Some(msg)) => popped.push(msg),
            Ok(None) => return (popped, Ok(())),
            Err(e) => return (popped, Err(e)),
        }
    }
}

/// [`drain`] through the reader's entry point: batches stay in the
/// arenas they were decoded into.
fn drain_frames(bytes: &[u8]) -> (Vec<Frame>, Result<(), FrameError>) {
    let mut fb = FrameBuffer::new();
    fb.feed(bytes);
    let mut popped = Vec::new();
    loop {
        match fb.next_frame() {
            Ok(Some(frame)) => popped.push(frame),
            Ok(None) => return (popped, Ok(())),
            Err(e) => return (popped, Err(e)),
        }
    }
}

/// Drains `bytes` through both entry points, each under the allocation
/// bound for its input, and holds them to one answer: the same frames,
/// the same end.
fn drain_both(bytes: &[u8]) -> Result<(Vec<Message>, Result<(), FrameError>), String> {
    let (frames, frames_end) = check_total_bytes(bytes.len(), || drain_frames(bytes))
        .map_err(|why| format!("next_frame: {why}"))?;
    let (popped, end) = check_total_bytes(bytes.len(), || drain(bytes))
        .map_err(|why| format!("next_message: {why}"))?;
    let from_arenas: Vec<Message> = frames.into_iter().map(Frame::into_message).collect();
    if !same(&from_arenas, &popped) || frames_end != end {
        return Err(format!(
            "next_frame popped {} frame(s) ending {frames_end:?}, next_message {} ending {end:?}",
            from_arenas.len(),
            popped.len()
        ));
    }
    Ok((popped, end))
}

/// `NaN`-proof message equality.
fn same(a: &[Message], b: &[Message]) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

#[test]
fn damaged_frame_streams_decode_to_a_value_or_a_typed_error() {
    let messages = stream();
    let valid: Vec<u8> = messages.iter().flat_map(encode_frame).collect();
    let (clean, end) = drain_both(&valid).expect("a valid stream");
    assert!(same(&clean, &messages) && end.is_ok());
    replay("damaged_frame_streams_decode_to_a_value_or_a_typed_error").for_each_seed(
        3_000,
        |seed| {
            let (what, bytes) = mutate(&mut TestRng::new(seed), &valid);
            drain_both(&bytes)
                .map(|_| ())
                .map_err(|why| format!("{what}: {why}"))
        },
    );
}

/// The "seed" is a bit's index in the stream, so a failure names the
/// flip and replays alone.
#[test]
fn every_bit_flip_of_a_frame_stream_stops_at_the_damaged_frame() {
    let messages = stream();
    let valid: Vec<u8> = messages.iter().flat_map(encode_frame).collect();
    let bounds = frame_ends(&valid);
    replay("every_bit_flip_of_a_frame_stream_stops_at_the_damaged_frame").for_each_seed(
        8 * valid.len() as u64,
        |bit| {
            let (byte, bit) = ((bit / 8) as usize, bit % 8);
            let mut bytes = valid.clone();
            bytes[byte] ^= 1 << bit;
            let (popped, end) = drain_both(&bytes)?;
            let victim = bounds
                .iter()
                .position(|&(frame_end, _)| byte < frame_end)
                .expect("the flipped byte is inside a frame");
            if !same(&popped, &messages[..victim]) {
                return Err(format!(
                    "bit {bit} of byte {byte} (frame {victim}): {} message(s) decoded, ending {end:?}",
                    popped.len()
                ));
            }
            Ok(())
        },
    );
}

/// A frame over [`MAX_BATCH_READINGS`] is fatal to the connection that
/// sent it and to nothing else: its neighbour's batch is admitted,
/// committed and acked as if nothing had happened.
#[test]
fn an_oversized_batch_kills_only_its_own_connection() {
    let dir = scratch("oversized");
    let mut config = GatewayConfig::new(&dir);
    config.wal.fsync = FsyncPolicy::Batch(64);
    let (collector, _) = Collector::open(config).expect("fresh directory");
    let mut server = StepServer::new(collector, 4, AckDiscipline::Durable);
    let hello = encode_frame(&Message::Hello {
        version: PROTOCOL_VERSION,
        epoch: 0,
    });
    let (rogue, honest) = (server.connect(), server.connect());
    for conn in [rogue, honest] {
        server.feed(conn, &hello);
        assert!(matches!(server.step(conn), Ok(StepEvent::Replies(_))));
    }
    // `encode_frame` would wrap nothing here — 4 097 fits a `u16` —
    // but no shipped encoder builds such a batch, so write it by hand.
    let count = MAX_BATCH_READINGS as u16 + 1;
    let mut payload = vec![7u8];
    payload.extend_from_slice(&5u16.to_le_bytes());
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(&count.to_le_bytes());
    for i in 0..u64::from(count) {
        payload.extend_from_slice(&(300 * (i + 1)).to_le_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes());
    }
    let mut oversized = Vec::new();
    frame_payload(&payload, &mut oversized);
    server.feed(rogue, &oversized);
    assert_eq!(
        server.step(rogue).expect("not a collector failure"),
        StepEvent::BadFrame(FrameError::BatchTooLong {
            count: MAX_BATCH_READINGS + 1
        })
    );
    assert_eq!(server.collector().wal_records(), 0, "nothing was admitted");
    // The rogue connection is gone; more bytes on it go nowhere.
    server.feed(rogue, &hello);
    assert_eq!(server.step(rogue).unwrap(), StepEvent::Idle);

    server.feed(
        honest,
        &encode_frame(&Message::DataBatch {
            sensor: SensorId(1),
            first_seq: 0,
            readings: vec![(300, vec![20.0, 50.0]), (600, vec![21.0, 51.0])],
        }),
    );
    assert_eq!(
        server.step(honest).unwrap(),
        StepEvent::Replies(Vec::new()),
        "admitted; the ack waits for the group commit"
    );
    let released = server.commit().expect("healthy storage");
    assert_eq!(
        released,
        vec![(
            honest,
            Message::AckUpTo {
                sensor: SensorId(1),
                seq: 1
            }
        )]
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The two length fields a peer or a bad sector controls — a batch's
/// reading count, a reading's value count — forged to every
/// interesting size *under a valid CRC*, which random damage never
/// produces: both decoders must notice that the payload cannot back
/// the claim before sizing anything by it.
#[test]
fn forged_length_fields_allocate_nothing_the_input_cannot_back() {
    let root = scratch("forged");
    let payload_of = |msg: &Message| {
        let frame = encode_frame(msg);
        frame[4..frame.len() - 4].to_vec()
    };
    let messages = stream();
    // (payload, offset of a u16 length field in it)
    let fields = [
        (payload_of(&messages[1]), 1 + 2 + 8 + 8), // Data: value count
        (payload_of(&messages[2]), 1 + 2 + 8),     // DataBatch: reading count
        (payload_of(&messages[2]), 1 + 2 + 8 + 2 + 8), // its first value count
        (payload_of(&messages[5]), 1 + 2 + 8),
    ];
    let sizes = [0u16, 1, 2, 39, 41, 4096, 4097, 0x7FFF, u16::MAX];
    for (payload, at) in &fields {
        let honest = u16::from_le_bytes([payload[*at], payload[*at + 1]]);
        for &claim in &sizes {
            let mut forged = payload.clone();
            forged[*at..*at + 2].copy_from_slice(&claim.to_le_bytes());
            let mut frame = Vec::new();
            frame_payload(&forged, &mut frame);
            let what = format!("u16 at payload byte {at} forged {honest} -> {claim}");

            let (popped, end) =
                drain_both(&frame).unwrap_or_else(|why| panic!("FrameBuffer, {what}: {why}"));
            assert!(
                (popped.len() == 1 && end.is_ok()) == (claim == honest),
                "FrameBuffer, {what}: {popped:?} then {end:?}"
            );

            // The same bytes as a log's only segment: the frame is a
            // torn tail unless the claim is the honest one.
            let opened = open_segments(&root.join("case"), &[&frame])
                .unwrap_or_else(|why| panic!("Wal::open, {what}: {why}"));
            let recovered = opened.unwrap_or_else(|e| panic!("Wal::open, {what}: {e}"));
            assert_eq!(recovered.is_empty(), claim != honest, "Wal::open, {what}");
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

/// A two-segment log holding both frame kinds the writer makes: lone
/// readings (`Data` frames, of one to three values) between runs (the
/// log's run frames). A changing value count cuts a run, so sensor 4's
/// ragged readings are lone. Returns the records, and each segment's
/// bytes.
fn two_segment_wal(dir: &Path) -> (Vec<WalRecord>, Vec<Vec<u8>>) {
    let rec = |sensor: u16, seq: u64, dims: usize| WalRecord {
        sensor: SensorId(sensor),
        seq,
        time: 300 * (seq + 1),
        values: (0..dims).map(|d| seq as f64 + d as f64 / 4.0).collect(),
    };
    let mut records = Vec::new();
    for round in 0..2u64 {
        let at = 10 * round;
        records.extend((at..at + 4).map(|seq| rec(1, seq, 2)));
        records.push(rec(2, at, 1));
        records.push(rec(3, at, 3));
        records.extend((at..at + 3).map(|seq| rec(4, seq, (seq % 3) as usize + 1)));
        records.push(rec(1, at + 7, 2));
    }
    let mut config = WalConfig::new(dir);
    config.segment_max_bytes = 400;
    let (mut wal, _) = Wal::open(config, None).expect("fresh directory");
    wal.append_many(&records).expect("healthy storage");
    assert_eq!(wal.segments().len(), 2, "the fixture wants two segments");
    drop(wal);
    let segments: Vec<Vec<u8>> = (1..=2)
        .map(|i| std::fs::read(dir.join(format!("wal-{i:08}.seg"))).expect("segment"))
        .collect();
    for bytes in &segments {
        let kinds: Vec<usize> = frame_ends(bytes).iter().map(|f| f.1.min(2)).collect();
        assert!(
            kinds.contains(&1) && kinds.contains(&2),
            "every segment holds a lone reading and a batch: {kinds:?}"
        );
    }
    (records, segments)
}

/// Opens a fresh directory holding `segments` as `wal-00000001.seg`,
/// `wal-00000002.seg`, …, under the allocation bound for their bytes.
fn open_segments(
    dir: &Path,
    segments: &[&[u8]],
) -> Result<Result<Vec<WalRecord>, WalError>, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    for (i, bytes) in segments.iter().enumerate() {
        std::fs::write(dir.join(format!("wal-{:08}.seg", i + 1)), bytes)
            .map_err(|e| e.to_string())?;
    }
    let input = segments.iter().map(|s| s.len()).sum();
    // The scan is what is held to the bound; the owned records the
    // callers compare are made outside it.
    let opened = check_total_bytes(input, || Wal::open(WalConfig::new(dir), None))?;
    Ok(opened.map(|(_, log)| log.to_records()))
}

/// [`open_segments`] on the fixture with segment `damaged` replaced.
fn open_damaged(
    dir: &Path,
    segments: &[Vec<u8>],
    damaged: usize,
    bytes: &[u8],
) -> Result<Result<Vec<WalRecord>, WalError>, String> {
    let mut files: Vec<&[u8]> = segments.iter().map(Vec::as_slice).collect();
    files[damaged] = bytes;
    open_segments(dir, &files)
}

#[test]
fn damaged_wal_segments_open_to_a_value_or_a_typed_error() {
    let root = scratch("wal-damage");
    let (_, segments) = two_segment_wal(&root.join("pristine"));
    replay("damaged_wal_segments_open_to_a_value_or_a_typed_error").for_each_seed(1_500, |seed| {
        let mut rng = TestRng::new(seed);
        let damaged = rng.usize_in(0, segments.len());
        let (what, bytes) = mutate(&mut rng, &segments[damaged]);
        open_damaged(&root.join("case"), &segments, damaged, &bytes)
            .map(|_| ())
            .map_err(|why| format!("segment {} {what}: {why}", damaged + 1))
    });
    std::fs::remove_dir_all(&root).ok();
}

/// The "seed" is a bit's index in the two segments laid end to end.
#[test]
fn every_bit_flip_of_a_wal_is_a_torn_tail_or_corruption() {
    let root = scratch("wal-flips");
    let (records, segments) = two_segment_wal(&root.join("pristine"));
    let first_len = segments[0].len();
    let in_first: usize = frame_ends(&segments[0]).iter().map(|f| f.1).sum();
    let last_frames = frame_ends(&segments[1]);
    let bits = 8 * (first_len + segments[1].len()) as u64;
    replay("every_bit_flip_of_a_wal_is_a_torn_tail_or_corruption").for_each_seed(bits, |bit| {
        let (byte, bit) = ((bit / 8) as usize, bit % 8);
        let (damaged, at) = if byte < first_len {
            (0, byte)
        } else {
            (1, byte - first_len)
        };
        let mut bytes = segments[damaged].clone();
        bytes[at] ^= 1 << bit;
        let outcome = open_damaged(&root.join("case"), &segments, damaged, &bytes)?;
        let where_ = format!("bit {bit} of byte {at} in segment {}", damaged + 1);
        match (damaged, outcome) {
            (0, Err(WalError::Corrupt { .. })) => Ok(()),
            (0, other) => Err(format!(
                "{where_}: a sealed segment's damage must be Corrupt, got {:?}",
                other.map(|r| r.len())
            )),
            (_, Ok(recovered)) => {
                let whole: usize = last_frames
                    .iter()
                    .take_while(|&&(end, _)| end <= at)
                    .map(|f| f.1)
                    .sum();
                if recovered == records[..in_first + whole] {
                    Ok(())
                } else {
                    Err(format!(
                        "{where_}: recovered {} record(s), the frames before the flip hold {}",
                        recovered.len(),
                        in_first + whole
                    ))
                }
            }
            (_, Err(e)) => Err(format!("{where_}: a torn tail must open, got {e}")),
        }
    });
    std::fs::remove_dir_all(&root).ok();
}

/// Whether `got` is the kind of error `want` is (a short payload's
/// length is the forgery's own).
fn same_kind(got: &FrameError, want: &FrameError) -> bool {
    std::mem::discriminant(got) == std::mem::discriminant(want)
}

/// A short payload, of whatever length.
const SHORT: FrameError = FrameError::ShortPayload { tag: 16, len: 0 };

/// One seeded forgery of a log run's payload — the reading count, the
/// value count, one reading's time step, its end — and the error a
/// decoder must refuse it with. The fixture's steps are all two-byte
/// varints (times below 8 192 s), so every reading is 2 + 8 × dims
/// bytes and no forgery here can happen to decode.
fn forge_run(rng: &mut TestRng, payload: &[u8]) -> (String, Vec<u8>, FrameError) {
    let field = |at: usize| usize::from(u16::from_le_bytes([payload[at], payload[at + 1]]));
    let (count, dims) = (field(11), field(13));
    let reading = 2 + 8 * dims;
    assert_eq!(
        payload.len(),
        15 + count * reading,
        "a run of two-byte steps"
    );
    let mut forged = payload.to_vec();
    let step = 15 + rng.usize_in(0, count) * reading;
    let what = match rng.usize_in(0, 6) {
        0 => {
            let claim = rng.pick(&[0u16, 1, 2, 3, 5, 8, 4096, 4097, u16::MAX]);
            let claim = if usize::from(claim) == count {
                0
            } else {
                claim
            };
            forged[11..13].copy_from_slice(&claim.to_le_bytes());
            let want = match usize::from(claim) {
                c @ (0 | 1) => FrameError::BadRun { count: c, dims },
                c if c > MAX_BATCH_READINGS => FrameError::BatchTooLong { count: c },
                _ => SHORT,
            };
            return (format!("count {count} forged to {claim}"), forged, want);
        }
        1 => {
            let claim = rng.pick(&[0, dims as u16 + 1, u16::MAX]);
            forged[13..15].copy_from_slice(&claim.to_le_bytes());
            let want = match claim {
                0 => FrameError::BadRun { count, dims: 0 },
                _ => SHORT,
            };
            return (format!("dims {dims} forged to {claim}"), forged, want);
        }
        2 => {
            let mut eleven = vec![0x80; 10];
            eleven.push(0x01);
            forged.splice(step..step + 2, eleven);
            "an eleven-byte step"
        }
        3 => {
            let mut wide = vec![0xFF; 9];
            wide.push(0x02);
            forged.splice(step..step + 2, wide);
            "a step past u64"
        }
        4 => {
            forged[step + 1] |= 0x80;
            forged.insert(step + 2, 0x00);
            "a step padded to three bytes"
        }
        _ => {
            let extra = rng.usize_in(1, 4);
            forged.extend((0..extra).map(|_| rng.range(0u8..255)));
            return (format!("{extra} trailing byte(s)"), forged, SHORT);
        }
    };
    let what = format!("{what} at payload byte {step}");
    (what, forged, FrameError::BadVarint)
}

/// The log's run payload forged *under a valid CRC*, which random
/// damage never produces — a wrong reading count (below two, past the
/// cap, over or under the bytes), a wrong value count (none, too many),
/// a time step of eleven bytes, past `u64` or not in its shortest form,
/// bytes after the last reading, a payload cut inside a step. Each is a
/// typed error inside the allocation bound: through [`Wal::open`] a
/// torn tail in the last segment — the records in front of the frame
/// come back and the file is cut where it starts — and corruption at
/// the frame's offset in an earlier one; on the wire an unknown tag,
/// before anything is decoded.
#[test]
fn forged_log_runs_are_torn_tails_or_corruption_and_never_wire_frames() {
    let root = scratch("forged-runs");
    let (records, segments) = two_segment_wal(&root.join("pristine"));
    let in_first: usize = frame_ends(&segments[0]).iter().map(|f| f.1).sum();
    replay("forged_log_runs_are_torn_tails_or_corruption_and_never_wire_frames").for_each_seed(
        600,
        |seed| {
            let mut rng = TestRng::new(seed);
            let damaged = rng.usize_in(0, segments.len());
            let bytes = &segments[damaged];
            let ends = frame_ends(bytes);
            let starts = std::iter::once(0).chain(ends.iter().map(|f| f.0));
            // (start, end, readings in front of it) of each run frame.
            let mut runs = Vec::new();
            let mut before = 0;
            for (start, &(end, readings)) in starts.zip(&ends) {
                if bytes[start + 4] == 16 {
                    runs.push((start, end, before));
                }
                before += readings;
            }
            let (start, end, before) = rng.pick(&runs);
            let payload = &bytes[start + 4..end - 4];
            let (what, forged, want) = if rng.usize_in(0, 7) == 0 {
                let last =
                    payload.len() - 8 * usize::from(u16::from_le_bytes([payload[13], payload[14]]));
                let cut = payload[..last - 1].to_vec();
                ("cut inside the last step".to_string(), cut, SHORT)
            } else {
                forge_run(&mut rng, payload)
            };
            let what = format!("segment {} frame at {start}: {what}", damaged + 1);
            let mut frame = Vec::new();
            frame_payload(&forged, &mut frame);
            let (popped, wire_end) = drain_both(&frame).map_err(|why| format!("{what}: {why}"))?;
            if !popped.is_empty() || wire_end != Err(FrameError::UnknownTag(16)) {
                return Err(format!(
                    "{what}: the wire decoded {popped:?} ending {wire_end:?}"
                ));
            }
            let mut segment = bytes[..start].to_vec();
            segment.extend_from_slice(&frame);
            segment.extend_from_slice(&bytes[end..]);
            let case = root.join("case");
            let outcome = open_damaged(&case, &segments, damaged, &segment)?;
            match (damaged, outcome) {
                (0, Err(WalError::Corrupt { offset, reason, .. }))
                    if offset == start as u64 && same_kind(&reason, &want) =>
                {
                    Ok(())
                }
                (1, Ok(recovered)) if recovered == records[..in_first + before] => {
                    let len = std::fs::metadata(case.join("wal-00000002.seg"))
                        .map_err(|e| e.to_string())?
                        .len();
                    if len == start as u64 {
                        Ok(())
                    } else {
                        Err(format!("{what}: the tail was cut at {len}, not {start}"))
                    }
                }
                (_, outcome) => Err(format!(
                    "{what}: wanted {want:?} there, got {:?}",
                    outcome.map(|r| r.len())
                )),
            }
        },
    );
    std::fs::remove_dir_all(&root).ok();
}

/// A retained log in `dir` whose last restore point names buffered
/// readings by log position, its configuration and the restore point.
fn named_restore_point(dir: &Path) -> (GatewayConfig, String) {
    let mut config = GatewayConfig::new(dir);
    config.reorder.watermark_delay = 900;
    config.checkpoint_every = 12;
    config.wal.segment_max_bytes = 400;
    config.wal.retain_bytes = Some(1_600);
    let (mut c, _) = Collector::open(config.clone()).expect("fresh directory");
    for i in 0..60u64 {
        for s in 0..2u16 {
            let values = vec![20.0 + (i % 5) as f64, 50.0];
            c.deliver(SensorId(s), i, 300 * (i + 1), values)
                .expect("healthy storage");
        }
    }
    drop(c);
    let text = std::fs::read_to_string(dir.join(CHECKPOINT_FILE)).expect("a restore point");
    assert!(!text.contains("\nbase 0\n"), "the prefix was reclaimed");
    assert!(!text.contains("\nredo -\n"), "readings named by position");
    (config, text)
}

/// The number on `text`'s `tag` line.
fn header(text: &str, tag: &str) -> u64 {
    let line = text.lines().find_map(|l| l.strip_prefix(tag)).expect(tag);
    line.parse().expect("a number")
}

/// Every damage to a restore point's naming by position that only its
/// log can expose, and the ones its reader refuses alone: a redo cursor
/// at or above the cursor or below the base, a front no logged reading
/// reaches, a duplicated front, a front for a sensor with no queue and
/// an `rbuf` line for a reading the log names. Each reopen is a typed
/// `CheckpointMalformed`, inside the allocation bound.
#[test]
fn a_restore_point_naming_what_its_log_cannot_back_is_malformed() {
    let dir = scratch("named-restore-point");
    let (config, valid) = named_restore_point(&dir);
    let (cursor, base) = (header(&valid, "cursor "), header(&valid, "base "));
    let redo = valid
        .lines()
        .find(|l| l.starts_with("redo "))
        .expect("redo");
    let front = valid
        .lines()
        .find(|l| l.starts_with("front "))
        .expect("front");
    let first: Vec<&str> = front["front ".len()..].split(' ').collect();
    let (sensor, time) = first[0].split_once(':').expect("sensor:time");
    let time: u64 = time.parse().expect("a time");
    let cases = [
        (
            "a redo cursor at the cursor",
            redo,
            format!("redo {cursor}"),
        ),
        (
            "a redo cursor below the base",
            redo,
            format!("redo {}", base - 1),
        ),
        (
            "a front no logged reading reaches",
            front,
            front.replacen(first[0], &format!("{sensor}:{}", time + 1), 1),
        ),
        (
            "a duplicated front",
            front,
            front.replacen(first[0], &format!("{0} {0}", first[0]), 1),
        ),
        (
            "a front for a sensor with no queue",
            front,
            format!("{front} 9:{time}"),
        ),
        (
            "an rbuf line for a reading the log names",
            "rrel",
            format!("rbuf {time} {sensor} 4034000000000000 4049000000000000\nrrel"),
        ),
    ];
    for (what, line, damaged) in cases {
        let text = valid.replacen(&format!("\n{line}"), &format!("\n{damaged}"), 1);
        assert_ne!(text, valid, "{what}: nothing damaged");
        std::fs::write(dir.join(CHECKPOINT_FILE), &text).expect("writable");
        let opened = check_total_bytes(text.len(), || Collector::open(config.clone()))
            .unwrap_or_else(|why| panic!("{what}: {why}"));
        match opened {
            Err(GatewayError::CheckpointMalformed(_)) => {}
            other => panic!(
                "{what}: expected CheckpointMalformed, got {:?}",
                other.map(|o| o.1)
            ),
        }
    }
    std::fs::write(dir.join(CHECKPOINT_FILE), &valid).expect("writable");
    let (_, info) = Collector::open(config).expect("the undamaged restore point");
    assert_eq!(info.restored_from, Some(cursor));
    let _ = std::fs::remove_dir_all(&dir);
}
