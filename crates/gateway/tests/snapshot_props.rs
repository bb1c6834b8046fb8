//! Property tests for the collector snapshot codec — the payload a
//! failover hands from a dead collector to its adopting standby.
//! Arbitrary snapshots round-trip bit-exactly (floats as IEEE-754 bit
//! patterns, so NaN payloads and -0.0 survive), and a mutated
//! checkpoint — truncated at any byte, or with any single bit flipped
//! — is rejected loudly with a diagnostic or decodes to something that
//! re-encodes to exactly the mutated bytes. Never a panic, never a
//! silent reinterpretation.

#[path = "../../../tests/support/runs.rs"]
mod runs;
#[path = "../../../tests/support/seeded.rs"]
mod seeded;
#[path = "../../../tests/support/totality.rs"]
mod totality;

use seeded::{mutate, Replay, TestRng, BIT_EXACT_POOL};
use sentinet_core::{CheckpointError, FilterPolicy, Pipeline, PipelineConfig};
use sentinet_gateway::snapshot::{decode_collector, encode_collector};
use sentinet_gateway::{
    merge_snapshot, split_snapshot, Collector, CollectorSnapshot, GatewayConfig, GatewayError,
    ReorderSnapshot, ReorderStats,
};
use sentinet_sim::{IngestError, SanitizerSnapshot, SensorId};
use totality::{check_total_and_exact, check_total_bytes, PeakAlloc};

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// One to three reading values from [`BIT_EXACT_POOL`].
fn values(rng: &mut TestRng) -> Vec<f64> {
    rng.vec(1..4, |r| r.pick(&BIT_EXACT_POOL))
}

/// One arbitrary sanitizer rejection, covering every variant.
fn ingest_error(rng: &mut TestRng) -> IngestError {
    let (kind, time, sensor) = (
        rng.range(0u8..5),
        rng.range(0u64..10_000),
        rng.range(0u16..6),
    );
    let (index, value, latest) = (
        rng.range(0usize..4),
        values(rng)[0],
        rng.range(0u64..10_000),
    );
    let sensor = SensorId(sensor);
    match kind {
        0 => IngestError::EmptyReading { time, sensor },
        1 => IngestError::NonFinite {
            time,
            sensor,
            index,
            value,
        },
        2 => IngestError::DuplicateTimestamp { time, sensor },
        3 => IngestError::OutOfOrder {
            time,
            sensor,
            latest,
        },
        _ => IngestError::DimensionMismatch {
            time,
            sensor,
            expected: index % 3 + 1,
            actual: (index + 1) % 3 + 1,
        },
    }
}

fn pairs(rng: &mut TestRng) -> Vec<(SensorId, u64)> {
    rng.vec(0..4, |r| {
        (SensorId(r.range(0u16..6)), r.range(0u64..100_000))
    })
}

/// Arbitrary snapshots: the pipeline section is produced by driving a
/// real [`Pipeline`] with a generated reading schedule (its snapshot
/// type is opaque by design) — under either alarm filter, from a few
/// ticks (nothing bootstrapped, empty histories) to enough for model
/// states, raw-alarm histories and tracks — the rest is generated field
/// by field.
fn snapshot(rng: &mut TestRng) -> CollectorSnapshot {
    let ticks = rng.range(1u64..700);
    let pipeline = driven_pipeline(filter_policy(rng.bool()), ticks).snapshot();
    let buffer = rng.vec(0..4, |r| {
        (
            r.range(0u64..100_000),
            SensorId(r.range(0u16..6)),
            values(r),
        )
    });
    let reorder = ReorderSnapshot {
        buffer: buffer
            .iter()
            .map(|(t, s, vs)| ((*t, *s), vs.as_slice()))
            .collect(),
        last_released: pairs(rng),
        watermark: rng.bool().then_some(rng.range(0u64..100_000)),
        stats: ReorderStats {
            duplicates: rng.range(0usize..9),
            late: rng.range(0usize..9),
            shed: rng.range(0usize..9),
        },
    };
    let latest = pairs(rng);
    let dims = rng.range(0usize..5);
    CollectorSnapshot {
        pipeline,
        reorder,
        sanitizer: SanitizerSnapshot {
            latest,
            dims: (dims > 0).then_some(dims),
        },
        seqs: rng.vec(0..4, |r| {
            let (sensor, next) = (SensorId(r.range(0u16..6)), r.range(0u64..1_000));
            (sensor, next, r.vec(0..3, |r| r.range(0u64..1_000)))
        }),
        accepted: rng.range(0usize..10_000),
        rejected: rng.vec(0..4, ingest_error),
        last_heard: pairs(rng),
        silent: rng.vec(0..3, |r| SensorId(r.range(0u16..6))),
        episodes: rng.range(0usize..20),
    }
}

seeded::properties! {
    var: "SNAPSHOT_PROPS_SEED", package: "sentinet-gateway", target: "--test snapshot_props",
    cases: 48;

    fn roundtrip_is_bit_exact(rng) {
        let text = encode_collector(&snapshot(rng));
        let decoded = decode_collector(&text).expect("round trip");
        // Compare through the encoder: float fields may hold NaN, so
        // `PartialEq` on the structs would be vacuously false there
        // while the bit-pattern text is exact either way.
        assert_eq!(encode_collector(&decoded), text);
    }

    fn truncation_is_rejected_loudly_or_reencodes_exactly(rng) {
        let text = encode_collector(&snapshot(rng));
        let cut = rng.range(0usize..1_000_000) % text.len();
        let torn = &text[..cut];
        // Must not panic. A prefix that still parses must mean exactly
        // what it says — re-encoding reproduces the torn bytes — so a
        // truncated checkpoint can never smuggle in the full state.
        match decode_collector(torn) {
            Ok(decoded) => assert_eq!(encode_collector(&decoded), torn),
            Err(e) => assert!(matches!(e, CheckpointError::Malformed { .. }), "{e}"),
        }
    }

    fn single_bit_flip_never_panics_or_reinterprets(rng) {
        let mut bytes = encode_collector(&snapshot(rng)).into_bytes();
        let pos = rng.range(0usize..1_000_000) % bytes.len();
        bytes[pos] ^= 1 << rng.range(0u8..8);
        // The flip may produce invalid UTF-8; the decoder only sees
        // &str, so lossy conversion models what a reader would pass in.
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        match decode_collector(&mutated) {
            // No checksum at this layer (the WAL frames checkpoints
            // with CRCs): a flip that lands in a digit yields a
            // different but self-consistent snapshot. The invariant is
            // that whatever decodes re-encodes to the mutated text —
            // the codec never invents state beyond the bytes it read.
            Ok(decoded) => assert_eq!(encode_collector(&decoded), mutated),
            Err(e) => assert!(matches!(e, CheckpointError::Malformed { .. }), "{e}"),
        }
    }
}

/// Puts a generated snapshot into the canonical order every live
/// collector maintains (BTreeMap-backed structures: per-sensor lists
/// ascending and duplicate-free, the reorder buffer in `(time,
/// sensor)` release order). The sub-range split/merge contract is
/// defined over this order — it is the only order the migration cut
/// ever sees.
fn canonicalize(mut snap: CollectorSnapshot) -> CollectorSnapshot {
    fn by_sensor<T>(items: &mut Vec<T>, key: impl Fn(&T) -> u16) {
        items.sort_by_key(|i| key(i));
        items.dedup_by_key(|i| key(i));
    }
    by_sensor(&mut snap.reorder.last_released, |(s, _)| s.0);
    by_sensor(&mut snap.sanitizer.latest, |(s, _)| s.0);
    by_sensor(&mut snap.seqs, |(s, _, _)| s.0);
    by_sensor(&mut snap.last_heard, |(s, _)| s.0);
    snap.silent.sort();
    snap.silent.dedup();
    let mut buffer: Vec<_> = snap.reorder.buffer.iter().collect();
    buffer.sort_by_key(|((t, s), _)| (*t, s.0));
    buffer.dedup_by_key(|((t, s), _)| (*t, s.0));
    snap.reorder.buffer = buffer.into_iter().collect();
    snap
}

seeded::properties! {
    var: "SNAPSHOT_PROPS_SEED", package: "sentinet-gateway", target: "--test snapshot_props",
    cases: 48;

    /// The migration-cut contract: filtering a snapshot to `[a, b)`
    /// and re-merging with its complement is byte-identical to the
    /// original — no sensor state is lost, duplicated or reordered by
    /// a cut, whatever the range.
    fn sub_range_split_then_merge_is_byte_identical(rng) {
        let snap = canonicalize(snapshot(rng));
        let (a, len) = (rng.range(0u16..8), rng.range(0u16..8));
        let text = encode_collector(&snap);
        let (inside, outside) = split_snapshot(&snap, a..a + len);
        assert_eq!(encode_collector(&merge_snapshot(&outside, &inside)), text);
    }

    /// Each half owns exactly its side of the cut: per-sensor state
    /// partitions with nothing shared, the accounting ledger stays
    /// whole on the outside half, and the lineage fields (global
    /// model, watermark, window coordinates) ride along into both.
    fn sub_range_split_partitions_per_sensor_state(rng) {
        let snap = canonicalize(snapshot(rng));
        let a = rng.range(0u16..8);
        let range = a..a + rng.range(0u16..8);
        let (inside, outside) = split_snapshot(&snap, range.clone());
        for (half, want_inside) in [(&inside, true), (&outside, false)] {
            let ok = |s: SensorId| range.contains(&s.0) == want_inside;
            assert!(half.seqs.iter().all(|(s, _, _)| ok(*s)));
            assert!(half.last_heard.iter().all(|(s, _)| ok(*s)));
            assert!(half.silent.iter().all(|s| ok(*s)));
            assert!(half.sanitizer.latest.iter().all(|(s, _)| ok(*s)));
            assert!(half.reorder.buffer.iter().all(|((_, s), _)| ok(s)));
            assert!(half.reorder.last_released.iter().all(|(s, _)| ok(*s)));
            assert!(half.pipeline.sensors.iter().all(|(s, _)| ok(*s)));
            assert_eq!(&half.pipeline.global, &snap.pipeline.global);
            assert_eq!(half.reorder.watermark, snap.reorder.watermark);
            assert_eq!(half.sanitizer.dims, snap.sanitizer.dims);
        }
        assert_eq!(inside.accepted, 0);
        assert_eq!(inside.episodes, 0);
        assert!(inside.rejected.is_empty());
        assert_eq!(outside.accepted, snap.accepted);
        assert_eq!(outside.episodes, snap.episodes);
        assert_eq!(outside.rejected.len(), snap.rejected.len());
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn filter_policy(sprt: bool) -> FilterPolicy {
    if sprt {
        FilterPolicy::Sprt {
            p0: 0.05,
            p1: 0.6,
            alpha: 0.01,
            beta: 0.01,
        }
    } else {
        FilterPolicy::default()
    }
}

/// A pipeline driven for `ticks` sampling instants under `filter` —
/// 600 are enough to bootstrap its model states: three sensors cycling
/// through four well-separated regimes, sensor 2 disagreeing often
/// enough to open tracks.
fn driven_pipeline(filter: FilterPolicy, ticks: u64) -> Pipeline {
    let config = PipelineConfig {
        filter,
        ..PipelineConfig::default()
    };
    let mut pipeline = Pipeline::new(config, 300);
    for i in 0..ticks {
        let regime = (i / 12) % 4;
        for s in 0..3u16 {
            let wild = s == 2 && (i / 12) % 3 == 0;
            let v =
                10.0 + 15.0 * regime as f64 + f64::from(s) / 4.0 + if wild { 40.0 } else { 0.0 };
            for outcome in pipeline.push_values(300 * (i + 1), SensorId(s), &[v, 90.0 - v]) {
                pipeline.recycle_outcome(outcome);
            }
        }
    }
    pipeline
}

/// Digests of [`golden_snapshot`]'s encoding with one silent sensor and
/// with none, recorded by running this test at parent commit 584aad4 —
/// before the encoder stopped building a `String` per line and per
/// float — and re-recorded when checkpoint layouts v2 and then v3
/// replaced the one before (the older texts, read back by the newer
/// reader, re-encode to these).
const GOLDEN_DIGESTS: (u64, u64) = (16_931_048_232_602_192_418, 2_869_537_763_013_899_227);

/// A fixed snapshot that takes every branch of the collector encoder:
/// no watermark (`reorder -`), non-finite and signed-zero floats in the
/// reorder buffer and the in-progress window, empty and non-empty
/// `above`, every `rej` variant, and a bootstrapped pipeline whose
/// sensors carry a k-of-n filter (0 and 2) and an SPRT filter (1).
fn golden_snapshot(silent: Vec<SensorId>) -> CollectorSnapshot {
    let mut pipeline = driven_pipeline(filter_policy(false), 600).snapshot();
    let sprt = driven_pipeline(filter_policy(true), 600).snapshot();
    pipeline.sensors[1] = sprt.sensors[1].clone();
    pipeline.windower.readings.push((
        SensorId(9),
        2,
        vec![f64::NAN, -0.0, f64::NEG_INFINITY, f64::MIN_POSITIVE],
    ));
    CollectorSnapshot {
        pipeline,
        reorder: ReorderSnapshot {
            buffer: [
                (180_300, SensorId(0), vec![21.5, f64::INFINITY]),
                (180_300, SensorId(2), vec![f64::NAN, -0.0]),
                (180_600, SensorId(1), vec![1e300, 5e-324, -3.25]),
            ]
            .iter()
            .map(|(t, s, v)| ((*t, *s), v.as_slice()))
            .collect(),
            last_released: vec![(SensorId(0), 180_000), (SensorId(2), 179_700)],
            watermark: None,
            stats: ReorderStats {
                duplicates: 3,
                late: 14,
                shed: 159,
            },
        },
        sanitizer: SanitizerSnapshot {
            latest: vec![(SensorId(0), 180_000), (SensorId(1), 180_000)],
            dims: Some(2),
        },
        seqs: vec![
            (SensorId(0), 601, vec![]),
            (SensorId(1), 600, vec![602, 603, 700]),
            (SensorId(65_535), 0, vec![u64::MAX]),
        ],
        accepted: 1_799,
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
                time: 1_200,
                sensor: SensorId(1),
            },
            IngestError::OutOfOrder {
                time: 300,
                sensor: SensorId(1),
                latest: 1_200,
            },
            IngestError::DimensionMismatch {
                time: 1_500,
                sensor: SensorId(2),
                expected: 2,
                actual: 3,
            },
        ],
        last_heard: vec![(SensorId(0), 180_300), (SensorId(1), 180_600)],
        silent,
        episodes: 2,
    }
}

/// Encoder byte-identity across the allocation-free rewrite is pinned,
/// not assumed: the round-trip properties above would pass for any
/// self-consistent codec, this digest only for the parent's bytes.
#[test]
fn golden_snapshot_encodes_to_the_parent_commits_bytes() {
    let text = encode_collector(&golden_snapshot(vec![SensorId(2)]));
    for marker in [
        "\nsanitizer 2\n",
        "\nreorder - 3 14 159\n",
        "\nrbuf 180300 2 7ff8000000000000 8000000000000000\n",
        "\nseq 0 601 -\n",
        "\nseq 1 600 602,603,700\n",
        "\nrej empty ",
        "\nrej nonfinite 900 0 1 fff0000000000000\n",
        "\nrej dup ",
        "\nrej ooo ",
        "\nrej dim ",
        "\nsilent 2\n",
        "\nstates 1\n",
        "\nwsensor 9 2 7ff8000000000000 ",
        "\nfilter kofn 6 10 ",
        "\nfilter sprt ",
    ] {
        assert!(text.contains(marker), "golden snapshot lost {marker:?}");
    }
    let quiet = encode_collector(&golden_snapshot(Vec::new()));
    assert!(quiet.contains("\nsilent -\n"));
    assert_eq!(
        decode_collector(&text).map(|snap| encode_collector(&snap)),
        Ok(text.clone())
    );
    assert_eq!(
        (fnv(text.as_bytes()), fnv(quiet.as_bytes())),
        GOLDEN_DIGESTS,
        "collector encoding drifted from the recorded bytes"
    );
}

/// How to replay one seed of a totality property below.
fn totality(test: &'static str) -> Replay {
    Replay {
        var: "TEXT_TOTALITY_SEED",
        package: "sentinet-gateway",
        target: "--test snapshot_props",
        test,
    }
}

/// Decoder totality for the collector snapshot (ROADMAP 4c): torn,
/// bit-flipped, count-inflated or arbitrary input yields a typed error
/// or a snapshot that re-encodes to the input — never a panic, never
/// an allocation sized by a number the input states.
#[test]
fn damaged_collector_text_is_rejected_or_reencodes_exactly() {
    let valid = encode_collector(&golden_snapshot(vec![SensorId(2)]));
    totality("damaged_collector_text_is_rejected_or_reencodes_exactly").for_each_seed(
        1_500,
        |seed| {
            let (what, bytes) = mutate(&mut TestRng::new(seed), &valid);
            check_total_and_exact(&bytes, decode_collector, encode_collector, |e| {
                matches!(e, CheckpointError::Malformed { .. })
            })
            .map_err(|why| format!("{what}: {why}"))
        },
    );
}

/// The raw-alarm runs of the collector text's pipeline section: the
/// golden text as v3 wrote it, a token a window, reads as the same
/// snapshot, and seeded damage to a run token (`runs::damage_runs`) is
/// `Malformed` at its `raw` line — or, for a `windows` line raised to a
/// huge count with a run as long, reads and re-encodes exactly — within
/// the allocation bound.
#[test]
fn damaged_run_tokens_in_a_collector_text_are_malformed_at_their_line_or_read_exactly() {
    let valid = encode_collector(&golden_snapshot(vec![SensorId(2)]));
    assert!(valid.contains(":1:") || valid.contains(":0:"), "no run");
    assert_eq!(
        decode_collector(&runs::as_v3(&valid)).map(|s| encode_collector(&s)),
        Ok(valid.clone())
    );
    let test = "damaged_run_tokens_in_a_collector_text_are_malformed_at_their_line_or_read_exactly";
    totality(test).for_each_seed(1_000, |seed| {
        let damage = runs::damage_runs(&mut TestRng::new(seed), &valid);
        let damaged = damage.text.as_str();
        let decoded = check_total_bytes(damaged.len(), || {
            decode_collector(damaged).map(|s| encode_collector(&s))
        });
        let answer = decoded.map_err(|why| format!("{}: {why}", damage.what))?;
        let answer = answer.map_err(|e| match e {
            CheckpointError::Malformed { line, .. } => Some(line),
            CheckpointError::Invalid(_) => None,
        });
        damage.check(damaged, damage.refused, damage.line, answer)
    });
}

/// The four sidecar readers (`checkpoint.ck`, `fence.tk`, `retired.tk`,
/// `outbox-1-2.ck`), reached the way production reaches them: a WAL
/// directory left by a fenced collector that exported a range, one
/// file damaged, then [`Collector::open`] and a re-driven
/// [`Collector::export_range`]. Either may refuse with a typed
/// [`GatewayError`]; neither may panic.
#[test]
fn damaged_sidecar_files_fail_typed() {
    let root = std::env::temp_dir().join(format!("sentinet-sidecars-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = |dir: &std::path::Path| {
        let mut config = GatewayConfig::new(dir);
        config.reorder.watermark_delay = 600;
        config.pipeline.window_samples = 2;
        config.checkpoint_every = 8;
        config.epoch = 1;
        config
    };
    let pristine = root.join("pristine");
    let (mut collector, _) = Collector::open(config(&pristine)).expect("fresh directory");
    for i in 0..20u64 {
        for s in 0..2u16 {
            let values = vec![20.0 + (i % 5) as f64, 50.0 + f64::from(s)];
            collector
                .deliver(SensorId(s), i, 300 * (i + 1), values)
                .expect("healthy storage");
        }
    }
    collector.export_range(1..2).expect("cut commits");
    drop(collector);
    let sidecars = ["checkpoint.ck", "fence.tk", "retired.tk", "outbox-1-2.ck"];
    let files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&pristine)
        .expect("wal directory")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path
                .file_name()
                .expect("file")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&path).expect("readable file"))
        })
        .collect();
    for name in sidecars {
        assert!(files.iter().any(|(n, _)| n == name), "setup left no {name}");
    }

    totality("damaged_sidecar_files_fail_typed").for_each_seed(3_000, |seed| {
        let mut rng = TestRng::new(seed);
        let target = sidecars[rng.usize_in(0, sidecars.len())];
        let dir = root.join(format!("case-{seed}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let mut what = String::new();
        for (name, bytes) in &files {
            let bytes = if name == target {
                let (how, damaged) = mutate(&mut rng, bytes);
                what = format!("{target} {how}");
                damaged
            } else {
                bytes.clone()
            };
            std::fs::write(dir.join(name), bytes).map_err(|e| e.to_string())?;
        }
        // Typed either way; a panic is caught and reported by the loop.
        let reopened: Result<_, GatewayError> = Collector::open(config(&dir));
        if let Ok((mut collector, _)) = reopened {
            let _: Result<_, GatewayError> = collector.export_range(1..2);
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{what}: {e}"))
    });
    let _ = std::fs::remove_dir_all(&root);
}
