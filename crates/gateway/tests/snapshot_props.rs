//! Property tests for the collector snapshot codec — the payload a
//! failover hands from a dead collector to its adopting standby.
//! Arbitrary snapshots round-trip bit-exactly (floats as IEEE-754 bit
//! patterns, so NaN payloads and -0.0 survive), and a mutated
//! checkpoint — truncated at any byte, or with any single bit flipped
//! — is rejected loudly with a diagnostic or decodes to something that
//! re-encodes to exactly the mutated bytes. Never a panic, never a
//! silent reinterpretation.

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use proptest::prelude::*;
use proptest::TestRng;
use seeded::{check_total_and_exact, mutate, PeakAlloc, Replay};
use sentinet_core::{CheckpointError, FilterPolicy, Pipeline, PipelineConfig};
use sentinet_gateway::snapshot::{decode_collector, encode_collector};
use sentinet_gateway::{
    merge_snapshot, split_snapshot, Collector, CollectorSnapshot, GatewayConfig, GatewayError,
    ReorderSnapshot, ReorderStats, ReportCounters,
};
use sentinet_sim::{IngestError, SanitizerSnapshot, SensorId};

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Value pool for readings: includes NaN, ±∞, -0.0 and subnormals so
/// "bit-exact" is exercised where `PartialEq` on floats breaks down.
fn values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop::sample::select(vec![
            0.0,
            -0.0,
            21.5,
            -3.25,
            1e300,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]),
        1..4,
    )
}

/// One arbitrary sanitizer rejection, covering every variant.
fn ingest_errors() -> impl Strategy<Value = IngestError> {
    (
        0u8..5,
        0u64..10_000,
        0u16..6,
        0usize..4,
        values(),
        0u64..10_000,
    )
        .prop_map(|(kind, time, sensor, index, vs, latest)| {
            let sensor = SensorId(sensor);
            match kind {
                0 => IngestError::EmptyReading { time, sensor },
                1 => IngestError::NonFinite {
                    time,
                    sensor,
                    index,
                    value: vs[0],
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
        })
}

fn pairs() -> impl Strategy<Value = Vec<(SensorId, u64)>> {
    prop::collection::vec((0u16..6, 0u64..100_000), 0..4)
        .prop_map(|v| v.into_iter().map(|(s, t)| (SensorId(s), t)).collect())
}

/// Arbitrary snapshots: the pipeline section is produced by driving a
/// real [`Pipeline`] with a generated reading schedule (its snapshot
/// type is opaque by design) — under either alarm filter, from a few
/// ticks (nothing bootstrapped, empty histories) to enough for model
/// states, raw-alarm histories and tracks — the rest is generated field
/// by field.
fn snapshots() -> impl Strategy<Value = CollectorSnapshot> {
    let pipeline = (1u64..700, any::<bool>())
        .prop_map(|(ticks, sprt)| driven_pipeline(filter_policy(sprt), ticks).snapshot());
    let reorder = (
        prop::collection::vec((0u64..100_000, 0u16..6, values()), 0..4),
        pairs(),
        (0u8..2, 0u64..100_000),
        (0usize..9, 0usize..9, 0usize..9),
    )
        .prop_map(
            |(buffer, last_released, (has_mark, mark), (duplicates, late, shed))| ReorderSnapshot {
                buffer: buffer
                    .iter()
                    .map(|(t, s, vs)| ((*t, SensorId(*s)), vs.as_slice()))
                    .collect(),
                last_released,
                watermark: (has_mark == 1).then_some(mark),
                stats: ReorderStats {
                    duplicates,
                    late,
                    shed,
                },
            },
        );
    let sanitizer = (pairs(), 0usize..5).prop_map(|(latest, dims)| SanitizerSnapshot {
        latest,
        dims: (dims > 0).then_some(dims),
    });
    let seqs = prop::collection::vec(
        (
            0u16..6,
            0u64..1_000,
            prop::collection::vec(0u64..1_000, 0..3),
        ),
        0..4,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(s, next, above)| (SensorId(s), next, above))
            .collect::<Vec<_>>()
    });
    let liveness = (pairs(), prop::collection::vec(0u16..6, 0..3), 0usize..20).prop_map(
        |(last_heard, silent, episodes)| {
            (
                last_heard,
                silent.into_iter().map(SensorId).collect::<Vec<_>>(),
                episodes,
            )
        },
    );
    (
        pipeline,
        reorder,
        sanitizer,
        seqs,
        (0usize..10_000, prop::collection::vec(ingest_errors(), 0..4)),
        liveness,
    )
        .prop_map(
            |(pipeline, reorder, sanitizer, seqs, (accepted, rejected), liveness)| {
                let (last_heard, silent, episodes) = liveness;
                CollectorSnapshot {
                    pipeline,
                    reorder,
                    sanitizer,
                    seqs,
                    accepted,
                    rejected,
                    last_heard,
                    silent,
                    episodes,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    fn roundtrip_is_bit_exact(snap in snapshots()) {
        let text = encode_collector(&snap);
        let decoded = decode_collector(&text).expect("round trip");
        // Compare through the encoder: float fields may hold NaN, so
        // `PartialEq` on the structs would be vacuously false there
        // while the bit-pattern text is exact either way.
        prop_assert_eq!(encode_collector(&decoded), text);
    }

    fn truncation_is_rejected_loudly_or_reencodes_exactly(
        snap in snapshots(),
        cut in 0usize..1_000_000,
    ) {
        let text = encode_collector(&snap);
        let cut = cut % text.len();
        let torn = &text[..cut];
        // Must not panic. A prefix that still parses must mean exactly
        // what it says — re-encoding reproduces the torn bytes — so a
        // truncated checkpoint can never smuggle in the full state.
        match decode_collector(torn) {
            Ok(decoded) => prop_assert_eq!(encode_collector(&decoded), torn),
            Err(e) => prop_assert!(matches!(e, CheckpointError::Malformed { .. }), "{e}"),
        }
    }

    fn single_bit_flip_never_panics_or_reinterprets(
        snap in snapshots(),
        pos in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let text = encode_collector(&snap);
        let mut bytes = text.into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        // The flip may produce invalid UTF-8; the decoder only sees
        // &str, so lossy conversion models what a reader would pass in.
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        match decode_collector(&mutated) {
            // No checksum at this layer (the WAL frames checkpoints
            // with CRCs): a flip that lands in a digit yields a
            // different but self-consistent snapshot. The invariant is
            // that whatever decodes re-encodes to the mutated text —
            // the codec never invents state beyond the bytes it read.
            Ok(decoded) => prop_assert_eq!(encode_collector(&decoded), mutated),
            Err(e) => prop_assert!(matches!(e, CheckpointError::Malformed { .. }), "{e}"),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The migration-cut contract: filtering a snapshot to `[a, b)`
    /// and re-merging with its complement is byte-identical to the
    /// original — no sensor state is lost, duplicated or reordered by
    /// a cut, whatever the range.
    fn sub_range_split_then_merge_is_byte_identical(
        snap in snapshots(),
        a in 0u16..8,
        len in 0u16..8,
    ) {
        let snap = canonicalize(snap);
        let text = encode_collector(&snap);
        let (inside, outside) = split_snapshot(&snap, a..a + len);
        prop_assert_eq!(encode_collector(&merge_snapshot(&outside, &inside)), text);
    }

    /// Each half owns exactly its side of the cut: per-sensor state
    /// partitions with nothing shared, the accounting ledger stays
    /// whole on the outside half, and the lineage fields (global
    /// model, watermark, window coordinates) ride along into both.
    fn sub_range_split_partitions_per_sensor_state(
        snap in snapshots(),
        a in 0u16..8,
        len in 0u16..8,
    ) {
        let snap = canonicalize(snap);
        let range = a..a + len;
        let (inside, outside) = split_snapshot(&snap, range.clone());
        for (half, want_inside) in [(&inside, true), (&outside, false)] {
            let ok = |s: SensorId| range.contains(&s.0) == want_inside;
            prop_assert!(half.seqs.iter().all(|(s, _, _)| ok(*s)));
            prop_assert!(half.last_heard.iter().all(|(s, _)| ok(*s)));
            prop_assert!(half.silent.iter().all(|s| ok(*s)));
            prop_assert!(half.sanitizer.latest.iter().all(|(s, _)| ok(*s)));
            prop_assert!(half.reorder.buffer.iter().all(|((_, s), _)| ok(s)));
            prop_assert!(half.reorder.last_released.iter().all(|(s, _)| ok(*s)));
            prop_assert!(half.pipeline.sensors.iter().all(|(s, _)| ok(*s)));
            prop_assert_eq!(&half.pipeline.global, &snap.pipeline.global);
            prop_assert_eq!(half.reorder.watermark, snap.reorder.watermark);
            prop_assert_eq!(half.sanitizer.dims, snap.sanitizer.dims);
        }
        prop_assert_eq!(inside.accepted, 0);
        prop_assert_eq!(inside.episodes, 0);
        prop_assert!(inside.rejected.is_empty());
        prop_assert_eq!(outside.accepted, snap.accepted);
        prop_assert_eq!(outside.episodes, snap.episodes);
        prop_assert_eq!(outside.rejected.len(), snap.rejected.len());
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
/// float.
const GOLDEN_DIGESTS: (u64, u64) = (11_117_180_414_752_147_282, 15_094_321_448_796_720_983);

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
        "collector encoding drifted from commit 584aad4"
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

/// The same for the report counters' `name value` text.
#[test]
fn damaged_counters_text_is_rejected_or_reencodes_exactly() {
    let valid = ReportCounters {
        accepted: 240,
        late: u64::MAX,
        migrations_aborted: 7,
        ..ReportCounters::default()
    }
    .encode();
    totality("damaged_counters_text_is_rejected_or_reencodes_exactly").for_each_seed(
        3_000,
        |seed| {
            let (what, bytes) = mutate(&mut TestRng::new(seed), &valid);
            check_total_and_exact(
                &bytes,
                ReportCounters::decode,
                ReportCounters::encode,
                |e| e.to_string().starts_with("report counters: "),
            )
            .map_err(|why| format!("{what}: {why}"))
        },
    );
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
