//! Property-based tests for the core pipeline's invariants.

#[path = "../../../tests/support/runs.rs"]
mod runs;
#[path = "../../../tests/support/seeded.rs"]
mod seeded;
#[path = "../../../tests/support/totality.rs"]
mod totality;

use rand::rngs::StdRng;
use rand::SeedableRng;
use seeded::{mutate, Replay, TestRng};
use sentinet_cluster::{ClusterConfig, ModelStates, StatesSnapshot, UpdateScratch};
use sentinet_core::{
    decode_pipeline, encode_pipeline, identify_states, identify_states_into, AlarmRun,
    CheckpointError, GlobalSnapshot, GlobalStates, MceSnapshot, ObservationWindow, Observed,
    Pipeline, PipelineConfig, PipelineSnapshot, SensorRuntime, SensorSnapshot, TrackRecord,
    WindowScratch, WindowStates, Windower, WindowerSnapshot, BOT_SYMBOL,
};
use sentinet_filter::FilterSnapshot;
use sentinet_hmm::{EstimatorState, MarkovState, OnlineHmmEstimator, StochasticMatrix};
use sentinet_sim::{Reading, SensorId, Trace, TraceRecord};
use std::collections::BTreeMap;
use totality::{check_total_and_exact, check_total_bytes, PeakAlloc};

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

fn window_from(points: &[(u16, Vec<f64>)]) -> ObservationWindow {
    let mut w = ObservationWindow::default();
    for (s, v) in points {
        w.push(SensorId(*s), v);
    }
    w
}

/// Eqs. 2–4 as they ran before the flat kernels — a `BTreeMap` of
/// per-sensor means, a `BTreeMap` of labels, a `BTreeMap` vote tally —
/// kept as the oracle the differential tests compare against.
fn oracle_identify(
    window: &ObservationWindow,
    states: &ModelStates,
    overall: &[f64],
    majority_fraction: f64,
) -> Option<WindowStates> {
    let observable = states.nearest(overall)?.0;
    let representatives: BTreeMap<SensorId, Vec<f64>> = window
        .sensors()
        .map(|(id, samples)| {
            let mut m = vec![0.0; samples.dims()];
            for values in samples.iter() {
                for (acc, &v) in m.iter_mut().zip(values) {
                    *acc += v;
                }
            }
            m.iter_mut().for_each(|x| *x /= samples.len() as f64);
            (id, m)
        })
        .collect();
    let mut labels = BTreeMap::new();
    for (&id, mean) in &representatives {
        labels.insert(id, states.nearest(mean)?.0);
    }
    let mut votes: BTreeMap<usize, usize> = BTreeMap::new();
    for &l in labels.values() {
        *votes.entry(l).or_insert(0) += 1;
    }
    let (&correct, &max_votes) = votes
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))?;
    let decisive = max_votes as f64 > majority_fraction * labels.len() as f64;
    Some(WindowStates {
        observable,
        correct,
        labels,
        representatives,
        decisive,
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// Asserts the flat results in `scratch` (and the winner) are `want`.
fn assert_flat_is(
    got: Option<(usize, bool)>,
    scratch: &WindowScratch,
    want: &Option<WindowStates>,
) {
    let Some(want) = want else {
        assert_eq!(got, None);
        return;
    };
    assert_eq!(got, Some((want.correct, want.decisive)));
    let ids: Vec<SensorId> = want.labels.keys().copied().collect();
    assert_eq!(scratch.sensor_ids(), &ids[..]);
    let labels: Vec<usize> = want.labels.values().copied().collect();
    assert_eq!(scratch.labels(), &labels[..]);
    let reps: Vec<f64> = want.representatives.values().flatten().copied().collect();
    assert_eq!(bits(scratch.representatives()), bits(&reps));
}

/// Asserts two `WindowStates` agree with representatives bit for bit
/// (`==` on floats would let `-0.0` pass for `0.0`).
fn assert_states_eq(got: &Option<WindowStates>, want: &Option<WindowStates>) {
    assert_eq!(got, want);
    if let (Some(got), Some(want)) = (got, want) {
        for (g, w) in got
            .representatives
            .values()
            .zip(want.representatives.values())
        {
            assert_eq!(bits(g), bits(w));
        }
    }
}

/// Sparse ids in no particular order, with values from a coarse grid
/// (repeats, a signed zero, mirror images) so exact ties occur.
fn sparse_pushes(rng: &mut TestRng, max_len: usize) -> Vec<(u16, Vec<f64>)> {
    const IDS: [u16; 6] = [0, 7, 65535, 3, 1000, 8];
    const CELLS: [f64; 9] = [-0.0, 0.0, 1.0, -1.0, 2.0, -2.0, 5.0, -5.0, 60.0];
    rng.vec(1..max_len, |r| (r.pick(&IDS), r.vec(2, |r| r.pick(&CELLS))))
}

/// Two states mirrored about the origin (every grid point on an axis
/// ties between them) and a third off to one side.
fn tie_states() -> ModelStates {
    ModelStates::new(
        vec![vec![1.0, 0.0], vec![-1.0, 0.0], vec![5.0, 5.0]],
        ClusterConfig {
            alpha: 0.3,
            merge_threshold: 0.5,
            spawn_threshold: 20.0,
            max_states: 4,
        },
    )
}

seeded::properties! {
    var: "CORE_PROPS_SEED", package: "sentinet-core", target: "--test properties", cases: 64;

    /// The dense window against a plain map of the same pushes, in
    /// whatever order they arrive.
    fn dense_window_matches_a_map_of_the_same_pushes(rng) {
        let pushes = sparse_pushes(rng, 40);
        let w = window_from(&pushes);
        let mut oracle: BTreeMap<SensorId, Vec<f64>> = BTreeMap::new();
        for (s, v) in &pushes {
            oracle.entry(SensorId(*s)).or_default().extend_from_slice(v);
        }
        let got: Vec<(SensorId, Vec<u64>)> =
            w.sensors().map(|(id, s)| (id, bits(s.as_flat()))).collect();
        let want: Vec<(SensorId, Vec<u64>)> =
            oracle.iter().map(|(&id, v)| (id, bits(v))).collect();
        assert_eq!(got, want);
        assert_eq!(w.num_readings(), pushes.len());
        // Arrival order does not matter to equality; id order is kept.
        let mut sorted = pushes.clone();
        sorted.sort_by_key(|(s, _)| *s); // stable: per-sensor order kept
        assert_eq!(&w, &window_from(&sorted));
    }

    /// Eqs. 3–4 out of one scratch reused across two windows, the
    /// map-typed wrappers, and the clustering round fed the reused
    /// labels — all against the map oracle and a relabelling `update`.
    fn flat_identify_and_labeled_update_match_the_map_oracle(rng) {
        let (first, second) = (sparse_pushes(rng, 30), sparse_pushes(rng, 30));
        let fraction = rng.pick(&[0.5, 0.34, 0.75]);
        let mut flat_states = tie_states();
        let mut map_states = tie_states();
        let mut scratch = WindowScratch::new();
        let mut update_scratch = UpdateScratch::default();
        for pushes in [&first, &second] {
            let w = window_from(pushes);
            let overall = w.trimmed_mean(0.1).expect("non-empty");
            let want = oracle_identify(&w, &map_states, &overall, fraction);
            let got = identify_states_into(&w, &flat_states, fraction, &mut scratch);
            assert_flat_is(got, &scratch, &want);
            assert_states_eq(&identify_states(&w, &flat_states, 0.1, fraction), &want);
            let want = want.expect("non-empty window, live states");
            let sensor_means = w.sensor_means();
            assert_eq!(&sensor_means, &want.representatives);

            // Eq. 6 + merge/spawn: reusing the Eq. 3 labels is the
            // same round as labelling again.
            let points: Vec<Vec<f64>> = want.representatives.into_values().collect();
            let events = flat_states.update_labeled(
                scratch.representatives(),
                scratch.labels(),
                &mut update_scratch,
            );
            assert_eq!(events, map_states.update(&points));
            let (a, b) = (flat_states.snapshot(), map_states.snapshot());
            assert_eq!(&a, &b);
            for (ca, cb) in a.centroids.iter().zip(&b.centroids) {
                assert_eq!(bits(ca), bits(cb));
            }
        }
    }

    /// A recycled window whose earlier sensors went silent equals, and
    /// identifies as, a window that never knew them.
    fn recycled_windows_equal_fresh_ones(rng) {
        let rounds = rng.vec(2..6, |r| sparse_pushes(r, 12));
        let mut windower = Windower::new(100);
        let states = tie_states();
        let mut scratch = WindowScratch::new();
        let mut fresh_scratch = WindowScratch::new();
        for (i, pushes) in rounds.iter().enumerate() {
            for (s, v) in pushes {
                for done in windower.push(100 * i as u64, SensorId(*s), v) {
                    let mut fresh = window_from(&rounds[i - 1]);
                    fresh.index = done.index;
                    fresh.start = done.start;
                    assert_eq!(&done, &fresh);
                    assert_eq!(done.num_readings(), fresh.num_readings());
                    let got = identify_states_into(&done, &states, 0.5, &mut scratch);
                    let want = identify_states_into(&fresh, &states, 0.5, &mut fresh_scratch);
                    assert_eq!(got, want);
                    assert_eq!(scratch.sensor_ids(), fresh_scratch.sensor_ids());
                    assert_eq!(
                        bits(scratch.representatives()),
                        bits(fresh_scratch.representatives())
                    );
                    windower.recycle(done);
                }
            }
        }
    }

    fn trimmed_mean_within_data_hull(rng) {
        let pts = rng.vec(1..40, |r| (r.range(0u16..5), vec![r.range(-50.0..50.0)]));
        let w = window_from(&pts);
        let mean = w.trimmed_mean(rng.range(0.0..0.45)).expect("non-empty");
        let lo = pts.iter().map(|(_, v)| v[0]).fold(f64::INFINITY, f64::min);
        let hi = pts.iter().map(|(_, v)| v[0]).fold(f64::NEG_INFINITY, f64::max);
        assert!(mean[0] >= lo - 1e-9 && mean[0] <= hi + 1e-9);
    }

    fn trim_zero_equals_plain_mean(rng) {
        let pts = rng.vec(1..30, |r| (r.range(0u16..5), r.vec(2, |r| r.range(-50.0..50.0))));
        let w = window_from(&pts);
        assert_eq!(w.trimmed_mean(0.0), w.overall_mean());
    }

    fn trimmed_mean_ignores_single_wild_outlier(rng) {
        let mut pts = rng.vec(8..20, |r| (r.range(0u16..4), vec![10.0, 10.0]));
        let outlier = rng.range(100.0..1_000.0);
        pts.push((4, vec![outlier, outlier]));
        let w = window_from(&pts);
        let mean = w.trimmed_mean(0.2).expect("non-empty");
        assert!((mean[0] - 10.0).abs() < 1e-9, "outlier leaked: {mean:?}");
    }

    fn identify_states_correct_backed_by_majority_when_decisive(rng) {
        let pts = rng.vec(2..24, |r| (r.range(0u16..6), vec![r.range(-30.0..30.0)]));
        let states = ModelStates::new(
            vec![vec![-20.0], vec![0.0], vec![20.0]],
            ClusterConfig {
                alpha: 0.1,
                merge_threshold: 1.0,
                spawn_threshold: 100.0,
                max_states: 4,
            },
        );
        let w = window_from(&pts);
        if let Some(ws) = identify_states(&w, &states, 0.0, 0.5) {
            // The winning state's vote count really is the max.
            let mut votes = std::collections::BTreeMap::new();
            for l in ws.labels.values() {
                *votes.entry(*l).or_insert(0usize) += 1;
            }
            let max = votes.values().max().copied().unwrap_or(0);
            assert_eq!(votes.get(&ws.correct).copied().unwrap_or(0), max);
            if ws.decisive {
                assert!(2 * max > ws.labels.len());
            }
        }
    }

    fn windower_partitions_all_readings(rng) {
        let mut sorted = rng.vec(1..100, |r| r.range(0u64..50_000));
        sorted.sort_unstable();
        let mut w = Windower::new(3_600);
        let mut seen = 0usize;
        for &t in &sorted {
            let done = w.push(t, SensorId(0), &[1.0]);
            seen += done.iter().map(|d| d.num_readings()).sum::<usize>();
        }
        seen += w.finish().map(|d| d.num_readings()).unwrap_or(0);
        assert_eq!(seen, sorted.len());
    }

    fn windower_windows_are_time_disjoint(rng) {
        let mut sorted = rng.vec(2..100, |r| r.range(0u64..100_000));
        sorted.sort_unstable();
        let mut w = Windower::new(1_000);
        let mut indices = Vec::new();
        for &t in &sorted {
            for d in w.push(t, SensorId(0), &[0.0]) {
                indices.push(d.index);
            }
        }
        if let Some(d) = w.finish() {
            indices.push(d.index);
        }
        // Strictly increasing window indices — no window emitted twice.
        for pair in indices.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    fn pipeline_never_panics_on_arbitrary_small_traces(rng) {
        let records = rng.vec(0..60, |r| TraceRecord {
            time: r.range(0u64..20_000),
            sensor: SensorId(r.range(0u16..4)),
            payload: sentinet_sim::Payload::Delivered(Reading::new(
                r.vec(2, |r| r.range(-30.0..30.0)),
            )),
        });
        let trace = Trace::from_records(records);
        let mut p = Pipeline::new(PipelineConfig::default(), 300);
        let _ = p.process_trace(&trace);
        // Classification of any sensor id is total.
        for s in 0..5u16 {
            let _ = p.classify(SensorId(s));
        }
        let _ = p.network_attack();
    }

    fn pipeline_is_deterministic(rng) {
        let mut cfg = sentinet_sim::gdi::day_config();
        cfg.duration = 6 * 3600;
        let trace = sentinet_sim::simulate(&cfg, &mut StdRng::seed_from_u64(rng.range(0u64..50)));
        let run = || {
            let mut p = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
            let outcomes = p.process_trace(&trace);
            (outcomes, p.classify_all())
        };
        assert_eq!(run(), run());
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A hand-built snapshot that takes every branch of the pipeline and
/// shard encoders: installed states beside leftover bootstrap points,
/// inactive slots, `-` for every optional (`prev`, an open track, an
/// empty k-of-n window, empty track and alarm histories), an SPRT and
/// two k-of-n filters, and floats whose bit patterns a decimal codec
/// would lose (NaN, ±∞, −0.0, a subnormal).
fn golden_pipeline_snapshot() -> PipelineSnapshot {
    let estimator = |generation| EstimatorState {
        chain: None,
        b: vec![vec![0.5, 0.25, 0.25], vec![0.0, -0.0, 1.0]],
        gamma: 0.85,
        visits: vec![17, 0],
        generation,
    };
    let sensor = |filter, tracks: Vec<TrackRecord>, raw: &[(u64, bool, u64)]| SensorSnapshot {
        filter,
        m_ce: MceSnapshot::Built(estimator(40 + raw.iter().map(|r| r.2).sum::<u64>())),
        tracks,
        raw_runs: raw
            .iter()
            .map(|&(first, raw, windows)| AlarmRun {
                first,
                windows,
                raw,
            })
            .collect(),
    };
    PipelineSnapshot {
        global: GlobalSnapshot {
            windows_processed: 1_344,
            bootstrap_points: vec![vec![1.0, 2.0], vec![-0.5, 5e-324]],
            states: Some(GlobalStates {
                states: StatesSnapshot {
                    centroids: vec![
                        vec![1.5, -2.25],
                        vec![f64::NAN, f64::INFINITY],
                        vec![0.0, -0.0],
                    ],
                    active: vec![true, false, true],
                    config: ClusterConfig::default(),
                    generation: 4,
                },
                m_co: EstimatorState {
                    chain: Some(MarkovState {
                        transition: vec![vec![0.75, 0.25], vec![f64::MIN_POSITIVE, 1.0]],
                        beta: 0.9,
                        prev: Some(1),
                    }),
                    ..estimator(9)
                },
            }),
        },
        windower: WindowerSnapshot {
            started: true,
            index: 1_344,
            start: 1_344 * 3_600,
            readings: vec![
                (SensorId(0), 2, vec![20.5, 50.0, 21.0, 49.5]),
                (SensorId(65_535), 1, vec![f64::NEG_INFINITY]),
            ],
        },
        sensors: vec![
            (
                SensorId(0),
                sensor(
                    FilterSnapshot::KOfN {
                        k: 6,
                        n: 10,
                        window: vec![true, false, true, true],
                    },
                    vec![
                        TrackRecord {
                            opened: 12,
                            closed: Some(40),
                        },
                        TrackRecord {
                            opened: 1_300,
                            closed: None,
                        },
                    ],
                    &[(11, true, 2), (13, false, 1), (1_343, true, 1)],
                ),
            ),
            (
                SensorId(3),
                sensor(
                    FilterSnapshot::KOfN {
                        k: 2,
                        n: 4,
                        window: Vec::new(),
                    },
                    Vec::new(),
                    &[],
                ),
            ),
            (
                SensorId(65_535),
                sensor(
                    FilterSnapshot::Sprt {
                        llr_true: 2.4849066497880004,
                        llr_false: -0.8649974374866046,
                        upper: 4.59511985013459,
                        lower: -4.59511985013459,
                        llr: -0.0,
                        steps: 7,
                        raised: true,
                    },
                    vec![TrackRecord {
                        opened: 5,
                        closed: Some(6),
                    }],
                    &[(5, true, 1)],
                ),
            ),
        ],
    }
}

/// Digests of [`golden_pipeline_snapshot`] through `encode_pipeline`
/// and of that text's shard section, its sensors. `report_pin.rs` pins a
/// large real snapshot; this one pins the branches a healthy run does
/// not take. Recorded when layout v5 replaced v4; [`GOLDEN_V1`] to
/// [`GOLDEN_V4`], the same snapshot's older bytes, decode to it and
/// re-encode to these.
const GOLDEN_DIGESTS: (u64, u64) = (14_695_396_120_250_121_706, 1_887_531_640_002_050_752);

/// [`golden_pipeline_snapshot`] as layout v1 wrote it, byte for byte:
/// what v2 wrote, plus `M_CE`'s **A**, β and previous state, every
/// `counts` line twice, and the `mc` and `mo` blocks.
const GOLDEN_V1: &str = include_str!("fixtures/golden_pipeline_v1.txt");

/// [`golden_pipeline_snapshot`] as layout v2 wrote it, byte for byte:
/// the decisive-window `history` line and each sensor's `track` and
/// `alarmed` flags on top of what v3 writes.
const GOLDEN_V2: &str = include_str!("fixtures/golden_pipeline_v2.txt");

/// [`golden_pipeline_snapshot`] as layout v3 wrote it, byte for byte:
/// every raw-alarm window a token of its own.
const GOLDEN_V3: &str = include_str!("fixtures/golden_pipeline_v3.txt");

/// [`golden_pipeline_snapshot`] as layout v4 wrote it, byte for byte:
/// a row's `+0.0` cell in 16 digits.
const GOLDEN_V4: &str = include_str!("fixtures/golden_pipeline_v4.txt");

/// The windows [`golden_pipeline_snapshot`] states.
const GOLDEN_WINDOWS: u64 = 1_344;

#[test]
fn golden_snapshot_encodes_to_the_recorded_bytes() {
    let snap = golden_pipeline_snapshot();
    let pipeline = encode_pipeline(&snap);
    let shard = &pipeline[pipeline.find("sentinet-checkpoint v").expect("a shard")..];
    for marker in [
        "\nwindows 1344\nbootstrap 2\nbp 3ff0000000000000 4000000000000000\n",
        "\nslot 0 7ff8000000000000 7ff0000000000000\n",
        "\nmco-counts 17,0\nwindower ",
        "\nmce 3feb333333333333 17 44\nb ",
        "\nb 0 8000000000000000 3ff0000000000000\n",
        "\nslot 1 0 8000000000000000\n",
        "\nwsensor 65535 1 fff0000000000000\nsensors\n",
        "\nfilter kofn 6 10 1011\n",
        "\nfilter kofn 2 4 -\n",
        "\ncounts 17,0\ntracks 12:40 1300:-\nraw 11:1:2 13:0 1343:1\nend\n",
        "\ncounts 17,0\ntracks -\nraw -\nend\n",
        " 8000000000000000 7 1\n",
    ] {
        assert!(pipeline.contains(marker), "golden snapshot lost {marker:?}");
    }
    assert_eq!(
        decode_pipeline(&pipeline).map(|s| encode_pipeline(&s)),
        Ok(pipeline.clone())
    );
    assert_eq!(
        (fnv(pipeline.as_bytes()), fnv(shard.as_bytes())),
        GOLDEN_DIGESTS,
        "checkpoint encoding drifted from layout v5"
    );
    assert_eq!(
        runs::as_v4(&pipeline),
        GOLDEN_V4,
        "v5 is v4 but for zero cells"
    );
}

/// What v2 wrote beside the state, and v3 drops: lines with these tags.
const V2_ONLY: [&str; 3] = ["history ", "track ", "alarmed "];

/// `older`, the golden text as an older layout wrote it, decodes to the
/// golden snapshot and re-encodes to the v5 golden text. Line for line,
/// it is that text as v4 writes it (`runs::as_v4`: each row's `0` cell
/// in 16 digits) plus the lines with a `dropped` tag, with only the
/// lines with a `rewritten` tag changed.
fn reads_as_the_golden_snapshot(older: &str, dropped: &[&str], rewritten: &[&str]) {
    let snap = golden_pipeline_snapshot();
    let v5 = encode_pipeline(&snap);
    // `Debug`, not `==`: the golden snapshot holds a NaN centroid.
    let debug = |s: &PipelineSnapshot| format!("{s:?}");
    assert_eq!(decode_pipeline(older).map(|s| debug(&s)), Ok(debug(&snap)));
    assert_eq!(
        decode_pipeline(older).map(|s| encode_pipeline(&s)),
        Ok(v5.clone())
    );
    let kept: Vec<&str> = older
        .lines()
        .filter(|line| !dropped.iter().any(|tag| line.starts_with(tag)))
        .collect();
    let v4 = runs::as_v4(&v5);
    assert_eq!(kept.len(), v4.lines().count());
    for (old, new) in kept.iter().zip(v4.lines()) {
        assert!(
            *old == new || rewritten.iter().any(|tag| old.starts_with(tag)),
            "`{old}` became `{new}`"
        );
    }
}

/// The one reader still reads v1: the golden v1 text loses what v2
/// dropped — `M_CE`'s **A** rows, the `mc` and `mo` blocks, `M_CE`'s β
/// and previous state and the second `counts` vector — and what v3
/// dropped, and its `raw` lines become runs.
#[test]
fn the_v1_golden_text_reads_as_the_golden_snapshot() {
    let dropped = [&["a ", "mc ", "mc-row ", "mo ", "mo-row "][..], &V2_ONLY].concat();
    let rewritten = ["sentinet-", "mce ", "counts ", "mco-counts ", "raw "];
    reads_as_the_golden_snapshot(GOLDEN_V1, &dropped, &rewritten);
}

/// The one reader still reads v2: the golden v2 text, as the last
/// binary to write v2 encoded it, loses the `history` line and each
/// sensor's `track` and `alarmed` flags, and its `raw` lines become
/// runs.
#[test]
fn the_v2_golden_text_reads_as_the_golden_snapshot() {
    reads_as_the_golden_snapshot(GOLDEN_V2, &V2_ONLY, &["sentinet-", "raw "]);
}

/// The one reader still reads v3: the golden v3 text, as the last
/// binary to write v3 encoded it, changes its magics and its `raw`
/// lines, and nothing else.
#[test]
fn the_v3_golden_text_reads_as_the_golden_snapshot() {
    reads_as_the_golden_snapshot(GOLDEN_V3, &[], &["sentinet-", "raw "]);
}

/// The one reader still reads v4: the golden v4 text, as the last
/// binary to write v4 encoded it, changes its magics and its rows'
/// `+0.0` cells from 16 digits to `0`, and nothing else.
#[test]
fn the_v4_golden_text_reads_as_the_golden_snapshot() {
    // The digest v4's `GOLDEN_DIGESTS` recorded for the whole text.
    assert_eq!(fnv(GOLDEN_V4.as_bytes()), 9_693_272_002_388_484_484);
    reads_as_the_golden_snapshot(GOLDEN_V4, &[], &["sentinet-"]);
}

/// [`golden_pipeline_snapshot`] with sensor 0's raw-alarm history
/// drawn from `rng` — runs of one, a few or hundreds of windows,
/// adjacent or after a gap, either flag, or no history at all — and a
/// window count at or just past the golden one and the history's end.
fn with_seeded_history(rng: &mut TestRng) -> PipelineSnapshot {
    let mut runs: Vec<AlarmRun> = Vec::new();
    let mut next = rng.range(0u64..50);
    for _ in 0..rng.usize_in(0, 16) {
        let n = match rng.usize_in(0, 4) {
            0 | 1 => 1,
            2 => rng.range(2u64..6),
            _ => rng.range(6u64..400),
        };
        let raw = rng.bool();
        match runs.last_mut() {
            Some(last) if last.raw == raw && last.first + last.windows == next => last.windows += n,
            _ => runs.push(AlarmRun {
                first: next,
                windows: n,
                raw,
            }),
        }
        next += n;
        if rng.bool() {
            next += rng.range(1u64..30);
        }
    }
    let mut snap = golden_pipeline_snapshot();
    snap.global.windows_processed = next.max(GOLDEN_WINDOWS) + rng.range(0u64..3);
    snap.sensors[0].1.raw_runs = runs;
    snap
}

/// Seeded raw-alarm histories — gaps, alternating flags, long runs,
/// none — encode a token a run (one per gap or change of flag) and
/// decode to themselves, and the same snapshot as v3 wrote it, a token
/// a window, decodes to the same snapshot.
#[test]
fn raw_alarm_histories_round_trip_as_runs_and_as_v3_tokens() {
    let replay = Replay {
        var: "RUNS_SEED",
        package: "sentinet-core",
        target: "--test properties",
        test: "raw_alarm_histories_round_trip_as_runs_and_as_v3_tokens",
    };
    // `Debug`, not `==`: the golden snapshot holds a NaN centroid.
    let debug = |s: &PipelineSnapshot| format!("{s:?}");
    replay.for_each_seed(500, |seed| {
        let snap = with_seeded_history(&mut TestRng::new(seed));
        let text = encode_pipeline(&snap);
        if decode_pipeline(&text).map(|s| debug(&s)) != Ok(debug(&snap)) {
            return Err("the runs decode to another snapshot".into());
        }
        if decode_pipeline(&runs::as_v3(&text)).map(|s| debug(&s)) != Ok(debug(&snap)) {
            return Err("the v3 tokens decode to another snapshot".into());
        }
        let runs = snap.sensors[0].1.raw_runs.len();
        let line = text.lines().find(|l| l.starts_with("raw ")).expect("raw");
        let tokens = if line == "raw -" {
            0
        } else {
            line.split(' ').count() - 1
        };
        if tokens != runs {
            return Err(format!("{runs} runs written as `{line}`"));
        }
        Ok(())
    });
}

/// Seeded damage to the run tokens of seeded histories (see
/// `runs::damage_runs`: a run of no windows or of `u64::MAX`, past the
/// last window, out of order, overlapping, of one with its length, split
/// in two, more windows than processed, a three-part token under a v3
/// magic) is `Malformed` at its `raw` line in the pipeline text.
/// A `windows` line raised to a huge count with a run as long reads and
/// re-encodes exactly. Each within the totality bound: no stated number
/// sizes an allocation.
#[test]
fn damaged_run_tokens_are_malformed_at_their_line_or_read_exactly() {
    let replay = Replay {
        var: "TEXT_TOTALITY_SEED",
        package: "sentinet-core",
        target: "--test properties",
        test: "damaged_run_tokens_are_malformed_at_their_line_or_read_exactly",
    };
    let malformed = |e: CheckpointError| match e {
        CheckpointError::Malformed { line, .. } => Some(line),
        CheckpointError::Invalid(_) => None,
    };
    replay.for_each_seed(2_000, |seed| {
        let mut rng = TestRng::new(seed);
        let text = encode_pipeline(&with_seeded_history(&mut rng));
        let damage = runs::damage_runs(&mut rng, &text);
        let damaged = damage.text.as_str();
        let bounded = |why| format!("{}: {why}", damage.what);
        let pipeline = check_total_bytes(damaged.len(), || {
            decode_pipeline(damaged).map(|s| encode_pipeline(&s))
        });
        let answer = pipeline.map_err(bounded)?.map_err(malformed);
        damage.check(answer)
    });
}

/// A restore point whose `windows` line and one raw-alarm run claim
/// nearly `u64::MAX` windows, a few bytes more than an honest one,
/// decodes, restores, reports and re-encodes without an allocation
/// sized by what it claims: the runtime holds runs, and the report's
/// raw-alarm rate is read off them.
#[test]
fn a_run_of_nearly_u64_max_windows_restores_and_reports_within_the_bound() {
    let mut cfg = sentinet_sim::gdi::day_config();
    cfg.duration = 6 * 3600;
    let trace = sentinet_sim::simulate(&cfg, &mut StdRng::seed_from_u64(3));
    let mut p = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
    p.process_trace(&trace);
    let text = encode_pipeline(&p.snapshot());
    // A sensor whose history ends quiet: its last run becomes one of
    // `u64::MAX - w` windows from the same `w`.
    let (raw, w) = text
        .lines()
        .filter_map(|l| Some((l, l.strip_prefix("raw ")?.rsplit(' ').next()?)))
        .find_map(|(l, last)| {
            let mut parts = last.split(':');
            let w = parts.next()?;
            (parts.next() == Some("0")).then_some((l, w))
        })
        .expect("a history ending quiet");
    let first: u64 = w.parse().expect("a window");
    let at = raw.rfind(' ').expect("a run") + 1;
    let long = format!("{}{first}:0:{}", &raw[..at], u64::MAX - first);
    let windows = text
        .lines()
        .find(|l| l.starts_with("windows "))
        .expect("windows");
    let hostile =
        (text.replacen(raw, &long, 1)).replacen(windows, &format!("windows {}", u64::MAX), 1);
    let (restored, report) = check_total_bytes(hostile.len(), || {
        let snap = decode_pipeline(&hostile)?;
        let p = Pipeline::from_snapshot(PipelineConfig::default(), cfg.sample_period, snap)?;
        Ok::<_, CheckpointError>((encode_pipeline(&p.snapshot()), p.report()))
    })
    .expect("no allocation sized by the claim")
    .expect("a valid restore point");
    assert_eq!(restored, hostile);
    let rate = report
        .sensors
        .iter()
        .map(|s| s.raw_alarm_rate)
        .find(|&r| r < 1e-12);
    assert!(rate.is_some(), "no sensor's rate reads the long quiet run");
}

/// A `track` or `alarmed` flag in v1 or v2 text copies the tracks: a
/// track is open, one ever opened. A flag that says otherwise is
/// malformed at its line, whatever the tracks.
#[test]
fn a_v2_flag_other_than_its_tracks_imply_is_malformed() {
    let older = [GOLDEN_V1, GOLDEN_V2];
    for text in older {
        assert!(decode_pipeline(text).is_ok());
        // Sensor 0 has an open track, 3 none, 65535 a closed one.
        for (sensor, flag) in [(0, "track 1"), (0, "alarmed 1"), (1, "track 0")]
            .into_iter()
            .chain([(1, "alarmed 0"), (2, "track 0"), (2, "alarmed 1")])
        {
            let block = text
                .match_indices("\nsensor ")
                .nth(sensor)
                .expect("a sensor")
                .0;
            let at = block
                + text[block..]
                    .find(&format!("\n{flag}\n"))
                    .expect("the flag")
                + 1;
            let flipped = if flag.ends_with('1') { "0" } else { "1" };
            let mut damaged = text.to_string();
            damaged.replace_range(at + flag.len() - 1..at + flag.len(), flipped);
            let line = text[..at].matches('\n').count() + 1;
            assert_eq!(
                malformed_line(decode_pipeline(&damaged)),
                line,
                "sensor {sensor}'s `{flag}` flipped"
            );
        }
    }
}

fn malformed_line<T: std::fmt::Debug>(outcome: Result<T, CheckpointError>) -> usize {
    match outcome {
        Err(CheckpointError::Malformed { line, .. }) => line,
        other => panic!("expected a malformed-line error, got {other:?}"),
    }
}

/// Eq. 2's robust mean as it ordered readings before the integer keys:
/// `(distance, arrival)` pairs under a `total_cmp().then()` comparator,
/// selected and then sorted. Kept as the oracle `trimmed_mean_with` is
/// held to bit for bit (ROADMAP 4e).
fn oracle_trimmed_mean(window: &ObservationWindow, trim: f64) -> Option<Vec<f64>> {
    let points: Vec<&[f64]> = window.sensors().flat_map(|(_, s)| s.iter()).collect();
    let (n, dims) = (points.len(), points.first()?.len());
    let mut mean = vec![0.0; dims];
    let median: Vec<f64> = (0..dims)
        .map(|d| {
            let mut column: Vec<f64> = points.iter().map(|p| p[d]).collect();
            let (_, &mut med, _) = column.select_nth_unstable_by(n / 2, |a, b| a.total_cmp(b));
            med
        })
        .collect();
    let mut order: Vec<(f64, u32)> = Vec::new();
    for (i, point) in points.iter().enumerate() {
        let d2: f64 = point
            .iter()
            .zip(&median)
            .map(|(x, m)| (x - m) * (x - m))
            .sum();
        order.push((d2.sqrt(), i as u32));
    }
    let keep = (((n as f64) * (1.0 - trim)).ceil().max(1.0) as usize).min(n);
    let cmp = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    if keep < n {
        order.select_nth_unstable_by(keep, cmp);
    }
    let kept = &mut order[..keep];
    kept.sort_unstable_by(cmp);
    for &(_, i) in kept.iter() {
        for (m, &v) in mean.iter_mut().zip(points[i as usize]) {
            *m += v;
        }
    }
    mean.iter_mut().for_each(|m| *m /= keep as f64);
    Some(mean)
}

/// A seeded window for the Eq. 2 differential: one sensor or many, one
/// reading or hundreds, values quantised to a coarse grid (duplicates
/// and mirror images, so distances tie exactly), continuous, or mixed
/// with signed zeros and outliers whose squared distance overflows.
fn tie_heavy_window(rng: &mut TestRng) -> ObservationWindow {
    let dims = rng.usize_in(1, 4);
    let sensors = [1, 1, 2, 7, 40][rng.usize_in(0, 5)];
    let per_sensor = [1, 1, 3, 12][rng.usize_in(0, 4)];
    let style = rng.usize_in(0, 3);
    let mut w = ObservationWindow::default();
    for _ in 0..per_sensor {
        for sensor in 0..sensors {
            let values: Vec<f64> = (0..dims)
                .map(|_| match (style, rng.usize_in(0, 16)) {
                    (_, 0) => -0.0,
                    (_, 1) => 0.0,
                    (2, 2) => 1e200,
                    (2, 3) => -1e200,
                    (0, _) => rng.usize_in(0, 9) as f64 * 0.5 - 2.0,
                    _ => rng.next_f64() * 40.0 - 20.0,
                })
                .collect();
            w.push(SensorId(sensor * 3), &values);
        }
    }
    w
}

/// The integer-keyed ordering of `trimmed_mean_with` against the
/// comparator it replaced: same kept set, same summation order, so the
/// same bits — under exact distance ties, `±0.0`, one reading, one
/// sensor, nothing trimmed (`keep == n`) and nearly half trimmed.
#[test]
fn trimmed_mean_matches_the_comparator_oracle_bit_for_bit() {
    let replay = Replay {
        var: "TRIMMED_MEAN_SEED",
        package: "sentinet-core",
        target: "--test properties",
        test: "trimmed_mean_matches_the_comparator_oracle_bit_for_bit",
    };
    replay.for_each_seed(3_000, |seed| {
        let mut rng = TestRng::new(seed);
        let w = tie_heavy_window(&mut rng);
        let mut scratch = WindowScratch::new();
        for trim in [0.01, 0.15, 0.49] {
            let want = oracle_trimmed_mean(&w, trim).map(|m| bits(&m));
            let got = w.trimmed_mean_with(trim, &mut scratch).map(bits);
            if got != want {
                return Err(format!(
                    "trim {trim}, {} readings: got {got:x?}, oracle {want:x?}",
                    w.num_readings()
                ));
            }
        }
        Ok(())
    });
}

/// A window whose trimmed mean depends on its summation order: up to
/// 1 200 readings a few units around a large offset, so the selection
/// order's sum and the (distance, arrival) order's differ in their last
/// bits.
fn near_boundary_window(rng: &mut TestRng) -> ObservationWindow {
    let dims = rng.usize_in(1, 3);
    let offset = rng.pick(&[0.0, 1e3, -5e4, 1e6]);
    let (sensors, per_sensor) = (rng.usize_in(1, 40), rng.usize_in(1, 30));
    let mut w = ObservationWindow::default();
    for _ in 0..per_sensor {
        for sensor in 0..sensors {
            let values: Vec<f64> = (0..dims).map(|_| offset + rng.range(-10.0..10.0)).collect();
            w.push(SensorId(sensor as u16), &values);
        }
    }
    w
}

/// States that put a boundary at `mean`, shifted by 0 to 65 536 ulps:
/// the bisector of two states, or the spawn sphere of the only state
/// near it; the state cap sometimes forbids the spawn. A non-finite
/// mean gets two plain states.
fn states_around(rng: &mut TestRng, mean: &[f64]) -> ModelStates {
    let dims = mean.len();
    let spawn_threshold = rng.range(1.0..6.0);
    let ulps = rng.pick(&[0.0, 1.0, 4.0, 16.0, 64.0, 1024.0, 65536.0]) * rng.pick(&[1.0, -1.0]);
    let at: Vec<f64> = mean
        .iter()
        .map(|&x| x + ulps * (x.abs().next_up() - x.abs()))
        .collect();
    let dir: Vec<f64> = (0..dims).map(|_| rng.range(0.5..3.0)).collect();
    let len = dir.iter().map(|d| d * d).sum::<f64>().sqrt();
    let far: Vec<f64> = at.iter().map(|x| x + 100.0).collect();
    let centroids = if !mean.iter().all(|x| x.is_finite()) {
        vec![vec![0.0; dims], vec![1.0; dims]]
    } else if rng.bool() {
        let side =
            |sign: f64| -> Vec<f64> { at.iter().zip(&dir).map(|(x, d)| x + sign * d).collect() };
        vec![side(1.0), side(-1.0), far]
    } else {
        let reach = spawn_threshold / len;
        vec![
            at.iter().zip(&dir).map(|(x, d)| x + d * reach).collect(),
            far,
        ]
    };
    let max_states = centroids.len() + rng.usize_in(0, 2);
    let config = ClusterConfig {
        alpha: 0.2,
        merge_threshold: 0.1,
        spawn_threshold,
        max_states,
    };
    ModelStates::new(centroids, config)
}

/// Eq. 2's certified decision against the exact one: a settled window
/// names the state `nearest` gives the exact trimmed mean, and that
/// mean would spawn nothing; an unsettled one hands back the exact mean
/// bit for bit. Over `tie_heavy_window`s (ties, `±0.0`, overflowing
/// squares) and near-boundary windows (order-dependent bits, a state
/// boundary within ulps), both paths must run.
#[test]
fn the_certified_observable_state_is_the_exact_ones() {
    let replay = Replay {
        var: "OBSERVED_SEED",
        package: "sentinet-core",
        target: "--test properties",
        test: "the_certified_observable_state_is_the_exact_ones",
    };
    let (mut settled, mut exact) = (0, 0);
    replay.for_each_seed(3_000, |seed| {
        let mut rng = TestRng::new(seed);
        let w = if seed % 2 == 0 {
            tie_heavy_window(&mut rng)
        } else {
            near_boundary_window(&mut rng)
        };
        let trim = rng.pick(&[0.0, 0.01, 0.15, 0.49]);
        let want = w
            .trimmed_mean_with(trim, &mut WindowScratch::new())
            .expect("non-empty")
            .to_vec();
        let states = states_around(&mut rng, &want);
        let mut scratch = WindowScratch::new();
        match w.observable_with(trim, &states, &mut scratch) {
            Some(Observed::Settled(slot)) => {
                settled += 1;
                let nearest = states.nearest(&want).map(|(i, _)| i);
                let spawned = states.clone().spawn_if_uncovered(&want);
                if nearest != Some(slot) || spawned.is_some() {
                    return Err(format!(
                        "trim {trim}: settled on {slot}, but the exact mean {want:?} \
                         is nearest {nearest:?} and spawns {spawned:?}"
                    ));
                }
            }
            Some(Observed::Exact(mean)) => {
                exact += 1;
                if bits(mean) != bits(&want) {
                    return Err(format!("trim {trim}: {mean:?}, exact {want:?}"));
                }
            }
            None => return Err("a non-empty window observed nothing".into()),
        }
        Ok(())
    });
    if replay.seed_from_env().is_none() {
        assert!(
            settled > 300 && exact > 300,
            "{settled} settled, {exact} exact"
        );
    }
}

fn is_malformed(e: &CheckpointError) -> bool {
    matches!(e, CheckpointError::Malformed { .. })
}

fn pipeline_total_and_exact(input: &[u8]) -> Result<(), String> {
    check_total_and_exact(input, decode_pipeline, encode_pipeline, is_malformed)
}

/// Decoder totality for the pipeline codec, its shard section included
/// (ROADMAP 4c): torn, bit-flipped, count-inflated and arbitrary input
/// is rejected with a typed `Malformed` or decodes to exactly what it
/// says.
#[test]
fn damaged_checkpoint_text_is_rejected_or_reencodes_exactly() {
    let pipeline = encode_pipeline(&golden_pipeline_snapshot());
    let replay = Replay {
        var: "TEXT_TOTALITY_SEED",
        package: "sentinet-core",
        target: "--test properties",
        test: "damaged_checkpoint_text_is_rejected_or_reencodes_exactly",
    };
    replay.for_each_seed(4_000, |seed| {
        let mut rng = TestRng::new(seed);
        let (what, damaged) = mutate(&mut rng, &pipeline);
        pipeline_total_and_exact(&damaged).map_err(|why| format!("pipeline {what}: {why}"))
    });
}

/// Every single-bit flip of the golden texts (and of an unbuilt
/// sensor's `prior` line, which they lack), exhaustively: the seeded
/// property above samples this space, and a codec that reads `raw 5:3`
/// as "not raised", `07` as 7 or `3FF0…` as 1.0 survives a sample.
#[test]
fn every_single_bit_flip_is_rejected_or_reencodes_exactly() {
    let unbuilt = SensorRuntime::new(&PipelineConfig::default(), 4).snapshot();
    for (name, text) in [
        ("pipeline", encode_pipeline(&golden_pipeline_snapshot())),
        (
            "unbuilt sensor",
            encode_pipeline(&with_sensors(vec![(SensorId(3), unbuilt)])),
        ),
    ] {
        for at in 0..text.len() {
            for bit in 0..8 {
                let mut damaged = text.clone().into_bytes();
                damaged[at] ^= 1 << bit;
                if let Err(why) = pipeline_total_and_exact(&damaged) {
                    let line = text[..at].matches('\n').count() + 1;
                    panic!("{name}: bit {bit} of byte {at} (line {line}) flipped: {why}");
                }
            }
        }
    }
}

/// `M_CE` as a sensor got it before the estimator was built at its
/// first track: the identity prior at the sensor's birth — hidden state
/// `i` one-hot on symbol `i + 1` — then grown at every spawn. Kept as
/// the reference the built-on-demand estimator is held to.
fn eager_m_ce(config: &PipelineConfig, slots: usize) -> OnlineHmmEstimator {
    let rows = (0..slots)
        .map(|i| {
            let mut row = vec![0.0; slots + 1];
            row[i + 1] = 1.0;
            row
        })
        .collect();
    let b = StochasticMatrix::from_rows(rows).expect("one-hot rows");
    OnlineHmmEstimator::without_chain(b, config.gamma).expect("valid factors")
}

/// Every bit of an exported estimator (`-0.0` is not `0.0`), its
/// shape and counters included.
fn state_bits(s: &EstimatorState) -> Vec<u64> {
    let mut out = vec![s.gamma.to_bits(), s.generation];
    out.push(s.visits.len() as u64);
    out.extend(&s.visits);
    if let Some(chain) = &s.chain {
        let prev = chain.prev.map_or(u64::MAX, |p| p as u64);
        out.extend([chain.beta.to_bits(), prev, chain.transition.len() as u64]);
    }
    for row in s.chain.iter().flat_map(|c| &c.transition).chain(&s.b) {
        out.push(row.len() as u64);
        out.extend(bits(row));
    }
    out
}

/// [`state_bits`] of the estimator a checkpointed `M_CE` stands for:
/// a prior is the identity over its slots, without visits.
fn m_ce_bits(m: &MceSnapshot) -> Vec<u64> {
    match m {
        MceSnapshot::Built(state) => state_bits(state),
        MceSnapshot::Prior(p) => state_bits(&EstimatorState {
            chain: None,
            b: (0..p.slots)
                .map(|i| {
                    (0..=p.slots)
                        .map(|j| f64::from(u8::from(j == i + 1)))
                        .collect()
                })
                .collect(),
            gamma: p.gamma,
            visits: vec![0; p.slots],
            generation: p.generation,
        }),
    }
}

/// A grow target from `slots`: as often none (the same count, or a
/// smaller one) as one slot, sometimes a jump of several.
fn grow_target(rng: &mut TestRng, slots: usize) -> usize {
    match rng.usize_in(0, 6) {
        0 => slots,
        1 => slots.saturating_sub(1),
        2 | 3 => slots + 1,
        _ => slots + rng.usize_in(2, 6),
    }
}

/// A sensor's `M_CE`, built at its first track from the prior it held
/// until then, against [`eager_m_ce`] grown at every spawn since
/// birth: after `k` grows (no-op and multi-slot ones among them) the
/// first track opens, then steps and grows interleave. The snapshot,
/// `m_ce()` and the generation agree bit for bit throughout, and the
/// estimator is built exactly when the first track opens.
#[test]
fn an_m_ce_built_at_the_first_track_equals_one_grown_since_birth() {
    let replay = Replay {
        var: "LAZY_M_CE_SEED",
        package: "sentinet-core",
        target: "--test properties",
        test: "an_m_ce_built_at_the_first_track_equals_one_grown_since_birth",
    };
    let mut late_builds = 0;
    replay.for_each_seed(500, |seed| {
        let mut rng = TestRng::new(seed);
        let config = PipelineConfig {
            beta: rng.pick(&[0.1, 0.5, 0.9]),
            gamma: rng.pick(&[0.1, 0.3, 0.85]),
            ..PipelineConfig::default()
        };
        let mut slots = rng.usize_in(1, 9);
        let mut sensor = SensorRuntime::new(&config, slots);
        let mut eager = eager_m_ce(&config, slots);
        let same = |sensor: &SensorRuntime, eager: &OnlineHmmEstimator, at: &str| {
            let want = state_bits(&eager.export_state());
            let snapshot = sensor.snapshot().m_ce;
            if m_ce_bits(&snapshot) != want {
                return Err(format!("{at}: snapshot differs from the eager M_CE"));
            }
            let visited = eager.observation_evidence().iter().any(|&v| v > 0);
            if matches!(snapshot, MceSnapshot::Prior(_)) == visited {
                return Err(format!("{at}: checkpointed as a prior iff without visits"));
            }
            if sensor.m_ce_built() {
                let built = sensor.m_ce();
                if built != eager || state_bits(&built.export_state()) != want {
                    return Err(format!("{at}: m_ce() differs from the eager M_CE"));
                }
                if built.generation() != eager.generation() {
                    return Err(format!("{at}: generation differs"));
                }
            }
            Ok(())
        };
        let k = rng.usize_in(0, 8);
        for g in 0..k {
            slots = slots.max(grow_target(&mut rng, slots));
            sensor.grow(slots);
            eager.grow(slots, slots + 1);
            same(&sensor, &eager, &format!("grow {g} of {k}"))?;
            if sensor.m_ce_built() {
                return Err(format!("grow {g} built the M_CE of an untracked sensor"));
            }
        }
        for window in 0..rng.usize_in(8, 40) as u64 {
            if rng.usize_in(0, 5) == 0 {
                slots = slots.max(grow_target(&mut rng, slots));
                sensor.grow(slots);
                eager.grow(slots, slots + 1);
            }
            let correct = rng.usize_in(0, slots);
            // Disagree until the first track opens, then at random (a
            // one-slot sensor cannot).
            let disagree = slots > 1 && (sensor.tracks().is_empty() || rng.bool());
            let label = if disagree {
                (correct + rng.usize_in(1, slots)) % slots
            } else {
                correct
            };
            let (was_built, grown) = (sensor.m_ce_built(), eager.generation() > 0);
            let step_out = sensor.step(window, label, correct);
            if !was_built && sensor.m_ce_built() && grown {
                late_builds += 1;
            }
            if step_out.filtered {
                let symbol = if step_out.raw { label + 1 } else { BOT_SYMBOL };
                eager.observe(correct, symbol).expect("within dims");
            }
            if sensor.m_ce_built() == sensor.tracks().is_empty() {
                return Err(format!(
                    "step {window}: built {} with {} tracks",
                    sensor.m_ce_built(),
                    sensor.tracks().len()
                ));
            }
            same(&sensor, &eager, &format!("step {window}"))?;
        }
        Ok(())
    });
    if replay.seed_from_env().is_none() {
        assert!(late_builds > 300, "{late_builds} sensors built after grows");
    }
}

/// `sensors` in the text production writes them in: the shard section
/// closing a pipeline text, here behind a header with no model states
/// and no window bound.
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

/// One sensor through `encode_pipeline` → `decode_pipeline` →
/// `SensorRuntime::from_snapshot`, with the text it was encoded to.
fn through_checkpoint(snapshot: SensorSnapshot) -> (String, SensorRuntime) {
    let text = encode_pipeline(&with_sensors(vec![(SensorId(7), snapshot)]));
    let (_, decoded) = decode_pipeline(&text)
        .expect("decodes")
        .sensors
        .pop()
        .expect("one sensor");
    let restored = SensorRuntime::from_snapshot(decoded).expect("restores");
    (text, restored)
}

/// The estimator shapes `Pipeline::from_snapshot` requires: `M_CO`
/// chained and square over the model-state slots, every `M_CE` over
/// the slots and their symbols plus ⊥, and no sensor before bootstrap.
fn sized_to_the_slots(snap: &PipelineSnapshot) -> Result<(), String> {
    let states = snap.global.states.as_ref();
    let slots = states.map_or(0, |gs| gs.states.centroids.len());
    let sized = |rows: &[Vec<f64>], symbols: usize| {
        rows.len() == slots && rows.iter().all(|row| row.len() == symbols)
    };
    if states.is_some_and(|gs| gs.m_co.chain.is_none() || !sized(&gs.m_co.b, slots)) {
        return Err(format!("M_CO is not chained {slots} x {slots}"));
    }
    for (id, sensor) in &snap.sensors {
        let fits = match &sensor.m_ce {
            MceSnapshot::Prior(p) => p.slots == slots,
            MceSnapshot::Built(m) => m.chain.is_none() && sized(&m.b, slots + 1),
        };
        if !fits {
            return Err(format!("{id}'s M_CE is not sized to {slots} slots"));
        }
    }
    Ok(())
}

/// Every snapshot a live pipeline takes — before bootstrap, at every
/// window close, across spawns from a fault and an attack — already
/// has the shapes the restore check demands, so the check refuses only
/// restore points no pipeline wrote.
#[test]
fn every_live_snapshot_sizes_its_estimators_to_the_slots() {
    use sentinet_inject::{
        inject_attacks, inject_faults, AttackInjection, AttackModel, FaultInjection, FaultModel,
    };
    use sentinet_sim::{gdi, simulate, DAY_S};
    let replay = Replay {
        var: "LIVE_SHAPE_SEED",
        package: "sentinet-core",
        target: "--test properties",
        test: "every_live_snapshot_sizes_its_estimators_to_the_slots",
    };
    let (mut spawned, mut prebootstrap) = (0, 0);
    replay.for_each_seed(12, |seed| {
        let mut rng = TestRng::new(seed);
        let mut cfg = gdi::month_config();
        cfg.num_sensors = rng.usize_in(4, 13) as u16;
        cfg.duration = 2 * DAY_S;
        let clean = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
        let onset = rng.usize_in(1, 40) as u64 * 3_600;
        let fault = FaultInjection::from_onset(
            SensorId(0),
            FaultModel::StuckAt {
                value: vec![15.0, 1.0],
            },
            onset,
        );
        let faulty = inject_faults(
            &clean,
            &[fault],
            &cfg.ranges,
            &mut StdRng::seed_from_u64(seed),
        );
        let attack = AttackInjection::from_onset(
            (1..=cfg.num_sensors / 3).map(SensorId).collect(),
            AttackModel::DynamicCreation {
                target: vec![25.0, 69.0],
            },
            DAY_S,
        );
        let trace = inject_attacks(&faulty, &[attack], &cfg.ranges);
        let mut p = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
        let mut first_slots = None;
        for (time, sensor, reading) in trace.delivered() {
            let closed = !p.push_reading(time, sensor, reading).is_empty();
            if closed || p.model_states().is_none() {
                let snap = p.snapshot();
                sized_to_the_slots(&snap).map_err(|why| format!("at {time}: {why}"))?;
                if snap.global.states.is_none() {
                    prebootstrap += 1;
                }
            }
            first_slots = first_slots.or(p.model_states().map(ModelStates::num_slots));
        }
        if p.model_states().map(ModelStates::num_slots) > first_slots {
            spawned += 1;
        }
        Ok(())
    });
    if replay.seed_from_env().is_none() {
        assert!(
            spawned > 0 && prebootstrap > 0,
            "{spawned} spawns, {prebootstrap} early"
        );
    }
}

/// What a sensor's two flags were before they became reads of its
/// tracks, from the window outcomes alone: a filtered alarm was ever
/// raised (`ever_alarmed`), and its last step raised one (a track is
/// open). After every reading of two faulted fields a seed — the
/// four error models each, from two onsets — every sensor's tracks say
/// the same.
#[test]
fn a_sensors_flags_are_what_its_tracks_say() {
    use sentinet_inject::{inject_faults, FaultInjection, FaultModel};
    use sentinet_sim::{gdi, simulate, DAY_S};
    let replay = Replay {
        var: "TRACK_FLAGS_SEED",
        package: "sentinet-core",
        target: "--test properties",
        test: "a_sensors_flags_are_what_its_tracks_say",
    };
    let (mut checked, mut tracked, mut closed) = (0, 0, 0);
    replay.for_each_seed(6, |seed| {
        let mut rng = TestRng::new(seed);
        for field in 0..2u64 {
            let mut cfg = gdi::month_config();
            cfg.num_sensors = rng.usize_in(6, 11) as u16;
            cfg.duration = 3 * DAY_S;
            let clean = simulate(&cfg, &mut StdRng::seed_from_u64(seed * 2 + field));
            let models = [
                FaultModel::DriftToStuck {
                    target: vec![15.0, 1.0],
                    drift_duration: DAY_S / 4,
                },
                FaultModel::Calibration {
                    gain: vec![1.15, 1.15],
                },
                FaultModel::Additive {
                    offset: vec![-9.0, -4.5],
                },
                FaultModel::RandomNoise {
                    std: vec![10.0, 10.0],
                },
            ];
            let faults: Vec<FaultInjection> = (models.into_iter().enumerate())
                .map(|(i, model)| {
                    let onset = rng.usize_in(1, 60) as u64 * 3_600;
                    FaultInjection::from_onset(SensorId(i as u16 + 1), model, onset)
                })
                .collect();
            let trace = inject_faults(
                &clean,
                &faults,
                &cfg.ranges,
                &mut StdRng::seed_from_u64(seed),
            );
            let mut p = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
            let (mut alarmed, mut up_at) = (Vec::new(), BTreeMap::new());
            for (time, sensor, reading) in trace.delivered() {
                for outcome in p.push_reading(time, sensor, reading) {
                    alarmed.extend(&outcome.filtered_alarms);
                    up_at.insert(outcome.index, outcome.filtered_alarms);
                }
                for id in p.sensor_ids() {
                    let last_step = p.raw_alarm_history(id).and_then(|h| h.last());
                    let raised = |w: &u64| up_at.get(w).is_some_and(|up| up.contains(&id));
                    let up = last_step.is_some_and(|(w, _)| raised(w));
                    let tracks = p.tracks(id).unwrap_or_default();
                    let open = tracks.last().is_some_and(|t| t.closed.is_none());
                    if (alarmed.contains(&id), up) != (p.ever_alarmed(id), open) {
                        return Err(format!(
                            "field {field}, {id} at {time}: flags other than its tracks say"
                        ));
                    }
                    checked += 1;
                    tracked += usize::from(!tracks.is_empty());
                    closed += usize::from(tracks.iter().any(|t| t.closed.is_some()));
                }
            }
        }
        Ok(())
    });
    if replay.seed_from_env().is_none() {
        assert!(
            tracked > 1_000 && closed > 100,
            "{checked} checked, {tracked} with tracks, {closed} with a closed one"
        );
    }
}

/// The v1 text of the pipeline `text`'s one sensor, whose `M_CE` is a prior and
/// who never opened a track: the prior written out in full as v1 wrote
/// every `M_CE` — identity **A**, one-hot **B**, zero counts twice —
/// after `damage` has had its rows, and both flags down.
fn v1_prior_text(
    text: &str,
    beta: f64,
    damage: impl FnOnce(&mut [Vec<f64>], &mut [Vec<f64>]),
) -> String {
    let line = text
        .lines()
        .find(|l| l.starts_with("prior "))
        .expect("an unbuilt sensor");
    let [_, slots, generation, gamma] = line.split(' ').collect::<Vec<_>>()[..] else {
        panic!("prior line `{line}`");
    };
    let n: usize = slots.parse().expect("a slot count");
    let one_hot = |len: usize, shift: usize| -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..len)
                    .map(|j| f64::from(u8::from(j == i + shift)))
                    .collect()
            })
            .collect()
    };
    let (mut a, mut b) = (one_hot(n, 0), one_hot(n + 1, 1));
    damage(&mut a, &mut b);
    let mut block = format!("mce {:016x} {gamma} - 0 {generation}\n", beta.to_bits());
    for (tag, rows) in [("a", &a), ("b", &b)] {
        for row in rows {
            block.push_str(tag);
            for x in row {
                block.push_str(&format!(" {:016x}", x.to_bits()));
            }
            block.push('\n');
        }
    }
    let zeros = vec!["0"; n].join(",");
    block.push_str(&format!("counts {zeros} {zeros}"));
    runs::as_v3(text)
        .replace("sentinet-pipeline v3", "sentinet-pipeline v1")
        .replace("\nbootstrap ", "\nhistory -\nbootstrap ")
        .replace("sentinet-checkpoint v3", "sentinet-checkpoint v1")
        .replace(line, &block)
        .replace("\ntracks -\n", "\ntrack 0\ntracks -\n")
        .replace("\nend", "\nalarmed 0\nend")
}

/// An unbuilt `M_CE` is checkpointed as one `prior` line, survives a
/// checkpoint unbuilt and re-encodes to the same bytes. v1 wrote it in
/// full: a v1 block without visits that is the identity prior bit for
/// bit reads as that prior and re-encodes to the line; one that is
/// not — one **B** cell moved, or one `0.0` of **A** or **B** written
/// `-0.0` — is malformed.
#[test]
fn only_the_exact_identity_prior_is_restored_unbuilt() {
    let replay = Replay {
        var: "PRIOR_RESTORE_SEED",
        package: "sentinet-core",
        target: "--test properties",
        test: "only_the_exact_identity_prior_is_restored_unbuilt",
    };
    replay.for_each_seed(300, |seed| {
        let mut rng = TestRng::new(seed);
        let config = PipelineConfig::default();
        let mut slots = rng.usize_in(1, 9);
        let mut sensor = SensorRuntime::new(&config, slots);
        for window in 0..rng.usize_in(0, 12) {
            if rng.bool() {
                slots = slots.max(grow_target(&mut rng, slots));
                sensor.grow(slots);
            }
            // Agreeing steps: history and filter state, no track.
            let correct = rng.usize_in(0, slots);
            sensor.step(window as u64, correct, correct);
        }
        let (text, restored) = through_checkpoint(sensor.snapshot());
        if restored.m_ce_built() {
            return Err("the identity prior came back built".into());
        }
        if encode_pipeline(&with_sensors(vec![(SensorId(7), restored.snapshot())])) != text {
            return Err("an unbuilt sensor re-encodes to other bytes".into());
        }
        if text.lines().filter(|l| l.starts_with("prior ")).count() != 1 || text.contains("\nmce ")
        {
            return Err(format!("an unbuilt sensor is not one prior line:\n{text}"));
        }

        let exact = v1_prior_text(&text, config.beta, |_, _| {});
        match decode_pipeline(&exact).map(|s| encode_pipeline(&s)) {
            Ok(v4) if v4 == text => {}
            other => return Err(format!("the exact v1 prior reads as {other:?}")),
        }
        let row = rng.usize_in(0, slots);
        let (moved, in_a) = (rng.bool(), rng.bool());
        let mut zeroless = false;
        let damaged = v1_prior_text(&text, config.beta, |a, b| {
            if moved {
                // Half of the row's mass onto ⊥: still stochastic.
                b[row][0] = 0.5;
                b[row][row + 1] = 0.5;
                return;
            }
            let cells = if in_a { &mut a[row] } else { &mut b[row] };
            match cells.iter().position(|&x| x == 0.0) {
                Some(at) => cells[at] = -0.0,
                None => zeroless = true, // a one-slot A has no zero cell
            }
        });
        if zeroless {
            return Ok(());
        }
        match decode_pipeline(&damaged) {
            Err(CheckpointError::Malformed { .. }) => Ok(()),
            other => Err(format!(
                "a not-prior v1 M_CE (row {row}) reads as {other:?}"
            )),
        }
    });
}
