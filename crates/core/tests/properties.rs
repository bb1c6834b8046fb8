//! Property-based tests for the core pipeline's invariants.

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use proptest::prelude::*;
use proptest::TestRng;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seeded::{check_total_and_exact, mutate, PeakAlloc, Replay};
use sentinet_cluster::{ClusterConfig, ModelStates, StatesSnapshot, UpdateScratch};
use sentinet_core::checkpoint::{decode_shard, encode_shard};
use sentinet_core::{
    decode_pipeline, encode_pipeline, identify_states, identify_states_into, identify_states_with,
    CheckpointError, GlobalSnapshot, GlobalStates, ObservationWindow, Pipeline, PipelineConfig,
    PipelineSnapshot, SensorSnapshot, TrackRecord, WindowScratch, WindowStates, Windower,
    WindowerSnapshot,
};
use sentinet_filter::FilterSnapshot;
use sentinet_hmm::{EstimatorState, MarkovState};
use sentinet_sim::{Reading, SensorId, Trace, TraceRecord};
use std::collections::BTreeMap;

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
) -> Result<(), TestCaseError> {
    let Some(want) = want else {
        prop_assert_eq!(got, None);
        return Ok(());
    };
    prop_assert_eq!(got, Some((want.correct, want.decisive)));
    let ids: Vec<SensorId> = want.labels.keys().copied().collect();
    prop_assert_eq!(scratch.sensor_ids(), &ids[..]);
    let labels: Vec<usize> = want.labels.values().copied().collect();
    prop_assert_eq!(scratch.labels(), &labels[..]);
    let reps: Vec<f64> = want.representatives.values().flatten().copied().collect();
    prop_assert_eq!(bits(scratch.representatives()), bits(&reps));
    Ok(())
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
fn sparse_pushes(max_len: usize) -> impl Strategy<Value = Vec<(u16, Vec<f64>)>> {
    let id = prop::sample::select(vec![0u16, 7, 65535, 3, 1000, 8]);
    let cell = prop::sample::select(vec![-0.0, 0.0, 1.0, -1.0, 2.0, -2.0, 5.0, -5.0, 60.0]);
    prop::collection::vec((id, prop::collection::vec(cell, 2)), 1..max_len)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dense window against a plain map of the same pushes, in
    /// whatever order they arrive.
    #[test]
    fn dense_window_matches_a_map_of_the_same_pushes(pushes in sparse_pushes(40)) {
        let w = window_from(&pushes);
        let mut oracle: BTreeMap<SensorId, Vec<f64>> = BTreeMap::new();
        for (s, v) in &pushes {
            oracle.entry(SensorId(*s)).or_default().extend_from_slice(v);
        }
        let got: Vec<(SensorId, Vec<u64>)> =
            w.sensors().map(|(id, s)| (id, bits(s.as_flat()))).collect();
        let want: Vec<(SensorId, Vec<u64>)> =
            oracle.iter().map(|(&id, v)| (id, bits(v))).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(w.num_readings(), pushes.len());
        // Arrival order does not matter to equality; id order is kept.
        let mut sorted = pushes.clone();
        sorted.sort_by_key(|(s, _)| *s); // stable: per-sensor order kept
        prop_assert_eq!(&w, &window_from(&sorted));
    }

    /// Eqs. 3–4 out of one scratch reused across two windows, the
    /// map-typed wrappers, and the clustering round fed the reused
    /// labels — all against the map oracle and a relabelling `update`.
    #[test]
    fn flat_identify_and_labeled_update_match_the_map_oracle(
        first in sparse_pushes(30),
        second in sparse_pushes(30),
        fraction in prop::sample::select(vec![0.5, 0.34, 0.75]),
    ) {
        let mut flat_states = tie_states();
        let mut map_states = tie_states();
        let mut scratch = WindowScratch::new();
        let mut update_scratch = UpdateScratch::default();
        for pushes in [&first, &second] {
            let w = window_from(pushes);
            let overall = w.trimmed_mean(0.1).expect("non-empty");
            let want = oracle_identify(&w, &map_states, &overall, fraction);
            let got = identify_states_into(&w, &flat_states, fraction, &mut scratch);
            assert_flat_is(got, &scratch, &want)?;
            assert_states_eq(&identify_states_with(&w, &flat_states, &overall, fraction), &want);
            assert_states_eq(&identify_states(&w, &flat_states, 0.1, fraction), &want);
            let want = want.expect("non-empty window, live states");
            let sensor_means = w.sensor_means();
            prop_assert_eq!(&sensor_means, &want.representatives);

            // Eq. 6 + merge/spawn: reusing the Eq. 3 labels is the
            // same round as labelling again.
            let points: Vec<Vec<f64>> = want.representatives.into_values().collect();
            let events = flat_states.update_labeled(
                scratch.representatives(),
                scratch.labels(),
                &mut update_scratch,
            );
            prop_assert_eq!(events, map_states.update(&points));
            let (a, b) = (flat_states.snapshot(), map_states.snapshot());
            prop_assert_eq!(&a, &b);
            for (ca, cb) in a.centroids.iter().zip(&b.centroids) {
                prop_assert_eq!(bits(ca), bits(cb));
            }
        }
    }

    /// A recycled window whose earlier sensors went silent equals, and
    /// identifies as, a window that never knew them.
    #[test]
    fn recycled_windows_equal_fresh_ones(
        rounds in prop::collection::vec(sparse_pushes(12), 2..6),
    ) {
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
                    prop_assert_eq!(&done, &fresh);
                    prop_assert_eq!(done.num_readings(), fresh.num_readings());
                    let got = identify_states_into(&done, &states, 0.5, &mut scratch);
                    let want = identify_states_into(&fresh, &states, 0.5, &mut fresh_scratch);
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(scratch.sensor_ids(), fresh_scratch.sensor_ids());
                    prop_assert_eq!(
                        bits(scratch.representatives()),
                        bits(fresh_scratch.representatives())
                    );
                    windower.recycle(done);
                }
            }
        }
    }

    #[test]
    fn trimmed_mean_within_data_hull(
        pts in prop::collection::vec((0u16..5, prop::collection::vec(-50.0f64..50.0, 1)), 1..40),
        trim in 0.0f64..0.45,
    ) {
        let w = window_from(&pts);
        let mean = w.trimmed_mean(trim).expect("non-empty");
        let lo = pts.iter().map(|(_, v)| v[0]).fold(f64::INFINITY, f64::min);
        let hi = pts.iter().map(|(_, v)| v[0]).fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(mean[0] >= lo - 1e-9 && mean[0] <= hi + 1e-9);
    }

    #[test]
    fn trim_zero_equals_plain_mean(
        pts in prop::collection::vec((0u16..5, prop::collection::vec(-50.0f64..50.0, 2)), 1..30),
    ) {
        let w = window_from(&pts);
        prop_assert_eq!(w.trimmed_mean(0.0), w.overall_mean());
    }

    #[test]
    fn trimmed_mean_ignores_single_wild_outlier(
        honest in prop::collection::vec((0u16..4, Just(vec![10.0, 10.0])), 8..20),
        outlier in 100.0f64..1_000.0,
    ) {
        let mut pts = honest;
        pts.push((4, vec![outlier, outlier]));
        let w = window_from(&pts);
        let mean = w.trimmed_mean(0.2).expect("non-empty");
        prop_assert!((mean[0] - 10.0).abs() < 1e-9, "outlier leaked: {mean:?}");
    }

    #[test]
    fn identify_states_correct_backed_by_majority_when_decisive(
        pts in prop::collection::vec((0u16..6, prop::collection::vec(-30.0f64..30.0, 1)), 2..24),
    ) {
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
            prop_assert_eq!(votes.get(&ws.correct).copied().unwrap_or(0), max);
            if ws.decisive {
                prop_assert!(2 * max > ws.labels.len());
            }
        }
    }

    #[test]
    fn windower_partitions_all_readings(
        times in prop::collection::vec(0u64..50_000, 1..100),
    ) {
        let mut sorted = times;
        sorted.sort_unstable();
        let mut w = Windower::new(3_600);
        let mut seen = 0usize;
        for &t in &sorted {
            let done = w.push(t, SensorId(0), &[1.0]);
            seen += done.iter().map(|d| d.num_readings()).sum::<usize>();
        }
        seen += w.finish().map(|d| d.num_readings()).unwrap_or(0);
        prop_assert_eq!(seen, sorted.len());
    }

    #[test]
    fn windower_windows_are_time_disjoint(
        times in prop::collection::vec(0u64..100_000, 2..100),
    ) {
        let mut sorted = times;
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
            prop_assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn pipeline_never_panics_on_arbitrary_small_traces(
        recs in prop::collection::vec(
            (0u64..20_000, 0u16..4, prop::collection::vec(-30.0f64..30.0, 2)),
            0..60,
        ),
    ) {
        let records: Vec<TraceRecord> = recs
            .into_iter()
            .map(|(t, s, v)| TraceRecord {
                time: t,
                sensor: SensorId(s),
                payload: sentinet_sim::Payload::Delivered(Reading::new(v)),
            })
            .collect();
        let trace = Trace::from_records(records);
        let mut p = Pipeline::new(PipelineConfig::default(), 300);
        let _ = p.process_trace(&trace);
        // Classification of any sensor id is total.
        for s in 0..5u16 {
            let _ = p.classify(SensorId(s));
        }
        let _ = p.network_attack();
    }

    #[test]
    fn pipeline_is_deterministic(
        seed in 0u64..50,
    ) {
        let mut cfg = sentinet_sim::gdi::day_config();
        cfg.duration = 6 * 3600;
        let trace = sentinet_sim::simulate(&cfg, &mut StdRng::seed_from_u64(seed));
        let run = || {
            let mut p = Pipeline::new(PipelineConfig::default(), cfg.sample_period);
            let outcomes = p.process_trace(&trace);
            (outcomes, p.classify_all())
        };
        prop_assert_eq!(run(), run());
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
    let estimator = |prev_state, generation| EstimatorState {
        a: vec![vec![0.75, 0.25], vec![f64::MIN_POSITIVE, 1.0]],
        b: vec![vec![0.5, 0.25, 0.25], vec![0.0, -0.0, 1.0]],
        beta: 0.9,
        gamma: 0.85,
        prev_state,
        state_counts: vec![17, 0],
        obs_counts: vec![3, 14],
        steps: 17,
        generation,
    };
    let sensor = |filter, tracks: Vec<TrackRecord>, raw_history: Vec<(u64, bool)>| SensorSnapshot {
        filter,
        m_ce: estimator(tracks.len().checked_sub(1), 40 + raw_history.len() as u64),
        track_open: tracks.last().is_some_and(|t| t.closed.is_none()),
        ever_alarmed: !tracks.is_empty(),
        tracks,
        raw_history,
    };
    PipelineSnapshot {
        global: GlobalSnapshot {
            windows_processed: 1_344,
            state_history: vec![(3, 2, 2), (4, 3, 2), (1_343, 0, 11)],
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
                m_co: estimator(Some(1), 9),
                m_c: MarkovState {
                    transition: vec![vec![0.5, 0.5], vec![0.125, 0.875]],
                    beta: 0.9,
                    prev: Some(0),
                    visits: vec![1_300, 44],
                },
                m_o: MarkovState {
                    transition: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
                    beta: 0.9,
                    prev: None,
                    visits: vec![0, 0],
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
                    vec![(11, true), (12, true), (13, false), (1_343, true)],
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
                    Vec::new(),
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
                    vec![(5, true)],
                ),
            ),
        ],
    }
}

/// Digests of [`golden_pipeline_snapshot`] through `encode_pipeline`
/// and of its sensors through `encode_shard`, recorded by running this
/// test at commit 584aad4 — the last one whose encoders built a
/// `String` per line and per float. `report_pin.rs` pins a large real
/// snapshot; this one pins the branches a healthy run does not take.
const GOLDEN_DIGESTS: (u64, u64) = (12_200_159_013_245_710_496, 13_871_323_684_382_502_547);

#[test]
fn golden_snapshot_encodes_to_the_recorded_bytes() {
    let snap = golden_pipeline_snapshot();
    let pipeline = encode_pipeline(&snap);
    let shard = encode_shard(&snap.sensors);
    assert!(
        pipeline.ends_with(&shard),
        "the shard section closes the pipeline text"
    );
    for marker in [
        "\nhistory 3:2:2 4:3:2 1343:0:11\n",
        "\nbootstrap 2\nbp 3ff0000000000000 4000000000000000\n",
        "\nslot 0 7ff8000000000000 7ff0000000000000\n",
        "\nmo 3feccccccccccccd - 0,0\n",
        "\nwsensor 65535 1 fff0000000000000\nsensors\n",
        "\nfilter kofn 6 10 1011\n",
        "\nfilter kofn 2 4 -\n",
        "\ntracks 12:40 1300:-\nraw 11:1 12:1 13:0 1343:1\nalarmed 1\nend\n",
        "\ntrack 0\ntracks -\nraw -\nalarmed 0\nend\n",
        " 8000000000000000 7 1\n",
    ] {
        assert!(pipeline.contains(marker), "golden snapshot lost {marker:?}");
    }
    assert_eq!(
        decode_pipeline(&pipeline).map(|s| encode_pipeline(&s)),
        Ok(pipeline.clone())
    );
    assert_eq!(
        decode_shard(&shard).map(|s| encode_shard(&s)),
        Ok(shard.clone())
    );
    assert_eq!(
        (fnv(pipeline.as_bytes()), fnv(shard.as_bytes())),
        GOLDEN_DIGESTS,
        "checkpoint encoding drifted from commit 584aad4"
    );
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

fn is_malformed(e: &CheckpointError) -> bool {
    matches!(e, CheckpointError::Malformed { .. })
}

fn shard_total_and_exact(input: &[u8]) -> Result<(), String> {
    check_total_and_exact(input, decode_shard, |s| encode_shard(s), is_malformed)
}

fn pipeline_total_and_exact(input: &[u8]) -> Result<(), String> {
    check_total_and_exact(input, decode_pipeline, encode_pipeline, is_malformed)
}

/// Decoder totality for the shard and pipeline codecs (ROADMAP 4c):
/// torn, bit-flipped, count-inflated and arbitrary input is rejected
/// with a typed `Malformed` or decodes to exactly what it says.
#[test]
fn damaged_checkpoint_text_is_rejected_or_reencodes_exactly() {
    let snap = golden_pipeline_snapshot();
    let (shard, pipeline) = (encode_shard(&snap.sensors), encode_pipeline(&snap));
    let replay = Replay {
        var: "TEXT_TOTALITY_SEED",
        package: "sentinet-core",
        target: "--test properties",
        test: "damaged_checkpoint_text_is_rejected_or_reencodes_exactly",
    };
    replay.for_each_seed(4_000, |seed| {
        let mut rng = TestRng::new(seed);
        let (what, damaged) = mutate(&mut rng, &shard);
        shard_total_and_exact(&damaged).map_err(|why| format!("shard {what}: {why}"))?;
        let (what, damaged) = mutate(&mut rng, &pipeline);
        pipeline_total_and_exact(&damaged).map_err(|why| format!("pipeline {what}: {why}"))
    });
}

/// Every single-bit flip of the golden texts, exhaustively: the seeded
/// property above samples this space, and a codec that reads `raw 5:3`
/// as "not raised", `07` as 7 or `3FF0…` as 1.0 survives a sample.
#[test]
fn every_single_bit_flip_is_rejected_or_reencodes_exactly() {
    let snap = golden_pipeline_snapshot();
    type Check = fn(&[u8]) -> Result<(), String>;
    for (name, text, total_and_exact) in [
        (
            "shard",
            encode_shard(&snap.sensors),
            shard_total_and_exact as Check,
        ),
        ("pipeline", encode_pipeline(&snap), pipeline_total_and_exact),
    ] {
        for at in 0..text.len() {
            for bit in 0..8 {
                let mut damaged = text.clone().into_bytes();
                damaged[at] ^= 1 << bit;
                if let Err(why) = total_and_exact(&damaged) {
                    let line = text[..at].matches('\n').count() + 1;
                    panic!("{name}: bit {bit} of byte {at} (line {line}) flipped: {why}");
                }
            }
        }
    }
}
