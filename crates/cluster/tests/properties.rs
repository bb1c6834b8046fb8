//! Property-based tests for the clustering substrate.

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use rand::rngs::StdRng;
use rand::SeedableRng;
use seeded::{Replay, TestRng};
use sentinet_cluster::{
    kmeans, ClusterConfig, ModelStates, StateEvent, StatesSnapshot, UpdateScratch,
};

fn cfg() -> ClusterConfig {
    ClusterConfig {
        alpha: 0.2,
        merge_threshold: 1.0,
        spawn_threshold: 10.0,
        max_states: 12,
    }
}

/// The state set as it was before the flat kernels, kept as the
/// oracle the differential tests below compare against bit for bit:
/// `nearest` materialises the active slots and takes `min_by`, and
/// `update` labels the points itself, rescans them once per active
/// state for Eq. 6 and snapshots the active set for the merge pass.
struct Oracle {
    centroids: Vec<Vec<f64>>,
    active: Vec<bool>,
    config: ClusterConfig,
    generation: u64,
}

impl Oracle {
    fn new(initial: Vec<Vec<f64>>, config: ClusterConfig) -> Self {
        let active = vec![true; initial.len()];
        Self {
            centroids: initial,
            active,
            config,
            generation: 0,
        }
    }

    fn active_states(&self) -> Vec<usize> {
        (0..self.centroids.len())
            .filter(|&i| self.active[i])
            .collect()
    }

    fn dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    fn nearest(&self, point: &[f64]) -> Option<(usize, f64)> {
        self.active_states()
            .into_iter()
            .map(|i| (i, Self::dist(&self.centroids[i], point)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    fn update(&mut self, points: &[Vec<f64>]) -> Vec<StateEvent> {
        let mut events = Vec::new();
        if points.is_empty() {
            return events;
        }
        self.generation += 1;
        let dims = self.centroids[0].len();
        let assignments: Vec<usize> = points.iter().map(|p| self.nearest(p).unwrap().0).collect();
        for k in self.active_states() {
            let members: Vec<&Vec<f64>> = points
                .iter()
                .zip(&assignments)
                .filter(|&(_, &a)| a == k)
                .map(|(p, _)| p)
                .collect();
            if members.is_empty() {
                continue;
            }
            let inv = 1.0 / members.len() as f64;
            for d in 0..dims {
                let mean: f64 = members.iter().map(|p| p[d]).sum::<f64>() * inv;
                self.centroids[k][d] =
                    (1.0 - self.config.alpha) * self.centroids[k][d] + self.config.alpha * mean;
            }
        }
        let act = self.active_states();
        for (ai, &i) in act.iter().enumerate() {
            if !self.active[i] {
                continue;
            }
            for &j in act.iter().skip(ai + 1) {
                if !self.active[j] {
                    continue;
                }
                if Self::dist(&self.centroids[i], &self.centroids[j]) < self.config.merge_threshold
                {
                    for d in 0..dims {
                        self.centroids[i][d] = (self.centroids[i][d] + self.centroids[j][d]) / 2.0;
                    }
                    self.active[j] = false;
                    events.push(StateEvent::Merged { from: j, into: i });
                }
            }
        }
        for p in points {
            let (_, d) = self.nearest(p).unwrap();
            if d > self.config.spawn_threshold
                && self.active_states().len() < self.config.max_states
            {
                self.centroids.push(p.clone());
                self.active.push(true);
                events.push(StateEvent::Spawned(self.centroids.len() - 1));
            }
        }
        events
    }

    /// Asserts `states` is this oracle, every float bit for bit.
    fn assert_same(&self, states: &ModelStates) {
        let snap = states.snapshot();
        assert_eq!(&snap.active, &self.active);
        assert_eq!(snap.generation, self.generation);
        assert_eq!(states.active_count(), self.active_states().len());
        let bits = |cs: &[Vec<f64>]| -> Vec<Vec<u64>> {
            cs.iter()
                .map(|c| c.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&snap.centroids), bits(&self.centroids));
    }
}

/// A coarse grid with repeats, a signed zero and mirror-image values,
/// so exact distance ties between two states and `-0.0` sums occur.
fn grid(rng: &mut TestRng, dim: usize, max_len: usize) -> Vec<Vec<f64>> {
    const CELLS: [f64; 13] = [
        -0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 2.5, 7.0, -7.0, 40.0, -40.0,
    ];
    rng.vec(1..max_len, |r| r.vec(dim, |r| r.pick(&CELLS)))
}

fn tight() -> ClusterConfig {
    ClusterConfig {
        alpha: 0.3,
        merge_threshold: 0.75,
        spawn_threshold: 5.0,
        max_states: 4,
    }
}

fn points(rng: &mut TestRng, dim: usize, max_len: usize) -> Vec<Vec<f64>> {
    rng.vec(1..max_len, |r| r.vec(dim, |r| r.range(-50.0..50.0)))
}

seeded::properties! {
    var: "CLUSTER_PROPS_SEED", package: "sentinet-cluster", target: "--test properties", cases: 48;

    fn assignments_are_nearest_active_state(rng) {
        let pts = points(rng, 2, 20);
        let s = ModelStates::new(vec![vec![0.0, 0.0], vec![20.0, 20.0]], cfg());
        let labels = s.assign(&pts);
        for (p, &l) in pts.iter().zip(&labels) {
            let (nearest, d) = s.nearest(p).unwrap();
            assert_eq!(l, nearest);
            // No active state is strictly closer.
            for a in s.active_states() {
                let c = s.centroid(a).unwrap();
                let da: f64 = p.iter().zip(c).map(|(x, y)| (x - y).powi(2)).sum::<f64>().sqrt();
                assert!(da >= d - 1e-12);
            }
        }
    }

    fn update_never_loses_all_states(rng) {
        let mut s = ModelStates::new(vec![vec![0.0, 0.0]], cfg());
        for pts in rng.vec(1..10, |r| points(r, 2, 8)) {
            s.update(&pts);
            assert!(!s.active_states().is_empty());
            assert!(s.active_states().len() <= 12);
        }
    }

    fn events_are_consistent_with_state_set(rng) {
        let pts = points(rng, 2, 20);
        let mut s = ModelStates::new(vec![vec![0.0, 0.0], vec![30.0, 30.0]], cfg());
        let before = s.num_slots();
        let events = s.update(&pts);
        for e in &events {
            match e {
                StateEvent::Spawned(i) => {
                    assert!(*i >= before || s.centroid(*i).is_some());
                    assert!(s.centroid(*i).is_some(), "spawned slot must be active");
                }
                StateEvent::Merged { from, into } => {
                    assert!(s.centroid(*from).is_none(), "merged-from slot inactive");
                    assert!(s.centroid(*into).is_some(), "merge survivor active");
                }
            }
        }
    }

    fn centroids_stay_in_data_hull_after_updates(rng) {
        let pts = rng.vec(2..30, |r| vec![r.range(-10.0..10.0)]);
        // Feeding data confined to [-10, 10] can never push a centroid
        // outside the convex hull of {initial centroid} ∪ data.
        let mut s = ModelStates::new(vec![vec![0.0]], ClusterConfig {
            alpha: 0.5,
            merge_threshold: 0.5,
            spawn_threshold: 30.0,
            max_states: 4,
        });
        for _ in 0..5 {
            s.update(&pts);
        }
        for a in s.active_states() {
            let c = s.centroid(a).unwrap()[0];
            assert!((-10.0..=10.0).contains(&c), "centroid {c}");
        }
    }

    fn spawn_if_uncovered_respects_threshold(rng) {
        let x = rng.range(-100.0..100.0);
        let mut s = ModelStates::new(vec![vec![0.0]], cfg());
        let spawned = s.spawn_if_uncovered(&[x]);
        if x.abs() > 10.0 {
            assert!(spawned.is_some());
            assert_eq!(s.centroid(spawned.unwrap()).unwrap(), &[x]);
        } else {
            assert!(spawned.is_none());
        }
    }

    fn nearest_matches_the_collecting_oracle_on_ties(rng) {
        let (init, probes) = (grid(rng, 2, 5), grid(rng, 2, 30));
        let s = ModelStates::new(init.clone(), ClusterConfig { max_states: 8, ..tight() });
        let oracle = Oracle::new(init, tight());
        for p in &probes {
            let (got, want) = (s.nearest(p).unwrap(), oracle.nearest(p).unwrap());
            assert_eq!(got.0, want.0, "tie broke differently at {p:?}");
            assert_eq!(got.1.to_bits(), want.1.to_bits());
        }
    }

    /// Both entry points — `update`, which labels for itself, and
    /// `update_labeled` fed the Eq. 3 labels — against the member-scan
    /// oracle over several rounds: events, centroid bits, active flags
    /// and generation. The tight config makes merges, spawns and capped
    /// spawns share rounds.
    fn single_pass_update_matches_the_member_scan_oracle(rng) {
        let dim = rng.range(1usize..3);
        let seed_rounds = rng.vec(1..8, |r| grid(r, 2, 12));
        let cut = |ps: &[Vec<f64>]| -> Vec<Vec<f64>> {
            ps.iter().map(|p| p[..dim].to_vec()).collect()
        };
        let init = cut(&seed_rounds[0][..seed_rounds[0].len().min(4)]);
        let mut oracle = Oracle::new(init.clone(), tight());
        let mut wrapped = ModelStates::new(init.clone(), tight());
        let mut labeled = ModelStates::new(init, tight());
        let mut scratch = UpdateScratch::default();
        for round in &seed_rounds {
            let pts = cut(round);
            let want = oracle.update(&pts);
            assert_eq!(&wrapped.update(&pts), &want);
            oracle.assert_same(&wrapped);

            let labels: Vec<usize> = pts.iter().map(|p| labeled.nearest(p).unwrap().0).collect();
            let flat: Vec<f64> = pts.iter().flatten().copied().collect();
            assert_eq!(&labeled.update_labeled(&flat, &labels, &mut scratch), &want);
            oracle.assert_same(&labeled);
        }
    }

    fn kmeans_assignments_minimize_distance(rng) {
        let pts = rng.vec(4..40, |r| r.vec(2, |r| r.range(-20.0..20.0)));
        let k = rng.range(1usize..4);
        let seed = rng.range(0u64..100);
        if k > pts.len() {
            return Ok(());
        }
        let res = kmeans(&pts, k, 50, &mut StdRng::seed_from_u64(seed));
        assert_eq!(res.assignments.len(), pts.len());
        assert_eq!(res.centroids.len(), k);
        for (p, &a) in pts.iter().zip(&res.assignments) {
            let da: f64 = p.iter().zip(&res.centroids[a]).map(|(x, y)| (x - y).powi(2)).sum();
            for c in &res.centroids {
                let dc: f64 = p.iter().zip(c).map(|(x, y)| (x - y).powi(2)).sum();
                assert!(da <= dc + 1e-9, "assignment not nearest");
            }
        }
    }

    fn kmeans_inertia_nonincreasing_in_k(rng) {
        let pts = rng.vec(8..30, |r| r.vec(2, |r| r.range(-20.0..20.0)));
        let seed = rng.range(0u64..50);
        // More clusters cannot fit worse than best-of-restarts fewer
        // clusters (statistically; we use the best of 3 restarts each).
        let best = |k: usize| -> f64 {
            (0..3)
                .map(|r| {
                    kmeans(&pts, k, 100, &mut StdRng::seed_from_u64(seed * 17 + r))
                        .inertia
                })
                .fold(f64::INFINITY, f64::min)
        };
        let i1 = best(1);
        let i4 = best(4);
        assert!(i4 <= i1 + 1e-6, "inertia grew with k: {i1} -> {i4}");
    }
}

/// One round that does everything at once: `0.25` is an exact tie
/// between slots 0 and 1, the two are within merge range, the merge
/// frees a slot under the cap, the first far point takes it and the
/// second is refused.
#[test]
fn merge_and_capped_spawn_in_one_round_match_the_oracle() {
    let config = ClusterConfig {
        alpha: 0.01,
        merge_threshold: 1.0,
        spawn_threshold: 5.0,
        max_states: 3,
    };
    let init = vec![vec![0.0], vec![0.5], vec![20.0]];
    let pts = vec![vec![0.25], vec![100.0], vec![-100.0], vec![-0.0]];
    let mut oracle = Oracle::new(init.clone(), config.clone());
    let mut states = ModelStates::new(init, config);
    let labels: Vec<usize> = pts.iter().map(|p| states.nearest(p).unwrap().0).collect();
    let flat: Vec<f64> = pts.iter().flatten().copied().collect();
    let events = states.update_labeled(&flat, &labels, &mut UpdateScratch::default());
    assert_eq!(events, oracle.update(&pts));
    assert_eq!(
        events,
        vec![
            StateEvent::Merged { from: 1, into: 0 },
            StateEvent::Spawned(3)
        ]
    );
    oracle.assert_same(&states);
}

#[test]
#[should_panic(expected = "names no active state")]
fn update_labeled_rejects_a_merged_away_label() {
    let mut states = ModelStates::new(
        vec![vec![0.0], vec![0.5]],
        ClusterConfig {
            alpha: 0.5,
            merge_threshold: 1.0,
            spawn_threshold: 5.0,
            max_states: 3,
        },
    );
    states.update(&[vec![0.25]]); // merges slot 1 into slot 0
    states.update_labeled(&[0.3], &[1], &mut UpdateScratch::default());
}

/// `x` moved by `steps` ulps (toward +∞ for positive `steps`).
fn nudge(mut x: f64, steps: i32) -> f64 {
    let step = if steps > 0 {
        f64::next_up
    } else {
        f64::next_down
    };
    for _ in 0..steps.unsigned_abs() {
        x = step(x);
    }
    x
}

/// `a + b` as the rounded sum and its exact error (Knuth's TwoSum).
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    (s, (a - (s - bb)) + (b - bb))
}

/// Whether `q` is provably within `radius` of `p`: each coordinate's
/// difference is taken exactly (TwoSum), and the norm over several
/// coordinates is bounded above with room for its own rounding. Exact
/// along one axis, so the sphere's axis points count as inside.
fn provably_within(p: &[f64], q: &[f64], radius: f64) -> bool {
    let diffs: Vec<(f64, f64)> = p.iter().zip(q).map(|(&a, &b)| two_sum(b, -a)).collect();
    if diffs.iter().any(|(s, e)| !s.is_finite() || !e.is_finite()) {
        return false;
    }
    let moved: Vec<&(f64, f64)> = diffs.iter().filter(|(s, _)| *s != 0.0).collect();
    match moved.as_slice() {
        [] => true,
        // |s + e| ≤ r exactly: |s| < r, or |s| = r with e not adding.
        [(s, e)] => {
            s.abs() < radius || (s.abs() == radius && (*e == 0.0 || e.signum() != s.signum()))
        }
        _ => {
            let norm2: f64 = moved.iter().map(|(s, e)| (s.abs() + e.abs()).powi(2)).sum();
            norm2 * (1.0 + 8.0 * moved.len() as f64 * f64::EPSILON) <= radius * radius
        }
    }
}

/// The points of `radius`'s sphere around `p` along each axis, the
/// farthest floats within it, and interior points in random directions.
fn ball_samples(rng: &mut TestRng, p: &[f64], radius: f64) -> Vec<Vec<f64>> {
    let mut samples = vec![p.to_vec()];
    for k in 0..p.len() {
        for sign in [1.0, -1.0] {
            let mut q = p.to_vec();
            q[k] = p[k] + sign * radius;
            for _ in 0..4 {
                if provably_within(p, &q, radius) {
                    break;
                }
                q[k] = nudge(q[k], -sign as i32);
            }
            samples.push(q);
        }
    }
    for _ in 0..8 {
        let dir: Vec<f64> = (0..p.len()).map(|_| rng.range(-1.0..1.0)).collect();
        let len = dir.iter().map(|x| x * x).sum::<f64>().sqrt();
        let scale = radius * rng.pick(&[1.0, 0.999_999, 0.5]) / len;
        samples.push(p.iter().zip(&dir).map(|(x, d)| x + d * scale).collect());
    }
    samples.retain(|q| provably_within(p, q, radius));
    samples
}

/// A state set for the certificate: two to five centroids, some slots
/// merged away, the spawn threshold anywhere from tight to loose, and
/// the cap either at the active count (nothing may spawn) or above it.
fn certificate_states(rng: &mut TestRng, dims: usize) -> ModelStates {
    let slots = rng.usize_in(2, 6);
    let centroids: Vec<Vec<f64>> = (0..slots)
        .map(|_| (0..dims).map(|_| rng.range(-30.0..30.0)).collect())
        .collect();
    let mut active: Vec<bool> = (0..slots).map(|_| rng.usize_in(0, 4) > 0).collect();
    active[rng.usize_in(0, slots)] = true;
    let live = active.iter().filter(|&&a| a).count();
    let snapshot = StatesSnapshot {
        centroids,
        active,
        config: ClusterConfig {
            alpha: 0.2,
            merge_threshold: 0.5,
            spawn_threshold: rng.pick(&[1.0, 8.0, 25.0]),
            max_states: if rng.bool() { live } else { live + 2 },
        },
        generation: 0,
    };
    ModelStates::from_snapshot(snapshot).expect("valid snapshot")
}

/// A query point where certification is hard: on the bisector of two
/// active states or on the spawn sphere of one, a few ulps either
/// side, or a plain draw — and now and then a signed zero, a value
/// whose squared distance overflows, or NaN in one coordinate.
fn certificate_query(rng: &mut TestRng, states: &ModelStates) -> Vec<f64> {
    let live = states.active_states();
    let dims = states.dims();
    let centroid = |i: usize| states.centroid(live[i % live.len()]).unwrap().to_vec();
    let (a, b) = (centroid(rng.usize_in(0, 8)), centroid(rng.usize_in(0, 8)));
    let mut p: Vec<f64> = match rng.usize_in(0, 3) {
        0 => {
            // The midpoint plus a step along the bisector (2-D and up).
            let mut p: Vec<f64> = a.iter().zip(&b).map(|(x, y)| (x + y) / 2.0).collect();
            if dims > 1 {
                let t = rng.range(-10.0..10.0);
                p[0] += t * (b[1] - a[1]);
                p[1] -= t * (b[0] - a[0]);
            }
            p
        }
        1 => {
            let dir: Vec<f64> = (0..dims).map(|_| rng.range(-1.0..1.0)).collect();
            let len = dir.iter().map(|x| x * x).sum::<f64>().sqrt();
            let reach = states.snapshot().config.spawn_threshold / len;
            a.iter().zip(&dir).map(|(x, d)| x + d * reach).collect()
        }
        _ => (0..dims).map(|_| rng.range(-40.0..40.0)).collect(),
    };
    for x in &mut p {
        *x = nudge(*x, rng.usize_in(0, 7) as i32 - 3);
    }
    let k = rng.usize_in(0, dims);
    match rng.usize_in(0, 12) {
        0 => p[k] = 0.0,
        1 => p[k] = -0.0,
        2 => p[k] = 1e200,
        3 => p[k] = f64::NAN,
        _ => {}
    }
    p
}

/// Whatever `settled` certifies holds at every point of the ball it was
/// asked about, the sphere included: `nearest` names the certified
/// slot and `spawn_if_uncovered` spawns nothing. Radii run from zero
/// through the gap to the next boundary (where the certificate is
/// tightest) to huge, NaN and negative; a NaN anywhere must not be
/// certified. Some queries must be certified, or the property is
/// vacuous.
#[test]
fn a_settled_slot_holds_across_its_ball() {
    let replay = Replay {
        var: "CLUSTER_PROPS_SEED",
        package: "sentinet-cluster",
        target: "--test properties",
        test: "a_settled_slot_holds_across_its_ball",
    };
    let mut certified = 0;
    replay.for_each_seed(3_000, |seed| {
        let rng = &mut TestRng::new(seed);
        let dims = rng.usize_in(1, 4);
        let states = certificate_states(rng, dims);
        let p = certificate_query(rng, &states);
        let gap = match states.nearest(&p) {
            Some((i, d)) => {
                let others = states.active_states().into_iter().filter(|&j| j != i);
                let runner_up = others
                    .map(|j| Oracle::dist(&p, states.centroid(j).unwrap()))
                    .fold(f64::INFINITY, f64::min);
                let spawn = states.snapshot().config.spawn_threshold;
                ((runner_up - d) / 2.0).min(spawn - d)
            }
            None => 1.0,
        };
        let radius = match rng.usize_in(0, 10) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => -1.0,
            4 => 1e200,
            5 => p.iter().fold(0.0, |m: f64, x| m.max(x.abs())) * 4.0 * f64::EPSILON,
            6 => rng.range(0.0..1.0) * gap.abs(),
            _ => nudge(gap.abs(), rng.usize_in(0, 9) as i32 - 6),
        };
        let Some(slot) = states.settled(&p, radius) else {
            return Ok(());
        };
        if radius.is_nan() || p.iter().any(|x| x.is_nan()) {
            return Err(format!("NaN certified: {p:?} radius {radius}"));
        }
        certified += 1;
        for q in ball_samples(rng, &p, radius) {
            let nearest = states.nearest(&q).map(|(i, _)| i);
            let spawned = states.clone().spawn_if_uncovered(&q);
            if nearest != Some(slot) || spawned.is_some() {
                return Err(format!(
                    "{p:?} radius {radius:e} settled on {slot}, but at {q:?} \
                     nearest is {nearest:?} and spawn {spawned:?}"
                ));
            }
        }
        Ok(())
    });
    if replay.seed_from_env().is_none() {
        assert!(
            certified > 300,
            "only {certified} of 3000 queries certified"
        );
    }
}
