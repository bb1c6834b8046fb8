//! Property-based tests for the clustering substrate.

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use rand::rngs::StdRng;
use rand::SeedableRng;
use seeded::TestRng;
use sentinet_cluster::{kmeans, ClusterConfig, ModelStates, StateEvent, UpdateScratch};

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
