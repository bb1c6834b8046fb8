//! Property-based tests for the baseline detectors.

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_baselines::{HmmDetector, MarkovDetector};
use sentinet_hmm::{Hmm, StochasticMatrix};

fn cyclic(period: usize, len: usize, states: usize) -> Vec<usize> {
    (0..len).map(|t| (t / period) % states).collect()
}

/// A persistent two-state source, four 100-symbol windows of it, and a
/// detector trained on them.
fn trained_on_benign(rng: &mut StdRng) -> (Hmm, Vec<Vec<usize>>, HmmDetector) {
    let a = StochasticMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.1, 0.9]]).unwrap();
    let b = StochasticMatrix::from_rows(vec![vec![0.95, 0.05], vec![0.05, 0.95]]).unwrap();
    let src = Hmm::new(a, b, vec![0.5, 0.5]).unwrap();
    let train: Vec<Vec<usize>> = (0..4).map(|_| src.sample(100, rng).unwrap().1).collect();
    let mut det = HmmDetector::new(2, 2);
    det.train(&train, rng).unwrap();
    (src, train, det)
}

seeded::properties! {
    var: "BASELINE_PROPS_SEED", package: "sentinet-baselines", target: "--test properties",
    cases: 24;

    fn markov_miss_rate_is_a_probability(rng) {
        let window = rng.vec(2..60, |r| r.range(0usize..3));
        let det = MarkovDetector::train(3, &[cyclic(2, 120, 3)], 0.01, 0.3).unwrap();
        let r = det.miss_rate(&window).unwrap();
        assert!((0.0..=1.0).contains(&r));
    }

    fn markov_training_windows_never_flagged(rng) {
        let period = rng.range(1usize..5);
        let states = rng.range(2usize..4);
        let train = cyclic(period, 200, states);
        let det = MarkovDetector::train(states, std::slice::from_ref(&train), 0.01, 0.3).unwrap();
        // Any slice of the training sequence passes.
        for start in [0usize, 7, 23] {
            let w = &train[start..start + 40];
            assert!(!det.is_anomalous(w).unwrap(), "start {start}");
        }
    }

    fn hmm_detector_scores_decrease_with_corruption(rng) {
        let corrupt_every = rng.range(2usize..6);
        let seed = rng.range(0u64..50);
        // Progressively corrupting a benign window cannot *increase*
        // its likelihood under the trained model (statistically; we
        // compare clean vs heavily corrupted).
        let mut rng = StdRng::seed_from_u64(seed);
        let (src, _, det) = trained_on_benign(&mut rng);
        let clean = src.sample(80, &mut rng).unwrap().1;
        let mut corrupted = clean.clone();
        for i in (0..corrupted.len()).step_by(corrupt_every) {
            corrupted[i] = 1 - corrupted[i];
        }
        let s_clean = det.score(&clean).unwrap();
        let s_corrupt = det.score(&corrupted).unwrap();
        assert!(
            s_corrupt <= s_clean + 0.05,
            "corruption raised the score: {s_clean} -> {s_corrupt}"
        );
    }

    /// Baum–Welch run to convergence from the best of three starts
    /// finds a model at least as likely as the one that generated the
    /// data, not a plateau short of it.
    fn training_explains_its_data_as_well_as_the_generator(rng) {
        let (src, train, det) = trained_on_benign(&mut StdRng::seed_from_u64(rng.next_u64()));
        let ll = |m: &Hmm| -> f64 { train.iter().map(|s| m.log_likelihood(s).unwrap()).sum() };
        let (trained, truth) = (ll(det.model().unwrap()), ll(&src));
        assert!(trained >= truth, "trained {trained} < generator {truth}");
    }

    fn hmm_detector_threshold_moves_with_z(rng) {
        let z1 = rng.range(0.5..2.0);
        let extra = rng.range(0.5..3.0);
        let mut rng = StdRng::seed_from_u64(11);
        let train: Vec<Vec<usize>> = (0..4).map(|_| cyclic(3, 90, 2)).collect();
        let mut det = HmmDetector::new(2, 2);
        det.train(&train, &mut rng).unwrap();
        det.calibrate(&train, z1).unwrap();
        let t1 = det.threshold().unwrap();
        det.calibrate(&train, z1 + extra).unwrap();
        let t2 = det.threshold().unwrap();
        assert!(t2 < t1, "larger z must lower the threshold: {t1} vs {t2}");
    }
}
