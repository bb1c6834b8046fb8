//! Property-based tests for the HMM substrate's core invariants.

#![allow(clippy::needless_range_loop)]

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use seeded::{Replay, TestRng};
use sentinet_hmm::structure::{OrthoTolerance, OrthogonalityReport};
use sentinet_hmm::{
    baum_welch, BaumWelchConfig, Hmm, MarkovChain, OnlineHmmEstimator, StochasticMatrix,
};

/// A random probability distribution of length `n`.
fn distribution(rng: &mut TestRng, n: usize) -> Vec<f64> {
    let mut v = rng.vec(n, |r| r.range(0.01..1.0));
    let s: f64 = v.iter().sum();
    v.iter_mut().for_each(|x| *x /= s);
    v
}

/// A random `rows × cols` stochastic matrix.
fn stochastic(rng: &mut TestRng, rows: usize, cols: usize) -> StochasticMatrix {
    StochasticMatrix::from_rows(rng.vec(rows, |r| distribution(r, cols)))
        .expect("rows are normalized")
}

/// A random HMM with `m` states and `n` symbols.
fn hmm(rng: &mut TestRng, m: usize, n: usize) -> Hmm {
    let (a, b) = (stochastic(rng, m, m), stochastic(rng, m, n));
    Hmm::new(a, b, distribution(rng, m)).expect("dimensions agree")
}

seeded::properties! {
    var: "HMM_PROPS_SEED", package: "sentinet-hmm", target: "--test properties", cases: 48;

    fn reinforce_preserves_stochasticity(rng) {
        let mut m = stochastic(rng, 4, 5);
        for _ in 0..rng.range(1usize..200) {
            let (i, k, eta) = (rng.range(0usize..4), rng.range(0usize..5), rng.range(0.01..0.99));
            m.reinforce(i, k, eta).unwrap();
        }
        assert!(m.check(1e-7).is_ok());
    }

    fn viterbi_bounded_by_total_likelihood(rng) {
        let h = hmm(rng, 3, 3);
        let obs = rng.vec(1..40, |r| r.range(0usize..3));
        let vit = h.viterbi(&obs).unwrap();
        let ll = h.log_likelihood(&obs).unwrap();
        assert!(vit.log_prob <= ll + 1e-9, "viterbi {} > total {}", vit.log_prob, ll);
        assert_eq!(vit.states.len(), obs.len());
        assert!(vit.states.iter().all(|&s| s < 3));
    }

    fn forward_likelihood_matches_posterior_renormalization(rng) {
        let h = hmm(rng, 2, 3);
        let obs = rng.vec(2..30, |r| r.range(0usize..3));
        // Forward and backward likelihoods must agree:
        // Σ_i π_i b_i(o_0) β̂_0(i) == 1 under Rabiner scaling.
        let fwd = h.forward(&obs).unwrap();
        let beta = h.backward(&obs, &fwd.scale).unwrap();
        let mut s = 0.0;
        for i in 0..h.num_states() {
            s += h.initial()[i] * h.observation()[(i, obs[0])] * beta[0][i];
        }
        assert!((s - 1.0).abs() < 1e-8, "backward identity {s}");
    }

    fn baum_welch_never_decreases_likelihood(rng) {
        let h = hmm(rng, 2, 2);
        let obs = rng.vec(10..50, |r| r.range(0usize..2));
        let cfg = BaumWelchConfig { max_iters: 5, tol: 0.0, smoothing: 1e-9 };
        let trained = baum_welch(&h, &[obs], &cfg).unwrap();
        for w in trained.log_likelihoods.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "EM decreased: {} -> {}", w[0], w[1]);
        }
    }

    fn online_hmm_stays_stochastic(rng) {
        let pairs = rng.vec(1..300, |r| (r.range(0usize..4), r.range(0usize..5)));
        let (beta, gamma) = (rng.range(0.05..0.95), rng.range(0.05..0.95));
        let mut est = OnlineHmmEstimator::new(4, 5, beta, gamma).unwrap();
        for (s, y) in pairs {
            est.observe(s, y).unwrap();
        }
        assert!(est.transition().expect("a chain").check(1e-6).is_ok());
        assert!(est.observation().check(1e-6).is_ok());
        let occ: f64 = est.occupancy().iter().sum();
        assert!((occ - 1.0).abs() < 1e-9);
    }

    fn online_markov_snapshot_is_valid(rng) {
        let states = rng.vec(1..200, |r| r.range(0usize..3));
        let mut est = OnlineHmmEstimator::new(3, 3, rng.range(0.05..0.95), 0.5).unwrap();
        for s in states {
            est.observe(s, s).unwrap();
        }
        let chain = est.markov_chain().expect("a chain");
        assert!(chain.transition().check(1e-6).is_ok());
        let pi = chain.stationary(1e-10, 10_000);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    fn markov_from_sequence_occupancy_matches_counts(rng) {
        let seq = rng.vec(1..100, |r| r.range(0usize..4));
        let mc = MarkovChain::from_sequences(4, std::slice::from_ref(&seq)).unwrap();
        for s in 0..4 {
            let expect = seq.iter().filter(|&&x| x == s).count() as f64 / seq.len() as f64;
            assert!((mc.occupancy()[s] - expect).abs() < 1e-12);
        }
    }

    fn drop_columns_preserves_stochasticity(rng) {
        let b = stochastic(rng, 4, 6);
        let drop = rng.vec(1..3, |r| r.range(0usize..6));
        if let Ok(d) = b.drop_columns(&drop) {
            assert!(d.check(1e-9).is_ok());
            assert!(d.num_cols() >= 6 - drop.len());
        }
    }

    fn sampled_sequences_score_higher_under_generator(rng) {
        // A sequence drawn from a strongly structured model should
        // almost always be more likely under that model than under a
        // mirrored (label-swapped emission) model.
        use rand::{rngs::StdRng, SeedableRng};
        let a = StochasticMatrix::from_rows(vec![vec![0.95, 0.05], vec![0.05, 0.95]]).unwrap();
        let b = StochasticMatrix::from_rows(vec![vec![0.95, 0.05], vec![0.05, 0.95]]).unwrap();
        let b_mirror = StochasticMatrix::from_rows(vec![vec![0.05, 0.95], vec![0.95, 0.05]]).unwrap();
        let gen = Hmm::new(a.clone(), b, vec![0.5, 0.5]).unwrap();
        let other = Hmm::new(a, b_mirror, vec![0.5, 0.5]).unwrap();
        let mut sampler = StdRng::seed_from_u64(rng.range(0u64..5000));
        let (_, obs) = gen.sample(100, &mut sampler).unwrap();
        let l_gen = gen.log_likelihood(&obs).unwrap();
        let l_other = other.log_likelihood(&obs).unwrap();
        // Identical A and symmetric B ⇒ same marginals, so a tie is
        // possible but a deficit of this size is not.
        assert!(l_gen > l_other - 1e-9 || (l_gen - l_other).abs() < 20.0);
    }

    fn orthogonality_of_permutation_matrices(rng) {
        // Any permutation matrix is exactly orthogonal in rows and cols.
        let mut idx = [0usize, 1, 2, 3];
        // Generate the k-th permutation of 4 elements.
        let mut pool: Vec<usize> = idx.to_vec();
        let mut k = rng.range(0usize..24);
        for slot in &mut idx {
            let pick = k % pool.len();
            k /= pool.len();
            *slot = pool.remove(pick);
        }
        let rows: Vec<Vec<f64>> = idx
            .iter()
            .map(|&j| {
                let mut r = vec![0.0; 4];
                r[j] = 1.0;
                r
            })
            .collect();
        let b = StochasticMatrix::from_rows(rows).unwrap();
        let rep = OrthogonalityReport::analyze(&b, OrthoTolerance::default(), None);
        assert!(rep.is_orthogonal());
    }

    fn online_em_stays_stochastic_under_arbitrary_streams(rng) {
        use rand::{rngs::StdRng, SeedableRng};
        use sentinet_hmm::OnlineEmEstimator;
        let obs = rng.vec(1..300, |r| r.range(0usize..4));
        let eta = rng.range(0.001..0.5);
        let init = Hmm::random(3, 4, &mut StdRng::seed_from_u64(rng.range(0u64..100))).unwrap();
        let mut em = OnlineEmEstimator::new(init, eta).unwrap();
        for &y in &obs {
            em.observe(y).unwrap();
        }
        assert!(em.transition().check(1e-6).is_ok());
        assert!(em.observation().check(1e-6).is_ok());
        let fs: f64 = em.filter().iter().sum();
        assert!((fs - 1.0).abs() < 1e-7, "filter sum {fs}");
        // Predictive distribution over symbols is a distribution.
        let total: f64 = (0..4).map(|k| em.predictive_prob(k).unwrap()).sum();
        assert!((total - 1.0).abs() < 1e-7, "predictive sum {total}");
    }

    fn aligned_b_distance_is_a_pseudometric(rng) {
        use sentinet_hmm::structure::aligned_b_distance;
        let (a, b) = (stochastic(rng, 3, 3), stochastic(rng, 3, 3));
        let dab = aligned_b_distance(&a, &b);
        let dba = aligned_b_distance(&b, &a);
        assert!((dab - dba).abs() < 1e-9, "symmetry {dab} vs {dba}");
        assert!(dab >= 0.0);
        assert!(aligned_b_distance(&a, &a) < 1e-12);
    }
}
/// `est` after `import_state(export_state())`: the same estimator in
/// storage laid out from scratch for its current shape.
fn rebuilt(est: &OnlineHmmEstimator) -> Result<OnlineHmmEstimator, String> {
    OnlineHmmEstimator::import_state(est.export_state()).map_err(|e| format!("import: {e}"))
}

/// Nothing observable depends on how a matrix came by its shape: an
/// estimator that lives through a seeded interleaving of `grow` and
/// `observe` and a twin rebuilt from its exported state after every
/// step — so never holding a grown matrix's spare columns or rows —
/// stay `==` and export the same state throughout.
#[test]
fn grown_and_restored_estimators_stay_equal() {
    let replay = Replay {
        var: "MATRIX_LAYOUT_SEED",
        package: "sentinet-hmm",
        target: "--test properties",
        test: "grown_and_restored_estimators_stay_equal",
    };
    replay.for_each_seed(400, |seed| {
        let mut rng = TestRng::new(seed);
        let states = rng.usize_in(1, 10);
        let symbols = states + rng.usize_in(0, 3);
        let mut live =
            OnlineHmmEstimator::new(states, symbols, 0.9, 0.7).map_err(|e| e.to_string())?;
        let mut twin = rebuilt(&live)?;
        for step in 0..rng.usize_in(1, 80) {
            if rng.usize_in(0, 3) == 0 {
                let to = (
                    live.num_states() + rng.usize_in(0, 4),
                    live.num_symbols() + rng.usize_in(0, 4),
                );
                live.grow(to.0, to.1);
                twin.grow(to.0, to.1);
            } else {
                let (state, symbol) = (
                    rng.usize_in(0, live.num_states()),
                    rng.usize_in(0, live.num_symbols()),
                );
                live.observe(state, symbol).map_err(|e| e.to_string())?;
                twin.observe(state, symbol).map_err(|e| e.to_string())?;
            }
            // The twin took the step in storage rebuilt after the last
            // one, and is rebuilt again before it is compared.
            twin = rebuilt(&twin)?;
            if live != twin {
                return Err(format!("step {step}: the twins differ"));
            }
            if live.export_state() != twin.export_state() {
                return Err(format!("step {step}: the twins export different states"));
            }
        }
        Ok(())
    });
}

/// `k` spawns taken one at a time leave what one grow by `k` leaves,
/// except the generation, which counts the grows.
#[test]
fn single_slot_grows_equal_one_grow_by_k() {
    let replay = Replay {
        var: "MATRIX_GROW_SEED",
        package: "sentinet-hmm",
        target: "--test properties",
        test: "single_slot_grows_equal_one_grow_by_k",
    };
    replay.for_each_seed(200, |seed| {
        let mut rng = TestRng::new(seed);
        let slots = rng.usize_in(1, 14);
        let k = rng.usize_in(1, 24);
        // The shape of an `M_CE`: one symbol more than states.
        let pristine =
            OnlineHmmEstimator::new(slots, slots + 1, 0.9, 0.9).map_err(|e| e.to_string())?;
        let (mut stepwise, mut at_once) = (pristine.clone(), pristine);
        for grown in 1..=k {
            stepwise.grow(slots + grown, slots + grown + 1);
        }
        at_once.grow(slots + k, slots + k + 1);
        if (stepwise.generation(), at_once.generation()) != (k as u64, 1) {
            return Err(format!(
                "generations {} and {} after {k} grows and one",
                stepwise.generation(),
                at_once.generation()
            ));
        }
        let mut state = stepwise.export_state();
        state.generation = at_once.generation();
        if state != at_once.export_state() {
            return Err(format!(
                "{k} grows from {slots} slots differ from one grow by {k}"
            ));
        }
        Ok(())
    });
}
