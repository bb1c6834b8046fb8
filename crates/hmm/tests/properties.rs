//! Property-based tests for the HMM substrate's core invariants.

#![allow(clippy::needless_range_loop)]

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use proptest::prelude::*;
use proptest::TestRng;
use seeded::Replay;
use sentinet_hmm::structure::{OrthoTolerance, OrthogonalityReport};
use sentinet_hmm::{
    baum_welch, BaumWelchConfig, Hmm, MarkovChain, OnlineHmmEstimator, OnlineMarkovEstimator,
    StochasticMatrix,
};

/// A strategy producing a random probability distribution of length `n`.
fn distribution(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..1.0, n).prop_map(|mut v| {
        let s: f64 = v.iter().sum();
        v.iter_mut().for_each(|x| *x /= s);
        v
    })
}

/// A strategy producing a random `rows × cols` stochastic matrix.
fn stochastic(rows: usize, cols: usize) -> impl Strategy<Value = StochasticMatrix> {
    prop::collection::vec(distribution(cols), rows)
        .prop_map(|rs| StochasticMatrix::from_rows(rs).expect("rows are normalized"))
}

/// A strategy producing a random HMM with `m` states and `n` symbols.
fn hmm(m: usize, n: usize) -> impl Strategy<Value = Hmm> {
    (stochastic(m, m), stochastic(m, n), distribution(m))
        .prop_map(|(a, b, pi)| Hmm::new(a, b, pi).expect("dimensions agree"))
}

proptest! {
    #[test]
    fn reinforce_preserves_stochasticity(
        m in stochastic(4, 5),
        updates in prop::collection::vec((0usize..4, 0usize..5, 0.01f64..0.99), 1..200),
    ) {
        let mut m = m;
        for (i, k, eta) in updates {
            m.reinforce(i, k, eta).unwrap();
        }
        prop_assert!(m.check(1e-7).is_ok());
    }

    #[test]
    fn posteriors_are_distributions(
        h in hmm(3, 4),
        obs in prop::collection::vec(0usize..4, 1..60),
    ) {
        let gamma = h.posteriors(&obs).unwrap();
        for row in gamma {
            let s: f64 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-8, "posterior sum {s}");
            prop_assert!(row.iter().all(|&g| (-1e-12..=1.0 + 1e-9).contains(&g)));
        }
    }

    #[test]
    fn viterbi_bounded_by_total_likelihood(
        h in hmm(3, 3),
        obs in prop::collection::vec(0usize..3, 1..40),
    ) {
        let vit = h.viterbi(&obs).unwrap();
        let ll = h.log_likelihood(&obs).unwrap();
        prop_assert!(vit.log_prob <= ll + 1e-9, "viterbi {} > total {}", vit.log_prob, ll);
        prop_assert_eq!(vit.states.len(), obs.len());
        prop_assert!(vit.states.iter().all(|&s| s < 3));
    }

    #[test]
    fn forward_likelihood_matches_posterior_renormalization(
        h in hmm(2, 3),
        obs in prop::collection::vec(0usize..3, 2..30),
    ) {
        // Forward and backward likelihoods must agree:
        // Σ_i π_i b_i(o_0) β̂_0(i) == 1 under Rabiner scaling.
        let fwd = h.forward(&obs).unwrap();
        let beta = h.backward(&obs, &fwd.scale).unwrap();
        let mut s = 0.0;
        for i in 0..h.num_states() {
            s += h.initial()[i] * h.observation()[(i, obs[0])] * beta[0][i];
        }
        prop_assert!((s - 1.0).abs() < 1e-8, "backward identity {s}");
    }

    #[test]
    fn baum_welch_never_decreases_likelihood(
        h in hmm(2, 2),
        obs in prop::collection::vec(0usize..2, 10..50),
    ) {
        let cfg = BaumWelchConfig { max_iters: 5, tol: 0.0, smoothing: 1e-9 };
        let trained = baum_welch(&h, &[obs], &cfg).unwrap();
        for w in trained.log_likelihoods.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-6, "EM decreased: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn online_hmm_stays_stochastic(
        pairs in prop::collection::vec((0usize..4, 0usize..5), 1..300),
        beta in 0.05f64..0.95,
        gamma in 0.05f64..0.95,
    ) {
        let mut est = OnlineHmmEstimator::new(4, 5, beta, gamma).unwrap();
        for (s, y) in pairs {
            est.observe(s, y).unwrap();
        }
        prop_assert!(est.transition().check(1e-6).is_ok());
        prop_assert!(est.observation().check(1e-6).is_ok());
        let occ: f64 = est.occupancy().iter().sum();
        prop_assert!((occ - 1.0).abs() < 1e-9);
    }

    #[test]
    fn online_markov_snapshot_is_valid(
        states in prop::collection::vec(0usize..3, 1..200),
        beta in 0.05f64..0.95,
    ) {
        let mut est = OnlineMarkovEstimator::new(3, beta).unwrap();
        for s in states {
            est.observe(s).unwrap();
        }
        let chain = est.to_chain().unwrap();
        prop_assert!(chain.transition().check(1e-6).is_ok());
        let pi = chain.stationary(1e-10, 10_000);
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn markov_from_sequence_occupancy_matches_counts(
        seq in prop::collection::vec(0usize..4, 1..100),
    ) {
        let mc = MarkovChain::from_sequence(4, &seq).unwrap();
        for s in 0..4 {
            let expect = seq.iter().filter(|&&x| x == s).count() as f64 / seq.len() as f64;
            prop_assert!((mc.occupancy()[s] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn drop_columns_preserves_stochasticity(
        b in stochastic(4, 6),
        drop in prop::collection::vec(0usize..6, 1..3),
    ) {
        if let Ok(d) = b.drop_columns(&drop) {
            prop_assert!(d.check(1e-9).is_ok());
            prop_assert!(d.num_cols() >= 6 - drop.len());
        }
    }

    #[test]
    fn sampled_sequences_score_higher_under_generator(
        seed in 0u64..5000,
    ) {
        // A sequence drawn from a strongly structured model should
        // almost always be more likely under that model than under a
        // mirrored (label-swapped emission) model.
        use rand::{rngs::StdRng, SeedableRng};
        let a = StochasticMatrix::from_rows(vec![vec![0.95, 0.05], vec![0.05, 0.95]]).unwrap();
        let b = StochasticMatrix::from_rows(vec![vec![0.95, 0.05], vec![0.05, 0.95]]).unwrap();
        let b_mirror = StochasticMatrix::from_rows(vec![vec![0.05, 0.95], vec![0.95, 0.05]]).unwrap();
        let gen = Hmm::new(a.clone(), b, vec![0.5, 0.5]).unwrap();
        let other = Hmm::new(a, b_mirror, vec![0.5, 0.5]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, obs) = gen.sample(100, &mut rng).unwrap();
        let l_gen = gen.log_likelihood(&obs).unwrap();
        let l_other = other.log_likelihood(&obs).unwrap();
        // Identical A and symmetric B ⇒ same marginals, so a tie is
        // possible but a deficit of this size is not.
        prop_assert!(l_gen > l_other - 1e-9 || (l_gen - l_other).abs() < 20.0);
    }

    #[test]
    fn orthogonality_of_permutation_matrices(
        perm_seed in 0usize..24,
    ) {
        // Any permutation matrix is exactly orthogonal in rows and cols.
        let mut idx = [0usize, 1, 2, 3];
        // Generate the perm_seed-th permutation of 4 elements.
        let mut pool: Vec<usize> = idx.to_vec();
        let mut k = perm_seed;
        for i in 0..4 {
            let f = (3 - i..4).product::<usize>().max(1) / (4 - i).max(1);
            let _ = f;
            let pick = k % pool.len();
            k /= pool.len().max(1);
            idx[i] = pool.remove(pick);
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
        prop_assert!(rep.is_orthogonal());
    }
}

proptest! {
    #[test]
    fn online_em_stays_stochastic_under_arbitrary_streams(
        obs in prop::collection::vec(0usize..4, 1..300),
        eta in 0.001f64..0.5,
        seed in 0u64..100,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        use sentinet_hmm::OnlineEmEstimator;
        let mut rng = StdRng::seed_from_u64(seed);
        let init = Hmm::random(3, 4, &mut rng).unwrap();
        let mut em = OnlineEmEstimator::new(init, eta).unwrap();
        for &y in &obs {
            em.observe(y).unwrap();
        }
        prop_assert!(em.transition().check(1e-6).is_ok());
        prop_assert!(em.observation().check(1e-6).is_ok());
        let fs: f64 = em.filter().iter().sum();
        prop_assert!((fs - 1.0).abs() < 1e-7, "filter sum {fs}");
        // Predictive distribution over symbols is a distribution.
        let total: f64 = (0..4).map(|k| em.predictive_prob(k).unwrap()).sum();
        prop_assert!((total - 1.0).abs() < 1e-7, "predictive sum {total}");
    }

    #[test]
    fn aligned_b_distance_is_a_pseudometric(
        a in stochastic(3, 3),
        b in stochastic(3, 3),
    ) {
        use sentinet_hmm::structure::aligned_b_distance;
        let dab = aligned_b_distance(&a, &b);
        let dba = aligned_b_distance(&b, &a);
        prop_assert!((dab - dba).abs() < 1e-9, "symmetry {dab} vs {dba}");
        prop_assert!(dab >= 0.0);
        prop_assert!(aligned_b_distance(&a, &a) < 1e-12);
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
