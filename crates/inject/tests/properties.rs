//! Property-based tests for the fault/attack injectors.

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_inject::{
    first_k_sensors, inject_attacks, inject_faults, AttackInjection, AttackModel, FaultInjection,
    FaultModel,
};
use sentinet_sim::{
    simulate, AttributeRange, EnvironmentModel, Payload, SensorId, SimConfig, Trace,
};

fn base_config(duration: u64, loss: f64) -> SimConfig {
    SimConfig {
        num_sensors: 6,
        sample_period: 300,
        duration,
        noise_std: vec![0.5, 1.0],
        ranges: vec![
            AttributeRange::new(-40.0, 60.0),
            AttributeRange::new(0.0, 100.0),
        ],
        loss_prob: loss,
        burst: None,
        malformed_prob: 0.0,
        environment: EnvironmentModel::gdi(),
    }
}

fn structure_fingerprint(t: &Trace) -> Vec<(u64, u16, bool)> {
    t.records()
        .iter()
        .map(|r| (r.time, r.sensor.0, r.payload.is_delivered()))
        .collect()
}

seeded::properties! {
    var: "INJECT_PROPS_SEED", package: "sentinet-inject", target: "--test properties", cases: 32;

    fn fault_injection_preserves_trace_structure(rng) {
        let seed = rng.range(0u64..500);
        let loss = rng.range(0.0..0.4);
        let sensor = rng.range(0u16..6);
        let cfg = base_config(4 * 3600, loss);
        let clean = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
        let out = inject_faults(
            &clean,
            &[FaultInjection::from_onset(
                SensorId(sensor),
                FaultModel::StuckAt { value: vec![10.0, 10.0] },
                0,
            )],
            &cfg.ranges,
            &mut StdRng::seed_from_u64(seed),
        );
        // Same record count, same timing, same delivery pattern.
        assert_eq!(structure_fingerprint(&clean), structure_fingerprint(&out));
    }

    fn faulty_readings_always_in_admissible_range(rng) {
        let seed = rng.range(0u64..200);
        let gain = rng.range(0.1..5.0);
        let offset = rng.range(-200.0..200.0);
        let cfg = base_config(2 * 3600, 0.0);
        let clean = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
        let out = inject_faults(
            &clean,
            &[
                FaultInjection::from_onset(
                    SensorId(0),
                    FaultModel::Calibration { gain: vec![gain, gain] },
                    0,
                ),
                FaultInjection::from_onset(
                    SensorId(1),
                    FaultModel::Additive { offset: vec![offset, offset] },
                    0,
                ),
                FaultInjection::from_onset(
                    SensorId(2),
                    FaultModel::RandomNoise { std: vec![50.0, 50.0] },
                    0,
                ),
            ],
            &cfg.ranges,
            &mut StdRng::seed_from_u64(seed + 1),
        );
        for (_, _, r) in out.delivered() {
            assert!((-40.0..=60.0).contains(&r.values()[0]), "{r}");
            assert!((0.0..=100.0).contains(&r.values()[1]), "{r}");
        }
    }

    fn uninjected_sensors_bitwise_identical(rng) {
        let seed = rng.range(0u64..200);
        let target = rng.range(0u16..6);
        let cfg = base_config(2 * 3600, 0.1);
        let clean = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
        let out = inject_faults(
            &clean,
            &[FaultInjection::from_onset(
                SensorId(target),
                FaultModel::Additive { offset: vec![5.0, 5.0] },
                0,
            )],
            &cfg.ranges,
            &mut StdRng::seed_from_u64(seed + 2),
        );
        for s in 0..6u16 {
            if s != target {
                assert_eq!(
                    clean.sensor_series(SensorId(s)),
                    out.sensor_series(SensorId(s))
                );
            }
        }
    }

    fn attack_injection_preserves_structure_and_ranges(rng) {
        let seed = rng.range(0u64..200);
        let m = rng.range(1u16..4);
        let (tx, hy) = (rng.range(-30.0..50.0), rng.range(5.0..95.0));
        let cfg = base_config(4 * 3600, 0.1);
        let clean = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
        let out = inject_attacks(
            &clean,
            &[AttackInjection::from_onset(
                first_k_sensors(m),
                AttackModel::DynamicCreation { target: vec![tx, hy] },
                0,
            )],
            &cfg.ranges,
        );
        assert_eq!(structure_fingerprint(&clean), structure_fingerprint(&out));
        for (_, _, r) in out.delivered() {
            assert!((-40.0..=60.0).contains(&r.values()[0]));
            assert!((0.0..=100.0).contains(&r.values()[1]));
        }
        // Honest sensors untouched.
        for s in m..6 {
            assert_eq!(
                clean.sensor_series(SensorId(s)),
                out.sensor_series(SensorId(s))
            );
        }
    }

    fn deletion_attack_moves_mean_toward_freeze(rng) {
        let seed = rng.range(0u64..100);
        // With unclamped goals the forged mean should land near the
        // freeze value during the attack window.
        let mut cfg = base_config(4 * 3600, 0.0);
        cfg.environment = EnvironmentModel::Constant(vec![25.0, 60.0]);
        cfg.noise_std = vec![0.1, 0.1];
        let clean = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
        let freeze = vec![20.0, 70.0];
        let out = inject_attacks(
            &clean,
            &[AttackInjection::from_onset(
                first_k_sensors(2),
                AttackModel::DynamicDeletion { freeze_at: freeze.clone() },
                0,
            )],
            &cfg.ranges,
        );
        // Mean over one sampling instant.
        let t0 = 0u64;
        let vals: Vec<&sentinet_sim::Reading> = out
            .records()
            .iter()
            .filter(|r| r.time == t0)
            .filter_map(|r| r.payload.reading())
            .collect();
        let mean_t: f64 = vals.iter().map(|r| r.values()[0]).sum::<f64>() / vals.len() as f64;
        assert!((mean_t - 20.0).abs() < 0.5, "mean {mean_t}");
    }

    fn attack_respects_time_window(rng) {
        let seed = rng.range(0u64..100);
        let start_h = rng.range(1u64..3);
        let cfg = base_config(4 * 3600, 0.0);
        let clean = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
        let start = start_h * 3600;
        let out = inject_attacks(
            &clean,
            &[AttackInjection {
                sensors: first_k_sensors(2),
                model: AttackModel::DynamicChange { offset: vec![-5.0, 0.0] },
                start,
                end: Some(start + 3600),
            }],
            &cfg.ranges,
        );
        for (t, s, r) in out.delivered() {
            if s.0 < 2 && !(start..start + 3600).contains(&t) {
                // Outside the window the compromised sensors are honest.
                let orig = clean
                    .sensor_series(s)
                    .into_iter()
                    .find(|(tt, _)| *tt == t)
                    .map(|(_, rr)| rr.clone())
                    .expect("record exists in clean trace");
                assert_eq!(r.clone(), orig);
            }
        }
    }

    fn lost_packets_never_resurrected(rng) {
        let seed = rng.range(0u64..200);
        let cfg = base_config(2 * 3600, 0.5);
        let clean = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
        let out = inject_attacks(
            &clean,
            &[AttackInjection::from_onset(
                first_k_sensors(3),
                AttackModel::DynamicCreation { target: vec![30.0, 40.0] },
                0,
            )],
            &cfg.ranges,
        );
        for (a, b) in clean.records().iter().zip(out.records()) {
            assert_eq!(
                matches!(a.payload, Payload::Lost),
                matches!(b.payload, Payload::Lost)
            );
        }
    }
}
