//! Property-based tests for the simulation substrate.

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use rand::rngs::StdRng;
use rand::SeedableRng;
use seeded::TestRng;
use sentinet_sim::{
    read_trace, simulate, write_trace, AttributeRange, DiurnalParams, EnvironmentModel, Gaussian,
    SimConfig, DAY_S,
};

fn any_config(rng: &mut TestRng) -> SimConfig {
    let noise = rng.range(0.0..3.0);
    SimConfig {
        num_sensors: rng.range(1u16..8),
        sample_period: 300,
        duration: rng.range(1u64..4) * 3600,
        noise_std: vec![noise, noise],
        ranges: vec![
            AttributeRange::new(-40.0, 60.0),
            AttributeRange::new(0.0, 100.0),
        ],
        loss_prob: rng.range(0.0..0.5),
        burst: None,
        malformed_prob: rng.range(0.0..0.3),
        environment: EnvironmentModel::gdi(),
    }
}

seeded::properties! {
    var: "SIM_PROPS_SEED", package: "sentinet-sim", target: "--test properties", cases: 48;

    fn trace_is_sorted_and_complete(rng) {
        let cfg = any_config(rng);
        let seed = rng.range(0u64..1000);
        let trace = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
        // One record per (instant, sensor), sorted.
        let expected = cfg.num_samples() * cfg.num_sensors as u64;
        assert_eq!(trace.len() as u64, expected);
        for pair in trace.records().windows(2) {
            assert!((pair[0].time, pair[0].sensor) < (pair[1].time, pair[1].sensor));
        }
    }

    fn csv_roundtrip_is_lossless(rng) {
        let cfg = any_config(rng);
        let seed = rng.range(0u64..1000);
        let trace = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
        let mut buf = Vec::new();
        write_trace(&trace, 2, &mut buf).unwrap();
        let parsed = read_trace(&buf[..]).unwrap();
        assert_eq!(trace, parsed);
    }

    fn csv_parser_never_panics_on_garbage(rng) {
        let mut text = String::from("time,sensor,status,v0\n");
        // Up to 19 lines of up to 40 printable ASCII characters.
        for _ in 0..rng.range(0usize..20) {
            for _ in 0..rng.range(0usize..41) {
                text.push(char::from(32 + rng.range(0u8..95)));
            }
            text.push('\n');
        }
        // Must return Ok or Err, never panic.
        let _ = read_trace(text.as_bytes());
    }

    fn diurnal_values_bounded(rng) {
        let t = rng.range(0..40 * DAY_S);
        let (t_min, spread) = (rng.range(-10.0..15.0), rng.range(1.0..30.0));
        let seasonal = rng.range(0.0..3.0);
        let p = DiurnalParams {
            t_min,
            t_max: t_min + spread,
            seasonal_amplitude: seasonal,
            ..Default::default()
        };
        let env = EnvironmentModel::Diurnal(p);
        let v = env.value(t);
        assert!(v[0] >= t_min - seasonal - 1e-9);
        assert!(v[0] <= t_min + spread + seasonal + 1e-9);
        assert!((0.0..=100.0).contains(&v[1]));
    }

    fn gaussian_sampling_matches_parameters(rng) {
        let (mean, std) = (rng.range(-50.0..50.0), rng.range(0.0..5.0));
        let g = Gaussian::new(mean, std);
        let mut sampler = StdRng::seed_from_u64(rng.range(0u64..200));
        let n = 3_000;
        let xs: Vec<f64> = (0..n).map(|_| g.sample(&mut sampler)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        assert!((m - mean).abs() < 0.2 + std * 0.12, "mean {m} vs {mean}");
        if std > 0.5 {
            let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64;
            assert!(
                (var.sqrt() - std).abs() < 0.35 * std,
                "std {} vs {std}",
                var.sqrt()
            );
        }
    }

    fn loss_rate_tracks_configured_probability(rng) {
        let loss = rng.range(0.0..0.5);
        let seed = rng.range(0u64..100);
        let cfg = SimConfig {
            num_sensors: 5,
            sample_period: 300,
            duration: 24 * 3600,
            noise_std: vec![0.5, 0.5],
            ranges: vec![
                AttributeRange::new(-40.0, 60.0),
                AttributeRange::new(0.0, 100.0),
            ],
            loss_prob: loss,
            burst: None,
            malformed_prob: 0.0,
            environment: EnvironmentModel::gdi(),
        };
        let trace = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
        let rate = trace.loss_rate();
        // 1440 Bernoulli trials: allow 5σ slack.
        let sigma = (loss * (1.0 - loss) / 1440.0).sqrt();
        assert!((rate - loss).abs() < 5.0 * sigma + 1e-9, "rate {rate} vs {loss}");
    }

    fn piecewise_respects_segments(rng) {
        let values = rng.vec(1..6, |r| r.range(-10.0..10.0));
        let probe = rng.range(0u64..10_000);
        let segs: Vec<(u64, Vec<f64>)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64 * 1_000, vec![v]))
            .collect();
        let env = EnvironmentModel::Piecewise(segs.clone());
        let got = env.value(probe)[0];
        let expect = segs
            .iter()
            .rev()
            .find(|(start, _)| *start <= probe)
            .map(|(_, v)| v[0])
            .unwrap_or(segs[0].1[0]);
        assert_eq!(got, expect);
    }
}
