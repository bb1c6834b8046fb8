//! Chaos integration suite: the supervised engine under injected
//! system faults must either recover **bit-identically** to the serial
//! pipeline (crashes within the restart budget) or degrade explicitly
//! (quarantine) — never abort, never silently diverge.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_core::{Pipeline, PipelineConfig, RecoveryAction};
use sentinet_engine::{ChaosPlan, Engine, FaultKind, FaultPoint, FaultSpec, SupervisorConfig};
use sentinet_inject::{inject_faults, FaultInjection, FaultModel};
use sentinet_sim::{gdi, simulate, SensorId, Trace, DAY_S};
use std::sync::Once;
use std::time::Duration;

/// Silences the panic hook for the chaos harness's own injected
/// panics; real panics still print. Installed once per test binary.
fn silence_chaos_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.starts_with("chaos:"));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Short timeouts so DropReply faults resolve quickly in tests.
fn fast_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        reply_timeout: Duration::from_millis(200),
        restart_backoff: Duration::from_millis(1),
        ..SupervisorConfig::default()
    }
}

fn scenario(seed: u64) -> (Trace, u64) {
    let mut cfg = gdi::month_config();
    cfg.duration = 2 * DAY_S;
    let mut rng = StdRng::seed_from_u64(seed);
    let clean = simulate(&cfg, &mut rng);
    let faulty = inject_faults(
        &clean,
        &[FaultInjection::from_onset(
            SensorId(4),
            FaultModel::StuckAt {
                value: vec![15.0, 1.0],
            },
            DAY_S,
        )],
        &cfg.ranges,
        &mut rng,
    );
    (faulty, cfg.sample_period)
}

/// Runs the chaos plan at `num_shards` and asserts the crashed-and-
/// restored run is bit-identical to the serial pipeline on every
/// observable product.
fn assert_recovers_bit_identically(
    trace: &Trace,
    sample_period: u64,
    num_shards: usize,
    plan: ChaosPlan,
) {
    silence_chaos_panics();
    let mut pipeline = Pipeline::new(PipelineConfig::default(), sample_period);
    let serial_outcomes = pipeline.process_trace(trace);

    let engine = Engine::new(PipelineConfig::default(), sample_period, num_shards)
        .with_supervisor(fast_supervisor())
        .with_chaos(plan.clone());
    let run = engine.process_trace(trace).expect("supervised run");
    let recovered = run.pipeline();

    assert!(
        run.degraded().is_none(),
        "{plan:?}: within budget, must not quarantine"
    );
    assert_eq!(
        run.outcomes(),
        serial_outcomes.as_slice(),
        "{plan:?}: outcomes diverged"
    );
    assert_eq!(recovered.state_history(), pipeline.state_history());
    assert_eq!(recovered.classify_all(), pipeline.classify_all());
    assert_eq!(recovered.network_attack(), pipeline.network_attack());
    for id in pipeline.sensor_ids() {
        assert_eq!(
            recovered.raw_alarm_history(id),
            pipeline.raw_alarm_history(id)
        );
        assert_eq!(recovered.tracks(id), pipeline.tracks(id));
        assert_eq!(recovered.ever_alarmed(id), pipeline.ever_alarmed(id));
        assert_eq!(
            pipeline.m_ce(id).unwrap(),
            recovered.m_ce(id).unwrap(),
            "{plan:?}: M_CE diverged for {id}"
        );
    }
    // The full operator-facing report — including the degraded field —
    // must be indistinguishable from the serial pipeline's.
    assert_eq!(run.report(), pipeline.report(), "{plan:?}: report diverged");
}

#[test]
fn single_panic_at_label_recovers_bit_identically() {
    let (trace, period) = scenario(21);
    for shard in 0..2 {
        for window in [0, 5, 20] {
            assert_recovers_bit_identically(
                &trace,
                period,
                2,
                ChaosPlan::panic_at(shard, window, FaultPoint::Label),
            );
        }
    }
}

#[test]
fn single_panic_at_step_recovers_bit_identically() {
    let (trace, period) = scenario(21);
    for shard in 0..2 {
        assert_recovers_bit_identically(
            &trace,
            period,
            2,
            ChaosPlan::panic_at(shard, 7, FaultPoint::Step),
        );
    }
}

#[test]
fn dropped_and_delayed_replies_recover_bit_identically() {
    let (trace, period) = scenario(22);
    for kind in [FaultKind::DropReply, FaultKind::DelayReply { millis: 5 }] {
        assert_recovers_bit_identically(
            &trace,
            period,
            2,
            ChaosPlan::new().with_fault(FaultSpec {
                shard: 1,
                window: 3,
                point: FaultPoint::Label,
                kind,
                count: 1,
            }),
        );
    }
}

#[test]
fn restarts_are_reported_even_when_fully_recovered() {
    silence_chaos_panics();
    let (trace, period) = scenario(23);
    let engine = Engine::new(PipelineConfig::default(), period, 2)
        .with_supervisor(fast_supervisor())
        .with_chaos(ChaosPlan::panic_at(0, 2, FaultPoint::Label));
    let run = engine.process_trace(&trace).expect("supervised run");
    assert!(run.degraded().is_none());
    assert_eq!(run.shard_restarts(), &[(0, 1)]);
}

#[test]
fn seeded_plans_are_replayable() {
    silence_chaos_panics();
    let (trace, period) = scenario(24);
    // Drop the delay faults: a DelayReply below the reply timeout is
    // harmless jitter but slow; keep the deterministic kinds.
    let plan = ChaosPlan {
        faults: ChaosPlan::seeded(99, 2, 10, 4)
            .faults
            .into_iter()
            .filter(|f| f.kind != FaultKind::DropReply)
            .map(|mut f| {
                if let FaultKind::DelayReply { millis } = &mut f.kind {
                    *millis = 1;
                }
                f
            })
            .collect(),
    };
    let engine = |p: ChaosPlan| {
        Engine::new(PipelineConfig::default(), period, 2)
            .with_supervisor(fast_supervisor())
            .with_chaos(p)
    };
    let a = engine(plan.clone()).process_trace(&trace).expect("run a");
    let b = engine(plan).process_trace(&trace).expect("run b");
    assert_eq!(a.outcomes(), b.outcomes());
    assert_eq!(a.pipeline().classify_all(), b.pipeline().classify_all());
    assert_eq!(a.shard_restarts(), b.shard_restarts());
    assert_eq!(a.report(), b.report());
}

#[test]
fn exhausting_the_restart_budget_quarantines_instead_of_aborting() {
    silence_chaos_panics();
    let (trace, period) = scenario(25);
    let budget = 2u32;
    // count = budget + 1: the fault re-fires on every re-delivery
    // until the shard is quarantined.
    let plan = ChaosPlan::new().with_fault(FaultSpec {
        shard: 1,
        window: 4,
        point: FaultPoint::Label,
        kind: FaultKind::Panic,
        count: budget + 1,
    });
    let engine =
        Engine::new(PipelineConfig::default(), period, 2).with_supervisor(SupervisorConfig {
            max_shard_restarts: budget,
            ..fast_supervisor()
        });
    let run = engine
        .with_chaos(plan)
        .process_trace(&trace)
        .expect("degraded, not dead");

    let degraded = run.degraded().expect("shard 1 must be quarantined");
    // Shard 1 of 2 owns the odd sensors; all 10 GDI sensors existed at
    // the crash window, so all five odd ones are quarantined.
    assert_eq!(
        degraded.quarantined_sensors,
        [1, 3, 5, 7, 9].map(SensorId).to_vec()
    );
    assert_eq!(degraded.shard_restarts, vec![(1, budget)]);
    // The run kept going on the surviving shard.
    assert!(run.windows_processed() > 5);
    // Quarantined sensors still answer post-run queries from their
    // last checkpoint...
    assert!(run.pipeline().m_ce(SensorId(1)).is_some());
    // ...the report carries the degraded status...
    assert_eq!(run.report().degraded.as_ref(), Some(degraded));
    // ...and the recovery plan forces them into servicing.
    let plan = run.recovery_plan();
    for id in [1u16, 3, 5, 7, 9] {
        assert_eq!(
            plan.action(SensorId(id)),
            &RecoveryAction::MaskAndService,
            "sensor{id}"
        );
    }
    assert_eq!(plan.action(SensorId(0)), &RecoveryAction::None);
}

#[test]
fn chaos_at_one_shard_uses_the_supervised_backend() {
    silence_chaos_panics();
    let (trace, period) = scenario(26);
    let mut pipeline = Pipeline::new(PipelineConfig::default(), period);
    let serial = pipeline.process_trace(&trace);
    let engine = Engine::new(PipelineConfig::default(), period, 1)
        .with_supervisor(fast_supervisor())
        .with_chaos(ChaosPlan::panic_at(0, 1, FaultPoint::Label));
    let run = engine.process_trace(&trace).expect("supervised run");
    assert_eq!(run.outcomes(), serial.as_slice());
    assert_eq!(run.shard_restarts(), &[(0, 1)]);
}
