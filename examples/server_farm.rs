//! The paper's §6 future-work scenario: "the application of the
//! proposed methodology to monitor intrusions and failures in a large
//! cluster of machines dedicated to running an e-commerce application."
//!
//! Twelve replica servers report (CPU %, p99 latency ms, memory %)
//! every minute. The workload follows a diurnal shopping pattern. One
//! replica develops a memory leak (drifting to saturated memory) and a
//! third of the replicas are later compromised to feed the monitor
//! lull-level metrics during peaks (hiding a crypto-miner's load). The
//! same pipeline that classifies mote faults separates the two —
//! nothing in `sentinet-core` is sensor-network specific.
//!
//! Run with: `cargo run --example server_farm`

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_core::{Pipeline, PipelineConfig, KEY_STATE_OCCUPANCY};
use sentinet_inject::{
    inject_attacks, inject_faults, AttackInjection, AttackModel, FaultInjection, FaultModel,
};
use sentinet_sim::{simulate, AttributeRange, EnvironmentModel, SensorId, SimConfig};

fn main() {
    // Farm load profile: (CPU %, p99 latency ms, memory %) plateaus —
    // overnight lull, morning ramp, lunch peak, evening peak.
    let day = 86_400u64;
    let mut schedule = Vec::new();
    for d in 0..10u64 {
        let t0 = d * day;
        schedule.push((t0, vec![20.0, 30.0, 40.0])); // night
        schedule.push((t0 + 8 * 3600, vec![55.0, 55.0, 55.0])); // business hours
        schedule.push((t0 + 12 * 3600, vec![80.0, 85.0, 70.0])); // lunch peak
        schedule.push((t0 + 14 * 3600, vec![55.0, 55.0, 55.0]));
        schedule.push((t0 + 19 * 3600, vec![85.0, 90.0, 72.0])); // evening peak
        schedule.push((t0 + 22 * 3600, vec![20.0, 30.0, 40.0]));
    }
    let cfg = SimConfig {
        num_sensors: 12,
        sample_period: 60,
        duration: 10 * day,
        noise_std: vec![2.0, 3.0, 1.5],
        ranges: vec![
            AttributeRange::new(0.0, 100.0),
            AttributeRange::new(0.0, 500.0),
            AttributeRange::new(0.0, 100.0),
        ],
        loss_prob: 0.02,
        burst: None,
        malformed_prob: 0.005,
        environment: EnvironmentModel::Piecewise(schedule),
    };
    let mut rng = StdRng::seed_from_u64(2_006);
    let clean = simulate(&cfg, &mut rng);

    // Replica 11: memory leak — memory reading drifts up and saturates.
    let with_fault = inject_faults(
        &clean,
        &[FaultInjection::from_onset(
            SensorId(11),
            FaultModel::DriftToStuck {
                target: vec![55.0, 55.0, 100.0],
                drift_duration: 2 * day,
            },
            2 * day,
        )],
        &cfg.ranges,
        &mut rng,
    );
    // Replicas 0-3 (a third of the farm, the paper's operating point):
    // compromised from day 5 — they feed the monitor compensating
    // values that pull the farm-observed state toward the overnight
    // profile during peaks (hiding the miner's load). Fewer replicas
    // (≤ 2 of 12) fall inside the robust mean's trim budget and are
    // flagged per-replica instead of as a coordinated attack.
    let trace = inject_attacks(
        &with_fault,
        &[AttackInjection::from_onset(
            vec![SensorId(0), SensorId(1), SensorId(2), SensorId(3)],
            AttackModel::DynamicDeletion {
                freeze_at: vec![20.0, 30.0, 40.0],
            },
            5 * day,
        )],
        &cfg.ranges,
    );

    // Same pipeline, different domain: only the clustering geometry
    // changes (farm states are farther apart than weather states).
    let mut pipeline_cfg = PipelineConfig {
        window_samples: 15, // 15-minute windows
        // A concurrent fault (replica 11) plus ⅓ compromised leaves 7
        // of 12 honest replicas; the default ⅔ decisiveness bar would
        // refuse every attack window, so relax it to a strict majority
        // plus margin — 12 voters give finer granularity than 10 motes.
        majority_fraction: 0.55,
        ..Default::default()
    };
    pipeline_cfg.cluster.spawn_threshold = 18.0;
    pipeline_cfg.cluster.merge_threshold = 8.0;
    let mut pipeline = Pipeline::new(pipeline_cfg, cfg.sample_period);
    pipeline.process_trace(&trace);

    println!("=== server-farm monitoring (paper §6 future work) ===\n");
    let states = pipeline.model_states().expect("bootstrapped");
    println!("learned farm states (CPU%, p99 ms, mem%):");
    let m_c = pipeline.correct_model().expect("bootstrapped");
    for slot in m_c.key_states(KEY_STATE_OCCUPANCY) {
        if let Some(c) = states.centroid(slot) {
            println!(
                "  state {slot}: ({:>5.1}, {:>5.1}, {:>5.1})  occupancy {:.2}",
                c[0],
                c[1],
                c[2],
                m_c.occupancy()[slot]
            );
        }
    }

    println!("\nnetwork-level verdict: {:?}", pipeline.network_attack());
    println!("\nper-replica diagnosis (with track-open window):");
    for (id, d) in pipeline.classify_all() {
        let marker = match d {
            sentinet_core::Diagnosis::ErrorFree => "  ",
            _ => "=>",
        };
        let opened = pipeline
            .tracks(id)
            .and_then(|t| t.first().map(|t| t.opened))
            .map(|w| format!("track opened day {:.1}", w as f64 * 15.0 / (24.0 * 60.0)))
            .unwrap_or_else(|| "no track".into());
        println!("{marker} replica{:<2}: {d}  [{opened}]", id.0);
    }
    // The paper's Fig. 5 applies the network-level B^CO test first, so
    // while an attack is in progress every alarmed node inherits the
    // attack verdict — including the independently faulty replica 11.
    // Two orthogonal signals disambiguate: coordination grouping (the
    // attackers forge identical values, the faulty replica is a loner)
    // and the track timeline (replica 11's track predates the attack).
    println!(
        "
coordination groups among alarmed replicas:"
    );
    for group in pipeline.coordinated_groups() {
        let ids: Vec<String> = group.iter().map(|s| format!("replica{}", s.0)).collect();
        println!(
            "  {} {}",
            ids.join(", "),
            if group.len() > 1 {
                "<- coordinated (attack participants)"
            } else {
                "<- isolated signature (independent fault)"
            }
        );
    }
    let leak_open = pipeline.tracks(SensorId(11)).unwrap()[0].opened;
    let attacker_open = pipeline.tracks(SensorId(0)).unwrap()[0].opened;
    println!(
        "\nreplica11's track predates the attackers' by {} windows — an",
        attacker_open - leak_open
    );
    println!("operator (or a timeline-aware classifier) separates the fault from");
    println!("the attack by onset, as the paper's track-management module intends.");
}
