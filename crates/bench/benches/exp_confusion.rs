//! EXT-1 — full classification confusion matrix (beyond the paper).
//!
//! Every fault and attack model is injected across several seeds; each
//! run's diagnosis of the affected sensor (or the network verdict for
//! attacks) is tallied against the ground truth. The paper only reports
//! four anecdotes (Tables 2–7); this sweep quantifies how well the
//! structural classifier generalizes.

use sentinet_bench::*;
use sentinet_core::{AttackType, Diagnosis, ErrorType, Pipeline};
use sentinet_sim::SensorId;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Truth {
    Clean,
    StuckAt,
    Calibration,
    Additive,
    Noise,
    Deletion,
    Creation,
    Change,
    Mixed,
}

const LABELS: [&str; 10] = [
    "clean", "stuck", "calib", "addit", "noise", "delet", "creat", "chang", "mixed", "unkwn",
];

fn verdict_index(p: &Pipeline, truth: Truth) -> usize {
    // Attacks are judged by the network verdict; faults by the injected
    // sensor's diagnosis.
    match truth {
        Truth::Deletion | Truth::Creation | Truth::Change | Truth::Mixed => {
            match p.network_attack() {
                None => 0,
                Some(AttackType::DynamicDeletion { .. }) => 5,
                Some(AttackType::DynamicCreation { .. }) => 6,
                Some(AttackType::DynamicChange { .. }) => 7,
                Some(AttackType::Mixed) => 8,
            }
        }
        _ => {
            let sensor = match truth {
                Truth::StuckAt => SensorId(6),
                Truth::Calibration => SensorId(7),
                Truth::Additive => SensorId(3),
                Truth::Noise => SensorId(5),
                Truth::Clean => SensorId(0),
                _ => unreachable!(),
            };
            match p.classify(sensor) {
                Diagnosis::ErrorFree => 0,
                Diagnosis::Error(ErrorType::StuckAt { .. }) => 1,
                Diagnosis::Error(ErrorType::Calibration { .. }) => 2,
                Diagnosis::Error(ErrorType::Additive { .. }) => 3,
                Diagnosis::Error(ErrorType::Unknown) => 9,
                Diagnosis::Attack(_) => 8,
            }
        }
    }
}

fn main() {
    let seeds = [101u64, 202, 303, 404, 505];
    let days = 12;
    type ScenarioFn = fn(u64, u64) -> (sentinet_sim::Trace, sentinet_sim::SimConfig);
    let scenarios: Vec<(Truth, ScenarioFn)> = vec![
        (Truth::Clean, clean_scenario),
        (Truth::StuckAt, stuck_at_scenario),
        (Truth::Calibration, calibration_scenario),
        (Truth::Additive, additive_scenario),
        (Truth::Noise, noise_scenario),
        (Truth::Deletion, deletion_scenario),
        (Truth::Creation, creation_scenario),
        (Truth::Change, change_scenario),
        (Truth::Mixed, mixed_scenario),
    ];

    // Each (scenario, seed) run is independent: fan out on a thread
    // scope and fold the tallies afterwards.
    let mut matrix = vec![vec![0usize; LABELS.len()]; scenarios.len()];
    let cells: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = scenarios
            .iter()
            .enumerate()
            .flat_map(|(row, &(truth, build))| {
                seeds.iter().map(move |&seed| (row, truth, build, seed))
            })
            .map(|(row, truth, build, seed)| {
                scope.spawn(move || {
                    let (trace, cfg) = build(days, seed);
                    let p = run_pipeline(&trace, &cfg);
                    (row, verdict_index(&p, truth))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scenario worker panicked"))
            .collect()
    });
    for (row, col) in cells {
        matrix[row][col] += 1;
    }

    println!(
        "=== EXT-1: classification confusion matrix ({} seeds × {} days) ===",
        seeds.len(),
        days
    );
    print!("{:>12}", "truth↓ out→");
    for l in LABELS {
        print!(" {l:>5}");
    }
    println!();
    let truth_names = [
        "clean", "stuck", "calib", "addit", "noise", "delet", "creat", "chang", "mixed",
    ];
    for (row, name) in truth_names.iter().enumerate() {
        print!("{name:>12}");
        for cell in &matrix[row] {
            print!(" {cell:>5}");
        }
        println!();
    }

    // Headline accuracy: exact-type matches on the diagonal mapping.
    let diagonal = [0usize, 1, 2, 3, 0, 5, 6, 7, 8]; // noise→clean counts as acceptable (paper §3.4)
    let mut hits = 0usize;
    let mut total = 0usize;
    for (row, &d) in diagonal.iter().enumerate() {
        hits += matrix[row][d];
        if row == 4 {
            // Random noise: the paper says it may appear error-free or
            // unknown; count both as acceptable.
            hits += matrix[row][9];
        }
        total += seeds.len();
    }
    println!(
        "\nexact-type accuracy (noise counted correct as clean/unknown): {}/{}",
        hits, total
    );
}
