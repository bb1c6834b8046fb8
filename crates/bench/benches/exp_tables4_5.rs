//! Tables 4–5 — the HMMs learned for faulty sensor 7 (calibration
//! fault) and the ratio/difference disambiguation.
//!
//! Paper outcome: both `B^CO` and `B^CE` are approximately orthogonal;
//! the correct↔error state association yields ratios with low variance
//! (avg ≈ (1.24, 1.16)) and differences with high variance, so the
//! sensor is classified as a calibration fault.

use sentinet_bench::{
    active_rows, calibration_scenario, print_matrix, run_pipeline, state_label, visible_columns,
};
use sentinet_core::classify::{carries_error, evidenced_rows};
use sentinet_core::{Diagnosis, ErrorType};
use sentinet_hmm::structure::{mean_var, OrthoTolerance, OrthogonalityReport};
use sentinet_sim::SensorId;

fn main() {
    let (trace, cfg) = calibration_scenario(30, 45);
    let p = run_pipeline(&trace, &cfg);
    let sensor = SensorId(7);

    let rows = active_rows(&p);
    let labels: Vec<String> = (0..p.m_co().unwrap().observation().num_rows())
        .map(|s| state_label(&p, s))
        .collect();

    let b_co = p.m_co().unwrap().observation();
    let cols = visible_columns(b_co, &rows, 0.01);
    print_matrix(
        "=== Table 4: B^CO matrix (calibration fault on sensor 7) ===",
        b_co,
        &labels,
        &labels,
        &rows,
        &cols,
    );
    let rep = OrthogonalityReport::analyze(b_co, OrthoTolerance::default(), Some(&rows));
    println!(
        "B^CO rows orthogonal: {} | cols orthogonal: {}",
        rep.rows_orthogonal, rep.cols_orthogonal
    );

    let m_ce = p.m_ce(sensor).expect("sensor 7 tracked");
    let b_ce = m_ce.observation();
    let ce_rows: Vec<usize> = evidenced_rows(m_ce).collect();
    let mut ce_labels = vec!["⊥".to_string()];
    ce_labels.extend((0..b_ce.num_cols() - 1).map(|s| state_label(&p, s)));
    let ce_cols = visible_columns(b_ce, &ce_rows, 0.01);
    print_matrix(
        "\n=== Table 5: B^CE matrix for sensor 7 (col 0 = ⊥) ===",
        b_ce,
        &labels,
        &ce_labels,
        &ce_rows,
        &ce_cols,
    );

    // The ratio/difference analysis over the associated state pairs.
    let verdict = p.classify(sensor);
    println!("\nclassification verdict: {verdict}");
    let gains = match &verdict {
        Diagnosis::Error(ErrorType::Calibration { gains }) => gains.clone(),
        other => panic!("expected calibration classification, got {other}"),
    };
    println!(
        "estimated per-attribute gains: ({:.2}, {:.2}) — injected: (1.15, 1.15)",
        gains[0], gains[1]
    );
    println!("paper: ratios avg (1.24, 1.16) with low variance; differences high variance");
    assert!((gains[0] - 1.15).abs() < 0.12, "gain[0] {}", gains[0]);

    // Reproduce the paper's variance comparison explicitly from the
    // associated centroids.
    let states = p.model_states().unwrap();
    let assoc = sentinet_hmm::structure::one_to_one_association(
        &b_ce.drop_columns(&[0]).unwrap(),
        p.config().association_threshold,
        Some(
            &ce_rows
                .iter()
                .copied()
                .filter(|&i| carries_error(b_ce, i))
                .collect::<Vec<_>>(),
        ),
    )
    .expect("one-to-one association exists for a calibration fault");
    let mut ratios = [Vec::new(), Vec::new()];
    let mut diffs = [Vec::new(), Vec::new()];
    for &(c, e) in &assoc {
        if let (Some(cc), Some(ec)) = (states.centroid_any(c), states.centroid_any(e)) {
            for d in 0..2 {
                if ec[d].abs() > 1e-9 {
                    ratios[d].push(cc[d] / ec[d]);
                }
                diffs[d].push(cc[d] - ec[d]);
            }
        }
    }
    for d in 0..2 {
        let r = mean_var(&ratios[d]).expect("pairs exist");
        let f = mean_var(&diffs[d]).expect("pairs exist");
        println!(
            "attr {d}: ratio mean {:.3} var {:.4} | difference mean {:.2} var {:.2}",
            r.mean, r.var, f.mean, f.var
        );
    }
}
