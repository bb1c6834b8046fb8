//! Figure 9 / Tables 2–3 — the HMMs learned for faulty sensor 6
//! (stuck-at-value fault) and their structural classification.
//!
//! Paper outcome: `B^CO` is approximately orthogonal (no attack); the
//! sensor's `B^CE` has a single ≈ all-ones column at the stuck state
//! (15, 1) and the sensor is classified stuck-at. This bench reproduces
//! both matrices and asserts the same classification.

use sentinet_bench::{
    active_rows, print_matrix, run_pipeline, state_label, stuck_at_scenario, visible_columns,
};
use sentinet_core::classify::evidenced_rows;
use sentinet_core::{Diagnosis, ErrorType};
use sentinet_hmm::structure::{OrthoTolerance, OrthogonalityReport};
use sentinet_sim::SensorId;

fn main() {
    let (trace, cfg) = stuck_at_scenario(30, 23);
    let p = run_pipeline(&trace, &cfg);
    let sensor = SensorId(6);

    let rows = active_rows(&p);
    let labels: Vec<String> = (0..p.m_co().unwrap().observation().num_rows())
        .map(|s| state_label(&p, s))
        .collect();

    // Table 2: B^CO.
    let b_co = p.m_co().unwrap().observation();
    let cols = visible_columns(b_co, &rows, 0.01);
    print_matrix(
        "=== Table 2: B^CO matrix (stuck-at fault on sensor 6) ===",
        b_co,
        &labels,
        &labels,
        &rows,
        &cols,
    );
    let report = OrthogonalityReport::analyze(b_co, OrthoTolerance::default(), Some(&rows));
    println!(
        "rows orthogonal: {} | cols orthogonal: {} (paper: both approximately orthogonal)",
        report.rows_orthogonal, report.cols_orthogonal
    );

    // Table 3: B^CE for sensor 6 (⊥ is column 0).
    let m_ce = p.m_ce(sensor).expect("sensor 6 tracked");
    let b_ce = m_ce.observation();
    let ce_rows: Vec<usize> = evidenced_rows(m_ce).collect();
    let mut ce_labels = vec!["⊥".to_string()];
    ce_labels.extend((0..b_ce.num_cols() - 1).map(|s| state_label(&p, s)));
    let ce_cols = visible_columns(b_ce, &ce_rows, 0.01);
    print_matrix(
        "\n=== Table 3: B^CE matrix for sensor 6 (col 0 = ⊥) ===",
        b_ce,
        &labels,
        &ce_labels,
        &ce_rows,
        &ce_cols,
    );

    // Figure 9 also shows the transition structure A of both models.
    println!("\n=== Figure 9: state transition matrix A^CO (rows = correct states) ===");
    let a_co = p.m_co().unwrap().transition().expect("M_CO has a chain");
    let a_cols = visible_columns(a_co, &rows, 0.01);
    print_matrix("", a_co, &labels, &labels, &rows, &a_cols);

    // Figure 9 summary: the classification verdict.
    let verdict = p.classify(sensor);
    println!("\nclassification verdict: {verdict}");
    match verdict {
        Diagnosis::Error(ErrorType::StuckAt { state }) => {
            let c = p
                .model_states()
                .unwrap()
                .centroid_any(state)
                .unwrap()
                .to_vec();
            println!(
                "stuck state: {} (paper: sensor 6 stuck at (15,1))",
                state_label(&p, state)
            );
            assert!((c[0] - 15.0).abs() < 3.0 && c[1] < 6.0, "centroid {c:?}");
        }
        other => panic!("expected stuck-at classification, got {other}"),
    }
    assert_eq!(p.network_attack(), None, "no attack signature expected");
}
