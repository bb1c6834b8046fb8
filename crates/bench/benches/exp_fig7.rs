//! Figure 7 — the correct Markov model `M_C` of the environment.
//!
//! One month of clean data; the pipeline's user-facing deliverable is
//! the Markov model over the learned model states. The paper identifies
//! four key states — (12,94), (17,84), (24,70), (31,56) — plus one
//! low-occupancy fluctuation state that it drops; we print our key
//! states, their occupancies, and the transition edges.

use sentinet_bench::{clean_scenario, run_pipeline, state_label};
use sentinet_core::KEY_STATE_OCCUPANCY;

fn main() {
    let (trace, cfg) = clean_scenario(30, 7);
    let p = run_pipeline(&trace, &cfg);
    let m_c = p.correct_model().expect("bootstrapped");

    println!("=== Figure 7: correct Markov model M_C ===");
    let key = m_c.key_states(KEY_STATE_OCCUPANCY);
    println!(
        "key states (occupancy ≥ {:.0}%):",
        100.0 * KEY_STATE_OCCUPANCY
    );
    for &s in &key {
        println!(
            "  {} occupancy {:.2}",
            state_label(&p, s),
            m_c.occupancy()[s]
        );
    }
    let dropped: Vec<String> = (0..m_c.num_states())
        .filter(|s| !key.contains(s) && m_c.occupancy()[*s] > 0.0)
        .map(|s| state_label(&p, s))
        .collect();
    println!("low-occupancy states dropped (paper drops its (16,27)): {dropped:?}");

    println!("\ntransitions (prob ≥ 0.05):");
    for (i, j, prob) in m_c.edges(0.05) {
        if key.contains(&i) && key.contains(&j) {
            println!(
                "  {} -> {}  {:.2}",
                state_label(&p, i),
                state_label(&p, j),
                prob
            );
        }
    }

    // Graphviz output for direct visual comparison with the figure.
    let labels: Vec<String> = (0..m_c.num_states()).map(|s| state_label(&p, s)).collect();
    println!("\nGraphviz DOT:\n{}", m_c.to_dot(&labels, 0.05));

    println!("paper reference: 4 key states (12,94) (17,84) (24,70) (31,56),");
    println!("chain cycling low-temp/high-hum <-> high-temp/low-hum through the middle states");
    assert!(
        (3..=6).contains(&key.len()),
        "expected about four key states, got {}",
        key.len()
    );
}
