//! Quickstart: simulate one day of a ten-mote deployment, run the
//! sentinet pipeline, and print the recovered environment model.
//!
//! Run with: `cargo run --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_core::{Pipeline, PipelineConfig, KEY_STATE_OCCUPANCY};
use sentinet_sim::{gdi, simulate};

fn main() {
    // 1. A Great-Duck-Island-like workload: 10 motes, 5-minute samples,
    //    lossy radio, diurnal temperature/humidity.
    let sim_cfg = gdi::day_config();
    let mut rng = StdRng::seed_from_u64(42);
    let trace = simulate(&sim_cfg, &mut rng);
    println!(
        "simulated {} records from {} sensors ({:.1}% lost/malformed)",
        trace.len(),
        trace.sensors().len(),
        100.0 * trace.loss_rate()
    );

    // 2. Run the collector-node pipeline with the paper's Table 1
    //    parameters (the defaults).
    let mut pipeline = Pipeline::new(PipelineConfig::default(), sim_cfg.sample_period);
    let outcomes = pipeline.process_trace(&trace);
    println!("processed {} observation windows", outcomes.len());

    // 3. The error/attack-free Markov model M_C of the environment.
    let m_c = pipeline.correct_model().expect("pipeline bootstrapped");
    let states = pipeline.model_states().expect("pipeline bootstrapped");
    println!("\nrecovered environment model M_C (key states):");
    for slot in m_c.key_states(KEY_STATE_OCCUPANCY) {
        if let Some(c) = states.centroid(slot) {
            println!(
                "  state {slot}: temperature {:>5.1} °C, humidity {:>5.1} %RH (occupancy {:.2})",
                c[0],
                c[1],
                m_c.occupancy()[slot]
            );
        }
    }

    // 4. Per-sensor diagnosis — everything should be clean here.
    println!("\nper-sensor diagnosis:");
    for (id, diagnosis) in pipeline.classify_all() {
        println!("  {id}: {diagnosis}");
    }
}
