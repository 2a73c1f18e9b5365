//! Experiment E1: exhaustiveness of the recency under-approximation.
//!
//! Section 5 of the paper: "More runs are verified by increasing the bound on recency."
//! This example quantifies that on two workloads, printing for each bound `b` the number of
//! reachable abstract configurations (modulo data isomorphism), the number of run prefixes,
//! and whether a chosen property's verdict changes. The numbers are the data series recorded
//! in EXPERIMENTS.md (E1).
//!
//! Run with `cargo run --release --example recency_sweep`.

use rdms::prelude::*;
use rdms::workloads::{enrollment, figure1};
use serde_json::json;

fn sweep(name: &str, dms: &Dms, property: &MsoFo, max_b: usize, depth: usize) {
    println!("\n== {name}: recency sweep (depth {depth}) ==");
    println!(
        "  {:>3} | {:>10} | {:>10} | {:>9} | verdict",
        "b", "abs.states", "saturated", "prefixes"
    );
    let mut records = Vec::new();
    for b in 1..=max_b {
        let explorer = Explorer::new(dms, b).with_config(ExplorerConfig {
            depth,
            max_configs: 50_000,
            ..Default::default()
        });
        let (states, saturated) = explorer.reachable_state_count();
        let verdict = explorer.run(property.clone());
        println!(
            "  {:>3} | {:>10} | {:>10} | {:>9} | {}",
            b,
            states,
            saturated,
            verdict.stats().prefixes_checked,
            if verdict.holds() { "holds" } else { "violated" }
        );
        records.push(json!({
            "experiment": "E1",
            "workload": name,
            "b": b,
            "depth": depth,
            "abstract_states": states,
            "saturated": saturated,
            "prefixes": verdict.stats().prefixes_checked,
            "holds": verdict.holds(),
        }));
    }
    println!("  json: {}", serde_json::to_string(&records).unwrap());
}

fn main() {
    // Workload 1: the paper's running example, property "p always holds" (violated at any
    // bound ≥ 1 — β/γ delete p — so the interesting column is the growth of the state space).
    let dms = figure1::dms();
    let property = templates::invariant(Query::prop(RelName::new("p")));
    sweep("example_3_1", &dms, &property, 4, 4);

    // Workload 2: student enrollment, property "every enrolled student eventually graduates"
    // (violated once a dropout fits inside the window).
    let dms = enrollment::dms();
    let property = enrollment::graduation_property();
    sweep("enrollment", &dms, &property, 3, 4);

    println!(
        "\nThe abstract state count grows monotonically with b: more behaviours are captured,"
    );
    println!("matching the exhaustiveness claim of Section 5 (safety model checking converges to");
    println!("exact model checking in the limit).");
}
