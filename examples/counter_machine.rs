//! Appendix D: the two reductions from 2-counter Minsky machines to DMS propositional
//! reachability — the source of Theorem 4.1 (undecidability of unrestricted model checking)
//! — and how recency bounding under-approximates them.
//!
//! Run with `cargo run --release --example counter_machine`.

use rdms::core::counter::{binary_reduction, state_proposition, unary_reduction};
use rdms::prelude::*;
use rdms::workloads::counters::pump_and_transfer;

fn main() {
    let machine = pump_and_transfer(3);
    let target = machine.num_states - 1;
    println!("== Appendix D: a 2-counter machine ==");
    println!(
        "  states: {}, instructions: {}",
        machine.num_states,
        machine.instructions.len()
    );
    println!(
        "  final state {target} reachable (direct simulation)? {}",
        machine.state_reachable(target, 100_000)
    );

    // Reduction 1: two unary relations, full FOL guards.
    let unary = unary_reduction(&machine).unwrap();
    println!("\n== unary reduction (two unary relations, FOL guards) ==");
    println!(
        "  schema size: {}, actions: {}, max arity: {}",
        unary.schema().len(),
        unary.num_actions(),
        unary.max_arity()
    );
    println!(
        "  all guards UCQ? {} (ifz needs negation)",
        unary.all_guards_ucq()
    );
    let sem = ConcreteSemantics::new(&unary);
    let prop = RelName::new(&state_proposition(target));
    println!(
        "  S_q{target} reachable in the DMS (unbounded search)? {}",
        sem.proposition_reachable(prop, 100_000, 40).unwrap()
    );

    // Reduction 2: one binary relation, UCQ guards only.
    let binary = binary_reduction(&machine).unwrap();
    println!("\n== binary reduction (one binary relation, UCQ guards) ==");
    println!(
        "  schema size: {}, actions: {}, max arity: {}",
        binary.schema().len(),
        binary.num_actions(),
        binary.max_arity()
    );
    println!("  all guards UCQ? {}", binary.all_guards_ucq());
    let sem = ConcreteSemantics::new(&binary);
    println!(
        "  S_q{target} reachable in the DMS (unbounded search)? {}",
        sem.proposition_reachable(prop, 100_000, 40).unwrap()
    );

    // Recency bounding turns the (undecidable in general) question into a decidable
    // under-approximation: with a small bound the binary encoding cannot reach back to the
    // Zero element of the counter chain, with a larger bound the target becomes reachable.
    println!("\n== recency-bounded under-approximation of the binary reduction ==");
    let small = pump_and_transfer(1);
    let small_binary = binary_reduction(&small).unwrap();
    let small_prop = RelName::new(&state_proposition(small.num_states - 1));
    let mut witness = None;
    for b in [1usize, 2, 3] {
        let explorer = Explorer::new(&small_binary, b).with_config(ExplorerConfig {
            depth: 10,
            max_configs: 30_000,
            ..Default::default()
        });
        let (run, _, stats) = explorer.find_reachable_instance(&Query::prop(small_prop));
        println!(
            "  b = {b}: final state reachable = {:5}  (configurations explored: {})",
            run.is_some(),
            stats.configs_explored
        );
        if let Some(run) = run {
            witness = Some((b, run));
        }
    }
    if let Some((b, run)) = witness {
        println!("\n  witness run at b = {b} (instances interleaved with the fired actions):");
        println!("{}", run.display_with(&small_binary));
    }
    println!(
        "\nIncreasing the recency bound verifies strictly more behaviours (Section 5): the zero"
    );
    println!(
        "test needs the chain's Zero element inside the recency window, so it only fires once"
    );
    println!("the bound covers the whole counter chain.");
}
