//! Reproduce Example 3.1 / Figure 1 / Example 5.1 / Example 6.1 / Figure 2 of the paper:
//! replay the exact run, confirm it is 2-recency-bounded, print its abstract generating
//! sequence and its nested-word encoding, and round-trip everything.
//!
//! Run with `cargo run --release --example figure1_run`.

use rdms::checker::RunEncoder;
use rdms::core::symbolic;
use rdms::prelude::*;
use rdms::workloads::figure1;

fn main() {
    let dms = figure1::dms();
    println!("== Example 3.1: the DMS ==");
    for action in dms.actions() {
        println!("  {action:?}");
    }

    // Figure 1: the run, rendered with the human-readable run display (numbered instances
    // interleaved with the action name and bindings of each step)
    let b = 2;
    let run = figure1::figure_1_run(&dms, b);
    println!("\n== Figure 1: the run (replayed) ==");
    println!("{}", run.display_with(&dms));

    // Example 5.1: it is 2-recency-bounded (and not 1-recency-bounded)
    println!("\n== Example 5.1: recency boundedness ==");
    println!(
        "  minimal recency bound of the run: {:?}",
        RecencySemantics::minimal_bound(&dms, &run)
    );
    println!(
        "  replayable at b = 1? {}",
        RecencySemantics::new(&dms, 1)
            .execute(&figure1::figure_1_steps())
            .is_ok()
    );
    println!(
        "  replayable at b = 2? {}",
        RecencySemantics::new(&dms, 2)
            .execute(&figure1::figure_1_steps())
            .is_ok()
    );

    // Example 6.1: the abstract generating sequence
    println!("\n== Example 6.1: abstract generating sequence ==");
    let word = symbolic::abstraction(&dms, &run).expect("run is b-bounded");
    for letter in &word {
        let action = dms.action(letter.action).unwrap();
        println!("  ⟨{}: {:?}⟩", action.name(), letter.sub);
    }

    // Concr ∘ Abstr is the identity on this (canonical) run
    let rebuilt = symbolic::concretize(&dms, b, &word)
        .unwrap()
        .expect("valid abstraction");
    println!(
        "  Concr(Abstr(run)) == run ? {}",
        rebuilt.configs() == run.configs()
    );

    // Figure 2: the nested-word encoding
    println!("\n== Figure 2: nested-word encoding ==");
    let encoder = RunEncoder::new(&dms, b);
    let encoding = encoder
        .encode(&run)
        .expect("2-bounded run encodes at b = 2");
    println!(
        "  {} letters, {} nesting edges, {} pending pushes",
        encoding.len(),
        encoding.nesting_edges().len(),
        encoding.pending_calls().len()
    );
    println!("  {encoding}");
    println!("  valid encoding? {}", encoder.is_valid_encoding(&encoding));

    // Remark 6.1: pending pushes before each block = |adom| before that block
    println!("\n== Remark 6.1: unmatched pushes track |adom| ==");
    let mut heads = Vec::new();
    for p in 0..encoding.len() {
        if encoder.alphabet().symbolic(encoding.letter(p)).is_some() {
            heads.push(p);
        }
    }
    for (j, &head) in heads.iter().enumerate() {
        println!(
            "  block {}: pending pushes before = {:2}, |adom(I{})| = {:2}",
            j + 1,
            encoding.pending_calls_in_prefix(head).len(),
            j,
            run.configs()[j].instance().active_domain().len()
        );
    }

    // decode back
    let decoded = encoder.decode(&encoding).expect("valid");
    println!(
        "\n  decode(encode(run)) == run ? {}",
        decoded.configs() == run.configs()
    );

    // Model checking with a counterexample: "p always holds" is violated, and the verdict
    // carries a certificate that the engine-free rdms-cert verifier replays independently.
    println!("\n== model checking: a counterexample, and its certificate ==");
    let explorer = Explorer::new(&dms, b).with_config(
        ExplorerConfig {
            depth: 4,
            max_configs: 5_000,
            ..Default::default()
        }
        .with_emit_certificate(true),
    );
    let verdict = explorer.run(Query::prop(RelName::new("p")));
    println!("  {verdict}");
    let cex = verdict.counterexample().expect("p is violated");
    println!("{}", cex.display_with(&dms));
    let certificate = verdict.certificate().expect("emission was on");
    println!(
        "  certificate: {} bytes of JSON, independently verified: {:?}",
        certificate.to_json().len(),
        certificate.verify().is_ok()
    );
}
