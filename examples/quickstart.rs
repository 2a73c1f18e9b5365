//! Quickstart: build a small DMS with the builder API, run it, and model check two
//! properties under a recency bound.
//!
//! Run with `cargo run --release --example quickstart`.

use rdms::prelude::*;

fn main() {
    // A tiny ticketing system: tickets are opened (fresh ids), then either resolved or
    // escalated; escalated tickets can never be resolved directly.
    let dms = DmsBuilder::new()
        .proposition("service_open")
        .relation("Open", 1)
        .relation("Escalated", 1)
        .relation("Resolved", 1)
        .initially_true("service_open")
        .action(
            ActionBuilder::new("open_ticket")
                .fresh([Var::new("t")])
                .guard(Query::prop(RelName::new("service_open")))
                .add(Pattern::from_facts([(
                    RelName::new("Open"),
                    vec![Term::Var(Var::new("t"))],
                )])),
        )
        .action(
            ActionBuilder::new("resolve")
                .guard(Query::atom(RelName::new("Open"), [Var::new("t")]))
                .del(Pattern::from_facts([(
                    RelName::new("Open"),
                    vec![Term::Var(Var::new("t"))],
                )]))
                .add(Pattern::from_facts([(
                    RelName::new("Resolved"),
                    vec![Term::Var(Var::new("t"))],
                )])),
        )
        .action(
            ActionBuilder::new("escalate")
                .guard(Query::atom(RelName::new("Open"), [Var::new("t")]))
                .del(Pattern::from_facts([(
                    RelName::new("Open"),
                    vec![Term::Var(Var::new("t"))],
                )]))
                .add(Pattern::from_facts([(
                    RelName::new("Escalated"),
                    vec![Term::Var(Var::new("t"))],
                )])),
        )
        .build()
        .expect("valid DMS");

    println!("== quickstart: a ticketing DMS ==");
    println!("schema relations : {}", dms.schema().len());
    println!("actions          : {}", dms.num_actions());

    // Simulate a few steps of the recency-bounded semantics.
    let b = 2;
    let sem = RecencySemantics::new(&dms, b);
    let mut run = ExtendedRun::new(dms.initial_bconfig());
    for wanted in ["open_ticket", "open_ticket", "resolve", "escalate"] {
        let (step, next) = sem
            .successors(run.last())
            .unwrap()
            .into_iter()
            .find(|(s, _)| dms.action(s.action).unwrap().name() == wanted)
            .expect("action enabled");
        run.push(step, next);
    }
    println!("\nafter 4 steps the database is: {}", run.last().instance());

    // Model check at recency bound b.
    let explorer = Explorer::new(&dms, b).with_config(ExplorerConfig {
        depth: 5,
        max_configs: 20_000,
        ..Default::default()
    });

    // 1. Invariant: no ticket is both escalated and resolved.
    let t = Var::new("t");
    let invariant = Query::forall(
        t,
        Query::atom(RelName::new("Escalated"), [t])
            .and(Query::atom(RelName::new("Resolved"), [t]))
            .not(),
    );
    let verdict = explorer.run(invariant.clone());
    println!("\n[invariant]  escalated ∧ resolved is impossible: {verdict}");

    // 2. Reachability: some ticket can be resolved.
    let (witness, _, stats) = explorer.find_reachable_instance(&Query::exists(
        t,
        Query::atom(RelName::new("Resolved"), [t]),
    ));
    match witness {
        Some(run) => println!(
            "[reachable]  a resolved ticket is reachable in {} steps ({} configurations explored)",
            run.len(),
            stats.configs_explored
        ),
        None => println!("[reachable]  no resolved ticket found within the budget"),
    }

    // 3. A trace property in MSO-FO: every opened ticket is eventually closed (resolved or
    //    escalated). On finite prefixes this fails (a ticket may still be open at the end).
    let property = templates::response(
        t,
        Query::atom(RelName::new("Open"), [t]),
        Query::atom(RelName::new("Resolved"), [t]).or(Query::atom(RelName::new("Escalated"), [t])),
    );
    let verdict = explorer.run(property);
    println!("[response ]  every open ticket is eventually closed: {verdict}");
    if let Some(cex) = verdict.counterexample() {
        println!(
            "             counterexample prefix of {} steps: {}",
            cex.len(),
            cex.last().instance()
        );
    }

    // 4. Edit-and-recheck with a revision workspace: tighten the bound without paying
    //    for a from-scratch search — the b=2 explored set seeds the b=3 search.
    let mut workspace = Workspace::new(dms.clone(), b, invariant)
        .with_depth(5)
        .with_max_configs(20_000);
    let verdict = workspace.check();
    println!("\n[workspace]  invariant at b={b}: {verdict}");
    workspace.set_bound(b + 1);
    let verdict = workspace.check();
    println!(
        "[workspace]  invariant at b={} ({:?}): {verdict}",
        b + 1,
        workspace.last_report().reuse
    );
}
