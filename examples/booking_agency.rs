//! The Appendix C booking agency (Figure 5 lifecycles): simulate offer/booking lifecycles,
//! evaluate the gold-customer query over the growing history, and model check lifecycle
//! invariants under a recency bound.
//!
//! Run with `cargo run --release --example booking_agency`.

use rdms::prelude::*;
use rdms::workloads::booking::{self, BookingConfig};

fn main() {
    let agency = booking::build(&BookingConfig {
        restaurants: 2,
        agents: 2,
        customers: 2,
        gold_k: 1,
    });
    let dms = &agency.dms;
    println!("== Appendix C: the booking agency DMS ==");
    println!("  relations : {}", dms.schema().len());
    println!("  actions   : {}", dms.num_actions());
    println!(
        "  constants : {} (lifecycle states, restaurants, agents, customers)",
        dms.constants().len()
    );

    // Drive one full lifecycle: publish an offer, book it, draft, submit, propose, accept.
    let b = 4;
    let sem = RecencySemantics::new(dms, b);
    let mut run = ExtendedRun::new(dms.initial_bconfig());
    let script = [
        "newO1", "newB", "addP2", "submit", "checkP", "detProp", "accept2", "confirm",
    ];
    println!("\n== one full offer → booking → accepted lifecycle ==");
    for name in script {
        let (step, next) = sem
            .successors(run.last())
            .unwrap()
            .into_iter()
            .find(|(s, _)| dms.action(s.action).unwrap().name() == name)
            .unwrap_or_else(|| panic!("{name} should be enabled"));
        run.push(step, next);
        println!(
            "  after {name:<8}: {} facts, {} active values",
            run.last().instance().len(),
            run.last().instance().active_domain().len()
        );
    }

    // The gold-customer query over the logged history (Example 5.2).
    let last = run.last().instance();
    let booking_fact = last
        .relation(RelName::new("Booking"))
        .next()
        .unwrap()
        .clone();
    let customer = booking_fact[2];
    let offer = booking_fact[1];
    let restaurant = last
        .relation(RelName::new("Offer"))
        .find(|t| t[0] == offer)
        .unwrap()[1];
    let gold = booking::gold_query(agency.gold_k, Var::new("c"), Var::new("rr"), &agency.states);
    let sub = Substitution::from_pairs([(Var::new("c"), customer), (Var::new("rr"), restaurant)]);
    println!(
        "\n== Example 5.2: gold customers ==\n  is {customer} gold for {restaurant} after one accepted booking (k = {})? {}",
        agency.gold_k,
        rdms::db::eval::holds(last, &sub, &gold).unwrap()
    );

    // Recency-bounded model checking of lifecycle invariants.
    println!("\n== recency-bounded checking of lifecycle invariants (b = 3, depth 4) ==");
    let explorer = Explorer::new(dms, 3).with_config(ExplorerConfig {
        depth: 4,
        max_configs: 30_000,
        ..Default::default()
    });

    // every booking belongs to exactly one (existing) offer
    let invariant = Query::forall(
        Var::new("bk"),
        Query::forall(
            Var::new("o"),
            Query::forall(
                Var::new("c"),
                Query::atom(
                    RelName::new("Booking"),
                    [Var::new("bk"), Var::new("o"), Var::new("c")],
                )
                .implies(Query::exists(
                    Var::new("st"),
                    Query::atom(RelName::new("OState"), [Var::new("o"), Var::new("st")]),
                )),
            ),
        ),
    );
    let verdict = explorer.run(invariant);
    println!("  every booking's offer has a lifecycle state: {verdict}");

    // an offer is never both available and on hold
    let o = Var::new("o");
    let both = Query::exists(
        o,
        Query::atom(
            RelName::new("OState"),
            [Term::Var(o), Term::Value(agency.states.avail)],
        )
        .and(Query::atom(
            RelName::new("OState"),
            [Term::Var(o), Term::Value(agency.states.onhold)],
        )),
    );
    let verdict = explorer.run(both.not());
    println!("  no offer is simultaneously avail and onhold : {verdict}");

    // unboundedness: offers can pile up (Example 3.2's "unbounded in many dimensions")
    let sem3 = RecencySemantics::new(dms, 3);
    let mut pile = ExtendedRun::new(dms.initial_bconfig());
    for name in ["newO1", "newO2", "newO2", "newO2", "newO2", "newO2"] {
        let (step, next) = sem3
            .successors(pile.last())
            .unwrap()
            .into_iter()
            .find(|(s, _)| dms.action(s.action).unwrap().name() == name)
            .unwrap();
        pile.push(step, next);
    }
    println!(
        "\n== unboundedness ==\n  after 6 publications the database holds {} offers (and can keep growing)",
        pile.last().instance().relation_size(RelName::new("Offer"))
    );
}
