//! End-to-end integration tests reproducing the paper's figures and worked examples
//! (experiment index F1–F10 / T2 in DESIGN.md), spanning every crate of the workspace.

use rdms::checker::{Explorer, ExplorerConfig, RunEncoder};
use rdms::core::counter::{binary_reduction, state_proposition, unary_reduction};
use rdms::core::symbolic;
use rdms::core::transform::{bulk, constants, freshness, injective};
use rdms::core::{ConcreteSemantics, RecencySemantics};
use rdms::db::{Query, RelName, Var};
use rdms::logic::templates;
use rdms::workloads::{booking, counters, enrollment, figure1, warehouse};
use std::collections::BTreeMap;

fn r(name: &str) -> RelName {
    RelName::new(name)
}

/// F1 + F3: the Figure 1 run replays exactly, is 2-recency-bounded (Example 5.1) and its
/// abstraction round-trips through `Concr` (Example 6.1).
#[test]
fn f1_f3_figure_1_run_and_abstraction() {
    let dms = figure1::dms();
    let run = figure1::figure_1_run(&dms, 2);
    assert_eq!(run.len(), 8);
    assert_eq!(RecencySemantics::minimal_bound(&dms, &run), Some(2));

    let word = symbolic::abstraction(&dms, &run).unwrap();
    assert_eq!(word.len(), 8);
    let rebuilt = symbolic::concretize(&dms, 2, &word).unwrap().unwrap();
    assert_eq!(rebuilt.configs(), run.configs());
}

/// F2: the Figure 2 nested-word encoding round-trips and satisfies the nesting laws; its
/// validity is recognised procedurally.
#[test]
fn f2_nested_word_encoding() {
    let dms = figure1::dms();
    let run = figure1::figure_1_run(&dms, 2);
    let encoder = RunEncoder::new(&dms, 2);
    let word = encoder.encode(&run).unwrap();
    assert_eq!(word.len(), 42);
    assert!(word.check_nesting_laws());
    assert!(encoder.is_valid_encoding(&word));
    let decoded = encoder.decode(&word).unwrap();
    assert_eq!(decoded.configs(), run.configs());
}

/// F5: the booking agency drives a full artifact lifecycle and the Gold_k query observes the
/// unbounded history (Example 5.2).
#[test]
fn f5_booking_agency_lifecycle() {
    let agency = booking::build(&booking::BookingConfig::default());
    let dms = &agency.dms;
    let sem = RecencySemantics::new(dms, 4);
    let mut run = rdms::core::ExtendedRun::new(dms.initial_bconfig());
    for name in ["newO1", "newB", "submit", "detProp", "accept2", "confirm"] {
        let (step, next) = sem
            .successors(run.last())
            .unwrap()
            .into_iter()
            .find(|(s, _)| dms.action(s.action).unwrap().name() == name)
            .unwrap();
        run.push(step, next);
    }
    let accepted = run
        .last()
        .instance()
        .relation(r("BState"))
        .filter(|t| t[1] == agency.states.accepted)
        .count();
    assert_eq!(accepted, 1);
}

/// F6 / T1: both Appendix D reductions faithfully simulate counter machines, so propositional
/// reachability inherits their undecidability (the reductions agree with direct simulation on
/// decidable instances).
#[test]
fn f6_counter_machine_reductions_agree() {
    let machine = counters::pump_and_transfer(2);
    let target = machine.num_states - 1;
    let expected = machine.state_reachable(target, 10_000);
    let prop = r(&state_proposition(target));

    let unary = unary_reduction(&machine).unwrap();
    assert_eq!(
        ConcreteSemantics::new(&unary)
            .proposition_reachable(prop, 10_000, 30)
            .unwrap(),
        expected
    );
    let binary = binary_reduction(&machine).unwrap();
    assert!(binary.all_guards_ucq());
    assert_eq!(
        ConcreteSemantics::new(&binary)
            .proposition_reachable(prop, 10_000, 30)
            .unwrap(),
        expected
    );

    // negative instance
    let dead = counters::unreachable_target();
    let unary = unary_reduction(&dead).unwrap();
    assert!(!ConcreteSemantics::new(&unary)
        .proposition_reachable(r(&state_proposition(2)), 1_000, 20)
        .unwrap());
}

/// F7: constant removal produces a bisimilar, constant-free system whose reachable instances
/// expand back to the original ones (Example F.1 is covered in the unit tests; here a small
/// tagging system goes through the public API end to end).
#[test]
fn f7_constant_removal_end_to_end() {
    use rdms::core::{ActionBuilder, DmsBuilder};
    use rdms::db::{DataValue, Instance, Pattern, Term};

    let tag = DataValue::e(77);
    let mut initial = Instance::new();
    initial.insert(r("Mark"), vec![tag]);
    let dms = DmsBuilder::new()
        .relation("Mark", 1)
        .relation("Item", 2)
        .initial(initial)
        .constants([tag])
        .action(
            ActionBuilder::new("attach")
                .fresh([Var::new("x")])
                .guard(Query::atom(r("Mark"), [Term::Var(Var::new("m"))]))
                .add(Pattern::from_facts([(
                    r("Item"),
                    vec![Term::Var(Var::new("x")), Term::Var(Var::new("m"))],
                )])),
        )
        .build()
        .unwrap();

    let (compacted, removal) = constants::remove_constants(&dms).unwrap();
    assert!(!compacted.has_constants());
    assert!(compacted.initial().active_domain().is_empty());
    assert_eq!(&removal.expand_instance(compacted.initial()), dms.initial());

    // the reachable instances of both systems coincide up to isomorphism after expansion
    let orig: Vec<_> = ConcreteSemantics::new(&dms)
        .reachable_configs(50, 2)
        .unwrap();
    let comp: Vec<_> = ConcreteSemantics::new(&compacted)
        .reachable_configs(50, 2)
        .unwrap();
    assert_eq!(orig.len(), comp.len());
    for c in &comp {
        let expanded = removal.expand_instance(&c.instance);
        assert!(orig
            .iter()
            .any(|o| rdms::core::iso::instances_isomorphic(&o.instance, &expanded)));
    }
}

/// F8: the non-injective-input expansion enumerates one action per partition of the fresh
/// variables, and the expanded system still runs.
#[test]
fn f8_injective_expansion_runs() {
    let dms = figure1::dms();
    let expanded = injective::expand_dms(&dms).unwrap();
    assert_eq!(expanded.num_actions(), 5 + 2 + 1 + 1);
    let sem = ConcreteSemantics::new(&expanded);
    // the coarsest α variant inserts two equal fresh values collapsed to one
    let succs = sem.successors(&expanded.initial_config()).unwrap();
    assert!(succs.len() >= 5);
}

/// F9: weakening freshness lets inputs rebind history values; `Hist` tracks the history.
#[test]
fn f9_weakened_freshness() {
    let dms = enrollment::dms();
    let arbitrary = BTreeMap::from([("enroll".to_owned(), vec![Var::new("s")])]);
    let weakened = freshness::weaken_freshness(&dms, &arbitrary).unwrap();
    assert!(weakened.schema().contains(r("Hist")));
    assert_eq!(weakened.num_actions(), dms.num_actions() + 1);
}

/// F10: the compiled bulk protocol reaches the same result as the direct bulk semantics
/// (warehouse workload; detailed comparison is in the bulk module's unit tests).
#[test]
fn f10_bulk_compilation() {
    let (compiled, rels) = warehouse::compiled_dms(3).unwrap();
    assert_eq!(compiled.num_actions(), 8);
    assert!(rels.is_quiescent(compiled.initial()));
    // the direct semantics moves every product at once
    let base = warehouse::base_dms(3);
    let sem = ConcreteSemantics::new(&base);
    let (_, stocked) = sem.successors(&base.initial_config()).unwrap().remove(0);
    let next = bulk::apply_bulk(
        &stocked,
        &warehouse::new_order_bulk(),
        &[rdms::db::DataValue::e(900)],
    )
    .unwrap()
    .unwrap();
    assert_eq!(next.instance.relation_size(r("InOrder")), 3);
}

/// T2: the end-to-end pipeline of Theorem 5.1 on a propositional property — encode runs,
/// translate the specification, evaluate on the encoding — agrees with the explorer engine
/// and with direct MSO-FO evaluation.
#[test]
fn t2_reduction_pipeline_cross_validation() {
    let dms = figure1::dms();
    let hybrid = rdms::checker::hybrid::HybridChecker::new(&dms, 2, 2);
    // cross-validate ⌊ψ⌋ on every ≤2-step prefix for two propositional properties
    assert!(hybrid.cross_validate(&templates::never(r("p"))) >= 5);
    assert!(hybrid.cross_validate(&templates::proposition_reachable(r("p"))) >= 5);

    // the engines agree on the verdicts
    let hybrid3 = rdms::checker::hybrid::HybridChecker::new(&dms, 2, 3);
    let explorer = Explorer::new(&dms, 2).with_config(ExplorerConfig {
        depth: 2,
        max_configs: 5_000,
        ..Default::default()
    });
    for property in [
        templates::never(r("p")),
        templates::invariant(Query::prop(r("p"))),
    ] {
        assert_eq!(
            hybrid3.check(&property).holds(),
            explorer.run(property).holds()
        );
    }
}

/// E1 (shape): the set of verified behaviours grows with the recency bound on both the
/// running example and the enrollment workload.
#[test]
fn e1_recency_sweep_is_monotone() {
    for dms in [figure1::dms(), enrollment::dms()] {
        let mut counts = Vec::new();
        for b in 1..=3 {
            let explorer = Explorer::new(&dms, b).with_config(ExplorerConfig {
                depth: 3,
                max_configs: 20_000,
                ..Default::default()
            });
            counts.push(explorer.reachable_state_count().0);
        }
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }
}

/// The introduction's student/graduation property, checked end to end on the enrollment
/// workload: violated with dropouts, and a witness run satisfying it exists as well.
#[test]
fn introduction_student_property() {
    let dms = enrollment::dms();
    let explorer = Explorer::new(&dms, 2).with_config(ExplorerConfig {
        depth: 4,
        max_configs: 20_000,
        ..Default::default()
    });
    let property = enrollment::graduation_property();
    let verdict = explorer.run(property.clone());
    assert!(!verdict.holds(), "a dropout refutes the property");

    let (witness, _) = explorer.find_witness(&property);
    assert!(witness.is_some(), "some prefix satisfies the property");
}
