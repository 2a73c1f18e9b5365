//! A wide-schema ledger workload: many independent single-column relations, each action
//! touching exactly **one** of them.
//!
//! Relations: `L0/1 … L{n-1}/1` (the ledgers) and a proposition `init`. Actions:
//! * `seed` — while `init` holds, retire it and put one fresh value into every ledger,
//! * `rotate_i` (one per ledger) — replace ledger `i`'s current value by a fresh one.
//!
//! After `seed`, every configuration populates all `n` ledgers and every transition rewrites
//! exactly one of them: a successor shares `n − 1` of its `n` relations with its parent.
//! This is the shape `workloads::warehouse` has with few relations, widened until the
//! per-successor representation cost dominates — the canonical stress test for the
//! copy-on-write instance representation and the incremental canonical keys (bench
//! `e10_wide_relations`): a value-semantics instance pays O(n) clone + O(n) canonicalisation
//! per successor, the COW instance pays O(1) amortised for both.

use rdms_core::action::ActionBuilder;
use rdms_core::dms::DmsBuilder;
use rdms_core::Dms;
use rdms_db::{Pattern, Query, RelName, Term, Var};

/// The name of ledger `i`.
pub fn ledger(i: usize) -> RelName {
    RelName::new(&format!("L{i}"))
}

/// The ledger system with `relations` ledgers (`relations ≥ 1`).
pub fn dms(relations: usize) -> Dms {
    let n = relations.max(1);
    let init = RelName::new("init");
    let mut builder = DmsBuilder::new().proposition("init").initially_true("init");
    for i in 0..n {
        builder = builder.relation(&format!("L{i}"), 1);
    }
    // seed: one fresh value per ledger
    let seeds: Vec<Var> = (0..n).map(|i| Var::numbered("v", i)).collect();
    let seed_add = Pattern::from_facts(
        seeds
            .iter()
            .enumerate()
            .map(|(i, &v)| (ledger(i), vec![Term::Var(v)]))
            .collect::<Vec<_>>(),
    );
    builder = builder.action(
        ActionBuilder::new("seed")
            .fresh(seeds)
            .guard(Query::prop(init))
            .del(Pattern::proposition(init))
            .add(seed_add),
    );
    // rotate_i: swap ledger i's value for a fresh one
    for i in 0..n {
        let u = Var::new("u");
        let v = Var::new("v");
        builder = builder.action(
            ActionBuilder::new(&format!("rotate_{i}"))
                .params([u])
                .fresh([v])
                .guard(Query::atom(ledger(i), [u]))
                .del(Pattern::from_facts([(ledger(i), vec![Term::Var(u)])]))
                .add(Pattern::from_facts([(ledger(i), vec![Term::Var(v)])])),
        );
    }
    builder.build().expect("wide ledger DMS is valid")
}

/// The state invariant "once seeding is done, ledger 0 is populated"
/// (`init ∨ ∃u. L0(u)`). It holds: `seed` fills every ledger and `rotate_0` refills `L0`
/// in the same step that empties it.
pub fn first_ledger_stays_populated() -> Query {
    let u = Var::new("u");
    Query::prop(RelName::new("init")).or(Query::exists(u, Query::atom(ledger(0), [u])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdms_core::RecencySemantics;

    #[test]
    fn system_builds_and_seed_fills_every_ledger() {
        let dms = dms(6);
        assert_eq!(dms.num_actions(), 7);
        let sem = RecencySemantics::new(&dms, 2);
        let succs = sem.successors(&dms.initial_bconfig()).unwrap();
        assert_eq!(succs.len(), 1, "only seed can fire initially");
        let seeded = &succs[0].1;
        for i in 0..6 {
            assert_eq!(seeded.instance().relation_size(ledger(i)), 1, "ledger {i}");
        }
        assert!(!seeded.instance().proposition(RelName::new("init")));
    }

    #[test]
    fn every_transition_touches_one_ledger_and_shares_the_rest() {
        let n = 8;
        let dms = dms(n);
        let sem = RecencySemantics::new(&dms, 3);
        let seeded = sem.successors(&dms.initial_bconfig()).unwrap().remove(0).1;
        let succs = sem.successors(&seeded).unwrap();
        // the recency window (b = 3) admits rotate_i for the 3 most recently seeded ledgers
        assert_eq!(succs.len(), 3);
        for (_, next) in &succs {
            assert_eq!(
                next.instance().shared_relations(seeded.instance()),
                n - 1,
                "a rotation must share all untouched ledgers with its parent"
            );
        }
    }

    #[test]
    fn the_ledger_invariant_holds() {
        use rdms_checker::{Explorer, ExplorerConfig};
        let dms = dms(5);
        let explorer = Explorer::new(&dms, 2).with_config(ExplorerConfig {
            depth: 4,
            max_configs: 10_000,
            ..Default::default()
        });
        let verdict = explorer.run(first_ledger_stays_populated());
        assert!(verdict.holds());
        assert!(verdict.stats().configs_explored > 0);
    }
}
