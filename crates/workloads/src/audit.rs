//! A deep-history audit-log workload: append-only streams whose instance stays small while
//! the history grows without bound.
//!
//! Relations: `S0/1 … S{k-1}/1` (the streams — each holds only the id of its **latest** log
//! entry), propositions `init` and `turn_0 … turn_{k-1}` (a round-robin token serialising
//! the appenders). Actions:
//! * `seed` — while `init` holds, retire it, write one fresh entry id into every stream and
//!   hand the token to stream 0,
//! * `append_i` (one per stream) — holding token `i`, replace stream `i`'s head entry by a
//!   fresh id and pass the token to stream `i+1 mod k`.
//!
//! After seeding, every configuration has **exactly one** successor (the token picks the
//! action, the singleton stream head picks the parameter), so a depth-`d` exploration is a
//! single run of length `d`: the active domain stays at `k` values while the history — every
//! entry id ever appended — grows by one per step (`|H| = k + d ≫ |adom|`). This is the
//! regime the recency-bounded semantics is built for, and the canonical stress test for the
//! persistent history/seq-no representation (bench `e11_deep_history`): a configuration
//! layer that deep-clones `H` and `seq_no` pays O(|H|) = O(depth) per successor, the
//! persistent layer O(log |H|).
//!
//! The recency bound must be at least `k`: the stream about to be rotated holds the *least*
//! recent of the `k` active values ([`recency_bound`] returns the tight bound).

use rdms_core::action::ActionBuilder;
use rdms_core::dms::DmsBuilder;
use rdms_core::Dms;
use rdms_db::{Pattern, Query, RelName, Term, Var};

/// The name of stream `i`.
pub fn stream(i: usize) -> RelName {
    RelName::new(&format!("S{i}"))
}

/// The name of the round-robin token proposition for stream `i`.
pub fn turn(i: usize) -> RelName {
    RelName::new(&format!("turn_{i}"))
}

/// The audit-log system with `streams` streams (`streams ≥ 1`).
pub fn dms(streams: usize) -> Dms {
    let k = streams.max(1);
    let init = RelName::new("init");
    let mut builder = DmsBuilder::new().proposition("init").initially_true("init");
    for i in 0..k {
        builder = builder.relation(&format!("S{i}"), 1);
        builder = builder.proposition(&format!("turn_{i}"));
    }
    // seed: one fresh entry id per stream, token to stream 0
    let seeds: Vec<Var> = (0..k).map(|i| Var::numbered("v", i)).collect();
    let mut seed_add = Pattern::from_facts(
        seeds
            .iter()
            .enumerate()
            .map(|(i, &v)| (stream(i), vec![Term::Var(v)]))
            .collect::<Vec<_>>(),
    );
    seed_add.insert(turn(0), std::iter::empty::<Term>());
    builder = builder.action(
        ActionBuilder::new("seed")
            .fresh(seeds)
            .guard(Query::prop(init))
            .del(Pattern::proposition(init))
            .add(seed_add),
    );
    // append_i: replace stream i's head by a fresh entry id, pass the token on
    for i in 0..k {
        let u = Var::new("u");
        let v = Var::new("v");
        let mut del = Pattern::from_facts([(stream(i), vec![Term::Var(u)])]);
        del.insert(turn(i), std::iter::empty::<Term>());
        let mut add = Pattern::from_facts([(stream(i), vec![Term::Var(v)])]);
        add.insert(turn((i + 1) % k), std::iter::empty::<Term>());
        builder = builder.action(
            ActionBuilder::new(&format!("append_{i}"))
                .params([u])
                .fresh([v])
                .guard(Query::prop(turn(i)).and(Query::atom(stream(i), [u])))
                .del(del)
                .add(add),
        );
    }
    builder.build().expect("audit DMS is valid")
}

/// The tight recency bound for [`dms`]`(streams)`: the head about to be rotated is the
/// least recent of the `streams` active values.
pub fn recency_bound(streams: usize) -> usize {
    streams.max(1)
}

/// The state invariant "once seeding is done, stream 0 has a head entry"
/// (`init ∨ ∃u. S0(u)`). It holds: `seed` fills every stream and `append_0` writes the new
/// head in the same step that retires the old one.
pub fn first_stream_has_a_head() -> Query {
    let u = Var::new("u");
    Query::prop(RelName::new("init")).or(Query::exists(u, Query::atom(stream(0), [u])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdms_core::RecencySemantics;

    #[test]
    fn system_builds_and_seed_starts_the_round_robin() {
        let dms = dms(4);
        assert_eq!(dms.num_actions(), 5);
        let sem = RecencySemantics::new(&dms, recency_bound(4));
        let succs = sem.successors(&dms.initial_bconfig()).unwrap();
        assert_eq!(succs.len(), 1, "only seed can fire initially");
        let seeded = &succs[0].1;
        for i in 0..4 {
            assert_eq!(seeded.instance().relation_size(stream(i)), 1, "stream {i}");
        }
        assert!(seeded.instance().proposition(turn(0)));
    }

    #[test]
    fn runs_are_deterministic_and_history_outgrows_the_active_domain() {
        let k = 3;
        let dms = dms(k);
        let sem = RecencySemantics::new(&dms, recency_bound(k));
        let mut config = dms.initial_bconfig();
        let depth = 20;
        for step in 0..depth {
            let mut succs = sem.successors(&config).unwrap();
            assert_eq!(succs.len(), 1, "exactly one successor at step {step}");
            config = succs.pop().unwrap().1;
        }
        // seed added k entries, every later step exactly one
        assert_eq!(config.history().len(), k + (depth - 1));
        assert_eq!(config.adom_size(), k);
    }

    #[test]
    fn below_the_tight_bound_the_run_dead_ends() {
        let k = 3;
        let dms = dms(k);
        let sem = RecencySemantics::new(&dms, recency_bound(k) - 1);
        let mut config = dms.initial_bconfig();
        let mut steps = 0;
        loop {
            let mut succs = sem.successors(&config).unwrap();
            if succs.is_empty() {
                break;
            }
            config = succs.pop().unwrap().1;
            steps += 1;
            assert!(steps < 10, "a too-small window must dead-end quickly");
        }
        // seed fires, but the first append needs the least recent of the k heads
        assert_eq!(steps, 1);
    }

    #[test]
    fn the_stream_invariant_holds() {
        use rdms_checker::{Explorer, ExplorerConfig};
        let dms = dms(3);
        let explorer = Explorer::new(&dms, recency_bound(3)).with_config(ExplorerConfig {
            depth: 12,
            max_configs: 10_000,
            ..Default::default()
        });
        let verdict = explorer.run(first_stream_has_a_head());
        assert!(verdict.holds());
        assert!(verdict.stats().configs_explored > 0);
    }
}
