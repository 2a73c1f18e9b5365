//! Equivalence of the incremental session engine with the from-scratch engines.
//!
//! The serving layer's correctness claim is that answering per-transaction ("is φ still
//! satisfied after *this* step?") in flat time changes *nothing* about the verdicts: a
//! session fed a stream one step at a time must agree, step for step, with replaying the
//! whole prefix through [`RecencySemantics::execute`] and evaluating φ at the tip — and
//! an incremental violation must be a genuine counterexample the exhaustive explorer
//! also finds. These properties are pinned here on seeded random systems and streams.

use proptest::prelude::*;
use rdms::checker::{Explorer, ExplorerConfig, SessionRequest};
use rdms::core::iso::canonical_config_key;
use rdms::core::{RecencySemantics, Step};
use rdms::db::{eval, Query, RelName, Var};
use rdms::workloads::random::{random_dms, RandomDmsConfig};
use rdms::workloads::streams::TransactionStream;
use std::sync::Arc;

/// Length of each random transaction stream.
const STREAM_LEN: usize = 10;

/// "No value sits in both R0 and R1" — closed, arity-1 by construction (see
/// `max_arity: 1` below), and genuinely bistable on random systems: some streams violate
/// it, some never do, so both verdict paths get exercised.
fn invariant() -> Query {
    let u = Var::new("u");
    Query::exists(
        u,
        Query::atom(RelName::new("R0"), [u]).and(Query::atom(RelName::new("R1"), [u])),
    )
    .not()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Step-for-step: each incremental verdict equals a from-scratch replay-and-evaluate
    /// of the same prefix, and the session's configuration is the replayed one.
    #[test]
    fn incremental_verdicts_agree_with_from_scratch_replay(
        dms_seed in 0u64..1024,
        stream_seed in 0u64..1024,
        bound in 1usize..=3,
    ) {
        let config = RandomDmsConfig { max_arity: 1, seed: dms_seed, ..Default::default() };
        let dms = Arc::new(random_dms(&config));
        let invariant = invariant();
        let mut session =
            SessionRequest::new(Arc::clone(&dms), bound, invariant.clone())
                .open()
                .unwrap();
        prop_assert_eq!(session.violations(), 0, "the initial instance is empty");

        let steps: Vec<Step> = TransactionStream::new(Arc::clone(&dms), bound, stream_seed)
            .take(STREAM_LEN)
            .collect();
        let mut prefix: Vec<Step> = Vec::new();
        let mut violations_seen = 0usize;
        for step in &steps {
            let verdict = session.check(step).expect("streamed steps are valid transitions");
            prefix.push(step.clone());

            // from scratch: replay the WHOLE prefix through the semantics
            let replayed = RecencySemantics::new(&dms, bound)
                .execute(&prefix)
                .expect("the prefix replays");
            prop_assert_eq!(replayed.len(), session.run().len());
            prop_assert_eq!(
                canonical_config_key(replayed.last(), dms.constants()),
                canonical_config_key(session.run().last(), dms.constants()),
                "the session tip is the replayed configuration"
            );
            let holds_from_scratch =
                eval::holds_boolean(replayed.last().instance(), &invariant).unwrap();
            prop_assert_eq!(
                verdict.holds(),
                holds_from_scratch,
                "incremental and from-scratch verdicts diverge on this prefix"
            );

            if !verdict.holds() {
                violations_seen += 1;
                let witness = verdict.witness().expect("violations carry their witness");
                prop_assert_eq!(witness.len(), prefix.len());
            }
        }
        prop_assert_eq!(session.violations(), violations_seen);
        prop_assert_eq!(session.verdict().holds(), violations_seen == 0);
    }

    /// An incremental violation is a genuine `b`-bounded counterexample: the exhaustive
    /// explorer, searching from scratch to the witness's depth, must also refute φ.
    #[test]
    fn incremental_violations_are_found_by_the_explorer_too(
        dms_seed in 0u64..1024,
        stream_seed in 0u64..1024,
    ) {
        let bound = 2;
        let config = RandomDmsConfig { max_arity: 1, seed: dms_seed, ..Default::default() };
        let dms = Arc::new(random_dms(&config));
        let invariant = invariant();
        let mut session =
            SessionRequest::new(Arc::clone(&dms), bound, invariant.clone())
                .open()
                .unwrap();
        for step in TransactionStream::new(Arc::clone(&dms), bound, stream_seed).take(6) {
            session.check(&step).expect("streamed steps are valid transitions");
        }
        if let Some(witness) = session.first_violation() {
            let from_scratch = Explorer::new(&dms, bound)
                .with_config(ExplorerConfig {
                    depth: witness.len(),
                    max_configs: 500_000,
                    ..ExplorerConfig::default()
                })
                .run(invariant);
            prop_assert!(
                !from_scratch.holds(),
                "the explorer missed a violation the session witnessed at depth {}",
                witness.len()
            );
        }
    }
}
