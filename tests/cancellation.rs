//! Cooperative cancellation and deadlines, end to end: a [`CancelToken`] stops the
//! explorer's search loops and surfaces as an *honest* verdict (`Holds { complete: false }`,
//! never a claim of exhaustiveness), and a per-check deadline on a service [`Session`]
//! rejects with the stable `deadline-exceeded` code while leaving the session untouched.

use rdms::checker::{Explorer, ExplorerConfig, Verdict};
use rdms::core::dms::example_3_1;
use rdms::core::CancelToken;
use rdms::db::parser::parse_query;
use rdms_serve::{CheckOutcome, Session};
use std::collections::BTreeMap;
use std::time::Duration;

/// A token cancelled before the search starts: the explorer must stop immediately and
/// must NOT report the exploration as complete — cancellation degrades coverage, never
/// soundness.
#[test]
fn a_pre_cancelled_search_is_reported_incomplete() {
    let dms = example_3_1();
    let invariant = parse_query("true").unwrap();
    let cancel = CancelToken::new();
    cancel.cancel();
    let explorer =
        Explorer::new(&dms, 2).with_config(ExplorerConfig::default().with_cancel(cancel));
    match explorer.run(invariant) {
        Verdict::Holds { complete, .. } => {
            assert!(
                !complete,
                "a cancelled search must not claim exhaustiveness"
            )
        }
        other => panic!("expected an incomplete Holds, got {other:?}"),
    }
}

/// An already-expired deadline behaves exactly like explicit cancellation.
#[test]
fn an_expired_deadline_is_reported_incomplete() {
    let dms = example_3_1();
    let invariant = parse_query("true").unwrap();
    let explorer =
        Explorer::new(&dms, 2).with_config(ExplorerConfig::default().with_deadline(Duration::ZERO));
    match explorer.run(invariant) {
        Verdict::Holds { complete, .. } => assert!(!complete),
        other => panic!("expected an incomplete Holds, got {other:?}"),
    }
}

/// The control: an unfired token must not perturb the search at all — the sequential
/// engine with and without a live token explores the identical space and reaches the
/// identical verdict.
#[test]
fn an_unfired_token_does_not_perturb_the_search() {
    let dms = example_3_1();
    let invariant = parse_query("true").unwrap();
    let config = || ExplorerConfig {
        depth: 3,
        max_configs: 20_000,
        ..ExplorerConfig::default()
    };
    let with_token = Explorer::new(&dms, 2).with_config(config().with_cancel(CancelToken::new()));
    let without_token = Explorer::new(&dms, 2).with_config(config());
    match (
        with_token.run(invariant.clone()),
        without_token.run(invariant),
    ) {
        (
            Verdict::Holds {
                complete: c1,
                stats: s1,
                ..
            },
            Verdict::Holds {
                complete: c2,
                stats: s2,
                ..
            },
        ) => {
            assert_eq!(c1, c2, "an unfired token must not cost coverage");
            assert_eq!(s1.configs_explored, s2.configs_explored);
            assert_eq!(s1.prefixes_checked, s2.prefixes_checked);
        }
        (a, b) => panic!("expected two Holds verdicts, got {a:?} / {b:?}"),
    }
}

/// A pre-cancelled search stops before expanding anything: the cost of answering a
/// request whose deadline already passed is O(1), not one more exploration.
#[test]
fn a_pre_cancelled_search_does_no_work() {
    let dms = example_3_1();
    let invariant = parse_query("true").unwrap();
    let cancel = CancelToken::new();
    cancel.cancel();
    let explorer =
        Explorer::new(&dms, 2).with_config(ExplorerConfig::default().with_cancel(cancel));
    match explorer.run(invariant) {
        Verdict::Holds { stats, .. } => assert!(
            stats.configs_explored <= 1,
            "a pre-cancelled search expanded {} configurations",
            stats.configs_explored
        ),
        other => panic!("expected Holds, got {other:?}"),
    }
}

/// The service layer: a session whose per-check budget is already spent rejects with the
/// stable `deadline-exceeded` code, and — like every rejection — leaves the session's
/// state exactly as it was (the transaction is not half-applied).
#[test]
fn a_spent_check_budget_rejects_without_applying() {
    let mut session = Session::open(example_3_1(), 2, "true", false)
        .unwrap()
        .with_deadline(Some(Duration::ZERO));
    let bindings = BTreeMap::from([
        ("v1".to_string(), 1u64),
        ("v2".to_string(), 2),
        ("v3".to_string(), 3),
    ]);
    match session.check("alpha", &bindings) {
        CheckOutcome::Rejected { code, .. } => assert_eq!(code.as_str(), "deadline-exceeded"),
        other => panic!("expected deadline-exceeded, got {other:?}"),
    }
    assert_eq!(
        session.transactions(),
        0,
        "the rejected step was not applied"
    );

    // lifting the deadline immediately restores service on the same session
    let mut session = session.with_deadline(None);
    assert!(matches!(
        session.check("alpha", &bindings),
        CheckOutcome::Ok { run_len: 1, .. }
    ));
}
