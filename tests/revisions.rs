//! Oracle tests for the revision-keyed workspace (`rdms::checker::Workspace`).
//!
//! The workspace promises that every reuse strategy — cached verdicts, carried
//! violations, bound-bump seeding, explored-set re-evaluation, delta re-expansion — is
//! *observationally invisible*: after any sequence of edits, `check()` returns the same
//! verdict (and, for complete `Holds`, the same distinct-state count) as a from-scratch
//! [`Explorer`] run on the current inputs. The proptest below drives random edit
//! sequences over a family of Example 3.1 variants and compares every step against the
//! scratch oracle; the unit tests pin the individual reuse strategies.

use proptest::prelude::*;
use rdms::checker::{CutoffReason, Explorer, ExplorerConfig, Reuse, Verdict, Workspace};
use rdms::core::dms::example_3_1;
use rdms::core::{ActionBuilder, Dms, DmsBuilder};
use rdms::db::parser::parse_query;
use rdms::db::{Pattern, Query, RelName, Term, Var};

/// Depth and node budgets shared by the workspace and the scratch oracle. The node
/// budget is generous on purpose: under a budget cutoff the explored fragment depends
/// on pop order, so seeded and scratch runs may legitimately disagree — the oracle
/// guarantee only covers saturating explorations (see the workspace module docs).
const DEPTH: usize = 5;
const MAX_CONFIGS: usize = 100_000;

/// Closed invariants the edit sequences swap between.
const INVARIANTS: &[&str] = &[
    "true",
    "!exists u. Q(u)",
    "!exists u. R(u) & Q(u)",
    "exists u. R(u)",
];

/// An Example 3.1 variant: β's guard is one of four shapes (all keeping `u` as the sole
/// parameter) and an optional ω action deletes one `Q` fact.
fn variant(beta_guard: u8, omega: bool) -> Dms {
    let r = |s: &str| RelName::new(s);
    let v = |s: &str| Var::new(s);

    let alpha = ActionBuilder::new("alpha")
        .fresh([v("v1"), v("v2"), v("v3")])
        .guard(Query::True)
        .add(Pattern::from_facts([
            (r("R"), vec![Term::Var(v("v1"))]),
            (r("R"), vec![Term::Var(v("v2"))]),
            (r("Q"), vec![Term::Var(v("v3"))]),
            (r("p"), vec![]),
        ]));

    let guard = match beta_guard % 4 {
        0 => Query::prop(r("p")).and(Query::atom(r("R"), [v("u")])),
        1 => Query::prop(r("p")).and(Query::atom(r("Q"), [v("u")])),
        2 => {
            Query::prop(r("p")).and(Query::atom(r("R"), [v("u")]).or(Query::atom(r("Q"), [v("u")])))
        }
        _ => Query::prop(r("p"))
            .and(Query::atom(r("R"), [v("u")]))
            .and(Query::atom(r("Q"), [v("u")]).not()),
    };
    let beta = ActionBuilder::new("beta")
        .fresh([v("v1"), v("v2")])
        .guard(guard)
        .del(Pattern::from_facts([
            (r("p"), vec![]),
            (r("R"), vec![Term::Var(v("u"))]),
        ]))
        .add(Pattern::from_facts([
            (r("Q"), vec![Term::Var(v("v1"))]),
            (r("Q"), vec![Term::Var(v("v2"))]),
        ]));

    let gamma = ActionBuilder::new("gamma")
        .guard(Query::prop(r("p")).and(Query::atom(r("Q"), [v("u")]).not()))
        .del(Pattern::from_facts([
            (r("p"), vec![]),
            (r("R"), vec![Term::Var(v("u"))]),
        ]));

    let mut builder = DmsBuilder::new()
        .proposition("p")
        .relation("R", 1)
        .relation("Q", 1)
        .initially_true("p")
        .action(alpha)
        .action(beta)
        .action(gamma);
    if omega {
        builder = builder.action(
            ActionBuilder::new("omega")
                .guard(Query::atom(r("Q"), [v("u")]))
                .del(Pattern::from_facts([(r("Q"), vec![Term::Var(v("u"))])])),
        );
    }
    builder.build().expect("every variant is a valid DMS")
}

fn scratch_config() -> ExplorerConfig {
    ExplorerConfig {
        depth: DEPTH,
        max_configs: MAX_CONFIGS,
        ..ExplorerConfig::default()
    }
}

fn is_complete(verdict: &Verdict) -> bool {
    matches!(verdict, Verdict::Holds { complete: true, .. })
}

/// Check `invariant` on `dms` from scratch: the oracle the workspace must agree with.
fn scratch(dms: &Dms, bound: usize, invariant: &Query) -> (bool, Option<usize>) {
    let explorer = Explorer::new(dms, bound).with_config(scratch_config());
    let verdict = explorer.run(invariant.clone());
    let complete_holds = is_complete(&verdict);
    let count = complete_holds.then(|| {
        let counter = Explorer::new(dms, bound).with_config(scratch_config());
        let (count, saturated) = counter.reachable_state_count();
        assert!(saturated, "a complete Holds implies a saturating search");
        count
    });
    (verdict.holds(), count)
}

/// One random edit: which knob to turn and the value to turn it to.
#[derive(Clone, Copy, Debug)]
enum Edit {
    BetaGuard(u8),
    ToggleOmega,
    Bound(usize),
    Invariant(usize),
    NoOp,
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    (0u8..5, 0u8..12).prop_map(|(kind, arg)| match kind {
        0 => Edit::BetaGuard(arg % 4),
        1 => Edit::ToggleOmega,
        2 => Edit::Bound(1 + (arg as usize) % 3),
        3 => Edit::Invariant((arg as usize) % INVARIANTS.len()),
        _ => Edit::NoOp,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every edit in a random sequence, the workspace's verdict — however much it
    /// reused — matches a from-scratch exploration of the current inputs, and complete
    /// `Holds` verdicts agree on the explored-state count.
    #[test]
    fn workspace_matches_scratch_explorer_under_random_edits(
        edits in proptest::collection::vec(edit_strategy(), 1..8)
    ) {
        let mut guard_choice = 0u8;
        let mut omega = false;
        let mut bound = 2usize;
        let mut inv_idx = 1usize; // "!exists u. Q(u)"

        let mut ws = Workspace::new(
            variant(guard_choice, omega),
            bound,
            parse_query(INVARIANTS[inv_idx]).unwrap(),
        )
        .with_depth(DEPTH)
        .with_max_configs(MAX_CONFIGS);

        for edit in edits {
            match edit {
                Edit::BetaGuard(g) => {
                    guard_choice = g;
                    ws.set_dms(variant(guard_choice, omega));
                }
                Edit::ToggleOmega => {
                    omega = !omega;
                    ws.set_dms(variant(guard_choice, omega));
                }
                Edit::Bound(b) => {
                    bound = b;
                    ws.set_bound(bound);
                }
                Edit::Invariant(i) => {
                    inv_idx = i;
                    ws.set_target(parse_query(INVARIANTS[inv_idx]).unwrap());
                }
                Edit::NoOp => {
                    // value-identical inputs must be backdated, not treated as new
                    let before = ws.revision();
                    ws.set_dms(variant(guard_choice, omega));
                    prop_assert_eq!(ws.revision(), before);
                }
            }
            let verdict = ws.check();
            let invariant = parse_query(INVARIANTS[inv_idx]).unwrap();
            let (oracle_holds, oracle_count) =
                scratch(&variant(guard_choice, omega), bound, &invariant);
            prop_assert_eq!(
                verdict.holds(),
                oracle_holds,
                "verdict diverged after {:?} (reuse: {:?})",
                edit,
                ws.last_report().reuse
            );
            if let Some(count) = oracle_count {
                prop_assert_eq!(
                    ws.distinct_states(),
                    Some(count),
                    "state count diverged after {:?} (reuse: {:?})",
                    edit,
                    ws.last_report().reuse
                );
            }
        }
    }
}

/// A value-identical edit must not re-expand anything: the verdict comes straight from
/// the memo table in O(1).
#[test]
fn noop_edit_returns_the_cached_verdict_without_re_expansion() {
    let mut ws = Workspace::new(
        variant(0, false),
        2,
        parse_query("!exists u. Q(u)").unwrap(),
    )
    .with_depth(DEPTH)
    .with_max_configs(MAX_CONFIGS);
    let first = ws.check();

    let before = ws.revision();
    ws.set_dms(variant(0, false)); // fingerprint-identical: backdated
    ws.set_bound(2); // value-identical: backdated
    assert_eq!(
        ws.revision(),
        before,
        "no-op edits must not advance the revision"
    );

    let second = ws.check();
    let report = ws.last_report();
    assert_eq!(report.reuse, Reuse::CachedVerdict);
    assert_eq!(report.re_expansions, 0, "a no-op edit re-expands nothing");
    assert_eq!(report.actions_recomputed, 0);
    assert_eq!(first.holds(), second.holds());
}

/// Raising the bound k→k+1 seeds the new search from the k-explored set and still
/// agrees with a from-scratch run at k+1.
#[test]
fn bound_bump_seeds_from_the_explored_set() {
    let invariant = parse_query("true").unwrap();
    let mut ws = Workspace::new(variant(0, false), 1, invariant.clone())
        .with_depth(DEPTH)
        .with_max_configs(MAX_CONFIGS);
    assert!(ws.check().holds());

    ws.set_bound(2);
    let verdict = ws.check();
    assert_eq!(
        ws.last_report().reuse,
        Reuse::BoundSeeded { from_bound: 1 },
        "the k-explored set seeds the k+1 search"
    );
    let (oracle_holds, oracle_count) = scratch(&variant(0, false), 2, &invariant);
    assert_eq!(verdict.holds(), oracle_holds);
    if let Some(count) = oracle_count {
        assert_eq!(ws.distinct_states(), Some(count));
    }
}

/// Changing only the invariant re-evaluates φ over the memoized explored set: no search,
/// no re-expansions, same verdict as scratch.
#[test]
fn target_edit_reuses_the_explored_set_without_searching() {
    let mut ws = Workspace::new(variant(0, false), 2, parse_query("true").unwrap())
        .with_depth(DEPTH)
        .with_max_configs(MAX_CONFIGS);
    assert!(ws.check().holds());

    for text in [
        "!exists u. Q(u)",
        "exists u. R(u)",
        "!exists u. R(u) & Q(u)",
    ] {
        let invariant = parse_query(text).unwrap();
        ws.set_target(invariant.clone());
        let verdict = ws.check();
        assert_eq!(
            ws.last_report().reuse,
            Reuse::ExploredSetReused,
            "invariant-only edits re-evaluate, never re-search ({text})"
        );
        assert_eq!(ws.last_report().re_expansions, 0);
        let (oracle_holds, _) = scratch(&variant(0, false), 2, &invariant);
        assert_eq!(verdict.holds(), oracle_holds, "under {text}");
    }
}

/// A guard edit triggers delta re-expansion — per-action edge reuse for unchanged
/// actions — and the result still matches scratch.
#[test]
fn guard_edit_delta_reexpansion_matches_scratch() {
    // a holding invariant, so every search saturates and memoizes its explored set —
    // a violating search breaks early and leaves nothing for the next edit to reuse
    let invariant = parse_query("true").unwrap();
    let mut ws = Workspace::new(variant(0, false), 2, invariant.clone())
        .with_depth(DEPTH)
        .with_max_configs(MAX_CONFIGS);
    let _ = ws.check();

    for g in [1u8, 2, 3, 0] {
        ws.set_dms(variant(g, false));
        let verdict = ws.check();
        assert!(
            matches!(
                ws.last_report().reuse,
                Reuse::DeltaReExpansion | Reuse::CachedVerdict
            ),
            "guard edits re-expand against the donor set (got {:?})",
            ws.last_report().reuse
        );
        let (oracle_holds, oracle_count) = scratch(&variant(g, false), 2, &invariant);
        assert_eq!(verdict.holds(), oracle_holds, "guard variant {g}");
        if let Some(count) = oracle_count {
            assert_eq!(ws.distinct_states(), Some(count), "guard variant {g}");
        }
    }
}

/// A workspace search reports the statistics a scratch explorer run reports: the same
/// cutoff reason and completeness under any configuration budget, and the per-search
/// sharing and index counters.
#[test]
fn workspace_search_statistics_agree_with_the_explorer() {
    let depth = 4;
    for (max_configs, cutoff) in [(3, Some(CutoffReason::Configs)), (MAX_CONFIGS, None)] {
        let mut ws = Workspace::new(example_3_1(), 2, Query::True)
            .with_depth(depth)
            .with_max_configs(max_configs);
        let verdict = ws.check();
        assert_eq!(ws.last_report().reuse, Reuse::FullRun);
        let dms = example_3_1();
        let scratch = Explorer::new(&dms, 2)
            .with_config(ExplorerConfig {
                depth,
                max_configs,
                ..ExplorerConfig::default()
            })
            .run(Query::True);
        let stats = verdict.stats();
        assert_eq!(stats.cutoff, cutoff, "max_configs={max_configs}");
        assert_eq!(scratch.stats().cutoff, cutoff, "max_configs={max_configs}");
        assert_eq!(
            is_complete(&verdict),
            is_complete(&scratch),
            "max_configs={max_configs}"
        );
        if cutoff.is_none() {
            assert!(stats.relations_shared > 0, "{stats:?}");
        }
    }

    // the booking agency's guards probe relation indexes (`example_3_1`'s never do); a
    // fresh system per search, so neither search starts from caches the other warmed
    let booking = || rdms::workloads::booking::build(&Default::default()).dms;
    let verdict = Workspace::new(booking(), 3, Query::True)
        .with_depth(3)
        .with_max_configs(MAX_CONFIGS)
        .check();
    let dms = booking();
    let scratch = Explorer::new(&dms, 3)
        .with_config(ExplorerConfig {
            depth: 3,
            max_configs: MAX_CONFIGS,
            ..ExplorerConfig::default()
        })
        .run(Query::True);
    for stats in [verdict.stats(), scratch.stats()] {
        assert!(stats.index_probes > 0, "{stats:?}");
        assert!(
            stats.index_hit_rate > 0.0 && stats.index_hit_rate < 1.0,
            "{stats:?}"
        );
    }
}
