//! E16 — incremental re-verification: what the revision workspace's reuse strategies
//! buy over checking edited inputs from scratch.
//!
//! Workload: the permit-capped inventory system (`inventory::finite_dms`, quadratic
//! `reserve` branching, finite reachable space) under the ledger-consistency invariant
//! [`inventory::lifecycle_stages_are_exclusive`] — seven quantified conjuncts, three of
//! them four-variable joins, so per-state φ-evaluation is a real cost the φ-memo can
//! actually recover. All legs run the same depth/budget, and the permit cap guarantees
//! every exploration saturates (only saturating searches memoize an explored set, so
//! nothing here depends on luck).
//!
//! Legs and their committed locks:
//!
//! * `recheck/noop` vs `recheck/full` — a value-identical `set_dms` edit followed by
//!   `check()` (an exact-key memo hit) vs a from-scratch workspace run on the same
//!   inputs. The baseline locks `noop ≤ 0.05 × full`: a no-op edit must be answered
//!   from the memo in effectively O(1), never by re-searching.
//! * `recheck/bound_seed` vs `recheck/scratch_k_plus_1` — bumping the recency bound
//!   k → k+1 on a workspace that already explored k (the k-set seeds the k+1 frontier
//!   and the φ-memo answers every re-visited state) vs a cold workspace at k+1. The
//!   baseline locks `bound_seed ≤ 0.75 × scratch_k_plus_1` — seeding must recover a
//!   real fraction of the larger search, or the memo is dead weight.
//! * `recheck/guard_edit` — a one-guard edit (`cancel` gated on the dock, every other
//!   action fingerprint-identical) re-checked by delta re-expansion with per-action
//!   edge reuse. Tracked against its own baseline; no ratio lock, since how much an
//!   edit invalidates is workload-dependent.
//!
//! The correctness oracle — every reused verdict and state count must equal the
//! from-scratch explorer's — is asserted once outside the timing loops (the E15 idiom),
//! so a broken reuse strategy cannot hide behind fast numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdms_checker::{Explorer, ExplorerConfig, Reuse, Verdict, Workspace};
use rdms_workloads::inventory;

/// Fresh items per `receive` batch. Two-wide batches accumulate a large active domain
/// relative to the recency window, which is what makes per-state φ-evaluation (quantifiers
/// range over the whole domain) a significant fraction of search cost — the fraction the
/// bound_seed leg's φ-memo recovers.
const WIDTH: usize = 2;
/// Size of the permit pool capping `receive`/`place_order` (what makes the space finite).
const PERMITS: usize = 3;
/// The edit sequence's starting recency bound (the k of k → k+1).
const BOUND: usize = 3;
/// Depth budget — far beyond the capped graph's diameter, so saturation is frontier-driven.
const DEPTH: usize = 64;
/// Node budget — generous, so no exploration is budget-cut.
const MAX_CONFIGS: usize = 2_000_000;

fn base_dms() -> rdms_core::Dms {
    inventory::finite_dms(WIDTH, PERMITS)
}

fn edited_dms() -> rdms_core::Dms {
    inventory::finite_dms_with_gated_cancel(WIDTH, PERMITS)
}

fn invariant() -> rdms_db::Query {
    inventory::lifecycle_stages_are_exclusive()
}

fn workspace(bound: usize) -> Workspace {
    Workspace::new(base_dms(), bound, invariant())
        .with_depth(DEPTH)
        .with_max_configs(MAX_CONFIGS)
}

fn scratch_config() -> ExplorerConfig {
    ExplorerConfig {
        depth: DEPTH,
        max_configs: MAX_CONFIGS,
        ..ExplorerConfig::default()
    }
}

/// The oracle: every workspace strategy must agree with a from-scratch explorer on
/// verdict and (for complete Holds) on the explored-state count.
fn assert_reuse_is_exact() {
    let scratch = |dms: &rdms_core::Dms, bound: usize| {
        let verdict = Explorer::new(dms, bound)
            .with_config(scratch_config())
            .run(invariant());
        assert!(
            matches!(verdict, Verdict::Holds { complete: true, .. }),
            "the E16 invariant must hold exhaustively, got {verdict}"
        );
        let (count, saturated) = Explorer::new(dms, bound)
            .with_config(scratch_config())
            .reachable_state_count();
        assert!(saturated);
        count
    };

    let mut ws = workspace(BOUND);
    assert!(ws.check().holds());
    assert_eq!(ws.last_report().reuse, Reuse::FullRun);
    assert_eq!(
        ws.distinct_states(),
        Some(scratch(&base_dms(), BOUND)),
        "full run diverged from scratch at k"
    );

    // no-op edit: memo hit, nothing re-expanded
    let mut noop = ws.clone();
    noop.set_dms(base_dms());
    assert!(noop.check().holds());
    assert_eq!(noop.last_report().reuse, Reuse::CachedVerdict);
    assert_eq!(noop.last_report().re_expansions, 0);

    // bound bump: seeded, still exact at k+1
    let mut bumped = ws.clone();
    bumped.set_bound(BOUND + 1);
    assert!(bumped.check().holds());
    assert_eq!(
        bumped.last_report().reuse,
        Reuse::BoundSeeded { from_bound: BOUND }
    );
    assert_eq!(
        bumped.distinct_states(),
        Some(scratch(&base_dms(), BOUND + 1)),
        "seeded k+1 diverged from scratch k+1"
    );

    // one-guard edit: delta re-expansion with edge reuse, still exact
    let mut edited = ws.clone();
    edited.set_dms(edited_dms());
    assert!(edited.check().holds());
    assert_eq!(edited.last_report().reuse, Reuse::DeltaReExpansion);
    assert!(
        edited.last_report().edges_reused > 0,
        "unchanged actions must reuse their cached edges"
    );
    assert_eq!(
        edited.distinct_states(),
        Some(scratch(&edited_dms(), BOUND)),
        "delta re-expansion diverged from scratch on the edited DMS"
    );
}

fn bench_recheck(c: &mut Criterion) {
    assert_reuse_is_exact();

    // warmed once: the donor state every edit leg starts from
    let mut warmed = workspace(BOUND);
    assert!(warmed.check().holds());
    let noop_edit = base_dms();
    let guard_edit = edited_dms();

    let mut group = c.benchmark_group("e16_incremental_revisions");
    // the ms-scale legs need tens of iterations per measurement, or a single scheduler
    // hiccup dominates the mean and the committed ratio locks turn flaky; the iteration
    // floor keeps that true even under the CI smoke budget (CRITERION_MEASURE_MS=25)
    group.measurement_time(std::time::Duration::from_secs(6));
    group.min_iterations(16);

    group.bench_with_input(BenchmarkId::new("recheck", "noop"), &(), |bench, ()| {
        bench.iter(|| {
            // the full no-op round trip: re-submit a value-identical DMS, re-check
            warmed.set_dms(noop_edit.clone());
            warmed.check().holds()
        })
    });

    group.bench_with_input(BenchmarkId::new("recheck", "full"), &(), |bench, ()| {
        bench.iter(|| {
            let mut ws = workspace(BOUND);
            ws.check().holds()
        })
    });

    group.bench_with_input(
        BenchmarkId::new("recheck", "bound_seed"),
        &(),
        |bench, ()| {
            bench.iter(|| {
                // the clone is part of the measured cost: it is what keeps the donor
                // warm at k so every iteration performs the same k → k+1 bump
                let mut ws = warmed.clone();
                ws.set_bound(BOUND + 1);
                ws.check().holds()
            })
        },
    );

    group.bench_with_input(
        BenchmarkId::new("recheck", "scratch_k_plus_1"),
        &(),
        |bench, ()| {
            bench.iter(|| {
                let mut ws = workspace(BOUND + 1);
                ws.check().holds()
            })
        },
    );

    group.bench_with_input(
        BenchmarkId::new("recheck", "guard_edit"),
        &(),
        |bench, ()| {
            bench.iter(|| {
                let mut ws = warmed.clone();
                ws.set_dms(guard_edit.clone());
                ws.check().holds()
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_recheck);
criterion_main!(benches);
