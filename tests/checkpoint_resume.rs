//! Property-based oracle for checkpoint/resume equivalence: a search cut at an
//! arbitrary point and resumed from its [`SearchCheckpoint`] must reach the same
//! verdict, completeness flag and explored-set statistics as the uninterrupted run.
//!
//! The cut points are genuinely arbitrary: one harness grabs cadence snapshots from a
//! concurrently running search (whichever snapshot the race yields, resuming it must
//! converge to the reference), another cuts deterministically at the start via a
//! pre-fired deadline, and every checkpoint crosses the wire (JSON) before resuming —
//! so the byte-level artifact, not the in-process object, is what the oracle validates.

use proptest::prelude::*;
use rdms::checker::checkpoint::{CheckpointPolicy, SearchCheckpoint};
use rdms::checker::{CheckRequest, CutoffReason, Explorer, ExplorerConfig, Verdict};
use rdms::core::CancelToken;
use rdms::db::{Query, RelName, Var};
use rdms::workloads::random::{random_dms, RandomDmsConfig};

fn config(depth: usize, max_configs: usize) -> ExplorerConfig {
    ExplorerConfig {
        depth,
        max_configs,
        ..ExplorerConfig::default()
    }
}

/// The statistics the oracle compares: everything that describes *what* was explored
/// (perf fields like elapsed time and throughput legitimately differ between runs).
fn explored_set(verdict: &Verdict) -> (usize, usize, usize, bool) {
    let stats = verdict.stats();
    (
        stats.prefixes_checked,
        stats.configs_explored,
        stats.configs_deduplicated,
        verdict.holds(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cut at the start (pre-fired deadline): the stop snapshot carries the whole search,
    /// and resuming it must replay the uninterrupted run exactly.
    #[test]
    fn resume_from_a_start_cut_replays_the_full_search(seed in 0u64..64, bound in 1usize..3) {
        let dms = random_dms(&RandomDmsConfig { seed: seed % 13, ..Default::default() });
        // "R0 stays empty" — violated as soon as the bootstrap action fires, so some
        // seeds exercise the Violated path and others the exhaustive Holds path
        let u = Var::new("u");
        let invariant = Query::exists(u, Query::atom(RelName::new("R0"), [u])).not();

        let reference = Explorer::new(&dms, bound)
            .with_config(config(3, 4_000))
            .check_invariant(&invariant);

        let fired = CancelToken::new();
        fired.cancel();
        let policy = CheckpointPolicy::on_stop();
        let cut = Explorer::new(&dms, bound)
            .with_config(config(3, 4_000).with_cancel(fired).with_checkpoint(policy.clone()))
            .check_invariant(&invariant);
        prop_assert_eq!(cut.stats().cutoff, Some(CutoffReason::Cancelled));
        let checkpoint = policy.take().expect("stop snapshot");

        // the artifact must survive the wire before it counts
        let json = checkpoint.to_json();
        let restored = SearchCheckpoint::from_json(&json).expect("portable checkpoint");
        let resumed = Explorer::new(&dms, bound)
            .with_config(config(3, 4_000))
            .run(CheckRequest::invariant(invariant.clone()).from_checkpoint(restored));

        prop_assert_eq!(explored_set(&resumed), explored_set(&reference));
    }

    /// Cut mid-run: while the search runs with a cadence policy, the harness repeatedly
    /// steals whatever snapshot is in the slot. Every stolen snapshot is a consistent
    /// state of the deterministic sequential search, so resuming from *any* of them must
    /// converge to the reference verdict and explored set.
    #[test]
    fn resume_from_an_arbitrary_cadence_cut_converges(
        seed in 0u64..64,
        cadence in 1usize..40,
    ) {
        let dms = random_dms(&RandomDmsConfig { seed: seed % 13, ..Default::default() });
        // a tautology: the search always explores the whole bounded state space, so the
        // resumed run has genuine work left after any cut
        let invariant = Query::True;
        let bound = 2;

        let reference = Explorer::new(&dms, bound)
            .with_config(config(3, 4_000))
            .check_invariant(&invariant);

        let policy = CheckpointPolicy::every(cadence);
        let (full, stolen) = std::thread::scope(|scope| {
            let thief_policy = policy.clone();
            let search = scope.spawn(|| {
                Explorer::new(&dms, bound)
                    .with_config(config(3, 4_000).with_checkpoint(policy.clone()))
                    .check_invariant(&invariant)
            });
            let mut stolen: Option<SearchCheckpoint> = None;
            while !search.is_finished() {
                if let Some(snapshot) = thief_policy.take() {
                    stolen = Some(snapshot);
                }
                std::thread::yield_now();
            }
            let full = search.join().expect("search thread");
            // whichever snapshot was last stolen — or, if the search outran the thief,
            // the final stop snapshot — must resume to the same place
            (full, stolen.or_else(|| thief_policy.take()))
        });
        prop_assert_eq!(explored_set(&full), explored_set(&reference));
        let stolen = stolen.expect("some snapshot");

        let restored =
            SearchCheckpoint::from_json(&stolen.to_json()).expect("portable checkpoint");
        let resumed = Explorer::new(&dms, bound)
            .with_config(config(3, 4_000))
            .run(CheckRequest::invariant(invariant.clone()).from_checkpoint(restored));
        prop_assert_eq!(explored_set(&resumed), explored_set(&reference));
    }

    /// Memory budgets never abort and never fake exhaustiveness, for arbitrary byte-level
    /// budget cut points: sweeping the budget from starved to roomy, every verdict is
    /// honest (`complete` only without a cutoff) and the meter respects the budget.
    #[test]
    fn memory_budgets_are_honest_at_any_byte_level(
        seed in 0u64..64,
        budget in 0usize..20_000,
    ) {
        let dms = random_dms(&RandomDmsConfig { seed: seed % 13, ..Default::default() });
        let verdict = Explorer::new(&dms, 2)
            .with_config(config(3, 4_000).with_memory_budget_bytes(budget))
            .check_invariant(&Query::True);
        let stats = verdict.stats();
        prop_assert!(stats.peak_memory_bytes <= budget);
        match &verdict {
            Verdict::Holds { complete, .. } => {
                if *complete {
                    prop_assert!(!stats.memory_cutoff);
                    prop_assert_eq!(stats.cutoff, None);
                }
                if stats.memory_cutoff {
                    // a memory cutoff is always reported (nothing outranks it here) and
                    // never lets the verdict claim exhaustiveness
                    prop_assert_eq!(stats.cutoff, Some(CutoffReason::Memory));
                    prop_assert!(!*complete);
                }
            }
            Verdict::Violated { .. } => {}
        }
    }
}
