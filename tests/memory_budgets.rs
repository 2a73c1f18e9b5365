//! Property-based oracle for explorer memory budgets: for any byte-level budget, a
//! search never aborts and never claims an exhaustive verdict it did not earn.

use proptest::prelude::*;
use rdms::checker::{CutoffReason, Explorer, ExplorerConfig, Verdict};
use rdms::db::Query;
use rdms::workloads::random::{random_dms, RandomDmsConfig};

fn config(depth: usize, max_configs: usize) -> ExplorerConfig {
    ExplorerConfig {
        depth,
        max_configs,
        ..ExplorerConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

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
            .run(Query::True);
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
