//! The reduction-faithful ("hybrid") engine.
//!
//! The paper's decision procedure is: encode runs as nested words, characterise the valid
//! encodings with `ϕ_valid`, translate the specification to `⌊ψ⌋`, and decide satisfiability
//! of `ϕ_valid ∧ ¬⌊ψ⌋` over nested words (Section 6.6). That satisfiability check is
//! non-elementary, so this engine keeps the *shape* of the reduction while staying tractable:
//!
//! * the valid-encoding side is enumerated (every explored prefix is encoded with
//!   [`RunEncoder::encode`], which produces exactly the words satisfying `ϕ_valid`),
//! * the property side uses the genuine Section 6.5 translation `⌊ψ⌋`, evaluated with the
//!   MSO_NW semantics on each encoding (for the propositional fragment, where the translation
//!   avoids the `Eq` machinery),
//! * [`HybridChecker::reduction_formula`] additionally assembles the full
//!   `ϕ_valid ∧ ¬⌊ψ⌋` sentence — the exact object whose satisfiability Theorem 5.1 decides —
//!   so that its size/shape can be inspected and benchmarked (E2), and compiled with the VPA
//!   pipeline on very small instances if one insists.
//!
//! Because both the encoding-level evaluation and the run-level evaluation are available,
//! the engine doubles as a cross-validation harness for the translation (that is what the
//! integration tests use it for).

use crate::encoding::RunEncoder;
use crate::explorer::{ExplorerConfig, SearchDriver};
use crate::formulas::Formulas;
use crate::phi_valid::PhiValid;
use crate::translate::Translator;
use crate::verdict::Verdict;
use rdms_core::{Dms, ExtendedRun, RecencySemantics};
use rdms_logic::msofo::MsoFo;
use rdms_nested::mso::MsoNw;

/// The hybrid engine for one DMS / recency bound.
pub struct HybridChecker<'a> {
    dms: &'a Dms,
    b: usize,
    depth: usize,
}

impl<'a> HybridChecker<'a> {
    /// Create a checker with a depth budget.
    pub fn new(dms: &'a Dms, b: usize, depth: usize) -> HybridChecker<'a> {
        HybridChecker { dms, b, depth }
    }

    /// The full reduction sentence `ϕ_valid^{b,S} ∧ ¬⌊ψ⌋` of Section 6.6 (constructed, not
    /// compiled). Its satisfiability over nested words is equivalent to the existence of a
    /// `b`-bounded run violating `ψ`.
    pub fn reduction_formula(&self, property: &MsoFo) -> MsoNw {
        let encoder = RunEncoder::new(self.dms, self.b);
        let formulas = Formulas::new(self.dms, encoder.alphabet());
        let phi_valid = PhiValid::new(self.dms, &formulas).build();
        let translated = Translator::new(&formulas).specification(property);
        phi_valid.and(translated.not())
    }

    /// Check a **propositional** MSO-FO property by running the reduction on every explored
    /// prefix: encode the prefix, evaluate the translated `⌊ψ⌋` on the encoding. A prefix
    /// whose encoding refutes `⌊ψ⌋` is returned as a counterexample.
    ///
    /// The data-quantified fragment needs the `Eq` machinery, which cannot be evaluated
    /// directly; use the [`crate::explorer`] engine for it.
    pub fn check(&self, property: &MsoFo) -> Verdict {
        let encoder = RunEncoder::new(self.dms, self.b);
        let formulas = Formulas::new(self.dms, encoder.alphabet());
        let translated = Translator::new(&formulas).specification(property);

        let driver = SearchDriver::new(
            self.dms,
            self.b,
            ExplorerConfig {
                depth: self.depth,
                max_configs: 5_000,
                ..Default::default()
            },
            false,
        );
        let outcome = driver.search(
            ExtendedRun::new(self.dms.initial_bconfig()),
            |run: &ExtendedRun| {
                let word = encoder
                    .encode(run)
                    .expect("explored prefixes are b-bounded");
                !rdms_nested::eval::eval_sentence(&word, &translated)
            },
        );
        match outcome.hit {
            Some(counterexample) => Verdict::Violated {
                counterexample,
                stats: outcome.stats,
                certificate: None,
            },
            None => Verdict::Holds {
                complete: !outcome.budget_cutoff && !outcome.cancelled,
                stats: outcome.stats,
                certificate: None,
            },
        }
    }

    /// Cross-validate the Section 6.5 translation on every explored prefix: the translated
    /// formula evaluated on the encoding must agree with the MSO-FO semantics evaluated on
    /// the decoded run (restricted to the positions the encoding covers). Returns the number
    /// of prefixes checked; panics on the first disagreement (test harness helper).
    pub fn cross_validate(&self, property: &MsoFo) -> usize {
        let encoder = RunEncoder::new(self.dms, self.b);
        let formulas = Formulas::new(self.dms, encoder.alphabet());
        let translated = Translator::new(&formulas).specification(property);

        let sem = RecencySemantics::new(self.dms, self.b);
        let mut stack = vec![ExtendedRun::new(self.dms.initial_bconfig())];
        let mut checked = 0;
        while let Some(run) = stack.pop() {
            let word = encoder
                .encode(&run)
                .expect("explored prefixes are b-bounded");
            let on_word = rdms_nested::eval::eval_sentence(&word, &translated);
            // positions of the encoding denote the instances *before* each block (plus I₀)
            let instances = run.instances();
            let covered = if run.is_empty() {
                &instances[..1]
            } else {
                &instances[..run.len()]
            };
            let on_run = rdms_logic::msofo::eval_sentence(covered, property);
            assert_eq!(
                on_word,
                on_run,
                "translation disagreement on a {}-step prefix for {property:?}",
                run.len()
            );
            checked += 1;
            if run.len() >= self.depth {
                continue;
            }
            for (step, next) in sem.successors(run.last()).expect("successors") {
                let mut extended = run.clone();
                extended.push(step, next);
                stack.push(extended);
            }
        }
        checked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdms_core::dms::example_3_1;
    use rdms_db::{Query, RelName};
    use rdms_logic::templates;

    fn r(name: &str) -> RelName {
        RelName::new(name)
    }

    #[test]
    fn hybrid_and_explorer_agree_on_propositional_properties() {
        let dms = example_3_1();
        // the encoding's positions denote the instances *before* each block, so a depth-(k+1)
        // hybrid exploration covers the same instances as a depth-k explorer run
        let hybrid = HybridChecker::new(&dms, 2, 3);
        let explorer =
            crate::explorer::Explorer::new(&dms, 2).with_config(crate::explorer::ExplorerConfig {
                depth: 2,
                max_configs: 2_000,
                ..Default::default()
            });

        for property in [
            templates::invariant(Query::prop(r("p"))),
            templates::never(r("p")),
            templates::proposition_reachable(r("p")),
        ] {
            let via_hybrid = hybrid.check(&property).holds();
            let via_explorer = explorer.run(property.clone()).holds();
            // NB: the engines use slightly different prefix semantics (the hybrid engine's
            // positions exclude the final instance), so we only require agreement on the
            // verdict for these state-insensitive properties, which is what the paper's
            // reduction guarantees.
            assert_eq!(via_hybrid, via_explorer, "{property:?}");
        }
    }

    #[test]
    fn hybrid_counterexamples_are_b_bounded_runs() {
        let dms = example_3_1();
        let hybrid = HybridChecker::new(&dms, 2, 3);
        let verdict = hybrid.check(&templates::invariant(Query::prop(r("p"))));
        assert!(!verdict.holds());
        let cex = verdict.counterexample().unwrap();
        assert!(RecencySemantics::new(&dms, 2).is_b_bounded(cex));
    }

    #[test]
    fn cross_validation_of_the_translation_over_all_short_prefixes() {
        let dms = example_3_1();
        let hybrid = HybridChecker::new(&dms, 2, 2);
        let checked = hybrid.cross_validate(&templates::never(r("p")));
        assert!(
            checked >= 5,
            "should cover several prefixes, covered {checked}"
        );
    }

    #[test]
    fn reduction_formula_is_a_sentence() {
        let dms = example_3_1();
        let hybrid = HybridChecker::new(&dms, 1, 2);
        let formula = hybrid.reduction_formula(&templates::never(r("p")));
        assert!(formula.free_vars().is_empty());
        assert!(formula.size() > 1_000);
    }
}
