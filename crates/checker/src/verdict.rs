//! Verdicts, counterexamples and statistics produced by the checking engines.

use rdms_core::cert::Certificate;
use rdms_core::ExtendedRun;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// The outcome of a recency-bounded model-checking query
/// ("does every `b`-bounded run satisfy φ?", explored up to a depth bound).
#[derive(Clone, Debug)]
pub enum Verdict {
    /// A `b`-bounded run prefix violating the property was found.
    Violated {
        /// The violating run prefix (a genuine `b`-bounded behaviour of the DMS).
        counterexample: ExtendedRun,
        /// Exploration statistics.
        stats: CheckStats,
        /// A replayable `Violation` certificate, when the search recorded one (invariant
        /// checks with [`crate::ExplorerConfig::emit_certificate`] on, certifiable
        /// invariant). Check it with the engine-free `rdms-cert` crate.
        certificate: Option<Box<Certificate>>,
    },
    /// No violation exists within the explored fragment.
    Holds {
        /// `true` if the exploration was exhaustive for the question asked (e.g. the
        /// reachable state space modulo isomorphism was fully explored for a state-based
        /// property), so the verdict is exact for the chosen recency bound; `false` if it is
        /// only "no violation up to the depth bound".
        complete: bool,
        /// Exploration statistics.
        stats: CheckStats,
        /// A `Safe` closure certificate over the committed state set, when the search
        /// recorded one (invariant checks with
        /// [`crate::ExplorerConfig::emit_certificate`] on, certifiable invariant, and an
        /// exploration that saturated). Check it with the engine-free `rdms-cert` crate.
        certificate: Option<Box<Certificate>>,
    },
}

impl Verdict {
    /// Whether the property holds in the explored fragment.
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds { .. })
    }

    /// The counterexample, if any.
    pub fn counterexample(&self) -> Option<&ExtendedRun> {
        match self {
            Verdict::Violated { counterexample, .. } => Some(counterexample),
            Verdict::Holds { .. } => None,
        }
    }

    /// The statistics of the run.
    pub fn stats(&self) -> &CheckStats {
        match self {
            Verdict::Violated { stats, .. } | Verdict::Holds { stats, .. } => stats,
        }
    }

    /// The certificate carried by this verdict, if one was recorded.
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            Verdict::Violated { certificate, .. } | Verdict::Holds { certificate, .. } => {
                certificate.as_deref()
            }
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Violated {
                counterexample,
                stats,
                ..
            } => write!(
                f,
                "VIOLATED (counterexample of {} steps; {} prefixes, {} configurations explored)",
                counterexample.len(),
                stats.prefixes_checked,
                stats.configs_explored
            ),
            Verdict::Holds {
                complete, stats, ..
            } => write!(
                f,
                "HOLDS{} ({} prefixes, {} configurations explored)",
                if *complete {
                    " (exhaustive for this bound)"
                } else {
                    " (up to the depth bound)"
                },
                stats.prefixes_checked,
                stats.configs_explored
            ),
        }
    }
}

/// Statistics collected by a checking engine; serialisable so examples and benches can dump
/// the records quoted in EXPERIMENTS.md.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CheckStats {
    /// Recency bound used.
    pub recency_bound: usize,
    /// Depth bound used (number of actions per explored prefix).
    pub depth_bound: usize,
    /// Number of run prefixes on which the property was evaluated.
    pub prefixes_checked: usize,
    /// Number of configurations generated.
    pub configs_explored: usize,
    /// Number of configurations skipped because an isomorphic one had been expanded.
    pub configs_deduplicated: usize,
    /// Threads the search ran on: always `1`, every engine runs on the calling thread.
    pub threads: usize,
    /// Fraction of generated configurations that were isomorphism-duplicates of an already
    /// seen one: `configs_deduplicated / configs_explored` (`0` when nothing was generated or
    /// the search does not deduplicate).
    pub dedup_hit_rate: f64,
    /// Largest number of frontier entries that were pending at any one time.
    pub peak_frontier: usize,
    /// `true` when the search stopped admitting successors because the configured
    /// [`crate::ExplorerConfig::memory_budget_bytes`] would have been exceeded. The verdict
    /// is then never reported as exhaustive (`complete: false`), mirroring
    /// `depth_cutoff`/`budget_cutoff` semantics: a state was genuinely dropped.
    #[serde(default)]
    pub memory_cutoff: bool,
    /// Peak estimated heap bytes, per the [`rdms_db::HeapSize`] estimation contract. What
    /// is counted depends on the engine:
    /// - an [`Explorer`](crate::Explorer) search charges every successor it admits to the
    ///   frontier and never releases a charge; canonical keys held by the interner are not
    ///   counted (see [`crate::ExplorerConfig::memory_budget_bytes`]). `0` when no memory
    ///   budget was configured (the meter only runs when it can change the outcome);
    /// - an [`IncrementalChecker`](crate::IncrementalChecker) session reports its current
    ///   [`memory_bytes`](crate::IncrementalChecker::memory_bytes): the run spine plus its
    ///   interner's canonical keys;
    /// - a [`Workspace`](crate::Workspace) check reports `0` (its memo is metered by
    ///   [`Workspace::memory_bytes`](crate::Workspace::memory_bytes)).
    #[serde(default)]
    pub peak_memory_bytes: usize,
    /// Which resource bound fired first, when any did. Stable precedence when several
    /// fire on the same search: `Cancelled` > `Memory` > `Configs` — cancellation is an
    /// external command so it dominates; memory pressure stops admission process-wide
    /// while the config budget merely caps the count. `None` for exhaustive or purely
    /// depth-bounded searches.
    #[serde(default)]
    pub cutoff: Option<CutoffReason>,
    /// Relation handles shared by reference when instances were cloned during this search
    /// (the copy-on-write fast path). Counted through a per-search metrics scope
    /// ([`rdms_db::metrics::SearchCounters`]), so the figure is **exact** for this search
    /// even when unrelated searches run concurrently.
    pub relations_shared: u64,
    /// Relations deep-copied because a shared handle was written to (clone-on-first-write
    /// slow path). `relations_shared / (relations_shared + relations_materialized)` is the
    /// sharing rate of the search.
    pub relations_materialized: u64,
    /// Probes of the per-relation caches (first-column index, column values, active-domain
    /// values, canonical fragments) issued during this search.
    pub index_probes: u64,
    /// Fraction of [`Self::index_probes`] answered from an already-built cache rather than
    /// by building one.
    pub index_hit_rate: f64,
    /// Wall-clock time.
    #[serde(with = "duration_millis")]
    pub elapsed: Duration,
}

/// Why an inexhaustive search stopped admitting work, in stable precedence order
/// (`Cancelled` > `Memory` > `Configs`; see [`CheckStats::cutoff`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CutoffReason {
    /// The caller's cancellation token was observed.
    Cancelled,
    /// Admitting the next configuration would have exceeded
    /// [`crate::ExplorerConfig::memory_budget_bytes`].
    Memory,
    /// [`crate::ExplorerConfig::max_configs`] was reached.
    Configs,
}

mod duration_millis {
    use super::*;
    use serde::{Deserializer, Serializer};

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_f64(d.as_secs_f64() * 1000.0)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        let millis = f64::deserialize(d)?;
        Ok(Duration::from_secs_f64(millis / 1000.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdms_core::BConfig;
    use rdms_db::Instance;

    #[test]
    fn verdict_accessors() {
        let stats = CheckStats {
            recency_bound: 2,
            ..Default::default()
        };
        let holds = Verdict::Holds {
            complete: true,
            stats: stats.clone(),
            certificate: None,
        };
        assert!(holds.holds());
        assert!(holds.counterexample().is_none());
        assert!(holds.certificate().is_none());
        assert!(holds.to_string().contains("HOLDS"));

        let run = ExtendedRun::new(BConfig::initial(Instance::new()));
        let violated = Verdict::Violated {
            counterexample: run,
            stats,
            certificate: None,
        };
        assert!(!violated.holds());
        assert!(violated.counterexample().is_some());
        assert!(violated.certificate().is_none());
        assert!(violated.to_string().contains("VIOLATED"));
    }

    #[test]
    fn stats_serialise_to_json_and_back() {
        let stats = CheckStats {
            recency_bound: 3,
            depth_bound: 5,
            prefixes_checked: 10,
            configs_explored: 42,
            configs_deduplicated: 7,
            threads: 1,
            dedup_hit_rate: 0.25,
            peak_frontier: 17,
            memory_cutoff: true,
            peak_memory_bytes: 123_456,
            cutoff: Some(CutoffReason::Memory),
            relations_shared: 420,
            relations_materialized: 42,
            index_probes: 1000,
            index_hit_rate: 0.875,
            elapsed: Duration::from_millis(1500),
        };
        let json = serde_json::to_string(&stats).unwrap();
        assert!(json.contains("\"recency_bound\":3"));
        assert!(json.contains("\"threads\":1"));
        assert!(json.contains("\"memory_cutoff\":true"));
        assert!(json.contains("\"cutoff\":\"Memory\""));
        let back: CheckStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }
}
