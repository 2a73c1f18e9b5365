//! Cooperative checkpoint/resume for long explorer searches.
//!
//! A [`SearchCheckpoint`] is a serialisable snapshot of a search's resumable state: the seen-set as a canonical-key → min-depth map, the frontier in stack order,
//! and the progress counters. Capturing one is **cooperative** — the search writes a
//! snapshot into the [`CheckpointPolicy`] slot at a configurable admission cadence and
//! again when it stops for any reason (completion, cancellation, a `max_configs` or
//! memory cutoff) — so a caller that cancels a long verification always holds a
//! checkpoint no older than the cadence.
//!
//! Resuming ([`crate::Explorer::check_invariant_from`], [`crate::Explorer::check_from`])
//! re-interns the seen keys under the resuming search's interner (ids are interner-local;
//! the canonical *keys* are the portable identity), rebuilds the depth-first stack and
//! continues the identical loop: the final verdict, completeness flag and explored-set
//! statistics are equivalent to the uninterrupted run, which the property suite checks
//! by cutting searches at random points.
//!
//! Checkpointing is mutually exclusive with certificate recording — a resumed search
//! cannot prove closure over states expanded before the cut.

use parking_lot::Mutex;
use rdms_core::ExtendedRun;
use rdms_db::Instance;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A serialisable snapshot of an interrupted (or still-running) search.
///
/// The snapshot is self-contained: canonical keys are stored by value (interner ids are
/// process-local and deliberately **not** serialised), the frontier keeps whole run
/// prefixes, and the counters carry everything the final [`crate::CheckStats`] needs.
/// Produce one through [`CheckpointPolicy`]; consume it with
/// [`crate::Explorer::check_invariant_from`] or [`crate::Explorer::check_from`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SearchCheckpoint {
    /// Recency bound of the interrupted search.
    pub bound: usize,
    /// Depth budget of the interrupted search.
    pub depth: usize,
    /// Whether the search deduplicated modulo data isomorphism ([`Self::seen`] is empty
    /// otherwise).
    pub dedup: bool,
    /// The seen-set: canonical key → shallowest depth at which the state was reached.
    /// Keys are shared handles while the checkpoint lives in-process (an `Arc` bump per
    /// entry, not a deep copy) and materialise on serialisation.
    pub seen: Vec<(Arc<Instance>, usize)>,
    /// The depth-first frontier, bottom of the stack first.
    pub frontier: Vec<ExtendedRun>,
    /// Prefixes on which the property was evaluated so far.
    pub prefixes_checked: usize,
    /// Configurations admitted so far (the `max_configs` meter).
    pub configs_explored: usize,
    /// Admissions skipped as isomorphism duplicates so far.
    pub configs_deduplicated: usize,
    /// Largest frontier observed so far.
    pub peak_frontier: usize,
    /// Estimated frontier bytes charged so far (the `memory_budget_bytes` meter).
    pub mem_used: usize,
    /// Whether some prefix already hit the depth bound before the cut.
    pub depth_cutoff: bool,
}

impl SearchCheckpoint {
    /// The checkpoint as a JSON document (the wire/disk form used by `rdms-serve`).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialisation")
    }

    /// Parse a checkpoint back from [`Self::to_json`] output.
    pub fn from_json(json: &str) -> Result<SearchCheckpoint, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// When and where a search checkpoints.
///
/// The slot holds the **latest** snapshot; [`take`](Self::take) claims it. Clones share
/// the slot, so the handle given to [`crate::ExplorerConfig::with_checkpoint`] and the
/// one kept by the caller observe the same snapshots — the intended use is: keep a
/// clone, run the search (possibly cancelling it), then `take()` and later resume.
#[derive(Clone)]
pub struct CheckpointPolicy {
    /// Capture a snapshot every this many admitted configurations (`0`: only when the
    /// search stops). The cadence bounds how much re-exploration a resume can cost.
    pub every_configs: usize,
    slot: Arc<Mutex<Option<SearchCheckpoint>>>,
}

impl CheckpointPolicy {
    /// A policy capturing every `every_configs` admissions, plus once when the search
    /// stops for any reason.
    pub fn every(every_configs: usize) -> CheckpointPolicy {
        CheckpointPolicy {
            every_configs,
            slot: Arc::new(Mutex::new(None)),
        }
    }

    /// A policy that only captures when the search stops (cancellation, cutoff or
    /// completion) — the cheapest setting, for callers that only resume across cancels.
    pub fn on_stop() -> CheckpointPolicy {
        CheckpointPolicy::every(0)
    }

    /// Claim the latest snapshot, leaving the slot empty.
    pub fn take(&self) -> Option<SearchCheckpoint> {
        self.slot.lock().take()
    }

    /// Whether a snapshot is currently available.
    pub fn has_snapshot(&self) -> bool {
        self.slot.lock().is_some()
    }

    pub(crate) fn store(&self, checkpoint: SearchCheckpoint) {
        *self.slot.lock() = Some(checkpoint);
    }
}

impl fmt::Debug for CheckpointPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointPolicy")
            .field("every_configs", &self.every_configs)
            .field("has_snapshot", &self.has_snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdms_core::BConfig;

    #[test]
    fn policy_slot_is_shared_across_clones_and_taken_once() {
        let policy = CheckpointPolicy::every(100);
        let handle = policy.clone();
        assert!(!handle.has_snapshot());
        policy.store(SearchCheckpoint {
            bound: 2,
            depth: 4,
            dedup: true,
            seen: Vec::new(),
            frontier: vec![ExtendedRun::new(BConfig::initial(Instance::new()))],
            prefixes_checked: 1,
            configs_explored: 2,
            configs_deduplicated: 0,
            peak_frontier: 1,
            mem_used: 0,
            depth_cutoff: false,
        });
        assert!(handle.has_snapshot());
        let snapshot = handle.take().expect("stored snapshot");
        assert_eq!(snapshot.configs_explored, 2);
        assert!(policy.take().is_none(), "take() drains the shared slot");
    }

    #[test]
    fn checkpoints_round_trip_through_json() {
        let mut instance = Instance::new();
        instance.insert(rdms_db::RelName::new("R"), vec![rdms_db::DataValue(7)]);
        let checkpoint = SearchCheckpoint {
            bound: 3,
            depth: 5,
            dedup: true,
            seen: vec![(Arc::new(instance.clone()), 1)],
            frontier: vec![ExtendedRun::new(BConfig::initial(instance))],
            prefixes_checked: 10,
            configs_explored: 20,
            configs_deduplicated: 3,
            peak_frontier: 4,
            mem_used: 4096,
            depth_cutoff: true,
        };
        let back = SearchCheckpoint::from_json(&checkpoint.to_json()).expect("round trip");
        assert_eq!(back.bound, 3);
        assert_eq!(back.seen.len(), 1);
        assert_eq!(*back.seen[0].0, *checkpoint.seen[0].0);
        assert_eq!(back.frontier.len(), 1);
        assert_eq!(back.mem_used, 4096);
        assert!(back.depth_cutoff);
    }
}
