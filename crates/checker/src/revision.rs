//! Revision-keyed incremental re-verification: edit, re-check, reuse.
//!
//! A [`Workspace`] owns a DMS, a [`CheckTarget`] and a recency bound as **versioned
//! inputs**: every setter diffs the new value's content fingerprint
//! ([`mod@rdms_core::fingerprint`]) against the current one and bumps the workspace
//! [`Revision`] only on a real change (salsa calls the no-change case *backdating*).
//! [`check`](Workspace::check) memoizes verdicts keyed by
//! `(dms fingerprint, target fingerprint, bound, depth, max_configs)` with
//! verified-at-revision tracking, and — for state invariants — keeps the **explored
//! fixpoint** (canonical state → min depth, representative run, per-action successor
//! edges) so a later edit re-expands only what the edit can have invalidated.
//!
//! # Reuse strategies and their soundness arguments
//!
//! Every reuse decision is conservative; the proptest oracle in `tests/revisions.rs`
//! pits each one against from-scratch [`Explorer`] runs.
//!
//! * **No-op edit → cached verdict, O(1).** A setter whose fingerprint matches is
//!   backdated, the memo key is unchanged, the stored verdict is returned with zero
//!   re-expansions. Sound because fingerprints hash the canonical wire form: equal
//!   fingerprint ⟹ wire-equal input.
//! * **Bound bump k→k′ (k′ > k) → frontier-seeded re-search.** `Recent_k ⊆ Recent_k′`,
//!   so every k-bounded run is k′-bounded: the k-explored states are all k′-reachable
//!   and their representative runs are valid k′-runs. The k-set seeds the seen-set at
//!   its k-min-depths **and every seeded state re-enters the frontier**, because edge
//!   sets grow with the bound — cached successors are *not* complete at k′ and are
//!   never reused across bounds. The min-depth re-expansion rule (re-admit on a strictly
//!   shallower rediscovery) then converges to the k′ depth-bounded reachability fixpoint
//!   regardless of the over-approximated seed depths. Savings come from the φ-memo:
//!   states already evaluated never pay the invariant again.
//! * **Violated at k, re-check at k′ > k → cached verdict, O(1).** The stored
//!   counterexample is a k-bounded run, hence k′-bounded: still a genuine violation.
//! * **Target edit, same DMS + bound → no search at all.** The successor relation does
//!   not mention the target, so a *saturated* explored set is reused as-is and only φ is
//!   re-evaluated per canonical state (against the stored representative instance —
//!   closed-query answers are invariant under the data isomorphisms the canonicalization
//!   quotients by).
//! * **DMS edit → delta re-expansion from the root.** Reachability can shrink, so the
//!   seen-set is *not* pre-seeded; the search re-runs from the initial configuration.
//!   What is reused: (a) the φ-memo — canonical-state keys are DMS-independent; (b)
//!   cached successor edges of actions the [`rdms_core::fingerprint::DmsDelta`] reports **unchanged** (matched
//!   by name, guard and structure fingerprints equal), spliced in only when the popped
//!   node's concrete tip configuration *equals* the stored representative (per-action
//!   successors depend only on the configuration, the action, the bound and the
//!   constants — all equal in that case — with `Step` indices remapped by name).
//!   Changed, added and schema/initial/constants-affected actions are recomputed, which
//!   is exactly "only re-expand what the edit could have changed".
//!
//! Trace properties ([`CheckTarget::Property`]) do not deduplicate states, so only the
//! verdict memo applies to them: a no-op edit is O(1), any real edit re-runs the
//! explorer (plus the violated-verdict bound shortcut, by the same run-validity
//! argument).
//!
//! The memo table is [`HeapSize`]-accounted and participates in PR 9's memory
//! governance: give the workspace a budget with
//! [`set_memory_budget_bytes`](Workspace::set_memory_budget_bytes) and
//! least-recently-verified entries are dropped first (then the φ-memo) when
//! [`memory_bytes`](Workspace::memory_bytes) would exceed it.

use crate::explorer::{cutoff_reason, finish_stats, Explorer, ExplorerConfig};
use crate::request::CheckTarget;
use crate::verdict::{CheckStats, Verdict};
use rdms_core::fingerprint::{dms_delta, dms_fingerprint, DmsFingerprint, UnchangedActions};
use rdms_core::iso::canonical_config_key;
use rdms_core::{BConfig, CanonicalKey, Dms, ExtendedRun, KeyInterner, RecencySemantics, Step};
use rdms_db::heap::HeapSize;
use rdms_db::metrics::{record_into, SearchCounters};
use rdms_db::Query;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// A monotone revision counter. Bumped by every setter that actually changes an input;
/// setters receiving a fingerprint-identical value return the current revision unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Revision(u64);

impl Revision {
    /// The numeric revision.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// How the last [`Workspace::check`] obtained its verdict.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum Reuse {
    /// Full search, nothing reusable (first check, or no compatible memo entry).
    #[default]
    FullRun,
    /// Memo hit: inputs fingerprint-equal to an already-verified revision. O(1).
    CachedVerdict,
    /// A `Violated` verdict from a smaller bound carried over: its counterexample run
    /// is still valid at the larger bound. O(1).
    ViolationCarriedOver {
        /// The bound the violation was found at.
        from_bound: usize,
    },
    /// The bound increased: the smaller bound's explored set seeded the frontier.
    BoundSeeded {
        /// The bound whose explored set was used as the seed.
        from_bound: usize,
    },
    /// Only the target changed: the saturated explored set was reused without any
    /// search; φ was re-evaluated per state (through the φ-memo).
    ExploredSetReused,
    /// The DMS changed: re-search from the root with cached edges spliced in for
    /// unchanged actions.
    DeltaReExpansion,
}

/// What the last [`Workspace::check`] actually did — the observable that the no-op and
/// ratio tests pin down.
#[derive(Clone, Debug, Default)]
pub struct RecheckReport {
    /// The reuse strategy taken.
    pub reuse: Reuse,
    /// States whose successor sets were (re)computed or re-spliced this check — `0` for
    /// the O(1) strategies.
    pub re_expansions: usize,
    /// Per-action successor computations performed (guard evaluations paid).
    pub actions_recomputed: usize,
    /// Per-action cached edge lists spliced in instead of recomputed.
    pub edges_reused: usize,
    /// Invariant evaluations actually performed.
    pub phi_evaluations: usize,
    /// Invariant evaluations answered by the φ-memo.
    pub phi_memo_hits: usize,
    /// Distinct canonical states in the explored set backing the verdict, when one is
    /// known (saturated invariant searches and their reuses).
    pub distinct_states: Option<usize>,
    /// Memo entries dropped by the memory budget during this check.
    pub evicted_entries: usize,
}

/// One memoized state of the explored fixpoint.
#[derive(Clone)]
struct StateEntry {
    /// The canonical key (interned; the portable identity).
    key: Arc<CanonicalKey>,
    /// Shallowest depth at which the state was reached.
    depth: usize,
    /// A representative run reaching the state at that depth — a genuine run of the DMS
    /// and bound the set was computed under (`run.len() == depth`).
    run: ExtendedRun,
    /// Successors of `run.last()` grouped by action name, as computed under the set's
    /// DMS and bound. `None` when the state was never expanded (popped only at the
    /// depth budget).
    edges: Option<BTreeMap<String, Vec<(Step, BConfig)>>>,
}

/// A saturated explored fixpoint: every admitted state was popped, every state below
/// the depth budget expanded. Representative-run and edge validity are relative to
/// `prints`/`bound`.
#[derive(Clone)]
struct ExploredSet {
    states: HashMap<u64, StateEntry>,
    prints: DmsFingerprint,
    bound: usize,
    /// [`HeapSize`]-style estimate of the bytes this set retains, computed once.
    bytes: usize,
}

/// Memo key: *what* was checked. Two checks with equal keys have wire-equal inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct MemoKey {
    dms_fp: u64,
    target_fp: u64,
    bound: usize,
    depth: usize,
    max_configs: usize,
}

#[derive(Clone)]
struct MemoEntry {
    verdict: Verdict,
    /// The saturated explored set, for invariant searches that ran to saturation
    /// (`None` for trace properties, early-exited violations and budget-cut searches).
    explored: Option<Arc<ExploredSet>>,
    /// The revision at which this entry was last computed or revalidated.
    verified_at: Revision,
}

/// Flat allowance per memoized verdict (stats + enum + counterexample spine cells).
const VERDICT_OVERHEAD: usize = 512;
/// Flat allowance per φ-memo entry (two u64 keys + bool + hash-map slot).
const PHI_ENTRY_OVERHEAD: usize = 48;
/// Flat allowance per explored-set state beyond its measured parts (map slots, depths).
const STATE_ENTRY_OVERHEAD: usize = 96;
/// Flat allowance per run-spine cell of a representative run.
const SPINE_CELL_OVERHEAD: usize = 96;

/// A re-verification workspace: versioned inputs + memoized explored fixpoints.
///
/// ```
/// use rdms_checker::revision::{Reuse, Workspace};
/// use rdms_core::dms::example_3_1;
/// use rdms_db::parser::parse_query;
///
/// let invariant = parse_query("true").unwrap();
/// let mut ws = Workspace::new(example_3_1(), 1, invariant).with_depth(3);
/// let first = ws.check();
///
/// // a no-op edit: fingerprint-identical DMS, the revision does not move
/// let before = ws.revision();
/// assert_eq!(ws.set_dms(example_3_1()), before);
/// let again = ws.check();
/// assert_eq!(ws.last_report().reuse, Reuse::CachedVerdict);
/// assert_eq!(ws.last_report().re_expansions, 0);
/// assert_eq!(first.holds(), again.holds());
///
/// // a bound bump reuses the explored set as a frontier seed
/// assert!(ws.set_bound(2) > before);
/// let bumped = ws.check();
/// assert_eq!(ws.last_report().reuse, Reuse::BoundSeeded { from_bound: 1 });
/// # let _ = bumped;
/// ```
///
/// Cloning a workspace snapshots its memo tables; the clone shares the original's
/// interner (canonical state ids stay comparable across the two).
#[derive(Clone)]
pub struct Workspace {
    dms: Arc<Dms>,
    prints: DmsFingerprint,
    target: CheckTarget,
    target_fp: u64,
    bound: usize,
    depth: usize,
    max_configs: usize,
    revision: Revision,
    interner: Arc<KeyInterner>,
    /// (canonical state id, target fingerprint) → φ holds. Valid across every revision:
    /// the key identifies the instance up to data isomorphism and closed-query answers
    /// are isomorphism-invariant.
    phi_memo: HashMap<(u64, u64), bool>,
    memo: HashMap<MemoKey, MemoEntry>,
    /// Explored set produced by the search currently being memoized (hand-off between
    /// [`Workspace::search`] and [`Workspace::remember_search`]).
    pending: Option<ExploredSet>,
    memory_budget: Option<usize>,
    report: RecheckReport,
}

impl Workspace {
    /// A workspace over `dms` at recency bound `bound`, verifying `target`, with the
    /// default explorer depth and configuration budgets.
    pub fn new(dms: Dms, bound: usize, target: impl Into<CheckTarget>) -> Workspace {
        let defaults = ExplorerConfig::default();
        let prints = dms_fingerprint(&dms);
        let target = target.into();
        let target_fp = target.fingerprint();
        Workspace {
            dms: Arc::new(dms),
            prints,
            target,
            target_fp,
            bound,
            depth: defaults.depth,
            max_configs: defaults.max_configs,
            revision: Revision(1),
            interner: Arc::new(KeyInterner::new()),
            phi_memo: HashMap::new(),
            memo: HashMap::new(),
            pending: None,
            memory_budget: None,
            report: RecheckReport::default(),
        }
    }

    /// Override the depth budget (number of actions per explored prefix).
    pub fn with_depth(mut self, depth: usize) -> Workspace {
        self.set_depth(depth);
        self
    }

    /// Override the configuration budget.
    pub fn with_max_configs(mut self, max_configs: usize) -> Workspace {
        self.set_max_configs(max_configs);
        self
    }

    /// Set a byte budget for the memo table (see
    /// [`set_memory_budget_bytes`](Self::set_memory_budget_bytes)).
    pub fn with_memory_budget_bytes(mut self, budget: usize) -> Workspace {
        self.set_memory_budget_bytes(Some(budget));
        self
    }

    /// The current revision.
    pub fn revision(&self) -> Revision {
        self.revision
    }

    /// The current DMS.
    pub fn dms(&self) -> &Dms {
        &self.dms
    }

    /// The current recency bound.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// The current target.
    pub fn target(&self) -> &CheckTarget {
        &self.target
    }

    /// The depth budget.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// What the last [`check`](Self::check) did.
    pub fn last_report(&self) -> &RecheckReport {
        &self.report
    }

    fn bump(&mut self) -> Revision {
        self.revision = Revision(self.revision.0 + 1);
        self.revision
    }

    /// Replace the DMS. Returns the revision in effect afterwards; a fingerprint-equal
    /// DMS is backdated (no bump, caches untouched).
    pub fn set_dms(&mut self, dms: Dms) -> Revision {
        let prints = dms_fingerprint(&dms);
        if prints.whole == self.prints.whole {
            return self.revision;
        }
        self.dms = Arc::new(dms);
        self.prints = prints;
        self.bump()
    }

    /// Replace the target (property or invariant). Backdates on equal fingerprint.
    pub fn set_target(&mut self, target: impl Into<CheckTarget>) -> Revision {
        let target = target.into();
        let fp = target.fingerprint();
        if fp == self.target_fp {
            return self.revision;
        }
        self.target = target;
        self.target_fp = fp;
        self.bump()
    }

    /// Change the recency bound. Backdates on equality.
    pub fn set_bound(&mut self, bound: usize) -> Revision {
        if bound == self.bound {
            return self.revision;
        }
        self.bound = bound;
        self.bump()
    }

    /// Change the depth budget. Backdates on equality.
    pub fn set_depth(&mut self, depth: usize) -> Revision {
        if depth == self.depth {
            return self.revision;
        }
        self.depth = depth;
        self.bump()
    }

    /// Change the configuration budget. Backdates on equality.
    pub fn set_max_configs(&mut self, max_configs: usize) -> Revision {
        if max_configs == self.max_configs {
            return self.revision;
        }
        self.max_configs = max_configs;
        self.bump()
    }

    /// Budget the memo table. `None` removes the budget. Applied eagerly: shrinking the
    /// budget evicts immediately.
    pub fn set_memory_budget_bytes(&mut self, budget: Option<usize>) {
        self.memory_budget = budget;
        self.enforce_budget(None);
    }

    /// Estimated heap bytes retained by the memo table, the φ-memo and the interner,
    /// per the [`HeapSize`] estimation contract (shared `Arc`s are charged per holder —
    /// an upper bound). This is the figure a resource governor should ledger.
    pub fn memory_bytes(&self) -> usize {
        let memo: usize = self
            .memo
            .values()
            .map(|e| VERDICT_OVERHEAD + e.explored.as_ref().map(|set| set.bytes).unwrap_or(0))
            .sum();
        memo + self.phi_memo.len() * PHI_ENTRY_OVERHEAD + self.interner.heap_bytes()
    }

    /// Distinct canonical states in the explored set backing the current inputs'
    /// verdict, when it has been computed and kept.
    pub fn distinct_states(&self) -> Option<usize> {
        self.memo
            .get(&self.key())
            .and_then(|e| e.explored.as_ref())
            .map(|set| set.states.len())
    }

    fn key(&self) -> MemoKey {
        MemoKey {
            dms_fp: self.prints.whole,
            target_fp: self.target_fp,
            bound: self.bound,
            depth: self.depth,
            max_configs: self.max_configs,
        }
    }

    /// Re-check the current inputs, reusing everything the memo table can soundly
    /// provide. See the module docs for the strategy-by-strategy soundness arguments;
    /// [`last_report`](Self::last_report) says which strategy ran. Verdict `stats`
    /// describe the work of *this* re-check (O(1) reuses keep the original search's
    /// stats).
    pub fn check(&mut self) -> Verdict {
        let key = self.key();
        self.report = RecheckReport::default();

        if let Some(entry) = self.memo.get_mut(&key) {
            entry.verified_at = self.revision;
            self.report.reuse = Reuse::CachedVerdict;
            self.report.distinct_states = entry.explored.as_ref().map(|s| s.states.len());
            return entry.verdict.clone();
        }

        // a violation found at a smaller bound is still a violation here: its
        // counterexample is a k-bounded run and Recent_k ⊆ Recent_k' for k' ≥ k
        if let Some((from_bound, verdict)) = self.carry_violation(&key) {
            self.report.reuse = Reuse::ViolationCarriedOver { from_bound };
            self.remember(key, verdict.clone(), None);
            return verdict;
        }

        let verdict = match self.target.clone() {
            CheckTarget::Property(property) => {
                self.report.reuse = Reuse::FullRun;
                Explorer::new(&self.dms, self.bound)
                    .with_config(self.explorer_config())
                    .run(property)
            }
            CheckTarget::Invariant(invariant) => self.check_invariant(&key, &invariant),
        };
        self.remember_search(key, verdict)
    }

    fn explorer_config(&self) -> ExplorerConfig {
        ExplorerConfig {
            depth: self.depth,
            max_configs: self.max_configs,
            interner: Some(Arc::clone(&self.interner)),
            ..Default::default()
        }
    }

    /// The violated-at-smaller-bound shortcut: same DMS, target and budgets, smaller
    /// bound, `Violated` verdict.
    fn carry_violation(&self, key: &MemoKey) -> Option<(usize, Verdict)> {
        self.memo
            .iter()
            .filter(|(k, e)| {
                k.dms_fp == key.dms_fp
                    && k.target_fp == key.target_fp
                    && k.depth == key.depth
                    && k.max_configs == key.max_configs
                    && k.bound < key.bound
                    && matches!(e.verdict, Verdict::Violated { .. })
            })
            .max_by_key(|(k, _)| k.bound)
            .map(|(k, e)| (k.bound, e.verdict.clone()))
    }

    /// The best saturated explored set for a bound bump: same DMS, target and budgets,
    /// largest smaller bound.
    fn seed_candidate(&self, key: &MemoKey) -> Option<(usize, Arc<ExploredSet>)> {
        self.memo
            .iter()
            .filter(|(k, e)| {
                k.dms_fp == key.dms_fp
                    && k.target_fp == key.target_fp
                    && k.depth == key.depth
                    && k.max_configs == key.max_configs
                    && k.bound < key.bound
                    && e.explored.is_some()
            })
            .max_by_key(|(k, _)| k.bound)
            .map(|(k, e)| (k.bound, Arc::clone(e.explored.as_ref().expect("filtered"))))
    }

    /// A saturated explored set for the *same* DMS and bound (any target): the successor
    /// relation ignores the target, so the set transfers verbatim.
    fn same_graph_candidate(&self, key: &MemoKey) -> Option<Arc<ExploredSet>> {
        self.memo
            .iter()
            .filter(|(k, e)| {
                k.dms_fp == key.dms_fp
                    && k.bound == key.bound
                    && k.depth == key.depth
                    && k.max_configs == key.max_configs
                    && e.explored.is_some()
            })
            .max_by_key(|(_, e)| e.verified_at)
            .and_then(|(_, e)| e.explored.clone())
    }

    /// A saturated explored set from a *different* DMS at the same bound and budgets —
    /// the delta re-expansion donor. Most recently verified wins.
    fn delta_candidate(&self, key: &MemoKey) -> Option<Arc<ExploredSet>> {
        self.memo
            .iter()
            .filter(|(k, e)| {
                k.dms_fp != key.dms_fp
                    && k.bound == key.bound
                    && k.depth == key.depth
                    && k.max_configs == key.max_configs
                    && e.explored.is_some()
            })
            .max_by_key(|(_, e)| e.verified_at)
            .and_then(|(_, e)| e.explored.clone())
    }

    fn check_invariant(&mut self, key: &MemoKey, invariant: &Query) -> Verdict {
        // target-only change: reuse the graph, re-evaluate φ
        if let Some(set) = self.same_graph_candidate(key) {
            self.report.reuse = Reuse::ExploredSetReused;
            return self.reevaluate_over(&set, invariant, key);
        }
        // bound bump: frontier-seeded re-search (no edge reuse across bounds)
        if let Some((from_bound, seed)) = self.seed_candidate(key) {
            self.report.reuse = Reuse::BoundSeeded { from_bound };
            return self.search(invariant, Some(seed), None);
        }
        // DMS edit: root re-search with per-action edge reuse where the delta allows
        if let Some(donor) = self.delta_candidate(key) {
            let delta = dms_delta(&donor.prints, &self.prints);
            // a base change (schema / initial / constants) invalidates every cached
            // transition; fall through to a full run (the φ-memo still applies)
            if !delta.base_changed {
                self.report.reuse = Reuse::DeltaReExpansion;
                return self.search(invariant, None, Some((donor, delta.unchanged)));
            }
        }
        self.report.reuse = Reuse::FullRun;
        self.search(invariant, None, None)
    }

    /// φ over a saturated explored set, no search. Deterministic violating-state choice:
    /// smallest (depth, canonical key).
    fn reevaluate_over(&mut self, set: &ExploredSet, invariant: &Query, key: &MemoKey) -> Verdict {
        debug_assert_eq!(set.bound, key.bound, "explored set filed under wrong bound");
        let start = Instant::now();
        let mut order: Vec<(&u64, &StateEntry)> = set.states.iter().collect();
        order.sort_by(|a, b| (a.1.depth, &*a.1.key).cmp(&(b.1.depth, &*b.1.key)));
        let mut stats = CheckStats {
            recency_bound: self.bound,
            depth_bound: self.depth,
            threads: 1,
            ..Default::default()
        };
        let mut hit: Option<ExtendedRun> = None;
        for (id, st) in order {
            stats.prefixes_checked += 1;
            if !self.phi_cached(*id, st.run.last(), invariant) {
                hit = Some(st.run.clone());
                break;
            }
        }
        self.report.distinct_states = Some(set.states.len());
        stats.elapsed = start.elapsed();
        match hit {
            Some(counterexample) => Verdict::Violated {
                counterexample,
                stats,
                certificate: None,
            },
            None => Verdict::Holds {
                // the set is saturated for these budgets by construction; completeness
                // is inherited exactly as a from-scratch saturated search would report
                complete: true,
                stats,
                certificate: None,
            },
        }
    }

    fn phi_cached(&mut self, id: u64, config: &BConfig, invariant: &Query) -> bool {
        match self.phi_memo.get(&(id, self.target_fp)) {
            Some(&holds) => {
                self.report.phi_memo_hits += 1;
                holds
            }
            None => {
                self.report.phi_evaluations += 1;
                let holds =
                    rdms_db::eval::holds_boolean(config.instance(), invariant).unwrap_or(false);
                self.phi_memo.insert((id, self.target_fp), holds);
                holds
            }
        }
    }

    /// The workspace's own sequential min-depth search: the driver's dedup semantics
    /// (seen = canonical id → shallowest depth, re-expand on strictly shallower
    /// rediscovery, φ on every pop, depth cutoff at pop, budget cutoff at admission)
    /// plus representative-run and per-action edge recording, optional seeding and
    /// optional per-action edge reuse.
    fn search(
        &mut self,
        invariant: &Query,
        seed: Option<Arc<ExploredSet>>,
        reuse: Option<(Arc<ExploredSet>, UnchangedActions)>,
    ) -> Verdict {
        let start = Instant::now();
        let dms = Arc::clone(&self.dms);
        let sem = RecencySemantics::new(&dms, self.bound);
        let constants = dms.constants();
        let interner = Arc::clone(&self.interner);

        let mut stats = CheckStats {
            recency_bound: self.bound,
            depth_bound: self.depth,
            threads: 1,
            ..Default::default()
        };
        let mut seen: HashMap<u64, usize> = HashMap::new();
        let mut states: HashMap<u64, StateEntry> = HashMap::new();
        let mut stack: Vec<(ExtendedRun, u64, Arc<CanonicalKey>)> = Vec::new();
        let mut depth_cutoff = false;
        let mut budget_cutoff = false;
        let mut peak = 1usize;
        // the explorer's per-search counter scope, so sharing and index statistics are
        // exact here too
        let counters = Arc::new(SearchCounters::new());
        let scope = record_into(&counters);

        match &seed {
            Some(set) => {
                let mut entries: Vec<&StateEntry> = set.states.values().collect();
                // shallow states pop first (LIFO): push deepest first
                entries.sort_by(|a, b| (b.depth, &*b.key).cmp(&(a.depth, &*a.key)));
                for st in entries {
                    let (id, handle) = interner.intern_handle((*st.key).clone());
                    seen.insert(id, st.depth);
                    stack.push((st.run.clone(), id, handle));
                }
                peak = stack.len();
            }
            None => {
                let root = ExtendedRun::new(dms.initial_bconfig());
                let key = canonical_config_key(root.last(), constants);
                let (id, handle) = interner.intern_handle(key);
                seen.insert(id, 0);
                stack.push((root, id, handle));
            }
        }

        let mut hit: Option<ExtendedRun> = None;
        while let Some((run, id, key)) = stack.pop() {
            stats.prefixes_checked += 1;
            if !self.phi_cached(id, run.last(), invariant) {
                hit = Some(run);
                break;
            }
            let depth = run.len();
            if depth >= self.depth {
                depth_cutoff = true;
                // remember the representative even for never-expanded states (frontier
                // seeds need every seen state), without clobbering recorded edges
                states
                    .entry(id)
                    .and_modify(|st| {
                        if depth < st.depth {
                            st.depth = depth;
                            st.run = run.clone();
                            st.edges = None;
                        }
                    })
                    .or_insert_with(|| StateEntry {
                        key: Arc::clone(&key),
                        depth,
                        run: run.clone(),
                        edges: None,
                    });
                continue;
            }
            if budget_cutoff {
                continue;
            }

            // successors: cached edges for unchanged actions when the popped tip IS the
            // donor's representative configuration; recompute everything else
            self.report.re_expansions += 1;
            let donor_entry = reuse.as_ref().and_then(|(donor, unchanged)| {
                donor
                    .states
                    .get(&id)
                    .filter(|old| old.edges.is_some() && *old.run.last() == *run.last())
                    .map(|old| (old, unchanged))
            });
            let mut edges: BTreeMap<String, Vec<(Step, BConfig)>> = BTreeMap::new();
            let mut successors: Vec<(Step, BConfig)> = Vec::new();
            match donor_entry {
                Some((old, unchanged)) => {
                    let old_edges = old.edges.as_ref().expect("filtered");
                    for (index, action) in dms.actions().iter().enumerate() {
                        let name = action.name();
                        let reused = unchanged
                            .get(name)
                            .filter(|(_, new_idx)| *new_idx == index)
                            .and_then(|_| old_edges.get(name));
                        let list: Vec<(Step, BConfig)> = match reused {
                            Some(cached) => {
                                self.report.edges_reused += 1;
                                cached
                                    .iter()
                                    .map(|(step, next)| {
                                        (Step::new(index, step.subst.clone()), next.clone())
                                    })
                                    .collect()
                            }
                            None => {
                                self.report.actions_recomputed += 1;
                                sem.successors_where(run.last(), |i, _| i == index)
                                    .expect("successor computation")
                            }
                        };
                        edges.insert(name.to_string(), list.clone());
                        successors.extend(list);
                    }
                }
                None => {
                    self.report.actions_recomputed += dms.actions().len();
                    successors = sem.successors(run.last()).expect("successor computation");
                    for action in dms.actions() {
                        edges.insert(action.name().to_string(), Vec::new());
                    }
                    for (step, next) in &successors {
                        edges
                            .get_mut(dms.action(step.action).expect("step index valid").name())
                            .expect("prefilled")
                            .push((step.clone(), next.clone()));
                    }
                }
            }

            // record representative + edges atomically at the expansion depth
            states
                .entry(id)
                .and_modify(|st| {
                    if depth <= st.depth {
                        st.depth = depth;
                        st.run = run.clone();
                        st.edges = Some(edges.clone());
                    }
                })
                .or_insert_with(|| StateEntry {
                    key: Arc::clone(&key),
                    depth,
                    run: run.clone(),
                    edges: Some(edges.clone()),
                });

            let child_depth = depth + 1;
            for (step, next) in successors {
                if stats.configs_explored >= self.max_configs {
                    budget_cutoff = true;
                    break;
                }
                stats.configs_explored += 1;
                let child_key = canonical_config_key(&next, constants);
                let (child_id, child_handle) = interner.intern_handle(child_key);
                match seen.get(&child_id) {
                    Some(&d) if d <= child_depth => {
                        stats.configs_deduplicated += 1;
                        continue;
                    }
                    _ => {
                        seen.insert(child_id, child_depth);
                    }
                }
                let mut child = run.clone();
                child.push(step, next);
                stack.push((child, child_id, child_handle));
                peak = peak.max(stack.len());
            }
        }
        // flush this thread's tallies into `counters` before reading them
        drop(scope);

        stats.peak_frontier = peak;
        stats.elapsed = start.elapsed();
        stats.cutoff = cutoff_reason(false, false, budget_cutoff);
        finish_stats(&mut stats, &counters);
        self.report.distinct_states = (hit.is_none() && !budget_cutoff).then_some(seen.len());

        match hit {
            Some(counterexample) => Verdict::Violated {
                counterexample,
                stats,
                certificate: None,
            },
            None => {
                let saturated = !budget_cutoff;
                let verdict = Verdict::Holds {
                    complete: saturated && !depth_cutoff,
                    stats,
                    certificate: None,
                };
                if saturated {
                    self.stash_explored(states);
                }
                verdict
            }
        }
    }

    /// Pending explored set from the last saturated search, consumed by
    /// [`remember_search`].
    fn stash_explored(&mut self, states: HashMap<u64, StateEntry>) {
        let bytes = explored_bytes(&states);
        self.pending = Some(ExploredSet {
            states,
            prints: self.prints.clone(),
            bound: self.bound,
            bytes,
        });
    }

    fn remember_search(&mut self, key: MemoKey, verdict: Verdict) -> Verdict {
        let explored = self.pending.take().map(Arc::new);
        self.remember(key, verdict.clone(), explored);
        verdict
    }

    fn remember(&mut self, key: MemoKey, verdict: Verdict, explored: Option<Arc<ExploredSet>>) {
        self.memo.insert(
            key,
            MemoEntry {
                verdict,
                explored,
                verified_at: self.revision,
            },
        );
        self.enforce_budget(Some(key));
    }

    /// Evict least-recently-verified memo entries (never `keep`) and then the φ-memo
    /// until under budget.
    fn enforce_budget(&mut self, keep: Option<MemoKey>) {
        let Some(budget) = self.memory_budget else {
            return;
        };
        while self.memory_bytes() > budget {
            let victim = self
                .memo
                .iter()
                .filter(|(k, _)| Some(**k) != keep)
                .min_by_key(|(_, e)| e.verified_at)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    self.memo.remove(&k);
                    self.report.evicted_entries += 1;
                }
                None => break,
            }
        }
        if self.memory_bytes() > self.memory_budget.unwrap_or(usize::MAX) {
            self.phi_memo.clear();
        }
    }
}

/// Estimate the bytes an explored set retains. Representative runs share spines
/// structurally; charging each holder its full spine would be O(n²) to compute, so each
/// state is charged its tip configuration plus a flat per-cell allowance — an estimate,
/// documented as such, consistent in spirit with the [`HeapSize`] contract.
fn explored_bytes(states: &HashMap<u64, StateEntry>) -> usize {
    states
        .values()
        .map(|st| {
            let edges: usize = st
                .edges
                .as_ref()
                .map(|e| {
                    e.values()
                        .flatten()
                        .map(|(_, next)| next.total_size() + STATE_ENTRY_OVERHEAD)
                        .sum()
                })
                .unwrap_or(0);
            st.key.heap_size()
                + st.run.last().total_size()
                + st.run.len() * SPINE_CELL_OVERHEAD
                + STATE_ENTRY_OVERHEAD
                + edges
        })
        .sum()
}
