//! The bounded explorer engine.
//!
//! The paper's decision procedure reduces recency-bounded model checking to MSO_NW
//! satisfiability; its cost is non-elementary. The explorer is the practical engine built on
//! the same foundations: it enumerates exactly the **valid encodings** of `b`-bounded runs —
//! not by compiling `ϕ_valid`, but by construction, walking the `b`-bounded configuration
//! graph with canonical fresh values (every prefix it visits corresponds one-to-one to a
//! valid abstract word, cf. `Abstr`/`Concr`) — and evaluates MSO-FO properties on the decoded
//! run prefixes.
//!
//! Semantics offered (all relative to the chosen recency bound `b` and depth bound `k`):
//!
//! * [`Explorer::run`] on a trace property — "does every `b`-bounded run prefix of length
//!   ≤ `k` satisfy φ?" under the finite-prefix semantics of `rdms-logic`. For **safety**
//!   properties a violating prefix witnesses a violation of the paper's (infinite-run)
//!   problem; the verdict is reported as `complete` only when the exploration exhausted all
//!   prefixes.
//! * [`Explorer::find_witness`] — dually, search for a prefix *satisfying* φ (useful for
//!   reachability-style properties).
//! * [`Explorer::run`] on a state invariant / [`Explorer::find_reachable_instance`] —
//!   state-based properties with configuration deduplication modulo data isomorphism; these
//!   verdicts are **exact** for the chosen recency bound whenever the abstract state space
//!   saturates within the exploration budget.
//!
//! # Search architecture
//!
//! All entry points route through a single `SearchDriver`: one depth-first loop over a
//! stack of `b`-bounded configurations, on the calling thread. It is fully deterministic —
//! the same request yields the same verdict, counterexample and [`CheckStats`] (apart from
//! `elapsed`) on every run.
//!
//! * **Interned canonical states** — deduplicating searches probe a seen-set keyed by `u64`
//!   ids from a [`rdms_core::iso::KeyInterner`], so two isomorphic configurations are
//!   recognised with an integer probe. The interner is the search's own, freed when it
//!   returns, unless [`ExplorerConfig::interner`] lends one.
//! * **The min-depth fixpoint** — the seen-set records the *shallowest* depth at which a
//!   state was reached and re-expands a state found again strictly shallower, so the
//!   explored state set is the depth-bounded reachability fixpoint, independent of
//!   exploration order. The revision [`Workspace`](crate::revision::Workspace) seeds
//!   bound bumps from a saturated set on the strength of this rule.
//! * **Exact budget accounting** — a search is reported incomplete only when a successor
//!   was actually dropped by `max_configs` or the memory budget, not merely because the
//!   counter happened to be full when a leaf was revisited.

use crate::request::CheckTarget;
use crate::verdict::{CheckStats, CutoffReason, Verdict};
use rdms_core::iso::canonical_config_key;
use rdms_core::{
    commit, BConfig, CancelToken, CanonicalKey, Dms, EdgeMap, ExtendedRun, KeyInterner,
    RecencySemantics, StateRecord, Step,
};
use rdms_db::metrics::{record_into, SearchCounters};
use rdms_db::{answers, DataValue, HeapSize, Query};
use rdms_logic::msofo::{eval_sentence, MsoFo};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exploration budget.
#[derive(Clone, Debug)]
pub struct ExplorerConfig {
    /// Maximum number of actions per explored run prefix.
    pub depth: usize,
    /// Maximum number of configurations generated before giving up.
    pub max_configs: usize,
    /// A canonical-key interner lent to this search. `None` (the default): the search
    /// builds its own and frees it, with every key it interned, when it returns. A lent
    /// interner keeps its keys after the search, so later searches over the same system
    /// through the same handle reuse their ids — a revision
    /// [`Workspace`](crate::revision::Workspace) lends its own this way.
    pub interner: Option<Arc<KeyInterner>>,
    /// Record the evidence needed for certificate-carrying verdicts (default `false` —
    /// recording off is zero-cost, the search paths are untouched).
    ///
    /// When on, deduplicating searches record every expanded canonical state's wire facts
    /// and successor digests, and [`Explorer::run`] on an invariant attaches a certificate
    /// to its verdict: a replayable `Violation` witness, or — when the exploration saturated
    /// (no depth or budget cutoff) — a `Safe` closure proof over the committed state set.
    /// The certificate is independently checkable by the engine-free `rdms-cert` crate.
    pub emit_certificate: bool,
    /// Cooperative cancellation: when set, the search loop polls the token once per
    /// expanded configuration and stops the search cleanly when it fires. A cancelled
    /// search reports itself cancelled, its verdicts claim `complete: false`, and no
    /// `Safe` certificate is emitted — exactly the
    /// incomplete-exploration semantics of a budget cutoff, but driven by wall-clock
    /// deadlines ([`with_deadline`](Self::with_deadline)) or an external
    /// [`cancel`](rdms_core::CancelToken::cancel) instead of a configuration count.
    pub cancel: Option<CancelToken>,
    /// Memory budget, in estimated bytes of retained frontier configurations (per the
    /// [`rdms_db::HeapSize`] estimation contract), `None` for unbounded. When admitting
    /// the next successor would push the meter past the budget the search **degrades
    /// gracefully**: it stops admitting new states, keeps evaluating everything already
    /// admitted, and reports the result with `complete: false` and
    /// [`CheckStats::memory_cutoff`] set — never a falsely exhaustive verdict, never an
    /// abort. The meter is monotone over one search (charges are never released), so the
    /// cutoff point is deterministic. Canonical keys retained by the interner are *not*
    /// counted here; a lent interner reports them through
    /// [`KeyInterner::heap_bytes`](rdms_core::KeyInterner::heap_bytes).
    pub memory_budget_bytes: Option<usize>,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            depth: 8,
            max_configs: 20_000,
            interner: None,
            emit_certificate: false,
            cancel: None,
            memory_budget_bytes: None,
        }
    }
}

impl ExplorerConfig {
    /// This configuration with certificate recording switched on or off (see
    /// [`ExplorerConfig::emit_certificate`]).
    pub fn with_emit_certificate(mut self, emit: bool) -> ExplorerConfig {
        self.emit_certificate = emit;
        self
    }

    /// This configuration polling the given cancellation token (see
    /// [`ExplorerConfig::cancel`]).
    pub fn with_cancel(mut self, cancel: CancelToken) -> ExplorerConfig {
        self.cancel = Some(cancel);
        self
    }

    /// This configuration under a wall-clock deadline: the search stops cleanly (reported
    /// as an incomplete exploration) once `budget` elapses. Shorthand for
    /// [`with_cancel`](Self::with_cancel) over a
    /// [`CancelToken::with_timeout`](rdms_core::CancelToken::with_timeout) token.
    pub fn with_deadline(self, budget: Duration) -> ExplorerConfig {
        self.with_cancel(CancelToken::with_timeout(budget))
    }

    /// This configuration under a memory budget (see
    /// [`ExplorerConfig::memory_budget_bytes`]).
    pub fn with_memory_budget_bytes(mut self, budget: usize) -> ExplorerConfig {
        self.memory_budget_bytes = Some(budget);
        self
    }
}

/// The bounded explorer for one DMS and one recency bound.
pub struct Explorer<'a> {
    dms: &'a Dms,
    b: usize,
    config: ExplorerConfig,
}

impl<'a> Explorer<'a> {
    /// Create an explorer with the default budget.
    pub fn new(dms: &'a Dms, b: usize) -> Explorer<'a> {
        Explorer {
            dms,
            b,
            config: ExplorerConfig::default(),
        }
    }

    /// Override the exploration budget.
    pub fn with_config(mut self, config: ExplorerConfig) -> Explorer<'a> {
        self.config = config;
        self
    }

    /// The recency bound.
    pub fn bound(&self) -> usize {
        self.b
    }

    fn driver(&self, dedup: bool) -> SearchDriver<'a> {
        SearchDriver::new(self.dms, self.b, self.config.clone(), dedup)
    }

    /// Check one target — the single entry point for trace properties and state
    /// invariants. A trace property must hold on **every** `b`-bounded run prefix up to
    /// the depth budget (finite-prefix semantics); an invariant (a boolean FOL(R) query)
    /// must hold in every reachable instance, with configurations deduplicated modulo
    /// data isomorphism, so its verdict is exact for this recency bound whenever the
    /// exploration saturates within the budget. A violation carries a counterexample
    /// prefix.
    pub fn run(&self, target: impl Into<CheckTarget>) -> Verdict {
        match target.into() {
            CheckTarget::Property(property) => {
                let outcome = self.driver(false).search(
                    ExtendedRun::new(self.dms.initial_bconfig()),
                    |run: &ExtendedRun| !eval_sentence(&run.instances(), &property),
                );
                match outcome.hit {
                    Some(counterexample) => Verdict::Violated {
                        counterexample,
                        stats: outcome.stats,
                        certificate: None,
                    },
                    None => Verdict::Holds {
                        // even with the frontier exhausted the verdict concerns prefixes
                        // up to the depth budget only; it is complete exactly when nothing
                        // was cut off by max_configs, the memory budget or a cancellation
                        complete: !outcome.budget_cutoff
                            && !outcome.memory_cutoff
                            && !outcome.cancelled,
                        stats: outcome.stats,
                        certificate: None,
                    },
                }
            }
            CheckTarget::Invariant(invariant) => {
                let mut outcome = self.driver(true).search(
                    ExtendedRun::new(self.dms.initial_bconfig()),
                    |run: &ExtendedRun| {
                        !rdms_db::eval::holds_boolean(run.last().instance(), &invariant)
                            .unwrap_or(false)
                    },
                );
                match outcome.hit {
                    Some(counterexample) => {
                        let certificate = self
                            .config
                            .emit_certificate
                            .then(|| {
                                commit::violation_certificate(
                                    self.dms,
                                    self.b,
                                    &invariant,
                                    &counterexample,
                                )
                            })
                            .flatten()
                            .map(Box::new);
                        Verdict::Violated {
                            counterexample,
                            stats: outcome.stats,
                            certificate,
                        }
                    }
                    None => {
                        let complete = outcome.complete();
                        // a Safe certificate is a *closure proof*: it only exists when the
                        // committed state set is genuinely closed under successors, i.e.
                        // the exploration saturated with no depth or budget cutoff
                        let certificate = (complete && self.config.emit_certificate)
                            .then(|| {
                                outcome.edges.take().and_then(|edges| {
                                    commit::safe_certificate(self.dms, self.b, &invariant, edges)
                                })
                            })
                            .flatten()
                            .map(Box::new);
                        Verdict::Holds {
                            complete,
                            stats: outcome.stats,
                            certificate,
                        }
                    }
                }
            }
        }
    }

    /// Search for a `b`-bounded run prefix satisfying the property (finite-prefix
    /// semantics). Returns the witness prefix if found.
    pub fn find_witness(&self, property: &MsoFo) -> (Option<ExtendedRun>, CheckStats) {
        let outcome = self.driver(false).search(
            ExtendedRun::new(self.dms.initial_bconfig()),
            |run: &ExtendedRun| eval_sentence(&run.instances(), property),
        );
        (outcome.hit, outcome.stats)
    }

    /// Search for a reachable instance satisfying the boolean query (state-based
    /// reachability with isomorphism deduplication). Returns the witness run if found,
    /// plus whether the search was exhaustive for this bound.
    pub fn find_reachable_instance(
        &self,
        target: &Query,
    ) -> (Option<ExtendedRun>, bool, CheckStats) {
        let outcome = self.driver(true).search(
            ExtendedRun::new(self.dms.initial_bconfig()),
            |run: &ExtendedRun| {
                answers(run.last().instance(), target)
                    .map(|a| !a.is_empty())
                    .unwrap_or(false)
            },
        );
        let complete = outcome.complete();
        (outcome.hit, complete, outcome.stats)
    }

    /// Propositional reachability at this recency bound (Example 4.2), as a convenience.
    pub fn proposition_reachable(&self, p: rdms_db::RelName) -> (bool, CheckStats) {
        let (witness, _, stats) = self.find_reachable_instance(&Query::prop(p));
        (witness.is_some(), stats)
    }

    /// The number of distinct reachable configurations (modulo data isomorphism) within the
    /// budget — the measure reported by the recency-sweep experiment E1.
    pub fn reachable_state_count(&self) -> (usize, bool) {
        let outcome = self.driver(true).search(
            TipNode {
                config: self.dms.initial_bconfig(),
                depth: 0,
            },
            |_: &TipNode| false,
        );
        (outcome.distinct_states, outcome.complete())
    }
}

// -----------------------------------------------------------------------------------------
// the search driver
// -----------------------------------------------------------------------------------------

/// A frontier entry. [`ExtendedRun`] keeps the whole run prefix (needed for trace properties
/// and counterexamples); [`TipNode`] keeps only the tip configuration (enough for state
/// counting, and much cheaper to clone).
pub(crate) trait SearchNode {
    /// The configuration at the tip of this prefix.
    fn tip(&self) -> &BConfig;
    /// Number of actions taken from the initial configuration.
    fn depth(&self) -> usize;
    /// The prefix extended by one transition.
    fn child(&self, step: Step, next: BConfig) -> Self;
}

impl SearchNode for ExtendedRun {
    fn tip(&self) -> &BConfig {
        self.last()
    }

    fn depth(&self) -> usize {
        self.len()
    }

    fn child(&self, step: Step, next: BConfig) -> Self {
        let mut extended = self.clone();
        extended.push(step, next);
        extended
    }
}

/// The cheap node: only the tip configuration and its depth.
pub(crate) struct TipNode {
    config: BConfig,
    depth: usize,
}

impl SearchNode for TipNode {
    fn tip(&self) -> &BConfig {
        &self.config
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn child(&self, _step: Step, next: BConfig) -> Self {
        TipNode {
            config: next,
            depth: self.depth + 1,
        }
    }
}

/// What a [`SearchDriver`] search produced.
pub(crate) struct SearchOutcome<N> {
    /// The node on which the hit predicate first fired, in depth-first order.
    pub hit: Option<N>,
    /// Exploration statistics.
    pub stats: CheckStats,
    /// Some prefix was cut off by the depth bound.
    pub depth_cutoff: bool,
    /// Some successor was dropped because the `max_configs` budget was exhausted.
    pub budget_cutoff: bool,
    /// Some successor was dropped because admitting it would have exceeded
    /// [`ExplorerConfig::memory_budget_bytes`].
    pub memory_cutoff: bool,
    /// The search stopped early because [`ExplorerConfig::cancel`] fired (explicit
    /// cancellation or an expired deadline).
    pub cancelled: bool,
    /// Size of the seen-set (deduplicating searches only): distinct configurations modulo
    /// data isomorphism, including the initial one.
    pub distinct_states: usize,
    /// The recorded certificate evidence (deduplicating searches with
    /// [`ExplorerConfig::emit_certificate`] only): canonical state digest → wire facts and
    /// successor digests, for every state that was expanded. Populated only when the
    /// search completed without a hit — the one case a `Safe` certificate can be built —
    /// so searches that end early never pay for digesting or wire-lowering the evidence.
    pub edges: Option<EdgeMap>,
}

impl<N> SearchOutcome<N> {
    /// Whether the exploration was exhaustive for the question asked: no prefix was cut off
    /// by the depth bound, no successor was dropped by the `max_configs` or memory budget,
    /// and the search was not cancelled.
    pub fn complete(&self) -> bool {
        !self.depth_cutoff && !self.budget_cutoff && !self.memory_cutoff && !self.cancelled
    }
}

/// The stable cutoff-reason precedence (see
/// [`CheckStats::cutoff`]): cancellation dominates (an external command), then memory
/// pressure (stops admission outright), then the configuration budget (merely caps the
/// count). Several flags can be set on one search; exactly one reason is reported.
pub(crate) fn cutoff_reason(cancelled: bool, memory: bool, configs: bool) -> Option<CutoffReason> {
    if cancelled {
        Some(CutoffReason::Cancelled)
    } else if memory {
        Some(CutoffReason::Memory)
    } else if configs {
        Some(CutoffReason::Configs)
    } else {
        None
    }
}

/// Estimated bytes a frontier entry retains for its tip configuration: the configuration's
/// own heap (per the [`HeapSize`] contract) plus a flat allowance for the stack slot and
/// the run spine's per-step cell.
fn frontier_cost(config: &BConfig) -> usize {
    config.total_size() + FRONTIER_ENTRY_OVERHEAD
}

/// Flat per-frontier-entry allowance on top of the tip configuration's own bytes.
const FRONTIER_ENTRY_OVERHEAD: usize = 64;

/// The engine shared by every explorer entry point (and reused by the hybrid checker): a
/// bounded depth-first search over the `b`-bounded configuration graph.
pub(crate) struct SearchDriver<'a> {
    sem: RecencySemantics<'a>,
    constants: BTreeSet<DataValue>,
    config: ExplorerConfig,
    dedup: bool,
}

impl<'a> SearchDriver<'a> {
    /// A driver for one DMS / recency bound. `dedup` enables deduplication modulo data
    /// isomorphism (state-based searches); trace searches must keep it off, since trace
    /// properties depend on the whole prefix, not only on the final configuration.
    pub fn new(dms: &'a Dms, b: usize, config: ExplorerConfig, dedup: bool) -> SearchDriver<'a> {
        SearchDriver {
            sem: RecencySemantics::new(dms, b),
            constants: dms.constants().clone(),
            config,
            dedup,
        }
    }

    /// Run the search from `root`, returning the first node (in depth-first order) on
    /// which `is_hit` fires.
    pub fn search<N, F>(&self, root: N, mut is_hit: F) -> SearchOutcome<N>
    where
        N: SearchNode,
        F: FnMut(&N) -> bool,
    {
        let start = Instant::now();
        let counters = Arc::new(SearchCounters::new());
        let mut stats = CheckStats {
            recency_bound: self.sem.bound(),
            depth_bound: self.config.depth,
            threads: 1,
            ..Default::default()
        };
        let mut depth_cutoff = false;
        let mut budget_cutoff = false;
        let mut memory_cutoff = false;
        let mut cancelled = false;
        let mut mem_used = 0usize;

        // seen: interned canonical id → shallowest depth at which the state was reached.
        // Re-expanding on a strictly shallower re-visit makes the explored state set the
        // depth-bounded reachability fixpoint, independent of exploration order — the
        // property `Workspace` bound seeding relies on.
        let mut seen: HashMap<u64, usize> = HashMap::new();
        let own;
        let interner = match &self.config.interner {
            Some(lent) => lent,
            None => {
                own = KeyInterner::new();
                &own
            }
        };
        let mut recording: Option<RawEdges> =
            (self.dedup && self.config.emit_certificate).then(HashMap::new);

        let mut hit = None;
        {
            let _scope = record_into(&counters);
            let mut root_seed = None;
            if self.dedup {
                // the root's canonical key seeds both the seen-set and, when recording,
                // its certificate record
                let key = canonical_config_key(root.tip(), &self.constants);
                let (id, handle) = interner.intern_handle(key);
                seen.insert(id, 0);
                root_seed = recording
                    .is_some()
                    .then_some(RecordSeed { id, key: handle });
            }
            let mut stack: Vec<(N, Option<RecordSeed>)> = vec![(root, root_seed)];
            let mut peak = 1usize;
            loop {
                // one cooperative poll per expanded configuration: the unit of work that
                // bounds how late a deadline can be noticed
                if self
                    .config
                    .cancel
                    .as_ref()
                    .is_some_and(|c| c.is_cancelled())
                {
                    cancelled = true;
                    break;
                }
                let Some((node, seed)) = stack.pop() else {
                    break;
                };
                stats.prefixes_checked += 1;
                if is_hit(&node) {
                    hit = Some(node);
                    break;
                }
                if node.depth() >= self.config.depth {
                    depth_cutoff = true;
                    continue;
                }
                if budget_cutoff || memory_cutoff {
                    // a budget is exhausted and known to have truncated the search
                    // already; nothing below this node can be admitted
                    continue;
                }
                let child_depth = node.depth() + 1;
                // when recording, the expanded state's digest and wire facts were captured
                // when it was admitted (its canonical key was in hand then) — expansion
                // itself never re-canonicalises
                let mut record = seed.map(|seed| (seed, Vec::new()));
                for (step, next) in self
                    .sem
                    .successors(node.tip())
                    .expect("successor computation")
                {
                    if stats.configs_explored >= self.config.max_configs {
                        budget_cutoff = true;
                        break;
                    }
                    if let Some(budget) = self.config.memory_budget_bytes {
                        let cost = frontier_cost(&next);
                        if mem_used.saturating_add(cost) > budget {
                            memory_cutoff = true;
                            break;
                        }
                        mem_used += cost;
                    }
                    stats.configs_explored += 1;
                    let mut child_seed = None;
                    if self.dedup {
                        // one canonicalisation serves the dedup probe and, when recording,
                        // the successor record (its id) and the admitted child's own seed;
                        // the handle is an Arc bump on the interner's stored key
                        let key = canonical_config_key(&next, &self.constants);
                        let (id, handle) = interner.intern_handle(key);
                        if let Some((_, succs)) = record.as_mut() {
                            succs.push(id);
                        }
                        if !record_min_depth(&mut seen, id, child_depth) {
                            stats.configs_deduplicated += 1;
                            continue;
                        }
                        child_seed = recording
                            .is_some()
                            .then_some(RecordSeed { id, key: handle });
                    }
                    stack.push((node.child(step, next), child_seed));
                    peak = peak.max(stack.len());
                }
                if let (Some(map), Some((seed, successors))) = (recording.as_mut(), record) {
                    map.insert(seed.id, (seed.key, successors));
                }
            }
            stats.peak_frontier = peak;
            // `_scope` drops here, flushing this thread's tallies into `counters`
        }

        // lower the recording to certificate evidence only when a Safe certificate can
        // actually be built from it (complete exploration, nothing hit)
        let edges = match recording {
            Some(raw)
                if hit.is_none()
                    && !depth_cutoff
                    && !budget_cutoff
                    && !memory_cutoff
                    && !cancelled =>
            {
                Some(lower_edges(raw))
            }
            _ => None,
        };
        stats.elapsed = start.elapsed();
        stats.memory_cutoff = memory_cutoff;
        stats.peak_memory_bytes = mem_used;
        stats.cutoff = cutoff_reason(cancelled, memory_cutoff, budget_cutoff);
        finish_stats(&mut stats, &counters);
        SearchOutcome {
            hit,
            stats,
            depth_cutoff,
            budget_cutoff,
            memory_cutoff,
            cancelled,
            distinct_states: seen.len(),
            edges,
        }
    }
}

/// Pre-computed certificate evidence for a frontier node: its interned canonical id and a
/// shared handle to its canonical key, captured at the moment the node was admitted —
/// when the key had just been interned for the dedup probe — so that expanding the node
/// later costs no additional canonicalisation. The handle is an `Arc` clone of the
/// interner's stored key (one reference-count bump). Only emit-and-dedup searches carry
/// seeds.
struct RecordSeed {
    id: u64,
    key: Arc<CanonicalKey>,
}

/// Certificate evidence as recorded *during* a search: interned canonical id → canonical
/// key + successor ids. Digesting the states and lowering them to wire facts is deferred
/// to [`lower_edges`], which runs only when the search completed without a hit — the one
/// case a `Safe` certificate can be emitted — so violation and cutoff searches record ids
/// (integers) and key handles (Arc bumps) but never pay the per-state hashing and
/// conversion.
type RawEdges = HashMap<u64, (Arc<CanonicalKey>, Vec<u64>)>;

/// Lower id-based recording to the certificate [`EdgeMap`]: convert every recorded
/// state's canonical key to wire facts and its digest in one fused walk
/// ([`commit::state_record`]), then rewrite successor ids to digests.
fn lower_edges(raw: RawEdges) -> EdgeMap {
    let mut digests: HashMap<u64, u64> = HashMap::with_capacity(raw.len());
    let mut staged: Vec<(u64, rdms_core::cert::InstanceData, Vec<u64>)> =
        Vec::with_capacity(raw.len());
    for (id, (key, successors)) in raw {
        let (digest, facts) = commit::state_record(&key);
        digests.insert(id, digest);
        staged.push((digest, facts, successors));
    }
    staged
        .into_iter()
        .map(|(digest, facts, successors)| {
            (
                digest,
                StateRecord {
                    facts,
                    successors: successors
                        .into_iter()
                        // a complete search expanded every state it ever admitted, so
                        // every successor id has a record (and hence a digest)
                        .map(|succ| digests[&succ])
                        .collect(),
                },
            )
        })
        .collect()
}

/// The min-depth dedup rule: record `id` as reached at `depth` and return `true` iff the
/// state must be expanded, i.e. it was never seen before or this visit is strictly
/// shallower than every earlier one.
fn record_min_depth(seen: &mut HashMap<u64, usize>, id: u64, depth: usize) -> bool {
    match seen.entry(id) {
        Entry::Occupied(entry) if *entry.get() <= depth => false,
        Entry::Occupied(mut entry) => {
            entry.insert(depth);
            true
        }
        Entry::Vacant(entry) => {
            entry.insert(depth);
            true
        }
    }
}

/// Fill in the derived statistics fields from this search's exact sharing/index counters
/// (the search recorded into them through a [`record_into`] scope, so the figures are
/// exact even when unrelated searches run concurrently).
pub(crate) fn finish_stats(stats: &mut CheckStats, counters: &SearchCounters) {
    stats.dedup_hit_rate = if stats.configs_explored == 0 {
        0.0
    } else {
        stats.configs_deduplicated as f64 / stats.configs_explored as f64
    };
    let mine = counters.snapshot();
    stats.relations_shared = mine.relations_shared;
    stats.relations_materialized = mine.relations_materialized;
    stats.index_probes = mine.index_probes();
    stats.index_hit_rate = mine.index_hit_rate();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdms_core::dms::example_3_1;
    use rdms_db::{RelName, Var};
    use rdms_logic::templates;

    fn r(name: &str) -> RelName {
        RelName::new(name)
    }

    fn config(depth: usize, max_configs: usize) -> ExplorerConfig {
        ExplorerConfig {
            depth,
            max_configs,
            ..ExplorerConfig::default()
        }
    }

    #[test]
    fn invariant_violations_are_found_with_counterexamples() {
        let dms = example_3_1();
        let explorer = Explorer::new(&dms, 2).with_config(config(4, 5_000));
        // "p always holds" is violated (β and γ delete p)
        let verdict = explorer.run(Query::prop(r("p")));
        assert!(!verdict.holds());
        let cex = verdict.counterexample().unwrap();
        assert!(!cex.last().instance().proposition(r("p")));
        // the counterexample is a genuine b-bounded run
        assert!(RecencySemantics::new(&dms, 2).is_b_bounded(cex));
    }

    #[test]
    fn true_invariants_hold() {
        let dms = example_3_1();
        let explorer = Explorer::new(&dms, 2).with_config(config(3, 5_000));
        // "whenever p holds, every R-element is absent from Q" — this is *not* an invariant;
        // use something trivially true instead: every Q element is active (tautological)
        let u = Var::new("u");
        let invariant = Query::forall(
            u,
            Query::atom(r("Q"), [u]).implies(Query::atom(r("Q"), [u])),
        );
        let verdict = explorer.run(invariant);
        assert!(verdict.holds());
        assert!(verdict.stats().configs_explored > 0);
    }

    #[test]
    fn reachability_and_its_negation() {
        let dms = example_3_1();
        let explorer = Explorer::new(&dms, 2).with_config(config(3, 5_000));
        // ¬p is reachable (apply β or γ)
        let (witness, _, _) = explorer.find_reachable_instance(&Query::prop(r("p")).not());
        assert!(witness.is_some());
        // a relation that never gets populated with two equal elements in R and Q at once…
        // simpler: the proposition "never" does not even exist in the schema, so the query is
        // rejected gracefully and reported unreachable
        let (witness, _, _) =
            explorer.find_reachable_instance(&Query::prop(r("p")).and(Query::prop(r("p")).not()));
        assert!(witness.is_none());
    }

    #[test]
    fn trace_properties_via_check_and_find_witness() {
        let dms = example_3_1();
        let explorer = Explorer::new(&dms, 2).with_config(config(3, 2_000));

        // "p holds at every position" as an MSO-FO sentence: violated
        let verdict = explorer.run(templates::invariant(Query::prop(r("p"))));
        assert!(!verdict.holds());

        // "p holds at some position" has a witness (already the empty prefix: I₀ ⊨ p)
        let (witness, _) = explorer.find_witness(&templates::proposition_reachable(r("p")));
        assert_eq!(witness.map(|w| w.len()), Some(0));

        // "R is eventually non-empty" has a (non-trivial) witness
        let u = Var::new("u");
        let (witness, _) = explorer.find_witness(&templates::reachability(Query::exists(
            u,
            Query::atom(r("R"), [u]),
        )));
        assert!(!witness.unwrap().is_empty());
    }

    #[test]
    fn more_behaviours_are_verified_as_the_bound_grows() {
        // Exhaustiveness of the under-approximation (Section 5): the number of reachable
        // abstract states grows monotonically with b.
        let dms = example_3_1();
        let mut counts = Vec::new();
        for b in 1..=3 {
            let explorer = Explorer::new(&dms, b).with_config(config(3, 10_000));
            counts.push(explorer.reachable_state_count().0);
        }
        assert!(
            counts[0] <= counts[1] && counts[1] <= counts[2],
            "{counts:?}"
        );
        assert!(
            counts[2] > counts[0],
            "higher bounds must unlock new behaviours: {counts:?}"
        );
    }

    #[test]
    fn deduplication_reduces_work() {
        let dms = example_3_1();
        let explorer = Explorer::new(&dms, 2).with_config(config(4, 50_000));
        let verdict = explorer.run(Query::True);
        assert!(verdict.holds());
        assert!(verdict.stats().configs_deduplicated > 0);
        assert!(verdict.stats().dedup_hit_rate > 0.0);
    }

    #[test]
    fn sequential_engine_reproduces_the_legacy_statistics() {
        // Pin the default configuration to the exact statistics of the original explorer
        // (recorded before the search rewrite), so the visit order provably did not change.
        let dms = example_3_1();

        let explorer = Explorer::new(&dms, 2).with_config(config(3, 5_000));
        let verdict = explorer.run(Query::prop(r("p")));
        assert!(!verdict.holds());
        assert_eq!(verdict.counterexample().map(|c| c.len()), Some(2));
        assert_eq!(verdict.stats().prefixes_checked, 3);
        assert_eq!(verdict.stats().configs_explored, 4);
        assert_eq!(verdict.stats().configs_deduplicated, 0);

        let verdict = explorer.run(templates::invariant(Query::prop(r("p"))));
        assert!(!verdict.holds());
        assert_eq!(verdict.counterexample().map(|c| c.len()), Some(2));
        assert_eq!(verdict.stats().prefixes_checked, 3);
        assert_eq!(verdict.stats().configs_explored, 4);

        let (witness, sat, stats) = explorer.find_reachable_instance(&Query::prop(r("p")).not());
        assert_eq!(witness.map(|w| w.len()), Some(2));
        assert!(sat);
        assert_eq!(stats.prefixes_checked, 3);
        assert_eq!(stats.configs_explored, 4);

        for (b, expected) in [(1, 4), (2, 13), (3, 13)] {
            let e = Explorer::new(&dms, b).with_config(config(3, 10_000));
            let (count, saturated) = e.reachable_state_count();
            assert_eq!(count, expected, "b={b}");
            assert!(!saturated);
        }
    }

    #[test]
    fn repeated_runs_report_identical_statistics() {
        // the search is one deterministic loop: two runs over separately built copies of
        // the system (so neither inherits relation caches the other warmed) agree on
        // every statistic but the wall clock
        let stats = |trace: bool| {
            let dms = example_3_1();
            let explorer = Explorer::new(&dms, 2).with_config(ExplorerConfig {
                depth: 4,
                ..ExplorerConfig::default()
            });
            let verdict = if trace {
                explorer.run(templates::invariant(Query::prop(r("p"))))
            } else {
                explorer.run(Query::True)
            };
            CheckStats {
                elapsed: Duration::ZERO,
                ..verdict.stats().clone()
            }
        };
        for trace in [false, true] {
            assert_eq!(stats(trace), stats(trace), "trace={trace}");
        }
    }

    #[test]
    fn budget_exhaustion_is_only_reported_when_the_search_was_truncated() {
        // Regression test for the max_configs edge: a system whose runs all dead-end must
        // report an exhaustive search even when the budget is hit *exactly*.
        let dms = dead_end_dms();

        // the state space is {start}, {R(x)}, {}: exactly 2 admitted successors
        let exact = Explorer::new(&dms, 2).with_config(config(8, 2));
        let (count, saturated) = exact.reachable_state_count();
        assert_eq!(count, 3);
        assert!(saturated, "budget of exactly 2 configs is not a truncation");

        let (witness, exhaustive, _) = exact
            .find_reachable_instance(&Query::prop(r("start")).and(Query::prop(r("start")).not()));
        assert!(witness.is_none());
        assert!(exhaustive, "unreachable verdict must be exact");

        let (reachable, stats) = exact.proposition_reachable(r("nonexistent"));
        assert!(!reachable);
        assert!(stats.configs_explored <= 2);

        let truncated = Explorer::new(&dms, 2).with_config(config(8, 1));
        let (_, saturated) = truncated.reachable_state_count();
        assert!(!saturated, "budget of 1 config must truncate");
    }

    #[test]
    fn peak_frontier_and_throughput_are_reported() {
        let dms = example_3_1();
        let explorer = Explorer::new(&dms, 2).with_config(config(4, 50_000));
        let verdict = explorer.run(Query::True);
        let stats = verdict.stats();
        assert!(stats.peak_frontier >= 1);
        assert_eq!(stats.threads, 1);
        // throughput is configs_explored over elapsed
        assert!(stats.configs_explored > 0);
        assert!(stats.elapsed > Duration::ZERO);
    }

    /// The booking agency at b = 3, depth 3: its guards probe relation indexes, which
    /// `example_3_1`'s guards never do. Built afresh per call, so no earlier search has
    /// warmed its relation caches.
    fn booking_search() -> Verdict {
        let booking = rdms_workloads::booking::build(&Default::default());
        Explorer::new(&booking.dms, 3)
            .with_config(config(3, 50_000))
            .run(Query::True)
    }

    #[test]
    fn sharing_and_index_statistics_are_reported() {
        let dms = example_3_1();
        let explorer = Explorer::new(&dms, 2).with_config(config(4, 50_000));
        let verdict = explorer.run(Query::True);
        let stats = verdict.stats();
        // the search clones configurations constantly; the COW representation must have
        // shared far more relation handles than it materialised
        assert!(stats.relations_shared > 0);
        assert!(stats.relations_shared > stats.relations_materialized);

        let verdict = booking_search();
        let stats = verdict.stats();
        assert!(stats.index_probes > 0);
        // the exact rate depends on how often tiny relations amortise their caches — only
        // require both cases to have been observed
        assert!(
            stats.index_hit_rate > 0.0 && stats.index_hit_rate < 1.0,
            "rate {}",
            stats.index_hit_rate
        );
    }

    #[test]
    fn sharing_and_index_statistics_are_exact_under_concurrent_searches() {
        use rdms_core::dms::DmsBuilder;
        use rdms_db::Instance;
        use std::sync::atomic::{AtomicBool, Ordering};

        // Two structurally identical DMSs with *separate* relation storage: the same
        // sequential search over either must issue exactly the same counter traffic.
        let reference = booking_search();

        // Re-run the same search while other threads generate heavy unrelated counter
        // traffic (searches of their own plus raw instance churn). With global-delta
        // accounting these figures were polluted; the per-search scopes must report
        // exactly the isolated numbers.
        let stop = AtomicBool::new(false);
        let concurrent = std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let noisy_dms = DmsBuilder::new()
                        .proposition("p")
                        .initially_true("p")
                        .build()
                        .unwrap();
                    while !stop.load(Ordering::Relaxed) {
                        // unrelated searches + instance clones + index probes
                        let _ = Explorer::new(&noisy_dms, 1)
                            .with_config(config(2, 100))
                            .run(Query::True);
                        let mut inst = Instance::new();
                        for i in 0..32u64 {
                            inst.insert(rdms_db::RelName::new("N"), vec![rdms_db::DataValue(i)]);
                        }
                        let copy = inst.clone();
                        let _ = copy
                            .relation_with_first(rdms_db::RelName::new("N"), rdms_db::DataValue(3))
                            .count();
                    }
                });
            }
            let observed = booking_search();
            stop.store(true, Ordering::Relaxed);
            observed
        });

        let a = reference.stats();
        let b = concurrent.stats();
        assert!(a.index_probes > 0);
        assert_eq!(a.relations_shared, b.relations_shared);
        assert_eq!(a.relations_materialized, b.relations_materialized);
        assert_eq!(a.index_probes, b.index_probes);
        assert_eq!(a.index_hit_rate, b.index_hit_rate);
    }

    #[test]
    fn lent_interners_keep_their_keys_and_agree_with_search_owned_ones() {
        use rdms_core::KeyInterner;

        let dms = example_3_1();
        let interner = Arc::new(KeyInterner::new());
        let lent = Explorer::new(&dms, 2).with_config(ExplorerConfig {
            interner: Some(Arc::clone(&interner)),
            ..config(3, 10_000)
        });
        let owned = Explorer::new(&dms, 2).with_config(config(3, 10_000));

        // identical verdicts and state counts through either interner
        let (count_lent, sat_lent) = lent.reachable_state_count();
        let (count_owned, sat_owned) = owned.reachable_state_count();
        assert_eq!(count_lent, count_owned);
        assert_eq!(sat_lent, sat_owned);
        assert_eq!(
            lent.run(Query::prop(r("p"))).holds(),
            owned.run(Query::prop(r("p"))).holds()
        );

        // the lent interner outlives the search and holds exactly this system's distinct
        // canonical keys
        assert_eq!(interner.len(), count_lent);

        // a second search over the same system through the same handle re-uses the ids
        // instead of growing the table
        let (again, _) = lent.reachable_state_count();
        assert_eq!(again, count_lent);
        assert_eq!(interner.len(), count_lent);
    }

    #[test]
    fn certificates_do_not_depend_on_interner_ids() {
        use rdms_core::KeyInterner;
        use rdms_workloads::inventory;

        let invariant = inventory::reserved_items_are_off_the_shelf();
        let certificate = |dms: &Dms, b: usize, interner: Option<Arc<KeyInterner>>| {
            let verdict = Explorer::new(dms, b)
                .with_config(ExplorerConfig {
                    interner,
                    ..config(32, 500_000).with_emit_certificate(true)
                })
                .run(invariant.clone());
            assert!(verdict.holds());
            verdict.certificate().expect("a Safe certificate").clone()
        };

        // a lent interner that already holds another system's keys, so the ids this
        // search draws do not start at 0
        let interner = Arc::new(KeyInterner::new());
        certificate(&inventory::finite_dms(1, 2), 2, Some(Arc::clone(&interner)));
        let held = interner.len();
        assert!(held > 0);

        let dms = inventory::finite_dms(2, 3);
        let owned = certificate(&dms, 3, None);
        let lent = certificate(&dms, 3, Some(Arc::clone(&interner)));
        assert_eq!(owned.to_json(), lent.to_json());
        let rdms_core::cert::CertVerdict::Safe { states, .. } = &owned.verdict else {
            panic!("expected a Safe certificate");
        };
        assert_eq!(states.len(), 434);
        // the two systems share no canonical key: the lent interner grew by all 434
        assert_eq!(interner.len(), held + 434);
    }

    /// A DMS whose `b`-bounded canonical state space is finite ({start} → {R(x)} → {}), so
    /// exhaustive explorations genuinely saturate — the precondition for Safe certificates.
    fn dead_end_dms() -> Dms {
        use rdms_core::action::ActionBuilder;
        use rdms_core::dms::DmsBuilder;
        use rdms_db::{Pattern, Term};
        let v = Var::new("v");
        let u = Var::new("u");
        DmsBuilder::new()
            .proposition("start")
            .relation("R", 1)
            .initially_true("start")
            .action(
                ActionBuilder::new("open")
                    .fresh([v])
                    .guard(Query::prop(r("start")))
                    .del(Pattern::proposition(r("start")))
                    .add(Pattern::from_facts([(r("R"), vec![Term::Var(v)])])),
            )
            .action(
                ActionBuilder::new("close")
                    .params([u])
                    .guard(Query::atom(r("R"), [u]))
                    .del(Pattern::from_facts([(r("R"), vec![Term::Var(u)])])),
            )
            .build()
            .expect("valid dead-end DMS")
    }

    #[test]
    fn certificates_round_trip_through_the_independent_verifier() {
        let u = Var::new("u");
        let tautology = Query::forall(
            u,
            Query::atom(r("R"), [u]).implies(Query::atom(r("R"), [u])),
        );

        // the dead-end system saturates → a Safe closure certificate over its 3 states
        let dms = dead_end_dms();
        let explorer =
            Explorer::new(&dms, 2).with_config(config(8, 50_000).with_emit_certificate(true));
        let verdict = explorer.run(tautology.clone());
        assert!(verdict.holds());
        let cert = verdict.certificate().expect("safe certificate");
        cert.verify().expect("independent verifier accepts");

        // "start always holds" is violated by opening → a replayable Violation certificate
        let verdict = explorer.run(Query::prop(r("start")));
        assert!(!verdict.holds());
        let cert = verdict.certificate().expect("violation certificate");
        cert.verify().expect("independent verifier accepts");

        // a violation on the running example (constants, parameters, an infinite canonical
        // state space — no Safe certificate could exist, but violations still replay)
        let rich = example_3_1();
        let explorer =
            Explorer::new(&rich, 2).with_config(config(4, 50_000).with_emit_certificate(true));
        let verdict = explorer.run(Query::prop(r("p")));
        assert!(!verdict.holds());
        let cert = verdict.certificate().expect("violation certificate");
        cert.verify().expect("independent verifier accepts");

        // the default configuration records nothing and attaches nothing
        let off = Explorer::new(&dms, 2).with_config(config(8, 50_000));
        assert!(off.run(tautology).certificate().is_none());
        assert!(off.run(Query::prop(r("start"))).certificate().is_none());
    }

    #[test]
    fn memory_budgets_degrade_gracefully_on_both_engines() {
        // the trace search (a property target) and the deduplicating search (an invariant
        // target) admit successors through the same meter
        let dms = example_3_1();
        let verdict = |config: ExplorerConfig, dedup: bool, target: Query| {
            let explorer = Explorer::new(&dms, 2).with_config(config);
            if dedup {
                explorer.run(target)
            } else {
                explorer.run(templates::invariant(target))
            }
        };
        for dedup in [false, true] {
            // a budget too small for any admission: the root is still evaluated, the
            // verdict is honest (incomplete), and nothing aborts
            let starved = verdict(
                config(4, 50_000).with_memory_budget_bytes(1),
                dedup,
                Query::True,
            );
            assert!(starved.holds(), "dedup={dedup}: no admitted violation");
            let stats = starved.stats();
            assert!(stats.memory_cutoff, "dedup={dedup}");
            assert_eq!(stats.cutoff, Some(CutoffReason::Memory), "dedup={dedup}");
            assert!(stats.peak_memory_bytes <= 1, "dedup={dedup}");
            assert!(
                matches!(
                    starved,
                    Verdict::Holds {
                        complete: false,
                        ..
                    }
                ),
                "dedup={dedup}: a memory cutoff is never exhaustive"
            );

            // a generous budget changes nothing except that the meter is now reported
            let p = Query::prop(r("p"));
            let with_budget = verdict(
                config(4, 50_000).with_memory_budget_bytes(1 << 30),
                dedup,
                p.clone(),
            );
            let without = verdict(config(4, 50_000), dedup, p);
            assert_eq!(with_budget.holds(), without.holds(), "dedup={dedup}");
            assert!(!with_budget.stats().memory_cutoff, "dedup={dedup}");
            assert_eq!(with_budget.stats().cutoff, None, "dedup={dedup}");
            assert!(
                with_budget.stats().peak_memory_bytes > 0,
                "dedup={dedup}: the meter runs whenever a budget is set"
            );
            assert_eq!(
                without.stats().peak_memory_bytes,
                0,
                "dedup={dedup}: no budget, no accounting"
            );
        }
    }

    #[test]
    fn cutoff_precedence_is_stable_when_several_bounds_fire() {
        // The documented precedence: Cancelled > Memory > Configs. The helper is the
        // single source of truth every search reports through…
        assert_eq!(
            cutoff_reason(true, true, true),
            Some(CutoffReason::Cancelled)
        );
        assert_eq!(cutoff_reason(false, true, true), Some(CutoffReason::Memory));
        assert_eq!(
            cutoff_reason(false, false, true),
            Some(CutoffReason::Configs)
        );
        assert_eq!(cutoff_reason(false, false, false), None);

        // …and end-to-end: a search configured with a fired deadline, an exhausted
        // configuration budget and a zero memory budget all at once reports exactly one
        // reason (the highest-precedence one that fired) and `complete: false` once.
        let dms = example_3_1();
        let fired = rdms_core::CancelToken::new();
        fired.cancel();
        let all_three = Explorer::new(&dms, 2)
            .with_config(config(4, 0).with_cancel(fired).with_memory_budget_bytes(0));
        let verdict = all_three.run(Query::True);
        assert_eq!(verdict.stats().cutoff, Some(CutoffReason::Cancelled));
        assert!(matches!(
            verdict,
            Verdict::Holds {
                complete: false,
                ..
            }
        ));

        // without the deadline, memory pressure outranks the configuration budget: the
        // zero-byte budget refuses the first admission before the (also zero) config
        // budget is ever consulted again
        let memory_and_configs =
            Explorer::new(&dms, 2).with_config(config(4, 50_000).with_memory_budget_bytes(0));
        let verdict = memory_and_configs.run(Query::True);
        assert_eq!(verdict.stats().cutoff, Some(CutoffReason::Memory));
        assert!(matches!(
            verdict,
            Verdict::Holds {
                complete: false,
                ..
            }
        ));

        // and with memory unbounded, the configuration budget is the reason
        let configs_only = Explorer::new(&dms, 2).with_config(config(4, 1));
        let verdict = configs_only.run(Query::True);
        assert_eq!(verdict.stats().cutoff, Some(CutoffReason::Configs));
        assert!(matches!(
            verdict,
            Verdict::Holds {
                complete: false,
                ..
            }
        ));
    }
}
