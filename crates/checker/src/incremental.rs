//! Incremental single-step checking for long-lived sessions.
//!
//! The one-shot entry points ([`Explorer::run`](crate::Explorer::run) and friends)
//! answer "could any `b`-bounded run violate φ?" by searching the bounded
//! configuration graph from scratch. A *serving* deployment asks a different question many
//! times over: "here is the next transaction of **this** session's run — is the invariant
//! still satisfied?". Re-running the search per transaction would pay the whole exploration
//! again on every frame; the recency-bounded semantics makes the per-step answer cheap once
//! the session's run prefix is kept hot.
//!
//! [`IncrementalChecker`] is that hot state: it pins the session's [`ExtendedRun`] spine
//! (O(1) to extend and to clone, see [`rdms_core::run`]), the persistent
//! [`History`](rdms_core::History)/sequence-number maps riding inside its configurations,
//! and a session-scoped [`KeyInterner`] handle for counting distinct abstract states.
//! Checking one transaction is then **flat in the session length**: one
//! [`RecencySemantics::apply`] (guard evaluation + recency-window check against the cached
//! tip configuration), one spine push, one interner probe, and one invariant evaluation on
//! the new instance — no quantity that grows with how many transactions came before. The
//! `e14_service_throughput` bench enforces this (per-transaction cost at session length
//! 1024 within 1.5× of length 16) as a `bench_gate` ratio ceiling.
//!
//! Every step is validated against the full `b`-bounded transition relation, so the input
//! stream can be **untrusted**: an unknown action index, a substitution that does not
//! instantiate the action, a guard that does not hold, or a parameter outside the
//! `Recent_b` window is rejected with the precise [`CoreError`] and leaves the session
//! state untouched. A transaction that *is* a valid transition but lands in a
//! φ-violating state is applied (the run genuinely took that step) and reported as a
//! [`StepVerdict::Violation`] carrying the witness prefix and, when
//! [certificates](rdms_core::commit) are enabled, a replayable `Violation` certificate for
//! the engine-free `rdms-cert` verifier.
//!
//! The verdicts agree with the from-scratch engines by construction — an incremental
//! violation at depth `d` is a genuine `b`-bounded counterexample the explorer can also
//! find at depth ≥ `d` — and the workspace `tests/incremental.rs` suite pins this
//! equivalence on random transaction streams.
//!
//! ```
//! use rdms_checker::incremental::{IncrementalChecker, StepVerdict};
//! use rdms_core::dms::example_3_1;
//! use rdms_db::Query;
//! use std::sync::Arc;
//!
//! // Figure 1's DMS at recency bound 2, with the trivially-true invariant.
//! let dms = Arc::new(example_3_1());
//! let mut session = IncrementalChecker::new(dms, 2, Query::True).unwrap();
//!
//! // Feed the first Figure 1 transaction: α with (v1,v2,v3) ↦ (e1,e2,e3).
//! use rdms_db::{DataValue, Substitution, Var};
//! let step = rdms_core::Step::new(
//!     0,
//!     Substitution::from_pairs([
//!         (Var::new("v1"), DataValue::e(1)),
//!         (Var::new("v2"), DataValue::e(2)),
//!         (Var::new("v3"), DataValue::e(3)),
//!     ]),
//! );
//! let verdict = session.check(&step).unwrap();
//! assert!(matches!(verdict, StepVerdict::Ok { .. }));
//! assert_eq!(session.run().len(), 1);
//! ```

use crate::verdict::{CheckStats, Verdict};
use rdms_core::cert::Certificate;
use rdms_core::iso::canonical_config_key;
use rdms_core::{
    commit, CancelToken, CoreError, Dms, ExtendedRun, KeyInterner, RecencySemantics, Step,
};
use rdms_db::heap::{HeapSize, ARC_HEADER};
use rdms_db::{eval, Query};
use std::sync::Arc;
use std::time::Instant;

/// The outcome of checking one transaction against a session's invariant.
///
/// Both variants mean the step was a *valid* `b`-bounded transition and has been applied —
/// invalid steps surface as [`CoreError`]s from [`IncrementalChecker::check`] instead and
/// leave the session unchanged.
#[derive(Clone, Debug)]
pub enum StepVerdict {
    /// The invariant holds in the configuration the step reached.
    Ok {
        /// Session-scoped id of the canonical abstract state reached (ids from different
        /// sessions' interners are unrelated).
        state_id: u64,
        /// Whether this abstract state is new to the session (`false`: the run revisited a
        /// configuration isomorphic to an earlier one).
        new_state: bool,
    },
    /// The step was applied and the reached configuration violates the invariant.
    ///
    /// The session stays live: the violating run is a genuine behaviour of the system, and
    /// callers may keep streaming transactions to observe further violations.
    Violation {
        /// The violating run prefix — shares the session's spine, so this is O(1) to hand
        /// out regardless of session length.
        witness: ExtendedRun,
        /// A replayable `Violation` certificate, when the session was opened with
        /// certificate emission and the invariant is
        /// [certifiable](rdms_core::commit::certifiable). Check it with the engine-free
        /// `rdms-cert` crate.
        certificate: Option<Box<Certificate>>,
    },
}

impl StepVerdict {
    /// Whether the invariant held after this step.
    pub fn holds(&self) -> bool {
        matches!(self, StepVerdict::Ok { .. })
    }

    /// The witness run, when this step violated the invariant.
    pub fn witness(&self) -> Option<&ExtendedRun> {
        match self {
            StepVerdict::Ok { .. } => None,
            StepVerdict::Violation { witness, .. } => Some(witness),
        }
    }

    /// The certificate carried by a violation, if one was emitted.
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            StepVerdict::Ok { .. } => None,
            StepVerdict::Violation { certificate, .. } => certificate.as_deref(),
        }
    }
}

/// What [`IncrementalChecker::revise`] did to honour an in-place session edit — the
/// payload of the serve layer's `Revised` wire response.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReviseOutcome {
    /// Accepted transactions replayed against the revised DMS (0 unless the DMS changed).
    pub replayed_steps: usize,
    /// Spine configurations on which the invariant was (re)evaluated.
    pub rechecked_configs: usize,
    /// The session's run length afterwards (unchanged by revision; reported for the wire).
    pub run_len: usize,
    /// The session's violation count afterwards (recomputed when the DMS or the invariant
    /// changed).
    pub violations: usize,
}

/// A pinned verification session: the run so far, plus everything needed to check the next
/// transaction in time independent of how many came before.
///
/// Cloning is cheap (the run spine and DMS are `Arc`-shared, the interner handle is
/// shared), which is what lets the throughput bench restart a long session per iteration
/// without replaying it. Note that clones share the interner, so `distinct_states` counts
/// across all clones collectively; independent sessions should each be built with
/// [`IncrementalChecker::new`].
#[derive(Clone)]
pub struct IncrementalChecker {
    dms: Arc<Dms>,
    bound: usize,
    invariant: Query,
    emit_certificate: bool,
    /// Session-level cancellation token, polled by every [`check`](Self::check) (see
    /// [`with_cancel`](Self::with_cancel)); per-call tokens via
    /// [`check_with_cancel`](Self::check_with_cancel) take precedence.
    cancel: Option<CancelToken>,
    /// Session-scoped by default: a private interner dies with the session, so a server's
    /// memory for abstract-state dedup is bounded per session, not per process.
    interner: Arc<KeyInterner>,
    run: ExtendedRun,
    started: Instant,
    transactions: usize,
    distinct_states: usize,
    dedup_hits: usize,
    violations: usize,
    /// The shortest violating prefix observed (the first one, since prefixes only grow).
    first_violation: Option<ExtendedRun>,
    /// Estimated bytes retained by the run spine, maintained incrementally so
    /// [`memory_bytes`](Self::memory_bytes) stays O(1) per call (the per-step flat-cost
    /// contract extends to the accounting itself).
    run_bytes: usize,
}

/// Estimated cost of holding one more configuration on the run spine: the configuration's
/// own footprint plus the spine node (step + `Arc` header). Like every [`HeapSize`]
/// figure, an upper-bound estimate — shared `Arc`s are charged per holder.
fn spine_cost(config: &rdms_core::BConfig) -> usize {
    config.total_size() + std::mem::size_of::<Step>() + ARC_HEADER
}

impl std::fmt::Debug for IncrementalChecker {
    /// Summary form only — the run spine and interner contents are intentionally elided
    /// (they grow with the session).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalChecker")
            .field("bound", &self.bound)
            .field("transactions", &self.transactions)
            .field("distinct_states", &self.distinct_states)
            .field("violations", &self.violations)
            .finish_non_exhaustive()
    }
}

impl IncrementalChecker {
    /// Open a session: pin the initial configuration of `dms` under recency bound `bound`
    /// and validate `invariant` (it must be a closed formula — evaluating an open formula
    /// as an invariant would need a binding for its free variables).
    ///
    /// The invariant is also evaluated on the **initial** configuration, so a system whose
    /// initial database already violates φ reports it through
    /// [`violations`](Self::violations)/[`verdict`](Self::verdict) rather than silently
    /// waiting for the first step. Certificates are off; enable them with
    /// [`with_emit_certificate`](Self::with_emit_certificate).
    pub fn new(dms: Arc<Dms>, bound: usize, invariant: Query) -> Result<Self, CoreError> {
        if let Some(&var) = invariant.free_vars().iter().next() {
            return Err(CoreError::Db(rdms_db::DbError::UnboundVariable(var)));
        }
        let run = ExtendedRun::new(dms.initial_bconfig());
        let interner = Arc::new(KeyInterner::new());
        let key = canonical_config_key(run.last(), dms.constants());
        let (_, fresh) = interner.intern_new(key);
        debug_assert!(fresh, "a fresh interner cannot know the initial state");
        let initially_holds = eval::holds_boolean(run.last().instance(), &invariant)?;
        let run_bytes = spine_cost(run.last());
        let mut session = IncrementalChecker {
            dms,
            bound,
            invariant,
            emit_certificate: false,
            cancel: None,
            interner,
            run,
            started: Instant::now(),
            transactions: 0,
            distinct_states: 1,
            dedup_hits: 0,
            violations: 0,
            first_violation: None,
            run_bytes,
        };
        if !initially_holds {
            session.violations = 1;
            session.first_violation = Some(session.run.clone());
        }
        Ok(session)
    }

    /// Builder-style toggle: emit a `Violation` certificate with each violating verdict
    /// (requires the invariant to be [certifiable](rdms_core::commit::certifiable) — closed
    /// and naming only declared constants — otherwise verdicts simply carry no
    /// certificate).
    pub fn with_emit_certificate(mut self, emit: bool) -> Self {
        self.emit_certificate = emit;
        self
    }

    /// Builder-style session-level cancellation: the token is polled by every subsequent
    /// [`check`](Self::check), exactly as the per-call
    /// [`check_with_cancel`](Self::check_with_cancel) token would be. This is the session
    /// counterpart of [`ExplorerConfig::with_cancel`](crate::ExplorerConfig::with_cancel)
    /// — the two layers now share one builder vocabulary (see
    /// [`SessionRequest::with_cancel`](crate::SessionRequest::with_cancel)).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Rebuild a session from a previously captured run spine **without re-validating the
    /// transitions** (no [`RecencySemantics::apply`] per step).
    ///
    /// The run's configurations are re-interned in order, so `distinct_states`,
    /// `dedup_hits` and the session-scoped state ids come out exactly as in the
    /// uninterrupted session. `violations` and the first violating prefix cannot be
    /// recomputed without re-evaluating φ per configuration, so the caller passes the
    /// checkpointed values (`first_violation_len` = the witness prefix length, `0` for an
    /// initially-violating configuration).
    ///
    /// The run is **trusted**: callers resuming from untrusted bytes should replay
    /// through [`check`](Self::check) instead, which validates every transition.
    pub fn resume(
        dms: Arc<Dms>,
        bound: usize,
        invariant: Query,
        run: ExtendedRun,
        violations: usize,
        first_violation_len: Option<usize>,
    ) -> Result<Self, CoreError> {
        if let Some(&var) = invariant.free_vars().iter().next() {
            return Err(CoreError::Db(rdms_db::DbError::UnboundVariable(var)));
        }
        let interner = Arc::new(KeyInterner::new());
        let mut distinct_states = 0;
        let mut dedup_hits = 0;
        let mut run_bytes = 0;
        for config in run.configs() {
            let key = canonical_config_key(config, dms.constants());
            let (_, fresh) = interner.intern_new(key);
            if fresh {
                distinct_states += 1;
            } else {
                dedup_hits += 1;
            }
            run_bytes += spine_cost(config);
        }
        let first_violation = first_violation_len.map(|len| run.prefix(len));
        Ok(IncrementalChecker {
            dms,
            bound,
            invariant,
            emit_certificate: false,
            cancel: None,
            interner,
            transactions: run.len(),
            run,
            started: Instant::now(),
            distinct_states,
            dedup_hits,
            violations,
            first_violation,
            run_bytes,
        })
    }

    /// Revise the session's inputs **in place**, keeping its accepted run: the live
    /// counterpart of editing a model and re-opening — without losing the session. Any
    /// subset of DMS, recency bound and invariant may change; inputs equal to the current
    /// ones are dropped up front, so a no-op revision costs nothing and touches nothing.
    ///
    /// Semantics per input, each chosen so the revised session is exactly the session
    /// that would exist had it been opened with the new inputs and fed the same stream:
    ///
    /// * **Invariant change** — φ is re-evaluated on every spine configuration to rebuild
    ///   the violation record (count + first violating prefix). The run itself is
    ///   untouched: validity of transitions never depends on φ.
    /// * **Bound increase** — O(1). Every `b`-bounded run is `b′`-bounded for `b′ ≥ b`
    ///   (`Recent_b ⊆ Recent_b′`), so the accepted run is already valid.
    /// * **Bound decrease** — the accepted run is re-validated under the smaller window
    ///   ([`RecencySemantics::is_b_bounded`]); if any step used data outside it, the
    ///   revision is refused with [`CoreError::Unsupported`] (the session's history is a
    ///   genuine behaviour the new bound cannot express).
    /// * **DMS change** — the accepted steps are **replayed** from the new initial
    ///   configuration, with action indices remapped by *name* (an action the revised DMS
    ///   no longer has, or a step the revised semantics rejects, refuses the revision).
    ///   The interner is rebuilt, so state ids, distinct-state and dedup counts come out
    ///   as if the session had always run against the revised DMS.
    ///
    /// All-or-nothing: on `Err` the session is exactly as it was.
    pub fn revise(
        &mut self,
        dms: Option<Arc<Dms>>,
        bound: Option<usize>,
        invariant: Option<Query>,
    ) -> Result<ReviseOutcome, CoreError> {
        // drop no-op inputs first: a fingerprint-identical revision must cost nothing
        let new_dms = dms.filter(|d| **d != *self.dms);
        let new_bound = bound.filter(|b| *b != self.bound);
        let new_invariant = invariant.filter(|q| *q != self.invariant);
        let mut outcome = ReviseOutcome {
            run_len: self.run.len(),
            violations: self.violations,
            ..ReviseOutcome::default()
        };
        if new_dms.is_none() && new_bound.is_none() && new_invariant.is_none() {
            return Ok(outcome);
        }
        if let Some(q) = &new_invariant {
            if let Some(&var) = q.free_vars().iter().next() {
                return Err(CoreError::Db(rdms_db::DbError::UnboundVariable(var)));
            }
        }
        let bound = new_bound.unwrap_or(self.bound);
        let invariant = new_invariant
            .clone()
            .unwrap_or_else(|| self.invariant.clone());

        if let Some(dms) = new_dms {
            // full replay with by-name action remapping, staged into locals so a failing
            // step leaves the session untouched
            let mut new_index = std::collections::BTreeMap::new();
            for (index, action) in dms.actions().iter().enumerate() {
                new_index.insert(action.name(), index);
            }
            let semantics = RecencySemantics::new(&dms, bound);
            let interner = Arc::new(KeyInterner::new());
            let mut run = ExtendedRun::new(dms.initial_bconfig());
            let key = canonical_config_key(run.last(), dms.constants());
            interner.intern_new(key);
            let mut distinct_states = 1;
            let mut dedup_hits = 0;
            let mut run_bytes = spine_cost(run.last());
            let mut violations = 0;
            let mut first_violation = None;
            if !eval::holds_boolean(run.last().instance(), &invariant)? {
                violations = 1;
                first_violation = Some(run.clone());
            }
            for step in self.run.steps() {
                let name = self.dms.action(step.action)?.name();
                let index = *new_index.get(name).ok_or_else(|| {
                    CoreError::Unsupported(format!(
                        "revised DMS has no action named {name:?}, but the session's \
                         accepted run uses it"
                    ))
                })?;
                let next = semantics.apply(run.last(), index, &step.subst)?;
                let holds = eval::holds_boolean(next.instance(), &invariant)?;
                run.push(Step::new(index, step.subst.clone()), next);
                let key = canonical_config_key(run.last(), dms.constants());
                let (_, fresh) = interner.intern_new(key);
                if fresh {
                    distinct_states += 1;
                } else {
                    dedup_hits += 1;
                }
                run_bytes += spine_cost(run.last());
                if !holds {
                    violations += 1;
                    if first_violation.is_none() {
                        first_violation = Some(run.clone());
                    }
                }
                outcome.replayed_steps += 1;
            }
            outcome.rechecked_configs = run.len() + 1;
            self.dms = dms;
            self.interner = interner;
            self.run = run;
            self.distinct_states = distinct_states;
            self.dedup_hits = dedup_hits;
            self.run_bytes = run_bytes;
            self.violations = violations;
            self.first_violation = first_violation;
        } else {
            if let Some(smaller) = new_bound.filter(|b| *b < self.bound) {
                let semantics = RecencySemantics::new(&self.dms, smaller);
                if !semantics.is_b_bounded(&self.run) {
                    return Err(CoreError::Unsupported(format!(
                        "the session's accepted run is not {smaller}-bounded; a recency \
                         bound can only be lowered below the run's needs by reopening"
                    )));
                }
            }
            if new_invariant.is_some() {
                // re-evaluate φ along the spine to rebuild the violation record; stage
                // the walk's results so an evaluation error changes nothing
                let mut violations = 0;
                let mut first_violation_len = None;
                for (depth, config) in self.run.configs().into_iter().enumerate() {
                    if !eval::holds_boolean(config.instance(), &invariant)? {
                        violations += 1;
                        if first_violation_len.is_none() {
                            first_violation_len = Some(depth);
                        }
                    }
                    outcome.rechecked_configs += 1;
                }
                self.violations = violations;
                self.first_violation = first_violation_len.map(|len| self.run.prefix(len));
            }
        }
        self.bound = bound;
        self.invariant = invariant;
        outcome.run_len = self.run.len();
        outcome.violations = self.violations;
        Ok(outcome)
    }

    /// Check one transaction: validate it as a `b`-bounded transition from the current tip,
    /// apply it, and evaluate the invariant in the reached configuration.
    ///
    /// On `Err` the step was **not** applied (unknown action, non-instantiating
    /// substitution, guard failure, recency violation, an invariant that fails to
    /// evaluate, …) and the session state is unchanged — callers serving untrusted
    /// streams map these to a rejection reply and keep the session. On `Ok` the step has
    /// been applied, whether or not the invariant held.
    ///
    /// Cost is flat in the session length: one successor computation at the tip, one O(1)
    /// spine push, one interner probe, one invariant evaluation.
    pub fn check(&mut self, step: &Step) -> Result<StepVerdict, CoreError> {
        let session_token = self.cancel.clone();
        self.check_inner(step, session_token.as_ref())
    }

    /// [`check`](Self::check) under cooperative cancellation: the token is polled before
    /// each phase of the step (transition validation, invariant evaluation, commit), and a
    /// fired token returns [`CoreError::Cancelled`] with the session **untouched** — the
    /// step is only committed after every phase ran to completion. Serving layers build a
    /// deadline token per request ([`CancelToken::with_timeout`]) to bound how long one
    /// pathological transaction can pin a worker.
    pub fn check_with_cancel(
        &mut self,
        step: &Step,
        cancel: &CancelToken,
    ) -> Result<StepVerdict, CoreError> {
        self.check_inner(step, Some(cancel))
    }

    fn check_inner(
        &mut self,
        step: &Step,
        cancel: Option<&CancelToken>,
    ) -> Result<StepVerdict, CoreError> {
        let poll = |cancel: Option<&CancelToken>| -> Result<(), CoreError> {
            match cancel {
                Some(token) if token.is_cancelled() => Err(CoreError::Cancelled),
                _ => Ok(()),
            }
        };
        poll(cancel)?;
        let semantics = RecencySemantics::new(&self.dms, self.bound);
        let next = semantics.apply(self.run.last(), step.action, &step.subst)?;
        poll(cancel)?;
        // evaluate φ on the reached configuration *before* committing anything, so a
        // cancellation (or an evaluation error) between the phases leaves the session
        // exactly as it was
        let holds = eval::holds_boolean(next.instance(), &self.invariant)?;
        poll(cancel)?;

        self.run.push(step.clone(), next);
        self.transactions += 1;
        let key = canonical_config_key(self.run.last(), self.dms.constants());
        let (state_id, new_state) = self.interner.intern_new(key);
        // charge the spine *after* canonicalisation: computing the key populates the
        // configuration's recency-rank cache, which heap_size includes once present, so
        // measuring here makes the estimate deterministic (resume re-measures the same
        // configurations after re-interning them and must arrive at the same figure)
        self.run_bytes += spine_cost(self.run.last());
        if new_state {
            self.distinct_states += 1;
        } else {
            self.dedup_hits += 1;
        }

        if holds {
            return Ok(StepVerdict::Ok {
                state_id,
                new_state,
            });
        }

        self.violations += 1;
        if self.first_violation.is_none() {
            self.first_violation = Some(self.run.clone());
        }
        let certificate = if self.emit_certificate {
            commit::violation_certificate(&self.dms, self.bound, &self.invariant, &self.run)
                .map(Box::new)
        } else {
            None
        };
        Ok(StepVerdict::Violation {
            witness: self.run.clone(),
            certificate,
        })
    }

    /// The session's whole-run verdict so far, in the same [`Verdict`] shape the one-shot
    /// engines produce.
    ///
    /// `Violated` carries the **first** violating prefix observed. `Holds` always reports
    /// `complete: false`: a session only ever witnesses the one run it was fed, never the
    /// exhaustive state space — completeness claims remain the explorer's job.
    pub fn verdict(&self) -> Verdict {
        let stats = self.stats();
        match &self.first_violation {
            Some(witness) => {
                let certificate = if self.emit_certificate {
                    commit::violation_certificate(&self.dms, self.bound, &self.invariant, witness)
                        .map(Box::new)
                } else {
                    None
                };
                Verdict::Violated {
                    counterexample: witness.clone(),
                    stats,
                    certificate,
                }
            }
            None => Verdict::Holds {
                complete: false,
                stats,
                certificate: None,
            },
        }
    }

    /// Statistics in the engines' common [`CheckStats`] shape: one "prefix" per checked
    /// transaction plus the initial configuration, all on a single thread.
    pub fn stats(&self) -> CheckStats {
        let configs_explored = self.transactions + 1;
        CheckStats {
            recency_bound: self.bound,
            depth_bound: self.run.len(),
            prefixes_checked: configs_explored,
            configs_explored,
            configs_deduplicated: self.dedup_hits,
            threads: 1,
            dedup_hit_rate: if configs_explored == 0 {
                0.0
            } else {
                self.dedup_hits as f64 / configs_explored as f64
            },
            peak_frontier: 1,
            memory_cutoff: false,
            peak_memory_bytes: self.memory_bytes(),
            cutoff: None,
            relations_shared: 0,
            relations_materialized: 0,
            index_probes: self.transactions as u64,
            index_hit_rate: 0.0,
            elapsed: self.started.elapsed(),
        }
    }

    /// Estimated bytes this session retains: the run spine plus the interner's canonical
    /// keys. O(1) per call (maintained incrementally), monotone over the session's life,
    /// and an upper-bound estimate in the [`HeapSize`] contract's sense — the figure
    /// `rdms-serve`'s memory governor meters sessions by.
    pub fn memory_bytes(&self) -> usize {
        self.run_bytes + self.interner.heap_bytes()
    }

    /// Whether violating verdicts carry certificates
    /// (see [`with_emit_certificate`](Self::with_emit_certificate)).
    pub fn emits_certificates(&self) -> bool {
        self.emit_certificate
    }

    /// The underlying DMS.
    pub fn dms(&self) -> &Arc<Dms> {
        &self.dms
    }

    /// The recency bound `b` the session runs under.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// The invariant φ checked after every transaction.
    pub fn invariant(&self) -> &Query {
        &self.invariant
    }

    /// The session's run so far (length = number of accepted transactions).
    pub fn run(&self) -> &ExtendedRun {
        &self.run
    }

    /// Number of transactions accepted (valid transitions applied, violating or not).
    pub fn transactions(&self) -> usize {
        self.transactions
    }

    /// Number of distinct abstract states (configurations modulo data isomorphism) this
    /// session has visited, including the initial one.
    pub fn distinct_states(&self) -> usize {
        self.distinct_states
    }

    /// Number of accepted transactions that landed in an invariant-violating state.
    pub fn violations(&self) -> usize {
        self.violations
    }

    /// The first violating prefix observed, if any.
    pub fn first_violation(&self) -> Option<&ExtendedRun> {
        self.first_violation.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Explorer, ExplorerConfig};
    use rdms_core::dms::example_3_1;
    use rdms_db::{DataValue, RelName, Substitution, Term, Var};

    /// The full 8-step run of the paper's Figure 1, with its exact substitutions (a valid
    /// stream at recency bound 2).
    fn figure_1_steps() -> Vec<Step> {
        let v = Var::new;
        let e = DataValue::e;
        vec![
            Step::new(
                0,
                Substitution::from_pairs([(v("v1"), e(1)), (v("v2"), e(2)), (v("v3"), e(3))]),
            ),
            Step::new(
                1,
                Substitution::from_pairs([(v("u"), e(2)), (v("v1"), e(4)), (v("v2"), e(5))]),
            ),
            Step::new(
                0,
                Substitution::from_pairs([(v("v1"), e(6)), (v("v2"), e(7)), (v("v3"), e(8))]),
            ),
            Step::new(2, Substitution::from_pairs([(v("u"), e(7))])),
            Step::new(
                3,
                Substitution::from_pairs([(v("u1"), e(8)), (v("u2"), e(6))]),
            ),
            Step::new(
                3,
                Substitution::from_pairs([(v("u1"), e(4)), (v("u2"), e(5))]),
            ),
            Step::new(
                3,
                Substitution::from_pairs([(v("u1"), e(3)), (v("u2"), e(3))]),
            ),
            Step::new(
                0,
                Substitution::from_pairs([(v("v1"), e(9)), (v("v2"), e(10)), (v("v3"), e(11))]),
            ),
        ]
    }

    fn figure_1_session(bound: usize) -> IncrementalChecker {
        IncrementalChecker::new(Arc::new(example_3_1()), bound, Query::True).unwrap()
    }

    #[test]
    fn accepts_the_figure_1_stream_and_tracks_state() {
        let mut session = figure_1_session(2);
        for step in figure_1_steps() {
            let verdict = session.check(&step).unwrap();
            assert!(verdict.holds());
        }
        assert_eq!(session.transactions(), 8);
        assert_eq!(session.run().len(), 8);
        assert_eq!(session.violations(), 0);
        assert!(session.verdict().holds());
        // the replayed run is exactly the semantics' from-scratch execution
        let dms = example_3_1();
        let from_scratch = RecencySemantics::new(&dms, 2)
            .execute(&figure_1_steps())
            .unwrap();
        assert_eq!(*session.run(), from_scratch);
    }

    #[test]
    fn rejects_invalid_steps_without_touching_the_session() {
        let mut session = figure_1_session(1);
        let steps = figure_1_steps();
        session.check(&steps[0]).unwrap();
        let len_before = session.run().len();
        // Figure 1's second step needs bound 2: at bound 1 it is a recency violation...
        let err = session.check(&steps[1]).unwrap_err();
        assert!(matches!(err, CoreError::RecencyViolation { .. }));
        // ...and the session is exactly where it was
        assert_eq!(session.run().len(), len_before);
        assert_eq!(session.transactions(), 1);

        // unknown action index
        let bogus = Step::new(99, steps[0].subst.clone());
        assert!(matches!(
            session.check(&bogus).unwrap_err(),
            CoreError::NoSuchAction(99)
        ));
        assert_eq!(session.run().len(), len_before);
    }

    #[test]
    fn reports_violations_with_witness_and_certificate_and_stays_live() {
        // example_3_1 starts with p true, so the invariant ¬p is violated at depth 0
        let dms = Arc::new(example_3_1());
        let not_p = Query::atom(RelName::new("p"), Vec::<Term>::new()).not();
        let session = IncrementalChecker::new(Arc::clone(&dms), 2, not_p.clone()).unwrap();
        assert_eq!(session.violations(), 1, "initial state violates ¬p");
        assert!(!session.verdict().holds());

        // a violation mid-stream: "no Q-fact ever exists" breaks at Figure 1's first step
        let x = Var::new("x");
        let no_q = Query::exists(x, Query::atom(RelName::new("Q"), [Term::Var(x)])).not();
        let mut session = IncrementalChecker::new(dms, 2, no_q)
            .unwrap()
            .with_emit_certificate(true);
        assert_eq!(session.violations(), 0);
        let steps = figure_1_steps();
        let verdict = session.check(&steps[0]).unwrap();
        let witness = verdict.witness().expect("α creates Q(e3)");
        assert_eq!(witness.len(), 1);
        let cert = verdict.certificate().expect("closed invariant certifies");
        assert!(cert.verify().is_ok());
        // the session keeps accepting and counting
        session.check(&steps[1]).unwrap();
        assert_eq!(session.transactions(), 2);
        assert!(session.violations() >= 1);
        assert_eq!(session.first_violation().unwrap().len(), 1);
        match session.verdict() {
            Verdict::Violated {
                counterexample,
                certificate,
                ..
            } => {
                assert_eq!(counterexample.len(), 1);
                assert!(certificate.unwrap().verify().is_ok());
            }
            Verdict::Holds { .. } => panic!("session saw a violation"),
        }
    }

    #[test]
    fn open_invariants_are_refused_up_front() {
        let x = Var::new("x");
        let open = Query::atom(RelName::new("R"), [Term::Var(x)]);
        let err = IncrementalChecker::new(Arc::new(example_3_1()), 2, open).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Db(rdms_db::DbError::UnboundVariable(_))
        ));
    }

    #[test]
    fn distinct_state_counting_dedups_isomorphic_revisits() {
        // β then γ in example_3_1 can revisit abstract states; simpler: replay α twice —
        // the two post-α configurations are isomorphic (fresh values only differ by rank).
        let mut session = figure_1_session(3);
        let steps = figure_1_steps();
        session.check(&steps[0]).unwrap(); // α: e1 e2 e3
        let before = session.distinct_states();
        session.check(&steps[7]).unwrap(); // α again: e9 e10 e11 — NOT isomorphic (adds to R/Q)
        assert!(session.distinct_states() >= before);
        assert_eq!(
            session.distinct_states() + session.dedup_hits - 1,
            session.transactions(),
            "every transaction is either a new state or a dedup hit"
        );
    }

    #[test]
    fn session_verdict_agrees_with_the_explorer() {
        // "no Q-fact" is violated at depth 1; the explorer must agree from scratch.
        let dms = Arc::new(example_3_1());
        let x = Var::new("x");
        let no_q = Query::exists(x, Query::atom(RelName::new("Q"), [Term::Var(x)])).not();
        let mut session = IncrementalChecker::new(Arc::clone(&dms), 2, no_q.clone()).unwrap();
        let verdict = session.check(&figure_1_steps()[0]).unwrap();
        assert!(!verdict.holds());

        let from_scratch = Explorer::new(&dms, 2)
            .with_config(ExplorerConfig {
                depth: 2,
                max_configs: 10_000,
                ..ExplorerConfig::default()
            })
            .run(no_q);
        assert!(
            !from_scratch.holds(),
            "explorer must also find the violation"
        );
    }

    #[test]
    fn memory_accounting_is_monotone_and_nonzero() {
        let mut session = figure_1_session(2);
        let mut last = session.memory_bytes();
        assert!(last > 0, "the initial configuration already costs bytes");
        for step in figure_1_steps() {
            session.check(&step).unwrap();
            let now = session.memory_bytes();
            assert!(now > last, "every accepted step grows the estimate");
            last = now;
        }
        assert_eq!(session.stats().peak_memory_bytes, last);
    }

    #[test]
    fn resumed_sessions_continue_exactly_like_the_original() {
        let mut session = figure_1_session(2);
        let steps = figure_1_steps();
        for step in &steps[..6] {
            session.check(step).unwrap();
        }
        let mut resumed = IncrementalChecker::resume(
            Arc::clone(session.dms()),
            2,
            Query::True,
            session.run().clone(),
            session.violations(),
            session.first_violation().map(ExtendedRun::len),
        )
        .unwrap();
        assert_eq!(resumed.transactions(), session.transactions());
        assert_eq!(resumed.distinct_states(), session.distinct_states());
        assert_eq!(resumed.dedup_hits, session.dedup_hits);
        assert_eq!(resumed.run_bytes, session.run_bytes);
        assert_eq!(resumed.interner.heap_bytes(), session.interner.heap_bytes());

        // both sessions accept the identical suffix and agree step by step
        for step in &steps[6..] {
            let (a, b) = (session.check(step).unwrap(), resumed.check(step).unwrap());
            match (a, b) {
                (
                    StepVerdict::Ok {
                        state_id: x,
                        new_state: nx,
                    },
                    StepVerdict::Ok {
                        state_id: y,
                        new_state: ny,
                    },
                ) => assert_eq!((x, nx), (y, ny)),
                other => panic!("verdicts diverged after resume: {other:?}"),
            }
        }
        assert_eq!(resumed.run(), session.run());
        assert_eq!(resumed.memory_bytes(), session.memory_bytes());
    }

    #[test]
    fn resume_restores_the_violation_record() {
        let dms = Arc::new(example_3_1());
        let x = Var::new("x");
        let no_q = Query::exists(x, Query::atom(RelName::new("Q"), [Term::Var(x)])).not();
        let mut session = IncrementalChecker::new(Arc::clone(&dms), 2, no_q.clone()).unwrap();
        let steps = figure_1_steps();
        session.check(&steps[0]).unwrap();
        session.check(&steps[1]).unwrap();
        assert!(session.violations() >= 1);

        let resumed = IncrementalChecker::resume(
            dms,
            2,
            no_q,
            session.run().clone(),
            session.violations(),
            session.first_violation().map(ExtendedRun::len),
        )
        .unwrap();
        assert_eq!(resumed.violations(), session.violations());
        assert_eq!(
            resumed.first_violation().map(ExtendedRun::len),
            session.first_violation().map(ExtendedRun::len)
        );
        assert!(!resumed.verdict().holds());
    }

    #[test]
    fn clones_share_the_spine_cheaply() {
        let mut session = figure_1_session(2);
        for step in figure_1_steps() {
            session.check(&step).unwrap();
        }
        let clone = session.clone();
        assert!(clone.run().ptr_eq(session.run()));
        assert_eq!(clone.transactions(), 8);
    }
}
