//! A verification session, independent of any transport.
//!
//! [`Session`] is the embedding API: everything the TCP layer does per connection —
//! resolve a wire transaction against the session's DMS, check it incrementally, convert
//! the outcome to a reply — without the sockets. Library users who want online checking
//! inside their own process use this type directly and never pay for framing or threads;
//! the server in [`crate::server`] is a thin loop mapping frames onto these methods.

use crate::faults;
use crate::journal::{Journal, JournalRecord, SessionSnapshot};
use crate::protocol::{ErrorCode, Response, WireStep};
use rdms_checker::incremental::{IncrementalChecker, ReviseOutcome, StepVerdict};
use rdms_core::cert::Certificate;
use rdms_core::{CancelToken, CoreError, Dms, ExtendedRun, Step};
use rdms_db::parser::parse_query;
use rdms_db::{DataValue, DbError, Substitution, Var};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Why a session could not be opened.
#[derive(Debug)]
pub struct OpenError {
    /// The stable wire code (`bad-invariant`, `database-error`, …).
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for OpenError {}

/// The outcome of checking one wire transaction. The engine-typed sibling of the wire
/// [`Response`]: `Violation` carries the actual [`ExtendedRun`] and [`Certificate`] so
/// embedders don't round-trip through JSON; [`Session::respond`] converts to wire form.
#[derive(Debug)]
pub enum CheckOutcome {
    /// Valid transition, invariant holds.
    Ok {
        /// Session-scoped canonical state id.
        state_id: u64,
        /// Whether the state was new to the session.
        new_state: bool,
        /// Run length after the step.
        run_len: usize,
    },
    /// Valid transition into a violating configuration; the step was applied.
    Violation {
        /// The violating run prefix.
        witness: ExtendedRun,
        /// Certificate, when emission is on and the invariant certifiable.
        certificate: Option<Box<Certificate>>,
    },
    /// The transaction was refused; the session state is unchanged.
    Rejected {
        /// The stable wire code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// One client's pinned verification state: the DMS, the invariant, and the incremental
/// checker holding the run spine and session-scoped interner.
///
/// ```
/// use rdms_serve::Session;
/// use rdms_core::dms::example_3_1;
/// use std::collections::BTreeMap;
///
/// let mut session = Session::open(example_3_1(), 2, "!exists u. Q(u)", false).unwrap();
/// // Figure 1's first transaction creates Q(e3): a genuine violation of the invariant.
/// let bindings = BTreeMap::from([
///     ("v1".to_string(), 1u64),
///     ("v2".to_string(), 2u64),
///     ("v3".to_string(), 3u64),
/// ]);
/// let outcome = session.check("alpha", &bindings);
/// assert!(matches!(outcome, rdms_serve::CheckOutcome::Violation { .. }));
/// assert_eq!(session.transactions(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Session {
    checker: IncrementalChecker,
    /// Accepted-transaction cap; `None` = unlimited.
    transaction_limit: Option<usize>,
    /// Per-`check` time budget; `None` = no deadline.
    deadline: Option<Duration>,
    /// Crash journal; accepted transactions are appended after the checker commits them.
    journal: Option<Arc<Mutex<Journal>>>,
}

impl Session {
    /// Open a session: parse the invariant (FOL(R) concrete syntax, see
    /// [`rdms_db::parser::parse_query`]) and pin the initial configuration of `dms` under recency
    /// bound `bound`.
    ///
    /// The invariant is evaluated on the initial configuration too: when the initial
    /// database already violates it, the session opens normally and reports the violation
    /// through [`violations`](Self::violations) (wire clients see it in `Stats`).
    pub fn open(
        dms: Dms,
        bound: usize,
        invariant: &str,
        emit_certificates: bool,
    ) -> Result<Session, OpenError> {
        let query = parse_query(invariant).map_err(|e| OpenError {
            code: ErrorCode::BadInvariant,
            message: format!("invariant does not parse: {e}"),
        })?;
        let checker = IncrementalChecker::new(Arc::new(dms), bound, query)
            .map_err(|e| match e {
                CoreError::Db(DbError::UnboundVariable(var)) => OpenError {
                    code: ErrorCode::BadInvariant,
                    message: format!("invariant must be closed, `{var}` is free"),
                },
                other => OpenError {
                    code: ErrorCode::DatabaseError,
                    message: format!("initial configuration rejects the invariant: {other}"),
                },
            })?
            .with_emit_certificate(emit_certificates);
        Ok(Session {
            checker,
            transaction_limit: None,
            deadline: None,
            journal: None,
        })
    }

    /// Rebuild a session from a [`SessionSnapshot`] **without re-validating its
    /// transitions**: the snapshot is trusted input (journal replay is the path that
    /// validates everything). Limits, deadline and journal are not part of the snapshot —
    /// the caller re-applies them.
    pub fn resume(snapshot: SessionSnapshot) -> Result<Session, OpenError> {
        let checker = IncrementalChecker::resume(
            Arc::new(snapshot.dms),
            snapshot.bound,
            snapshot.invariant,
            snapshot.run,
            snapshot.violations,
            snapshot.first_violation_len,
        )
        .map_err(|e| OpenError {
            code: ErrorCode::DatabaseError,
            message: format!("snapshot does not rebuild a session: {e}"),
        })?
        .with_emit_certificate(snapshot.emit_certificates);
        Ok(Session {
            checker,
            transaction_limit: None,
            deadline: None,
            journal: None,
        })
    }

    /// Capture a snapshot: everything [`resume`](Self::resume) needs to rebuild this
    /// session without replaying it.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            dms: (**self.checker.dms()).clone(),
            bound: self.checker.bound(),
            invariant: self.checker.invariant().clone(),
            emit_certificates: self.checker.emits_certificates(),
            run: self.checker.run().clone(),
            violations: self.checker.violations(),
            first_violation_len: self.checker.first_violation().map(ExtendedRun::len),
        }
    }

    /// Estimated bytes this session retains (run spine + interned canonical keys) — the
    /// figure the server's memory governor meters admission and eviction by. O(1).
    pub fn memory_bytes(&self) -> usize {
        self.checker.memory_bytes()
    }

    /// Cap the number of accepted transactions; further `check` calls are rejected with
    /// code `transaction-limit`. `None` removes the cap.
    pub fn with_transaction_limit(mut self, limit: Option<usize>) -> Session {
        self.transaction_limit = limit;
        self
    }

    /// Give every `check` call a time budget. A check whose [`CancelToken`] deadline
    /// fires is rejected with code `deadline-exceeded`; the transaction is **not**
    /// applied and the session stays usable. `None` removes the budget.
    pub fn with_deadline(mut self, budget: Option<Duration>) -> Session {
        self.deadline = budget;
        self
    }

    /// Attach a crash journal: every transaction this session **accepts** from now on is
    /// appended as a [`JournalRecord::Check`]. The caller is responsible for having
    /// journaled the `Open` payload (see [`Journal::create`]).
    pub fn with_journal(mut self, journal: Arc<Mutex<Journal>>) -> Session {
        self.journal = Some(journal);
        self
    }

    /// The attached crash journal, if any.
    pub fn journal(&self) -> Option<&Arc<Mutex<Journal>>> {
        self.journal.as_ref()
    }

    /// Detach and return the crash journal (used on `Close` to retire the file).
    pub fn take_journal(&mut self) -> Option<Arc<Mutex<Journal>>> {
        self.journal.take()
    }

    /// Check one wire transaction: resolve `action` by name, resolve every binding name
    /// against the action's parameters and fresh variables (an unknown name is
    /// `not-instantiating`), validate the substitution as a `b`-bounded transition and
    /// evaluate the invariant. Client-sent names are compared, never interned.
    ///
    /// Never panics on hostile input — every failure mode is a [`CheckOutcome::Rejected`]
    /// with a stable code, and rejected transactions leave the session untouched.
    pub fn check(&mut self, action: &str, bindings: &BTreeMap<String, u64>) -> CheckOutcome {
        // deterministic test panics (the chaos suite's `session-poisoned` driver);
        // disarmed cost is one atomic load and no allocation
        if faults::armed() {
            faults::failpoint(&format!("check:{action}"));
        }
        if let Some(limit) = self.transaction_limit {
            if self.checker.transactions() >= limit {
                return CheckOutcome::Rejected {
                    code: ErrorCode::TransactionLimit,
                    message: format!("session reached its cap of {limit} transactions"),
                };
            }
        }
        let Some((index, declared)) = self.checker.dms().action_by_name(action) else {
            return CheckOutcome::Rejected {
                code: ErrorCode::UnknownAction,
                message: format!("no action named `{action}`"),
            };
        };
        let mut pairs = Vec::with_capacity(bindings.len());
        for (name, &value) in bindings {
            let mut vars = declared.params().iter().chain(declared.fresh());
            let Some(&var) = vars.find(|var| var.as_str() == name) else {
                let error = CoreError::NotInstantiating {
                    action: action.to_owned(),
                    reason: format!("`{name}` is neither a parameter nor a fresh-input variable"),
                };
                return CheckOutcome::Rejected {
                    code: ErrorCode::NotInstantiating,
                    message: error.to_string(),
                };
            };
            pairs.push((var, DataValue(value)));
        }
        let step = Step::new(index, Substitution::from_pairs(pairs));
        let verdict = match self.deadline {
            Some(budget) => self
                .checker
                .check_with_cancel(&step, &CancelToken::with_timeout(budget)),
            None => self.checker.check(&step),
        };
        match verdict {
            Ok(StepVerdict::Ok {
                state_id,
                new_state,
            }) => {
                self.journal_accepted(action, bindings);
                CheckOutcome::Ok {
                    state_id,
                    new_state,
                    run_len: self.checker.run().len(),
                }
            }
            Ok(StepVerdict::Violation {
                witness,
                certificate,
            }) => {
                self.journal_accepted(action, bindings);
                CheckOutcome::Violation {
                    witness,
                    certificate,
                }
            }
            Err(e) => {
                let (code, message) = match &e {
                    CoreError::NoSuchAction(_) => {
                        (ErrorCode::UnknownAction, format!("no action `{action}`"))
                    }
                    CoreError::NotInstantiating { .. } => {
                        (ErrorCode::NotInstantiating, e.to_string())
                    }
                    CoreError::RecencyViolation { .. } => {
                        (ErrorCode::RecencyViolation, e.to_string())
                    }
                    CoreError::Cancelled => (ErrorCode::DeadlineExceeded, e.to_string()),
                    _ => (ErrorCode::DatabaseError, e.to_string()),
                };
                CheckOutcome::Rejected { code, message }
            }
        }
    }

    /// Revise the session's inputs in place (the engine behind the wire `Revise`
    /// request): any subset of DMS, recency bound and invariant, all-or-nothing, the
    /// accepted run kept. See [`IncrementalChecker::revise`] for the exact semantics of
    /// each input. On success the revision is appended to the crash journal (when one is
    /// attached), so a crash after a revision replays against the revised inputs.
    pub fn revise(
        &mut self,
        dms: Option<Dms>,
        bound: Option<usize>,
        invariant: Option<&str>,
    ) -> Result<ReviseOutcome, OpenError> {
        let query = invariant
            .map(|text| {
                parse_query(text).map_err(|e| OpenError {
                    code: ErrorCode::BadInvariant,
                    message: format!("invariant does not parse: {e}"),
                })
            })
            .transpose()?;
        let outcome = self
            .checker
            .revise(dms.clone().map(Arc::new), bound, query)
            .map_err(|e| match e {
                CoreError::Db(DbError::UnboundVariable(var)) => OpenError {
                    code: ErrorCode::BadInvariant,
                    message: format!("invariant must be closed, `{var}` is free"),
                },
                CoreError::Unsupported(reason) => OpenError {
                    code: ErrorCode::BadRevision,
                    message: reason,
                },
                other => OpenError {
                    code: ErrorCode::BadRevision,
                    message: format!("the accepted run does not replay: {other}"),
                },
            })?;
        if let Some(journal) = &self.journal {
            journal
                .lock()
                .expect("journal mutex poisoned")
                .append(&JournalRecord::Revise {
                    dms,
                    bound,
                    invariant: invariant.map(str::to_string),
                });
        }
        Ok(outcome)
    }

    /// Append an accepted transaction to the crash journal, if one is attached. Only
    /// accepted transactions are journaled: the journal must replay verbatim, and
    /// rejected transactions never touched the run spine.
    fn journal_accepted(&self, action: &str, bindings: &BTreeMap<String, u64>) {
        if let Some(journal) = &self.journal {
            journal
                .lock()
                .expect("journal mutex poisoned")
                .append(&JournalRecord::Check {
                    action: action.to_string(),
                    bindings: bindings.clone(),
                });
        }
    }

    /// Convert a [`CheckOutcome`] to its wire [`Response`], serializing the witness run
    /// (action names + bindings) and the certificate JSON for violations.
    pub fn respond(&self, outcome: &CheckOutcome) -> Response {
        match outcome {
            CheckOutcome::Ok {
                state_id,
                new_state,
                run_len,
            } => Response::Ok {
                state_id: *state_id,
                new_state: *new_state,
                run_len: *run_len,
            },
            CheckOutcome::Violation {
                witness,
                certificate,
            } => Response::Violation {
                run_len: witness.len(),
                witness: wire_witness(witness, self.checker.dms()),
                certificate: certificate.as_ref().map(|c| c.to_json()),
            },
            CheckOutcome::Rejected { code, message } => Response::rejected(*code, message.clone()),
        }
    }

    /// The session's counters as a wire `Stats` response.
    pub fn stats(&self) -> Response {
        Response::Stats {
            transactions: self.checker.transactions(),
            distinct_states: self.checker.distinct_states(),
            violations: self.checker.violations(),
            run_len: self.checker.run().len(),
        }
    }

    /// Transactions accepted so far.
    pub fn transactions(&self) -> usize {
        self.checker.transactions()
    }

    /// Accepted transactions (plus possibly the initial configuration) that violated the
    /// invariant.
    pub fn violations(&self) -> usize {
        self.checker.violations()
    }

    /// The underlying incremental checker, for embedders that want engine-level access
    /// (run spine, whole-session [`Verdict`](rdms_checker::Verdict), …).
    pub fn checker(&self) -> &IncrementalChecker {
        &self.checker
    }
}

/// A run in wire form: one [`WireStep`] per transition, actions by name.
pub fn wire_witness(run: &ExtendedRun, dms: &Dms) -> Vec<WireStep> {
    run.steps()
        .iter()
        .map(|step| {
            let (action, vars): (String, Vec<Var>) = match dms.action(step.action) {
                Ok(action) => (
                    action.name().to_string(),
                    action
                        .params()
                        .iter()
                        .chain(action.fresh())
                        .copied()
                        .collect(),
                ),
                // unreachable for runs built by a Session, but total anyway
                Err(_) => (format!("#{}", step.action), Vec::new()),
            };
            let bindings = vars
                .into_iter()
                .filter_map(|var| {
                    step.subst
                        .get(var)
                        .map(|value| (var.as_str().to_string(), value.index()))
                })
                .collect();
            WireStep { action, bindings }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdms_core::dms::example_3_1;

    fn alpha_bindings(base: u64) -> BTreeMap<String, u64> {
        BTreeMap::from([
            ("v1".to_string(), base),
            ("v2".to_string(), base + 1),
            ("v3".to_string(), base + 2),
        ])
    }

    #[test]
    fn open_check_and_stats_flow() {
        let mut session = Session::open(example_3_1(), 2, "true", false).unwrap();
        let outcome = session.check("alpha", &alpha_bindings(1));
        assert!(matches!(outcome, CheckOutcome::Ok { run_len: 1, .. }));
        match session.stats() {
            Response::Stats {
                transactions,
                run_len,
                violations,
                ..
            } => {
                assert_eq!((transactions, run_len, violations), (1, 1, 0));
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn bad_invariants_are_rejected_at_open() {
        let err = Session::open(example_3_1(), 2, "exists u. R(u", false).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadInvariant);
        let err = Session::open(example_3_1(), 2, "R(u)", false).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadInvariant);
        assert!(err.message.contains("closed"));
    }

    #[test]
    fn unknown_actions_and_invalid_bindings_reject_without_state_change() {
        let mut session = Session::open(example_3_1(), 2, "true", false).unwrap();
        let outcome = session.check("nope", &BTreeMap::new());
        assert!(matches!(
            outcome,
            CheckOutcome::Rejected {
                code: ErrorCode::UnknownAction,
                ..
            }
        ));
        let outcome = session.check("alpha", &BTreeMap::new());
        assert!(matches!(
            outcome,
            CheckOutcome::Rejected {
                code: ErrorCode::NotInstantiating,
                ..
            }
        ));
        let mut extra = alpha_bindings(1);
        extra.insert("no_such_variable_zz".to_string(), 424_242);
        let outcome = session.check("alpha", &extra);
        assert!(matches!(
            outcome,
            CheckOutcome::Rejected {
                code: ErrorCode::NotInstantiating,
                ..
            }
        ));
        assert_eq!(session.transactions(), 0);
    }

    #[test]
    fn violations_carry_a_wire_witness_and_verifying_certificate() {
        let mut session = Session::open(example_3_1(), 2, "!exists u. Q(u)", true).unwrap();
        let outcome = session.check("alpha", &alpha_bindings(1));
        let response = session.respond(&outcome);
        match response {
            Response::Violation {
                run_len,
                witness,
                certificate,
            } => {
                assert_eq!(run_len, 1);
                assert_eq!(witness.len(), 1);
                assert_eq!(witness[0].action, "alpha");
                assert_eq!(witness[0].bindings["v1"], 1);
                let cert = rdms_core::cert::Certificate::from_json(&certificate.unwrap()).unwrap();
                assert!(cert.verify().is_ok());
            }
            other => panic!("expected Violation, got {other:?}"),
        }
        // the violating step was applied; the session keeps serving
        assert_eq!(session.transactions(), 1);
        assert_eq!(session.violations(), 1);
        assert!(matches!(
            session.check(
                "beta",
                &BTreeMap::from([
                    ("u".to_string(), 2u64),
                    ("v1".to_string(), 4),
                    ("v2".to_string(), 5),
                ])
            ),
            CheckOutcome::Ok { .. } | CheckOutcome::Violation { .. }
        ));
    }

    #[test]
    fn transaction_limit_is_enforced() {
        let mut session = Session::open(example_3_1(), 2, "true", false)
            .unwrap()
            .with_transaction_limit(Some(1));
        assert!(matches!(
            session.check("alpha", &alpha_bindings(1)),
            CheckOutcome::Ok { .. }
        ));
        assert!(matches!(
            session.check("alpha", &alpha_bindings(4)),
            CheckOutcome::Rejected {
                code: ErrorCode::TransactionLimit,
                ..
            }
        ));
        assert_eq!(session.transactions(), 1);
    }
}
