//! The check-request vocabulary: one way to say *what* to verify.
//!
//! Every engine answers the same question — does a **target** (trace property or state
//! invariant) hold — so one type names it:
//!
//! * [`CheckTarget`] — property-or-invariant, shared by every engine: the argument of
//!   [`Explorer::run`], the target of a [`Workspace`], and the target of a session;
//! * [`SessionRequest`] — the same vocabulary for opening an [`IncrementalChecker`]
//!   session, including the session-level cancellation token.
//!
//! [`Explorer::run`]: crate::Explorer::run
//! [`IncrementalChecker`]: crate::IncrementalChecker
//! [`Workspace`]: crate::Workspace

use crate::incremental::IncrementalChecker;
use rdms_core::{CancelToken, CoreError, Dms};
use rdms_db::Query;
use rdms_logic::msofo::MsoFo;
use serde::Serialize;
use std::sync::Arc;

/// What to verify: a trace property over whole run prefixes, or a state invariant over
/// reachable configurations. The distinction drives engine selection — invariants
/// deduplicate configurations modulo data isomorphism and support incremental sessions
/// and revision memoization; trace properties must see every prefix.
#[derive(Clone, PartialEq, Serialize)]
pub enum CheckTarget {
    /// An MSO-FO trace property, evaluated on the instance sequence of each run prefix
    /// (finite-prefix semantics).
    Property(MsoFo),
    /// A boolean FOL(R) query that must hold in every reachable instance.
    Invariant(Query),
}

impl CheckTarget {
    /// A trace-property target.
    pub fn property(property: MsoFo) -> CheckTarget {
        CheckTarget::Property(property)
    }

    /// A state-invariant target.
    pub fn invariant(invariant: Query) -> CheckTarget {
        CheckTarget::Invariant(invariant)
    }

    /// Whether this is a state invariant.
    pub fn is_invariant(&self) -> bool {
        matches!(self, CheckTarget::Invariant(_))
    }

    /// The invariant, when this is one.
    pub fn as_invariant(&self) -> Option<&Query> {
        match self {
            CheckTarget::Invariant(q) => Some(q),
            CheckTarget::Property(_) => None,
        }
    }

    /// The trace property, when this is one.
    pub fn as_property(&self) -> Option<&MsoFo> {
        match self {
            CheckTarget::Property(p) => Some(p),
            CheckTarget::Invariant(_) => None,
        }
    }

    /// Content fingerprint of the target (see [`mod@rdms_core::fingerprint`]); the
    /// `property` component of the revision workspace's memo keys.
    pub fn fingerprint(&self) -> u64 {
        rdms_core::fingerprint::fingerprint(self)
    }
}

impl From<MsoFo> for CheckTarget {
    fn from(property: MsoFo) -> CheckTarget {
        CheckTarget::Property(property)
    }
}

impl From<Query> for CheckTarget {
    fn from(invariant: Query) -> CheckTarget {
        CheckTarget::Invariant(invariant)
    }
}

/// The former name of [`CheckTarget`], kept as an alias so callers written against
/// `CheckRequest::{invariant, property}` keep compiling.
pub type CheckRequest = CheckTarget;

/// An incremental-session request in the same vocabulary: DMS + bound + [`CheckTarget`]
/// (+ certificate emission + a session-level [`CancelToken`]). [`open`](Self::open)
/// yields the ready [`IncrementalChecker`].
#[derive(Clone)]
pub struct SessionRequest {
    dms: Arc<Dms>,
    bound: usize,
    target: CheckTarget,
    emit_certificate: bool,
    cancel: Option<CancelToken>,
}

impl SessionRequest {
    /// A session over `dms` at recency bound `bound`, verifying `target` after every
    /// accepted transaction.
    pub fn new(dms: Arc<Dms>, bound: usize, target: impl Into<CheckTarget>) -> SessionRequest {
        SessionRequest {
            dms,
            bound,
            target: target.into(),
            emit_certificate: false,
            cancel: None,
        }
    }

    /// Emit violation certificates on violating transactions.
    pub fn with_emit_certificate(mut self, emit: bool) -> Self {
        self.emit_certificate = emit;
        self
    }

    /// Install a session-level cancellation token, polled at the start of every
    /// [`check`](IncrementalChecker::check) — the session counterpart of
    /// [`ExplorerConfig::with_cancel`](crate::ExplorerConfig::with_cancel).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Open the session. Incremental sessions evaluate the target on the single spine
    /// configuration each transaction produces, so the target must be a closed state
    /// invariant; a [`CheckTarget::Property`] is refused with [`CoreError::Unsupported`]
    /// (trace properties need the whole prefix — use [`Explorer::run`] or a
    /// [`Workspace`] instead).
    ///
    /// [`Explorer::run`]: crate::Explorer::run
    /// [`Workspace`]: crate::Workspace
    pub fn open(self) -> Result<IncrementalChecker, CoreError> {
        let invariant = match self.target {
            CheckTarget::Invariant(q) => q,
            CheckTarget::Property(_) => {
                return Err(CoreError::Unsupported(
                    "incremental sessions check state invariants; trace properties need \
                     whole run prefixes — use Explorer::run or a revision Workspace"
                        .to_string(),
                ))
            }
        };
        let mut checker = IncrementalChecker::new(self.dms, self.bound, invariant)?
            .with_emit_certificate(self.emit_certificate);
        if let Some(token) = self.cancel {
            checker = checker.with_cancel(token);
        }
        Ok(checker)
    }
}
