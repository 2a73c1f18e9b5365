//! Error types for DMS construction and execution.

use rdms_db::{DataValue, DbError, Var};
use std::fmt;

/// Errors raised while constructing or executing a DMS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Underlying database error (arity, unknown relation, unbound variable, parse error…).
    Db(DbError),
    /// Action parameters and fresh-input variables must be disjoint.
    ParamFreshOverlap { action: String, var: Var },
    /// The guard's free variables must be exactly the action parameters.
    GuardVariableMismatch {
        action: String,
        missing_in_guard: Vec<Var>,
        extra_in_guard: Vec<Var>,
    },
    /// `Del` may only use action parameters.
    DelUsesUnknownVariable { action: String, var: Var },
    /// `Add` may only use action parameters and fresh-input variables.
    AddUsesUnknownVariable { action: String, var: Var },
    /// Every fresh-input variable must occur in `Add` (`⃗v ⊆ adom(Add)`).
    FreshNotInAdd { action: String, var: Var },
    /// Two actions share a name.
    DuplicateActionName(String),
    /// The initial instance may only use declared constant values (`adom(I₀) ⊆ ∆₀`).
    InitialUsesNonConstant(DataValue),
    /// An action mentions a data value that was not declared as a constant.
    UndeclaredConstant { action: String, value: DataValue },
    /// A declared constant is at or above [`rdms_cert::RANK_BASE`], where canonical keys
    /// put relabelled fresh values: it could collide with one of them.
    ConstantInRankRange(DataValue),
    /// A transition was attempted with a substitution that is not an instantiating
    /// substitution for the action at the configuration.
    NotInstantiating { action: String, reason: String },
    /// A transition violated the `b`-recency restriction.
    RecencyViolation { action: String, var: Var },
    /// A referenced action index does not exist.
    NoSuchAction(usize),
    /// The operation's [`CancelToken`](crate::CancelToken) fired (explicit cancellation
    /// or an expired deadline) before the work completed. The caller's state is
    /// unchanged: cancellation is only ever observed at consistent poll points.
    Cancelled,
    /// The request is well-formed but this engine cannot honour it — e.g. opening an
    /// incremental session on a trace property, or revising a session's recency bound
    /// below what its accepted run requires. The caller's state is unchanged.
    Unsupported(String),
}

impl From<DbError> for CoreError {
    fn from(e: DbError) -> Self {
        CoreError::Db(e)
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Db(e) => write!(f, "database error: {e}"),
            CoreError::ParamFreshOverlap { action, var } => {
                write!(f, "action {action}: variable {var} is both a parameter and a fresh input")
            }
            CoreError::GuardVariableMismatch {
                action,
                missing_in_guard,
                extra_in_guard,
            } => write!(
                f,
                "action {action}: guard free variables must equal the action parameters \
                 (missing in guard: {missing_in_guard:?}, extra in guard: {extra_in_guard:?})"
            ),
            CoreError::DelUsesUnknownVariable { action, var } => {
                write!(f, "action {action}: Del uses variable {var} which is not a parameter")
            }
            CoreError::AddUsesUnknownVariable { action, var } => write!(
                f,
                "action {action}: Add uses variable {var} which is neither a parameter nor a fresh input"
            ),
            CoreError::FreshNotInAdd { action, var } => write!(
                f,
                "action {action}: fresh-input variable {var} does not occur in Add (⃗v ⊆ adom(Add) is required)"
            ),
            CoreError::DuplicateActionName(name) => write!(f, "duplicate action name {name}"),
            CoreError::InitialUsesNonConstant(v) => write!(
                f,
                "initial instance uses value {v} which is not a declared constant (adom(I₀) ⊆ ∆₀)"
            ),
            CoreError::UndeclaredConstant { action, value } => {
                write!(f, "action {action}: value {value} is not a declared constant")
            }
            CoreError::ConstantInRankRange(v) => write!(
                f,
                "declared constant {v} is not below {}, where canonical states number \
                 fresh values",
                rdms_cert::RANK_BASE
            ),
            CoreError::NotInstantiating { action, reason } => {
                write!(f, "substitution is not instantiating for action {action}: {reason}")
            }
            CoreError::RecencyViolation { action, var } => write!(
                f,
                "action {action}: parameter {var} is bound outside the recency window"
            ),
            CoreError::NoSuchAction(i) => write!(f, "no action with index {i}"),
            CoreError::Cancelled => {
                write!(f, "cancelled: the deadline expired or cancellation was requested")
            }
            CoreError::Unsupported(reason) => write!(f, "unsupported: {reason}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Db(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::DuplicateActionName("alpha".into());
        assert!(e.to_string().contains("alpha"));

        let db = CoreError::Db(DbError::UnknownRelation(rdms_db::RelName::new("R")));
        assert!(std::error::Error::source(&db).is_some());
        assert!(std::error::Error::source(&e).is_none());
    }
}
