//! The hand-written known answers (`expected.json`) every run is checked against.

use serde::Deserialize;
use std::path::Path;

#[derive(Deserialize)]
pub struct Answers {
    pub booking_search: BookingAnswers,
    pub inventory_edits: InventoryAnswers,
    pub serve_audit: AuditAnswers,
}

/// Verdict of one search.
#[derive(Deserialize)]
pub struct SearchAnswer {
    pub depth: usize,
    pub holds: bool,
    pub complete: bool,
    /// Lower bound on `Verdict::stats().configs_explored`: the count when every state is
    /// expanded once. The parallel engine may re-expand a state it first reached deeper,
    /// so the count varies run to run above this bound.
    pub min_configs_explored: usize,
    /// `Verdict::stats().prefixes_checked` (trace searches only; 0 = not checked).
    pub prefixes_checked: usize,
    /// `Explorer::reachable_state_count()` at the same depth (invariant searches only;
    /// 0 = not checked).
    pub distinct_states: usize,
}

#[derive(Deserialize)]
pub struct BookingAnswers {
    pub bound: usize,
    pub invariant: SearchAnswer,
    pub property: SearchAnswer,
}

/// The verdict for one (DMS, bound, target) an edit session can reach.
#[derive(Deserialize)]
pub struct InventoryState {
    /// `base` (`finite_dms(2, 3)`) or `gated` (`finite_dms_with_gated_cancel(2, 3)`).
    pub dms: String,
    pub bound: usize,
    /// `lifecycle` (`lifecycle_stages_are_exclusive`) or `reserved`
    /// (`reserved_items_are_off_the_shelf`).
    pub target: String,
    pub holds: bool,
    pub complete: bool,
    pub distinct_states: usize,
}

#[derive(Deserialize)]
pub struct InventoryAnswers {
    pub depth: usize,
    pub states: Vec<InventoryState>,
    /// Whether the from-scratch `Safe` certificate of (base, 3, lifecycle) verifies.
    pub certificate_verifies: bool,
}

impl InventoryAnswers {
    pub fn state(&self, dms: &str, bound: usize, target: &str) -> Option<&InventoryState> {
        self.states
            .iter()
            .find(|s| s.dms == dms && s.bound == bound && s.target == target)
    }
}

#[derive(Deserialize)]
pub struct AuditAnswers {
    pub streams: usize,
    pub bound: usize,
    pub invariant: String,
    /// Checks per session before the restart; the n-th is answered `Ok` with
    /// `run_len = n`.
    pub session_len: usize,
    /// The `Status` reply after `session_len` checks.
    pub status_transactions: usize,
    pub status_distinct_states: usize,
    pub status_violations: usize,
    pub status_run_len: usize,
}

impl Answers {
    pub fn load(path: &Path) -> Result<Answers, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read known answers {}: {e}", path.display()))?;
        serde_json::from_str(&text)
            .map_err(|e| format!("known answers {} do not parse: {e}", path.display()))
    }
}
