//! # rdms-checker — recency-bounded model checking of DMS against MSO-FO
//!
//! This crate assembles the paper's decision procedure (Section 6) and a practical
//! counterpart:
//!
//! * [`encoding`] — the **nested-word encoding** of `b`-bounded runs (Section 6.3): the
//!   visible alphabet `Σint ⊎ Σ↑ ⊎ Σ↓`, blocks `block(α, s, m, J)`, the run → word encoding
//!   of Figure 2 and the word → run decoding together with the validity conditions of
//!   Section 6.3.1 (checked procedurally);
//! * [`formulas`] — the MSO_NW formula library of Section 6.4 (`Block=`, `step`, `Eq`,
//!   `Del`/`Add`, `Rel-R`, `live`, `ϕ_Recent`) plus procedural counterparts of the
//!   second-order-heavy predicates, used for cross-validation;
//! * [`phi_valid`] — the construction of `ϕ_valid^{b,S}` (the conjunction of conditions 0–3)
//!   and its cost profile (the `O((b+|R|+|acts|)^{O(a+n)})` statement of Section 6.6);
//! * [`translate`] — the syntactic translation `⌊ψ⌋` of MSO-FO specifications into MSO_NW
//!   over encodings (Section 6.5), including the guard translation `⌊Q⌋_{α,s,x}`;
//! * [`explorer`] — the **bounded explorer** engine: enumerates exactly the valid encodings
//!   (by construction, never building `ϕ_valid` as an automaton) up to a depth bound,
//!   evaluates MSO-FO properties on the decoded runs, deduplicates configurations modulo
//!   data isomorphism for state-based properties, and produces counterexample runs;
//! * [`hybrid`] — the **reduction-faithful** engine for the tractable fragment: encodes runs
//!   as nested words and checks the translated property on the *encoding* with the MSO_NW
//!   machinery (direct evaluation or compiled VPAs), cross-validating the Section 6.5
//!   translation; it also assembles the full reduction formula `ϕ_valid ∧ ¬⌊ψ⌋` whose
//!   satisfiability is the paper's decision procedure (constructed explicitly, compiled only
//!   for very small instances — the procedure is non-elementary);
//! * [`incremental`] — **single-step checking** for long-lived sessions: pin a run spine
//!   once, then validate and check each further transaction in time independent of the
//!   session length (the engine behind the `rdms-serve` verification service), now with
//!   in-place [`revise`](IncrementalChecker::revise) for live DMS/bound/invariant edits;
//! * [`request`] — the [`CheckTarget`] vocabulary (trace property or state invariant)
//!   consumed by [`Explorer::run`], [`Workspace`] and [`SessionRequest::open`];
//! * [`revision`] — revision-keyed incremental re-verification: a [`Workspace`] holding
//!   DMS, target and bound as fingerprinted versioned inputs, memoizing explored
//!   fixpoints and re-expanding only what an edit can have invalidated;
//! * [`verdict`] — verdicts, counterexamples and statistics shared by the engines.

pub mod encoding;
pub mod explorer;
pub mod formulas;
pub mod hybrid;
pub mod incremental;
pub mod phi_valid;
pub mod request;
pub mod revision;
pub mod translate;
pub mod verdict;

pub use encoding::{EncodingAlphabet, RunEncoder};
pub use explorer::{Explorer, ExplorerConfig};
pub use incremental::{IncrementalChecker, ReviseOutcome, StepVerdict};
pub use request::{CheckRequest, CheckTarget, SessionRequest};
pub use revision::{RecheckReport, Reuse, Revision, Workspace};
pub use verdict::{CheckStats, CutoffReason, Verdict};
