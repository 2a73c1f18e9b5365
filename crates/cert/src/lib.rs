//! # rdms-cert — the independent certificate verifier
//!
//! The engine may be clever; the checker must be small and stable. `rdms-checker`'s
//! explorer earns its speed with copy-on-write instances, an indexed sorted-row evaluator
//! and canonical-form deduplication — all of which would sit in the trusted base if a
//! bare `Verdict` were the end of the story. This crate is the
//! other half of the refactor: verdicts carry **certificates**,
//! and certificates are checked *here*, by a verifier that
//!
//! * depends on nothing but serde (no engine crates in its dependency tree — CI enforces
//!   this with `cargo tree`),
//! * re-implements only the *specification* of the recency-bounded DMS semantics (a few
//!   hundred lines over plain `BTreeMap`s), never the engine's optimisations,
//! * and rejects anything it cannot positively confirm.
//!
//! ## Certificates
//!
//! A [`Certificate`] is self-contained: the system ([`System`]), the recency bound, the
//! invariant ([`Formula`]), and the evidence ([`CertVerdict`]):
//!
//! * **`Violation { witness }`** — a sequence of steps ([`StepData`]). The verifier replays
//!   them from the initial instance: parameters must lie in the `Recent_b` window (or be
//!   declared constants), fresh inputs must be history-fresh and injective, guards must
//!   hold, updates apply deletions before additions, and the final state must *falsify*
//!   the invariant.
//! * **`Safe { states, commitment }`** — the full canonical state space as a list of
//!   [`StateEntry`]s plus a Merkle-style commitment ([`merkle_root`]) over the state
//!   digests ([`instance_digest`]). The verifier checks *closure*: the initial state is
//!   committed, every committed state satisfies the invariant, and every committed state's
//!   recomputed canonical successor digests match the stored ones and stay inside the
//!   commitment. No `b`-bounded run can leave a closed set, so no reachable state is bad.
//!
//! Committed states are in the engine's canonical form: values introduced as fresh inputs
//! are relabelled to `RANK_BASE + rank` by recency (most recent first), declared constants
//! keep their identity. That makes the committed set finite whenever the engine's
//! canonical exploration saturates, and lets the verifier recompute successor digests by
//! binding fresh inputs to placeholders that re-canonicalisation erases.
//!
//! The wire encoding is JSON over the types in [`wire`]; see
//! [`Certificate::to_json`]/[`Certificate::from_json`]. Nothing volatile — timings, thread
//! counts, frontier sizes — appears anywhere in a certificate, so two runs of the same
//! check serialise byte-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
mod eval;
pub mod verify;
pub mod wire;

pub use digest::{instance_digest, merkle_root, Hasher};
pub use verify::{verify, VerifyError};
pub use wire::{
    active_domain, ActionData, AtomPattern, CertVerdict, Certificate, Formula, InstanceData,
    PatTerm, StateEntry, StepData, System, CERT_VERSION, RANK_BASE,
};
