//! # rdms-core — database-manipulating systems (DMS)
//!
//! This crate implements the system model of *"Recency-Bounded Verification of Dynamic
//! Database-Driven Systems"* (PODS 2016):
//!
//! * **DMS** ([`Dms`], [`Action`]) — Section 3: guarded actions that query the current
//!   database with FOL(R), delete and add tuples, and inject history-fresh values;
//! * **execution semantics** ([`semantics`]) — the configuration graph `C_S`;
//! * **recency-bounded semantics** ([`recency`]) — Section 5: sequence numbers, the
//!   `Recent_b` window, and the `b`-bounded configuration graph `C^b_S`;
//! * **runs** ([`run`]) — extended runs and the database-instance runs they generate;
//! * **symbolic abstraction** ([`symbolic`]) — Section 6.1: recency-indexing abstractions of
//!   substitutions, the finite symbolic alphabet `symAlph_{S,b}`, and the `Abstr` / `Concr`
//!   maps between `b`-bounded runs and symbolic words;
//! * **isomorphism of runs** ([`iso`]) — Appendix E / Lemma E.1;
//! * **model relaxations** ([`transform`]) — Appendix F: constants removal, non-injective
//!   fresh inputs, weakened freshness and bulk-operation compilation;
//! * **counter machines** ([`counter`]) — Appendix D: Minsky machines and the two reductions
//!   that establish undecidability of unrestricted model checking (Theorem 4.1);
//! * **certificates** ([`commit`]) — conversion of systems, runs and explored state sets
//!   into the wire format of the independent [`cert`] verifier (re-exported `rdms-cert`).

pub mod action;
pub mod cancel;
pub mod commit;
pub mod config;
pub mod counter;
pub mod dms;
pub mod error;
pub mod fingerprint;
pub mod iso;
pub mod persist;
pub mod recency;
pub mod run;
pub mod semantics;
pub mod symbolic;
pub mod transform;

pub use action::{Action, ActionBuilder};
pub use cancel::CancelToken;
pub use commit::{safe_certificate, state_record, violation_certificate, EdgeMap, StateRecord};
pub use config::{BConfig, Config, History, SeqNo};
pub use dms::{Dms, DmsBuilder};
pub use error::CoreError;
pub use fingerprint::{dms_delta, dms_fingerprint, fingerprint, DmsDelta, DmsFingerprint};
pub use iso::{canonical_config_key, CanonicalKey, KeyInterner};
pub use rdms_cert as cert;
pub use recency::{recent_b, RecencySemantics};
pub use run::{ExtendedRun, Step};
pub use semantics::ConcreteSemantics;
pub use symbolic::{SymbolicLetter, SymbolicSubstitution};
