//! # rdms-workloads — paper examples and synthetic workload generators
//!
//! Every concrete system mentioned in the paper is materialised here as a ready-to-use
//! [`rdms_core::Dms`], so that examples, integration tests and benchmarks all drive the same
//! artefacts:
//!
//! * [`figure1`] — Example 3.1 with the exact run of Figure 1 (and Example 5.1 / 6.1 data);
//! * [`enrollment`] — the introduction's student enrollment/graduation scenario;
//! * [`booking`] — the Appendix C restaurant-offer booking agency (artifact-centric,
//!   Figure 5 lifecycles), parameterised by the number of restaurants, agents and customers;
//! * [`warehouse`] — the Appendix F.4 warehouse replenishment system with its bulk `NewO`
//!   action;
//! * [`audit`] — an append-only audit-log scenario whose history outgrows its active domain
//!   (deterministic deep runs), sized to exercise the persistent history/seq-no
//!   representation (bench E11);
//! * [`inventory`] — a wide-branching order-fulfilment scenario sized to exercise the
//!   deduplicating explorer and the revision workspace (benches E13, E16);
//! * [`wide`] — a wide-schema ledger system (many relations, one touched per action) sized
//!   to exercise the copy-on-write instance representation (bench E10);
//! * [`counters`] — counter-machine workloads for the Appendix D reductions;
//! * [`random`] — a seeded random DMS / random run generator used by property tests and
//!   benchmarks;
//! * [`streams`] — lazy transaction streams (the serving counterpart of `random_run`),
//!   feeding the `rdms-serve` example client, the incremental-equivalence tests and the
//!   service-throughput bench (E14).

pub mod audit;
pub mod booking;
pub mod counters;
pub mod enrollment;
pub mod figure1;
pub mod inventory;
pub mod random;
pub mod streams;
pub mod warehouse;
pub mod wide;
