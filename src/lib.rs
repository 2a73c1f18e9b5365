//! # rdms — recency-bounded verification of dynamic database-driven systems
//!
//! A from-scratch Rust implementation of the framework of
//! *"Recency-Bounded Verification of Dynamic Database-Driven Systems"* (PODS 2016):
//! database-manipulating systems (DMS), the MSO-FO specification logic over their runs, and
//! recency-bounded model checking via nested-word encodings and visibly pushdown automata.
//!
//! This crate is a thin facade over the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`db`] | `rdms-db` | relational instances, FOL(R) queries, substitutions |
//! | [`core`] | `rdms-core` | DMS model, concrete & recency-bounded semantics, symbolic abstraction, Appendix D/F constructions |
//! | [`nested`] | `rdms-nested` | nested words, MSO over nested words, visibly pushdown automata |
//! | [`logic`] | `rdms-logic` | MSO-FO over runs, FO-LTL, property templates |
//! | [`checker`] | `rdms-checker` | nested-word encodings, `ϕ_valid`, `⌊ψ⌋`, checking engines |
//! | [`workloads`] | `rdms-workloads` | paper examples (Figure 1, Appendix C booking agency, …) and generators |
//!
//! ## Quick start
//!
//! ```
//! use rdms::prelude::*;
//!
//! // the paper's running example (Example 3.1)
//! let dms = rdms::workloads::figure1::dms();
//!
//! // recency-bounded model checking at b = 2: "p always holds" is violated
//! let explorer = Explorer::new(&dms, 2);
//! let verdict = explorer.run(Query::prop(RelName::new("p")));
//! assert!(!verdict.holds());
//! println!("{verdict}");
//! ```
//!
//! See the `examples/` directory for end-to-end walkthroughs (quickstart, the Figure 1 run
//! and its Figure 2 encoding, the Appendix C booking agency, the Appendix D counter-machine
//! reductions, bulk operations, and the recency sweep).

pub use rdms_checker as checker;
pub use rdms_core as core;
pub use rdms_db as db;
pub use rdms_logic as logic;
pub use rdms_nested as nested;
pub use rdms_workloads as workloads;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use rdms_checker::{
        CheckStats, CheckTarget, Explorer, ExplorerConfig, RunEncoder, SessionRequest, Verdict,
        Workspace,
    };
    pub use rdms_core::{
        Action, ActionBuilder, BConfig, ConcreteSemantics, Config, Dms, DmsBuilder, ExtendedRun,
        RecencySemantics, Step,
    };
    pub use rdms_db::{
        DataValue, Instance, Pattern, Query, RelName, Schema, Substitution, Term, Var,
    };
    pub use rdms_logic::{templates, FoLtl, MsoFo};
    pub use rdms_nested::{Alphabet, MsoNw, NestedWord, Vpa};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let dms = crate::workloads::figure1::dms();
        let explorer = Explorer::new(&dms, 2);
        assert!(explorer.proposition_reachable(RelName::new("p")).0);
    }
}
