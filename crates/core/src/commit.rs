//! Bridging the engine to the certificate wire format.
//!
//! Everything here converts engine types (interned symbols, shared-storage instances,
//! `Query` formulas) into the plain-data wire types of [`rdms_cert`] — and nothing ever
//! converts back. The verifier consumes only the wire side, so the conversion functions
//! are part of the *untrusted* engine: a bug here produces a certificate that fails to
//! verify, never a wrong acceptance.
//!
//! The one place where both sides must agree bit-for-bit is the state digest:
//! [`state_record`] streams a [`CanonicalKey`]'s facts through the verifier's own
//! [`Hasher`](rdms_cert::Hasher) in exactly the encoding [`rdms_cert::instance_digest`]
//! prescribes. Relations iterate in ascending name order on
//! both sides (the engine's interned symbols order lexicographically, wire instances are
//! name-keyed `BTreeMap`s), and tuples ascending, so the streamed and recomputed digests
//! coincide.

use crate::action::Action;
use crate::dms::Dms;
use crate::iso::CanonicalKey;
use crate::run::ExtendedRun;
use rdms_cert::{
    ActionData, AtomPattern, CertVerdict, Certificate, Formula, InstanceData, PatTerm, StateEntry,
    StepData, System, CERT_VERSION,
};
use rdms_db::{Instance, Pattern, Query, Term};
use std::collections::BTreeMap;

/// A recorded canonical state: its wire facts plus the digests of its canonical
/// successors. The explorer fills these in while searching (behind
/// `ExplorerConfig::emit_certificate`); [`safe_certificate`] assembles them into the
/// committed closure proof.
#[derive(Clone, Debug)]
pub struct StateRecord {
    /// The canonical instance, converted to wire form.
    pub facts: InstanceData,
    /// Digests of every canonical successor (one per enabled instantiation, duplicates
    /// preserved), in enumeration order.
    pub successors: Vec<u64>,
}

/// Everything the explorer recorded: state digest → its record. A `BTreeMap` so the
/// committed state list comes out sorted by digest, as the wire format requires.
pub type EdgeMap = BTreeMap<u64, StateRecord>;

fn pat_term(term: &Term) -> PatTerm {
    match term {
        Term::Var(v) => PatTerm::Var(v.as_str().to_string()),
        Term::Value(c) => PatTerm::Value(c.index()),
    }
}

/// Convert an engine query to a wire formula.
pub fn formula(query: &Query) -> Formula {
    match query {
        Query::True => Formula::True,
        Query::Atom(rel, terms) => Formula::Atom(
            rel.as_str().to_string(),
            terms.iter().map(pat_term).collect(),
        ),
        Query::Eq(a, b) => Formula::Eq(pat_term(a), pat_term(b)),
        Query::Not(q) => Formula::Not(Box::new(formula(q))),
        Query::And(a, b) => Formula::And(Box::new(formula(a)), Box::new(formula(b))),
        Query::Or(a, b) => Formula::Or(Box::new(formula(a)), Box::new(formula(b))),
        Query::Exists(v, q) => Formula::Exists(v.as_str().to_string(), Box::new(formula(q))),
        Query::Forall(v, q) => Formula::Forall(v.as_str().to_string(), Box::new(formula(q))),
    }
}

fn atom_patterns(pattern: &Pattern) -> Vec<AtomPattern> {
    pattern
        .facts()
        .map(|(rel, terms)| AtomPattern {
            rel: rel.as_str().to_string(),
            terms: terms.iter().map(pat_term).collect(),
        })
        .collect()
}

fn action_data(action: &Action) -> ActionData {
    ActionData {
        name: action.name().to_string(),
        params: action
            .params()
            .iter()
            .map(|v| v.as_str().to_string())
            .collect(),
        fresh: action
            .fresh()
            .iter()
            .map(|v| v.as_str().to_string())
            .collect(),
        guard: formula(action.guard()),
        del: atom_patterns(action.del()),
        add: atom_patterns(action.add()),
    }
}

/// Convert an engine instance to wire form.
pub fn instance_data(instance: &Instance) -> InstanceData {
    instance
        .populated_relations()
        .map(|rel| {
            (
                rel.as_str().to_string(),
                instance
                    .relation(rel)
                    .map(|t| t.iter().map(|v| v.index()).collect())
                    .collect(),
            )
        })
        .collect()
}

/// Convert a whole DMS to wire form.
pub fn system(dms: &Dms) -> System {
    System {
        relations: dms
            .schema()
            .relations()
            .map(|(rel, arity)| (rel.as_str().to_string(), arity))
            .collect(),
        constants: dms.constants().iter().map(|c| c.index()).collect(),
        initial: instance_data(dms.initial()),
        actions: dms.actions().iter().map(action_data).collect(),
    }
}

/// Convert a canonical key to wire facts *and* its certificate digest in a single walk
/// over its buffer — the digest is streamed while the wire facts are built. Equivalent to
/// `(rdms_cert::instance_digest(&instance_data(i)), instance_data(i))` for the decoded
/// instance `i`: the key holds relations in ascending name order and tuples ascending,
/// exactly the wire iteration order.
pub fn state_record(key: &CanonicalKey) -> (u64, InstanceData) {
    let mut h = rdms_cert::Hasher::new();
    h.write_u64(key.relations().len() as u64);
    let data: InstanceData = key
        .relations()
        .map(|(rel, tuples)| {
            h.write_bytes(rel.as_str().as_bytes());
            h.write_u8(0xFF);
            h.write_u64(tuples.len() as u64);
            let tuples = tuples
                .map(|tuple| {
                    h.write_u64(tuple.len() as u64);
                    for &value in tuple {
                        h.write_u64(value);
                    }
                    tuple.to_vec()
                })
                .collect();
            (rel.as_str().to_string(), tuples)
        })
        .collect();
    (h.finish(), data)
}

/// Convert a witness run's steps to wire form: each step records the action index and the
/// values its parameters and fresh inputs were bound to.
pub fn witness(run: &ExtendedRun, dms: &Dms) -> Vec<StepData> {
    run.steps()
        .iter()
        .map(|step| {
            let mut bindings = BTreeMap::new();
            if let Ok(action) = dms.action(step.action) {
                for &var in action.params().iter().chain(action.fresh()) {
                    if let Some(value) = step.subst.get(var) {
                        bindings.insert(var.as_str().to_string(), value.index());
                    }
                }
            }
            StepData {
                action: step.action,
                bindings,
            }
        })
        .collect()
}

/// Whether a certificate can speak for this invariant at all: the wire semantics evaluates
/// the invariant on *canonical* states, which agrees with the engine's evaluation on the
/// real states exactly when the invariant is closed and names only declared constants
/// (canonicalisation fixes constants and permutes everything else).
pub fn certifiable(dms: &Dms, invariant: &Query) -> bool {
    invariant.free_vars().is_empty()
        && invariant
            .constants()
            .iter()
            .all(|c| dms.constants().contains(c))
}

/// Assemble a `Violation` certificate from a counterexample run.
///
/// Returns `None` when the invariant is not [`certifiable`].
pub fn violation_certificate(
    dms: &Dms,
    bound: usize,
    invariant: &Query,
    counterexample: &ExtendedRun,
) -> Option<Certificate> {
    if !certifiable(dms, invariant) {
        return None;
    }
    Some(Certificate {
        version: CERT_VERSION,
        bound,
        invariant: formula(invariant),
        system: system(dms),
        verdict: CertVerdict::Violation {
            witness: witness(counterexample, dms),
        },
    })
}

/// Assemble a `Safe` certificate from the explorer's recorded state set.
///
/// The caller must only pass a *complete* exploration (no depth or budget cutoff, every
/// recorded state expanded); the verifier will reject anything else. Returns `None` when
/// the invariant is not [`certifiable`].
pub fn safe_certificate(
    dms: &Dms,
    bound: usize,
    invariant: &Query,
    edges: EdgeMap,
) -> Option<Certificate> {
    if !certifiable(dms, invariant) {
        return None;
    }
    let states: Vec<StateEntry> = edges
        .into_iter()
        .map(|(digest, record)| {
            let mut successors = record.successors;
            successors.sort_unstable();
            StateEntry {
                digest,
                facts: record.facts,
                successors,
            }
        })
        .collect();
    let digests: Vec<u64> = states.iter().map(|e| e.digest).collect();
    let commitment = rdms_cert::merkle_root(&digests);
    Some(Certificate {
        version: CERT_VERSION,
        bound,
        invariant: formula(invariant),
        system: system(dms),
        verdict: CertVerdict::Safe { states, commitment },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdms_db::DataValue;

    fn sample_instance() -> Instance {
        let mut inst = Instance::new();
        inst.insert(rdms_db::RelName::new("R"), vec![DataValue(1), DataValue(2)]);
        inst.insert(rdms_db::RelName::new("R"), vec![DataValue(3), DataValue(1)]);
        inst.insert(rdms_db::RelName::new("p"), vec![]);
        inst
    }

    /// The canonical key of `instance` when all its values are declared constants, so the
    /// key holds its facts unrelabelled.
    fn unrelabelled_key(instance: Instance) -> CanonicalKey {
        let constants = instance.active_domain();
        crate::iso::canonical_config_key(&crate::BConfig::initial(instance), &constants)
    }

    #[test]
    fn streamed_digest_matches_the_wire_digest() {
        let inst = sample_instance();
        assert_eq!(
            state_record(&unrelabelled_key(inst.clone())).0,
            rdms_cert::instance_digest(&instance_data(&inst))
        );
        assert_eq!(
            state_record(&unrelabelled_key(Instance::new())).0,
            rdms_cert::instance_digest(&InstanceData::new())
        );
    }

    #[test]
    fn fused_state_record_matches_the_two_pass_conversion() {
        // a relabelled key (fresh values numbered out of value order) and two unrelabelled
        // ones
        let mut config = crate::BConfig::initial(sample_instance());
        config.seq_no_mut().assign(DataValue(3), 1);
        config.seq_no_mut().assign(DataValue(2), 2);
        let keys = [
            crate::iso::canonical_config_key(&config, &[DataValue(1)].into()),
            unrelabelled_key(sample_instance()),
            unrelabelled_key(Instance::new()),
        ];
        for key in &keys {
            let inst = key.to_instance();
            let (digest, facts) = state_record(key);
            assert_eq!(facts, instance_data(&inst));
            assert_eq!(digest, rdms_cert::instance_digest(&facts));
        }
        assert_ne!(keys[0], keys[1]);
    }

    #[test]
    fn formula_conversion_preserves_shape() {
        let x = rdms_db::Var::new("x");
        let y = rdms_db::Var::new("y");
        let q = Query::exists(
            x,
            Query::atom(rdms_db::RelName::new("R"), [Term::Var(x), Term::Var(y)])
                .and(Query::eq(Term::Var(y), Term::Value(DataValue(7))).not()),
        );
        let f = formula(&q);
        assert_eq!(f.free_vars(), vec!["y".to_string()]);
        assert_eq!(f.constants(), std::collections::BTreeSet::from([7]));
    }
}
