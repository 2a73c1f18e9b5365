//! Isomorphism of runs and configurations modulo renaming of data values
//! (Appendix E / Lemma E.1 of the paper).
//!
//! Two extended runs with the same abstraction are *equivalent modulo permutations of the
//! data domain*: there is a bijection `λ` between the values occurring anywhere in either
//! run (their active domains over all instants) that is an isomorphism between
//! corresponding instances. This module provides
//!
//! * [`runs_isomorphic`] — check Lemma E.1's conclusion directly on two runs,
//! * [`canonical_config_key`] — a canonical form of a `b`-bounded configuration obtained by
//!   relabelling active-domain values by their recency rank; two configurations with the same
//!   key have isomorphic futures, which is what the bounded explorer uses to deduplicate its
//!   search space,
//! * [`KeyInterner`] — an interner mapping canonical keys to dense `u64` ids, so that the
//!   explorer's seen-set, a revision workspace's explored fixpoint and an incremental
//!   session's state count deduplicate configurations with an integer probe instead of
//!   comparing whole instances. Each search, workspace or session owns one; nothing is
//!   interned process-wide.

use crate::config::BConfig;
use crate::run::ExtendedRun;
use parking_lot::Mutex;
use rdms_db::{DataValue, Instance};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// A canonical form of a configuration: the instance with every non-constant active-domain
/// value replaced by its recency rank (`0` = most recent), leaving declared constants fixed.
///
/// Two configurations with the same canonical key are isomorphic in the sense of Lemma E.1
/// (restricted to the current instance), and — because fresh values are always new — admit
/// exactly the same `b`-bounded futures up to isomorphism.
///
/// Rank values are re-based at `u64::MAX/2` downwards so they can never collide with declared
/// constants (which are small in practice); the offset is irrelevant as long as it is applied
/// consistently.
///
/// The relabelling is **incremental**: it goes through
/// [`Instance::map_values_shared`](rdms_db::Instance::map_values_shared), so a relation whose
/// values the rank mapping leaves fixed (constants-only relations, propositions) shares its
/// storage with the source instance, and a relation relabelled exactly as on the previous
/// canonicalisation of the same (shared) storage reuses the cached result. When a successor
/// configuration touches 1 of N relations and the recency ranks of the untouched relations'
/// values are unchanged, only the delta is re-canonicalised — and the interner re-hashes only
/// the touched relation, because instance hashing runs over per-relation cached content
/// hashes.
pub fn canonical_config_key(config: &BConfig, constants: &BTreeSet<DataValue>) -> Instance {
    let mut mapping: BTreeMap<DataValue, DataValue> = BTreeMap::new();
    const RANK_BASE: u64 = u64::MAX / 2;
    for (rank, value) in config
        .recency_ranks()
        .iter()
        .filter(|v| !constants.contains(v))
        .enumerate()
    {
        mapping.insert(*value, DataValue(RANK_BASE + rank as u64));
    }
    config.instance().map_values_shared(&mapping)
}

/// Try to extend a partial bijection with `a ↦ b`; returns `false` on conflict.
fn extend(
    map: &mut BTreeMap<DataValue, DataValue>,
    rev: &mut BTreeMap<DataValue, DataValue>,
    a: DataValue,
    b: DataValue,
) -> bool {
    match (map.get(&a), rev.get(&b)) {
        (Some(&b2), _) if b2 != b => false,
        (_, Some(&a2)) if a2 != a => false,
        _ => {
            map.insert(a, b);
            rev.insert(b, a);
            true
        }
    }
}

/// Check whether two extended runs are equivalent modulo a permutation of the data domain:
/// a single bijection `λ` must map the `i`-th instance of `left` onto the `i`-th instance of
/// `right`, for every `i`.
///
/// The bijection is built greedily from the order in which values appear; this is complete
/// here because fresh values are totally ordered by their first appearance (sequence
/// numbers), exactly the argument used in Appendix E.
pub fn runs_isomorphic(left: &ExtendedRun, right: &ExtendedRun) -> bool {
    if left.len() != right.len() {
        return false;
    }
    let mut map: BTreeMap<DataValue, DataValue> = BTreeMap::new();
    let mut rev: BTreeMap<DataValue, DataValue> = BTreeMap::new();

    for (lc, rc) in left.configs().into_iter().zip(right.configs()) {
        // Values ordered by sequence number (i.e. order of first appearance).
        let mut lvals: Vec<DataValue> = lc.history().iter().collect();
        lvals.sort_by_key(|&v| lc.seq_no().get(v).unwrap_or(u64::MAX));
        let mut rvals: Vec<DataValue> = rc.history().iter().collect();
        rvals.sort_by_key(|&v| rc.seq_no().get(v).unwrap_or(u64::MAX));
        if lvals.len() != rvals.len() {
            return false;
        }
        for (&a, &b) in lvals.iter().zip(rvals.iter()) {
            if !extend(&mut map, &mut rev, a, b) {
                return false;
            }
        }
        // Now the instances must agree after renaming.
        let renamed = lc
            .instance()
            .map_values(|v| map.get(&v).copied().unwrap_or(v));
        if &renamed != rc.instance() {
            return false;
        }
    }
    true
}

/// An interner mapping canonical configuration keys (instances produced by
/// [`canonical_config_key`]) to dense `u64` ids: the `n`-th distinct key gets id `n - 1`.
///
/// Two configurations receive the same id iff their canonical keys are equal, i.e. iff they
/// are isomorphic in the sense of Lemma E.1. The explorer keys its seen-set by these ids,
/// turning deduplication into an integer-set probe. Ids from different interners are
/// unrelated — never mix them in one seen-set.
///
/// **Memory**: an interner retains every key it interned until it is dropped. A search
/// builds its own and frees it when it returns, unless its `ExplorerConfig::interner` lends
/// it one; a revision `Workspace` lends its interner to the searches it runs, and every
/// `IncrementalChecker` session owns one, so their keys go when they are dropped.
///
/// The methods take `&self` so that clones of a workspace or a session can share one
/// interner behind an `Arc`; one mutex guards the table.
#[derive(Default)]
pub struct KeyInterner {
    table: Mutex<Table>,
}

#[derive(Default)]
struct Table {
    // keys are `Arc`-wrapped so callers that need to hold on to the canonical instance
    // (certificate recording) can get a shared handle instead of cloning the instance;
    // `Arc<Instance>` hashes and compares through the instance, and borrows as
    // `&Instance` for lookups
    ids: HashMap<Arc<Instance>, u64>,
    /// Estimated heap bytes of every key in `ids` (see [`KeyInterner::heap_bytes`]).
    bytes: usize,
}

impl Table {
    /// Store `key`, which is not interned yet, under the next id and charge its bytes: the
    /// `Arc` allocation plus the instance's heap, plus the map's per-entry overhead.
    fn insert(&mut self, key: Instance) -> (u64, Arc<Instance>) {
        use rdms_db::heap::{HeapSize, HASH_ENTRY_OVERHEAD};
        let id = self.ids.len() as u64;
        let stored = Arc::new(key);
        self.bytes +=
            stored.heap_size() + std::mem::size_of::<(Arc<Instance>, u64)>() + HASH_ENTRY_OVERHEAD;
        self.ids.insert(Arc::clone(&stored), id);
        (id, stored)
    }
}

impl fmt::Debug for KeyInterner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyInterner")
            .field("len", &self.len())
            .field("heap_bytes", &self.heap_bytes())
            .finish_non_exhaustive()
    }
}

impl KeyInterner {
    /// A fresh, empty interner with its own id space, whose keys are freed when it is
    /// dropped.
    pub fn new() -> KeyInterner {
        KeyInterner::default()
    }

    /// Intern `key`, returning its id and whether the key was **new** to this interner
    /// (`true` on first interning, `false` on a dedup hit). Long-lived sessions use this to
    /// count their distinct abstract states as they go.
    pub fn intern_new(&self, key: Instance) -> (u64, bool) {
        let mut table = self.table.lock();
        if let Some(&id) = table.ids.get(&key) {
            return (id, false);
        }
        (table.insert(key).0, true)
    }

    /// Intern `key`, returning its id *and* a shared handle to the stored canonical
    /// instance. The handle is an `Arc` clone of the interner's own copy, so callers that
    /// must retain the canonical instance (the explorer's certificate recording) pay one
    /// reference-count bump instead of cloning the instance.
    pub fn intern_handle(&self, key: Instance) -> (u64, Arc<Instance>) {
        let mut table = self.table.lock();
        if let Some((stored, &id)) = table.ids.get_key_value(&key) {
            return (id, Arc::clone(stored));
        }
        table.insert(key)
    }

    /// Estimated heap bytes retained by this interner's keys, charged once per distinct
    /// key.
    pub fn heap_bytes(&self) -> usize {
        self.table.lock().bytes
    }

    /// Number of distinct keys interned so far.
    pub fn len(&self) -> usize {
        self.table.lock().ids.len()
    }

    /// Whether no key has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Check whether two plain instances are isomorphic under *some* bijection of their active
/// domains (backtracking search; intended for small instances in tests).
pub fn instances_isomorphic(left: &Instance, right: &Instance) -> bool {
    let ladom: Vec<DataValue> = left.active_domain().into_iter().collect();
    let radom: Vec<DataValue> = right.active_domain().into_iter().collect();
    if ladom.len() != radom.len() || left.len() != right.len() {
        return false;
    }
    fn backtrack(
        left: &Instance,
        right: &Instance,
        ladom: &[DataValue],
        radom: &[DataValue],
        used: &mut Vec<bool>,
        map: &mut BTreeMap<DataValue, DataValue>,
        index: usize,
    ) -> bool {
        if index == ladom.len() {
            let renamed = left.map_values(|v| map.get(&v).copied().unwrap_or(v));
            return &renamed == right;
        }
        for (j, &candidate) in radom.iter().enumerate() {
            if used[j] {
                continue;
            }
            used[j] = true;
            map.insert(ladom[index], candidate);
            if backtrack(left, right, ladom, radom, used, map, index + 1) {
                return true;
            }
            map.remove(&ladom[index]);
            used[j] = false;
        }
        false
    }
    let mut used = vec![false; radom.len()];
    let mut map = BTreeMap::new();
    backtrack(left, right, &ladom, &radom, &mut used, &mut map, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dms::example_3_1;
    use crate::recency::{tests::figure_1_steps, RecencySemantics};
    use crate::run::Step;
    use rdms_db::{RelName, Substitution, Var};

    fn r(name: &str) -> RelName {
        RelName::new(name)
    }
    fn v(name: &str) -> Var {
        Var::new(name)
    }
    fn e(i: u64) -> DataValue {
        DataValue::e(i)
    }

    #[test]
    fn instance_isomorphism_positive_and_negative() {
        let a = Instance::from_facts([(r("R"), vec![e(1), e(2)]), (r("Q"), vec![e(2)])]);
        let b = Instance::from_facts([(r("R"), vec![e(7), e(9)]), (r("Q"), vec![e(9)])]);
        assert!(instances_isomorphic(&a, &b));

        let c = Instance::from_facts([(r("R"), vec![e(7), e(9)]), (r("Q"), vec![e(7)])]);
        assert!(!instances_isomorphic(&a, &c));

        let d = Instance::from_facts([(r("R"), vec![e(1), e(1)])]);
        assert!(!instances_isomorphic(&a, &d));
    }

    #[test]
    fn runs_with_same_abstraction_are_isomorphic() {
        // Replay Figure 1 with the paper's fresh values, and again with shifted fresh values;
        // the two runs must be isomorphic (Lemma E.1).
        let dms = example_3_1();
        let sem = RecencySemantics::new(&dms, 2);
        let run1 = sem.execute(&figure_1_steps()).unwrap();

        let shifted: Vec<Step> = figure_1_steps()
            .into_iter()
            .map(|s| {
                let subst = Substitution::from_pairs(s.subst.iter().map(|(var, val)| {
                    // shift only fresh values (the ones being introduced); parameters refer
                    // to earlier values, so shift everything consistently by +100
                    (var, DataValue(val.index() + 100))
                }));
                Step::new(s.action, subst)
            })
            .collect();
        // Rebuild by consistently shifting: parameters now refer to shifted values, which are
        // exactly the values introduced by the shifted earlier steps.
        let run2 = sem.execute(&shifted).unwrap();

        assert!(runs_isomorphic(&run1, &run2));
        assert!(runs_isomorphic(&run2, &run1));
        // A prefix is not isomorphic to the full run.
        assert!(!runs_isomorphic(&run1, &run2.prefix(5)));
    }

    #[test]
    fn non_isomorphic_runs_are_detected() {
        let dms = example_3_1();
        let sem = RecencySemantics::new(&dms, 2);
        let full = figure_1_steps();
        let run1 = sem.execute(&full[..2]).unwrap();
        // Take a different second step (β with u ↦ e1 instead of e2).
        let mut alt = full[..2].to_vec();
        alt[1] = Step::new(
            1,
            Substitution::from_pairs([(v("u"), e(1)), (v("v1"), e(4)), (v("v2"), e(5))]),
        );
        let sem3 = RecencySemantics::new(&dms, 3);
        let run2 = sem3.execute(&alt).unwrap();
        assert!(!runs_isomorphic(&run1, &run2));
    }

    #[test]
    fn canonical_keys_identify_isomorphic_configurations() {
        let dms = example_3_1();
        let sem = RecencySemantics::new(&dms, 2);
        let run1 = sem.execute(&figure_1_steps()).unwrap();

        let shifted: Vec<Step> = figure_1_steps()
            .into_iter()
            .map(|s| {
                Step::new(
                    s.action,
                    Substitution::from_pairs(
                        s.subst
                            .iter()
                            .map(|(var, val)| (var, DataValue(val.index() + 50))),
                    ),
                )
            })
            .collect();
        let run2 = sem.execute(&shifted).unwrap();

        let consts = BTreeSet::new();
        for (c1, c2) in run1.configs().iter().zip(run2.configs().iter()) {
            assert_eq!(
                canonical_config_key(c1, &consts),
                canonical_config_key(c2, &consts)
            );
        }

        // Different instants generally have different keys.
        assert_ne!(
            canonical_config_key(run1.configs()[1], &consts),
            canonical_config_key(run1.configs()[2], &consts)
        );
    }

    #[test]
    fn interner_ids_identify_isomorphic_configurations() {
        let dms = example_3_1();
        let sem = RecencySemantics::new(&dms, 2);
        let run1 = sem.execute(&figure_1_steps()).unwrap();
        let shifted: Vec<Step> = figure_1_steps()
            .into_iter()
            .map(|s| {
                Step::new(
                    s.action,
                    Substitution::from_pairs(
                        s.subst
                            .iter()
                            .map(|(var, val)| (var, DataValue(val.index() + 300))),
                    ),
                )
            })
            .collect();
        let run2 = sem.execute(&shifted).unwrap();

        let consts = BTreeSet::new();
        let interner = KeyInterner::new();
        let id = |config: &BConfig| interner.intern_new(canonical_config_key(config, &consts)).0;
        for (c1, c2) in run1.configs().iter().zip(run2.configs().iter()) {
            assert_eq!(id(c1), id(c2));
        }
        assert_ne!(id(run1.configs()[1]), id(run1.configs()[2]));
    }

    #[test]
    fn private_interner_is_idempotent_and_concurrent() {
        let interner = KeyInterner::new();
        assert!(interner.is_empty());
        let a = Instance::from_facts([(r("R"), vec![e(1)])]);
        let b = Instance::from_facts([(r("R"), vec![e(2)])]);
        let (id_a, fresh) = interner.intern_new(a.clone());
        assert!(fresh);
        assert_eq!(interner.intern_new(a.clone()), (id_a, false));
        assert_eq!(interner.intern_handle(a.clone()).0, id_a);
        assert_eq!(interner.intern_new(b.clone()), (id_a + 1, true));
        assert_eq!(interner.len(), 2);

        // concurrent interning of the same keys must agree on the ids
        let ids: Vec<Vec<u64>> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (0..64u64)
                            .map(|i| {
                                let key = Instance::from_facts([(r("R"), vec![e(i)])]);
                                interner.intern_new(key).0
                            })
                            .collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for other in &ids[1..] {
            assert_eq!(&ids[0], other);
        }
        // the 64 singleton instances include the earlier {R(e1)} and {R(e2)}
        assert_eq!(interner.len(), 64);
    }

    #[test]
    fn interner_accounts_bytes_on_fresh_inserts_only() {
        let interner = KeyInterner::new();
        assert_eq!(interner.heap_bytes(), 0);
        let a = Instance::from_facts([(r("R"), vec![e(1)])]);
        interner.intern_new(a.clone());
        let after_one = interner.heap_bytes();
        assert!(after_one > 0, "fresh intern must be charged");
        // deduplicated hits are free: no new allocation, no new charge
        interner.intern_new(a.clone());
        interner.intern_handle(a.clone());
        assert_eq!(interner.heap_bytes(), after_one);
        // a second distinct key grows the account
        interner.intern_handle(Instance::from_facts([(r("R"), vec![e(2)])]));
        assert!(interner.heap_bytes() > after_one);
    }

    #[test]
    fn constants_are_not_relabelled() {
        let mut cfg = BConfig::initial(Instance::new());
        cfg.instance_mut().insert(r("R"), vec![e(42), e(1)]);
        cfg.history_mut().insert(e(1));
        cfg.seq_no_mut().assign(e(1), 1);
        let consts = BTreeSet::from([e(42)]);
        let key = canonical_config_key(&cfg, &consts);
        // e42 stays, e1 is relabelled
        let adom = key.active_domain();
        assert!(adom.contains(&e(42)));
        assert!(!adom.contains(&e(1)));
    }
}
