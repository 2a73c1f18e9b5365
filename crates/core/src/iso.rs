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
//!   relabelling active-domain values by their recency rank, stored flat as a
//!   [`CanonicalKey`]; two configurations with the same key have isomorphic futures, which
//!   is what the bounded explorer uses to deduplicate its search space,
//! * [`KeyInterner`] — an interner mapping canonical keys to dense `u64` ids, so that the
//!   explorer's seen-set, a revision workspace's explored fixpoint and an incremental
//!   session's state count deduplicate configurations with an integer probe instead of
//!   comparing whole keys. Each search, workspace or session owns one; nothing is
//!   interned process-wide.

use crate::config::BConfig;
use crate::run::ExtendedRun;
use parking_lot::Mutex;
use rdms_cert::RANK_BASE;
use rdms_db::heap::{HeapSize, ARC_HEADER, HASH_ENTRY_OVERHEAD};
use rdms_db::{DataValue, Instance, RelName};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// A configuration's facts with every non-constant value relabelled to `RANK_BASE + r`
/// ([`rdms_cert::RANK_BASE`]), `r` its recency rank (`0` = most recent). Declared
/// constants, which [`Dms::new`](crate::Dms::new) keeps below `RANK_BASE`, stay fixed.
///
/// Two configurations with the same key are isomorphic in the sense of Lemma E.1
/// (restricted to the current instance), and — because fresh values are always new — admit
/// exactly the same `b`-bounded futures up to isomorphism.
///
/// Equality and hashing run over the two buffers; relation names hash by their
/// process-wide symbol, so keys of different systems stay comparable. The order is that of
/// the decoded instances ([`to_instance`](Self::to_instance)).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CanonicalKey {
    /// Per populated relation, in name order: name, tuple count, arity.
    rels: Box<[(RelName, u32, u32)]>,
    /// Every relation's relabelled tuples in ascending order, relations as in `rels`.
    values: Box<[u64]>,
}

/// The canonical key of `config`, built in one pass over its facts; every tuple of a
/// relation must have the same width, as the schema of a validated `Dms` guarantees.
pub fn canonical_config_key(config: &BConfig, constants: &BTreeSet<DataValue>) -> CanonicalKey {
    // value → canonical value, sorted by value; constants are absent and stay fixed
    let mut relabel: Vec<(DataValue, u64)> = config
        .recency_ranks()
        .iter()
        .filter(|v| !constants.contains(v))
        .enumerate()
        .map(|(rank, &value)| (value, RANK_BASE + rank as u64))
        .collect();
    relabel.sort_unstable();
    let canonical = |value: &DataValue| match relabel.binary_search_by_key(value, |&(v, _)| v) {
        Ok(at) => relabel[at].1,
        Err(_) => value.0,
    };
    let instance = config.instance();
    let width = |tuples: &BTreeSet<Vec<DataValue>>| tuples.first().map_or(0, Vec::len);
    let len = instance
        .relation_sets()
        .map(|(_, t)| t.len() * width(t))
        .sum();
    let mut rels = Vec::with_capacity(instance.relation_sets().len());
    let mut values = Vec::with_capacity(len);
    // one relation's relabelled tuples, and the order that sorts them
    let (mut mapped, mut order) = (Vec::new(), Vec::new());
    for (rel, tuples) in instance.relation_sets() {
        let arity = width(tuples);
        mapped.clear();
        for tuple in tuples {
            assert_eq!(tuple.len(), arity, "relation {rel} mixes tuple widths");
            mapped.extend(tuple.iter().map(canonical));
        }
        let tuple = |i: usize| &mapped[i * arity..(i + 1) * arity];
        order.clear();
        order.extend(0..tuples.len());
        order.sort_unstable_by(|&a, &b| tuple(a).cmp(tuple(b)));
        order
            .iter()
            .for_each(|&i| values.extend_from_slice(tuple(i)));
        rels.push((rel, tuples.len() as u32, arity as u32));
    }
    CanonicalKey {
        rels: rels.into_boxed_slice(),
        values: values.into_boxed_slice(),
    }
}

impl CanonicalKey {
    /// The key's relations in name order, each with its tuples in ascending order.
    pub fn relations(
        &self,
    ) -> impl ExactSizeIterator<Item = (RelName, impl ExactSizeIterator<Item = &[u64]>)> {
        let mut offset = 0;
        self.rels.iter().map(move |&(rel, count, arity)| {
            let (count, arity) = (count as usize, arity as usize);
            let block = &self.values[offset..offset + count * arity];
            offset += block.len();
            (
                rel,
                (0..count).map(move |i| &block[i * arity..(i + 1) * arity]),
            )
        })
    }

    /// The decoded canonical instance.
    pub fn to_instance(&self) -> Instance {
        Instance::from_facts(self.relations().flat_map(|(rel, tuples)| {
            tuples.map(move |tuple| (rel, tuple.iter().copied().map(DataValue).collect()))
        }))
    }
}

impl PartialOrd for CanonicalKey {
    fn partial_cmp(&self, other: &CanonicalKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CanonicalKey {
    /// [`Instance`]'s order on the decoded instances: relation names by text, never by
    /// symbol id (which follows interning order), so sorting by key is deterministic.
    fn cmp(&self, other: &CanonicalKey) -> Ordering {
        let (mut left, mut right) = (self.relations(), other.relations());
        loop {
            let order = match (left.next(), right.next()) {
                (Some((a, a_tuples)), Some((b, b_tuples))) => {
                    a.cmp(&b).then_with(|| a_tuples.cmp(b_tuples))
                }
                (a, b) => return a.is_some().cmp(&b.is_some()),
            };
            if order.is_ne() {
                return order;
            }
        }
    }
}

impl HeapSize for CanonicalKey {
    /// Exactly the two buffers.
    fn heap_size(&self) -> usize {
        std::mem::size_of_val(&*self.rels) + std::mem::size_of_val(&*self.values)
    }
}

impl fmt::Debug for CanonicalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_instance(), f)
    }
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

/// An interner mapping canonical configuration keys (produced by [`canonical_config_key`])
/// to dense `u64` ids: the `n`-th distinct key gets id `n - 1`.
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
    // keys are `Arc`-wrapped so callers that hold on to a key (certificate recording, a
    // workspace's explored set) share the interner's copy; `Arc<CanonicalKey>` hashes
    // and compares through the key, and borrows as `&CanonicalKey` for lookups
    ids: HashMap<Arc<CanonicalKey>, u64>,
    /// Heap bytes of every key in `ids` (see [`KeyInterner::heap_bytes`]).
    bytes: usize,
}

/// Bytes charged per interned key on top of its two buffers: the `Arc` allocation (header
/// and the key's inline part) and the map entry with its bookkeeping.
const KEY_ENTRY_BYTES: usize = ARC_HEADER
    + std::mem::size_of::<CanonicalKey>()
    + std::mem::size_of::<(Arc<CanonicalKey>, u64)>()
    + HASH_ENTRY_OVERHEAD;

impl Table {
    /// Store `key`, which is not interned yet, under the next id and charge its bytes.
    fn insert(&mut self, key: CanonicalKey) -> (u64, Arc<CanonicalKey>) {
        let id = self.ids.len() as u64;
        self.bytes += key.heap_size() + KEY_ENTRY_BYTES;
        let stored = Arc::new(key);
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
    pub fn intern_new(&self, key: CanonicalKey) -> (u64, bool) {
        let mut table = self.table.lock();
        if let Some(&id) = table.ids.get(&key) {
            return (id, false);
        }
        (table.insert(key).0, true)
    }

    /// Intern `key`, returning its id *and* a shared handle to the stored key. The handle
    /// is an `Arc` clone of the interner's own copy, so callers that must retain the key
    /// (the explorer's certificate recording) pay one reference-count bump instead of a
    /// copy.
    pub fn intern_handle(&self, key: CanonicalKey) -> (u64, Arc<CanonicalKey>) {
        let mut table = self.table.lock();
        if let Some((stored, &id)) = table.ids.get_key_value(&key) {
            return (id, Arc::clone(stored));
        }
        table.insert(key)
    }

    /// Heap bytes retained by this interner's keys, charged once per distinct key: each
    /// key's two buffers exactly, plus a fixed allowance for its `Arc` and map entry.
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

    /// The key of a configuration over `facts` whose values are all declared constants,
    /// so the key holds the facts unrelabelled.
    fn fixed_key(facts: &[(RelName, Vec<DataValue>)]) -> CanonicalKey {
        let instance = Instance::from_facts(facts.iter().cloned());
        let constants = instance.active_domain();
        canonical_config_key(&BConfig::initial(instance), &constants)
    }

    #[test]
    fn flat_keys_decode_and_order_like_instances() {
        // interned in the reverse of text order, so symbol ids and texts disagree
        let (z, a) = (r("iso_order_z"), r("iso_order_a"));
        let p = r("iso_order_p");
        let facts: Vec<Vec<(RelName, Vec<DataValue>)>> = vec![
            vec![],
            vec![(p, vec![])],
            vec![(z, vec![e(1)])],
            vec![(a, vec![e(1)])],
            vec![(a, vec![e(1)]), (z, vec![e(1)])],
            vec![(a, vec![e(2), e(1)]), (a, vec![e(1), e(3)]), (p, vec![])],
            vec![
                (a, vec![e(2), e(1)]),
                (a, vec![e(1), e(3)]),
                (z, vec![e(3)]),
            ],
            vec![(a, vec![e(1), e(3)])],
        ];
        let keys: Vec<CanonicalKey> = facts.iter().map(|f| fixed_key(f)).collect();
        let instances: Vec<Instance> = facts
            .iter()
            .map(|f| Instance::from_facts(f.iter().cloned()))
            .collect();
        for (key, instance) in keys.iter().zip(&instances) {
            assert_eq!(&key.to_instance(), instance);
            assert_eq!(format!("{key:?}"), format!("{instance}"));
        }
        for (i, j) in (0..keys.len()).flat_map(|i| (0..keys.len()).map(move |j| (i, j))) {
            assert_eq!(
                keys[i].cmp(&keys[j]),
                instances[i].cmp(&instances[j]),
                "{i} vs {j}"
            );
            assert_eq!(keys[i] == keys[j], i == j);
        }
        assert!(keys[3] < keys[2], "names order by text, not by symbol id");
    }

    #[test]
    fn private_interner_is_idempotent_and_concurrent() {
        let interner = KeyInterner::new();
        assert!(interner.is_empty());
        let a = fixed_key(&[(r("R"), vec![e(1)])]);
        let b = fixed_key(&[(r("R"), vec![e(2)])]);
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
                            .map(|i| interner.intern_new(fixed_key(&[(r("R"), vec![e(i)])])).0)
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
        let a = fixed_key(&[(r("R"), vec![e(1)])]);
        // one relation entry and one value
        assert_eq!(
            a.heap_size(),
            std::mem::size_of::<(RelName, u32, u32)>() + std::mem::size_of::<u64>()
        );
        interner.intern_new(a.clone());
        assert_eq!(interner.heap_bytes(), a.heap_size() + KEY_ENTRY_BYTES);
        // deduplicated hits are free: no new allocation, no new charge
        interner.intern_new(a.clone());
        interner.intern_handle(a.clone());
        assert_eq!(interner.heap_bytes(), a.heap_size() + KEY_ENTRY_BYTES);
        // a second distinct key is charged its own buffers
        let b = fixed_key(&[(r("R"), vec![e(2), e(3)]), (r("p"), vec![])]);
        interner.intern_handle(b.clone());
        assert_eq!(
            interner.heap_bytes(),
            a.heap_size() + b.heap_size() + 2 * KEY_ENTRY_BYTES
        );
    }

    #[test]
    fn constants_are_not_relabelled() {
        let mut cfg = BConfig::initial(Instance::new());
        cfg.instance_mut().insert(r("R"), vec![e(42), e(1)]);
        cfg.history_mut().insert(e(1));
        cfg.seq_no_mut().assign(e(1), 1);
        let consts = BTreeSet::from([e(42)]);
        let key = canonical_config_key(&cfg, &consts);
        // e42 stays, e1 is relabelled to rank 0
        assert_eq!(
            key.to_instance(),
            Instance::from_facts([(r("R"), vec![e(42), DataValue(RANK_BASE)])])
        );
    }
}
