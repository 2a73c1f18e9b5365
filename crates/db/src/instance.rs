//! Database instances over a schema and the data domain.

use crate::metrics;
use crate::schema::{RelName, Schema};
use crate::value::{DataValue, Tuple};
use serde::ser::SerializeStruct;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// One column's hash index: the value at that column → the tuples carrying it there.
type ColumnIndex = HashMap<DataValue, Vec<Tuple>>;

/// The shared storage of one relation: its tuple set plus lazily-built caches.
///
/// A `Relation` is immutable once shared (the instance clones it on first write — see
/// [`Instance`]), so every cache is computed at most once per storage node and is reused by
/// all instances sharing the node:
///
/// * `columns` — the sorted distinct values per column position,
/// * `indexes` — per-column hash indexes from a column's value to the tuples carrying it
///   there, each built independently on first probe of that column.
struct Relation {
    tuples: BTreeSet<Tuple>,
    columns: OnceLock<Vec<Vec<DataValue>>>,
    /// Outer cell: one slot per column position (sized to the widest tuple on first use).
    /// Inner cells: the column's hash index, built only when that column is probed.
    indexes: OnceLock<Vec<OnceLock<ColumnIndex>>>,
}

impl Relation {
    fn from_tuples(tuples: BTreeSet<Tuple>) -> Relation {
        Relation {
            tuples,
            columns: OnceLock::new(),
            indexes: OnceLock::new(),
        }
    }

    fn singleton(tuple: Tuple) -> Relation {
        Relation::from_tuples(BTreeSet::from([tuple]))
    }

    /// Sorted distinct values at column `col` (empty when no tuple is that wide).
    fn column_values(&self, col: usize) -> &[DataValue] {
        if let Some(columns) = self.columns.get() {
            metrics::count_index_hit();
            return columns.get(col).map(Vec::as_slice).unwrap_or(&[]);
        }
        metrics::count_index_build();
        let columns = self.columns.get_or_init(|| {
            let width = self.tuples.iter().map(Vec::len).max().unwrap_or(0);
            (0..width)
                .map(|c| {
                    let set: BTreeSet<DataValue> = self
                        .tuples
                        .iter()
                        .filter_map(|t| t.get(c))
                        .copied()
                        .collect();
                    set.into_iter().collect()
                })
                .collect()
        });
        columns.get(col).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The tuples whose component at position `col` is `value`. Relations too small to
    /// amortise an index are answered by a filtered scan; larger ones build the column's
    /// hash index once (per shared storage node, per column) and probe it.
    fn with_value_at(&self, col: usize, value: DataValue) -> WithValueAt<'_> {
        if let Some(slots) = self.indexes.get() {
            if let Some(Some(index)) = slots.get(col).map(OnceLock::get) {
                metrics::count_index_hit();
                return WithValueAt::Indexed(
                    index.get(&value).map(Vec::as_slice).unwrap_or(&[]).iter(),
                );
            }
        }
        if self.tuples.len() < COLUMN_INDEX_MIN_TUPLES {
            return WithValueAt::Scan {
                tuples: self.tuples.iter(),
                col,
                value,
            };
        }
        let slots = self.indexes.get_or_init(|| {
            let width = self.tuples.iter().map(Vec::len).max().unwrap_or(0);
            (0..width).map(|_| OnceLock::new()).collect()
        });
        let Some(slot) = slots.get(col) else {
            // no tuple is wide enough for this column: nothing can match
            return WithValueAt::Indexed([].iter());
        };
        if slot.get().is_some() {
            metrics::count_index_hit();
        } else {
            metrics::count_index_build();
        }
        let index = slot.get_or_init(|| {
            let mut index: ColumnIndex = HashMap::new();
            // BTreeSet iteration keeps each bucket sorted, so probes are deterministic
            for tuple in &self.tuples {
                if let Some(&at) = tuple.get(col) {
                    index.entry(at).or_default().push(tuple.clone());
                }
            }
            index
        });
        WithValueAt::Indexed(index.get(&value).map(Vec::as_slice).unwrap_or(&[]).iter())
    }
}

impl Relation {
    /// Drop every lazy cache (requires exclusive access). Must precede any mutation of
    /// `tuples` — see [`make_mut`].
    fn reset_caches(&mut self) {
        self.columns = OnceLock::new();
        self.indexes = OnceLock::new();
    }
}

impl Clone for Relation {
    /// Cloning drops the caches: the only reason the instance deep-copies a relation is an
    /// impending mutation, after which they would be stale anyway.
    fn clone(&self) -> Relation {
        Relation::from_tuples(self.tuples.clone())
    }
}

/// Minimum tuple count before [`Relation::with_value_at`] builds a column's hash index;
/// below this a filtered scan is cheaper than constructing (and allocating) the index for
/// few probes.
const COLUMN_INDEX_MIN_TUPLES: usize = 16;

/// Iterator over a relation's tuples with a fixed component at one column (see
/// [`Relation::with_value_at`]).
enum WithValueAt<'a> {
    Indexed(std::slice::Iter<'a, Tuple>),
    Scan {
        tuples: std::collections::btree_set::Iter<'a, Tuple>,
        col: usize,
        value: DataValue,
    },
}

impl<'a> Iterator for WithValueAt<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        match self {
            WithValueAt::Indexed(iter) => iter.next(),
            WithValueAt::Scan { tuples, col, value } => {
                tuples.find(|tuple| tuple.get(*col) == Some(value))
            }
        }
    }
}

/// A database instance `I ∈ DB-Inst-Set(R, ∆)`: for every relation name a finite set of
/// tuples over the data domain.
///
/// The representation is deliberately deterministic (`BTreeMap` of sorted tuple sets):
/// canonical configuration keys and certificate facts are read off it in relation-name and
/// tuple order, and tests rely on stable iteration order.
///
/// # Copy-on-write sharing
///
/// Each relation's tuple set lives behind an [`Arc`]: cloning an instance shares every
/// relation with the original, and a mutation deep-copies only the relation it touches
/// (clone-on-first-write). A successor configuration produced by an action that updates 1 of
/// N relations therefore shares the other N−1 with its parent — together with their
/// lazily-built caches (per-column values and hash indexes). The sharing is observable only through performance and through
/// [`Instance::shared_relations`]; the value semantics is exactly that of a plain
/// `BTreeMap<RelName, BTreeSet<Tuple>>` (checked by property tests).
///
/// Following the paper:
/// * `I₁ + I₂` is relation-wise union ([`Instance::union`]),
/// * `I₁ − I₂` is relation-wise set difference ([`Instance::difference`]),
/// * `adom(I)` is the set of values occurring in some fact ([`Instance::active_domain`]),
/// * a nullary relation (proposition) `p` is *true* in `I` iff `p() ∈ I`
///   ([`Instance::proposition`]).
#[derive(Default)]
pub struct Instance {
    /// Invariant: no entry maps to an empty tuple set (mirrors the pre-COW representation,
    /// which dropped a relation's entry when its last tuple was removed).
    relations: BTreeMap<RelName, Arc<Relation>>,
}

/// Grant mutable access to `arc`'s relation ahead of a mutation: deep-copy unless this
/// instance is the sole owner, and — either way — drop the lazy caches, which describe the
/// pre-mutation tuple set. (The shared path gets fresh caches from `Relation::clone`; the
/// sole-owner path mutates in place and must reset them explicitly, or stale
/// values/index/hash data would survive the write.)
fn make_mut(arc: &mut Arc<Relation>) -> &mut Relation {
    if Arc::strong_count(arc) > 1 {
        metrics::count_materialized();
    }
    let data = Arc::make_mut(arc);
    data.reset_caches();
    data
}

impl Instance {
    /// The empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    /// Insert the fact `rel(tuple…)`. Returns `true` if the fact was not already present.
    pub fn insert(&mut self, rel: RelName, tuple: Tuple) -> bool {
        match self.relations.entry(rel) {
            Entry::Vacant(entry) => {
                entry.insert(Arc::new(Relation::singleton(tuple)));
                true
            }
            Entry::Occupied(mut entry) => {
                if entry.get().tuples.contains(&tuple) {
                    return false; // no-op inserts never materialise a shared relation
                }
                make_mut(entry.get_mut()).tuples.insert(tuple)
            }
        }
    }

    /// Insert a fact, checking the tuple's arity against `schema`.
    pub fn insert_checked(
        &mut self,
        schema: &Schema,
        rel: RelName,
        tuple: Tuple,
    ) -> Result<bool, crate::DbError> {
        schema.check_arity(rel, tuple.len())?;
        Ok(self.insert(rel, tuple))
    }

    /// Remove the fact `rel(tuple…)`. Returns `true` if it was present.
    pub fn remove(&mut self, rel: RelName, tuple: &[DataValue]) -> bool {
        let Entry::Occupied(mut entry) = self.relations.entry(rel) else {
            return false;
        };
        if !entry.get().tuples.contains(tuple) {
            return false; // no-op removals never materialise a shared relation
        }
        if entry.get().tuples.len() == 1 {
            // removing the last tuple drops the relation entry entirely
            entry.remove();
            return true;
        }
        make_mut(entry.get_mut()).tuples.remove(tuple)
    }

    /// Set the truth value of a proposition (nullary relation).
    pub fn set_proposition(&mut self, rel: RelName, value: bool) {
        if value {
            self.insert(rel, vec![]);
        } else {
            self.remove(rel, &[]);
        }
    }

    /// Whether the proposition `rel` is true (`rel() ∈ I`).
    pub fn proposition(&self, rel: RelName) -> bool {
        self.contains(rel, &[])
    }

    /// Whether the fact `rel(tuple…)` is present.
    pub fn contains(&self, rel: RelName, tuple: &[DataValue]) -> bool {
        self.relations
            .get(&rel)
            .map(|data| data.tuples.contains(tuple))
            .unwrap_or(false)
    }

    /// The tuples of relation `rel` (empty iterator if the relation has no tuples).
    pub fn relation(&self, rel: RelName) -> impl Iterator<Item = &Tuple> + '_ {
        self.relations
            .get(&rel)
            .into_iter()
            .flat_map(|data| data.tuples.iter())
    }

    /// The tuples of `rel` whose **first** component is `value` — shorthand for
    /// [`Self::relation_with_value_at`] at column 0.
    pub fn relation_with_first(
        &self,
        rel: RelName,
        value: DataValue,
    ) -> impl Iterator<Item = &Tuple> + '_ {
        self.relation_with_value_at(rel, 0, value)
    }

    /// The tuples of `rel` whose component at position `col` is `value`, answered through a
    /// lazily built (and `Arc`-shared) per-column hash index. Query evaluation uses this to
    /// answer atoms with a bound term at **any** position by index probe instead of scanning
    /// the whole relation.
    pub fn relation_with_value_at(
        &self,
        rel: RelName,
        col: usize,
        value: DataValue,
    ) -> impl Iterator<Item = &Tuple> + '_ {
        self.relations
            .get(&rel)
            .map(|data| data.with_value_at(col, value))
            .into_iter()
            .flatten()
    }

    /// The sorted distinct values occurring at column `col` of `rel` (cached on the shared
    /// relation storage). Quantifier evaluation uses this to restrict a bound variable's
    /// range to the values that can actually satisfy an atom.
    pub fn column_values(&self, rel: RelName, col: usize) -> &[DataValue] {
        self.relations
            .get(&rel)
            .map(|data| data.column_values(col))
            .unwrap_or(&[])
    }

    /// The number of tuples in relation `rel`.
    pub fn relation_size(&self, rel: RelName) -> usize {
        self.relations
            .get(&rel)
            .map(|data| data.tuples.len())
            .unwrap_or(0)
    }

    /// Iterate over all facts as `(relation, tuple)` pairs, deterministically.
    pub fn facts(&self) -> impl Iterator<Item = (RelName, &Tuple)> + '_ {
        self.relations
            .iter()
            .flat_map(|(&rel, data)| data.tuples.iter().map(move |t| (rel, t)))
    }

    /// The populated relations with their tuple sets, in relation-name order.
    pub fn relation_sets(&self) -> impl ExactSizeIterator<Item = (RelName, &BTreeSet<Tuple>)> {
        self.relations
            .iter()
            .map(|(&rel, data)| (rel, &data.tuples))
    }

    /// The relation names that have at least one tuple in this instance.
    pub fn populated_relations(&self) -> impl Iterator<Item = RelName> + '_ {
        self.relations.keys().copied()
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.relations.values().map(|data| data.tuples.len()).sum()
    }

    /// Whether the instance contains no facts.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// The active domain `adom(I)`: every data value occurring in some fact (the paper's
    /// `Active(u)` query of Example 2.1 characterises exactly this set).
    pub fn active_domain(&self) -> BTreeSet<DataValue> {
        self.facts().flat_map(|(_, tuple)| tuple).copied().collect()
    }

    /// The largest value in `adom(I)`, if any — answered without materialising the whole
    /// active domain.
    pub fn max_value(&self) -> Option<DataValue> {
        self.facts().flat_map(|(_, tuple)| tuple).max().copied()
    }

    /// How many relations of `self` share their storage with `other` (i.e. point at the
    /// same `Arc` node). Diagnostic for the copy-on-write representation.
    pub fn shared_relations(&self, other: &Instance) -> usize {
        self.relations
            .iter()
            .filter(|(rel, data)| {
                other
                    .relations
                    .get(rel)
                    .is_some_and(|theirs| Arc::ptr_eq(data, theirs))
            })
            .count()
    }

    /// Relation-wise union `I₁ + I₂`. Relations absent from `self` are shared with `other`
    /// rather than copied; relations whose tuples are already all present stay shared with
    /// `self`.
    pub fn union(&self, other: &Instance) -> Instance {
        let mut result = self.clone();
        for (&rel, data) in &other.relations {
            match result.relations.entry(rel) {
                Entry::Vacant(entry) => {
                    entry.insert(Arc::clone(data));
                }
                Entry::Occupied(mut entry) => {
                    if Arc::ptr_eq(entry.get(), data) {
                        continue;
                    }
                    let missing: Vec<Tuple> = data
                        .tuples
                        .difference(&entry.get().tuples)
                        .cloned()
                        .collect();
                    if missing.is_empty() {
                        continue;
                    }
                    let target = make_mut(entry.get_mut());
                    target.tuples.extend(missing);
                }
            }
        }
        result
    }

    /// Relation-wise difference `I₁ − I₂`. Relations with no tuple to remove stay shared
    /// with `self`.
    pub fn difference(&self, other: &Instance) -> Instance {
        let mut result = self.clone();
        for (&rel, data) in &other.relations {
            let Entry::Occupied(mut entry) = result.relations.entry(rel) else {
                continue;
            };
            let present: Vec<&Tuple> = data
                .tuples
                .iter()
                .filter(|t| entry.get().tuples.contains(*t))
                .collect();
            if present.is_empty() {
                continue;
            }
            if present.len() == entry.get().tuples.len() {
                entry.remove();
                continue;
            }
            let present: Vec<Tuple> = present.into_iter().cloned().collect();
            let target = make_mut(entry.get_mut());
            for tuple in &present {
                target.tuples.remove(tuple);
            }
        }
        result
    }

    /// Apply the paper's action update `I' = (I − Del) + Add` in one step.
    pub fn apply_update(&self, del: &Instance, add: &Instance) -> Instance {
        self.difference(del).union(add)
    }

    /// Build an instance from a list of facts.
    pub fn from_facts<I>(facts: I) -> Instance
    where
        I: IntoIterator<Item = (RelName, Tuple)>,
    {
        let mut inst = Instance::new();
        for (rel, tuple) in facts {
            inst.insert(rel, tuple);
        }
        inst
    }

    fn from_relation_sets(relations: BTreeMap<RelName, BTreeSet<Tuple>>) -> Instance {
        Instance {
            relations: relations
                .into_iter()
                .filter(|(_, tuples)| !tuples.is_empty())
                .map(|(rel, tuples)| (rel, Arc::new(Relation::from_tuples(tuples))))
                .collect(),
        }
    }

    /// Rename every data value through `f` (used by the isomorphism checks).
    pub fn map_values<F: Fn(DataValue) -> DataValue>(&self, f: F) -> Instance {
        let mut inst = Instance::new();
        for (rel, tuple) in self.facts() {
            inst.insert(rel, tuple.iter().map(|&v| f(v)).collect());
        }
        inst
    }

    /// Check every fact's arity against `schema`.
    pub fn validate(&self, schema: &Schema) -> Result<(), crate::DbError> {
        for (rel, tuple) in self.facts() {
            schema.check_arity(rel, tuple.len())?;
        }
        Ok(())
    }
}

impl crate::heap::HeapSize for Relation {
    /// Charges the primary tuple storage only: the lazy caches (columns, indexes) are
    /// reconstructible, bounded by that storage,
    /// and dropped on mutation — see the estimation contract in [`crate::heap`].
    fn heap_size(&self) -> usize {
        crate::heap::btree_set_of_tuples(&self.tuples)
    }
}

impl crate::heap::HeapSize for Instance {
    /// Per relation entry: the map overhead, the `Arc` header, and the relation's tuple
    /// storage. Shared relations are charged to every holding instance (upper bound).
    fn heap_size(&self) -> usize {
        use crate::heap::{ARC_HEADER, BTREE_ENTRY_OVERHEAD};
        self.relations
            .values()
            .map(|data| {
                BTREE_ENTRY_OVERHEAD
                    + std::mem::size_of::<(RelName, Arc<Relation>)>()
                    + ARC_HEADER
                    + std::mem::size_of::<Relation>()
                    + data.as_ref().heap_size()
            })
            .sum()
    }
}

impl Clone for Instance {
    fn clone(&self) -> Instance {
        metrics::count_shared(self.relations.len() as u64);
        Instance {
            relations: self.relations.clone(),
        }
    }
}

impl PartialEq for Instance {
    fn eq(&self, other: &Instance) -> bool {
        if self.relations.len() != other.relations.len() {
            return false;
        }
        self.relations
            .iter()
            .zip(other.relations.iter())
            .all(|((rel_a, a), (rel_b, b))| {
                rel_a == rel_b && (Arc::ptr_eq(a, b) || a.tuples == b.tuples)
            })
    }
}

impl Eq for Instance {}

impl PartialOrd for Instance {
    fn partial_cmp(&self, other: &Instance) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Instance {
    /// Lexicographic over `(relation, tuple set)` pairs — identical to the ordering of the
    /// pre-COW `BTreeMap<RelName, BTreeSet<Tuple>>` representation.
    fn cmp(&self, other: &Instance) -> std::cmp::Ordering {
        self.relations
            .iter()
            .map(|(&rel, data)| (rel, &data.tuples))
            .cmp(
                other
                    .relations
                    .iter()
                    .map(|(&rel, data)| (rel, &data.tuples)),
            )
    }
}

impl Hash for Instance {
    /// Hashes the `(relation, tuple set)` pairs, as the plain `BTreeMap` would.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.relations.len());
        for (rel, data) in &self.relations {
            rel.hash(state);
            data.tuples.hash(state);
        }
    }
}

impl Serialize for Instance {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // same wire shape as the old derived impl: a struct with a "relations" map
        let relations: BTreeMap<RelName, &BTreeSet<Tuple>> = self
            .relations
            .iter()
            .map(|(&rel, data)| (rel, &data.tuples))
            .collect();
        let mut state = serializer.serialize_struct("Instance", 1)?;
        state.serialize_field("relations", &relations)?;
        state.end()
    }
}

impl<'de> Deserialize<'de> for Instance {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        let value = deserializer.into_value()?;
        let entries = value
            .as_map()
            .ok_or_else(|| D::Error::custom("expected a map for struct Instance"))?;
        let relations = entries
            .iter()
            .find(|(key, _)| key == "relations")
            .map(|(_, v)| v.clone())
            .ok_or_else(|| D::Error::custom("missing field `relations`"))?;
        let relations = BTreeMap::<RelName, BTreeSet<Tuple>>::deserialize(relations)
            .map_err(D::Error::custom)?;
        // empty tuple sets are normalised away (the in-memory invariant)
        Ok(Instance::from_relation_sets(relations))
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (rel, data) in &self.relations {
            for tuple in &data.tuples {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                if tuple.is_empty() {
                    write!(f, "{rel}")?;
                } else {
                    let args: Vec<String> = tuple.iter().map(|v| v.to_string()).collect();
                    write!(f, "{rel}({})", args.join(","))?;
                }
            }
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(name: &str) -> RelName {
        RelName::new(name)
    }

    fn e(i: u64) -> DataValue {
        DataValue::e(i)
    }

    #[test]
    fn insert_remove_contains() {
        let mut i = Instance::new();
        assert!(i.is_empty());
        assert!(i.insert(r("R"), vec![e(1), e(2)]));
        assert!(!i.insert(r("R"), vec![e(1), e(2)]));
        assert!(i.contains(r("R"), &[e(1), e(2)]));
        assert!(!i.contains(r("R"), &[e(2), e(1)]));
        assert_eq!(i.len(), 1);
        assert!(i.remove(r("R"), &[e(1), e(2)]));
        assert!(!i.remove(r("R"), &[e(1), e(2)]));
        assert!(i.is_empty());
        // removing the last tuple drops the relation entry entirely
        assert_eq!(i.populated_relations().count(), 0);
    }

    #[test]
    fn propositions() {
        let mut i = Instance::new();
        assert!(!i.proposition(r("p")));
        i.set_proposition(r("p"), true);
        assert!(i.proposition(r("p")));
        assert_eq!(i.len(), 1);
        // a proposition contributes nothing to the active domain
        assert!(i.active_domain().is_empty());
        i.set_proposition(r("p"), false);
        assert!(!i.proposition(r("p")));
        assert!(i.is_empty());
    }

    #[test]
    fn active_domain() {
        let i = Instance::from_facts([
            (r("R"), vec![e(1), e(2)]),
            (r("Q"), vec![e(2)]),
            (r("p"), vec![]),
        ]);
        let adom = i.active_domain();
        assert_eq!(adom, BTreeSet::from([e(1), e(2)]));
        assert_eq!(i.max_value(), Some(e(2)));
    }

    #[test]
    fn union_and_difference_follow_the_paper() {
        let i1 = Instance::from_facts([(r("R"), vec![e(1)]), (r("R"), vec![e(2)])]);
        let i2 = Instance::from_facts([(r("R"), vec![e(2)]), (r("Q"), vec![e(3)])]);

        let u = i1.union(&i2);
        assert_eq!(u.len(), 3);
        assert!(u.contains(r("R"), &[e(1)]));
        assert!(u.contains(r("R"), &[e(2)]));
        assert!(u.contains(r("Q"), &[e(3)]));

        let d = i1.difference(&i2);
        assert_eq!(d.len(), 1);
        assert!(d.contains(r("R"), &[e(1)]));
        assert!(!d.contains(r("R"), &[e(2)]));

        // difference with something not present is a no-op
        let d2 = i1.difference(&Instance::from_facts([(r("Z"), vec![e(9)])]));
        assert_eq!(d2, i1);
    }

    #[test]
    fn apply_update_add_wins_over_del() {
        // The paper defines I' = (I − Del) + Add, so a fact both deleted and added survives.
        let i = Instance::from_facts([(r("R"), vec![e(1)])]);
        let del = Instance::from_facts([(r("R"), vec![e(1)])]);
        let add = Instance::from_facts([(r("R"), vec![e(1)])]);
        let next = i.apply_update(&del, &add);
        assert!(next.contains(r("R"), &[e(1)]));
    }

    #[test]
    fn relation_iteration_and_size() {
        let i = Instance::from_facts([
            (r("R"), vec![e(1)]),
            (r("R"), vec![e(2)]),
            (r("Q"), vec![e(3)]),
        ]);
        assert_eq!(i.relation_size(r("R")), 2);
        assert_eq!(i.relation_size(r("Z")), 0);
        assert_eq!(i.relation(r("R")).count(), 2);
        assert_eq!(i.facts().count(), 3);
    }

    #[test]
    fn map_values_renames() {
        let i = Instance::from_facts([(r("R"), vec![e(1), e(2)])]);
        let j = i.map_values(|v| DataValue(v.0 + 10));
        assert!(j.contains(r("R"), &[e(11), e(12)]));
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn validate_against_schema() {
        let schema = Schema::with_relations(&[("R", 2), ("p", 0)]);
        let ok = Instance::from_facts([(r("R"), vec![e(1), e(2)]), (r("p"), vec![])]);
        assert!(ok.validate(&schema).is_ok());

        let bad_arity = Instance::from_facts([(r("R"), vec![e(1)])]);
        assert!(bad_arity.validate(&schema).is_err());

        let unknown = Instance::from_facts([(r("S"), vec![e(1)])]);
        assert!(unknown.validate(&schema).is_err());
    }

    #[test]
    fn display_is_compact() {
        let i = Instance::from_facts([(r("R"), vec![e(1)]), (r("p"), vec![])]);
        let s = format!("{i}");
        assert!(s.contains("R(e1)"));
        assert!(s.contains('p'));
    }

    #[test]
    fn insert_checked_respects_schema() {
        let schema = Schema::with_relations(&[("R", 1)]);
        let mut i = Instance::new();
        assert!(i.insert_checked(&schema, r("R"), vec![e(1)]).is_ok());
        assert!(i.insert_checked(&schema, r("R"), vec![e(1), e(2)]).is_err());
        assert!(i.insert_checked(&schema, r("Nope"), vec![e(1)]).is_err());
    }

    // -------------------------------------------------------------------------------------
    // copy-on-write representation
    // -------------------------------------------------------------------------------------

    #[test]
    fn clones_share_storage_until_written() {
        let mut i = Instance::from_facts([
            (r("A"), vec![e(1)]),
            (r("B"), vec![e(2)]),
            (r("C"), vec![e(3)]),
        ]);
        let snapshot = i.clone();
        assert_eq!(i.shared_relations(&snapshot), 3);

        // writing one relation materialises only that one
        i.insert(r("B"), vec![e(9)]);
        assert_eq!(i.shared_relations(&snapshot), 2);
        assert!(snapshot.contains(r("B"), &[e(2)]));
        assert!(!snapshot.contains(r("B"), &[e(9)]));
        assert!(i.contains(r("B"), &[e(2)]));

        // no-op writes keep sharing intact
        let again = i.clone();
        i.insert(r("A"), vec![e(1)]);
        i.remove(r("C"), &[e(99)]);
        assert_eq!(i.shared_relations(&again), 3);
    }

    #[test]
    fn union_and_difference_share_untouched_relations() {
        let base = Instance::from_facts([(r("A"), vec![e(1)]), (r("B"), vec![e(2)])]);
        let add = Instance::from_facts([(r("C"), vec![e(3)])]);
        let u = base.union(&add);
        assert_eq!(u.shared_relations(&base), 2);
        assert_eq!(u.shared_relations(&add), 1);

        let del = Instance::from_facts([(r("B"), vec![e(2)])]);
        let d = base.difference(&del);
        assert_eq!(d.shared_relations(&base), 1);
        assert!(!d.contains(r("B"), &[e(2)]));
    }

    #[test]
    fn equality_hash_and_ordering_ignore_sharing() {
        use std::collections::hash_map::DefaultHasher;
        let a = Instance::from_facts([(r("R"), vec![e(1)]), (r("Q"), vec![e(2)])]);
        let b = a.clone(); // shares storage
        let c = Instance::from_facts([(r("Q"), vec![e(2)]), (r("R"), vec![e(1)])]); // rebuilt
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.cmp(&c), std::cmp::Ordering::Equal);
        let hash = |i: &Instance| {
            let mut h = DefaultHasher::new();
            i.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        assert_eq!(hash(&a), hash(&c));

        let d = Instance::from_facts([(r("R"), vec![e(1)])]);
        assert_ne!(a, d);
        // ordering is total and antisymmetric, exactly as the value representation's
        assert_ne!(a.cmp(&d), std::cmp::Ordering::Equal);
        assert_eq!(a.cmp(&d), d.cmp(&a).reverse());
    }

    #[test]
    fn mutating_a_sole_owner_resets_warm_caches() {
        use std::collections::hash_map::DefaultHasher;
        // warm every cache on an unshared relation, then mutate in place: the caches must
        // be rebuilt, not served stale (regression test — Arc::make_mut does not clone for
        // a sole owner, so the reset must be explicit)
        let mut i = Instance::from_facts([(r("R"), vec![e(1), e(5)])]);
        assert_eq!(i.column_values(r("R"), 0), &[e(1)]); // warms `columns`
        assert_eq!(i.relation_with_first(r("R"), e(1)).count(), 1);
        let hash = |inst: &Instance| {
            let mut h = DefaultHasher::new();
            inst.hash(&mut h);
            h.finish()
        };

        i.insert(r("R"), vec![e(2), e(6)]);
        assert_eq!(i.column_values(r("R"), 0), &[e(1), e(2)]);
        assert_eq!(i.active_domain(), BTreeSet::from([e(1), e(2), e(5), e(6)]));
        assert_eq!(i.max_value(), Some(e(6)));
        let rebuilt =
            Instance::from_facts([(r("R"), vec![e(1), e(5)]), (r("R"), vec![e(2), e(6)])]);
        assert_eq!(hash(&i), hash(&rebuilt));

        i.remove(r("R"), &[e(1), e(5)]);
        assert!(!i.active_domain().contains(&e(1)));
        assert_eq!(i.column_values(r("R"), 0), &[e(2)]);
        let rebuilt = Instance::from_facts([(r("R"), vec![e(2), e(6)])]);
        assert_eq!(hash(&i), hash(&rebuilt));
    }

    #[test]
    fn first_column_index_and_column_values() {
        let i = Instance::from_facts([
            (r("S"), vec![e(1), e(2)]),
            (r("S"), vec![e(1), e(3)]),
            (r("S"), vec![e(2), e(3)]),
        ]);
        let hits: Vec<&Tuple> = i.relation_with_first(r("S"), e(1)).collect();
        assert_eq!(hits, vec![&vec![e(1), e(2)], &vec![e(1), e(3)]]);
        assert_eq!(i.relation_with_first(r("S"), e(9)).count(), 0);
        assert_eq!(i.relation_with_first(r("Zzz"), e(1)).count(), 0);

        assert_eq!(i.column_values(r("S"), 0), &[e(1), e(2)]);
        assert_eq!(i.column_values(r("S"), 1), &[e(2), e(3)]);
        assert!(i.column_values(r("S"), 2).is_empty());
        assert_eq!(i.active_domain(), BTreeSet::from([e(1), e(2), e(3)]));
    }

    #[test]
    fn non_first_column_index_probes_agree_with_scans() {
        // small relation (scan path) and large relation (indexed path) must answer column
        // probes identically
        let mut small = Instance::new();
        small.insert(r("S"), vec![e(1), e(7)]);
        small.insert(r("S"), vec![e(2), e(7)]);
        small.insert(r("S"), vec![e(3), e(8)]);
        let hits: Vec<&Tuple> = small.relation_with_value_at(r("S"), 1, e(7)).collect();
        assert_eq!(hits, vec![&vec![e(1), e(7)], &vec![e(2), e(7)]]);
        assert_eq!(small.relation_with_value_at(r("S"), 1, e(9)).count(), 0);
        assert_eq!(small.relation_with_value_at(r("S"), 5, e(7)).count(), 0);
        assert_eq!(small.relation_with_value_at(r("Zzz"), 1, e(7)).count(), 0);

        let mut large = Instance::new();
        for i in 0..40u64 {
            large.insert(r("T"), vec![e(i), e(i % 4), e(100 + i)]);
        }
        for col in 0..3 {
            for probe in [e(0), e(2), e(17), e(105), e(999)] {
                let indexed: Vec<&Tuple> =
                    large.relation_with_value_at(r("T"), col, probe).collect();
                let scanned: Vec<&Tuple> = large
                    .relation(r("T"))
                    .filter(|t| t.get(col) == Some(&probe))
                    .collect();
                assert_eq!(indexed, scanned, "col {col} probe {probe}");
            }
        }
        // a probe past every tuple's width finds nothing (and must not panic)
        assert_eq!(large.relation_with_value_at(r("T"), 3, e(0)).count(), 0);
    }

    #[test]
    fn column_indexes_track_mutation() {
        let mut i = Instance::new();
        for k in 0..20u64 {
            i.insert(r("R"), vec![e(k), e(k % 2)]);
        }
        assert_eq!(i.relation_with_value_at(r("R"), 1, e(0)).count(), 10);
        i.insert(r("R"), vec![e(100), e(0)]);
        assert_eq!(i.relation_with_value_at(r("R"), 1, e(0)).count(), 11);
        i.remove(r("R"), &[e(100), e(0)]);
        assert_eq!(i.relation_with_value_at(r("R"), 1, e(0)).count(), 10);
    }

    #[test]
    fn serde_round_trip_preserves_facts() {
        let i = Instance::from_facts([
            (r("R"), vec![e(1), e(2)]),
            (r("Q"), vec![e(3)]),
            (r("p"), vec![]),
        ]);
        let value = serde::value::to_value(&i).unwrap();
        let back = Instance::deserialize(value).unwrap();
        assert_eq!(back, i);
    }
}
