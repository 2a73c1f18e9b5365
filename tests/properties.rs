//! Property-based tests (proptest) over the core invariants of the framework:
//! instance algebra, abstraction/concretisation round trips, encoding validity, VPA
//! operations against membership oracles, and query evaluation consistency.

use proptest::prelude::*;
use rdms::checker::RunEncoder;
use rdms::core::symbolic;
use rdms::core::RecencySemantics;
use rdms::db::{answers, eval, DataValue, Instance, Query, RelName, Substitution, Var};
use rdms::nested::{Alphabet, LetterKind, NestedWord, Vpa};
use rdms::workloads::random::{random_dms, random_run, RandomDmsConfig};
use std::sync::Arc;

fn r(name: &str) -> RelName {
    RelName::new(name)
}

// -----------------------------------------------------------------------------------------
// instance algebra
// -----------------------------------------------------------------------------------------

fn arb_instance(max_values: u64) -> impl Strategy<Value = Instance> {
    proptest::collection::vec((0u8..3, 1..=max_values, 1..=max_values), 0..12).prop_map(|facts| {
        let mut instance = Instance::new();
        for (rel, a, b) in facts {
            match rel {
                0 => instance.insert(r("P"), vec![DataValue(a)]),
                1 => instance.insert(r("Q"), vec![DataValue(a)]),
                _ => instance.insert(r("S"), vec![DataValue(a), DataValue(b)]),
            };
        }
        instance
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `+` and `−` behave like relation-wise union and difference (Section 2).
    #[test]
    fn instance_algebra_laws(a in arb_instance(6), b in arb_instance(6)) {
        let union = a.union(&b);
        // union contains both operands
        for (rel, tuple) in a.facts().chain(b.facts()) {
            prop_assert!(union.contains(rel, tuple));
        }
        // difference removes exactly the facts of b
        let diff = a.difference(&b);
        for (rel, tuple) in a.facts() {
            prop_assert_eq!(diff.contains(rel, tuple), !b.contains(rel, tuple));
        }
        // (a − b) + b ⊇ a
        let back = diff.union(&b);
        for (rel, tuple) in a.facts() {
            prop_assert!(back.contains(rel, tuple));
        }
        // the active domain of the union is the union of active domains
        let adom: std::collections::BTreeSet<_> =
            a.active_domain().union(&b.active_domain()).copied().collect();
        prop_assert_eq!(union.active_domain(), adom);
    }

    /// `Active(u)` characterises the active domain (Example 2.1) and answer enumeration
    /// agrees with per-substitution evaluation.
    #[test]
    fn active_query_and_answers_agree(instance in arb_instance(6)) {
        let schema = rdms::db::Schema::with_relations(&[("P", 1), ("Q", 1), ("S", 2)]);
        let u = Var::new("u");
        let active = rdms::db::query::active_query(&schema, u);
        let ans = answers(&instance, &active).unwrap();
        let values: std::collections::BTreeSet<_> = ans.iter().map(|s| s.get(u).unwrap()).collect();
        prop_assert_eq!(values, instance.active_domain());

        // spot-check `answers` against `holds` on a joined query
        let q = Query::atom(r("P"), [u]).and(Query::atom(r("Q"), [u]).not());
        let ans: std::collections::BTreeSet<_> = answers(&instance, &q).unwrap().into_iter().collect();
        for value in instance.active_domain() {
            let sub = Substitution::from_pairs([(u, value)]);
            prop_assert_eq!(ans.contains(&sub), eval::holds(&instance, &sub, &q).unwrap());
        }
    }
}

// -----------------------------------------------------------------------------------------
// the sorted-row answer representation against the set-of-substitutions model
// -----------------------------------------------------------------------------------------

/// Build a random FOL(R) query from a vector of opcodes with a small stack machine. The
/// queries mix atoms (with repeated variables and constants), equalities, negation,
/// conjunction, disjunction and both quantifiers over three variables.
fn build_query(ops: &[(u8, u8, u64)]) -> Query {
    let vars = [Var::new("u"), Var::new("w"), Var::new("z")];
    let mut stack: Vec<Query> = Vec::new();
    for &(op, sel, val) in ops {
        let var = vars[sel as usize % vars.len()];
        let other = vars[(sel as usize + 1) % vars.len()];
        match op % 10 {
            0 => stack.push(Query::atom(r("P"), [var])),
            1 => stack.push(Query::atom(r("Q"), [var])),
            2 => stack.push(Query::atom(r("S"), [var, other])),
            // an atom with a constant column, and one with a repeated variable
            3 => stack.push(Query::atom(
                r("S"),
                [
                    rdms::db::Term::Value(DataValue(val)),
                    rdms::db::Term::Var(var),
                ],
            )),
            4 => stack.push(Query::atom(r("S"), [var, var])),
            5 => stack.push(Query::eq(var, DataValue(val))),
            6 => {
                if let Some(q) = stack.pop() {
                    stack.push(q.not());
                }
            }
            7 => {
                if let (Some(b), Some(a)) = (stack.pop(), stack.pop()) {
                    stack.push(if val % 2 == 0 { a.and(b) } else { a.or(b) });
                }
            }
            8 => {
                if let Some(q) = stack.pop() {
                    stack.push(Query::exists(var, q));
                }
            }
            _ => {
                if let Some(q) = stack.pop() {
                    stack.push(Query::forall(var, q));
                }
            }
        }
    }
    stack.into_iter().reduce(Query::and).unwrap_or(Query::True)
}

/// The previous answer-enumeration model: a `BTreeSet<Substitution>` per query node, with
/// substitution-level join/cylindrification/complement. The row-based evaluator in
/// `rdms-db` must reproduce its results **exactly, including the answer order** (the
/// explorer's legacy successor order depends on it).
mod substitution_model {
    use super::*;
    use rdms::db::Term;
    use std::collections::BTreeSet;

    pub fn answers(instance: &Instance, query: &Query) -> Vec<Substitution> {
        let adom = instance.active_domain();
        let mut universe = adom.clone();
        universe.extend(query.constants());
        let rows = eval_set(instance, &universe, query);
        let free: Vec<Var> = query.free_vars().into_iter().collect();
        rows.into_iter()
            .map(|s| s.restrict(free.iter()))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()
    }

    fn eval_set(
        instance: &Instance,
        universe: &BTreeSet<DataValue>,
        query: &Query,
    ) -> BTreeSet<Substitution> {
        match query {
            Query::True => BTreeSet::from([Substitution::empty()]),
            Query::Atom(rel, terms) => {
                let mut rows = BTreeSet::new();
                for tuple in instance.relation(*rel) {
                    if let Some(sub) = unify(terms, tuple) {
                        rows.insert(sub);
                    }
                }
                rows
            }
            Query::Eq(a, b) => {
                let mut rows = BTreeSet::new();
                match (a, b) {
                    (Term::Value(x), Term::Value(y)) => {
                        if x == y {
                            rows.insert(Substitution::empty());
                        }
                    }
                    (Term::Var(v), Term::Value(c)) | (Term::Value(c), Term::Var(v)) => {
                        rows.insert(Substitution::from_pairs([(*v, *c)]));
                    }
                    (Term::Var(v), Term::Var(w)) => {
                        for &e in universe {
                            rows.insert(Substitution::from_pairs([(*v, e), (*w, e)]));
                        }
                    }
                }
                rows
            }
            Query::And(a, b) => {
                let left = eval_set(instance, universe, a);
                let right = eval_set(instance, universe, b);
                let mut rows = BTreeSet::new();
                for l in &left {
                    for r in &right {
                        if l.compatible(r) {
                            rows.insert(l.merged(r));
                        }
                    }
                }
                rows
            }
            Query::Or(a, b) => {
                let free: BTreeSet<Var> = query.free_vars();
                let left = cylindrify(
                    eval_set(instance, universe, a),
                    &a.free_vars(),
                    &free,
                    universe,
                );
                let right = cylindrify(
                    eval_set(instance, universe, b),
                    &b.free_vars(),
                    &free,
                    universe,
                );
                left.union(&right).cloned().collect()
            }
            Query::Not(q) => {
                let free: Vec<Var> = q.free_vars().into_iter().collect();
                let positive = eval_set(instance, universe, q);
                enumerate(universe, &free)
                    .into_iter()
                    .filter(|cand| !positive.contains(cand))
                    .collect()
            }
            Query::Exists(v, q) => {
                if !q.free_vars().contains(v) && universe.is_empty() {
                    return BTreeSet::new();
                }
                let keep: Vec<Var> = q.free_vars().into_iter().filter(|x| x != v).collect();
                eval_set(instance, universe, q)
                    .into_iter()
                    .map(|s| s.restrict(keep.iter()))
                    .collect()
            }
            Query::Forall(v, q) => {
                if !q.free_vars().contains(v) {
                    if universe.is_empty() {
                        return enumerate(universe, &q.free_vars().into_iter().collect::<Vec<_>>())
                            .into_iter()
                            .collect();
                    }
                    return eval_set(instance, universe, q);
                }
                let inner = eval_set(instance, universe, q);
                let outer: Vec<Var> = q.free_vars().into_iter().filter(|x| x != v).collect();
                enumerate(universe, &outer)
                    .into_iter()
                    .filter(|cand| {
                        universe
                            .iter()
                            .all(|&e| inner.contains(&cand.extended(*v, e)))
                    })
                    .collect()
            }
        }
    }

    fn unify(terms: &[Term], tuple: &[DataValue]) -> Option<Substitution> {
        if terms.len() != tuple.len() {
            return None;
        }
        let mut sub = Substitution::empty();
        for (term, &value) in terms.iter().zip(tuple.iter()) {
            match term {
                Term::Value(c) => {
                    if *c != value {
                        return None;
                    }
                }
                Term::Var(v) => match sub.get(*v) {
                    Some(prev) if prev != value => return None,
                    _ => {
                        sub.bind(*v, value);
                    }
                },
            }
        }
        Some(sub)
    }

    fn cylindrify(
        rows: BTreeSet<Substitution>,
        from: &BTreeSet<Var>,
        to: &BTreeSet<Var>,
        universe: &BTreeSet<DataValue>,
    ) -> BTreeSet<Substitution> {
        let missing: Vec<Var> = to.difference(from).copied().collect();
        if missing.is_empty() {
            return rows;
        }
        let mut out = BTreeSet::new();
        for row in rows {
            for extension in enumerate(universe, &missing) {
                out.insert(row.merged(&extension));
            }
        }
        out
    }

    fn enumerate(universe: &BTreeSet<DataValue>, vars: &[Var]) -> Vec<Substitution> {
        let mut result = vec![Substitution::empty()];
        for &v in vars {
            let mut next = Vec::with_capacity(result.len() * universe.len().max(1));
            for base in &result {
                for &e in universe {
                    next.push(base.extended(v, e));
                }
            }
            result = next;
        }
        result
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sorted-row evaluator reproduces the set-of-substitutions model **exactly,
    /// including the answer order**, on random queries over random instances.
    #[test]
    fn row_answers_match_the_substitution_model(
        instance in arb_instance(5),
        ops in proptest::collection::vec((0u8..10, 0u8..3, 1u64..6), 1..10)
    ) {
        let query = build_query(&ops);
        let fast = answers(&instance, &query).unwrap();
        let model = substitution_model::answers(&instance, &query);
        prop_assert_eq!(&fast, &model, "query {} on {}", query, instance);

        // and both agree with per-substitution evaluation on every answer
        for sub in &fast {
            prop_assert!(eval::holds(&instance, sub, &query).unwrap(), "answer {:?} of {}", sub, query);
        }
    }
}

// -----------------------------------------------------------------------------------------
// the copy-on-write representation against plain value semantics
// -----------------------------------------------------------------------------------------

type Model = std::collections::BTreeMap<RelName, std::collections::BTreeSet<Vec<DataValue>>>;

/// Assert that a COW instance holds exactly the model's facts, in the model's order, and
/// that it is `Eq`/`Ord`/`Hash`-identical to an instance rebuilt from scratch (no sharing).
fn assert_matches_model(instance: &Instance, model: &Model) {
    let instance_facts: Vec<(RelName, Vec<DataValue>)> = instance
        .facts()
        .map(|(rel, tuple)| (rel, tuple.clone()))
        .collect();
    let model_facts: Vec<(RelName, Vec<DataValue>)> = model
        .iter()
        .flat_map(|(&rel, tuples)| tuples.iter().map(move |t| (rel, t.clone())))
        .collect();
    assert_eq!(instance_facts, model_facts, "fact sets or orders diverge");

    let rebuilt = Instance::from_facts(model_facts);
    assert_eq!(instance, &rebuilt);
    assert_eq!(
        instance.cmp(&rebuilt),
        std::cmp::Ordering::Equal,
        "Ord must ignore sharing"
    );
    use std::hash::{Hash, Hasher};
    let hash_of = |i: &Instance| {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        i.hash(&mut h);
        h.finish()
    };
    assert_eq!(
        hash_of(instance),
        hash_of(&rebuilt),
        "Hash must ignore sharing"
    );
    assert_eq!(instance.len(), rebuilt.len());
    assert_eq!(instance.active_domain(), rebuilt.active_domain());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings of inserts, removals, unions, differences and clones leave the
    /// COW instance observably identical to a plain `BTreeMap<RelName, BTreeSet<Tuple>>`,
    /// including on snapshots taken mid-sequence (which keep sharing storage with an
    /// instance that is mutated afterwards).
    #[test]
    fn cow_instance_matches_value_semantics(
        ops in proptest::collection::vec((0u8..6, 0u8..3, 1u64..6, 1u64..6), 0..48)
    ) {
        let rels = [r("P"), r("Q"), r("S")];
        let mut instance = Instance::new();
        let mut model = Model::new();
        let mut snapshots: Vec<(Instance, Model)> = Vec::new();
        for (op, rel_index, a, b) in ops {
            let rel = rels[rel_index as usize];
            let tuple = if rel_index == 2 {
                vec![DataValue(a), DataValue(b)]
            } else {
                vec![DataValue(a)]
            };
            // warm the lazy caches before every operation, so a mutation that failed to
            // invalidate them would surface in the model comparisons below
            let _ = instance.relation_with_first(rel, DataValue(a)).count();
            let _ = instance.column_values(rel, 0);
            match op {
                0 | 1 => {
                    let fresh_cow = instance.insert(rel, tuple.clone());
                    let fresh_model = model.entry(rel).or_default().insert(tuple);
                    prop_assert_eq!(fresh_cow, fresh_model);
                }
                2 => {
                    let removed_cow = instance.remove(rel, &tuple);
                    let removed_model = model.get_mut(&rel).is_some_and(|s| s.remove(&tuple));
                    if model.get(&rel).is_some_and(|s| s.is_empty()) {
                        model.remove(&rel);
                    }
                    prop_assert_eq!(removed_cow, removed_model);
                }
                3 => {
                    let other = Instance::from_facts([(rel, tuple.clone())]);
                    instance = instance.union(&other);
                    model.entry(rel).or_default().insert(tuple);
                }
                4 => {
                    let other = Instance::from_facts([(rel, tuple.clone())]);
                    instance = instance.difference(&other);
                    if let Some(s) = model.get_mut(&rel) {
                        s.remove(&tuple);
                        if s.is_empty() {
                            model.remove(&rel);
                        }
                    }
                }
                _ => snapshots.push((instance.clone(), model.clone())),
            }
        }
        assert_matches_model(&instance, &model);
        // snapshots share storage with the mutated instance; value semantics must hold anyway
        for (snapshot, model_at_snapshot) in &snapshots {
            assert_matches_model(snapshot, model_at_snapshot);
        }
    }

    /// The flat canonical key decodes to the from-scratch relabelling of each configuration
    /// of random b-bounded runs, and over every pair of those configurations its order is
    /// the decoded instances' order, its equality theirs, and equal keys hash equal.
    #[test]
    fn flat_canonical_keys_match_scratch(seed in 0u64..2_000, b in 1usize..4, steps in 0usize..7) {
        use rdms::core::cert::RANK_BASE;
        use rdms::core::iso::canonical_config_key;
        use std::hash::{DefaultHasher, Hash, Hasher};
        let dms = random_dms(&RandomDmsConfig { seed: seed % 13, ..Default::default() });
        let run = random_run(&dms, b, steps, seed);
        let constants = dms.constants();
        let mut keys = Vec::new();
        for config in run.configs() {
            let key = canonical_config_key(config, constants);
            // the from-scratch reference: the same rank mapping through `map_values`
            let mut mapping = std::collections::BTreeMap::new();
            for (rank, value) in config
                .adom_by_recency()
                .into_iter()
                .filter(|v| !constants.contains(v))
                .enumerate()
            {
                mapping.insert(value, DataValue(RANK_BASE + rank as u64));
            }
            let scratch = config.instance().map_values(|v| mapping.get(&v).copied().unwrap_or(v));
            prop_assert_eq!(key.to_instance(), scratch, "flat key diverges from scratch canonicalisation");
            prop_assert_eq!(&canonical_config_key(config, constants), &key, "recomputation diverges");
            keys.push(key);
        }
        let hash = |key: &rdms::core::CanonicalKey| {
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            h.finish()
        };
        for a in &keys {
            for b in &keys {
                let (left, right) = (a.to_instance(), b.to_instance());
                prop_assert_eq!(a.cmp(b), left.cmp(&right));
                prop_assert_eq!(a == b, left == right);
                if a == b {
                    prop_assert_eq!(hash(a), hash(b));
                }
            }
        }
    }
}

// -----------------------------------------------------------------------------------------
// the persistent history / sequence numbering against plain value semantics
// -----------------------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of inserts and clones leave the persistent `History`
    /// observably identical to a plain `BTreeSet<DataValue>`, including on snapshots taken
    /// mid-sequence (which keep sharing tree structure with a history that grows
    /// afterwards), and `Eq`/`Ord`/`Hash` ignore the tree shape.
    #[test]
    fn persistent_history_matches_btreeset_semantics(
        ops in proptest::collection::vec((0u8..4, 1u64..48), 0..64)
    ) {
        use rdms::core::History;
        use serde::Deserialize;
        use std::collections::BTreeSet;

        let mut history = History::new();
        let mut model: BTreeSet<DataValue> = BTreeSet::new();
        let mut snapshots: Vec<(History, BTreeSet<DataValue>)> = Vec::new();
        for (op, raw) in ops {
            let value = DataValue(raw);
            match op {
                0 | 1 => {
                    prop_assert_eq!(history.insert(value), model.insert(value));
                }
                2 => {
                    prop_assert_eq!(history.contains(&value), model.contains(&value));
                    prop_assert_eq!(history.max_value(), model.last().copied());
                }
                _ => snapshots.push((history.clone(), model.clone())),
            }
        }
        snapshots.push((history, model));
        for (history, model) in &snapshots {
            prop_assert_eq!(history.len(), model.len());
            prop_assert!(history.iter().eq(model.iter().copied()), "iteration order diverges");
            prop_assert_eq!(history.max_value(), model.last().copied());
            prop_assert!(history == model, "History/BTreeSet equality bridge");

            // a history rebuilt from scratch (different tree shape) is Eq/Ord/Hash-equal
            let rebuilt: History = model.iter().copied().collect();
            prop_assert!(history == &rebuilt);
            prop_assert_eq!(history.cmp(&rebuilt), std::cmp::Ordering::Equal);
            use std::hash::{Hash, Hasher};
            let hash_of = |h: &History| {
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                h.hash(&mut hasher);
                hasher.finish()
            };
            prop_assert_eq!(hash_of(history), hash_of(&rebuilt), "Hash must ignore tree shape");

            // the serde wire format is exactly the BTreeSet one
            let via_history = serde::value::to_value(history).unwrap();
            let via_set = serde::value::to_value(model).unwrap();
            prop_assert_eq!(&via_history, &via_set, "wire format diverges from BTreeSet");
            prop_assert!(&History::deserialize(via_history).unwrap() == history);
        }
        // pairwise ordering agrees with the model ordering
        for (ha, ma) in &snapshots {
            for (hb, mb) in &snapshots {
                prop_assert_eq!(ha.cmp(hb), ma.cmp(mb), "Ord diverges from BTreeSet");
            }
        }
    }

    /// Random assignment sequences leave the persistent `SeqNo` observably identical to a
    /// plain `BTreeMap<DataValue, u64>` (lookups, iteration, max tracking, ordering), with
    /// snapshots sharing structure across later assignments.
    #[test]
    fn persistent_seqno_matches_btreemap_semantics(
        ops in proptest::collection::vec((0u8..4, 1u64..32), 0..48)
    ) {
        use rdms::core::SeqNo;
        use serde::Deserialize;
        use std::collections::BTreeMap;

        let mut seq = SeqNo::empty();
        let mut model: BTreeMap<DataValue, u64> = BTreeMap::new();
        let mut snapshots: Vec<(SeqNo, BTreeMap<DataValue, u64>)> = Vec::new();
        for (op, raw) in ops {
            let value = DataValue(raw);
            match op {
                0 | 1 => {
                    // fresh assignment through the hot-path API
                    match model.entry(value) {
                        std::collections::btree_map::Entry::Vacant(slot) => {
                            let used = seq.assign_fresh([value]);
                            prop_assert_eq!(used.len(), 1);
                            slot.insert(used[0]);
                        }
                        std::collections::btree_map::Entry::Occupied(slot) => {
                            // re-assigning the same number is the documented no-op
                            seq.assign(value, *slot.get());
                        }
                    }
                }
                2 => {
                    prop_assert_eq!(seq.get(value), model.get(&value).copied());
                    prop_assert_eq!(seq.contains(value), model.contains_key(&value));
                    prop_assert_eq!(seq.max_seq(), model.values().copied().max());
                }
                _ => snapshots.push((seq.clone(), model.clone())),
            }
        }
        snapshots.push((seq, model));
        for (seq, model) in &snapshots {
            prop_assert_eq!(seq.len(), model.len());
            prop_assert!(seq.iter().eq(model.iter().map(|(&v, &n)| (v, n))), "iteration diverges");
            prop_assert_eq!(seq.max_seq(), model.values().copied().max(), "tracked max diverges");
            // serde round trip restores contents and the tracked max
            let value = serde::value::to_value(seq).unwrap();
            let back = SeqNo::deserialize(value).unwrap();
            prop_assert!(&back == seq);
            prop_assert_eq!(back.max_seq(), seq.max_seq());
        }
        for (sa, ma) in &snapshots {
            for (sb, mb) in &snapshots {
                prop_assert_eq!(
                    sa.cmp(sb),
                    ma.iter().cmp(mb.iter()),
                    "Ord diverges from BTreeMap"
                );
            }
        }
    }

    /// After arbitrary successor chains, every configuration's cached recency ranks equal a
    /// from-scratch stable sort of the active domain by descending sequence number — and
    /// `recency_index`/`value_at_recency`/`recent_b` are consistent with that order.
    #[test]
    fn cached_recency_ranks_match_scratch_sort(seed in 0u64..2_000, b in 1usize..4, steps in 0usize..7) {
        let dms = random_dms(&RandomDmsConfig { seed: seed % 13, ..Default::default() });
        let run = random_run(&dms, b, steps, seed);
        for config in run.configs() {
            // from-scratch reference: ascending adom, stably sorted by descending seq_no
            // (unnumbered values — declared constants — last, among themselves ascending)
            let mut scratch: Vec<DataValue> =
                config.instance().active_domain().into_iter().collect();
            scratch.sort_by_key(|&v| {
                std::cmp::Reverse(config.seq_no().get(v).map(|n| n as i64).unwrap_or(-1))
            });
            prop_assert_eq!(&config.adom_by_recency(), &scratch, "cached ranks diverge");
            // a clone shares the cache; re-reading must be stable
            let clone = config.clone();
            prop_assert_eq!(&clone.adom_by_recency(), &scratch);

            for (position, &value) in scratch.iter().enumerate() {
                prop_assert_eq!(clone.value_at_recency(position), Some(value));
                let expected_index = scratch
                    .iter()
                    .filter(|&&other| {
                        config.seq_no().get(other).map(|n| n as i64).unwrap_or(-1)
                            > config.seq_no().get(value).map(|n| n as i64).unwrap_or(-1)
                    })
                    .count();
                prop_assert_eq!(config.recency_index(value), Some(expected_index));
            }
            let window = rdms::core::recent_b(config, b);
            let expected: std::collections::BTreeSet<DataValue> =
                scratch.iter().copied().take(b).collect();
            prop_assert_eq!(window, expected, "Recent_b diverges from the rank prefix");
        }
    }
}

// -----------------------------------------------------------------------------------------
// runs, abstraction and encodings on randomly generated DMSs
// -----------------------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random b-bounded runs abstract and concretise consistently, and their nested-word
    /// encodings are valid and decode to isomorphic runs (Lemma E.1 + Section 6.3).
    #[test]
    fn abstraction_and_encoding_round_trip(seed in 0u64..500, b in 2usize..4, steps in 0usize..7) {
        let dms = random_dms(&RandomDmsConfig { seed: seed % 7, ..Default::default() });
        let run = random_run(&dms, b, steps, seed);
        prop_assert!(RecencySemantics::new(&dms, b).is_b_bounded(&run));

        // Abstr / Concr
        let word = symbolic::abstraction(&dms, &run).expect("run is b-bounded");
        let canonical = symbolic::concretize(&dms, b, &word).unwrap().expect("valid abstraction");
        prop_assert_eq!(symbolic::abstraction(&dms, &canonical).unwrap(), word);
        prop_assert!(rdms::core::iso::runs_isomorphic(&canonical, &run));

        // nested-word encoding
        let encoder = RunEncoder::new(&dms, b);
        let encoded = encoder.encode(&run).expect("encodable");
        prop_assert!(encoded.check_nesting_laws());
        let decoded = encoder.decode(&encoded).expect("valid encoding");
        prop_assert!(rdms::core::iso::runs_isomorphic(&decoded, &run));

        // Remark 6.1: pending pushes before the last block equal |adom| before it
        if !run.is_empty() {
            let last_head = (0..encoded.len()).rfind(|&p| encoder.alphabet().symbolic(encoded.letter(p)).is_some())
                .unwrap();
            prop_assert_eq!(
                encoded.pending_calls_in_prefix(last_head).len(),
                run.configs()[run.len() - 1].instance().active_domain().len()
            );
        }
    }
}

// -----------------------------------------------------------------------------------------
// VPA operations against membership oracles
// -----------------------------------------------------------------------------------------

fn small_alphabet() -> Arc<Alphabet> {
    let mut a = Alphabet::new();
    a.call("<");
    a.ret(">");
    a.internal("x");
    a.internal("y");
    a.into_arc()
}

fn arb_word(alphabet: Arc<Alphabet>) -> impl Strategy<Value = NestedWord> {
    proptest::collection::vec(0u32..4, 0..10).prop_map(move |ids| {
        NestedWord::new(
            alphabet.clone(),
            ids.into_iter().map(rdms::nested::LetterId).collect(),
        )
    })
}

/// An automaton accepting words that contain the internal letter `x` at nesting depth ≥ 1
/// (inside at least one pending-or-matched call).
fn x_under_call(alphabet: Arc<Alphabet>) -> Vpa {
    let lt = alphabet.lookup("<").unwrap();
    let x = alphabet.lookup("x").unwrap();
    let mut vpa = Vpa::new(alphabet, 3, 1);
    vpa.set_initial(0);
    vpa.set_final(2);
    vpa.add_all_letter_loops(0, 0);
    vpa.add_all_letter_loops(2, 0);
    vpa.add_call(0, lt, 1, 0);
    vpa.add_all_letter_loops(1, 0);
    vpa.add_internal(1, x, 2);
    vpa
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Determinization, complementation, union and intersection agree with the
    /// nondeterministic membership oracle on random words.
    #[test]
    fn vpa_operations_respect_membership(word in arb_word(small_alphabet())) {
        let alphabet = word.alphabet().clone();
        let a = x_under_call(alphabet.clone());
        let b = Vpa::universal(alphabet.clone());

        let det = rdms::nested::vpa::determinize::determinize(&a);
        prop_assert_eq!(det.accepts(&word), a.accepts(&word));

        let comp = rdms::nested::vpa::determinize::complement(&a);
        prop_assert_eq!(comp.accepts(&word), !a.accepts(&word));

        let inter = rdms::nested::vpa::ops::intersect(&a, &b);
        prop_assert_eq!(inter.accepts(&word), a.accepts(&word));

        let uni = rdms::nested::vpa::ops::union(&a, &comp);
        prop_assert!(uni.accepts(&word));

        let trimmed = rdms::nested::vpa::ops::trim(&a);
        prop_assert_eq!(trimmed.accepts(&word), a.accepts(&word));
    }

    /// Nesting laws hold for every word (the relation is computed by construction) and
    /// prefixes preserve them.
    #[test]
    fn nesting_laws_hold(word in arb_word(small_alphabet()), cut in 0usize..10) {
        prop_assert!(word.check_nesting_laws());
        prop_assert!(word.prefix(cut).check_nesting_laws());
        // matched pairs are call/return and ordered
        for (i, j) in word.nesting_edges() {
            prop_assert!(i < j);
            prop_assert_eq!(word.kind(i), LetterKind::Call);
            prop_assert_eq!(word.kind(j), LetterKind::Return);
        }
    }
}

// -----------------------------------------------------------------------------------------
// MSO_NW compilation against direct evaluation
// -----------------------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The compiled VPA of a fixed small sentence agrees with direct evaluation on random
    /// words (the per-formula constructions are covered by unit tests; this checks the
    /// pipeline end to end on arbitrary inputs).
    #[test]
    fn mso_compilation_agrees_with_direct_evaluation(word in arb_word(small_alphabet())) {
        use rdms::nested::mso::{MsoNw, PosVar};
        let alphabet = word.alphabet().clone();
        let x_letter = alphabet.lookup("x").unwrap();
        let c = PosVar(0);
        let ret = PosVar(1);
        let p = PosVar(2);
        // "some matched call contains an x strictly inside"
        let phi = MsoNw::exists_pos(
            c,
            MsoNw::exists_pos(
                ret,
                MsoNw::exists_pos(
                    p,
                    MsoNw::matched(c, ret)
                        .and(MsoNw::less(c, p))
                        .and(MsoNw::less(p, ret))
                        .and(MsoNw::letter(x_letter, p)),
                ),
            ),
        );
        let compiled = rdms::nested::compile(&phi, &alphabet);
        prop_assert_eq!(
            compiled.check(&word, &rdms::nested::eval::Assignment::new()),
            rdms::nested::eval::eval_sentence(&word, &phi)
        );
    }
}
