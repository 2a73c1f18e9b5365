//! The DMS model: schema + initial instance + guarded actions (+ optional constants).

use crate::action::{Action, ActionBuilder};
use crate::config::{BConfig, Config};
use crate::error::CoreError;
use rdms_db::{DataValue, Instance, Schema};
use serde::{Deserialize, Deserializer, Serialize};
use std::collections::BTreeSet;

/// A database-manipulating system `S = ⟨I₀, acts⟩` over a schema `R` and the data domain `∆`.
///
/// The optional set of **constants** `∆₀` realises the extension of Appendix F.1: constants
/// may appear in the initial instance and inside actions; [`crate::transform::constants`]
/// compiles them away, producing the constant-free DMS the core theory is stated for.
///
/// Deserializing validates exactly as [`Dms::new`] does, so a DMS read from JSON is as
/// well-formed as a built one.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Dms {
    schema: Schema,
    initial: Instance,
    actions: Vec<Action>,
    constants: BTreeSet<DataValue>,
}

impl Dms {
    /// Construct and validate a DMS.
    ///
    /// Validation enforces:
    /// * every action validates against the schema,
    /// * action names are unique,
    /// * `adom(I₀) ⊆ ∆₀` (for a constant-free DMS this is the paper's `adom(I₀) = ∅`),
    /// * every constant mentioned inside an action is declared in `∆₀`,
    /// * every declared constant is below [`rdms_cert::RANK_BASE`], so that it cannot
    ///   collide with a relabelled fresh value in a [canonical key](crate::iso::CanonicalKey).
    pub fn new(
        schema: Schema,
        initial: Instance,
        actions: Vec<Action>,
        constants: BTreeSet<DataValue>,
    ) -> Result<Dms, CoreError> {
        if let Some(&c) = constants.range(DataValue(rdms_cert::RANK_BASE)..).next() {
            return Err(CoreError::ConstantInRankRange(c));
        }
        initial.validate(&schema)?;
        for v in initial.active_domain() {
            if !constants.contains(&v) {
                return Err(CoreError::InitialUsesNonConstant(v));
            }
        }
        let mut names = BTreeSet::new();
        for action in &actions {
            action.validate_schema(&schema)?;
            if !names.insert(action.name().to_owned()) {
                return Err(CoreError::DuplicateActionName(action.name().to_owned()));
            }
            for value in action.constants() {
                if !constants.contains(&value) {
                    return Err(CoreError::UndeclaredConstant {
                        action: action.name().to_owned(),
                        value,
                    });
                }
            }
        }
        Ok(Dms {
            schema,
            initial,
            actions,
            constants,
        })
    }

    /// The schema `R`.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The initial instance `I₀`.
    pub fn initial(&self) -> &Instance {
        &self.initial
    }

    /// The actions, in declaration order.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// The action at `index`.
    pub fn action(&self, index: usize) -> Result<&Action, CoreError> {
        self.actions
            .get(index)
            .ok_or(CoreError::NoSuchAction(index))
    }

    /// Look up an action by name.
    pub fn action_by_name(&self, name: &str) -> Option<(usize, &Action)> {
        self.actions
            .iter()
            .enumerate()
            .find(|(_, a)| a.name() == name)
    }

    /// The declared constants `∆₀`.
    pub fn constants(&self) -> &BTreeSet<DataValue> {
        &self.constants
    }

    /// Whether the DMS uses the constants extension.
    pub fn has_constants(&self) -> bool {
        !self.constants.is_empty()
    }

    /// The initial configuration `⟨I₀, ∅⟩` of the unbounded configuration graph.
    pub fn initial_config(&self) -> Config {
        Config::initial(self.initial.clone())
    }

    /// The initial configuration `⟨I₀, ∅, ϵ⟩` of the `b`-bounded configuration graph.
    pub fn initial_bconfig(&self) -> BConfig {
        BConfig::initial(self.initial.clone())
    }

    /// `η = max_{α ∈ acts} |α·new|`: the maximum number of fresh inputs of any action.
    pub fn max_fresh(&self) -> usize {
        self.actions
            .iter()
            .map(Action::num_fresh)
            .max()
            .unwrap_or(0)
    }

    /// Maximum relation arity of the schema.
    pub fn max_arity(&self) -> usize {
        self.schema.max_arity()
    }

    /// Number of actions.
    pub fn num_actions(&self) -> usize {
        self.actions.len()
    }

    /// Whether every guard is a union of conjunctive queries.
    pub fn all_guards_ucq(&self) -> bool {
        self.actions.iter().all(Action::guard_is_ucq)
    }
}

/// The serialized form of a [`Dms`], read before validation.
#[derive(Deserialize)]
struct DmsWire {
    schema: Schema,
    initial: Instance,
    actions: Vec<Action>,
    constants: BTreeSet<DataValue>,
}

impl<'de> Deserialize<'de> for Dms {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let wire = DmsWire::deserialize(deserializer)?;
        Dms::new(wire.schema, wire.initial, wire.actions, wire.constants)
            .map_err(serde::de::Error::custom)
    }
}

/// Fluent builder for a [`Dms`].
#[derive(Clone, Default)]
pub struct DmsBuilder {
    schema: Schema,
    initial: Instance,
    actions: Vec<ActionBuilder>,
    built_actions: Vec<Action>,
    constants: BTreeSet<DataValue>,
}

impl DmsBuilder {
    /// Start with an empty schema and empty initial instance.
    pub fn new() -> DmsBuilder {
        DmsBuilder::default()
    }

    /// Use the given schema.
    pub fn schema(mut self, schema: Schema) -> Self {
        self.schema = schema;
        self
    }

    /// Declare a relation, extending the schema.
    pub fn relation(mut self, name: &str, arity: usize) -> Self {
        self.schema.add_relation(name, arity);
        self
    }

    /// Declare a proposition, extending the schema.
    pub fn proposition(mut self, name: &str) -> Self {
        self.schema.add_proposition(name);
        self
    }

    /// Set a proposition to true in the initial instance.
    pub fn initially_true(mut self, name: &str) -> Self {
        self.initial
            .set_proposition(rdms_db::RelName::new(name), true);
        self
    }

    /// Use the given initial instance (replacing anything set so far).
    pub fn initial(mut self, initial: Instance) -> Self {
        self.initial = initial;
        self
    }

    /// Declare constants `∆₀`.
    pub fn constants<I: IntoIterator<Item = DataValue>>(mut self, constants: I) -> Self {
        self.constants.extend(constants);
        self
    }

    /// Add an action built with an [`ActionBuilder`].
    pub fn action(mut self, builder: ActionBuilder) -> Self {
        self.actions.push(builder);
        self
    }

    /// Add an already-built action.
    pub fn action_built(mut self, action: Action) -> Self {
        self.built_actions.push(action);
        self
    }

    /// Finish and validate.
    pub fn build(self) -> Result<Dms, CoreError> {
        let mut actions = Vec::with_capacity(self.actions.len() + self.built_actions.len());
        for b in self.actions {
            actions.push(b.build()?);
        }
        actions.extend(self.built_actions);
        Dms::new(self.schema, self.initial, actions, self.constants)
    }
}

/// Build the DMS of **Example 3.1** of the paper:
///
/// schema `{p/0, R/1, Q/1}`, initial instance `{p}`, actions `α, β, γ, δ`.
///
/// This system is used pervasively in tests, examples and benchmarks (it is the system whose
/// run is depicted in Figure 1 and whose encoding is depicted in Figure 2).
pub fn example_3_1() -> Dms {
    use rdms_db::{Pattern, Query, RelName, Term, Var};
    let r = |s: &str| RelName::new(s);
    let v = |s: &str| Var::new(s);

    let alpha = ActionBuilder::new("alpha")
        .fresh([v("v1"), v("v2"), v("v3")])
        .guard(Query::True)
        .add(Pattern::from_facts([
            (r("R"), vec![Term::Var(v("v1"))]),
            (r("R"), vec![Term::Var(v("v2"))]),
            (r("Q"), vec![Term::Var(v("v3"))]),
            (r("p"), vec![]),
        ]));

    let beta = ActionBuilder::new("beta")
        .fresh([v("v1"), v("v2")])
        .guard(Query::prop(r("p")).and(Query::atom(r("R"), [v("u")])))
        .del(Pattern::from_facts([
            (r("p"), vec![]),
            (r("R"), vec![Term::Var(v("u"))]),
        ]))
        .add(Pattern::from_facts([
            (r("Q"), vec![Term::Var(v("v1"))]),
            (r("Q"), vec![Term::Var(v("v2"))]),
        ]));

    let gamma = ActionBuilder::new("gamma")
        .guard(Query::prop(r("p")).and(Query::atom(r("Q"), [v("u")]).not()))
        .del(Pattern::from_facts([
            (r("p"), vec![]),
            (r("R"), vec![Term::Var(v("u"))]),
        ]));

    let delta = ActionBuilder::new("delta")
        .guard(
            Query::prop(r("p"))
                .not()
                .and(Query::atom(r("Q"), [v("u1")]))
                .and(Query::atom(r("R"), [v("u2")]).or(Query::atom(r("Q"), [v("u2")]))),
        )
        .del(Pattern::from_facts([
            (r("Q"), vec![Term::Var(v("u1"))]),
            (r("R"), vec![Term::Var(v("u2"))]),
        ]));

    DmsBuilder::new()
        .proposition("p")
        .relation("R", 1)
        .relation("Q", 1)
        .initially_true("p")
        .action(alpha)
        .action(beta)
        .action(gamma)
        .action(delta)
        .build()
        .expect("Example 3.1 is a valid DMS")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdms_db::{Pattern, Query, RelName, Term, Var};

    fn r(name: &str) -> RelName {
        RelName::new(name)
    }
    fn v(name: &str) -> Var {
        Var::new(name)
    }

    #[test]
    fn example_3_1_builds() {
        let dms = example_3_1();
        assert_eq!(dms.num_actions(), 4);
        assert_eq!(dms.max_fresh(), 3);
        assert_eq!(dms.max_arity(), 1);
        assert!(dms.initial().proposition(r("p")));
        assert!(dms.initial().active_domain().is_empty());
        assert!(!dms.has_constants());
        assert!(dms.action_by_name("beta").is_some());
        assert!(dms.action_by_name("zeta").is_none());
        assert!(dms.action(0).is_ok());
        assert!(dms.action(99).is_err());
        // delta's guard contains a negation, so not all guards are UCQ
        assert!(!dms.all_guards_ucq());
    }

    #[test]
    fn initial_adom_must_be_constants() {
        let mut initial = Instance::new();
        initial.insert(r("R"), vec![DataValue::e(5)]);
        let schema = Schema::with_relations(&[("R", 1)]);
        let err = Dms::new(schema.clone(), initial.clone(), vec![], BTreeSet::new()).unwrap_err();
        assert!(matches!(err, CoreError::InitialUsesNonConstant(_)));

        // declaring e5 as a constant makes it legal
        let dms = Dms::new(schema, initial, vec![], BTreeSet::from([DataValue::e(5)])).unwrap();
        assert!(dms.has_constants());
    }

    #[test]
    fn duplicate_action_names_rejected() {
        let mk = || {
            ActionBuilder::new("a")
                .guard(Query::True)
                .add(Pattern::proposition(r("p")))
                .build()
                .unwrap()
        };
        let schema = Schema::with_relations(&[("p", 0)]);
        let err = Dms::new(schema, Instance::new(), vec![mk(), mk()], BTreeSet::new()).unwrap_err();
        assert!(matches!(err, CoreError::DuplicateActionName(_)));
    }

    #[test]
    fn action_constants_must_be_declared() {
        let schema = Schema::with_relations(&[("R", 1)]);
        let action = ActionBuilder::new("c")
            .guard(Query::eq(v("u"), DataValue::e(3)).and(Query::atom(r("R"), [v("u")])))
            .build()
            .unwrap();
        let err = Dms::new(
            schema.clone(),
            Instance::new(),
            vec![action.clone()],
            BTreeSet::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::UndeclaredConstant { .. }));

        let ok = Dms::new(
            schema,
            Instance::new(),
            vec![action],
            BTreeSet::from([DataValue::e(3)]),
        );
        assert!(ok.is_ok());
    }

    /// `R/1` with `I₀ = {R(c)}` for the declared constant `c`, and an action `add` that
    /// adds `R(v)` for a fresh `v`.
    fn one_constant_dms(c: u64) -> Result<Dms, CoreError> {
        DmsBuilder::new()
            .relation("R", 1)
            .constants([DataValue(c)])
            .initial(Instance::from_facts([(r("R"), vec![DataValue(c)])]))
            .action(
                ActionBuilder::new("add")
                    .fresh([v("v")])
                    .guard(Query::True)
                    .add(Pattern::from_facts([(r("R"), vec![Term::Var(v("v"))])])),
            )
            .build()
    }

    #[test]
    fn constants_must_be_below_the_rank_base() {
        let base = rdms_cert::RANK_BASE;
        assert_eq!(base, u64::MAX / 2);
        for c in [base, u64::MAX] {
            let err = one_constant_dms(c).unwrap_err();
            assert!(
                matches!(err, CoreError::ConstantInRankRange(DataValue(v)) if v == c),
                "{err}"
            );
        }
        assert!(one_constant_dms(base - 1).is_ok());
    }

    /// The JSON of [`one_constant_dms`], with `constants` declared, `initial` the value in
    /// `I₀` and `fresh` the action's fresh variable.
    fn dms_json(constants: &[u64], initial: u64, fresh: &str) -> String {
        format!(
            r#"{{"schema":{{"arities":{{"R":1}}}},"initial":{{"relations":{{"R":[[{initial}]]}}}},
            "actions":[{{"name":"add","params":[],"fresh":["{fresh}"],"guard":"True",
            "del":{{"facts":{{}}}},"add":{{"facts":{{"R":[[{{"Var":"v"}}]]}}}}}}],
            "constants":{constants:?}}}"#
        )
    }

    #[test]
    fn deserializing_validates_like_the_constructor() {
        let valid = one_constant_dms(7).unwrap();
        let json = serde_json::to_string(&valid).unwrap();
        assert_eq!(serde_json::from_str::<Dms>(&json).unwrap(), valid);
        assert_eq!(
            serde_json::from_str::<Dms>(&dms_json(&[7], 7, "v")).unwrap(),
            valid
        );

        let base = rdms_cert::RANK_BASE;
        for (bad, why) in [
            (dms_json(&[], 7, "v"), "not a declared constant"),
            (dms_json(&[base], base, "v"), "canonical states"),
            (
                dms_json(&[7], 7, "w"),
                "neither a parameter nor a fresh input",
            ),
        ] {
            let err = serde_json::from_str::<Dms>(&bad).unwrap_err().to_string();
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn schema_mismatch_in_action_is_rejected() {
        let schema = Schema::with_relations(&[("R", 2)]);
        let action = ActionBuilder::new("bad")
            .guard(Query::atom(r("R"), [v("u")]))
            .build()
            .unwrap();
        let err = Dms::new(schema, Instance::new(), vec![action], BTreeSet::new()).unwrap_err();
        assert!(matches!(err, CoreError::Db(_)));
    }

    #[test]
    fn builder_accumulates_schema_and_actions() {
        let dms = DmsBuilder::new()
            .proposition("start")
            .relation("Item", 1)
            .initially_true("start")
            .action(
                ActionBuilder::new("load")
                    .fresh([v("x")])
                    .guard(Query::prop(r("start")))
                    .add(Pattern::from_facts([(r("Item"), vec![Term::Var(v("x"))])])),
            )
            .action_built(
                ActionBuilder::new("drop")
                    .guard(Query::atom(r("Item"), [v("u")]))
                    .del(Pattern::from_facts([(r("Item"), vec![Term::Var(v("u"))])]))
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap();
        assert_eq!(dms.num_actions(), 2);
        assert_eq!(dms.schema().len(), 2);
        assert!(dms.all_guards_ucq());
    }
}
