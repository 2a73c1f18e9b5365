//! Guarded DMS actions (Section 3 of the paper).

use crate::error::CoreError;
use rdms_db::{Pattern, Query, Schema, Sym, Var};
use serde::{Deserialize, Deserializer, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A guarded action `α = ⟨⃗u, ⃗v, Q, Del, Add⟩`:
///
/// * `params` — the action parameters `⃗u` (exactly the free variables of the guard),
/// * `fresh` — the fresh-input variables `⃗v` (ordered; the order fixes the relative sequence
///   numbers assigned to the injected values, cf. item 4 of the `b`-bounded semantics),
/// * `guard` — a FOL(R) query over the current database,
/// * `del` — a database instance over `⃗u` (tuples to remove),
/// * `add` — a database instance over `⃗u ⊎ ⃗v` (tuples to insert), with `⃗v ⊆ adom(add)`.
///
/// Deserializing validates exactly as [`Action::new`] does.
#[derive(Clone, PartialEq, Eq, Serialize)]
pub struct Action {
    name: Sym,
    params: Vec<Var>,
    fresh: Vec<Var>,
    guard: Query,
    del: Pattern,
    add: Pattern,
}

/// The serialized form of an [`Action`], read before validation.
#[derive(Deserialize)]
struct ActionWire {
    name: String,
    params: Vec<Var>,
    fresh: Vec<Var>,
    guard: Query,
    del: Pattern,
    add: Pattern,
}

impl<'de> Deserialize<'de> for Action {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let w = ActionWire::deserialize(deserializer)?;
        Action::new(&w.name, w.params, w.fresh, w.guard, w.del, w.add)
            .map_err(serde::de::Error::custom)
    }
}

impl Action {
    /// Construct and validate an action.
    ///
    /// Validation enforces the side conditions of the paper's definition:
    /// `⃗u ∩ ⃗v = ∅`, `Free-Vars(Q) = ⃗u`, `vars(Del) ⊆ ⃗u`, `vars(Add) ⊆ ⃗u ⊎ ⃗v` and
    /// `⃗v ⊆ adom(Add)`.
    pub fn new(
        name: &str,
        params: Vec<Var>,
        fresh: Vec<Var>,
        guard: Query,
        del: Pattern,
        add: Pattern,
    ) -> Result<Action, CoreError> {
        let action = Action {
            name: Sym::new(name),
            params,
            fresh,
            guard,
            del,
            add,
        };
        action.validate_internal()?;
        Ok(action)
    }

    fn validate_internal(&self) -> Result<(), CoreError> {
        let name = self.name.as_str().to_owned();
        let params: BTreeSet<Var> = self.params.iter().copied().collect();
        let fresh: BTreeSet<Var> = self.fresh.iter().copied().collect();

        if let Some(&v) = params.intersection(&fresh).next() {
            return Err(CoreError::ParamFreshOverlap {
                action: name,
                var: v,
            });
        }

        let guard_free = self.guard.free_vars();
        if guard_free != params {
            return Err(CoreError::GuardVariableMismatch {
                action: name,
                missing_in_guard: params.difference(&guard_free).copied().collect(),
                extra_in_guard: guard_free.difference(&params).copied().collect(),
            });
        }

        for v in self.del.variables() {
            if !params.contains(&v) {
                return Err(CoreError::DelUsesUnknownVariable {
                    action: name,
                    var: v,
                });
            }
        }

        let add_vars = self.add.variables();
        for v in &add_vars {
            if !params.contains(v) && !fresh.contains(v) {
                return Err(CoreError::AddUsesUnknownVariable {
                    action: name,
                    var: *v,
                });
            }
        }
        for v in &self.fresh {
            if !add_vars.contains(v) {
                return Err(CoreError::FreshNotInAdd {
                    action: name,
                    var: *v,
                });
            }
        }
        Ok(())
    }

    /// Validate relation arities against a schema.
    pub fn validate_schema(&self, schema: &Schema) -> Result<(), CoreError> {
        self.guard.validate(schema)?;
        self.del.validate(schema)?;
        self.add.validate(schema)?;
        Ok(())
    }

    /// The action's name.
    pub fn name(&self) -> &'static str {
        self.name.as_str()
    }

    /// The action parameters `⃗u` (equivalently `α·free`).
    pub fn params(&self) -> &[Var] {
        &self.params
    }

    /// The fresh-input variables `⃗v` (equivalently `α·new`), in sequence-number order.
    pub fn fresh(&self) -> &[Var] {
        &self.fresh
    }

    /// The guard `Q` (`α·guard`).
    pub fn guard(&self) -> &Query {
        &self.guard
    }

    /// The deletion pattern (`α·Del`).
    pub fn del(&self) -> &Pattern {
        &self.del
    }

    /// The addition pattern (`α·Add`).
    pub fn add(&self) -> &Pattern {
        &self.add
    }

    /// Number of fresh-input variables `|α·new|`.
    pub fn num_fresh(&self) -> usize {
        self.fresh.len()
    }

    /// All constants mentioned by the guard / del / add (non-empty only when the constants
    /// extension of Appendix F.1 is in use).
    pub fn constants(&self) -> BTreeSet<rdms_db::DataValue> {
        let mut consts = self.guard.constants();
        consts.extend(self.del.constants());
        consts.extend(self.add.constants());
        consts
    }

    /// Whether the guard is a union of conjunctive queries (relevant to Theorem 4.1).
    pub fn guard_is_ucq(&self) -> bool {
        self.guard.is_ucq()
    }
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} = ⟨{:?}, {:?}, {}, {}, {}⟩",
            self.name, self.params, self.fresh, self.guard, self.del, self.add
        )
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// Fluent builder for [`Action`].
///
/// Parameters may be declared explicitly with [`ActionBuilder::params`]; if they are not, they
/// are derived from the guard's free variables (which the paper requires them to equal
/// anyway).
#[derive(Clone)]
pub struct ActionBuilder {
    name: String,
    params: Option<Vec<Var>>,
    fresh: Vec<Var>,
    guard: Query,
    del: Pattern,
    add: Pattern,
}

impl ActionBuilder {
    /// Start building an action with the given name. The guard defaults to `true`.
    pub fn new(name: &str) -> ActionBuilder {
        ActionBuilder {
            name: name.to_owned(),
            params: None,
            fresh: Vec::new(),
            guard: Query::True,
            del: Pattern::new(),
            add: Pattern::new(),
        }
    }

    /// Explicitly set the action parameters `⃗u`.
    pub fn params<I: IntoIterator<Item = Var>>(mut self, params: I) -> Self {
        self.params = Some(params.into_iter().collect());
        self
    }

    /// Declare fresh-input variables `⃗v` (order matters).
    pub fn fresh<I: IntoIterator<Item = Var>>(mut self, fresh: I) -> Self {
        self.fresh = fresh.into_iter().collect();
        self
    }

    /// Set the guard.
    pub fn guard(mut self, guard: Query) -> Self {
        self.guard = guard;
        self
    }

    /// Set the deletion pattern.
    pub fn del(mut self, del: Pattern) -> Self {
        self.del = del;
        self
    }

    /// Set the addition pattern.
    // builder-style setter named after the paper's `Add` component, not arithmetic
    #[allow(clippy::should_implement_trait)]
    pub fn add(mut self, add: Pattern) -> Self {
        self.add = add;
        self
    }

    /// Finish and validate.
    pub fn build(self) -> Result<Action, CoreError> {
        let params = self
            .params
            .unwrap_or_else(|| self.guard.free_vars().into_iter().collect());
        Action::new(
            &self.name, params, self.fresh, self.guard, self.del, self.add,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdms_db::{RelName, Term};

    fn r(name: &str) -> RelName {
        RelName::new(name)
    }
    fn v(name: &str) -> Var {
        Var::new(name)
    }

    /// The β action of Example 3.1:
    /// β = ⟨{u}, {v1,v2}, p ∧ R(u), {p, R(u)}, {Q(v1), Q(v2)}⟩
    fn beta() -> Action {
        Action::new(
            "beta",
            vec![v("u")],
            vec![v("v1"), v("v2")],
            Query::prop(r("p")).and(Query::atom(r("R"), [v("u")])),
            Pattern::from_facts([(r("p"), vec![]), (r("R"), vec![Term::Var(v("u"))])]),
            Pattern::from_facts([
                (r("Q"), vec![Term::Var(v("v1"))]),
                (r("Q"), vec![Term::Var(v("v2"))]),
            ]),
        )
        .unwrap()
    }

    #[test]
    fn beta_of_example_31_validates() {
        let b = beta();
        assert_eq!(b.name(), "beta");
        assert_eq!(b.params(), &[v("u")]);
        assert_eq!(b.fresh(), &[v("v1"), v("v2")]);
        assert_eq!(b.num_fresh(), 2);
        assert!(!b.guard_is_ucq() || b.guard_is_ucq()); // guard is p ∧ R(u): a CQ
        assert!(b.guard_is_ucq());
    }

    #[test]
    fn guard_free_vars_must_equal_params() {
        let err = Action::new(
            "bad",
            vec![v("u"), v("w")],
            vec![],
            Query::atom(r("R"), [v("u")]),
            Pattern::new(),
            Pattern::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::GuardVariableMismatch { .. }));

        let err = Action::new(
            "bad2",
            vec![],
            vec![],
            Query::atom(r("R"), [v("u")]),
            Pattern::new(),
            Pattern::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::GuardVariableMismatch { .. }));
    }

    #[test]
    fn params_and_fresh_must_be_disjoint() {
        let err = Action::new(
            "bad",
            vec![v("u")],
            vec![v("u")],
            Query::atom(r("R"), [v("u")]),
            Pattern::new(),
            Pattern::from_facts([(r("R"), vec![Term::Var(v("u"))])]),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::ParamFreshOverlap { .. }));
    }

    #[test]
    fn del_may_only_use_params() {
        let err = Action::new(
            "bad",
            vec![v("u")],
            vec![v("w")],
            Query::atom(r("R"), [v("u")]),
            Pattern::from_facts([(r("R"), vec![Term::Var(v("w"))])]),
            Pattern::from_facts([(r("Q"), vec![Term::Var(v("w"))])]),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::DelUsesUnknownVariable { .. }));
    }

    #[test]
    fn add_may_only_use_params_and_fresh() {
        let err = Action::new(
            "bad",
            vec![v("u")],
            vec![],
            Query::atom(r("R"), [v("u")]),
            Pattern::new(),
            Pattern::from_facts([(r("Q"), vec![Term::Var(v("z"))])]),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::AddUsesUnknownVariable { .. }));
    }

    #[test]
    fn fresh_must_occur_in_add() {
        let err = Action::new(
            "bad",
            vec![],
            vec![v("w")],
            Query::True,
            Pattern::new(),
            Pattern::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::FreshNotInAdd { .. }));
    }

    #[test]
    fn builder_derives_params_from_guard() {
        let a = ActionBuilder::new("gamma")
            .guard(Query::prop(r("p")).and(Query::atom(r("Q"), [v("u")]).not()))
            .del(Pattern::from_facts([
                (r("p"), vec![]),
                (r("R"), vec![Term::Var(v("u"))]),
            ]))
            .build()
            .unwrap();
        assert_eq!(a.params(), &[v("u")]);
        assert!(a.fresh().is_empty());
    }

    #[test]
    fn schema_validation() {
        let schema = Schema::with_relations(&[("p", 0), ("R", 1), ("Q", 1)]);
        assert!(beta().validate_schema(&schema).is_ok());

        let bad_schema = Schema::with_relations(&[("p", 0), ("R", 2), ("Q", 1)]);
        assert!(beta().validate_schema(&bad_schema).is_err());
    }

    #[test]
    fn constants_are_collected() {
        let a = ActionBuilder::new("with_const")
            .guard(Query::eq(v("u"), rdms_db::DataValue::e(7)).and(Query::atom(r("R"), [v("u")])))
            .build()
            .unwrap();
        assert!(a.constants().contains(&rdms_db::DataValue::e(7)));
    }
}
