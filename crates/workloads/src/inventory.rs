//! A wide-branching inventory / order-fulfilment scenario, sized to exercise the
//! explorer's deduplicating search and the revision workspace (benches E13 and E16).
//!
//! Relations: `Stocked/1` (items on the shelf), `Order/1` (open orders), `Reserved/2`
//! (item, order), `Shipped/2`, and a proposition `open` (the receiving dock).
//! Actions:
//! * `receive` — a batch of `width` fresh items arrives (while the dock is open),
//! * `place_order` — a fresh order is opened (while the dock is open),
//! * `reserve` — a stocked item is reserved for an order (taking it off the shelf),
//! * `ship` — a reserved item is shipped against its order,
//! * `cancel` — a reservation is released, returning the item to the shelf,
//! * `close` — close the receiving dock.
//!
//! The `reserve` action instantiates over *pairs* of recent values (item × order), so the
//! `b`-bounded configuration graph branches quadratically in the recency bound: a single
//! frontier entry spawns many successors, each requiring guard evaluation over a growing
//! instance.

use rdms_core::action::ActionBuilder;
use rdms_core::dms::DmsBuilder;
use rdms_core::Dms;
use rdms_db::{Pattern, Query, RelName, Term, Var};

fn r(name: &str) -> RelName {
    RelName::new(name)
}

/// The inventory system with `width` fresh items per `receive` batch (`width ≥ 1`).
pub fn dms(width: usize) -> Dms {
    build(width, false)
}

/// The inventory after a one-guard edit: `cancel` is additionally gated on the dock
/// being open (`Reserved(i, o) ∧ open`). Every other action is byte-identical to
/// [`dms`], so the fingerprint delta between the two is exactly `{cancel}` — the
/// single-guard-edit scenario the incremental-revision machinery (bench E16) measures.
pub fn dms_with_gated_cancel(width: usize) -> Dms {
    build(width, true)
}

fn build(width: usize, gated_cancel: bool) -> Dms {
    let v = Var::new;
    let batch: Vec<Var> = (0..width.max(1)).map(|k| Var::numbered("i", k)).collect();
    let receive_add = Pattern::from_facts(
        batch
            .iter()
            .map(|&item| (r("Stocked"), vec![Term::Var(item)]))
            .collect::<Vec<_>>(),
    );
    DmsBuilder::new()
        .proposition("open")
        .relation("Stocked", 1)
        .relation("Order", 1)
        .relation("Reserved", 2)
        .relation("Shipped", 2)
        .initially_true("open")
        .action(
            ActionBuilder::new("receive")
                .fresh(batch)
                .guard(Query::prop(r("open")))
                .add(receive_add),
        )
        .action(
            ActionBuilder::new("place_order")
                .fresh([v("o")])
                .guard(Query::prop(r("open")))
                .add(Pattern::from_facts([(r("Order"), vec![Term::Var(v("o"))])])),
        )
        .action(
            ActionBuilder::new("reserve")
                .guard(Query::atom(r("Stocked"), [v("i")]).and(Query::atom(r("Order"), [v("o")])))
                .del(Pattern::from_facts([(
                    r("Stocked"),
                    vec![Term::Var(v("i"))],
                )]))
                .add(Pattern::from_facts([(
                    r("Reserved"),
                    vec![Term::Var(v("i")), Term::Var(v("o"))],
                )])),
        )
        .action(
            ActionBuilder::new("ship")
                .guard(Query::atom(r("Reserved"), [v("i"), v("o")]))
                .del(Pattern::from_facts([(
                    r("Reserved"),
                    vec![Term::Var(v("i")), Term::Var(v("o"))],
                )]))
                .add(Pattern::from_facts([(
                    r("Shipped"),
                    vec![Term::Var(v("i")), Term::Var(v("o"))],
                )])),
        )
        .action(
            ActionBuilder::new("cancel")
                .guard(if gated_cancel {
                    Query::atom(r("Reserved"), [v("i"), v("o")]).and(Query::prop(r("open")))
                } else {
                    Query::atom(r("Reserved"), [v("i"), v("o")])
                })
                .del(Pattern::from_facts([(
                    r("Reserved"),
                    vec![Term::Var(v("i")), Term::Var(v("o"))],
                )]))
                .add(Pattern::from_facts([(
                    r("Stocked"),
                    vec![Term::Var(v("i"))],
                )])),
        )
        .action(
            ActionBuilder::new("close")
                .guard(Query::prop(r("open")))
                .del(Pattern::proposition(r("open"))),
        )
        .build()
        .expect("inventory DMS is valid")
}

/// The permit-capped inventory: `receive` and `place_order` each consume one permit from a
/// pool of `permits`, so at most `permits` batches/orders ever enter the system and the
/// reachable canonical state space is finite (see [`rdms_core::transform::permits`]).
/// Exhaustive explorations of this variant saturate, which is what the explorer's `Safe`
/// certificates require.
pub fn finite_dms(width: usize, permits: usize) -> Dms {
    rdms_core::transform::permits::cap_fresh(&dms(width), permits)
        .expect("capping the inventory preserves validity")
}

/// The permit-capped counterpart of [`dms_with_gated_cancel`]: the same one-guard edit
/// applied to [`finite_dms`]. The capping transform rewrites `receive` and `place_order`
/// identically in both variants, so the fingerprint delta against [`finite_dms`] is still
/// exactly `{cancel}`.
pub fn finite_dms_with_gated_cancel(width: usize, permits: usize) -> Dms {
    rdms_core::transform::permits::cap_fresh(&dms_with_gated_cancel(width), permits)
        .expect("capping the gated inventory preserves validity")
}

/// The state invariant "a reserved item is never simultaneously on the shelf"
/// (`∀i∀o. Reserved(i, o) ⇒ ¬Stocked(i)`). It holds: `reserve` removes the item from
/// `Stocked`, and `cancel` restores it only after deleting the reservation.
pub fn reserved_items_are_off_the_shelf() -> Query {
    let (i, o) = (Var::new("i"), Var::new("o"));
    Query::forall(
        i,
        Query::forall(
            o,
            Query::atom(r("Reserved"), [i, o]).implies(Query::atom(r("Stocked"), [i]).not()),
        ),
    )
}

/// The ledger-consistency invariant "an item is in at most one lifecycle stage":
///
/// ```text
///   (∀i∀o. Reserved(i, o) ⇒ ¬Stocked(i))
/// ∧ (∀i∀o. Shipped(i, o)  ⇒ ¬Stocked(i))
/// ∧ (∀i∀o. Reserved(i, o) ⇒ Order(o))
/// ∧ (∀i∀o. Shipped(i, o)  ⇒ Order(o))
/// ∧ (∀i∀i′∀o∀o′. Reserved(i, o) ∧ Shipped(i′, o′) ⇒ i ≠ i′)
/// ∧ (∀i∀i′∀o∀o′. Reserved(i, o) ∧ Reserved(i′, o′) ∧ i = i′ ⇒ o = o′)
/// ∧ (∀i∀i′∀o∀o′. Shipped(i, o) ∧ Shipped(i′, o′) ∧ i = i′ ⇒ o = o′)
/// ```
///
/// The last three are two-tuple join constraints in the textbook four-variable form:
/// the reserved and shipped item sets are disjoint, and `item → order` is a functional
/// dependency on both `Reserved` and `Shipped`.
///
/// It holds: `reserve` takes the item off the shelf (so a stocked, reserved or shipped
/// item cannot be reserved again), `cancel` restores it only after deleting the
/// reservation, and a shipped item can never be re-stocked or re-reserved
/// (only `receive` adds to `Stocked`, and only with fresh values). Unlike
/// [`reserved_items_are_off_the_shelf`] this is deliberately join-heavy — three nested
/// quantifier blocks over the active domain — so per-state evaluation is a real cost and
/// caches keyed on `(state, invariant)` (the revision workspace's φ-memo, bench E16) have
/// something to recover.
pub fn lifecycle_stages_are_exclusive() -> Query {
    let (i, o, o2) = (Var::new("i"), Var::new("o"), Var::new("o2"));
    let reserved_off_shelf = Query::forall(
        i,
        Query::forall(
            o,
            Query::atom(r("Reserved"), [i, o]).implies(Query::atom(r("Stocked"), [i]).not()),
        ),
    );
    let shipped_off_shelf = Query::forall(
        i,
        Query::forall(
            o,
            Query::atom(r("Shipped"), [i, o]).implies(Query::atom(r("Stocked"), [i]).not()),
        ),
    );
    let i2 = Var::new("i2");
    let shipped_never_reserved = Query::forall_many(
        [i, i2, o, o2],
        Query::atom(r("Reserved"), [i, o])
            .and(Query::atom(r("Shipped"), [i2, o2]))
            .implies(Query::eq(i, i2).not()),
    );
    let fd_item_to_order = |rel: &str| {
        Query::forall_many(
            [i, i2, o, o2],
            Query::atom(r(rel), [i, o])
                .and(Query::atom(r(rel), [i2, o2]))
                .and(Query::eq(i, i2))
                .implies(Query::eq(o, o2)),
        )
    };
    let one_reservation_per_item = fd_item_to_order("Reserved");
    let one_shipment_per_item = fd_item_to_order("Shipped");
    let reservations_have_orders = Query::forall(
        i,
        Query::forall(
            o,
            Query::atom(r("Reserved"), [i, o]).implies(Query::atom(r("Order"), [o])),
        ),
    );
    let shipments_have_orders = Query::forall(
        i,
        Query::forall(
            o,
            Query::atom(r("Shipped"), [i, o]).implies(Query::atom(r("Order"), [o])),
        ),
    );
    reserved_off_shelf
        .and(shipped_off_shelf)
        .and(reservations_have_orders)
        .and(shipments_have_orders)
        .and(shipped_never_reserved)
        .and(one_reservation_per_item)
        .and(one_shipment_per_item)
}

/// The reachability target "some item was shipped against some order"
/// (`∃i∃o. Shipped(i, o)`); reachable in four steps (receive, place_order, reserve, ship).
pub fn something_shipped() -> Query {
    let (i, o) = (Var::new("i"), Var::new("o"));
    Query::exists(i, Query::exists(o, Query::atom(r("Shipped"), [i, o])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdms_core::RecencySemantics;

    #[test]
    fn system_builds_at_every_width() {
        for width in 1..=4 {
            let dms = dms(width);
            assert_eq!(dms.num_actions(), 6);
        }
    }

    #[test]
    fn reserve_branches_over_item_order_pairs() {
        // after receive(2 items) + place_order there are 2 stocked × 1 order = 2 reserve
        // moves (all values still inside a recency window of ≥ 3)
        let dms = dms(2);
        let sem = RecencySemantics::new(&dms, 3);
        let mut config = dms.initial_bconfig();
        for name in ["receive", "place_order"] {
            let (_, next) = sem
                .successors(&config)
                .unwrap()
                .into_iter()
                .find(|(s, _)| dms.action(s.action).unwrap().name() == name)
                .unwrap();
            config = next;
        }
        let reserves = sem
            .successors(&config)
            .unwrap()
            .into_iter()
            .filter(|(s, _)| dms.action(s.action).unwrap().name() == "reserve")
            .count();
        assert_eq!(reserves, 2);
    }
}
