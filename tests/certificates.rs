//! End-to-end certificate tests: the explorer emits certificate-carrying verdicts for the
//! paper workloads, the engine-free `rdms-cert` verifier accepts them (after a JSON round
//! trip, i.e. through the wire format alone), and every single-field tampering is rejected.

use proptest::prelude::*;
use rdms::checker::{Explorer, ExplorerConfig};
use rdms::core::cert::{CertVerdict, Certificate};
use rdms::core::Dms;
use rdms::db::{Query, RelName, Term, Var};
use rdms::workloads::random::{random_dms, RandomDmsConfig};
use rdms::workloads::{booking, figure1, inventory};

fn r(name: &str) -> RelName {
    RelName::new(name)
}

fn emitting(depth: usize, max_configs: usize) -> ExplorerConfig {
    ExplorerConfig {
        depth,
        max_configs,
        ..ExplorerConfig::default()
    }
    .with_emit_certificate(true)
}

/// Check the invariant with certificate emission on and return the verdict's certificate
/// after a JSON round trip — so everything downstream exercises the wire format, exactly
/// what an external verifier would consume.
fn certified(dms: &Dms, b: usize, invariant: &Query, depth: usize) -> (bool, Certificate) {
    let verdict = Explorer::new(dms, b)
        .with_config(emitting(depth, 500_000))
        .run(invariant.clone());
    let cert = verdict
        .certificate()
        .expect("the search must emit a certificate")
        .to_json();
    let cert = Certificate::from_json(&cert).expect("wire round trip");
    (verdict.holds(), cert)
}

// -----------------------------------------------------------------------------------------
// workload acceptance: Safe and Violation certificates for figure1, booking, inventory
// -----------------------------------------------------------------------------------------

#[test]
fn figure1_certificates_verify() {
    // Safe: the permit-capped Example 3.1 saturates; `true` holds everywhere, so the
    // certificate is a closure proof over the entire reachable canonical state space
    let capped = figure1::finite_dms(2);
    let (holds, cert) = certified(&capped, 2, &Query::True, 32);
    assert!(holds);
    assert!(matches!(cert.verdict, CertVerdict::Safe { .. }));
    cert.verify().expect("figure1 Safe certificate");

    // Violation: "p always holds" is refuted by a concrete permit-capped run
    let (holds, cert) = certified(&capped, 2, &Query::prop(r("p")), 32);
    assert!(!holds);
    assert!(matches!(cert.verdict, CertVerdict::Violation { .. }));
    cert.verify().expect("figure1 Violation certificate");
}

#[test]
fn inventory_certificates_verify() {
    let capped = inventory::finite_dms(1, 2);

    // Safe: reserved items are off the shelf, in every reachable state
    let (holds, cert) = certified(
        &capped,
        2,
        &inventory::reserved_items_are_off_the_shelf(),
        32,
    );
    assert!(holds);
    assert!(matches!(cert.verdict, CertVerdict::Safe { .. }));
    cert.verify().expect("inventory Safe certificate");

    // Violation: "nothing is ever shipped" fails (receive, place_order, reserve, ship)
    let (holds, cert) = certified(&capped, 2, &inventory::something_shipped().not(), 32);
    assert!(!holds);
    assert!(matches!(cert.verdict, CertVerdict::Violation { .. }));
    cert.verify().expect("inventory Violation certificate");
}

/// The Safe certificate of `reserved_items_are_off_the_shelf` on the inventory with two
/// items and three permits, pinned byte for byte: state count, JSON size and commitment.
/// Any change to canonical keys, digests or the wire encoding shows here first.
#[test]
fn inventory_safe_certificates_are_pinned() {
    let dms = inventory::finite_dms(2, 3);
    let invariant = inventory::reserved_items_are_off_the_shelf();
    for (b, states, bytes, commitment) in [
        (3, 434, 121_742, 0x0c0a_e5d2_b48f_a566_u64),
        (4, 522, 153_791, 0xde10_c781_af2a_20a5),
    ] {
        let verdict = Explorer::new(&dms, b)
            .with_config(emitting(32, 500_000))
            .run(invariant.clone());
        assert!(verdict.holds());
        let cert = verdict.certificate().expect("a Safe certificate");
        let CertVerdict::Safe {
            states: entries,
            commitment: root,
        } = &cert.verdict
        else {
            panic!("expected a Safe certificate at b = {b}");
        };
        assert_eq!(entries.len(), states, "b = {b}");
        assert_eq!(cert.to_json().len(), bytes, "b = {b}");
        assert_eq!(*root, commitment, "b = {b}: {root:#018x}");
    }
}

#[test]
fn booking_certificates_verify() {
    let config = booking::BookingConfig {
        restaurants: 1,
        agents: 1,
        customers: 1,
        gold_k: 1,
    };
    let agency = booking::finite(&config, 2);
    let o = Var::new("o");

    // Safe: an offer is never simultaneously available and on hold
    let exclusive = Query::forall(
        o,
        Query::atom(
            r("OState"),
            [Term::Var(o), Term::Value(agency.states.avail)],
        )
        .and(Query::atom(
            r("OState"),
            [Term::Var(o), Term::Value(agency.states.onhold)],
        ))
        .not(),
    );
    let (holds, cert) = certified(&agency.dms, 2, &exclusive, 48);
    assert!(holds);
    assert!(matches!(cert.verdict, CertVerdict::Safe { .. }));
    cert.verify().expect("booking Safe certificate");

    // Violation: "no offer ever closes" fails (newO1 then closeO)
    let never_closed = Query::forall(
        o,
        Query::atom(
            r("OState"),
            [Term::Var(o), Term::Value(agency.states.closed)],
        )
        .not(),
    );
    let (holds, cert) = certified(&agency.dms, 2, &never_closed, 48);
    assert!(!holds);
    assert!(matches!(cert.verdict, CertVerdict::Violation { .. }));
    cert.verify().expect("booking Violation certificate");
}

// -----------------------------------------------------------------------------------------
// tampering: any single-field mutation must be rejected
// -----------------------------------------------------------------------------------------

fn sample_safe_certificate() -> Certificate {
    let (holds, cert) = certified(&figure1::finite_dms(2), 2, &Query::True, 32);
    assert!(holds);
    cert
}

fn sample_violation_certificate() -> Certificate {
    let (holds, cert) = certified(&figure1::finite_dms(2), 2, &Query::prop(r("p")), 32);
    assert!(!holds);
    cert
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checking a random (permit-capped) DMS with emission on always yields a certificate
    /// the independent verifier accepts — whatever the verdict.
    #[test]
    fn random_dms_certificates_verify(seed in 0u64..64) {
        let dms = random_dms(&RandomDmsConfig { seed: seed % 13, ..Default::default() });
        let capped = rdms::core::transform::permits::cap_fresh(&dms, 1).unwrap();
        let verdict = Explorer::new(&capped, 2)
            .with_config(emitting(24, 200_000))
            .run(Query::True);
        prop_assert!(verdict.holds());
        let cert = verdict.certificate().expect("saturating search emits");
        prop_assert!(cert.verify().is_ok(), "{:?}", cert.verify());
        // and through the wire format
        let round = Certificate::from_json(&cert.to_json()).unwrap();
        prop_assert!(round.verify().is_ok());
    }

    /// Single-field mutations of a Safe certificate are all rejected.
    #[test]
    fn tampered_safe_certificates_are_rejected(seed in 0u64..1024, kind in 0u8..6) {
        let mut cert = sample_safe_certificate();
        let CertVerdict::Safe { states, commitment } = &mut cert.verdict else {
            unreachable!("sample is Safe");
        };
        let n = states.len();
        prop_assert!(n > 0, "Safe certificates commit at least the initial state");
        let i = (seed as usize) % n;
        match kind {
            0 => states[i].digest ^= 1 << (seed % 64),
            // dropping a committed state breaks the commitment (or empties the set)
            1 => drop(states.remove(i)),
            2 => *commitment ^= 1 << (seed % 64),
            3 => {
                let succs = &mut states[i].successors;
                if succs.is_empty() {
                    // no successor to flip here: forge one instead
                    succs.push(seed);
                } else {
                    let j = (seed as usize) % succs.len();
                    succs[j] ^= 1 << (seed % 64);
                }
            }
            4 => {
                // claim an extra reachable state that was never committed
                let mut forged = states[i].clone();
                forged.digest ^= 1 << (seed % 64);
                states.push(forged);
            }
            _ => cert.version += 1,
        }
        prop_assert!(cert.verify().is_err(), "tamper kind {kind} must be rejected");
    }

    /// Single-field mutations of a Violation certificate are all rejected.
    ///
    /// Mutations target *parameter* bindings: renaming a fresh value or truncating to a
    /// still-violating prefix would produce a different but equally genuine witness, which
    /// the verifier rightly accepts — those are not tampering in any meaningful sense.
    #[test]
    fn tampered_violation_certificates_are_rejected(seed in 0u64..1024, kind in 0u8..5) {
        let mut cert = sample_violation_certificate();
        let actions = cert.system.actions.clone();
        let CertVerdict::Violation { witness } = &mut cert.verdict else {
            unreachable!("sample is Violation");
        };
        let n = witness.len();
        prop_assert!(n > 0, "the initial state satisfies p, so the witness has steps");
        let i = (seed as usize) % n;
        // a parameter of step i's action, if it has any (fresh-only actions fall back to a
        // version bump, which is always rejected)
        let param = actions
            .get(witness[i].action)
            .and_then(|a| {
                if a.params.is_empty() {
                    None
                } else {
                    Some(a.params[(seed as usize) % a.params.len()].clone())
                }
            });
        match (kind, param) {
            // the empty prefix ends in the initial state, which satisfies p
            (0, _) => witness.truncate(0),
            (1, Some(p)) => {
                // a value far outside the recency window and the declared constants
                witness[i].bindings.insert(p, u64::MAX - 7);
            }
            (2, _) => witness[i].action = usize::MAX,
            (3, Some(p)) => {
                witness[i].bindings.remove(&p);
            }
            _ => cert.version += 1,
        }
        prop_assert!(cert.verify().is_err(), "tamper kind {kind} must be rejected");
    }
}
