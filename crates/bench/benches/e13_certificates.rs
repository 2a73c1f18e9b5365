//! E13 — the certificate layer: what emission costs the search, and what independent
//! verification costs the consumer.
//!
//! The `safe_search`/`violation_search` pairs run the *same* check with
//! `emit_certificate` off and on; the committed baseline locks the on/off ratio under
//! 1.25× (a machine-independent `"ratios"` ceiling), so certificate recording can never
//! quietly grow past 25% overhead. The `verify` benchmarks time `rdms-cert`'s replay /
//! closure check on the emitted artifacts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdms_checker::{Explorer, ExplorerConfig};
use rdms_core::cert::Certificate;
use rdms_workloads::{booking, booking::BookingConfig, inventory};

fn config(emit: bool) -> ExplorerConfig {
    ExplorerConfig {
        depth: 16,
        max_configs: 100_000,
        ..Default::default()
    }
    .with_emit_certificate(emit)
}

/// A saturating invariant check (Safe verdict) on the permit-capped booking agency, and a
/// violation search on the permit-capped inventory — emission off vs on.
fn bench_emission_overhead(c: &mut Criterion) {
    let agency = booking::finite(&BookingConfig::default(), 2);
    let lifecycle = booking::offer_state_invariant();
    let violated_dms = inventory::finite_dms(1, 2);
    let never_shipped = inventory::something_shipped().not();

    let mut group = c.benchmark_group("e13_certificates");
    group.sample_size(10);
    // each pair's off/emit legs run back to back, so the ratio the baseline locks is
    // measured across adjacent windows (minimal frequency / thermal drift between them)
    for emit in [false, true] {
        let label = if emit { "emit" } else { "off" };
        group.bench_with_input(
            BenchmarkId::new("safe_search", label),
            &emit,
            |bench, &emit| {
                bench.iter(|| {
                    Explorer::new(&agency.dms, 2)
                        .with_config(config(emit))
                        .run(lifecycle.clone())
                        .holds()
                })
            },
        );
    }
    for emit in [false, true] {
        let label = if emit { "emit" } else { "off" };
        group.bench_with_input(
            BenchmarkId::new("violation_search", label),
            &emit,
            |bench, &emit| {
                bench.iter(|| {
                    Explorer::new(&violated_dms, 2)
                        .with_config(config(emit))
                        .run(never_shipped.clone())
                        .holds()
                })
            },
        );
    }
    group.finish();
}

/// Independent verification time: `rdms-cert` replaying a Violation witness and closure-
/// checking a Safe commitment, both consumed through the JSON wire format.
fn bench_verification(c: &mut Criterion) {
    let safe = Explorer::new(&booking::finite(&BookingConfig::default(), 2).dms, 2)
        .with_config(config(true))
        .run(booking::offer_state_invariant())
        .certificate()
        .expect("saturating search emits")
        .to_json();
    let violation = Explorer::new(&inventory::finite_dms(1, 2), 2)
        .with_config(config(true))
        .run(inventory::something_shipped().not())
        .certificate()
        .expect("violated search emits")
        .to_json();

    let mut group = c.benchmark_group("e13_certificates");
    group.sample_size(10);
    for (label, json) in [("safe", &safe), ("violation", &violation)] {
        group.bench_with_input(BenchmarkId::new("verify", label), json, |bench, json| {
            bench.iter(|| {
                Certificate::from_json(json)
                    .expect("wire round trip")
                    .verify()
                    .is_ok()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_emission_overhead, bench_verification);
criterion_main!(benches);
