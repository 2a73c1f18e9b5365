//! E10 — copy-on-write instance sharing on a wide schema.
//!
//! The `wide` ledger workload has `n` single-column relations and one action per ledger,
//! each touching exactly one relation; after the seeding step every transition rewrites one
//! ledger and leaves the other `n − 1` untouched. Applying a transition under a
//! value-semantics instance representation clones all `n` relations; under the
//! copy-on-write representation it copies one, O(1) amortised. The canonical key of each
//! successor is built from all of its facts either way (one pass into a flat buffer, see
//! `rdms_core::iso::CanonicalKey`). Sweeping `n` with a fixed search budget therefore
//! measures the representation effect on top of that linear pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdms_checker::{Explorer, ExplorerConfig};
use rdms_workloads::wide;

fn bench_wide_relations(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_wide_relations");
    for relations in [8usize, 24, 48] {
        let dms = wide::dms(relations);
        let invariant = wide::first_ledger_stays_populated();
        let config = ExplorerConfig {
            depth: 5,
            max_configs: 20_000,
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::new("ledger_invariant", relations),
            &relations,
            |bench, _| {
                bench.iter(|| {
                    let verdict = Explorer::new(&dms, 3)
                        .with_config(config.clone())
                        .run(invariant.clone());
                    assert!(verdict.holds());
                    verdict.stats().configs_explored
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("ledger_state_count", relations),
            &relations,
            |bench, _| {
                bench.iter(|| {
                    Explorer::new(&dms, 3)
                        .with_config(config.clone())
                        .reachable_state_count()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_wide_relations);
criterion_main!(benches);
