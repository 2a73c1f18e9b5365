//! E1 — exhaustiveness of the recency under-approximation (Section 5).
//!
//! Measures, for growing recency bounds `b`, the cost of exploring the `b`-bounded state
//! space (modulo data isomorphism) of the paper's running example and of the enrollment
//! workload. The companion example `recency_sweep` prints the state-count series recorded in
//! EXPERIMENTS.md; this bench tracks the *time* dimension.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdms_checker::{Explorer, ExplorerConfig};
use rdms_workloads::{enrollment, figure1};

fn bench_recency_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_recency_sweep");
    for (name, dms) in [
        ("example_3_1", figure1::dms()),
        ("enrollment", enrollment::dms()),
    ] {
        for b in 1..=3usize {
            group.bench_with_input(BenchmarkId::new(name, b), &b, |bench, &b| {
                bench.iter(|| {
                    Explorer::new(&dms, b)
                        .with_config(ExplorerConfig {
                            depth: 3,
                            max_configs: 20_000,
                            ..Default::default()
                        })
                        .reachable_state_count()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_recency_sweep);
criterion_main!(benches);
