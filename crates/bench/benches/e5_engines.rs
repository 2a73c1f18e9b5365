//! E5 — comparison of the two checking engines on the same question: the bounded explorer
//! (evaluating MSO-FO on decoded runs) versus the reduction-faithful hybrid engine
//! (evaluating the translated `⌊ψ⌋` on nested-word encodings). Both answer the same
//! propositional queries on the running example; the explorer's advantage grows with the
//! property/encoding size, which is the practical content of the paper's non-elementary
//! complexity remark.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdms_checker::hybrid::HybridChecker;
use rdms_checker::{Explorer, ExplorerConfig};
use rdms_db::{Query, RelName};
use rdms_logic::templates;
use rdms_workloads::figure1;

fn bench_engines(c: &mut Criterion) {
    let dms = figure1::dms();
    let property = templates::invariant(Query::prop(RelName::new("p")));
    let mut group = c.benchmark_group("e5_engines");
    group.sample_size(10);
    for depth in [1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::new("explorer", depth), &depth, |b, &depth| {
            b.iter(|| {
                Explorer::new(&dms, 2)
                    .with_config(ExplorerConfig {
                        depth,
                        max_configs: 10_000,
                        ..Default::default()
                    })
                    .run(property.clone())
                    .holds()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("hybrid_reduction", depth),
            &depth,
            |b, &depth| b.iter(|| HybridChecker::new(&dms, 2, depth).check(&property).holds()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
