//! E6 — explorer scaling on the Appendix C booking agency: invariant checking time as a
//! function of the recency bound and of the exploration depth, plus the raw lifecycle
//! simulation throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdms_checker::{Explorer, ExplorerConfig};
use rdms_db::{Query, RelName, Var};
use rdms_workloads::booking::{self, BookingConfig};

fn bench_booking(c: &mut Criterion) {
    let agency = booking::build(&BookingConfig::default());
    // every booking's offer has some lifecycle state
    let invariant = Query::forall(
        Var::new("bk"),
        Query::forall(
            Var::new("o"),
            Query::forall(
                Var::new("c"),
                Query::atom(
                    RelName::new("Booking"),
                    [Var::new("bk"), Var::new("o"), Var::new("c")],
                )
                .implies(Query::exists(
                    Var::new("st"),
                    Query::atom(RelName::new("OState"), [Var::new("o"), Var::new("st")]),
                )),
            ),
        ),
    );

    let mut group = c.benchmark_group("e6_booking_invariant");
    group.sample_size(10);
    for b in [2usize, 3, 4] {
        group.bench_with_input(BenchmarkId::new("recency_bound", b), &b, |bench, &b| {
            bench.iter(|| {
                Explorer::new(&agency.dms, b)
                    .with_config(ExplorerConfig {
                        depth: 3,
                        max_configs: 20_000,
                        ..Default::default()
                    })
                    .run(invariant.clone())
                    .holds()
            })
        });
    }
    for depth in [2usize, 3, 4] {
        group.bench_with_input(BenchmarkId::new("depth", depth), &depth, |bench, &depth| {
            bench.iter(|| {
                Explorer::new(&agency.dms, 3)
                    .with_config(ExplorerConfig {
                        depth,
                        max_configs: 20_000,
                        ..Default::default()
                    })
                    .run(invariant.clone())
                    .holds()
            })
        });
    }
    group.finish();
}

fn bench_simulation_throughput(c: &mut Criterion) {
    use rdms_core::{ExtendedRun, RecencySemantics};
    let agency = booking::build(&BookingConfig::default());
    let script = [
        "newO1", "newB", "addP2", "submit", "checkP", "detProp", "accept2", "confirm",
    ];
    c.bench_function("e6_booking_lifecycle_simulation", |bench| {
        bench.iter(|| {
            let sem = RecencySemantics::new(&agency.dms, 4);
            let mut run = ExtendedRun::new(agency.dms.initial_bconfig());
            for name in script {
                let (step, next) = sem
                    .successors(run.last())
                    .unwrap()
                    .into_iter()
                    .find(|(s, _)| agency.dms.action(s.action).unwrap().name() == name)
                    .unwrap();
                run.push(step, next);
            }
            run.len()
        })
    });
}

criterion_group!(benches, bench_booking, bench_simulation_throughput);
criterion_main!(benches);
