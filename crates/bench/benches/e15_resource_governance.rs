//! E15 — resource governance: what the memory governor costs, and what boot recovery
//! costs.
//!
//! * `session_check_governed/{off,on}` — one depth-1024 incremental check bare (`off`)
//!   vs with the per-request work the governed server adds on top of it (`on`): reading
//!   the session's `memory_bytes()` estimate and updating a mutex-guarded ledger, which
//!   is exactly what `rdms-serve` does after every request under `--memory-budget-mb`.
//!   The baseline locks `on ≤ 1.25 × off` — governance must stay a bounded surcharge on
//!   the hot path, like certificates (E13) and journaling (E14) before it.
//! * `replay/1024` — rebuilding a depth-1024 session by re-checking every transaction
//!   from scratch: the work boot recovery does per journaled session.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdms_serve::{CheckOutcome, Session};
use rdms_workloads::audit;
use rdms_workloads::streams::{wire_transaction, TransactionStream};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Streams in the audit workload; sets both the schema width and the recency bound.
const STREAMS: usize = 3;
/// Invariant of [`audit::first_stream_has_a_head`] in the wire's concrete syntax.
const INVARIANT: &str = "init | exists u. S0(u)";
/// Session depth every leg measures at — matches E14's long-session point.
const LEN: usize = 1024;

type WireTransactions = Vec<(String, BTreeMap<String, u64>)>;

fn transactions(count: usize, seed: u64) -> WireTransactions {
    let dms = Arc::new(audit::dms(STREAMS));
    TransactionStream::new(Arc::clone(&dms), audit::recency_bound(STREAMS), seed)
        .take(count)
        .map(|step| wire_transaction(&dms, &step))
        .collect()
}

fn open_session() -> Session {
    Session::open(
        audit::dms(STREAMS),
        audit::recency_bound(STREAMS),
        INVARIANT,
        false,
    )
    .expect("audit invariant parses and is closed")
}

fn advance(session: &mut Session, script: &[(String, BTreeMap<String, u64>)]) {
    for (action, bindings) in script {
        assert!(
            matches!(session.check(action, bindings), CheckOutcome::Ok { .. }),
            "streamed audit transactions are always accepted"
        );
    }
}

/// A depth-`LEN` session plus the next transaction of its script, ready to re-check.
fn pinned_session() -> (Session, (String, BTreeMap<String, u64>)) {
    let script = transactions(LEN + 1, 7);
    let mut session = open_session();
    advance(&mut session, &script[..LEN]);
    let next = script[LEN].clone();
    (session, next)
}

/// The governed-vs-bare check pair behind the `on ≤ 1.25 × off` ratio lock.
fn bench_governed_check(c: &mut Criterion) {
    let (session, (action, bindings)) = pinned_session();
    let mut group = c.benchmark_group("e15_resource_governance");
    group.sample_size(10);

    group.bench_with_input(
        BenchmarkId::new("session_check_governed", "off"),
        &(),
        |bench, ()| {
            bench.iter(|| {
                let mut fresh = session.clone();
                matches!(fresh.check(&action, &bindings), CheckOutcome::Ok { .. })
            })
        },
    );

    // the governed server's extra per-request work: re-measure the session and fold the
    // figure into a process-wide mutex-guarded ledger (same shape as `rdms-serve`'s)
    let seats: Mutex<HashMap<u64, usize>> = Mutex::new(HashMap::from([(1, 0)]));
    group.bench_with_input(
        BenchmarkId::new("session_check_governed", "on"),
        &(),
        |bench, ()| {
            bench.iter(|| {
                let mut fresh = session.clone();
                let ok = matches!(fresh.check(&action, &bindings), CheckOutcome::Ok { .. });
                let bytes = fresh.memory_bytes();
                let total: usize = {
                    let mut seats = seats.lock().expect("ledger mutex never poisoned");
                    seats.insert(1, bytes);
                    seats.values().sum()
                };
                assert!(total > 0);
                ok
            })
        },
    );
    group.finish();
}

/// Boot recovery's per-session work: full replay of the session's transactions.
fn bench_replay(c: &mut Criterion) {
    let script = transactions(LEN, 7);
    let mut group = c.benchmark_group("e15_resource_governance");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("replay", LEN), &LEN, |bench, _| {
        bench.iter(|| {
            let mut session = open_session();
            advance(&mut session, &script);
            assert_eq!(session.transactions(), LEN);
            session
        })
    });
    group.finish();
}

criterion_group!(benches, bench_governed_check, bench_replay);
criterion_main!(benches);
