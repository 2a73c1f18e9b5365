//! Counters for the copy-on-write instance representation and the lazy relation indexes.
//!
//! [`crate::Instance`] shares relation storage between clones (`Arc` per relation) and only
//! materialises a private copy of a relation on first write. These counters record how often
//! each case occurs, plus how often query evaluation could answer a probe from an
//! already-built index.
//!
//! Counting is **scoped**: a consumer allocates a [`SearchCounters`] and enters a
//! recording scope ([`record_into`]) on every thread working for its search. Counter
//! traffic issued by a thread inside a scope is tallied into the scope's counters
//! (buffered thread-locally, flushed when the scope guard drops), so concurrent unrelated
//! searches never pollute each other's numbers; traffic outside any scope is not counted.
//! The checking engines report these exact figures in their statistics.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The four counter kinds, used to index the scoped tallies.
const SHARED: usize = 0;
const MATERIALIZED: usize = 1;
const HITS: usize = 2;
const BUILDS: usize = 3;

/// Exact per-search counters. Allocate one per logical search, share it (`Arc`) with every
/// worker thread of that search, and have each worker hold a [`record_into`] guard while it
/// works; [`SearchCounters::snapshot`] then returns figures that count exactly the traffic
/// of this search, regardless of what other searches do concurrently.
#[derive(Debug, Default)]
pub struct SearchCounters {
    counts: [AtomicU64; 4],
}

impl SearchCounters {
    /// Fresh counters, all zero.
    pub fn new() -> SearchCounters {
        SearchCounters::default()
    }

    /// The current totals. Exact once every recording scope targeting these counters has
    /// been dropped (worker threads flush their buffered tallies on scope exit).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            relations_shared: self.counts[SHARED].load(Ordering::Relaxed),
            relations_materialized: self.counts[MATERIALIZED].load(Ordering::Relaxed),
            index_hits: self.counts[HITS].load(Ordering::Relaxed),
            index_builds: self.counts[BUILDS].load(Ordering::Relaxed),
        }
    }
}

/// One thread's buffered contribution to a [`SearchCounters`]: plain cells while the scope
/// is live (no atomic traffic in the hot loop), flushed on drop.
struct LocalTally {
    target: Arc<SearchCounters>,
    counts: [Cell<u64>; 4],
}

thread_local! {
    /// The recording scopes active on this thread, innermost last. Counter traffic is
    /// tallied into every active scope, so a search nested inside another (an engine
    /// re-checking inside a hit predicate, say) is counted by both.
    static ACTIVE_SCOPES: RefCell<Vec<Rc<LocalTally>>> = const { RefCell::new(Vec::new()) };
}

/// Guard returned by [`record_into`]; dropping it flushes this thread's buffered tallies
/// into the target [`SearchCounters`] and ends the scope.
pub struct MetricsScope {
    tally: Rc<LocalTally>,
}

/// Start recording this thread's counter traffic into `counters` until the returned guard
/// drops.
pub fn record_into(counters: &Arc<SearchCounters>) -> MetricsScope {
    let tally = Rc::new(LocalTally {
        target: Arc::clone(counters),
        counts: Default::default(),
    });
    ACTIVE_SCOPES.with(|scopes| scopes.borrow_mut().push(Rc::clone(&tally)));
    MetricsScope { tally }
}

impl Drop for MetricsScope {
    fn drop(&mut self) {
        ACTIVE_SCOPES.with(|scopes| {
            let mut scopes = scopes.borrow_mut();
            if let Some(at) = scopes.iter().rposition(|t| Rc::ptr_eq(t, &self.tally)) {
                scopes.remove(at);
            }
        });
        for (kind, cell) in self.tally.counts.iter().enumerate() {
            let n = cell.get();
            if n > 0 {
                self.tally.target.counts[kind].fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// Tally `n` into every recording scope active on this thread.
fn scoped_add(kind: usize, n: u64) {
    ACTIVE_SCOPES.with(|scopes| {
        for tally in scopes.borrow().iter() {
            let cell = &tally.counts[kind];
            cell.set(cell.get() + n);
        }
    });
}

/// Relation handles shared by reference on an instance clone (one per relation per clone).
pub(crate) fn count_shared(n: u64) {
    scoped_add(SHARED, n);
}

/// A relation deep-copied because a shared handle was written to (clone-on-first-write).
pub(crate) fn count_materialized() {
    scoped_add(MATERIALIZED, 1);
}

/// A probe answered through a per-relation index (active-domain values, per-column values
/// or a column's hash index).
pub(crate) fn count_index_hit() {
    scoped_add(HITS, 1);
}

/// A probe that had to build (or rebuild) the index or cache entry first.
pub(crate) fn count_index_build() {
    scoped_add(BUILDS, 1);
}

/// A reading of one [`SearchCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Relation handles shared by reference on instance clones.
    pub relations_shared: u64,
    /// Relations deep-copied on first write to a shared handle.
    pub relations_materialized: u64,
    /// Index probes answered from an already-built index or cache.
    pub index_hits: u64,
    /// Index probes that had to build the index or cache entry first.
    pub index_builds: u64,
}

impl MetricsSnapshot {
    /// Total index probes (hits + builds).
    pub fn index_probes(&self) -> u64 {
        self.index_hits + self.index_builds
    }

    /// Fraction of index probes answered from an already-built index (`0` when no probe
    /// happened).
    pub fn index_hit_rate(&self) -> f64 {
        let probes = self.index_probes();
        if probes == 0 {
            0.0
        } else {
            self.index_hits as f64 / probes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_move_forward() {
        let mine = Arc::new(SearchCounters::new());
        {
            let _scope = record_into(&mine);
            count_shared(3);
            count_materialized();
            count_index_hit();
            count_index_build();
        }
        let got = mine.snapshot();
        assert_eq!(got.relations_shared, 3);
        assert_eq!(got.relations_materialized, 1);
        assert_eq!(got.index_probes(), 2);
        assert!((got.index_hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(MetricsSnapshot::default().index_hit_rate(), 0.0);
    }

    #[test]
    fn scoped_counters_are_exact_and_flushed_on_drop() {
        let mine = Arc::new(SearchCounters::new());
        {
            let _scope = record_into(&mine);
            count_shared(5);
            count_index_hit();
            // buffered: nothing flushed while the scope is live
            assert_eq!(mine.snapshot(), MetricsSnapshot::default());
        }
        let after = mine.snapshot();
        assert_eq!(after.relations_shared, 5);
        assert_eq!(after.index_hits, 1);
        assert_eq!(after.relations_materialized, 0);

        // traffic outside the scope is not attributed
        count_shared(100);
        assert_eq!(mine.snapshot(), after);
    }

    #[test]
    fn scoped_counters_ignore_traffic_of_other_threads() {
        let mine = Arc::new(SearchCounters::new());
        let noisy = std::thread::spawn(|| {
            for _ in 0..1_000 {
                count_shared(1);
                count_materialized();
            }
        });
        {
            let _scope = record_into(&mine);
            count_shared(2);
        }
        noisy.join().unwrap();
        let got = mine.snapshot();
        assert_eq!(got.relations_shared, 2, "only this thread's scoped traffic");
        assert_eq!(got.relations_materialized, 0);
    }

    #[test]
    fn nested_scopes_both_record() {
        let outer = Arc::new(SearchCounters::new());
        let inner = Arc::new(SearchCounters::new());
        {
            let _o = record_into(&outer);
            count_index_build();
            {
                let _i = record_into(&inner);
                count_index_hit();
            }
            count_index_build();
        }
        assert_eq!(inner.snapshot().index_hits, 1);
        assert_eq!(inner.snapshot().index_builds, 0);
        assert_eq!(outer.snapshot().index_hits, 1);
        assert_eq!(outer.snapshot().index_builds, 2);
    }
}
