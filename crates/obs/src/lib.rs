//! # strg-obs
//!
//! A dependency-free observability layer for the STRG-Index stack.
//!
//! The paper's evaluation is a *cost* evaluation: Figures 7 and 8 compare
//! methods by node accesses and distance computations, not by wall-clock
//! alone. This crate makes those costs first-class production quantities
//! instead of test-only shims:
//!
//! * [`Counter`] — a lock-free (atomic) monotonic counter;
//! * [`Histogram`] — a fixed-bucket (power-of-two) histogram with atomic
//!   buckets, used for latency distributions;
//! * [`Span`] — a drop-guard timer recording elapsed nanoseconds into a
//!   histogram;
//! * [`Recorder`] — a cloneable handle owning a named registry of the
//!   above; every layer of the stack records into one shared recorder;
//! * [`Snapshot`] — a point-in-time view of a recorder, serializable to
//!   JSON (the report format the CLI's `--json` flag, the serve `metrics`
//!   verb and `benchmark/` share);
//! * [`QueryCost`] — the per-query cost record (`distance_calls`,
//!   `node_accesses`, `pruned`, `elapsed`) returned by every search.
//!
//! ## Determinism contract
//!
//! Counters registered with [`Recorder::counter`] must be **deterministic**:
//! on the same workload they hold bit-identical values at any
//! `STRG_THREADS` setting. Wall-clock quantities (every histogram) and
//! counters registered with [`Recorder::volatile_counter`] are exempt.
//! [`Snapshot::deterministic`] drops exactly the exempt entries, so two
//! deterministic snapshots of the same workload compare byte-for-byte —
//! this is what `tests/obs_equivalence.rs` pins down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod json;
mod metrics;
mod snapshot;

pub use cost::QueryCost;
pub use json::Json;
pub use metrics::{Counter, Histogram, Span};
pub use snapshot::{BucketCount, CounterSnapshot, HistogramSnapshot, Snapshot};

use std::sync::{Arc, RwLock};

/// A named metric registry handle.
///
/// Cloning is cheap and clones share the same registry, so the pipeline,
/// the index and the clusterers can all record into one recorder. Metric
/// *registration* takes a write lock once per name; *recording* through a
/// held [`Counter`]/[`Histogram`] handle is lock-free (relaxed atomics).
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Arc<Registry>,
}

#[derive(Debug, Default)]
struct Registry {
    counters: RwLock<Vec<(String, (Counter, bool))>>, // (name, (counter, volatile))
    histograms: RwLock<Vec<(String, Histogram)>>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, creating it (as deterministic)
    /// on first use. Hold the returned handle on hot paths.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_impl(name, false)
    }

    /// Like [`Recorder::counter`], but the counter is marked *volatile*:
    /// its value may legitimately differ across thread counts (e.g. a
    /// per-worker scratch-arena footprint) and [`Snapshot::deterministic`]
    /// drops it.
    pub fn volatile_counter(&self, name: &str) -> Counter {
        self.counter_impl(name, true)
    }

    fn counter_impl(&self, name: &str, volatile: bool) -> Counter {
        register(&self.inner.counters, name, || (Counter::new(), volatile)).0
    }

    /// The histogram registered under `name`, creating it on first use.
    /// Histograms hold wall-clock or otherwise non-deterministic values and
    /// are always excluded from [`Snapshot::deterministic`].
    pub fn histogram(&self, name: &str) -> Histogram {
        register(&self.inner.histograms, name, Histogram::new)
    }

    /// Adds `v` to the counter `name` (registering it if needed). Prefer a
    /// held [`Counter`] handle on hot paths.
    pub fn add(&self, name: &str, v: u64) {
        self.counter(name).add(v);
    }

    /// Adds `v` to the *volatile* counter `name` (registering it if
    /// needed). Use for quantities that legitimately vary with the worker
    /// count, such as per-worker scratch-arena footprints.
    pub fn volatile_add(&self, name: &str, v: u64) {
        self.volatile_counter(name).add(v);
    }

    /// Starts a span whose elapsed nanoseconds land in the histogram
    /// `<name>_ns` when the returned guard drops.
    pub fn span(&self, name: &str) -> Span {
        Span::start(self.histogram(&format!("{name}_ns")))
    }

    /// Adds a [`QueryCost`] under `prefix`: deterministic counters
    /// `<prefix>.distance_calls`, `<prefix>.node_accesses`,
    /// `<prefix>.pruned`, `<prefix>.lb_pruned`,
    /// `<prefix>.early_abandoned`, `<prefix>.shards_pruned` and
    /// `<prefix>.count`, plus the latency histogram `<prefix>.latency_ns`.
    /// `<prefix>.batch_shared_accesses` is recorded as a *volatile*
    /// counter: physical sharing depends on batch composition (e.g. a
    /// timing-dependent coalescing window), not on the query's decision
    /// sequence.
    pub fn record_cost(&self, prefix: &str, cost: &QueryCost) {
        self.add(&format!("{prefix}.count"), 1);
        self.add(&format!("{prefix}.distance_calls"), cost.distance_calls);
        self.add(&format!("{prefix}.node_accesses"), cost.node_accesses);
        self.add(&format!("{prefix}.pruned"), cost.pruned);
        self.add(&format!("{prefix}.lb_pruned"), cost.lb_pruned);
        self.add(&format!("{prefix}.early_abandoned"), cost.early_abandoned);
        self.add(&format!("{prefix}.shards_pruned"), cost.shards_pruned);
        self.volatile_add(
            &format!("{prefix}.batch_shared_accesses"),
            cost.batch_shared_accesses,
        );
        self.histogram(&format!("{prefix}.latency_ns"))
            .record(cost.elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time snapshot of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: Vec<CounterSnapshot> = self
            .inner
            .counters
            .read()
            .expect("counter registry poisoned")
            .iter()
            .map(|(n, (c, volatile))| CounterSnapshot {
                name: n.clone(),
                value: c.get(),
                volatile: *volatile,
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramSnapshot> = self
            .inner
            .histograms
            .read()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(n, h)| h.snapshot(n))
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot {
            counters,
            histograms,
        }
    }

    /// Resets every registered counter and histogram to zero.
    pub fn reset(&self) {
        for (_, (c, _)) in self
            .inner
            .counters
            .read()
            .expect("counter registry poisoned")
            .iter()
        {
            c.reset();
        }
        for (_, h) in self
            .inner
            .histograms
            .read()
            .expect("histogram registry poisoned")
            .iter()
        {
            h.reset();
        }
    }
}

/// The entry registered under `name` in `registry`, pushing `make()` on
/// first use. The lookup takes the read lock; a miss re-checks under the
/// write lock, since another thread may have registered the name between
/// the two.
fn register<T: Clone>(
    registry: &RwLock<Vec<(String, T)>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> T {
    let find = |entries: &[(String, T)]| {
        entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
    };
    if let Some(v) = find(&registry.read().expect("metric registry poisoned")) {
        return v;
    }
    let mut entries = registry.write().expect("metric registry poisoned");
    if let Some(v) = find(&entries) {
        return v;
    }
    let v = make();
    entries.push((name.to_string(), v.clone()));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_share() {
        let r = Recorder::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(r.counter("x").get(), 5);
        assert_eq!(r.snapshot().counters.len(), 1);
    }

    #[test]
    fn clones_share_registry() {
        let r = Recorder::new();
        let r2 = r.clone();
        r2.add("shared", 7);
        assert_eq!(r.counter("shared").get(), 7);
    }

    #[test]
    fn volatile_flag_sticks_to_first_registration() {
        let r = Recorder::new();
        r.volatile_counter("spec").add(1);
        r.counter("det").add(1);
        let s = r.snapshot();
        let d = s.deterministic();
        assert_eq!(d.counters.len(), 1);
        assert_eq!(d.counters[0].name, "det");
    }

    #[test]
    fn snapshot_sorted_and_resets() {
        let r = Recorder::new();
        r.add("b", 1);
        r.add("a", 2);
        r.histogram("h").record(10);
        let s = r.snapshot();
        assert_eq!(s.counters[0].name, "a");
        assert_eq!(s.counters[1].name, "b");
        assert_eq!(s.histograms[0].count, 1);
        r.reset();
        let s = r.snapshot();
        assert!(s.counters.iter().all(|c| c.value == 0));
        assert_eq!(s.histograms[0].count, 0);
    }

    #[test]
    fn record_cost_and_span() {
        let r = Recorder::new();
        let cost = QueryCost {
            distance_calls: 10,
            node_accesses: 4,
            pruned: 6,
            lb_pruned: 3,
            early_abandoned: 2,
            shards_pruned: 1,
            batch_shared_accesses: 3,
            elapsed: std::time::Duration::from_micros(3),
        };
        r.record_cost("query", &cost);
        r.record_cost("query", &cost);
        assert_eq!(r.counter("query.count").get(), 2);
        assert_eq!(r.counter("query.distance_calls").get(), 20);
        assert_eq!(r.counter("query.node_accesses").get(), 8);
        assert_eq!(r.counter("query.pruned").get(), 12);
        assert_eq!(r.counter("query.lb_pruned").get(), 6);
        assert_eq!(r.counter("query.early_abandoned").get(), 4);
        assert_eq!(r.counter("query.shards_pruned").get(), 2);
        assert_eq!(r.counter("query.batch_shared_accesses").get(), 6);
        // The sharing counter must be volatile: batch composition is not
        // part of the determinism contract.
        let snap = r.snapshot().deterministic();
        assert!(snap
            .counters
            .iter()
            .all(|c| c.name != "query.batch_shared_accesses"));
        {
            let _s = r.span("work");
        }
        let snap = r.snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "work_ns")
            .expect("span histogram");
        assert_eq!(h.count, 1);
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let r = Recorder::new();
        let c = r.counter("n");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn concurrent_first_registration_yields_one_entry() {
        // Eight threads released together ask for names nobody registered
        // yet, so several miss under the read lock and race for the write
        // lock; the losers must find the winner's entry there.
        const NAMES: usize = 64;
        let r = Recorder::new();
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..NAMES {
                        start.wait();
                        let c = r.counter(&format!("c{i:02}"));
                        let h = r.histogram(&format!("h{i:02}"));
                        for v in 1..=100 {
                            c.incr();
                            h.record(v);
                        }
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), NAMES);
        assert!(snap.counters.iter().all(|c| c.value == 800));
        assert_eq!(snap.histograms.len(), NAMES);
        assert!(snap
            .histograms
            .iter()
            .all(|h| h.count == 800 && h.sum == 8 * 5_050));
    }
}
