//! Distance-evaluation counting.
//!
//! The paper's cost model for search (§6.3) is the *number of distance
//! evaluations*: "the number of distance evaluations performed during query
//! processing is the dominant component for the performance of search".
//! [`CountingDistance`] wraps any distance and counts calls through a shared
//! atomic, so index build and k-NN experiments (Figure 7) report exactly
//! this quantity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::bounded::{BoundedDistance, LowerBound, SeqSummary};
use crate::traits::{MetricDistance, SequenceDistance};
use crate::value::SeqValue;

/// Wraps a distance function, counting every evaluation.
///
/// Clones share the same counter, so a query routine can keep a clone while
/// the index owns the original.
#[derive(Clone, Debug, Default)]
pub struct CountingDistance<D> {
    inner: D,
    counter: Arc<AtomicU64>,
}

impl<D> CountingDistance<D> {
    /// Wraps `inner` with a fresh zeroed counter.
    pub fn new(inner: D) -> Self {
        Self {
            inner,
            counter: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Number of distance evaluations so far.
    pub fn count(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.counter.store(0, Ordering::Relaxed);
    }

    /// The wrapped distance.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<V: SeqValue, D: SequenceDistance<V>> SequenceDistance<V> for CountingDistance<D> {
    fn distance(&self, a: &[V], b: &[V]) -> f64 {
        self.counter.fetch_add(1, Ordering::Relaxed);
        self.inner.distance(a, b)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<V: SeqValue, D: MetricDistance<V>> MetricDistance<V> for CountingDistance<D> {}

impl<V: SeqValue, D: BoundedDistance<V>> BoundedDistance<V> for CountingDistance<D> {
    /// A bounded evaluation counts as one distance evaluation, whether or
    /// not it abandons — the cost model charges the *decision to refine*,
    /// and early abandoning is how a refine gets cheaper, not free.
    fn distance_upto(&self, a: &[V], b: &[V], cutoff: f64) -> Option<f64> {
        self.counter.fetch_add(1, Ordering::Relaxed);
        self.inner.distance_upto(a, b, cutoff)
    }
}

impl<V: SeqValue, D: LowerBound<V>> LowerBound<V> for CountingDistance<D> {
    // Summaries and lower bounds are filter-side work, not distance
    // evaluations: they are deliberately not counted.
    fn summarize(&self, seq: &[V]) -> SeqSummary<V> {
        self.inner.summarize(seq)
    }
    fn lower_bound(
        &self,
        query: &[V],
        query_summary: &SeqSummary<V>,
        candidate: &SeqSummary<V>,
    ) -> f64 {
        self.inner.lower_bound(query, query_summary, candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eged::EgedMetric;

    #[test]
    fn counts_and_resets() {
        let d = CountingDistance::new(EgedMetric::<f64>::new());
        assert_eq!(d.count(), 0);
        let _ = d.distance(&[1.0], &[2.0]);
        let _ = d.distance(&[1.0], &[3.0]);
        assert_eq!(d.count(), 2);
        d.reset();
        assert_eq!(d.count(), 0);
    }

    #[test]
    fn clones_share_counter() {
        let d = CountingDistance::new(EgedMetric::<f64>::new());
        let d2 = d.clone();
        let _ = d2.distance(&[1.0], &[2.0]);
        assert_eq!(d.count(), 1);
    }

    #[test]
    fn delegates_value() {
        let d = CountingDistance::new(EgedMetric::<f64>::new());
        let raw = EgedMetric::<f64>::new();
        assert_eq!(
            d.distance(&[1.0, 2.0], &[3.0]),
            raw.distance(&[1.0, 2.0], &[3.0])
        );
        assert_eq!(SequenceDistance::<f64>::name(&d), "EGED_M");
    }
}
