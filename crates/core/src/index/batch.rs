//! [`StrgIndex::knn_batch_with_cost_into`] and its arena: a loop of single
//! k-NN searches, one [`QueryScratch`] slot per member. Both exist for one
//! caller, the `core.index.batch16_us_per_query` probe in
//! `benchmark/src/layers.rs`; databases batch through
//! [`crate::Database::query_batch`].

use strg_cluster::ClusterValue;
use strg_distance::MetricDistance;
use strg_obs::QueryCost;

use super::search::{Hit, QueryScratch};
use super::StrgIndex;

/// One search arena and one cost per member of the last batch. Slots grow
/// to their high-water mark and are reused, so a warmed-up arena makes a
/// sequential batch allocation-free (`tests/query_alloc.rs`).
#[derive(Debug, Default)]
pub struct BatchScratch {
    slots: Vec<QueryScratch>,
    costs: Vec<QueryCost>,
}

impl BatchScratch {
    /// An empty arena (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queries in the last batch.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// Whether the last batch was empty.
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// Query `i`'s hits from the last batch, ascending by distance.
    pub fn hits(&self, i: usize) -> &[Hit] {
        assert!(i < self.len(), "batch item {i} out of range");
        self.slots[i].hits()
    }

    /// Query `i`'s cost from the last batch.
    pub fn cost(&self, i: usize) -> QueryCost {
        self.costs[i]
    }
}

impl<V: ClusterValue, D: MetricDistance<V> + Sync> StrgIndex<V, D> {
    /// Answers every query in `queries` with [`StrgIndex::knn_with_cost_into`]
    /// and the same `k`, member `i` into slot `i` of `scratch`.
    pub fn knn_batch_with_cost_into(&self, queries: &[&[V]], k: usize, scratch: &mut BatchScratch) {
        if scratch.slots.len() < queries.len() {
            scratch.slots.resize_with(queries.len(), QueryScratch::new);
        }
        scratch.costs.clear();
        for (query, slot) in queries.iter().zip(&mut scratch.slots) {
            let (_, cost) = self.knn_with_cost_into(query, k, slot);
            scratch.costs.push(cost);
        }
    }
}
