//! # strg-mtree
//!
//! An M-tree (Ciaccia, Patella & Zezula \[5\]): the metric access method the
//! STRG-Index is compared against in Figure 7 of the paper.
//!
//! The tree indexes sequences under any [`MetricDistance`], maintains
//! covering radii and parent distances for triangle-inequality pruning, and
//! supports the two promotion policies the paper benchmarks:
//! [`PromotePolicy::Random`] (MT-RA, the fastest of \[5\]'s policies) and
//! [`PromotePolicy::Sampling`] (MT-SA, the most accurate). Combine with
//! [`strg_distance::CountingDistance`] to reproduce the paper's
//! distance-computation cost model.
//!
//! ```
//! use strg_distance::EgedMetric;
//! use strg_mtree::{MTree, MTreeConfig};
//!
//! let items: Vec<(u64, Vec<f64>)> =
//!     (0..40).map(|i| (i, vec![i as f64 * 5.0, 1.0])).collect();
//! let tree = MTree::bulk_insert(EgedMetric::new(), MTreeConfig::sampling(1), items);
//! let hits = tree.knn(&[52.0, 1.0], 3);
//! assert_eq!(hits.len(), 3);
//! assert!(hits[0].dist <= hits[1].dist);
//! ```

#![warn(missing_docs)]

pub mod node;
mod query;
mod split;

use rand::rngs::StdRng;
use rand::SeedableRng;
use strg_distance::{BoundedDistance, LowerBound, MetricDistance, SeqValue};
use strg_obs::QueryCost;

use node::{LeafEntry, Node, RoutingEntry};
pub use query::{with_mtree_scratch, MtreeScratch, Neighbor};
pub use split::PromotePolicy;

/// Configuration of an M-tree.
#[derive(Copy, Clone, Debug)]
pub struct MTreeConfig {
    /// Maximum entries per node before it splits.
    pub node_capacity: usize,
    /// Promotion policy used on split.
    pub policy: PromotePolicy,
    /// RNG seed (used by the RANDOM policy and sampling).
    pub seed: u64,
}

impl Default for MTreeConfig {
    fn default() -> Self {
        Self {
            node_capacity: 16,
            policy: PromotePolicy::Sampling { samples: 8 },
            seed: 0,
        }
    }
}

impl MTreeConfig {
    /// The paper's MT-RA configuration (random promotion).
    pub fn random(seed: u64) -> Self {
        Self {
            policy: PromotePolicy::Random,
            seed,
            ..Self::default()
        }
    }

    /// The paper's MT-SA configuration (sampled promotion).
    pub fn sampling(seed: u64) -> Self {
        Self {
            policy: PromotePolicy::Sampling { samples: 8 },
            seed,
            ..Self::default()
        }
    }
}

/// An M-tree over sequences of `V` under the metric `D`.
pub struct MTree<V, D> {
    dist: D,
    cfg: MTreeConfig,
    root: Node<V>,
    rng: StdRng,
    len: usize,
}

impl<V: SeqValue, D: MetricDistance<V> + BoundedDistance<V> + LowerBound<V>> MTree<V, D> {
    /// Creates an empty tree.
    pub fn new(dist: D, cfg: MTreeConfig) -> Self {
        Self {
            dist,
            cfg,
            root: Node::Leaf(Vec::new()),
            rng: StdRng::seed_from_u64(cfg.seed),
            len: 0,
        }
    }

    /// Builds a tree by inserting every `(id, seq)` pair.
    pub fn bulk_insert(dist: D, cfg: MTreeConfig, items: Vec<(u64, Vec<V>)>) -> Self {
        let mut t = Self::new(dist, cfg);
        for (id, seq) in items {
            t.insert(id, seq);
        }
        t
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of tree nodes.
    pub fn node_count(&self) -> usize {
        self.root.node_count()
    }

    /// Height of the tree (1 for a single leaf).
    pub fn height(&self) -> usize {
        self.root.height()
    }

    /// The distance the tree was built with.
    pub fn distance(&self) -> &D {
        &self.dist
    }

    /// Inserts an object.
    pub fn insert(&mut self, id: u64, seq: Vec<V>) {
        let summary = self.dist.summarize(&seq);
        let entry = LeafEntry {
            id,
            seq,
            parent_dist: 0.0,
            summary,
        };
        let capacity = self.cfg.node_capacity;
        let policy = self.cfg.policy;
        // Take the root out to appease the borrow checker.
        let mut root = std::mem::replace(&mut self.root, Node::Leaf(Vec::new()));
        if let Some((e1, e2)) = insert_rec(
            &mut root,
            entry,
            &self.dist,
            capacity,
            policy,
            &mut self.rng,
        ) {
            // Root split: grow a new root.
            drop(root);
            self.root = Node::Internal(vec![e1, e2]);
        } else {
            self.root = root;
        }
        self.len += 1;
    }

    /// k-nearest-neighbor query; results sorted by ascending distance.
    pub fn knn(&self, query: &[V], k: usize) -> Vec<Neighbor> {
        self.knn_with_cost(query, k).0
    }

    /// Like [`MTree::knn`], but also reports the query's [`QueryCost`]
    /// (distance calls, node accesses, pruned entries, wall-clock).
    pub fn knn_with_cost(&self, query: &[V], k: usize) -> (Vec<Neighbor>, QueryCost) {
        let start = std::time::Instant::now();
        let mut cost = QueryCost::default();
        let out = query::knn(&self.root, &self.dist, query, k, &mut cost);
        cost.elapsed = start.elapsed();
        (out, cost)
    }

    /// Like [`MTree::knn_with_cost`], but runs out of a caller-owned
    /// [`MtreeScratch`] arena and returns the neighbors as a slice into it
    /// — zero heap allocations once the arena is warm.
    pub fn knn_with_cost_into<'s>(
        &self,
        query: &[V],
        k: usize,
        scratch: &'s mut MtreeScratch,
    ) -> (&'s [Neighbor], QueryCost) {
        let start = std::time::Instant::now();
        let mut cost = QueryCost::default();
        query::knn_into(&self.root, &self.dist, query, k, &mut cost, scratch);
        cost.elapsed = start.elapsed();
        (scratch.neighbors(), cost)
    }

    /// Range query: every object within `radius` of `query`.
    pub fn range(&self, query: &[V], radius: f64) -> Vec<Neighbor> {
        self.range_with_cost(query, radius).0
    }

    /// Like [`MTree::range_with_cost`], but runs out of a caller-owned
    /// [`MtreeScratch`] arena (see [`MTree::knn_with_cost_into`]).
    pub fn range_with_cost_into<'s>(
        &self,
        query: &[V],
        radius: f64,
        scratch: &'s mut MtreeScratch,
    ) -> (&'s [Neighbor], QueryCost) {
        let start = std::time::Instant::now();
        let mut cost = QueryCost::default();
        query::range_into(&self.root, &self.dist, query, radius, &mut cost, scratch);
        cost.elapsed = start.elapsed();
        (scratch.neighbors(), cost)
    }

    /// Like [`MTree::range`], but also reports the query's [`QueryCost`].
    pub fn range_with_cost(&self, query: &[V], radius: f64) -> (Vec<Neighbor>, QueryCost) {
        let start = std::time::Instant::now();
        let mut cost = QueryCost::default();
        let out = query::range(&self.root, &self.dist, query, radius, &mut cost);
        cost.elapsed = start.elapsed();
        (out, cost)
    }

    /// Verifies the covering-radius invariant of every routing entry;
    /// returns the number of routing entries checked. Test/debug helper.
    pub fn check_invariants(&self) -> usize {
        fn walk<V: SeqValue, D: MetricDistance<V>>(node: &Node<V>, dist: &D) -> usize {
            match node {
                Node::Leaf(_) => 0,
                Node::Internal(entries) => {
                    let mut checked = 0;
                    for r in entries {
                        let max_d = max_dist_to(&r.pivot, &r.child, dist);
                        assert!(
                            max_d <= r.radius + 1e-9,
                            "covering radius violated: {max_d} > {}",
                            r.radius
                        );
                        checked += 1 + walk(&r.child, dist);
                    }
                    checked
                }
            }
        }
        fn max_dist_to<V: SeqValue, D: MetricDistance<V>>(
            pivot: &[V],
            node: &Node<V>,
            dist: &D,
        ) -> f64 {
            match node {
                Node::Leaf(entries) => entries
                    .iter()
                    .map(|e| dist.distance(pivot, &e.seq))
                    .fold(0.0, f64::max),
                Node::Internal(entries) => entries
                    .iter()
                    .map(|r| max_dist_to(pivot, &r.child, dist))
                    .fold(0.0, f64::max),
            }
        }
        walk(&self.root, &self.dist)
    }
}

/// Recursive insert. Returns `Some((e1, e2))` when the child split and the
/// caller must replace its routing entry with two.
fn insert_rec<V: SeqValue, D: MetricDistance<V>>(
    node: &mut Node<V>,
    mut entry: LeafEntry<V>,
    dist: &D,
    capacity: usize,
    policy: PromotePolicy,
    rng: &mut StdRng,
) -> Option<(RoutingEntry<V>, RoutingEntry<V>)> {
    match node {
        Node::Leaf(entries) => {
            entries.push(entry);
            if entries.len() > capacity {
                let full = std::mem::take(entries);
                Some(split::split_leaf(full, dist, policy, rng))
            } else {
                None
            }
        }
        Node::Internal(entries) => {
            // Subtree choice: prefer a covering pivot at minimal distance,
            // else minimal radius enlargement.
            let mut best: Option<(usize, f64, bool, f64)> = None; // (idx, key, covering, d)
            for (i, r) in entries.iter().enumerate() {
                let d = dist.distance(&r.pivot, &entry.seq);
                let covering = d <= r.radius;
                let key = if covering { d } else { d - r.radius };
                let better = match best {
                    None => true,
                    Some((_, bk, bc, _)) => (covering && !bc) || (covering == bc && key < bk),
                };
                if better {
                    best = Some((i, key, covering, d));
                }
            }
            let (idx, _, covering, d) = best.expect("internal node is never empty");
            if !covering {
                entries[idx].radius = d;
            }
            entry.parent_dist = d;
            let split = insert_rec(&mut entries[idx].child, entry, dist, capacity, policy, rng);
            if let Some((mut e1, mut e2)) = split {
                // Replace entry idx with the two promoted entries.
                entries.swap_remove(idx);
                e1.parent_dist = 0.0;
                e2.parent_dist = 0.0;
                entries.push(e1);
                entries.push(e2);
                if entries.len() > capacity {
                    let full = std::mem::take(entries);
                    return Some(split::split_internal(full, dist, policy, rng));
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strg_distance::EgedMetric;

    fn items(n: usize) -> Vec<(u64, Vec<f64>)> {
        // Deterministic spread of scalar sequences.
        (0..n)
            .map(|i| {
                let base = (i % 10) as f64 * 50.0;
                let j = (i / 10) as f64;
                (
                    i as u64,
                    vec![base + j * 0.5, base + 1.0, base + 2.0 + j * 0.25],
                )
            })
            .collect()
    }

    fn tree(n: usize, cfg: MTreeConfig) -> MTree<f64, EgedMetric<f64>> {
        MTree::bulk_insert(EgedMetric::new(), cfg, items(n))
    }

    #[test]
    fn insert_and_count() {
        let t = tree(100, MTreeConfig::default());
        assert_eq!(t.len(), 100);
        assert!(t.height() >= 2);
        assert!(t.node_count() > 1);
    }

    #[test]
    fn covering_radii_hold() {
        for cfg in [MTreeConfig::random(1), MTreeConfig::sampling(1)] {
            let t = tree(150, cfg);
            assert!(t.check_invariants() > 0);
        }
    }

    #[test]
    fn knn_matches_linear_scan() {
        let data = items(120);
        let t = MTree::bulk_insert(EgedMetric::new(), MTreeConfig::default(), data.clone());
        let d = EgedMetric::<f64>::new();
        let q = vec![130.0, 131.0, 132.0];
        use strg_distance::SequenceDistance;
        let mut truth: Vec<(u64, f64)> = data
            .iter()
            .map(|(id, s)| (*id, d.distance(&q, s)))
            .collect();
        truth.sort_by(|a, b| a.1.total_cmp(&b.1));
        let got = t.knn(&q, 7);
        assert_eq!(got.len(), 7);
        for (n, (_, td)) in got.iter().zip(truth.iter()) {
            assert!((n.dist - td).abs() < 1e-9, "{} vs {}", n.dist, td);
        }
    }

    #[test]
    fn range_query_complete() {
        let data = items(120);
        let t = MTree::bulk_insert(EgedMetric::new(), MTreeConfig::random(3), data.clone());
        use strg_distance::SequenceDistance;
        let d = EgedMetric::<f64>::new();
        let q = vec![200.0, 201.0, 202.0];
        let r = 30.0;
        let mut expect: Vec<u64> = data
            .iter()
            .filter(|(_, s)| d.distance(&q, s) <= r)
            .map(|(id, _)| *id)
            .collect();
        expect.sort_unstable();
        let mut got: Vec<u64> = t.range(&q, r).into_iter().map(|n| n.id).collect();
        got.sort_unstable();
        assert!(!expect.is_empty());
        assert_eq!(got, expect);
    }

    #[test]
    fn knn_k_larger_than_size() {
        let t = tree(5, MTreeConfig::default());
        let got = t.knn(&[0.0, 1.0, 2.0], 50);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn empty_tree_queries() {
        let t: MTree<f64, EgedMetric<f64>> = MTree::new(EgedMetric::new(), MTreeConfig::default());
        assert!(t.is_empty());
        assert!(t.knn(&[1.0], 3).is_empty());
        assert!(t.range(&[1.0], 10.0).is_empty());
    }

    #[test]
    fn counting_distance_sees_fewer_than_linear() {
        use strg_distance::CountingDistance;
        let data = items(300);
        let cd = CountingDistance::new(EgedMetric::<f64>::new());
        let t = MTree::bulk_insert(cd.clone(), MTreeConfig::sampling(5), data);
        cd.reset();
        let _ = t.knn(&[100.0, 101.0, 102.0], 5);
        let calls = cd.count();
        assert!(calls > 0);
        assert!(
            calls < 300,
            "k-NN must prune: {calls} distance calls for 300 objects"
        );
    }

    #[test]
    fn query_cost_matches_counting_distance() {
        use strg_distance::CountingDistance;
        let data = items(300);
        let cd = CountingDistance::new(EgedMetric::<f64>::new());
        let t = MTree::bulk_insert(cd.clone(), MTreeConfig::sampling(5), data);
        cd.reset();
        let (hits, cost) = t.knn_with_cost(&[100.0, 101.0, 102.0], 5);
        assert_eq!(hits.len(), 5);
        assert_eq!(cost.distance_calls, cd.count());
        assert!(cost.node_accesses > 0);
        cd.reset();
        let (_, rcost) = t.range_with_cost(&[100.0, 101.0, 102.0], 25.0);
        assert_eq!(rcost.distance_calls, cd.count());
        assert!(rcost.node_accesses > 0);
    }

    #[test]
    fn results_sorted_ascending() {
        let t = tree(80, MTreeConfig::default());
        let got = t.knn(&[75.0, 76.0, 77.0], 10);
        for w in got.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }
}
