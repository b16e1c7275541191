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
#![forbid(unsafe_code)]

mod node;
mod query;
mod split;

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use strg_distance::{MetricDistance, SeqValue};
use strg_obs::QueryCost;

use node::{Entry, LeafEntry, Node, RoutingEntry};
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
    /// Every node of the tree; a routing entry's `child` indexes it.
    nodes: Vec<Node<V>>,
    root: u32,
    rng: StdRng,
    len: usize,
}

impl<V: SeqValue, D: MetricDistance<V>> MTree<V, D> {
    /// Creates an empty tree.
    pub fn new(dist: D, cfg: MTreeConfig) -> Self {
        Self {
            dist,
            cfg,
            nodes: vec![Node::Leaf(Vec::new())],
            root: 0,
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
        self.nodes.len()
    }

    /// Height of the tree (1 for a single leaf).
    pub fn height(&self) -> usize {
        self.height_below(self.root)
    }

    fn height_below(&self, n: u32) -> usize {
        match &self.nodes[n as usize] {
            Node::Leaf(_) => 1,
            Node::Internal(es) => {
                1 + es
                    .iter()
                    .map(|r| self.height_below(r.child))
                    .max()
                    .unwrap_or(0)
            }
        }
    }

    /// The distance the tree was built with.
    pub fn distance(&self) -> &D {
        &self.dist
    }

    /// Inserts an object. The descent takes one routing entry per level
    /// and records the path; the ascent then splits every over-full node
    /// on it, bottom up, growing a new root when the root splits.
    pub fn insert(&mut self, id: u64, seq: Vec<V>) {
        let summary = self.dist.summarize(&seq);
        let mut entry = LeafEntry {
            id,
            seq,
            parent_dist: 0.0,
            summary,
        };
        // `(node, slot)` of every routing entry taken, root first.
        let mut path: Vec<(u32, usize)> = Vec::new();
        let mut node = self.root;
        while let Node::Internal(entries) = &mut self.nodes[node as usize] {
            // Prefer a covering pivot at minimal distance, else minimal
            // radius enlargement; the first such entry on a tie.
            let (slot, d) = entries
                .iter()
                .map(|r| {
                    let d = self.dist.distance(&r.pivot, &entry.seq);
                    (d, d > r.radius, if d > r.radius { d - r.radius } else { d })
                })
                .enumerate()
                .min_by(|(_, a), (_, b)| a.1.cmp(&b.1).then(a.2.total_cmp(&b.2)))
                .map(|(slot, (d, ..))| (slot, d))
                .expect("internal node is never empty");
            let r = &mut entries[slot];
            r.radius = r.radius.max(d);
            entry.parent_dist = d;
            path.push((node, slot));
            node = r.child;
        }
        let Node::Leaf(entries) = &mut self.nodes[node as usize] else {
            unreachable!("the descent ends at a leaf")
        };
        entries.push(entry);
        self.len += 1;

        while self.nodes[node as usize].len() > self.cfg.node_capacity {
            let mut promoted = self.split(node);
            let Some((parent, slot)) = path.pop() else {
                self.root = self.next_index();
                self.nodes.push(Node::Internal(promoted.into()));
                return;
            };
            // The promoted entries' parent distances are to the pivot
            // pointing at `parent`; the root's entries have none.
            if let Some(&(above, above_slot)) = path.last() {
                let Node::Internal(es) = &self.nodes[above as usize] else {
                    unreachable!("a path node is internal")
                };
                for e in &mut promoted {
                    e.parent_dist = self.dist.distance(&es[above_slot].pivot, &e.pivot);
                }
            }
            let Node::Internal(entries) = &mut self.nodes[parent as usize] else {
                unreachable!("a path node is internal")
            };
            entries.swap_remove(slot);
            entries.extend(promoted);
            node = parent;
        }
    }

    /// Splits node `n` in two: the first half stays at `n`, the second
    /// becomes a new node. Returns the routing entries for both, which
    /// replace the one pointing at `n`.
    fn split(&mut self, n: u32) -> [RoutingEntry<V>; 2] {
        let children = [n, self.next_index()];
        let full = std::mem::replace(&mut self.nodes[n as usize], Node::Leaf(Vec::new()));
        let (dist, policy, rng) = (&self.dist, self.cfg.policy, &mut self.rng);
        let [(r1, n1), (r2, n2)] = match full {
            Node::Leaf(es) => split::split(es, children, dist, policy, rng),
            Node::Internal(es) => split::split(es, children, dist, policy, rng),
        };
        self.nodes[n as usize] = n1;
        self.nodes.push(n2);
        [r1, r2]
    }

    fn next_index(&self) -> u32 {
        u32::try_from(self.nodes.len()).expect("M-tree node count fits in u32")
    }

    /// k-nearest-neighbor query; results sorted by ascending distance.
    pub fn knn(&self, query: &[V], k: usize) -> Vec<Neighbor> {
        self.knn_with_cost(query, k).0
    }

    /// Like [`MTree::knn`], but also reports the query's [`QueryCost`]
    /// (distance calls, node accesses, pruned entries, wall-clock).
    pub fn knn_with_cost(&self, query: &[V], k: usize) -> (Vec<Neighbor>, QueryCost) {
        self.search(query, k, f64::INFINITY)
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
        self.search_into(query, k, f64::INFINITY, scratch)
    }

    /// Range query: every object within `radius` of `query`.
    pub fn range(&self, query: &[V], radius: f64) -> Vec<Neighbor> {
        self.range_with_cost(query, radius).0
    }

    /// Like [`MTree::range`], but also reports the query's [`QueryCost`].
    pub fn range_with_cost(&self, query: &[V], radius: f64) -> (Vec<Neighbor>, QueryCost) {
        self.search(query, usize::MAX, radius)
    }

    /// Like [`MTree::range_with_cost`], but runs out of a caller-owned
    /// [`MtreeScratch`] arena (see [`MTree::knn_with_cost_into`]).
    pub fn range_with_cost_into<'s>(
        &self,
        query: &[V],
        radius: f64,
        scratch: &'s mut MtreeScratch,
    ) -> (&'s [Neighbor], QueryCost) {
        self.search_into(query, usize::MAX, radius, scratch)
    }

    /// [`MTree::search_into`] in this thread's arena, the answer copied out.
    fn search(&self, query: &[V], k: usize, radius: f64) -> (Vec<Neighbor>, QueryCost) {
        with_mtree_scratch(|scratch| {
            let (hits, cost) = self.search_into(query, k, radius, scratch);
            (hits.to_vec(), cost)
        })
    }

    /// The one timed search behind every query: the best `k` objects
    /// within `radius` (a k-NN passes `radius = ∞`, a range search `k =
    /// usize::MAX`), ascending by (distance, id).
    fn search_into<'s>(
        &self,
        query: &[V],
        k: usize,
        radius: f64,
        scratch: &'s mut MtreeScratch,
    ) -> (&'s [Neighbor], QueryCost) {
        let start = Instant::now();
        let mut cost = QueryCost::default();
        query::search_into(self, query, k, radius, &mut cost, scratch);
        cost.elapsed = start.elapsed();
        (scratch.neighbors(), cost)
    }

    /// Verifies every routing entry: its covering radius bounds the
    /// distance from its pivot to every object below it, and each entry
    /// of its child stores its exact distance to the pivot (relative
    /// 1e-9) as its parent distance. Returns the number of routing entries
    /// checked. Test/debug helper; panics on a violation.
    pub fn check_invariants(&self) -> usize {
        let mut checked = 0;
        for node in &self.nodes {
            let Node::Internal(entries) = node else {
                continue;
            };
            for r in entries {
                match &self.nodes[r.child as usize] {
                    Node::Leaf(es) => self.check_parent_dists(&r.pivot, es),
                    Node::Internal(es) => self.check_parent_dists(&r.pivot, es),
                }
                let max_d = self.max_dist_below(&r.pivot, r.child);
                assert!(
                    max_d <= r.radius + 1e-9,
                    "covering radius violated: {max_d} > {}",
                    r.radius
                );
                checked += 1;
            }
        }
        checked
    }

    fn check_parent_dists(&self, pivot: &[V], entries: &[impl Entry<V>]) {
        for e in entries {
            let (stored, real) = (e.parent_dist(), self.dist.distance(pivot, e.object()));
            assert!(
                (stored - real).abs() <= 1e-9 * real,
                "stale parent distance: {stored} stored, {real} real"
            );
        }
    }

    fn max_dist_below(&self, pivot: &[V], n: u32) -> f64 {
        match &self.nodes[n as usize] {
            Node::Leaf(es) => es
                .iter()
                .map(|e| self.dist.distance(pivot, &e.seq))
                .fold(0.0, f64::max),
            Node::Internal(es) => es
                .iter()
                .map(|r| self.max_dist_below(pivot, r.child))
                .fold(0.0, f64::max),
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

    fn scalars(vals: &[f64], cfg: MTreeConfig) -> MTree<f64, EgedMetric<f64>> {
        let items = vals.iter().enumerate().map(|(i, &v)| (i as u64, vec![v]));
        MTree::bulk_insert(EgedMetric::new(), cfg, items.collect())
    }

    fn capacity(node_capacity: usize, cfg: MTreeConfig) -> MTreeConfig {
        MTreeConfig {
            node_capacity,
            ..cfg
        }
    }

    /// The root's routing entries; panics on a leaf root.
    fn root_entries<D>(t: &MTree<f64, D>) -> &[RoutingEntry<f64>] {
        match &t.nodes[t.root as usize] {
            Node::Internal(es) => es,
            Node::Leaf(_) => panic!("expected an internal root"),
        }
    }

    #[test]
    fn single_leaf_counts() {
        let t = tree(3, MTreeConfig::default());
        assert_eq!((t.len(), t.node_count(), t.height()), (3, 1, 1));
        assert_eq!(t.nodes[t.root as usize].len(), 3);
    }

    #[test]
    fn first_split_grows_a_root_over_two_leaves() {
        let t = tree(17, MTreeConfig::default());
        assert_eq!((t.len(), t.node_count(), t.height()), (17, 3, 2));
        // The split leaf keeps index 0; its second half and the new root
        // are appended.
        assert_eq!(t.root, 2);
        let children: Vec<u32> = root_entries(&t).iter().map(|r| r.child).collect();
        assert_eq!(children, [0, 1]);
        assert_eq!(t.nodes[0].len() + t.nodes[1].len(), 17);
    }

    #[test]
    fn sampled_split_separates_the_two_groups() {
        let vals = [0.0, 1.0, 2.0, 100.0, 101.0, 102.0];
        let cfg = capacity(5, MTreeConfig::default());
        let t = scalars(
            &vals,
            MTreeConfig {
                policy: PromotePolicy::Sampling { samples: 6 },
                ..cfg
            },
        );
        let root = root_entries(&t);
        let members: usize = root.iter().map(|r| t.nodes[r.child as usize].len()).sum();
        assert_eq!((root.len(), members), (2, 6));
        let radii: Vec<f64> = root.iter().map(|r| r.radius).collect();
        assert!(radii.iter().all(|&r| r <= 2.0), "radii {radii:?}");
        assert_eq!(t.check_invariants(), 2);
    }

    #[test]
    fn random_split_still_covers() {
        let t = scalars(
            &[0.0, 5.0, 10.0, 50.0, 55.0],
            capacity(4, MTreeConfig::random(7)),
        );
        assert_eq!(t.check_invariants(), 2);
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
