//! The STRG-Index tree (Section 5 of the paper).
//!
//! Three fixed levels:
//!
//! * **root node** — one record per Background Graph: `(iD_root, BG, ptr)`;
//! * **cluster nodes** — one record per OG cluster: `(iD_clus, OG_clus,
//!   ptr)`, where `OG_clus` is the cluster's centroid OG synthesized by EM
//!   clustering with the non-metric EGED (Section 4);
//! * **leaf nodes** — the member OGs, keyed by
//!   `EGED_M(OG_mem, OG_clus)` — a *metric* key (Theorem 2), so the
//!   triangle inequality prunes leaf scans during k-NN search.
//!
//! Construction is Algorithm 2; search is Algorithm 3 — one descent whose
//! [`QueryKind`] (k-NN or range) and [`Scope`] (every cluster, one root's,
//! or the literal algorithm's single nearest cluster) are arguments of
//! [`StrgIndex::search_into`]; leaf splits are BIC-gated per §5.3.

mod batch;
mod search;

pub use batch::BatchScratch;
pub(crate) use search::reserve_counted;
pub use search::{with_query_scratch, Hit, QueryScratch, Scope};

use strg_cluster::{bic, bic_sweep_threads, ClusterValue, Clusterer, EmClusterer, EmConfig};
use strg_distance::{
    BoundedDistance, Eged, LowerBound, MetricDistance, SeqSummary, SequenceDistance,
};
use strg_graph::BackgroundGraph;
use strg_obs::{QueryCost, Recorder};
use strg_parallel::{par_map_indexed, Threads};

use crate::query::QueryKind;

/// Configuration of the STRG-Index.
#[derive(Copy, Clone, Debug)]
pub struct StrgIndexConfig {
    /// Number of clusters per segment; `None` selects it with a BIC sweep
    /// over `1..=k_max` (§4.2).
    pub k: Option<usize>,
    /// Upper bound of the BIC sweep.
    pub k_max: usize,
    /// A leaf with more members than this is considered for a BIC-gated
    /// split on insert (§5.3).
    pub leaf_split_threshold: usize,
    /// EM iteration cap.
    pub em_max_iters: usize,
    /// EM restarts.
    pub em_n_init: usize,
    /// RNG seed for clustering.
    pub seed: u64,
    /// Worker count for segment builds (EM distance matrix, leaf keying);
    /// a search runs on the calling thread. The parallel paths return
    /// exactly what the sequential ones (`Threads::Fixed(1)`) do at any
    /// thread count.
    pub threads: Threads,
}

impl Default for StrgIndexConfig {
    fn default() -> Self {
        Self {
            k: None,
            k_max: 12,
            leaf_split_threshold: 48,
            em_max_iters: 40,
            em_n_init: 2,
            seed: 0,
            threads: Threads::Auto,
        }
    }
}

impl StrgIndexConfig {
    /// Fixed-K configuration (skips the BIC sweep).
    pub fn with_k(k: usize) -> Self {
        Self {
            k: Some(k),
            ..Self::default()
        }
    }

    /// Same configuration with a different worker-count policy.
    pub fn with_threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    fn em_config(&self, k: usize) -> EmConfig {
        let mut c = EmConfig::new(k)
            .with_seed(self.seed)
            .with_threads(self.threads);
        c.max_iters = self.em_max_iters;
        c.n_init = self.em_n_init;
        c
    }
}

/// A record of a leaf node: `(Key, OG_mem, ptr)`.
#[derive(Clone, Debug)]
pub struct LeafRecord<V> {
    /// Index key: `EGED_M(OG_mem, OG_clus)`.
    pub key: f64,
    /// Object Graph identifier (the `ptr` to the real clip is resolved by
    /// the owning [`crate::VideoDatabase`]).
    pub og_id: u64,
    /// The member OG's value sequence.
    pub seq: Vec<V>,
    /// Precomputed summary of `seq` under the index metric, feeding the
    /// admissible lower-bound filter at query time (see
    /// `strg_distance::LowerBound`). Depends only on `seq` and the metric's
    /// gap constant, so it survives leaf splits unchanged.
    pub summary: SeqSummary<V>,
}

/// A leaf node: member records sorted by key.
#[derive(Clone, Debug)]
pub struct LeafNode<V> {
    /// Records sorted ascending by `key`.
    pub records: Vec<LeafRecord<V>>,
}

impl<V> Default for LeafNode<V> {
    fn default() -> Self {
        Self {
            records: Vec::new(),
        }
    }
}

impl<V> LeafNode<V> {
    fn insert_sorted(&mut self, rec: LeafRecord<V>) {
        let pos = self.records.partition_point(|r| r.key <= rec.key);
        self.records.insert(pos, rec);
    }

    /// Sorts the records ascending by key with a *stable* sort, leaving
    /// equal keys in push order. Because [`LeafNode::insert_sorted`]
    /// places each record *after* all equal keys, pushing records in OG
    /// order and stable-sorting once yields the byte-identical layout of
    /// N repeated insertions — this is the bulk-load contract of
    /// `add_segment` (DESIGN.md §10).
    fn sort_records(&mut self) {
        self.records.sort_by(|a, b| {
            a.key
                .partial_cmp(&b.key)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }
}

/// A record of a cluster node: `(iD_clus, OG_clus, ptr)`.
#[derive(Clone, Debug)]
pub struct ClusterRecord<V> {
    /// Cluster identifier within its root record.
    pub id: u32,
    /// The centroid OG representing the cluster.
    pub centroid: Vec<V>,
    /// The leaf node holding the member OGs.
    pub leaf: LeafNode<V>,
}

/// A record of the root node: `(iD_root, BG, ptr)`.
#[derive(Clone, Debug)]
pub struct RootRecord<V> {
    /// Root record identifier (one per video segment / background).
    pub id: u32,
    /// The segment's deduplicated Background Graph.
    pub bg: BackgroundGraph,
    /// The cluster node this record points to.
    pub clusters: Vec<ClusterRecord<V>>,
}

/// The STRG-Index.
///
/// Generic over the value type of OG sequences (`f64` scalarizations or 2-D
/// centroid trajectories) and the *metric* key distance `D` (the paper's
/// `EGED_M`). Cluster formation always uses the non-metric EGED, as in
/// Section 4.
#[derive(Clone, Debug)]
pub struct StrgIndex<V, D> {
    cfg: StrgIndexConfig,
    metric: D,
    roots: Vec<RootRecord<V>>,
    len: usize,
    recorder: Option<Recorder>,
}

impl<V: ClusterValue, D: MetricDistance<V> + BoundedDistance<V> + LowerBound<V> + Sync>
    StrgIndex<V, D>
{
    /// Creates an empty index.
    pub fn new(metric: D, cfg: StrgIndexConfig) -> Self {
        Self {
            cfg,
            metric,
            roots: Vec::new(),
            len: 0,
            recorder: None,
        }
    }

    /// Reassembles an index from fully-built root records without any
    /// clustering — the STRGDB v2 fast-reopen path (`crate::persist`).
    ///
    /// The one derived field, `len`, is recounted from the records, so
    /// `from_parts(roots(build))` rebuilds `build` exactly.
    pub fn from_parts(metric: D, cfg: StrgIndexConfig, roots: Vec<RootRecord<V>>) -> Self {
        let len = roots
            .iter()
            .flat_map(|r| &r.clusters)
            .map(|c| c.leaf.records.len())
            .sum();
        Self {
            cfg,
            metric,
            roots,
            len,
            recorder: None,
        }
    }

    /// Records build statistics into `recorder`: `index.build.segments`,
    /// `index.build.clusters`, `index.build.bic_sweeps`,
    /// `index.build.inserts`, `index.build.splits`, plus the EM clusterer's
    /// `cluster.em.*` counters. All deterministic at any thread count.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// Builds the index for one video segment (Algorithm 2): cluster the
    /// OGs with EM-EGED, create one cluster record per cluster with its
    /// centroid, and fill leaves keyed by `EGED_M`. Returns the new root
    /// record id.
    pub fn add_segment(&mut self, bg: BackgroundGraph, ogs: Vec<(u64, Vec<V>)>) -> u32 {
        // Continue from the last id, not the root count: after a
        // `remove_segment` the count would hand out an id still in use.
        let root_id = self.roots.last().map_or(0, |r| r.id + 1);
        // The sequences are moved (not cloned) out of the input: clustering
        // and keying borrow them, then the bulk load below moves each one
        // into its leaf record.
        let (ids, data): (Vec<u64>, Vec<Vec<V>>) = ogs.into_iter().unzip();
        let k = match self.cfg.k {
            Some(k) => k.max(1),
            None => {
                if data.len() <= 2 {
                    1
                } else {
                    if let Some(r) = &self.recorder {
                        r.add("index.build.bic_sweeps", 1);
                    }
                    bic_sweep_threads(
                        &data,
                        &Eged,
                        1..=self.cfg.k_max.min(data.len()),
                        self.cfg.seed,
                        self.cfg.threads,
                    )
                    .0
                }
            }
        };
        let clusters = if data.is_empty() {
            Vec::new()
        } else {
            let mut em = EmClusterer::new(Eged, self.cfg.em_config(k));
            if let Some(r) = &self.recorder {
                em = em.with_recorder(r.clone());
            }
            let clustering = em.fit(&data);
            let mut clusters: Vec<ClusterRecord<V>> = clustering
                .centroids
                .iter()
                .enumerate()
                .map(|(i, c)| ClusterRecord {
                    id: i as u32,
                    centroid: c.clone(),
                    leaf: LeafNode::default(),
                })
                .collect();
            // Leaf keys and lower-bound summaries are independent per-OG
            // computations: fan both out in one pass.
            let prepared = par_map_indexed(&data, self.cfg.threads, |j, seq| {
                let c = clustering.assignments[j];
                (
                    self.metric.distance(seq, &clusters[c].centroid),
                    self.metric.summarize(seq),
                )
            });
            // Bulk load: push records per cluster in OG order, then sort
            // each leaf once — byte-identical to N sorted insertions (see
            // `LeafNode::sort_records`) at a fraction of the moves.
            for (j, ((og_id, seq), (key, summary))) in
                ids.into_iter().zip(data).zip(prepared).enumerate()
            {
                let c = clustering.assignments[j];
                let rec = LeafRecord {
                    key,
                    og_id,
                    seq,
                    summary,
                };
                clusters[c].leaf.records.push(rec);
                self.len += 1;
            }
            for c in clusters.iter_mut() {
                c.leaf.sort_records();
            }
            // Drop empty clusters, renumber.
            clusters.retain(|c| !c.leaf.records.is_empty());
            for (i, c) in clusters.iter_mut().enumerate() {
                c.id = i as u32;
            }
            clusters
        };
        if let Some(r) = &self.recorder {
            r.add("index.build.segments", 1);
            r.add("index.build.clusters", clusters.len() as u64);
        }
        self.roots.push(RootRecord {
            id: root_id,
            bg,
            clusters,
        });
        root_id
    }

    /// Inserts one OG into an existing segment: route to the closest
    /// centroid by (non-metric) EGED, key by `EGED_M`, then split the leaf
    /// if it grew past the threshold and BIC favors two clusters (§5.3).
    ///
    /// # Panics
    /// Panics if `root_id` does not exist.
    pub fn insert(&mut self, root_id: u32, og_id: u64, seq: Vec<V>) {
        let root = self
            .roots
            .iter_mut()
            .find(|r| r.id == root_id)
            .expect("unknown root record");
        if root.clusters.is_empty() {
            root.clusters.push(ClusterRecord {
                id: 0,
                centroid: seq.clone(),
                leaf: LeafNode::default(),
            });
        }
        let best = root
            .clusters
            .iter()
            .enumerate()
            .map(|(i, c)| (i, Eged.distance(&seq, &c.centroid)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i)
            .expect("at least one cluster");
        let key = self.metric.distance(&seq, &root.clusters[best].centroid);
        let summary = self.metric.summarize(&seq);
        root.clusters[best].leaf.insert_sorted(LeafRecord {
            key,
            og_id,
            seq,
            summary,
        });
        self.len += 1;
        if let Some(r) = &self.recorder {
            r.add("index.build.inserts", 1);
        }

        if root.clusters[best].leaf.records.len() > self.cfg.leaf_split_threshold {
            let before = root.clusters.len();
            split_leaf_if_bic_favors(root, best, &self.metric, &self.cfg);
            if root.clusters.len() > before {
                if let Some(r) = &self.recorder {
                    r.add("index.build.splits", 1);
                }
            }
        }
    }

    /// Removes the OG with the given id from a segment. Returns `true` if
    /// it was present. Empty leaves drop their cluster record; an empty
    /// segment keeps its root record (backgrounds outlive their objects).
    pub fn remove(&mut self, root_id: u32, og_id: u64) -> bool {
        let Some(root) = self.roots.iter_mut().find(|r| r.id == root_id) else {
            return false;
        };
        let mut removed = false;
        for c in &mut root.clusters {
            if let Some(pos) = c.leaf.records.iter().position(|r| r.og_id == og_id) {
                c.leaf.records.remove(pos);
                removed = true;
                break;
            }
        }
        if removed {
            root.clusters.retain(|c| !c.leaf.records.is_empty());
            for (i, c) in root.clusters.iter_mut().enumerate() {
                c.id = i as u32;
            }
            self.len -= 1;
        }
        removed
    }

    /// Removes a whole segment (root record and everything below it).
    /// Returns the number of OGs removed, or `None` if the root id is
    /// unknown.
    pub fn remove_segment(&mut self, root_id: u32) -> Option<usize> {
        let pos = self.roots.iter().position(|r| r.id == root_id)?;
        let removed: usize = self.roots[pos]
            .clusters
            .iter()
            .map(|c| c.leaf.records.len())
            .sum();
        self.roots.remove(pos);
        self.len -= removed;
        Some(removed)
    }

    /// Number of indexed OGs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no OGs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The root records.
    pub fn roots(&self) -> &[RootRecord<V>] {
        &self.roots
    }

    /// Configuration.
    pub fn config(&self) -> &StrgIndexConfig {
        &self.cfg
    }

    /// Total number of cluster records.
    pub fn cluster_count(&self) -> usize {
        self.roots.iter().map(|r| r.clusters.len()).sum()
    }

    /// The one search (`crate::index::search`): answers `kind` over `scope`
    /// out of a caller-owned [`QueryScratch`] arena and returns the hits —
    /// ascending by distance — as a slice into it, with the query's
    /// [`QueryCost`]. With a warmed-up arena this performs zero heap
    /// allocations (`tests/query_alloc.rs`). It runs on the calling thread,
    /// so hits and the work fields of the cost are bit-identical at any
    /// thread count.
    pub fn search_into<'s>(
        &self,
        query: &[V],
        kind: QueryKind,
        scope: Scope,
        scratch: &'s mut QueryScratch,
    ) -> (&'s [Hit], QueryCost) {
        let start = std::time::Instant::now();
        let mut cost = QueryCost::default();
        search::search_into(
            &self.roots,
            &self.metric,
            query,
            kind,
            scope,
            &mut cost,
            scratch,
        );
        cost.elapsed = start.elapsed();
        (scratch.hits(), cost)
    }

    /// [`StrgIndex::search_into`] out of this thread's arena
    /// ([`with_query_scratch`]), with the hits copied out.
    pub fn search(&self, query: &[V], kind: QueryKind, scope: Scope) -> (Vec<Hit>, QueryCost) {
        with_query_scratch(|scratch| {
            let (hits, cost) = self.search_into(query, kind, scope, scratch);
            (hits.to_vec(), cost)
        })
    }

    /// Exact k-NN over every segment (best-first over clusters, triangle
    /// pruning on leaf keys). Results ascending by distance.
    pub fn knn(&self, query: &[V], k: usize) -> Vec<Hit> {
        self.knn_with_cost(query, k).0
    }

    /// Like [`StrgIndex::knn`], but also reports the query's [`QueryCost`].
    pub fn knn_with_cost(&self, query: &[V], k: usize) -> (Vec<Hit>, QueryCost) {
        self.search(query, QueryKind::Knn(k), Scope::All)
    }

    /// [`StrgIndex::knn_with_cost`] out of a caller-owned arena.
    pub fn knn_with_cost_into<'s>(
        &self,
        query: &[V],
        k: usize,
        scratch: &'s mut QueryScratch,
    ) -> (&'s [Hit], QueryCost) {
        self.search_into(query, QueryKind::Knn(k), Scope::All, scratch)
    }

    /// The paper's Algorithm 3 as written: descend into the *single* most
    /// similar cluster and k-NN only inside its leaf. Cheaper but
    /// approximate; Figure 7c quantifies the accuracy trade-off.
    pub fn knn_single_cluster(&self, query: &[V], k: usize) -> Vec<Hit> {
        self.knn_single_cluster_with_cost(query, k).0
    }

    /// Like [`StrgIndex::knn_single_cluster`], but also reports the
    /// [`QueryCost`].
    pub fn knn_single_cluster_with_cost(&self, query: &[V], k: usize) -> (Vec<Hit>, QueryCost) {
        self.search(query, QueryKind::Knn(k), Scope::NearestCluster)
    }

    /// Range query: every OG within `radius` of `query`, ascending by
    /// distance (exact, with the same key-band pruning as [`StrgIndex::knn`]).
    pub fn range(&self, query: &[V], radius: f64) -> Vec<Hit> {
        self.range_with_cost(query, radius).0
    }

    /// Like [`StrgIndex::range`], but also reports the [`QueryCost`].
    pub fn range_with_cost(&self, query: &[V], radius: f64) -> (Vec<Hit>, QueryCost) {
        self.search(query, QueryKind::Range(radius), Scope::All)
    }

    /// [`StrgIndex::range_with_cost`] out of a caller-owned arena.
    pub fn range_with_cost_into<'s>(
        &self,
        query: &[V],
        radius: f64,
        scratch: &'s mut QueryScratch,
    ) -> (&'s [Hit], QueryCost) {
        self.search_into(query, QueryKind::Range(radius), Scope::All, scratch)
    }

    /// Size of the index per Equation (10): member OGs + centroid OGs + one
    /// BG per segment.
    pub fn size_bytes(&self) -> usize {
        let per_value = std::mem::size_of::<V>();
        let mut total = 0;
        for root in &self.roots {
            total += root.bg.approx_bytes();
            for c in &root.clusters {
                total += c.centroid.len() * per_value + std::mem::size_of::<ClusterRecord<V>>();
                for r in &c.leaf.records {
                    total += r.seq.len() * per_value + std::mem::size_of::<LeafRecord<V>>();
                }
            }
        }
        total
    }
}

/// §5.3 node split: run EM with `K = 2` on the leaf's members and keep the
/// split iff `BIC(K = 2) > BIC(K = 1)`.
fn split_leaf_if_bic_favors<V: ClusterValue, D: MetricDistance<V>>(
    root: &mut RootRecord<V>,
    cluster_idx: usize,
    metric: &D,
    cfg: &StrgIndexConfig,
) {
    if root.clusters[cluster_idx].leaf.records.len() < 4 {
        return;
    }
    // Move the member sequences out of the leaf for the trial clustering
    // instead of cloning them: on a rejected split they are restored in
    // place, on an accepted one they move into the replacement leaves.
    let mut records = std::mem::take(&mut root.clusters[cluster_idx].leaf.records);
    let data: Vec<Vec<V>> = records
        .iter_mut()
        .map(|r| std::mem::take(&mut r.seq))
        .collect();
    let em1 = EmClusterer::new(Eged, cfg.em_config(1));
    let em2 = EmClusterer::new(Eged, cfg.em_config(2));
    let c1 = em1.fit(&data);
    let c2 = em2.fit(&data);
    let rejected =
        bic(&c2, data.len()) <= bic(&c1, data.len()) || c2.k() < 2 || c2.sizes().contains(&0);
    if rejected {
        for (r, seq) in records.iter_mut().zip(data) {
            r.seq = seq;
        }
        root.clusters[cluster_idx].leaf.records = records;
        return;
    }
    // Perform the split: replace the cluster record with two.
    root.clusters.remove(cluster_idx);
    let mut new_a = ClusterRecord {
        id: 0,
        centroid: c2.centroids[0].clone(),
        leaf: LeafNode::default(),
    };
    let mut new_b = ClusterRecord {
        id: 0,
        centroid: c2.centroids[1].clone(),
        leaf: LeafNode::default(),
    };
    for (j, (rec, seq)) in records.into_iter().zip(data).enumerate() {
        let target = if c2.assignments[j] == 0 {
            &mut new_a
        } else {
            &mut new_b
        };
        let key = metric.distance(&seq, &target.centroid);
        target.leaf.insert_sorted(LeafRecord {
            key,
            og_id: rec.og_id,
            seq,
            summary: rec.summary,
        });
    }
    root.clusters.push(new_a);
    root.clusters.push(new_b);
    for (i, c) in root.clusters.iter_mut().enumerate() {
        c.id = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strg_distance::EgedMetric;
    use strg_graph::BackgroundGraph;

    fn bg() -> BackgroundGraph {
        BackgroundGraph::default()
    }

    /// Three separated groups of scalar sequences.
    fn grouped_ogs() -> Vec<(u64, Vec<f64>)> {
        let mut out = Vec::new();
        let mut id = 0u64;
        for g in 0..3 {
            let base = 100.0 * g as f64;
            for i in 0..12 {
                out.push((id, vec![base + 0.3 * i as f64, base + 1.0, base + 2.0]));
                id += 1;
            }
        }
        out
    }

    fn build() -> StrgIndex<f64, EgedMetric<f64>> {
        let mut idx = StrgIndex::new(EgedMetric::new(), StrgIndexConfig::default());
        idx.add_segment(bg(), grouped_ogs());
        idx
    }

    /// Bulk sort-once leaf loading (`sort_records`) lays records out exactly
    /// like one-at-a-time `insert_sorted`, including duplicate keys, where
    /// stability is what keeps the push order.
    #[test]
    fn sort_records_matches_insert_sorted_with_duplicate_keys() {
        let metric = EgedMetric::<f64>::new();
        let keys = [3.0, 1.0, 3.0, 2.0, 1.0, 3.0, 0.5, 2.0];
        let rec = |(i, &key): (usize, &f64)| LeafRecord {
            key,
            og_id: i as u64,
            seq: vec![key],
            summary: metric.summarize(&[key]),
        };
        let mut bulk = LeafNode::default();
        let mut incremental = LeafNode::default();
        for r in keys.iter().enumerate().map(rec) {
            bulk.records.push(r.clone());
            incremental.insert_sorted(r);
        }
        bulk.sort_records();
        let layout = |leaf: &LeafNode<f64>| -> Vec<(u64, f64)> {
            leaf.records.iter().map(|r| (r.og_id, r.key)).collect()
        };
        assert_eq!(layout(&bulk), layout(&incremental));
        assert_eq!(layout(&bulk)[..3], [(6, 0.5), (1, 1.0), (4, 1.0)]);
    }

    #[test]
    fn build_creates_three_levels() {
        let idx = build();
        assert_eq!(idx.len(), 36);
        assert_eq!(idx.roots().len(), 1);
        assert!(idx.cluster_count() >= 3, "BIC should find >= 3 clusters");
        // Leaf keys sorted.
        for root in idx.roots() {
            for c in &root.clusters {
                for w in c.leaf.records.windows(2) {
                    assert!(w[0].key <= w[1].key);
                }
            }
        }
    }

    #[test]
    fn fixed_k_respected() {
        let mut idx = StrgIndex::new(EgedMetric::new(), StrgIndexConfig::with_k(3));
        idx.add_segment(bg(), grouped_ogs());
        assert_eq!(idx.cluster_count(), 3);
    }

    #[test]
    fn keys_are_metric_distances_to_centroid() {
        let idx = build();
        let m = EgedMetric::<f64>::new();
        for root in idx.roots() {
            for c in &root.clusters {
                for r in &c.leaf.records {
                    let d = m.distance(&r.seq, &c.centroid);
                    assert!((d - r.key).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn knn_exact_matches_linear_scan() {
        let idx = build();
        let data = grouped_ogs();
        let m = EgedMetric::<f64>::new();
        let q = vec![105.0, 106.0, 107.0];
        let mut truth: Vec<(u64, f64)> = data
            .iter()
            .map(|(id, s)| (*id, m.distance(&q, s)))
            .collect();
        truth.sort_by(|a, b| a.1.total_cmp(&b.1));
        let hits = idx.knn(&q, 5);
        assert_eq!(hits.len(), 5);
        for (h, t) in hits.iter().zip(&truth) {
            assert!((h.dist - t.1).abs() < 1e-9);
        }
    }

    #[test]
    fn insert_grows_and_stays_sorted() {
        let mut idx = build();
        idx.insert(0, 1000, vec![101.0, 102.0, 103.0]);
        assert_eq!(idx.len(), 37);
        let hits = idx.knn(&[101.0, 102.0, 103.0], 1);
        assert_eq!(hits[0].og_id, 1000);
        assert!(hits[0].dist < 1e-9);
    }

    #[test]
    fn bic_gated_split_on_insert() {
        // Build with K = 1 so everything lands in one leaf, with a low
        // split threshold; inserting separated data must trigger a split.
        let mut cfg = StrgIndexConfig::with_k(1);
        cfg.leaf_split_threshold = 10;
        let mut idx = StrgIndex::new(EgedMetric::new(), cfg);
        let root = idx.add_segment(bg(), Vec::new());
        let mut id = 0u64;
        for g in 0..2 {
            let base = 300.0 * g as f64;
            for i in 0..8 {
                idx.insert(root, id, vec![base + i as f64 * 0.2, base + 1.0]);
                id += 1;
            }
        }
        assert!(
            idx.cluster_count() >= 2,
            "separated groups past threshold must split: {}",
            idx.cluster_count()
        );
        assert_eq!(idx.len(), 16);
    }

    #[test]
    fn split_does_not_fire_on_homogeneous_leaf() {
        let mut cfg = StrgIndexConfig::with_k(1);
        cfg.leaf_split_threshold = 10;
        let mut idx = StrgIndex::new(EgedMetric::new(), cfg);
        let root = idx.add_segment(bg(), Vec::new());
        for i in 0..20 {
            // Identical sequences: no split can improve the likelihood
            // enough to beat the BIC parameter penalty.
            idx.insert(root, i, vec![50.0, 51.0]);
        }
        assert_eq!(idx.cluster_count(), 1, "homogeneous data must not split");
    }

    #[test]
    fn multi_segment_roots() {
        let mut idx = StrgIndex::new(EgedMetric::new(), StrgIndexConfig::with_k(2));
        let r0 = idx.add_segment(bg(), grouped_ogs());
        let r1 = idx.add_segment(bg(), grouped_ogs());
        assert_eq!(idx.roots().len(), 2);
        assert_ne!(r0, r1);
        // Root-restricted search only sees its own OGs.
        let q = vec![0.0, 1.0, 2.0];
        let (hits, _) = idx.search(&q, QueryKind::Knn(40), Scope::Root(r1));
        assert_eq!(hits.len(), 36);
        assert!(hits.iter().all(|h| h.root_id == r1));
    }

    #[test]
    fn size_accounting_smaller_than_strg() {
        // Equation 9 vs 10: the index stores ONE bg; the raw STRG carries
        // it per frame.
        let idx = build();
        let index_size = idx.size_bytes();
        let n_frames = 100usize;
        let strg_size: usize = index_size + (n_frames - 1) * idx.roots()[0].bg.approx_bytes();
        assert!(index_size < strg_size);
    }

    #[test]
    fn remove_og_and_requery() {
        let mut idx = build();
        let n = idx.len();
        // Remove the exact 1-NN of a query; the next query must return a
        // different OG.
        let q = vec![100.0, 101.0, 102.0];
        let first = idx.knn(&q, 1)[0].og_id;
        assert!(idx.remove(0, first));
        assert_eq!(idx.len(), n - 1);
        let second = idx.knn(&q, 1)[0].og_id;
        assert_ne!(first, second);
        // Removing again is a no-op.
        assert!(!idx.remove(0, first));
        assert!(!idx.remove(99, second), "unknown root");
    }

    #[test]
    fn removing_all_members_drops_cluster() {
        let mut idx = StrgIndex::new(EgedMetric::new(), StrgIndexConfig::with_k(2));
        let items: Vec<(u64, Vec<f64>)> = vec![
            (0, vec![0.0, 1.0]),
            (1, vec![0.5, 1.5]),
            (2, vec![500.0, 501.0]),
            (3, vec![500.5, 501.5]),
        ];
        idx.add_segment(bg(), items);
        assert_eq!(idx.cluster_count(), 2);
        assert!(idx.remove(0, 2));
        assert!(idx.remove(0, 3));
        assert_eq!(idx.cluster_count(), 1, "empty cluster dropped");
        assert_eq!(idx.len(), 2);
        let hits = idx.knn(&[500.0, 501.0], 4);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn remove_segment_drops_everything() {
        let mut idx = StrgIndex::new(EgedMetric::new(), StrgIndexConfig::with_k(2));
        let r0 = idx.add_segment(bg(), grouped_ogs());
        let r1 = idx.add_segment(bg(), grouped_ogs());
        assert_eq!(idx.len(), 72);
        assert_eq!(idx.remove_segment(r0), Some(36));
        assert_eq!(idx.len(), 36);
        assert_eq!(idx.roots().len(), 1);
        assert_eq!(idx.roots()[0].id, r1);
        assert_eq!(idx.remove_segment(99), None);
    }

    #[test]
    fn empty_segment_build() {
        let mut idx = StrgIndex::new(EgedMetric::<f64>::new(), StrgIndexConfig::default());
        let r = idx.add_segment(bg(), Vec::new());
        assert!(idx.is_empty());
        assert!(idx.knn(&[1.0], 3).is_empty());
        idx.insert(r, 7, vec![1.0, 2.0]);
        assert_eq!(idx.knn(&[1.0], 3).len(), 1);
    }
}
