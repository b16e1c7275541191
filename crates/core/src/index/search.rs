//! STRG-Index search (§5, Algorithm 3): one descent, one leaf scan.
//!
//! Every query is the same walk — root records → cluster records →
//! key-ordered leaves, pruned by `|key − EGED_M(q, centroid)|` — and
//! [`search_into`] is its only entry. What varies is data, not code:
//!
//! * the [`QueryKind`] is the cutoff and what accepting a record means:
//!   `Knn(k)` prunes against `d_k` of the running best list, which shrinks
//!   as the scan goes, and keeps the best `k`; `Range(r)` prunes against
//!   the constant `r` and keeps everything it accepts;
//! * the [`Scope`] is which leaves may be opened: every cluster (exact,
//!   what Figure 7b counts), the clusters of the root record at one
//!   position (after Algorithm 3's background match, or for a named clip:
//!   a shard's clip `i` owns its root `i`), or only the nearest centroid's
//!   leaf — the literal Algorithm 3, approximate, Figure 7c.
//!
//! **The exact scopes evaluate centroids lazily** (DESIGN.md §9 "Lazy
//! centroid pass"). The cluster scan ([`gather_cands_into`]) computes no
//! distance: each cluster's bound is the smallest admissible summary lower
//! bound over its members, read from the summaries the leaf records
//! already store. A k-NN visits clusters best-first by that bound and
//! stops at the first one above `d_k`; a range search skips each cluster
//! whose bound exceeds the radius. A one-record leaf is then evaluated
//! directly — its centroid could prune nothing the member's own bounded
//! evaluation does not — and only a longer leaf pays one `EGED_M(q,
//! centroid)` for its triangle test and key band; a k-NN defers such a
//! leaf while its triangle bound exceeds the next cluster's key.
//! [`Scope::NearestCluster`] needs the argmin, so it still evaluates every
//! centroid in scope.
//!
//! Every search threads a [`QueryCost`] and runs on the calling thread:
//! nothing inside a tree forks, so **logical cost is physical cost at every
//! thread count** and a [`strg_distance::CountingDistance`] observes
//! `distance_calls` exactly (DESIGN.md §7 "What forks inside a query").
//!
//! Refinement is filtered and bounded (DESIGN.md §9): before evaluating a
//! band record the scan checks an admissible summary lower bound against
//! the current cutoff (charging `lb_pruned` on exclusion), and the
//! evaluation itself runs through `distance_upto` with the cutoff so the DP
//! can abandon early (charging `early_abandoned`, still within
//! `distance_calls`). Both shortcuts are exact; `tests/kernel_equivalence.rs`
//! pins the hits to a linear `metric.distance` scan, so an inadmissible
//! bound or an over-eager abandon surfaces as a hit-list difference. The
//! key band itself is widened by a rounding slack ([`widened`]), because
//! the triangle inequality it rests on holds for the reals, not for three
//! separately rounded DP sums.
//!
//! Every search runs out of a reusable [`QueryScratch`] arena (candidate
//! list, hit buffers, sort permutation), so steady-state queries perform
//! **zero heap allocations** at any thread count — proven by
//! `tests/query_alloc.rs` (DESIGN.md §13).

use std::cell::RefCell;

use strg_distance::{MetricDistance, SeqSummary, SeqValue};
use strg_obs::QueryCost;

use super::{ClusterRecord, LeafRecord, RootRecord};
use crate::query::QueryKind;

/// One search result.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Hit {
    /// Position of the root record (segment) the OG belongs to.
    pub root_id: u32,
    /// Position of the cluster record within its root.
    pub cluster_id: u32,
    /// The member OG identifier.
    pub og_id: u64,
    /// Distance to the query under the index's metric.
    pub dist: f64,
}

/// Which leaves a search may open.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Every cluster of every root record: the exact search, as the paper
    /// runs it for background-free queries.
    All,
    /// Only the clusters of the root record at this position (Algorithm 3
    /// step 2, after background matching, or an explicit clip). Exact
    /// within that segment; a position past the last root finds nothing and
    /// costs nothing.
    Root(u32),
    /// Only the leaf of the single most similar centroid — Algorithm 3 as
    /// written. Cheaper but approximate: every other leaf is charged to
    /// `pruned` unopened (Figure 7c quantifies the accuracy trade-off).
    NearestCluster,
}

/// A cluster candidate gathered during the cluster scan. Plain positional
/// indices into the roots slice (not references), so the candidate list
/// can live in a [`QueryScratch`] that outlives any one query.
#[derive(Copy, Clone, Debug)]
struct Cand {
    /// Position of the root in the roots slice.
    root_idx: u32,
    /// Position of the cluster within its root.
    cluster_idx: u32,
    /// Smallest summary lower bound over the leaf's records: no member is
    /// nearer the query than this (infinite for an empty leaf).
    bound: f64,
    /// A k-NN's visit order: `bound`, raised to the key-range triangle
    /// bound once the centroid distance is known.
    key: f64,
    /// `EGED_M(q, centroid)`, once evaluated.
    centroid_dist: Option<f64>,
}

/// Reusable per-thread search arena: every buffer the hot path needs,
/// grown to its high-water mark and reused across queries. After warm-up a
/// query allocates nothing (`tests/query_alloc.rs`).
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Gathered cluster candidates (the cluster scan).
    cands: Vec<Cand>,
    /// Sort permutation for the final range ordering.
    order: Vec<u32>,
    /// Double buffer applying that permutation.
    hits_tmp: Vec<Hit>,
    /// The result list (best-k for k-NN, every accepted hit for range).
    hits: Vec<Hit>,
}

impl QueryScratch {
    /// An empty arena (buffers grow on first use).
    pub const fn new() -> Self {
        Self {
            cands: Vec::new(),
            order: Vec::new(),
            hits_tmp: Vec::new(),
            hits: Vec::new(),
        }
    }

    /// The hits of the last search, ascending by distance.
    pub fn hits(&self) -> &[Hit] {
        &self.hits
    }
}

thread_local! {
    static QUERY_SCRATCH: RefCell<QueryScratch> = const { RefCell::new(QueryScratch::new()) };
}

/// Runs `f` with this thread's search arena — the long-lived workers of the
/// serve pool each converge on their own warmed-up arena. Reentrant calls
/// fall back to a fresh local arena rather than panicking on the borrow.
pub fn with_query_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    QUERY_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut QueryScratch::new()),
    })
}

fn cluster<'r, V>(roots: &'r [RootRecord<V>], cand: &Cand) -> &'r ClusterRecord<V> {
    &roots[cand.root_idx as usize].clusters[cand.cluster_idx as usize]
}

fn total_records<V>(roots: &[RootRecord<V>], cands: &[Cand]) -> usize {
    cands
        .iter()
        .map(|c| cluster(roots, c).leaf.records.len())
        .sum()
}

/// The cluster scan (the cluster-node level of Algorithm 3): one candidate
/// per cluster record of the roots in scope, which start at position
/// `first`, in root/cluster order, into the arena's candidate buffer. It
/// reads structure only and computes no distance.
fn gather_cands_into<V>(
    first: usize,
    in_scope: &[RootRecord<V>],
    cost: &mut QueryCost,
    scratch: &mut QueryScratch,
) {
    let cands = &mut scratch.cands;
    let n_cands: usize = in_scope.iter().map(|r| r.clusters.len()).sum();
    cands.clear();
    cands.reserve(n_cands);
    for (ri, root) in in_scope.iter().enumerate() {
        cands.extend((0..root.clusters.len()).map(|ci| Cand {
            root_idx: (first + ri) as u32,
            cluster_idx: ci as u32,
            bound: 0.0,
            key: 0.0,
            centroid_dist: None,
        }));
    }
    // One root-node access per visited root record, one cluster-node access
    // per cluster record scanned.
    cost.node_accesses += (in_scope.len() + n_cands) as u64;
}

/// Relative rounding slack of the triangle tests. `EGED_M` is a sum of at
/// most `m + n` ground distances along the cheapest alignment; each term
/// carries a few units of rounding (`u = 2⁻⁵³`) and each addition one
/// more, and because every term is non-negative the bound survives the
/// DP's `min`: a computed distance is its real value times `1 ± γ` with
/// `γ ≤ (m + n + 3)·u`. The key band compares three such values. For a
/// record within the cutoff (`d ≤ c`) the real inequalities
/// `|key − cd| ≤ d` and `key ≤ cd + d` give, to first order,
/// `|key − cd| − c ≤ γ·(key + cd + d) ≤ 2γ·(cd + c)` on the computed ones.
/// `1e-9` covers `2γ` up to `m + n` = 4.5 million elements — no O(m·n) DP
/// that size is ever run — and is the relative margin DESIGN.md §9's
/// deflation already gives away on the summary bound.
const ROUNDING_SLACK: f64 = 1e-9;

/// `cutoff` as a triangle test through a centroid at `centroid_dist` may
/// apply it: widened by [`ROUNDING_SLACK`], so that a record the bounded
/// kernel would accept is never excluded by its key. Infinite stays
/// infinite.
fn widened(centroid_dist: f64, cutoff: f64) -> f64 {
    cutoff + ROUNDING_SLACK * (centroid_dist + cutoff)
}

/// What a record must beat right now: `d_k` of the running best list
/// (infinite until it holds `k`), or the radius.
fn cutoff(kind: QueryKind, hits: &[Hit]) -> f64 {
    match kind {
        QueryKind::Knn(k) if hits.len() < k => f64::INFINITY,
        QueryKind::Knn(k) => hits[k - 1].dist,
        QueryKind::Range(radius) => radius,
    }
}

/// The search: the cluster scan over `scope`, then the leaves it may open.
/// The hits land in [`QueryScratch::hits`], ascending by distance (ties in
/// visit order); `cost` is charged so that `distance_calls + pruned +
/// lb_pruned` covers every record and centroid in scope exactly once.
/// `Knn(0)` asks for nothing and charges nothing.
///
/// The exact scopes run [`visit_lazily`]; [`Scope::NearestCluster`] runs
/// [`visit_nearest`]. A range search's final order is `(dist, visit
/// position)`, and it visits in root/cluster order. Everything runs on the
/// calling thread, so the result and the cost are the same at every
/// thread count.
pub fn search_into<V: SeqValue, D: MetricDistance<V>>(
    roots: &[RootRecord<V>],
    metric: &D,
    query: &[V],
    kind: QueryKind,
    scope: Scope,
    cost: &mut QueryCost,
    scratch: &mut QueryScratch,
) {
    scratch.hits.clear();
    if kind == QueryKind::Knn(0) {
        return;
    }
    let qsum = metric.summarize(query);
    let (first, in_scope) = match scope {
        Scope::Root(p) => {
            let p = p as usize;
            (p, roots.get(p..=p).unwrap_or(&[]))
        }
        Scope::All | Scope::NearestCluster => (0, roots),
    };
    gather_cands_into(first, in_scope, cost, scratch);
    let QueryScratch { cands, hits, .. } = scratch;
    // One slot of headroom, so a k-NN's insert-then-truncate never
    // reallocates.
    let records = total_records(roots, cands);
    let room = match kind {
        QueryKind::Knn(k) => k.min(records) + 1,
        QueryKind::Range(_) => records,
    };
    hits.reserve(room);
    let probe = Probe {
        metric,
        query,
        qsum: &qsum,
        kind,
    };
    match scope {
        Scope::All | Scope::Root(_) => visit_lazily(roots, &probe, cands, hits, cost),
        Scope::NearestCluster => visit_nearest(roots, &probe, cands, hits, cost),
    }
    if let QueryKind::Range(_) = kind {
        sort_hits_stable(scratch);
    }
}

/// What every step of one search reads: the metric, the query with its
/// summary, and the kind.
struct Probe<'a, V: SeqValue, D> {
    metric: &'a D,
    query: &'a [V],
    qsum: &'a SeqSummary,
    kind: QueryKind,
}

impl<V: SeqValue, D: MetricDistance<V>> Probe<'_, V, D> {
    /// The admissible summary lower bound on `d(query, record)`.
    fn lower_bound(&self, record: &LeafRecord<V>) -> f64 {
        self.metric
            .lower_bound(self.query, self.qsum, &record.summary)
    }
}

/// The exact scopes' visit. Each cluster is first bounded by its members'
/// stored summaries (no distance). A k-NN then opens clusters best-first
/// by that bound and stops at the first one above `d_k`: the bounds ascend
/// and `d_k` never grows. A range search keeps root/cluster order and
/// skips each cluster whose bound exceeds the radius.
///
/// An opened cluster costs at most one centroid evaluation. A one-record
/// leaf needs none: the member is refined directly. A longer leaf pays
/// `EGED_M(q, centroid)` for the widened triangle test over its key range
/// and, if that passes, the key band of [`visit_leaf`]. A k-NN whose
/// triangle bound turns out above the next cluster's key defers the leaf
/// instead: it moves back in the visit order under that bound, and by the
/// time its turn comes `d_k` may exclude it. An unevaluated centroid is
/// charged to `pruned`; so are the records of clusters a k-NN never
/// reaches, while a range cluster cut by its bound charges its records to
/// `lb_pruned`.
fn visit_lazily<V: SeqValue, D: MetricDistance<V>>(
    roots: &[RootRecord<V>],
    probe: &Probe<'_, V, D>,
    cands: &mut [Cand],
    hits: &mut Vec<Hit>,
    cost: &mut QueryCost,
) {
    for cand in cands.iter_mut() {
        cand.bound = cluster(roots, cand)
            .leaf
            .records
            .iter()
            .map(|r| probe.lower_bound(r))
            .fold(f64::INFINITY, f64::min);
        cand.key = cand.bound;
    }
    let best_first = matches!(probe.kind, QueryKind::Knn(_));
    if best_first {
        sort_cands(cands);
    }
    let mut i = 0;
    while i < cands.len() {
        let cand = cands[i];
        let c = cluster(roots, &cand);
        let records = &c.leaf.records;
        let cutoff_now = cutoff(probe.kind, hits);
        if let Some(centroid_dist) = cand.centroid_dist {
            open_leaf(records, probe, centroid_dist, &cand, hits, cost);
        } else if cand.bound > cutoff_now && best_first {
            // Every unevaluated cluster left is bounded at least as far
            // away. A deferred one is keyed by its triangle bound, which
            // excludes only through the widened test.
            for rest in &cands[i..] {
                let records = &cluster(roots, rest).leaf.records;
                match rest.centroid_dist {
                    Some(cd) => open_leaf(records, probe, cd, rest, hits, cost),
                    None => cost.pruned += 1 + records.len() as u64,
                }
            }
            return;
        } else if cand.bound > cutoff_now {
            cost.pruned += 1;
            cost.lb_pruned += records.len() as u64;
        } else {
            match records.as_slice() {
                // Nothing to find, so no centroid worth evaluating.
                [] => cost.pruned += 1,
                // Its centroid could prune nothing the member's own bounded
                // evaluation does not.
                [only] => {
                    cost.pruned += 1;
                    cost.node_accesses += 1;
                    refine(only, probe, cutoff_now, &cand, hits, cost);
                }
                _ => {
                    cost.distance_calls += 1;
                    let centroid_dist = probe.metric.distance(probe.query, &c.centroid);
                    let lower = key_range_bound(records, centroid_dist);
                    if best_first && cands.get(i + 1).is_some_and(|next| next.key < lower) {
                        // Back into the order under the tighter key; ties
                        // go after the keys already there.
                        let key = lower.max(cand.bound);
                        cands[i].key = key;
                        cands[i].centroid_dist = Some(centroid_dist);
                        let end = i + 1 + cands[i + 1..].partition_point(|x| x.key <= key);
                        cands[i..end].rotate_left(1);
                        continue;
                    }
                    open_leaf(records, probe, centroid_dist, &cand, hits, cost);
                }
            }
        }
        i += 1;
    }
}

/// A leaf of two or more records whose centroid distance is known: either
/// bound may exclude it at the current cutoff (for a deferred leaf, `d_k`
/// has moved since); otherwise its key band is scanned.
fn open_leaf<V: SeqValue, D: MetricDistance<V>>(
    records: &[LeafRecord<V>],
    probe: &Probe<'_, V, D>,
    centroid_dist: f64,
    cand: &Cand,
    hits: &mut Vec<Hit>,
    cost: &mut QueryCost,
) {
    let cutoff_now = cutoff(probe.kind, hits);
    if cand.bound > cutoff_now
        || key_range_bound(records, centroid_dist) > widened(centroid_dist, cutoff_now)
    {
        cost.pruned += records.len() as u64;
    } else {
        visit_leaf(records, probe, centroid_dist, cand, hits, cost);
    }
}

/// Any member m satisfies `d(q, m) ≥ |d(q, centroid) − key(m)|`, and the
/// keys of a non-empty leaf span `[first.key, last.key]`: the distance of
/// `centroid_dist` to that range bounds every member (before the rounding
/// slack [`widened`] gives back).
fn key_range_bound<V>(records: &[LeafRecord<V>], centroid_dist: f64) -> f64 {
    let (min_key, max_key) = (records[0].key, records[records.len() - 1].key);
    if centroid_dist < min_key {
        min_key - centroid_dist
    } else if centroid_dist > max_key {
        centroid_dist - max_key
    } else {
        0.0
    }
}

/// [`Scope::NearestCluster`], the literal Algorithm 3: every centroid in
/// scope is evaluated in root/cluster order, and only the first nearest
/// one's leaf is visited. Every other leaf is charged to `pruned`
/// unopened.
fn visit_nearest<V: SeqValue, D: MetricDistance<V>>(
    roots: &[RootRecord<V>],
    probe: &Probe<'_, V, D>,
    cands: &[Cand],
    hits: &mut Vec<Hit>,
    cost: &mut QueryCost,
) {
    cost.distance_calls += cands.len() as u64;
    let mut nearest: Option<(&Cand, f64)> = None;
    for cand in cands {
        let d = probe
            .metric
            .distance(probe.query, &cluster(roots, cand).centroid);
        // Strict `<`: ties keep the earlier cluster.
        if nearest.is_none_or(|(_, best)| d < best) {
            nearest = Some((cand, d));
        }
    }
    let Some((cand, centroid_dist)) = nearest else {
        return;
    };
    let records = &cluster(roots, cand).leaf.records;
    visit_leaf(records, probe, centroid_dist, cand, hits, cost);
    cost.pruned += (total_records(roots, cands) - records.len()) as u64;
}

/// The leaf scan behind a centroid at `centroid_dist`. Members satisfy
/// `|key − d(q, centroid)| ≤ d(q, m)` (Theorem 2), so only the key band
/// within the cutoff of `centroid_dist` can hold an answer:
/// binary-search its lower end, walk up while the key stays inside,
/// summary lower bound, then [`refine`]. The cutoff is re-read per
/// record: a k-NN's band narrows as `d_k` improves, a range's never moves.
/// Keys ascend and the cutoff only shrinks, so the first key above the
/// band ends the scan and everything past it is pruned in bulk.
fn visit_leaf<V: SeqValue, D: MetricDistance<V>>(
    records: &[LeafRecord<V>],
    probe: &Probe<'_, V, D>,
    centroid_dist: f64,
    cand: &Cand,
    hits: &mut Vec<Hit>,
    cost: &mut QueryCost,
) {
    let kind = probe.kind;
    cost.node_accesses += 1;
    let band = widened(centroid_dist, cutoff(kind, hits));
    let lo = records.partition_point(|r| r.key < centroid_dist - band);
    let mut reached = records.len();
    for (i, r) in records.iter().enumerate().skip(lo) {
        let cutoff_now = cutoff(kind, hits);
        let band = widened(centroid_dist, cutoff_now);
        if r.key > centroid_dist + band {
            reached = i;
            break;
        }
        // Below a band that narrowed since `lo` was taken.
        if r.key < centroid_dist - band {
            cost.pruned += 1;
            continue;
        }
        // Summary lower bound: excluded without touching the sequence.
        if probe.lower_bound(r) > cutoff_now {
            cost.lb_pruned += 1;
            continue;
        }
        refine(r, probe, cutoff_now, cand, hits, cost);
    }
    cost.pruned += (lo + records.len() - reached) as u64;
}

/// The step every admitted record ends in: one bounded evaluation at
/// `cutoff_now`, then acceptance — a sorted insert into the best `k`, or a
/// push for a range.
fn refine<V: SeqValue, D: MetricDistance<V>>(
    record: &LeafRecord<V>,
    probe: &Probe<'_, V, D>,
    cutoff_now: f64,
    cand: &Cand,
    hits: &mut Vec<Hit>,
    cost: &mut QueryCost,
) {
    cost.distance_calls += 1;
    let Some(dist) = probe
        .metric
        .distance_upto(probe.query, &record.seq, cutoff_now)
    else {
        cost.early_abandoned += 1;
        return;
    };
    let hit = Hit {
        root_id: cand.root_idx,
        cluster_id: cand.cluster_idx,
        og_id: record.og_id,
        dist,
    };
    match probe.kind {
        // After every equal distance, so ties keep discovery order; a tie
        // with a full list's `d_k` lands past `k` and is dropped.
        QueryKind::Knn(k) => {
            hits.insert(hits.partition_point(|h| h.dist <= dist), hit);
            hits.truncate(k);
        }
        QueryKind::Range(_) => hits.push(hit),
    }
}

/// Orders gathered candidates by key (their summary bound). Unstable sort
/// with a total positional tie-break: the gather pushes candidates in
/// strictly increasing (root_idx, cluster_idx) order, so this reproduces
/// the stable sort-by-key order without the stable sort's temporary buffer.
fn sort_cands(cands: &mut [Cand]) {
    cands.sort_unstable_by(|a, b| {
        a.key
            .total_cmp(&b.key)
            .then(a.root_idx.cmp(&b.root_idx))
            .then(a.cluster_idx.cmp(&b.cluster_idx))
    });
}

/// Final range ordering: stable-order sort without a stable sort's
/// allocation — an unstable index sort keyed (dist, original position) is
/// the same order, applied through the arena's permutation + double buffer.
fn sort_hits_stable(scratch: &mut QueryScratch) {
    let QueryScratch {
        hits,
        order,
        hits_tmp,
        ..
    } = scratch;
    order.clear();
    order.reserve(hits.len());
    order.extend(0..hits.len() as u32);
    order.sort_unstable_by(|&i, &j| {
        hits[i as usize]
            .dist
            .total_cmp(&hits[j as usize].dist)
            .then(i.cmp(&j))
    });
    hits_tmp.clear();
    hits_tmp.reserve(hits.len());
    hits_tmp.extend(order.iter().map(|&i| hits[i as usize]));
    std::mem::swap(hits, hits_tmp);
}

#[cfg(test)]
mod tests {
    use super::{QueryScratch, Scope};
    use crate::index::{StrgIndex, StrgIndexConfig};
    use crate::query::QueryKind;
    use strg_distance::{CountingDistance, EgedMetric, SequenceDistance};
    use strg_graph::BackgroundGraph;
    use strg_obs::QueryCost;
    use strg_parallel::Threads;

    fn dataset() -> Vec<(u64, Vec<f64>)> {
        let mut out = Vec::new();
        let mut id = 0;
        for g in 0..4 {
            let base = 80.0 * g as f64;
            for i in 0..15 {
                out.push((id, vec![base + 0.4 * i as f64, base + 1.0, base + 2.0]));
                id += 1;
            }
        }
        out
    }

    const KINDS: [QueryKind; 6] = [
        QueryKind::Knn(1),
        QueryKind::Knn(5),
        QueryKind::Knn(60),
        QueryKind::Range(0.0),
        QueryKind::Range(20.0),
        QueryKind::Range(1e6),
    ];

    #[test]
    fn exact_knn_prunes_distance_calls() {
        let cd = CountingDistance::new(EgedMetric::<f64>::new());
        let mut idx = StrgIndex::new(cd.clone(), StrgIndexConfig::with_k(4));
        idx.add_segment(BackgroundGraph::default(), dataset());
        cd.reset();
        let hits = idx.knn(&[82.0, 83.0, 84.0], 5);
        assert_eq!(hits.len(), 5);
        let calls = cd.count();
        assert!(calls < 60, "pruning expected: {calls} calls for 60 OGs");
        assert!(calls >= 5);
    }

    #[test]
    fn single_cluster_subset_of_exact() {
        let mut idx = StrgIndex::new(EgedMetric::<f64>::new(), StrgIndexConfig::with_k(4));
        idx.add_segment(BackgroundGraph::default(), dataset());
        let q = vec![161.0, 162.0, 163.0];
        let exact = idx.knn(&q, 5);
        let approx = idx.knn_single_cluster(&q, 5);
        assert_eq!(approx.len(), 5);
        // Approximate results can never beat the exact ones.
        for (a, e) in approx.iter().zip(&exact) {
            assert!(a.dist + 1e-12 >= e.dist);
        }
        // On well-separated data they agree.
        let ids_e: Vec<u64> = exact.iter().map(|h| h.og_id).collect();
        let ids_a: Vec<u64> = approx.iter().map(|h| h.og_id).collect();
        assert_eq!(ids_e, ids_a);
    }

    #[test]
    fn range_matches_linear_scan() {
        let data = dataset();
        let mut idx = StrgIndex::new(EgedMetric::<f64>::new(), StrgIndexConfig::with_k(4));
        idx.add_segment(BackgroundGraph::default(), data.clone());
        let m = EgedMetric::<f64>::new();
        let q = vec![81.0, 82.0, 83.0];
        for radius in [0.0, 10.0, 100.0, 1e6] {
            let mut expect: Vec<u64> = data
                .iter()
                .filter(|(_, s)| m.distance(&q, s) <= radius)
                .map(|(id, _)| *id)
                .collect();
            expect.sort_unstable();
            let mut got: Vec<u64> = idx.range(&q, radius).into_iter().map(|h| h.og_id).collect();
            got.sort_unstable();
            assert_eq!(got, expect, "radius {radius}");
        }
        // Sorted ascending.
        let hits = idx.range(&q, 1e6);
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn range_prunes_distance_calls() {
        let cd = CountingDistance::new(EgedMetric::<f64>::new());
        let mut idx = StrgIndex::new(cd.clone(), StrgIndexConfig::with_k(4));
        idx.add_segment(BackgroundGraph::default(), dataset());
        cd.reset();
        let hits = idx.range(&[81.0, 82.0, 83.0], 20.0);
        assert!(!hits.is_empty());
        assert!(cd.count() < 60, "pruned: {} calls", cd.count());
    }

    /// Every (kind, scope) pair at 1, 2 and 8 workers: hits bit for bit,
    /// the same logical work, and every record and centroid in scope
    /// accounted exactly once — on two roots, so `Root` really narrows.
    #[test]
    fn every_kind_and_scope_is_thread_invariant() {
        let build = |threads| {
            let cfg = StrgIndexConfig::with_k(4).with_threads(Threads::Fixed(threads));
            let mut idx = StrgIndex::new(EgedMetric::<f64>::new(), cfg);
            idx.add_segment(BackgroundGraph::default(), dataset());
            let shifted = dataset()
                .into_iter()
                .map(|(id, s)| (id + 100, vec![s[0] + 7.0, s[1], s[2]]));
            idx.add_segment(BackgroundGraph::default(), shifted.collect());
            idx
        };
        let idxs = [1, 2, 8].map(build);
        let queries = [
            vec![82.0, 83.0, 84.0],
            vec![0.0, 0.0, 0.0],
            vec![161.0, 162.0, 163.0],
            vec![500.0, 1.0, 2.0],
        ];
        for q in &queries {
            for kind in KINDS {
                for scope in [Scope::All, Scope::Root(1), Scope::NearestCluster] {
                    let ctx = format!("{q:?} {kind:?} {scope:?}");
                    let (hits, cost) = idxs[0].search(q, kind, scope);
                    let in_scope = match scope {
                        Scope::Root(r) => &idxs[0].roots()[r as usize..=r as usize],
                        _ => idxs[0].roots(),
                    };
                    let clusters: usize = in_scope.iter().map(|r| r.clusters.len()).sum();
                    assert_eq!(
                        cost.distance_calls + cost.pruned + cost.lb_pruned,
                        (60 * in_scope.len() + clusters) as u64,
                        "{ctx}: conservation"
                    );
                    assert!(cost.early_abandoned <= cost.distance_calls, "{ctx}");
                    if let (QueryKind::Knn(k), Scope::All | Scope::Root(_)) = (kind, scope) {
                        assert_eq!(hits.len(), k.min(60 * in_scope.len()), "{ctx}");
                        // Pruning survives at any worker count: far below
                        // a scan of the records in scope.
                        if k == 5 {
                            assert!(cost.distance_calls < 60, "{ctx}: {cost:?}");
                        }
                    }
                    for par in &idxs[1..] {
                        let (other, other_cost) = par.search(q, kind, scope);
                        assert_eq!(hits, other, "{ctx}: hits");
                        assert!(hits
                            .iter()
                            .zip(&other)
                            .all(|(a, b)| a.dist.to_bits() == b.dist.to_bits()));
                        assert!(
                            cost.same_work(&other_cost),
                            "{ctx}: {cost:?} vs {other_cost:?}"
                        );
                    }
                }
            }
        }
    }

    /// What `QueryCost` charges is what a counting metric physically
    /// observes, at any worker count — with a leaf long enough (≥ 64
    /// records) that a forking scan would show.
    #[test]
    fn logical_cost_is_physical_cost_at_any_thread_count() {
        let data: Vec<(u64, Vec<f64>)> = (0..96)
            .map(|i| (i, vec![1.5 * i as f64, 2.0, 3.0 + (i % 7) as f64]))
            .collect();
        for threads in [1, 2, 8] {
            let cd = CountingDistance::new(EgedMetric::<f64>::new());
            let cfg = StrgIndexConfig::with_k(1).with_threads(Threads::Fixed(threads));
            let mut idx = StrgIndex::new(cd.clone(), cfg);
            idx.add_segment(BackgroundGraph::default(), data.clone());
            assert!(idx.roots()[0].clusters[0].leaf.records.len() >= 64);
            for q in [
                vec![40.0, 2.5, 6.0],
                vec![0.0, 0.0, 0.0],
                vec![500.0, 1.0, 2.0],
            ] {
                for kind in KINDS {
                    for scope in [Scope::All, Scope::NearestCluster] {
                        cd.reset();
                        let (_, cost) = idx.search(&q, kind, scope);
                        assert_eq!(
                            cost.distance_calls,
                            cd.count(),
                            "{kind:?} {scope:?} at {threads} threads"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn query_cost_matches_counting_distance_sequential() {
        let cd = CountingDistance::new(EgedMetric::<f64>::new());
        let mut idx = StrgIndex::new(
            cd.clone(),
            StrgIndexConfig::with_k(4).with_threads(Threads::Fixed(1)),
        );
        idx.add_segment(BackgroundGraph::default(), dataset());
        for q in [
            vec![82.0, 83.0, 84.0],
            vec![0.0, 0.0, 0.0],
            vec![500.0, 1.0, 2.0],
        ] {
            for k in [1, 5, 60] {
                cd.reset();
                let (_, cost) = idx.knn_with_cost(&q, k);
                assert_eq!(cost.distance_calls, cd.count(), "knn k={k}");
                cd.reset();
                let (_, cost) = idx.knn_single_cluster_with_cost(&q, k);
                assert_eq!(cost.distance_calls, cd.count(), "single k={k}");
            }
            for radius in [0.0, 20.0, 1e6] {
                cd.reset();
                let (_, cost) = idx.range_with_cost(&q, radius);
                assert_eq!(cost.distance_calls, cd.count(), "range r={radius}");
            }
        }
    }

    #[test]
    fn query_cost_identical_across_thread_counts() {
        let build = |threads| {
            let mut idx = StrgIndex::new(
                EgedMetric::<f64>::new(),
                StrgIndexConfig::with_k(4).with_threads(threads),
            );
            idx.add_segment(BackgroundGraph::default(), dataset());
            idx
        };
        let seq = build(Threads::Fixed(1));
        for threads in [2, 8] {
            let par = build(Threads::Fixed(threads));
            for q in [
                vec![82.0, 83.0, 84.0],
                vec![0.0, 0.0, 0.0],
                vec![161.0, 162.0, 163.0],
            ] {
                for k in [1, 5, 60] {
                    let (_, a) = seq.knn_with_cost(&q, k);
                    let (_, b) = par.knn_with_cost(&q, k);
                    assert!(a.same_work(&b), "knn k={k}: {a:?} vs {b:?}");
                    let (_, a) = seq.knn_single_cluster_with_cost(&q, k);
                    let (_, b) = par.knn_single_cluster_with_cost(&q, k);
                    assert!(a.same_work(&b), "single k={k}: {a:?} vs {b:?}");
                }
                for radius in [0.0, 20.0, 1e6] {
                    let (_, a) = seq.range_with_cost(&q, radius);
                    let (_, b) = par.range_with_cost(&q, radius);
                    assert!(a.same_work(&b), "range r={radius}: {a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn query_cost_accounts_every_leaf_record() {
        // distance_calls + pruned + lb_pruned covers every leaf record in
        // the index (evaluated or excluded), for both knn and range.
        let mut idx = StrgIndex::new(EgedMetric::<f64>::new(), StrgIndexConfig::with_k(4));
        idx.add_segment(BackgroundGraph::default(), dataset());
        let n = idx.len() as u64;
        let centroids = idx.cluster_count() as u64;
        let (_, cost) = idx.knn_with_cost(&[82.0, 83.0, 84.0], 5);
        assert_eq!(
            cost.distance_calls + cost.pruned + cost.lb_pruned,
            n + centroids
        );
        assert!(cost.early_abandoned <= cost.distance_calls);
        let (_, cost) = idx.range_with_cost(&[82.0, 83.0, 84.0], 20.0);
        assert_eq!(
            cost.distance_calls + cost.pruned + cost.lb_pruned,
            n + centroids
        );
        assert!(cost.early_abandoned <= cost.distance_calls);
    }

    #[test]
    fn bounded_kernels_reduce_refined_work() {
        // The filter-and-refine machinery must actually fire on clustered
        // data: some in-band candidates are excluded by the summary bound
        // or abandoned mid-DP, and the number of *completed* full DPs
        // (distance_calls - early_abandoned) stays well below the record
        // count.
        let mut idx = StrgIndex::new(EgedMetric::<f64>::new(), StrgIndexConfig::with_k(4));
        idx.add_segment(BackgroundGraph::default(), dataset());
        let (hits, cost) = idx.knn_with_cost(&[82.0, 83.0, 84.0], 5);
        assert_eq!(hits.len(), 5);
        assert!(
            cost.lb_pruned + cost.early_abandoned > 0,
            "no candidate filtered or abandoned: {cost:?}"
        );
        assert!(cost.distance_calls - cost.early_abandoned < idx.len() as u64);
    }

    #[test]
    fn k_zero_and_empty() {
        let empty = StrgIndex::new(EgedMetric::<f64>::new(), StrgIndexConfig::default());
        assert!(empty.knn(&[1.0], 5).is_empty());
        assert!(empty.knn_single_cluster(&[1.0], 5).is_empty());
        // `k = 0` asks for nothing and costs nothing, on every scope.
        let mut idx = StrgIndex::new(EgedMetric::<f64>::new(), StrgIndexConfig::with_k(4));
        idx.add_segment(BackgroundGraph::default(), dataset());
        for scope in [Scope::All, Scope::Root(0), Scope::NearestCluster] {
            let (hits, cost) = idx.search(&[1.0], QueryKind::Knn(0), scope);
            assert!(hits.is_empty());
            assert!(cost.same_work(&QueryCost::default()), "{scope:?}: {cost:?}");
        }
    }

    #[test]
    fn hits_report_cluster_and_root() {
        let mut idx = StrgIndex::new(EgedMetric::<f64>::new(), StrgIndexConfig::with_k(4));
        idx.add_segment(BackgroundGraph::default(), dataset());
        let hits = idx.knn(&[0.5, 1.5, 2.5], 3);
        for h in &hits {
            assert_eq!(h.root_id, 0);
            let leaf = &idx.roots()[0].clusters[h.cluster_id as usize].leaf;
            assert!(leaf.records.iter().any(|r| r.og_id == h.og_id));
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_answers() {
        let mut idx = StrgIndex::new(
            EgedMetric::<f64>::new(),
            StrgIndexConfig::with_k(4).with_threads(Threads::Fixed(1)),
        );
        idx.add_segment(BackgroundGraph::default(), dataset());
        let mut scratch = QueryScratch::new();
        let queries = [
            vec![82.0, 83.0, 84.0],
            vec![0.0, 0.0, 0.0],
            vec![161.0, 162.0, 163.0],
        ];
        let warm = |s: &mut QueryScratch| {
            let mut total = 0usize;
            for q in &queries {
                let hits = idx.knn(q, 5);
                let (into, _) = idx.knn_with_cost_into(q, 5, s);
                assert_eq!(hits, into, "arena results match Vec results");
                total += hits.len();
                total += idx.range_with_cost_into(q, 40.0, s).0.len();
            }
            total
        };
        // Allocation-freedom at steady state is `tests/query_alloc.rs`'s.
        let a = warm(&mut scratch);
        let b = warm(&mut scratch);
        assert_eq!(a, b);
    }
}
