//! STRG-Index k-NN search (Algorithm 3).
//!
//! Two flavors:
//!
//! * [`knn`] — exact best-first search over cluster records: clusters are
//!   visited in order of a triangle-inequality lower bound derived from the
//!   centroid distance and the leaf's key range, and within a leaf only the
//!   key band `|key - d(q, centroid)| <= d_k` is evaluated. This is the
//!   search Figure 7b's distance-computation counts are about.
//! * [`knn_single_cluster`] — the literal Algorithm 3: pick the single most
//!   similar centroid and scan only its leaf (approximate; Figure 7c).
//!
//! Every search threads a [`QueryCost`]. The counts are *logical*: they
//! charge the work of the sequential decision sequence (which the parallel
//! path replays over precomputed values), so they are bit-identical at any
//! thread count and — at `Threads::Fixed(1)` — equal to the physical call
//! count a [`strg_distance::CountingDistance`] observes. Speculative
//! evaluations the parallel k-NN band performs beyond what the adaptive
//! sequential scan needs are intentionally *not* charged (see DESIGN.md §8).
//!
//! Refinement is filtered and bounded (DESIGN.md §9): before evaluating a
//! band record the search checks an admissible summary lower bound against
//! the current cutoff (charging `lb_pruned` on exclusion), and the
//! evaluation itself runs through `distance_upto` with the cutoff so the DP
//! can abandon early (charging `early_abandoned`, still within
//! `distance_calls`). Both shortcuts are exact; `tests/kernel_equivalence.rs`
//! pins the hits to a linear `metric.distance` scan, so an inadmissible
//! bound or an over-eager abandon surfaces as a hit-list difference.
//!
//! Every search runs out of a reusable [`QueryScratch`] arena (candidate
//! list, hit buffers, sort permutation), so sequential steady-state queries
//! perform **zero heap allocations** — proven by `tests/query_alloc.rs`.
//! The `Vec`-returning entry points borrow a thread-local arena and copy
//! the hits out; the `*_into` variants expose the arena directly
//! (DESIGN.md §13). The parallel paths still allocate inside
//! `strg_parallel::par_map` (job boxes and result vectors), which is why
//! the zero-alloc contract is stated for `Threads::Fixed(1)`.
//!
//! The public entry points resolve their [`Threads`] policy once and pass
//! `Threads::Fixed(n)` down, so `Threads::Auto` costs one environment read
//! per query rather than one per visited leaf; and a leaf's key band is
//! fanned out only when it holds at least `PAR_BAND_MIN` records.

use std::cell::RefCell;

use strg_distance::{BoundedDistance, LowerBound, MetricDistance, SeqSummary, SeqValue};
use strg_obs::QueryCost;
use strg_parallel::{par_map, Threads};

use super::RootRecord;

/// One search result.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Hit {
    /// Root record (segment) the OG belongs to.
    pub root_id: u32,
    /// Cluster record within the root.
    pub cluster_id: u32,
    /// The member OG identifier.
    pub og_id: u64,
    /// Distance to the query under the index's metric.
    pub dist: f64,
}

/// Shortest key band worth a hand-off to the pool. Waking a parked helper
/// costs the forking thread about as much as a dozen bounded DP
/// evaluations, so a shorter band is scanned by the adaptive sequential
/// loop instead — which for k-NN also skips the speculative evaluations
/// the frozen band would have paid for. Logical costs are path-independent,
/// so the rule changes no count. Chosen by measurement (DESIGN.md §7 "The
/// band rule"); depends on nothing but the band's length.
const PAR_BAND_MIN: usize = 16;

/// A cluster candidate gathered during pass 1. Plain positional indices
/// into the roots slice (not references), so the candidate list can live in
/// a [`QueryScratch`] that outlives any one query.
#[derive(Copy, Clone, Debug)]
struct Cand {
    /// Position of the root in the roots slice.
    root_idx: u32,
    /// Position of the cluster within its root.
    cluster_idx: u32,
    root_id: u32,
    cluster_id: u32,
    centroid_dist: f64,
    lower: f64,
}

/// Reusable per-thread search arena: every buffer the k-NN/range hot path
/// needs, grown to its high-water mark and reused across queries. After
/// warm-up a sequential query allocates nothing (`tests/query_alloc.rs`).
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// `(root_idx, cluster_idx)` staging for the parallel centroid fan-out.
    refs: Vec<(u32, u32)>,
    /// Gathered cluster candidates (pass 1).
    cands: Vec<Cand>,
    /// In-band survivor indices of the lower-bound filter.
    survivors: Vec<u32>,
    /// Sort permutation for the final range ordering.
    order: Vec<u32>,
    /// Double buffer applying that permutation.
    hits_tmp: Vec<Hit>,
    /// The result list (`best` for knn, `out` for range).
    hits: Vec<Hit>,
    /// Number of times a buffer had to grow (0 in steady state).
    grows: u64,
}

impl QueryScratch {
    /// An empty arena (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) const fn empty() -> Self {
        Self {
            refs: Vec::new(),
            cands: Vec::new(),
            survivors: Vec::new(),
            order: Vec::new(),
            hits_tmp: Vec::new(),
            hits: Vec::new(),
            grows: 0,
        }
    }

    /// The hits of the last `*_into` search, ascending by distance.
    pub fn hits(&self) -> &[Hit] {
        &self.hits
    }

    /// Number of buffer growth events since construction — stops moving
    /// once the arena reaches its high-water mark.
    pub fn grow_events(&self) -> u64 {
        self.grows
    }

    /// Bytes currently reserved across all buffers.
    pub fn alloc_bytes(&self) -> usize {
        self.refs.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.cands.capacity() * std::mem::size_of::<Cand>()
            + self.survivors.capacity() * std::mem::size_of::<u32>()
            + self.order.capacity() * std::mem::size_of::<u32>()
            + (self.hits_tmp.capacity() + self.hits.capacity()) * std::mem::size_of::<Hit>()
    }
}

thread_local! {
    static QUERY_SCRATCH: RefCell<QueryScratch> = const { RefCell::new(QueryScratch::empty()) };
}

/// Runs `f` with this thread's search arena — the long-lived workers of the
/// serve pool each converge on their own warmed-up arena. Reentrant calls
/// fall back to a fresh local arena rather than panicking on the borrow.
pub fn with_query_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    QUERY_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut QueryScratch::empty()),
    })
}

/// Reserves room for `need` elements, charging the arena's growth counter
/// only when the reservation actually enlarges the buffer.
pub(crate) fn reserve_counted<T>(v: &mut Vec<T>, need: usize, grows: &mut u64) {
    if v.capacity() < need {
        *grows += 1;
        v.reserve(need - v.len());
    }
}

fn leaf_len<V>(roots: &[RootRecord<V>], cand: &Cand) -> u64 {
    roots[cand.root_idx as usize].clusters[cand.cluster_idx as usize]
        .leaf
        .records
        .len() as u64
}

/// Pass 1 of the exact searches: distance to every centroid (the
/// cluster-node scan of Algorithm 3) plus a triangle lower bound per leaf.
/// Sequentially this is one allocation-free double loop into the arena's
/// candidate buffer; in parallel the centroid distances fan out over the
/// workers via the arena's `(root, cluster)` staging, coming back in
/// root/cluster order exactly as the sequential loop gathers them.
fn gather_cands_into<V: SeqValue, D: MetricDistance<V> + Sync>(
    roots: &[RootRecord<V>],
    metric: &D,
    query: &[V],
    root_filter: Option<u32>,
    threads: Threads,
    cost: &mut QueryCost,
    scratch: &mut QueryScratch,
) {
    let included = |root: &&RootRecord<V>| root_filter.is_none_or(|r| r == root.id);
    let mut visited_roots = 0u64;
    let mut n_cands = 0usize;
    for root in roots.iter().filter(included) {
        visited_roots += 1;
        n_cands += root.clusters.len();
    }
    let eval = |c: &super::ClusterRecord<V>| {
        let d = metric.distance(query, &c.centroid);
        // Any member m satisfies d(q, m) >= |d(q, centroid) - key(m)|;
        // keys span [min_key, max_key].
        let min_key = c.leaf.records.first().map_or(0.0, |r| r.key);
        let max_key = c.leaf.max_key();
        let lower = if d < min_key {
            min_key - d
        } else if d > max_key {
            d - max_key
        } else {
            0.0
        };
        (d, lower)
    };
    scratch.cands.clear();
    reserve_counted(&mut scratch.cands, n_cands, &mut scratch.grows);
    if threads.is_sequential() {
        for (ri, root) in roots.iter().enumerate() {
            if !included(&root) {
                continue;
            }
            for (ci, c) in root.clusters.iter().enumerate() {
                let (centroid_dist, lower) = eval(c);
                scratch.cands.push(Cand {
                    root_idx: ri as u32,
                    cluster_idx: ci as u32,
                    root_id: root.id,
                    cluster_id: c.id,
                    centroid_dist,
                    lower,
                });
            }
        }
    } else {
        scratch.refs.clear();
        reserve_counted(&mut scratch.refs, n_cands, &mut scratch.grows);
        for (ri, root) in roots.iter().enumerate() {
            if !included(&root) {
                continue;
            }
            for ci in 0..root.clusters.len() {
                scratch.refs.push((ri as u32, ci as u32));
            }
        }
        let computed = par_map(&scratch.refs, threads, |&(ri, ci)| {
            eval(&roots[ri as usize].clusters[ci as usize])
        });
        for (&(ri, ci), (centroid_dist, lower)) in scratch.refs.iter().zip(computed) {
            let root = &roots[ri as usize];
            scratch.cands.push(Cand {
                root_idx: ri,
                cluster_idx: ci,
                root_id: root.id,
                cluster_id: root.clusters[ci as usize].id,
                centroid_dist,
                lower,
            });
        }
    }
    // One root-node access per visited root record, one cluster-node access
    // and one centroid distance per cluster record scanned.
    cost.node_accesses += visited_roots + n_cands as u64;
    cost.distance_calls += n_cands as u64;
}

/// Exact k-NN. `root_filter` restricts the search to one root record when
/// the query carried a matching background (Algorithm 3 step 2); `None`
/// searches every cluster node, as the paper does for background-free
/// queries.
///
/// The result is identical at every thread count. With `threads <= 1` the
/// leaf scan is the fully adaptive sequential one: the key band shrinks
/// with every improvement of `d_k`, which minimizes distance evaluations
/// (Figure 7b). The parallel path freezes the band at the `d_k` held on
/// *entering* the cluster — a superset of the records the sequential scan
/// evaluates — fans the evaluations out, then replays the adaptive
/// predicates in record order over the precomputed distances, so the
/// surviving hits (and all tie-breaks) match the sequential path exactly.
pub fn knn<V: SeqValue, D: MetricDistance<V> + BoundedDistance<V> + LowerBound<V> + Sync>(
    roots: &[RootRecord<V>],
    metric: &D,
    query: &[V],
    k: usize,
    root_filter: Option<u32>,
    threads: Threads,
    cost: &mut QueryCost,
) -> Vec<Hit> {
    with_query_scratch(|scratch| {
        knn_into(roots, metric, query, k, root_filter, threads, cost, scratch);
        scratch.hits().to_vec()
    })
}

/// [`knn`] into a caller-owned arena; the hits land in
/// [`QueryScratch::hits`], ascending by distance.
#[allow(clippy::too_many_arguments)]
pub fn knn_into<V: SeqValue, D: MetricDistance<V> + BoundedDistance<V> + LowerBound<V> + Sync>(
    roots: &[RootRecord<V>],
    metric: &D,
    query: &[V],
    k: usize,
    root_filter: Option<u32>,
    threads: Threads,
    cost: &mut QueryCost,
    scratch: &mut QueryScratch,
) {
    scratch.hits.clear();
    if k == 0 {
        return;
    }
    let threads = Threads::Fixed(threads.resolve());
    let qsum = metric.summarize(query);
    gather_cands_into(roots, metric, query, root_filter, threads, cost, scratch);
    sort_cands(&mut scratch.cands);

    let total_records: usize = scratch
        .cands
        .iter()
        .map(|c| leaf_len(roots, c) as usize)
        .sum();
    // `best` lives in scratch.hits: sorted ascending, len <= k, with one
    // slot of headroom so the insert-then-truncate never reallocates.
    reserve_counted(
        &mut scratch.hits,
        k.min(total_records) + 1,
        &mut scratch.grows,
    );
    for ci in 0..scratch.cands.len() {
        let cand = scratch.cands[ci];
        if !knn_visit_cand(
            roots,
            metric,
            query,
            &qsum,
            k,
            threads,
            cand,
            &mut scratch.hits,
            cost,
        ) {
            // Clusters are sorted by lower bound: this and every remaining
            // candidate's leaf records are excluded without evaluation.
            cost.pruned += scratch.cands[ci..]
                .iter()
                .map(|c| leaf_len(roots, c))
                .sum::<u64>();
            break;
        }
    }
}

/// Orders gathered candidates by triangle lower bound. Unstable sort with a
/// total positional tie-break: the gather pushes candidates in strictly
/// increasing (root_idx, cluster_idx) order, so this reproduces the stable
/// sort-by-lower-bound order without the stable sort's temporary buffer.
fn sort_cands(cands: &mut [Cand]) {
    cands.sort_unstable_by(|a, b| {
        a.lower
            .total_cmp(&b.lower)
            .then(a.root_idx.cmp(&b.root_idx))
            .then(a.cluster_idx.cmp(&b.cluster_idx))
    });
}

/// One best-first k-NN step: visits `cand`'s leaf with the cutoff implied
/// by the current `hits`, updating `hits` and `cost` exactly as the
/// sequential candidate loop of [`knn_into`] does. Returns `false` —
/// charging nothing — when `cand.lower` exceeds the cutoff: candidates are
/// visited in lower-bound order, so the caller then bulk-prunes this and
/// every remaining leaf and stops the query.
#[allow(clippy::too_many_arguments)]
fn knn_visit_cand<V: SeqValue, D: MetricDistance<V> + BoundedDistance<V> + LowerBound<V> + Sync>(
    roots: &[RootRecord<V>],
    metric: &D,
    query: &[V],
    qsum: &SeqSummary<V>,
    k: usize,
    threads: Threads,
    cand: Cand,
    hits: &mut Vec<Hit>,
    cost: &mut QueryCost,
) -> bool {
    let dk = if hits.len() < k {
        f64::INFINITY
    } else {
        hits[k - 1].dist
    };
    if cand.lower > dk {
        return false;
    }
    cost.node_accesses += 1; // the candidate's leaf node

    // Key-band scan: records outside |key - d_q| <= dk cannot qualify.
    let records = &roots[cand.root_idx as usize].clusters[cand.cluster_idx as usize]
        .leaf
        .records;
    let lo = records.partition_point(|r| r.key < cand.centroid_dist - dk);
    cost.pruned += lo as u64;
    // Parallel path: evaluate the dk-at-entry band up front. It covers
    // every record the adaptive scan below can reach, because d_k only
    // shrinks while scanning. The speculative evaluations are bounded by
    // dk-at-entry: a `None` in the replay certifies d > dk-at-entry >=
    // dk_now, exactly what the sequential `distance_upto(.., dk_now)`
    // would have concluded. Bands too short to repay the hand-off take
    // the adaptive scan like the sequential path.
    let frozen = if threads.is_sequential() {
        None
    } else {
        let hi = lo + records[lo..].partition_point(|r| r.key <= cand.centroid_dist + dk);
        Some(&records[lo..hi]).filter(|band| band.len() >= PAR_BAND_MIN)
    };
    let (band, dists) = match frozen {
        Some(band) => {
            let d = par_map(band, threads, |r| metric.distance_upto(query, &r.seq, dk));
            (band, Some(d))
        }
        None => (&records[lo..], None),
    };
    // `reached` is where the adaptive scan stops; records past it are
    // pruned in bulk below. When the frozen parallel band is exhausted
    // without a break, the sequential scan would break right at `hi`
    // (every later key exceeds centroid_dist + dk-at-entry >= dk_now),
    // so the bulk charge is identical on both paths.
    let mut reached = band.len();
    for (i, r) in band.iter().enumerate() {
        let dk_now = if hits.len() < k {
            f64::INFINITY
        } else {
            hits[k - 1].dist
        };
        if r.key > cand.centroid_dist + dk_now {
            reached = i;
            break;
        }
        if (r.key - cand.centroid_dist).abs() > dk_now {
            cost.pruned += 1;
            continue;
        }
        // Summary lower bound: excluded without touching the sequence.
        if metric.lower_bound(query, qsum, &r.summary) > dk_now {
            cost.lb_pruned += 1;
            continue;
        }
        cost.distance_calls += 1;
        let bounded = match &dists {
            Some(ds) => ds[i],
            None => metric.distance_upto(query, &r.seq, dk_now),
        };
        // `None` means d > dk-at-entry >= dk_now on the parallel path and
        // d > dk_now on the sequential one; a precomputed distance in
        // (dk_now, dk-at-entry] is what the sequential call abandons on.
        let Some(d) = bounded else {
            cost.early_abandoned += 1;
            continue;
        };
        if d > dk_now {
            cost.early_abandoned += 1;
        }
        if d < dk_now || hits.len() < k {
            let hit = Hit {
                root_id: cand.root_id,
                cluster_id: cand.cluster_id,
                og_id: r.og_id,
                dist: d,
            };
            let pos = hits.partition_point(|h| h.dist <= d);
            hits.insert(pos, hit);
            hits.truncate(k);
        }
    }
    cost.pruned += (records.len() - lo - reached) as u64;
    true
}

/// Range query: every OG within `radius` of `query`, ascending by
/// distance. Uses the same centroid-distance / key-band pruning as
/// [`knn`], with the fixed radius instead of the adaptive `d_k`.
pub fn range<V: SeqValue, D: MetricDistance<V> + BoundedDistance<V> + LowerBound<V> + Sync>(
    roots: &[RootRecord<V>],
    metric: &D,
    query: &[V],
    radius: f64,
    root_filter: Option<u32>,
    threads: Threads,
    cost: &mut QueryCost,
) -> Vec<Hit> {
    with_query_scratch(|scratch| {
        range_into(
            roots,
            metric,
            query,
            radius,
            root_filter,
            threads,
            cost,
            scratch,
        );
        scratch.hits().to_vec()
    })
}

/// [`range`] into a caller-owned arena; the hits land in
/// [`QueryScratch::hits`], ascending by distance.
#[allow(clippy::too_many_arguments)]
pub fn range_into<V: SeqValue, D: MetricDistance<V> + BoundedDistance<V> + LowerBound<V> + Sync>(
    roots: &[RootRecord<V>],
    metric: &D,
    query: &[V],
    radius: f64,
    root_filter: Option<u32>,
    threads: Threads,
    cost: &mut QueryCost,
    scratch: &mut QueryScratch,
) {
    let threads = Threads::Fixed(threads.resolve());
    let qsum = metric.summarize(query);
    scratch.hits.clear();
    gather_cands_into(roots, metric, query, root_filter, threads, cost, scratch);
    let total_records: usize = scratch
        .cands
        .iter()
        .map(|c| leaf_len(roots, c) as usize)
        .sum();
    reserve_counted(&mut scratch.hits, total_records, &mut scratch.grows);
    for ci in 0..scratch.cands.len() {
        let cand = scratch.cands[ci];
        let QueryScratch {
            hits,
            survivors,
            grows,
            ..
        } = scratch;
        range_visit_cand(
            roots, metric, query, &qsum, radius, threads, cand, hits, survivors, grows, cost,
        );
    }
    sort_hits_stable(scratch);
}

/// One range step: scans `cand`'s radius key band, appending qualifying
/// hits in record order and charging exactly as the candidate loop of
/// [`range_into`] does. The caller applies [`sort_hits_stable`] once after
/// the last candidate.
#[allow(clippy::too_many_arguments)]
fn range_visit_cand<
    V: SeqValue,
    D: MetricDistance<V> + BoundedDistance<V> + LowerBound<V> + Sync,
>(
    roots: &[RootRecord<V>],
    metric: &D,
    query: &[V],
    qsum: &SeqSummary<V>,
    radius: f64,
    threads: Threads,
    cand: Cand,
    hits: &mut Vec<Hit>,
    survivors: &mut Vec<u32>,
    grows: &mut u64,
    cost: &mut QueryCost,
) {
    let d = cand.centroid_dist;
    let records = &roots[cand.root_idx as usize].clusters[cand.cluster_idx as usize]
        .leaf
        .records;
    // Members satisfy |key - d| <= d(q, m); the fixed radius bounds the
    // key band up front, so the parallel scan evaluates exactly the
    // records the sequential one does and appends them in record order.
    let lo = records.partition_point(|r| r.key < d - radius);
    let hi = lo + records[lo..].partition_point(|r| r.key <= d + radius);
    let band = &records[lo..hi];
    cost.node_accesses += 1;
    cost.pruned += (records.len() - band.len()) as u64;
    let hit = |r: &super::LeafRecord<V>, dist: f64| Hit {
        root_id: cand.root_id,
        cluster_id: cand.cluster_id,
        og_id: r.og_id,
        dist,
    };
    // The lb predicate depends only on the fixed radius, so it commutes
    // with scan order: filter the band up front, refine only the
    // survivors (fanned out over the workers in parallel mode when the
    // band is long enough to repay it, straight out of the arena
    // otherwise).
    if threads.is_sequential() || band.len() < PAR_BAND_MIN {
        for r in band {
            if metric.lower_bound(query, qsum, &r.summary) <= radius {
                cost.distance_calls += 1;
                match metric.distance_upto(query, &r.seq, radius) {
                    Some(dist) => hits.push(hit(r, dist)),
                    None => cost.early_abandoned += 1,
                }
            } else {
                cost.lb_pruned += 1;
            }
        }
    } else {
        survivors.clear();
        reserve_counted(survivors, band.len(), grows);
        for (i, r) in band.iter().enumerate() {
            if metric.lower_bound(query, qsum, &r.summary) <= radius {
                survivors.push(i as u32);
            }
        }
        cost.lb_pruned += (band.len() - survivors.len()) as u64;
        cost.distance_calls += survivors.len() as u64;
        let dists = par_map(survivors, threads, |&si| {
            metric.distance_upto(query, &band[si as usize].seq, radius)
        });
        for (&si, dist) in survivors.iter().zip(dists) {
            match dist {
                Some(dist) => hits.push(hit(&band[si as usize], dist)),
                None => cost.early_abandoned += 1,
            }
        }
    }
}

/// Final range ordering: stable-order sort without a stable sort's
/// allocation — an unstable index sort keyed (dist, original position) is
/// the same order, applied through the arena's permutation + double buffer.
fn sort_hits_stable(scratch: &mut QueryScratch) {
    let QueryScratch {
        hits,
        order,
        hits_tmp,
        grows,
        ..
    } = scratch;
    order.clear();
    reserve_counted(order, hits.len(), grows);
    order.extend(0..hits.len() as u32);
    order.sort_unstable_by(|&i, &j| {
        hits[i as usize]
            .dist
            .total_cmp(&hits[j as usize].dist)
            .then(i.cmp(&j))
    });
    hits_tmp.clear();
    reserve_counted(hits_tmp, hits.len(), grows);
    hits_tmp.extend(order.iter().map(|&i| hits[i as usize]));
    std::mem::swap(hits, hits_tmp);
}

/// The literal Algorithm 3: find the most similar `OG_clus`, then k-NN only
/// within that cluster's leaf.
pub fn knn_single_cluster<
    V: SeqValue,
    D: MetricDistance<V> + BoundedDistance<V> + LowerBound<V> + Sync,
>(
    roots: &[RootRecord<V>],
    metric: &D,
    query: &[V],
    k: usize,
    threads: Threads,
    cost: &mut QueryCost,
) -> Vec<Hit> {
    with_query_scratch(|scratch| {
        knn_single_cluster_into(roots, metric, query, k, threads, cost, scratch);
        scratch.hits().to_vec()
    })
}

/// [`knn_single_cluster`] into a caller-owned arena.
pub fn knn_single_cluster_into<
    V: SeqValue,
    D: MetricDistance<V> + BoundedDistance<V> + LowerBound<V> + Sync,
>(
    roots: &[RootRecord<V>],
    metric: &D,
    query: &[V],
    k: usize,
    threads: Threads,
    cost: &mut QueryCost,
    scratch: &mut QueryScratch,
) {
    scratch.hits.clear();
    let threads = Threads::Fixed(threads.resolve());
    let qsum = metric.summarize(query);
    // Centroid scan in parallel; the winner is picked on this thread in
    // cluster order (strict `<`, so ties keep the earlier cluster exactly
    // as the sequential scan does).
    gather_cands_into(roots, metric, query, None, threads, cost, scratch);
    let mut best_i: Option<usize> = None;
    for (i, cand) in scratch.cands.iter().enumerate() {
        if best_i.is_none_or(|b| cand.centroid_dist < scratch.cands[b].centroid_dist) {
            best_i = Some(i);
        }
    }
    let Some(best_i) = best_i else {
        return;
    };
    let cand = scratch.cands[best_i];
    let (root_id, cluster_id, dq) = (cand.root_id, cand.cluster_id, cand.centroid_dist);
    // Every non-winning cluster's leaf is skipped wholesale — that is the
    // approximation Algorithm 3 trades accuracy for.
    cost.pruned += scratch
        .cands
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != best_i)
        .map(|(_, c)| leaf_len(roots, c))
        .sum::<u64>();
    cost.node_accesses += 1; // the winning leaf
    let leaf = &roots[cand.root_idx as usize].clusters[cand.cluster_idx as usize].leaf;
    // Scan the leaf around Key_q = EGED_M(q, OG_clus) outwards. The
    // parallel path evaluates the whole leaf up front (the adaptive key
    // prune below only ever skips records, so the precomputed distances are
    // a superset), then replays the sequential predicates in record order —
    // unless the leaf is too short to repay the hand-off.
    let dists = if threads.is_sequential() || leaf.records.len() < PAR_BAND_MIN {
        None
    } else {
        Some(par_map(&leaf.records, threads, |r| {
            metric.distance(query, &r.seq)
        }))
    };
    reserve_counted(
        &mut scratch.hits,
        k.min(leaf.records.len()) + 1,
        &mut scratch.grows,
    );
    for (i, r) in leaf.records.iter().enumerate() {
        // Key pruning with the current k-th distance.
        let dk = if scratch.hits.len() < k {
            f64::INFINITY
        } else {
            scratch.hits[k - 1].dist
        };
        if (r.key - dq).abs() > dk {
            cost.pruned += 1;
            continue;
        }
        if metric.lower_bound(query, &qsum, &r.summary) > dk {
            cost.lb_pruned += 1;
            continue;
        }
        cost.distance_calls += 1;
        let d = match &dists {
            Some(d) => d[i],
            None => match metric.distance_upto(query, &r.seq, dk) {
                Some(d) => d,
                None => {
                    cost.early_abandoned += 1;
                    continue;
                }
            },
        };
        if d > dk {
            cost.early_abandoned += 1;
        }
        // Insertion past position k is truncated right away, so a record
        // with d > dk (abandoned on the sequential bounded path) is a no-op
        // here too — the replay stays exact.
        let pos = scratch.hits.partition_point(|h| h.dist <= d);
        scratch.hits.insert(
            pos,
            Hit {
                root_id,
                cluster_id,
                og_id: r.og_id,
                dist: d,
            },
        );
        scratch.hits.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use crate::index::{StrgIndex, StrgIndexConfig};
    use strg_distance::{CountingDistance, EgedMetric};
    use strg_graph::BackgroundGraph;

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
        use strg_distance::SequenceDistance;
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

    #[test]
    fn parallel_searches_match_sequential_exactly() {
        use strg_parallel::Threads;
        let mut idx_seq = StrgIndex::new(
            EgedMetric::<f64>::new(),
            StrgIndexConfig::with_k(4).with_threads(Threads::Fixed(1)),
        );
        idx_seq.add_segment(BackgroundGraph::default(), dataset());
        let queries = [
            vec![82.0, 83.0, 84.0],
            vec![0.0, 0.0, 0.0],
            vec![161.0, 162.0, 163.0],
            vec![500.0, 1.0, 2.0],
        ];
        for threads in [2, 8] {
            let mut idx_par = StrgIndex::new(
                EgedMetric::<f64>::new(),
                StrgIndexConfig::with_k(4).with_threads(Threads::Fixed(threads)),
            );
            idx_par.add_segment(BackgroundGraph::default(), dataset());
            for q in &queries {
                for k in [1, 5, 60] {
                    let a = idx_seq.knn(q, k);
                    let b = idx_par.knn(q, k);
                    assert_eq!(a.len(), b.len(), "knn k={k}");
                    for (x, y) in a.iter().zip(&b) {
                        assert_eq!(x.og_id, y.og_id);
                        assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                    }
                    let a = idx_seq.knn_single_cluster(q, k);
                    let b = idx_par.knn_single_cluster(q, k);
                    assert_eq!(
                        a.iter().map(|h| h.og_id).collect::<Vec<_>>(),
                        b.iter().map(|h| h.og_id).collect::<Vec<_>>(),
                        "single-cluster k={k}"
                    );
                }
                for radius in [0.0, 20.0, 1e6] {
                    let a = idx_seq.range(q, radius);
                    let b = idx_par.range(q, radius);
                    assert_eq!(a.len(), b.len(), "range r={radius}");
                    for (x, y) in a.iter().zip(&b) {
                        assert_eq!(x.og_id, y.og_id);
                        assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_range_keeps_exact_call_counts() {
        use strg_parallel::Threads;
        // The range band is fixed by the radius, so the parallel path must
        // evaluate exactly as many distances as the sequential one.
        let mut counts = Vec::new();
        for threads in [1, 8] {
            let cd = CountingDistance::new(EgedMetric::<f64>::new());
            let mut idx = StrgIndex::new(
                cd.clone(),
                StrgIndexConfig::with_k(4).with_threads(Threads::Fixed(threads)),
            );
            idx.add_segment(BackgroundGraph::default(), dataset());
            cd.reset();
            idx.range(&[81.0, 82.0, 83.0], 20.0);
            counts.push(cd.count());
        }
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    fn parallel_knn_still_prunes() {
        use strg_parallel::Threads;
        // The dk-at-entry band is a superset of the adaptive scan, but it
        // must still be far below a linear scan of all 60 OGs.
        let cd = CountingDistance::new(EgedMetric::<f64>::new());
        let mut idx = StrgIndex::new(
            cd.clone(),
            StrgIndexConfig::with_k(4).with_threads(Threads::Fixed(8)),
        );
        idx.add_segment(BackgroundGraph::default(), dataset());
        cd.reset();
        let hits = idx.knn(&[82.0, 83.0, 84.0], 5);
        assert_eq!(hits.len(), 5);
        let calls = cd.count();
        assert!(calls < 60, "pruning expected: {calls} calls for 60 OGs");
    }

    #[test]
    fn query_cost_matches_counting_distance_sequential() {
        use strg_parallel::Threads;
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
        use strg_parallel::Threads;
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
    fn band_rule_changes_no_hit_and_no_cost() {
        use super::PAR_BAND_MIN;
        use strg_parallel::Threads;
        // One cluster, so the leaf — and with `k` = everything or a huge
        // radius, the key band — holds exactly `n` records: every length on
        // both sides of the rule, against the sequential answer.
        for n in 0..=2 * PAR_BAND_MIN {
            let data: Vec<(u64, Vec<f64>)> = (0..n as u64)
                .map(|i| (i, vec![1.5 * i as f64, 2.0, 3.0 + i as f64]))
                .collect();
            let build = |threads| {
                let mut idx = StrgIndex::new(
                    EgedMetric::<f64>::new(),
                    StrgIndexConfig::with_k(1).with_threads(threads),
                );
                idx.add_segment(BackgroundGraph::default(), data.clone());
                idx
            };
            let (seq, par) = (build(Threads::Fixed(1)), build(Threads::Fixed(8)));
            let q = vec![4.0, 2.5, 6.0];
            for k in [1, 3, n.max(1)] {
                let (a, ca) = seq.knn_with_cost(&q, k);
                let (b, cb) = par.knn_with_cost(&q, k);
                assert_eq!(a, b, "knn n={n} k={k}");
                assert!(ca.same_work(&cb), "knn n={n} k={k}: {ca:?} vs {cb:?}");
                let (a, ca) = seq.knn_single_cluster_with_cost(&q, k);
                let (b, cb) = par.knn_single_cluster_with_cost(&q, k);
                assert_eq!(a, b, "single n={n} k={k}");
                assert!(ca.same_work(&cb), "single n={n} k={k}: {ca:?} vs {cb:?}");
            }
            for radius in [5.0, 1e6] {
                let (a, ca) = seq.range_with_cost(&q, radius);
                let (b, cb) = par.range_with_cost(&q, radius);
                assert_eq!(a, b, "range n={n} r={radius}");
                assert!(
                    ca.same_work(&cb),
                    "range n={n} r={radius}: {ca:?} vs {cb:?}"
                );
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
        let idx = StrgIndex::new(EgedMetric::<f64>::new(), StrgIndexConfig::default());
        assert!(idx.knn(&[1.0], 0).is_empty());
        assert!(idx.knn(&[1.0], 5).is_empty());
        assert!(idx.knn_single_cluster(&[1.0], 5).is_empty());
    }

    #[test]
    fn hits_report_cluster_and_root() {
        let mut idx = StrgIndex::new(EgedMetric::<f64>::new(), StrgIndexConfig::with_k(4));
        idx.add_segment(BackgroundGraph::default(), dataset());
        let hits = idx.knn(&[0.5, 1.5, 2.5], 3);
        for h in &hits {
            assert_eq!(h.root_id, 0);
            assert!(idx.roots()[0].clusters.iter().any(|c| c.id == h.cluster_id));
        }
    }

    #[test]
    fn scratch_reuse_stops_growing() {
        use super::QueryScratch;
        use strg_obs::QueryCost;
        use strg_parallel::Threads;
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
                let mut cost = QueryCost::default();
                let (hits, with_cost) = (idx.knn(q, 5), {
                    super::knn_into(
                        idx.roots(),
                        idx.metric(),
                        q,
                        5,
                        None,
                        Threads::Fixed(1),
                        &mut cost,
                        s,
                    );
                    s.hits().to_vec()
                });
                assert_eq!(hits, with_cost, "arena results match Vec results");
                total += hits.len();
                super::range_into(
                    idx.roots(),
                    idx.metric(),
                    q,
                    40.0,
                    None,
                    Threads::Fixed(1),
                    &mut cost,
                    s,
                );
                total += s.hits().len();
            }
            total
        };
        let a = warm(&mut scratch);
        let grows_after_warmup = scratch.grow_events();
        let b = warm(&mut scratch);
        assert_eq!(a, b);
        assert_eq!(
            scratch.grow_events(),
            grows_after_warmup,
            "steady-state queries must not grow the arena"
        );
        assert!(scratch.alloc_bytes() > 0);
    }
}
