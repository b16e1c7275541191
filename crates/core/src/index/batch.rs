//! Batched multi-query execution: one index traversal, many queries.
//!
//! A batch of trajectory queries descends the STRG tree **once**: the
//! root/cluster structural pass is shared (each cluster node's envelope is
//! tested against every still-active query while the node is hot), and the
//! leaf phase runs in *round lockstep* — every round, each active query
//! contributes its next best-first candidate, the round is sorted by leaf
//! position, and consecutive visits to the same leaf share the physical
//! fetch. Queries are mutually independent, so any interleaving of their
//! per-candidate steps preserves each query's sequential decision sequence
//! exactly: per query, the hits and the logical [`QueryCost`] are
//! byte-identical to a one-at-a-time replay (`tests/batch_equivalence.rs`).
//! The amortization a batch buys is pure *physical* sharing, reported per
//! query in [`QueryCost::batch_shared_accesses`].
//!
//! Identical queries in one batch (the serve pool's coalescing window
//! produces these) execute once: duplicates copy the representative's hits
//! and cost, with `batch_shared_accesses` set to the full `node_accesses` —
//! every node the duplicate is charged for was physically fetched by its
//! representative.
//!
//! Leaf visits inside a batch always run at `Threads::Fixed(1)`: the
//! sequential scan *is* the canonical decision sequence, and single-query
//! parallel paths are already pinned to replay it exactly.

use std::cell::RefCell;

use strg_distance::{BoundedDistance, LowerBound, MetricDistance, SeqSummary, SeqValue};
use strg_obs::QueryCost;
use strg_parallel::Threads;

use super::search::{
    knn_visit_cand, leaf_len, range_visit_cand, reserve_counted, sort_cands, sort_hits_stable,
    Cand, Hit, QueryScratch,
};
use super::RootRecord;

/// What one batched query asks for.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum BatchKind {
    /// Exact k-NN with the given `k`.
    Knn(usize),
    /// Range query with the given radius.
    Range(f64),
}

/// One query of a batch: kind, trajectory, and an optional root (segment)
/// restriction — the batched counterpart of the `knn`/`knn_in_root`/`range`
/// single-query entry points.
#[derive(Copy, Clone, Debug)]
pub struct BatchItem<'a, V> {
    /// k-NN or range.
    pub kind: BatchKind,
    /// The query trajectory.
    pub query: &'a [V],
    /// Restrict to one root record id (background-matched queries).
    pub root_filter: Option<u32>,
}

fn same_item<V: SeqValue>(a: &BatchItem<'_, V>, b: &BatchItem<'_, V>) -> bool {
    a.kind == b.kind
        && a.root_filter == b.root_filter
        && (std::ptr::eq(a.query, b.query) || a.query == b.query)
}

/// Reusable arena for batched execution: one [`QueryScratch`] slot plus a
/// cost record per query, the dedup/liveness bookkeeping, and the
/// round-lockstep schedule buffer. Like `QueryScratch`, every buffer grows
/// to its high-water mark and is reused — steady-state batches perform zero
/// heap allocations (`tests/query_alloc.rs`).
#[derive(Debug)]
pub struct BatchScratch<V> {
    /// Per-item search arena; a query's hits land in its slot.
    slots: Vec<QueryScratch>,
    /// Per-item logical cost.
    costs: Vec<QueryCost>,
    /// Per-item query summary (representatives only).
    qsums: Vec<Option<SeqSummary<V>>>,
    /// Per-item representative: `reps[i] == i` for the first occurrence,
    /// otherwise the index of the identical earlier item.
    reps: Vec<u32>,
    /// Representatives with work to do, in item order.
    uniq: Vec<u32>,
    /// Per-item position of the next candidate to visit.
    cursor: Vec<u32>,
    /// Per-item liveness (false once exhausted or cut off).
    alive: Vec<bool>,
    /// One round of the lockstep schedule: (packed leaf position, item).
    round: Vec<(u64, u32)>,
    /// Number of items in the last batch.
    n: usize,
    /// Growth events of the batch-level buffers (slot growth is tracked per
    /// slot).
    grows: u64,
}

impl<V> Default for BatchScratch<V> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<V> BatchScratch<V> {
    /// An empty arena (buffers grow on first use).
    pub fn new() -> Self {
        Self::empty()
    }

    pub(crate) const fn empty() -> Self {
        Self {
            slots: Vec::new(),
            costs: Vec::new(),
            qsums: Vec::new(),
            reps: Vec::new(),
            uniq: Vec::new(),
            cursor: Vec::new(),
            alive: Vec::new(),
            round: Vec::new(),
            n: 0,
            grows: 0,
        }
    }

    /// Number of queries in the last batch.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the last batch was empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Query `i`'s hits from the last batch, ascending by distance.
    pub fn hits(&self, i: usize) -> &[Hit] {
        assert!(i < self.n, "batch item {i} out of range ({})", self.n);
        self.slots[i].hits()
    }

    /// Query `i`'s cost from the last batch.
    pub fn cost(&self, i: usize) -> QueryCost {
        assert!(i < self.n, "batch item {i} out of range ({})", self.n);
        self.costs[i]
    }

    /// Number of buffer growth events since construction, across the batch
    /// bookkeeping and every slot — stops moving once the arena reaches its
    /// high-water mark.
    pub fn grow_events(&self) -> u64 {
        self.grows + self.slots.iter().map(|s| s.grow_events()).sum::<u64>()
    }

    /// Stamps every item's wall-clock elapsed (identity-exempt, like
    /// `QueryCost::elapsed` everywhere) with the whole-batch duration.
    pub(crate) fn stamp_elapsed(&mut self, elapsed: std::time::Duration) {
        for c in &mut self.costs[..self.n] {
            c.elapsed = elapsed;
        }
    }
}

thread_local! {
    static BATCH_SCRATCH: RefCell<BatchScratch<strg_graph::Point2>> =
        const { RefCell::new(BatchScratch::empty()) };
}

/// Runs `f` with this thread's batch arena (trajectory value type), the
/// batched counterpart of [`search::with_query_scratch`]. Reentrant calls
/// fall back to a fresh local arena rather than panicking on the borrow.
pub fn with_batch_scratch<R>(f: impl FnOnce(&mut BatchScratch<strg_graph::Point2>) -> R) -> R {
    BATCH_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut BatchScratch::empty()),
    })
}

/// Executes `items` against the tree in one shared descent. Results land in
/// `scratch` ([`BatchScratch::hits`] / [`BatchScratch::cost`] by item
/// position). The descent is sequential per tree — a batch's parallelism
/// budget is spent across shards, and per-query results are pinned to the
/// sequential decision sequence either way.
pub(crate) fn query_batch_into<
    V: SeqValue,
    D: MetricDistance<V> + BoundedDistance<V> + LowerBound<V> + Sync,
>(
    roots: &[RootRecord<V>],
    metric: &D,
    items: &[BatchItem<'_, V>],
    scratch: &mut BatchScratch<V>,
) {
    let n = items.len();
    scratch.n = n;
    if scratch.slots.len() < n {
        if scratch.slots.capacity() < n {
            scratch.grows += 1;
        }
        scratch.slots.resize_with(n, QueryScratch::new);
    }
    scratch.costs.clear();
    reserve_counted(&mut scratch.costs, n, &mut scratch.grows);
    scratch.costs.extend((0..n).map(|_| QueryCost::default()));
    for slot in &mut scratch.slots[..n] {
        slot.hits.clear();
    }

    // Dedup: identical items execute once; reps[i] names the first
    // occurrence.
    scratch.reps.clear();
    reserve_counted(&mut scratch.reps, n, &mut scratch.grows);
    for i in 0..n {
        let rep = (0..i)
            .find(|&j| scratch.reps[j] == j as u32 && same_item(&items[i], &items[j]))
            .unwrap_or(i);
        scratch.reps.push(rep as u32);
    }
    // Representatives with work: a k = 0 k-NN returns empty with zero cost
    // (the single-query early return) and never enters the descent.
    scratch.uniq.clear();
    reserve_counted(&mut scratch.uniq, n, &mut scratch.grows);
    for (i, it) in items.iter().enumerate() {
        if scratch.reps[i] == i as u32 && it.kind != BatchKind::Knn(0) {
            scratch.uniq.push(i as u32);
        }
    }

    scratch.qsums.clear();
    reserve_counted(&mut scratch.qsums, n, &mut scratch.grows);
    scratch.qsums.extend((0..n).map(|_| None));
    for &u in &scratch.uniq {
        scratch.qsums[u as usize] = Some(metric.summarize(items[u as usize].query));
    }

    // Shared gather: charge each query the structural scan it would have
    // performed alone (identical to `gather_cands_into`), then walk the
    // root/cluster level once, serving every including query while the node
    // is hot. Candidate order and values per query are exactly the
    // sequential gather's.
    let included =
        |it: &BatchItem<'_, V>, root: &RootRecord<V>| it.root_filter.is_none_or(|r| r == root.id);
    for &u in &scratch.uniq {
        let u = u as usize;
        let mut visited_roots = 0u64;
        let mut n_cands = 0usize;
        for root in roots {
            if included(&items[u], root) {
                visited_roots += 1;
                n_cands += root.clusters.len();
            }
        }
        scratch.costs[u].node_accesses += visited_roots + n_cands as u64;
        scratch.costs[u].distance_calls += n_cands as u64;
        let slot = &mut scratch.slots[u];
        slot.cands.clear();
        reserve_counted(&mut slot.cands, n_cands, &mut slot.grows);
    }
    for (ri, root) in roots.iter().enumerate() {
        let mut first = true;
        for &u in &scratch.uniq {
            let u = u as usize;
            if !included(&items[u], root) {
                continue;
            }
            // The root node itself: fetched for the first query, shared by
            // the rest.
            if first {
                first = false;
            } else {
                scratch.costs[u].batch_shared_accesses += 1;
            }
        }
        for (ci, c) in root.clusters.iter().enumerate() {
            let min_key = c.leaf.records.first().map_or(0.0, |r| r.key);
            let max_key = c.leaf.max_key();
            let mut first = true;
            for &u in &scratch.uniq {
                let u = u as usize;
                if !included(&items[u], root) {
                    continue;
                }
                let d = metric.distance(items[u].query, &c.centroid);
                let lower = if d < min_key {
                    min_key - d
                } else if d > max_key {
                    d - max_key
                } else {
                    0.0
                };
                scratch.slots[u].cands.push(Cand {
                    root_idx: ri as u32,
                    cluster_idx: ci as u32,
                    root_id: root.id,
                    cluster_id: c.id,
                    centroid_dist: d,
                    lower,
                });
                if first {
                    first = false;
                } else {
                    scratch.costs[u].batch_shared_accesses += 1;
                }
            }
        }
    }

    // Per-query descent order and result-buffer sizing, as in the
    // single-query paths.
    for &u in &scratch.uniq {
        let u = u as usize;
        let slot = &mut scratch.slots[u];
        let total_records: usize = slot.cands.iter().map(|c| leaf_len(roots, c) as usize).sum();
        match items[u].kind {
            BatchKind::Knn(k) => {
                sort_cands(&mut slot.cands);
                reserve_counted(&mut slot.hits, k.min(total_records) + 1, &mut slot.grows);
            }
            BatchKind::Range(_) => {
                reserve_counted(&mut slot.hits, total_records, &mut slot.grows);
            }
        }
    }
    scratch.cursor.clear();
    reserve_counted(&mut scratch.cursor, n, &mut scratch.grows);
    scratch.cursor.extend((0..n).map(|_| 0u32));
    scratch.alive.clear();
    reserve_counted(&mut scratch.alive, n, &mut scratch.grows);
    scratch.alive.extend((0..n).map(|_| false));
    for &u in &scratch.uniq {
        scratch.alive[u as usize] = !scratch.slots[u as usize].cands.is_empty();
    }
    reserve_counted(&mut scratch.round, scratch.uniq.len(), &mut scratch.grows);

    // Round lockstep: every round, each live query contributes its next
    // candidate (its own best-first order); the round is sorted by leaf
    // position so same-leaf visits are adjacent and share the fetch.
    // Per query the candidates are still consumed strictly in its own
    // order, one per round — the interleaving across queries is invisible
    // to any single query's decision sequence.
    loop {
        scratch.round.clear();
        for &u in &scratch.uniq {
            if scratch.alive[u as usize] {
                let cand = scratch.slots[u as usize].cands[scratch.cursor[u as usize] as usize];
                let key = ((cand.root_idx as u64) << 32) | cand.cluster_idx as u64;
                scratch.round.push((key, u));
            }
        }
        if scratch.round.is_empty() {
            break;
        }
        scratch.round.sort_unstable();
        let mut last_opened: Option<u64> = None;
        for ri in 0..scratch.round.len() {
            let (key, u) = scratch.round[ri];
            let u = u as usize;
            let cur = scratch.cursor[u] as usize;
            let cand = scratch.slots[u].cands[cur];
            scratch.cursor[u] += 1;
            let qsum = scratch.qsums[u].as_ref().expect("summary of a unique item");
            match items[u].kind {
                BatchKind::Knn(k) => {
                    let opened = knn_visit_cand(
                        roots,
                        metric,
                        items[u].query,
                        qsum,
                        k,
                        Threads::Fixed(1),
                        cand,
                        &mut scratch.slots[u].hits,
                        &mut scratch.costs[u],
                    );
                    if opened {
                        if last_opened == Some(key) {
                            scratch.costs[u].batch_shared_accesses += 1;
                        }
                        last_opened = Some(key);
                        if cur + 1 == scratch.slots[u].cands.len() {
                            scratch.alive[u] = false;
                        }
                    } else {
                        // Best-first cutoff: this and every remaining
                        // candidate's leaf is excluded, exactly the
                        // single-query bulk charge.
                        scratch.costs[u].pruned += scratch.slots[u].cands[cur..]
                            .iter()
                            .map(|c| leaf_len(roots, c))
                            .sum::<u64>();
                        scratch.alive[u] = false;
                    }
                }
                BatchKind::Range(radius) => {
                    let slot = &mut scratch.slots[u];
                    let QueryScratch {
                        hits,
                        survivors,
                        grows,
                        ..
                    } = slot;
                    range_visit_cand(
                        roots,
                        metric,
                        items[u].query,
                        qsum,
                        radius,
                        Threads::Fixed(1),
                        cand,
                        hits,
                        survivors,
                        grows,
                        &mut scratch.costs[u],
                    );
                    if last_opened == Some(key) {
                        scratch.costs[u].batch_shared_accesses += 1;
                    }
                    last_opened = Some(key);
                    if cur + 1 == scratch.slots[u].cands.len() {
                        scratch.alive[u] = false;
                    }
                }
            }
        }
    }
    for &u in &scratch.uniq {
        let u = u as usize;
        if matches!(items[u].kind, BatchKind::Range(_)) {
            sort_hits_stable(&mut scratch.slots[u]);
        }
    }

    // Duplicates ride along for free: copy the representative's results;
    // every charged node access was physically the representative's fetch.
    for i in 0..n {
        let rep = scratch.reps[i] as usize;
        if rep == i {
            continue;
        }
        let (head, tail) = scratch.slots.split_at_mut(i);
        let (src, dst) = (&head[rep], &mut tail[0]);
        dst.hits.clear();
        reserve_counted(&mut dst.hits, src.hits().len(), &mut dst.grows);
        dst.hits.extend_from_slice(src.hits());
        let mut cost = scratch.costs[rep];
        cost.batch_shared_accesses = cost.node_accesses;
        scratch.costs[i] = cost;
    }
}
