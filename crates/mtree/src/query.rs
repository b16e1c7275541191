//! M-tree search: k-NN with a priority queue over lower-bound distances and
//! range search, both using parent-distance pre-filtering so that pruned
//! entries cost *zero* distance evaluations — the quantity Figure 7b
//! measures. Every search threads a [`QueryCost`] so the baseline reports
//! the same cost model as the STRG-Index.
//!
//! On top of parent-distance pruning, both searches apply the same
//! filter-and-refine discipline as the STRG-Index leaf scan: an admissible
//! summary lower bound (charged as `lb_pruned`) cuts candidates before any
//! distance evaluation, and surviving candidates are refined with
//! [`BoundedDistance::distance_upto`] so hopeless alignments abandon early
//! (charged as `early_abandoned`, still counted in `distance_calls`).
//! Both shortcuts are exact; `tests/kernel_equivalence.rs` pins the hits
//! to a linear scan.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use strg_distance::{BoundedDistance, LowerBound, MetricDistance, SeqValue};
use strg_obs::QueryCost;

use crate::node::Node;

/// One query result.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Neighbor {
    /// Identifier supplied at insert time.
    pub id: u64,
    /// Distance to the query.
    pub dist: f64,
}

/// Pending-subtree heap slot: `(dmin, dq_pivot, node)`. The node pointer is
/// type-erased so the arena can be non-generic; it is only ever produced
/// from and consumed by the same `knn_into` call (see the SAFETY note
/// there). `dmin` is the lower bound `max(0, d(q, pivot) - radius)`;
/// `dq_pivot` is `d(q, pivot)` of the routing entry that led here (for
/// parent-distance pruning inside the node, NaN at the root).
type PendingSlot = (f64, f64, *const ());

/// Max-heap entry for the current k best.
#[derive(PartialEq)]
struct Best {
    dist: f64,
    id: u64,
}
impl Eq for Best {}
impl PartialOrd for Best {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Best {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist.total_cmp(&other.dist)
    }
}

/// Reusable per-thread M-tree search arena: the pending-subtree heap, the
/// best-k heap storage, and the result buffers, all grown to their
/// high-water mark and reused, so steady-state queries allocate nothing.
/// Holds raw node pointers transiently (cleared on entry and exit of every
/// search), which keeps it thread-local by construction (`!Send`).
#[derive(Default)]
pub struct MtreeScratch {
    pending: Vec<PendingSlot>,
    best: Vec<Best>,
    out: Vec<Neighbor>,
    out_tmp: Vec<Neighbor>,
    order: Vec<u32>,
    grows: u64,
}

impl MtreeScratch {
    /// An empty arena (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    const fn empty() -> Self {
        Self {
            pending: Vec::new(),
            best: Vec::new(),
            out: Vec::new(),
            out_tmp: Vec::new(),
            order: Vec::new(),
            grows: 0,
        }
    }

    /// The neighbors of the last `*_into` search, ascending by distance.
    pub fn neighbors(&self) -> &[Neighbor] {
        &self.out
    }

    /// Number of queries that grew some buffer (0 in steady state).
    pub fn grow_events(&self) -> u64 {
        self.grows
    }

    fn capacities(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.pending.capacity(),
            self.best.capacity(),
            self.out.capacity(),
            self.out_tmp.capacity(),
            self.order.capacity(),
        )
    }
}

thread_local! {
    static MTREE_SCRATCH: RefCell<MtreeScratch> = const { RefCell::new(MtreeScratch::empty()) };
}

/// Runs `f` with this thread's M-tree arena; reentrant calls fall back to
/// a fresh local arena.
pub fn with_mtree_scratch<R>(f: impl FnOnce(&mut MtreeScratch) -> R) -> R {
    MTREE_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut MtreeScratch::empty()),
    })
}

/// Sift-up push for the min-heap on `dmin` (`slot.0`). Total order via
/// `total_cmp`, so NaNs cannot poison the heap shape.
fn heap_push(heap: &mut Vec<PendingSlot>, slot: PendingSlot) {
    heap.push(slot);
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if heap[parent].0.total_cmp(&heap[i].0) == Ordering::Greater {
            heap.swap(parent, i);
            i = parent;
        } else {
            break;
        }
    }
}

/// Pop-min with sift-down, the dual of [`heap_push`].
fn heap_pop(heap: &mut Vec<PendingSlot>) -> Option<PendingSlot> {
    if heap.is_empty() {
        return None;
    }
    let last = heap.len() - 1;
    heap.swap(0, last);
    let top = heap.pop();
    let mut i = 0;
    loop {
        let l = 2 * i + 1;
        if l >= heap.len() {
            break;
        }
        let r = l + 1;
        let c = if r < heap.len() && heap[r].0.total_cmp(&heap[l].0) == Ordering::Less {
            r
        } else {
            l
        };
        if heap[c].0.total_cmp(&heap[i].0) == Ordering::Less {
            heap.swap(i, c);
            i = c;
        } else {
            break;
        }
    }
    top
}

/// k-nearest neighbors of `query`, sorted by ascending distance.
/// `cost` accumulates distance calls, node accesses (every node popped and
/// examined) and pruned entries (skipped without a distance evaluation).
pub fn knn<V: SeqValue, D: MetricDistance<V> + BoundedDistance<V> + LowerBound<V>>(
    root: &Node<V>,
    dist: &D,
    query: &[V],
    k: usize,
    cost: &mut QueryCost,
) -> Vec<Neighbor> {
    with_mtree_scratch(|scratch| {
        knn_into(root, dist, query, k, cost, scratch);
        scratch.neighbors().to_vec()
    })
}

/// [`knn`] into a caller-owned arena; results land in
/// [`MtreeScratch::neighbors`].
pub fn knn_into<V: SeqValue, D: MetricDistance<V> + BoundedDistance<V> + LowerBound<V>>(
    root: &Node<V>,
    dist: &D,
    query: &[V],
    k: usize,
    cost: &mut QueryCost,
    scratch: &mut MtreeScratch,
) {
    scratch.out.clear();
    scratch.pending.clear();
    if k == 0 || root.object_count() == 0 {
        return;
    }
    let caps = scratch.capacities();
    let qsum = dist.summarize(query);
    // The best-k max-heap borrows the arena's storage but runs through the
    // real `BinaryHeap`, so push/pop tie behavior is exactly the standard
    // library's; `from` on the emptied vector is O(1) and keeps capacity.
    let mut best: BinaryHeap<Best> = BinaryHeap::from(std::mem::take(&mut scratch.best));
    let pending = &mut scratch.pending;
    heap_push(
        pending,
        (0.0, f64::NAN, root as *const Node<V> as *const ()),
    );

    while let Some((dmin, dq_pivot, node)) = heap_pop(pending) {
        // SAFETY: every pointer in `pending` was pushed by this very call
        // (the heap is cleared on entry) from a `&Node<V>` reachable from
        // `root`, which outlives the loop; the erased type is therefore
        // exactly `Node<V>`.
        let node = unsafe { &*(node as *const Node<V>) };
        let dk = current_bound(&best, k);
        if dmin > dk {
            // Everything left is further away: charge the abandoned
            // subtrees (including this one) as pruned.
            cost.pruned += 1 + pending.len() as u64;
            break;
        }
        cost.node_accesses += 1;
        match node {
            Node::Leaf(entries) => {
                for e in entries {
                    let dk_now = current_bound(&best, k);
                    // Parent-distance pruning: |d(q, pivot) - d(o, pivot)|
                    // lower-bounds d(q, o).
                    if !dq_pivot.is_nan() && (dq_pivot - e.parent_dist).abs() > dk_now {
                        cost.pruned += 1;
                        continue;
                    }
                    // Summary lower bound: cut without any distance work.
                    if dist.lower_bound(query, &qsum, &e.summary) > dk_now {
                        cost.lb_pruned += 1;
                        continue;
                    }
                    cost.distance_calls += 1;
                    // `Some(d)` iff `d <= dk_now`, so a survivor always
                    // enters the best-k heap.
                    let Some(d) = dist.distance_upto(query, &e.seq, dk_now) else {
                        cost.early_abandoned += 1;
                        continue;
                    };
                    best.push(Best { dist: d, id: e.id });
                    if best.len() > k {
                        best.pop();
                    }
                }
            }
            Node::Internal(entries) => {
                for r in entries {
                    let dk_now = current_bound(&best, k);
                    // A subtree survives iff d(q, pivot) <= dk + radius.
                    let cutoff = dk_now + r.radius;
                    if !dq_pivot.is_nan() && (dq_pivot - r.parent_dist).abs() > cutoff {
                        cost.pruned += 1;
                        continue;
                    }
                    if dist.lower_bound(query, &qsum, &r.summary) > cutoff {
                        cost.lb_pruned += 1;
                        continue;
                    }
                    cost.distance_calls += 1;
                    match dist.distance_upto(query, &r.pivot, cutoff) {
                        Some(d) => heap_push(
                            pending,
                            (
                                (d - r.radius).max(0.0),
                                d,
                                &*r.child as *const Node<V> as *const (),
                            ),
                        ),
                        None => {
                            cost.early_abandoned += 1;
                            cost.pruned += 1;
                        }
                    }
                }
            }
        }
    }
    pending.clear();

    // Hand the heap's storage back to the arena, copying the (ascending)
    // results out first.
    let mut sorted = best.into_sorted_vec();
    sorted.truncate(k);
    scratch.out.extend(sorted.iter().map(|b| Neighbor {
        id: b.id,
        dist: b.dist,
    }));
    sorted.clear();
    scratch.best = sorted;
    if scratch.capacities() != caps {
        scratch.grows += 1;
    }
}

fn current_bound(best: &BinaryHeap<Best>, k: usize) -> f64 {
    if best.len() < k {
        f64::INFINITY
    } else {
        best.peek().map_or(f64::INFINITY, |b| b.dist)
    }
}

/// Range query: all objects within `radius` of `query`, ascending by
/// distance. `cost` accumulates as in [`knn`].
pub fn range<V: SeqValue, D: MetricDistance<V> + BoundedDistance<V> + LowerBound<V>>(
    root: &Node<V>,
    dist: &D,
    query: &[V],
    radius: f64,
    cost: &mut QueryCost,
) -> Vec<Neighbor> {
    with_mtree_scratch(|scratch| {
        range_into(root, dist, query, radius, cost, scratch);
        scratch.neighbors().to_vec()
    })
}

/// [`range`] into a caller-owned arena; results land in
/// [`MtreeScratch::neighbors`].
pub fn range_into<V: SeqValue, D: MetricDistance<V> + BoundedDistance<V> + LowerBound<V>>(
    root: &Node<V>,
    dist: &D,
    query: &[V],
    radius: f64,
    cost: &mut QueryCost,
    scratch: &mut MtreeScratch,
) {
    let caps = scratch.capacities();
    let qsum = dist.summarize(query);
    scratch.out.clear();
    walk(
        root,
        dist,
        query,
        &qsum,
        radius,
        f64::NAN,
        &mut scratch.out,
        cost,
    );
    // Stable sort by distance without the stable sort's buffer: unstable
    // index sort keyed (dist, discovery order), applied through the
    // arena's permutation + double buffer.
    let MtreeScratch {
        out,
        out_tmp,
        order,
        ..
    } = scratch;
    order.clear();
    order.reserve(out.len());
    order.extend(0..out.len() as u32);
    order.sort_unstable_by(|&i, &j| {
        out[i as usize]
            .dist
            .total_cmp(&out[j as usize].dist)
            .then(i.cmp(&j))
    });
    out_tmp.clear();
    out_tmp.reserve(out.len());
    out_tmp.extend(order.iter().map(|&i| out[i as usize]));
    std::mem::swap(out, out_tmp);
    if scratch.capacities() != caps {
        scratch.grows += 1;
    }
}

#[allow(clippy::too_many_arguments)]
fn walk<V: SeqValue, D: MetricDistance<V> + BoundedDistance<V> + LowerBound<V>>(
    node: &Node<V>,
    dist: &D,
    query: &[V],
    qsum: &strg_distance::SeqSummary<V>,
    radius: f64,
    dq_pivot: f64,
    out: &mut Vec<Neighbor>,
    cost: &mut QueryCost,
) {
    cost.node_accesses += 1;
    match node {
        Node::Leaf(entries) => {
            for e in entries {
                if !dq_pivot.is_nan() && (dq_pivot - e.parent_dist).abs() > radius {
                    cost.pruned += 1;
                    continue;
                }
                if dist.lower_bound(query, qsum, &e.summary) > radius {
                    cost.lb_pruned += 1;
                    continue;
                }
                cost.distance_calls += 1;
                match dist.distance_upto(query, &e.seq, radius) {
                    Some(d) => out.push(Neighbor { id: e.id, dist: d }),
                    None => cost.early_abandoned += 1,
                }
            }
        }
        Node::Internal(entries) => {
            for r in entries {
                let cutoff = radius + r.radius;
                if !dq_pivot.is_nan() && (dq_pivot - r.parent_dist).abs() > cutoff {
                    cost.pruned += 1;
                    continue;
                }
                if dist.lower_bound(query, qsum, &r.summary) > cutoff {
                    cost.lb_pruned += 1;
                    continue;
                }
                cost.distance_calls += 1;
                match dist.distance_upto(query, &r.pivot, cutoff) {
                    Some(d) => walk(&r.child, dist, query, qsum, radius, d, out, cost),
                    None => {
                        cost.early_abandoned += 1;
                        cost.pruned += 1;
                    }
                }
            }
        }
    }
}
