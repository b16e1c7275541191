//! M-tree search: k-NN and range search are one best-first loop over the
//! node arena, using parent-distance pre-filtering so that pruned entries
//! cost *zero* distance evaluations — the quantity Figure 7b measures.
//! Every search threads a [`QueryCost`] so the baseline reports the same
//! cost model as the STRG-Index.
//!
//! On top of parent-distance pruning, the search applies the same
//! filter-and-refine discipline as the STRG-Index leaf scan: an admissible
//! summary lower bound (charged as `lb_pruned`) cuts candidates before any
//! distance evaluation, and surviving candidates are refined with
//! [`MetricDistance::distance_upto`] so hopeless alignments abandon early
//! (charged as `early_abandoned`, still counted in `distance_calls`).
//! Both shortcuts are exact; `tests/kernel_equivalence.rs` pins the hits
//! to a linear scan.

use std::cell::RefCell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use strg_distance::{MetricDistance, SeqSummary, SeqValue};
use strg_obs::QueryCost;

use crate::node::{Entry, Node};
use crate::MTree;

/// One query result.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Neighbor {
    /// Identifier supplied at insert time.
    pub id: u64,
    /// Distance to the query.
    pub dist: f64,
}

/// A distance ordered by [`f64::total_cmp`], so that it can key a heap.
#[derive(Copy, Clone)]
struct Dist(f64);

impl Ord for Dist {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for Dist {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Dist {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Dist {}

/// A pending subtree `(dmin, node, dq_pivot)`: the lower bound `dmin =
/// max(0, d(q, pivot) − radius)` on every object below arena node `node`,
/// and `dq_pivot = d(q, pivot)` for parent-distance pruning inside it. The
/// root has no pivot and carries NaN, which every comparison rejects, so
/// nothing in the root is parent-pruned. Pops in ascending (`dmin`,
/// `node`) order; a node is pending at most once, so `dq_pivot` never
/// breaks a tie.
type Pending = Reverse<(Dist, u32, Dist)>;

/// A hit `(distance, id)`: the best-k max-heap evicts the largest, and the
/// answer ascends in this order.
type Best = (Dist, u64);

/// Reusable per-thread M-tree search arena: the pending-node heap and the
/// best-k heap storage, and the result buffer, all grown to their
/// high-water mark and reused, so steady-state queries allocate nothing.
#[derive(Default)]
pub struct MtreeScratch {
    pending: Vec<Pending>,
    best: Vec<Best>,
    out: Vec<Neighbor>,
}

impl MtreeScratch {
    /// An empty arena (buffers grow on first use).
    pub const fn new() -> Self {
        Self {
            pending: Vec::new(),
            best: Vec::new(),
            out: Vec::new(),
        }
    }

    /// The neighbors of the last search, ascending by (distance, id).
    pub fn neighbors(&self) -> &[Neighbor] {
        &self.out
    }
}

thread_local! {
    static MTREE_SCRATCH: RefCell<MtreeScratch> = const { RefCell::new(MtreeScratch::new()) };
}

/// Runs `f` with this thread's M-tree arena; reentrant calls fall back to
/// a fresh local arena.
pub fn with_mtree_scratch<R>(f: impl FnOnce(&mut MtreeScratch) -> R) -> R {
    MTREE_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut MtreeScratch::new()),
    })
}

/// The search. A k-NN passes `radius = ∞`, a range search `k =
/// usize::MAX`; an entry survives against the cutoff `min(d_k, radius)`,
/// where `d_k` is the k-th best distance so far (∞ until `k` hits are
/// held, so always ∞ for a range search). Pending nodes pop nearest first;
/// once one's `dmin` exceeds `d_k`, so does every other's, and a full k-NN
/// stops there, charging the unvisited subtrees to `pruned`. The answer
/// lands in [`MtreeScratch::neighbors`], ascending by (distance, id).
/// `cost` accumulates distance calls, node accesses (every node popped and
/// examined) and excluded entries.
pub(crate) fn search_into<V, D>(
    tree: &MTree<V, D>,
    query: &[V],
    k: usize,
    radius: f64,
    cost: &mut QueryCost,
    scratch: &mut MtreeScratch,
) where
    V: SeqValue,
    D: MetricDistance<V>,
{
    scratch.out.clear();
    if k == 0 {
        return;
    }
    let probe = Probe {
        dist: &tree.dist,
        query,
        qsum: tree.dist.summarize(query),
    };
    // Both heaps run in the arena's storage; `from` on an emptied vector is
    // O(1) and keeps its capacity.
    let mut pending = BinaryHeap::from(std::mem::take(&mut scratch.pending));
    let mut best = BinaryHeap::from(std::mem::take(&mut scratch.best));
    pending.push(Reverse((Dist(0.0), tree.root, Dist(f64::NAN))));
    while let Some(Reverse((Dist(dmin), node, Dist(dq_pivot)))) = pending.pop() {
        if dmin > kth(&best, k) {
            cost.pruned += 1 + pending.len() as u64;
            break;
        }
        cost.node_accesses += 1;
        match &tree.nodes[node as usize] {
            Node::Leaf(entries) => {
                for e in entries {
                    let cutoff = kth(&best, k).min(radius);
                    if let Some(d) = probe.admit(e, dq_pivot, cutoff, cost) {
                        best.push((Dist(d), e.id));
                        if best.len() > k {
                            best.pop();
                        }
                    }
                }
            }
            Node::Internal(entries) => {
                for r in entries {
                    let cutoff = kth(&best, k).min(radius);
                    if let Some(d) = probe.admit(r, dq_pivot, cutoff, cost) {
                        let dmin = (d - r.radius).max(0.0);
                        pending.push(Reverse((Dist(dmin), r.child, Dist(d))));
                    }
                }
            }
        }
    }
    // Hand both heaps' storage back to the arena, copying the (ascending)
    // answer out first.
    scratch.pending = pending.into_vec();
    scratch.pending.clear();
    let mut sorted = best.into_sorted_vec();
    scratch
        .out
        .extend(sorted.iter().map(|&(Dist(dist), id)| Neighbor { id, dist }));
    sorted.clear();
    scratch.best = sorted;
}

/// `d_k`: the k-th best distance so far, ∞ until `k` hits are held.
fn kth(best: &BinaryHeap<Best>, k: usize) -> f64 {
    match best.peek() {
        Some(&(Dist(d), _)) if best.len() >= k => d,
        _ => f64::INFINITY,
    }
}

/// What every entry test of one search reads: the metric and the query
/// with its summary.
struct Probe<'a, V, D> {
    dist: &'a D,
    query: &'a [V],
    qsum: SeqSummary,
}

impl<V: SeqValue, D: MetricDistance<V>> Probe<'_, V, D> {
    /// Filter and refine one entry of either kind: it survives iff its
    /// object lies within `cutoff + radius` of the query. The cheap tests
    /// run first — the parent distance (`|d(q, pivot) − d(o, pivot)|`
    /// lower-bounds `d(q, o)`), then the summary lower bound — and a
    /// survivor's distance is evaluated bounded by that reach. Returns
    /// `d(q, object)` for a survivor.
    fn admit(
        &self,
        e: &impl Entry<V>,
        dq_pivot: f64,
        cutoff: f64,
        cost: &mut QueryCost,
    ) -> Option<f64> {
        let reach = cutoff + e.radius();
        if (dq_pivot - e.parent_dist()).abs() > reach {
            cost.pruned += 1;
            return None;
        }
        if self.dist.lower_bound(self.query, &self.qsum, e.summary()) > reach {
            cost.lb_pruned += 1;
            return None;
        }
        cost.distance_calls += 1;
        let d = self.dist.distance_upto(self.query, e.object(), reach);
        if d.is_none() {
            cost.early_abandoned += 1;
        }
        d
    }
}
