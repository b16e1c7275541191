//! M-tree node structures (Ciaccia, Patella & Zezula, VLDB 1997), stored
//! in one arena: the tree owns a `Vec<Node<V>>` and a routing entry names
//! its child by index into it.
//!
//! Internal nodes hold routing entries: a pivot object, a covering radius
//! bounding every object in the subtree, and the distance to the parent
//! pivot (which enables triangle-inequality pruning without extra distance
//! computations). Leaves hold the indexed objects with their distance to
//! the leaf's pivot. A parent distance is always exact: the distance from
//! the pivot of the routing entry pointing at the entry's node to the
//! entry's object (the root's entries have no such pivot and store 0).
//! [`crate::MTree::check_invariants`] recomputes every one.
//!
//! Every entry additionally carries a [`SeqSummary`] of its sequence (or
//! pivot), computed once at insert time, so searches can evaluate a cheap
//! admissible lower bound before paying for a full distance evaluation.

use strg_distance::SeqSummary;

/// An object stored in a leaf.
#[derive(Clone, Debug)]
pub(crate) struct LeafEntry<V> {
    /// Caller-supplied identifier returned by queries.
    pub id: u64,
    /// The indexed sequence.
    pub seq: Vec<V>,
    /// Distance to the parent routing pivot.
    pub parent_dist: f64,
    /// O(1) summary of `seq` for lower-bound filtering. Depends only on
    /// the sequence and the metric's constants, so it survives splits.
    pub summary: SeqSummary,
}

/// A routing entry of an internal node.
#[derive(Clone, Debug)]
pub(crate) struct RoutingEntry<V> {
    /// Routing pivot object.
    pub pivot: Vec<V>,
    /// Covering radius: upper bound of the distance from `pivot` to any
    /// object below `child`.
    pub radius: f64,
    /// Distance from `pivot` to the parent routing pivot.
    pub parent_dist: f64,
    /// O(1) summary of `pivot` for lower-bound filtering.
    pub summary: SeqSummary,
    /// The subtree: an index into the tree's node arena.
    pub child: u32,
}

/// An M-tree node.
#[derive(Clone, Debug)]
pub(crate) enum Node<V> {
    /// A leaf of indexed objects.
    Leaf(Vec<LeafEntry<V>>),
    /// An internal node of routing entries.
    Internal(Vec<RoutingEntry<V>>),
}

impl<V> Node<V> {
    /// Number of entries in this node.
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf(e) => e.len(),
            Node::Internal(e) => e.len(),
        }
    }
}

/// What the split and the search read and write of an entry of either
/// kind. An entry stands for the ball of radius [`Entry::radius`] around
/// its object: a leaf entry's ball is the object itself (radius 0), a
/// routing entry's covers its subtree.
pub(crate) trait Entry<V>: Sized {
    /// The indexed sequence, or the routing pivot.
    fn object(&self) -> &[V];
    /// The summary of [`Entry::object`].
    fn summary(&self) -> &SeqSummary;
    /// 0 for an indexed object, the covering radius for a routing entry.
    fn radius(&self) -> f64;
    /// Distance from the object to the parent routing pivot.
    fn parent_dist(&self) -> f64;
    /// Records the distance to a new parent routing pivot.
    fn set_parent_dist(&mut self, d: f64);
    /// The node holding `entries`.
    fn node(entries: Vec<Self>) -> Node<V>;
}

impl<V> Entry<V> for LeafEntry<V> {
    fn object(&self) -> &[V] {
        &self.seq
    }
    fn summary(&self) -> &SeqSummary {
        &self.summary
    }
    fn radius(&self) -> f64 {
        0.0
    }
    fn parent_dist(&self) -> f64 {
        self.parent_dist
    }
    fn set_parent_dist(&mut self, d: f64) {
        self.parent_dist = d;
    }
    fn node(entries: Vec<Self>) -> Node<V> {
        Node::Leaf(entries)
    }
}

impl<V> Entry<V> for RoutingEntry<V> {
    fn object(&self) -> &[V] {
        &self.pivot
    }
    fn summary(&self) -> &SeqSummary {
        &self.summary
    }
    fn radius(&self) -> f64 {
        self.radius
    }
    fn parent_dist(&self) -> f64 {
        self.parent_dist
    }
    fn set_parent_dist(&mut self, d: f64) {
        self.parent_dist = d;
    }
    fn node(entries: Vec<Self>) -> Node<V> {
        Node::Internal(entries)
    }
}
