//! # strg-rtree
//!
//! A **3DR-tree** (Theodoridis, Vazirgiannis & Sellis \[26\]): an R-tree that
//! treats time as a third dimension, indexing trajectory samples as
//! `(x, y, t)` boxes. This is the prior spatio-temporal access method the
//! STRG-Index paper argues against: it answers *window* queries ("which
//! objects were in region R during [t0, t1]?") well, but "simply treating
//! the time as another dimension is not optimal" for moving-object
//! *similarity* — a claim the ablation harness quantifies by comparing its
//! box-distance ranking against EGED ranking.
//!
//! The implementation is a classic Guttman R-tree: ChooseLeaf by least
//! enlargement, quadratic split, bounding boxes maintained on the path.
//!
//! ```
//! use strg_rtree::{Aabb3, RTree3};
//!
//! let mut tree = RTree3::new();
//! tree.insert_trajectory(1, &[(10.0, 20.0), (20.0, 20.0), (30.0, 20.0)], 0.0);
//! tree.insert_trajectory(2, &[(200.0, 100.0), (210.0, 100.0)], 50.0);
//!
//! // Who crossed the left strip during the first three frames?
//! let hits = tree.window_ids(&Aabb3::new([0.0, 0.0, 0.0], [50.0, 50.0, 3.0]));
//! assert_eq!(hits, vec![1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aabb;

pub use aabb::Aabb3;

/// Maximum entries per node before splitting.
const MAX_ENTRIES: usize = 8;
/// Minimum entries per node after a split.
const MIN_ENTRIES: usize = 3;

/// One leaf entry: a box with the owning trajectory id and sample index.
#[derive(Copy, Clone, Debug)]
pub struct Item {
    /// Trajectory identifier.
    pub id: u64,
    /// Sample (segment) index within the trajectory.
    pub seq: u32,
    /// The indexed box.
    pub bbox: Aabb3,
}

#[derive(Clone, Debug)]
enum Node {
    Leaf(Vec<Item>),
    Internal(Vec<(Aabb3, Box<Node>)>),
}

impl Node {
    fn bbox(&self) -> Option<Aabb3> {
        match self {
            Node::Leaf(items) => items.iter().map(|i| i.bbox).reduce(|a, b| a.union(&b)),
            Node::Internal(children) => children.iter().map(|(b, _)| *b).reduce(|a, b| a.union(&b)),
        }
    }
}

/// The 3DR-tree.
#[derive(Clone, Debug)]
pub struct RTree3 {
    root: Node,
    len: usize,
    height: usize,
}

impl Default for RTree3 {
    fn default() -> Self {
        Self::new()
    }
}

impl RTree3 {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self {
            root: Node::Leaf(Vec::new()),
            len: 0,
            height: 1,
        }
    }

    /// Number of indexed boxes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = single leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Inserts one box.
    pub fn insert(&mut self, item: Item) {
        if let Some((b1, n1, b2, n2)) = insert_rec(&mut self.root, item) {
            // Root split.
            self.root = Node::Internal(vec![(b1, Box::new(n1)), (b2, Box::new(n2))]);
            self.height += 1;
        }
        self.len += 1;
    }

    /// Indexes a trajectory sampled at one frame per step: sample `i` at
    /// `(x_i, y_i, t0 + i)` becomes a segment box spanning to sample
    /// `i + 1` (points for the final sample).
    pub fn insert_trajectory(&mut self, id: u64, points: &[(f64, f64)], t0: f64) {
        for (i, w) in points.windows(2).enumerate() {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            let t = t0 + i as f64;
            let bbox = Aabb3::new(
                [x0.min(x1), y0.min(y1), t],
                [x0.max(x1), y0.max(y1), t + 1.0],
            );
            self.insert(Item {
                id,
                seq: i as u32,
                bbox,
            });
        }
        if points.len() == 1 {
            let (x, y) = points[0];
            self.insert(Item {
                id,
                seq: 0,
                bbox: Aabb3::point([x, y, t0]),
            });
        }
    }

    /// Window query: all items whose box intersects `window`.
    pub fn window(&self, window: &Aabb3) -> Vec<Item> {
        let mut out = Vec::new();
        window_rec(&self.root, window, &mut out);
        out
    }

    /// Distinct trajectory ids intersecting `window`, sorted.
    pub fn window_ids(&self, window: &Aabb3) -> Vec<u64> {
        let mut ids: Vec<u64> = self.window(window).into_iter().map(|i| i.id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Best-first nearest boxes to a point: returns up to `k` distinct
    /// trajectory ids, each with its smallest box distance, ordered by that
    /// distance (ties by id). This is the only "similarity" a 3DR-tree
    /// offers — coarse, which is the paper's criticism.
    pub fn nearest_ids(&self, p: [f64; 3], k: usize) -> Vec<(u64, f64)> {
        use std::collections::{BinaryHeap, HashMap};

        if k == 0 {
            return Vec::new();
        }

        struct Q<'a>(f64, &'a Node);
        impl PartialEq for Q<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.0 == other.0
            }
        }
        impl Eq for Q<'_> {}
        impl PartialOrd for Q<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Q<'_> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other.0.total_cmp(&self.0)
            }
        }

        // Each id's smallest distance over every box seen so far, and the
        // k-th smallest of those once k ids are seen: a node farther than
        // that holds no box that can change the answer.
        let mut best: HashMap<u64, f64> = HashMap::new();
        let mut kth = f64::INFINITY;
        let mut heap = BinaryHeap::new();
        heap.push(Q(0.0, &self.root));
        while let Some(Q(d, node)) = heap.pop() {
            if d > kth {
                break;
            }
            match node {
                Node::Leaf(items) => {
                    for it in items {
                        let dist = it.bbox.min_dist(p);
                        let e = best.entry(it.id).or_insert(dist);
                        *e = e.min(dist);
                    }
                    if best.len() >= k {
                        let mut dists: Vec<f64> = best.values().copied().collect();
                        kth = *dists.select_nth_unstable_by(k - 1, f64::total_cmp).1;
                    }
                }
                Node::Internal(children) => {
                    for (b, c) in children {
                        heap.push(Q(b.min_dist(p), c));
                    }
                }
            }
        }
        let mut out: Vec<(u64, f64)> = best.into_iter().collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    /// Verifies R-tree invariants (bounding boxes contain children, node
    /// occupancy within bounds below the root). Test helper; returns the
    /// number of nodes visited.
    pub fn check_invariants(&self) -> usize {
        fn walk(node: &Node, is_root: bool, height: usize, expect_height: usize) -> usize {
            match node {
                Node::Leaf(items) => {
                    assert_eq!(height, expect_height, "all leaves at the same depth");
                    if !is_root {
                        assert!(items.len() >= MIN_ENTRIES, "leaf underflow");
                    }
                    assert!(items.len() <= MAX_ENTRIES, "leaf overflow");
                    1
                }
                Node::Internal(children) => {
                    if !is_root {
                        assert!(children.len() >= MIN_ENTRIES, "node underflow");
                    }
                    assert!(children.len() <= MAX_ENTRIES, "node overflow");
                    let mut n = 1;
                    for (b, c) in children {
                        let cb = c.bbox().expect("child non-empty");
                        assert!(b.contains(&cb), "parent box covers child");
                        n += walk(c, false, height + 1, expect_height);
                    }
                    n
                }
            }
        }
        walk(&self.root, true, 1, self.height)
    }
}

fn insert_rec(node: &mut Node, item: Item) -> Option<(Aabb3, Node, Aabb3, Node)> {
    match node {
        Node::Leaf(items) => {
            items.push(item);
            if items.len() > MAX_ENTRIES {
                let full = std::mem::take(items);
                let (g1, g2) = quadratic_split(full, |i| i.bbox);
                let b1 = g1
                    .iter()
                    .map(|i| i.bbox)
                    .reduce(|a, b| a.union(&b))
                    .unwrap();
                let b2 = g2
                    .iter()
                    .map(|i| i.bbox)
                    .reduce(|a, b| a.union(&b))
                    .unwrap();
                Some((b1, Node::Leaf(g1), b2, Node::Leaf(g2)))
            } else {
                None
            }
        }
        Node::Internal(children) => {
            // ChooseLeaf: least enlargement, ties by smaller measure.
            let idx = children
                .iter()
                .enumerate()
                .min_by(|(_, (ba, _)), (_, (bb, _))| {
                    let ea = ba.enlargement(&item.bbox);
                    let eb = bb.enlargement(&item.bbox);
                    ea.total_cmp(&eb)
                        .then(ba.measure().total_cmp(&bb.measure()))
                })
                .map(|(i, _)| i)
                .expect("internal node non-empty");
            let split = insert_rec(&mut children[idx].1, item);
            if split.is_none() {
                // Refresh the child's box (on split the child is replaced).
                children[idx].0 = children[idx].1.bbox().expect("child non-empty");
            }
            if let Some((b1, n1, b2, n2)) = split {
                children.swap_remove(idx);
                children.push((b1, Box::new(n1)));
                children.push((b2, Box::new(n2)));
                if children.len() > MAX_ENTRIES {
                    let full = std::mem::take(children);
                    let (g1, g2) = quadratic_split(full, |(b, _)| *b);
                    let b1 = g1
                        .iter()
                        .map(|(b, _)| *b)
                        .reduce(|a, b| a.union(&b))
                        .unwrap();
                    let b2 = g2
                        .iter()
                        .map(|(b, _)| *b)
                        .reduce(|a, b| a.union(&b))
                        .unwrap();
                    return Some((b1, Node::Internal(g1), b2, Node::Internal(g2)));
                }
            }
            None
        }
    }
}

/// Guttman's quadratic split.
fn quadratic_split<T>(mut entries: Vec<T>, bbox: impl Fn(&T) -> Aabb3) -> (Vec<T>, Vec<T>) {
    debug_assert!(entries.len() >= 2);
    // Pick seeds: the pair wasting the most space.
    let mut seed = (0, 1);
    let mut worst = f64::NEG_INFINITY;
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let (bi, bj) = (bbox(&entries[i]), bbox(&entries[j]));
            let waste = bi.union(&bj).measure() - bi.measure() - bj.measure();
            if waste > worst {
                worst = waste;
                seed = (i, j);
            }
        }
    }
    let (si, sj) = seed;
    // Remove the later index first so the earlier stays valid.
    let e2 = entries.swap_remove(sj.max(si));
    let e1 = entries.swap_remove(sj.min(si));
    let mut b1 = bbox(&e1);
    let mut b2 = bbox(&e2);
    let mut g1 = vec![e1];
    let mut g2 = vec![e2];
    while let Some(e) = entries.pop() {
        // If one group must take everything left to reach MIN_ENTRIES, do so.
        let remaining = entries.len() + 1;
        if g1.len() + remaining == MIN_ENTRIES {
            b1 = b1.union(&bbox(&e));
            g1.push(e);
            continue;
        }
        if g2.len() + remaining == MIN_ENTRIES {
            b2 = b2.union(&bbox(&e));
            g2.push(e);
            continue;
        }
        let d1 = b1.enlargement(&bbox(&e));
        let d2 = b2.enlargement(&bbox(&e));
        if d1 <= d2 {
            b1 = b1.union(&bbox(&e));
            g1.push(e);
        } else {
            b2 = b2.union(&bbox(&e));
            g2.push(e);
        }
    }
    (g1, g2)
}

fn window_rec(node: &Node, window: &Aabb3, out: &mut Vec<Item>) {
    match node {
        Node::Leaf(items) => {
            for it in items {
                if it.bbox.intersects(window) {
                    out.push(*it);
                }
            }
        }
        Node::Internal(children) => {
            for (b, c) in children {
                if b.intersects(window) {
                    window_rec(c, window, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_items(n: usize) -> Vec<Item> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64 * 10.0;
                let y = ((i / 10) % 10) as f64 * 10.0;
                let t = (i / 100) as f64;
                Item {
                    id: i as u64,
                    seq: 0,
                    bbox: Aabb3::new([x, y, t], [x + 2.0, y + 2.0, t + 1.0]),
                }
            })
            .collect()
    }

    #[test]
    fn insert_and_invariants() {
        let mut t = RTree3::new();
        for it in grid_items(300) {
            t.insert(it);
        }
        assert_eq!(t.len(), 300);
        assert!(t.height() >= 3);
        t.check_invariants();
    }

    #[test]
    fn window_matches_linear_scan() {
        let items = grid_items(300);
        let mut t = RTree3::new();
        for it in &items {
            t.insert(*it);
        }
        let windows = [
            Aabb3::new([0.0, 0.0, 0.0], [25.0, 25.0, 0.5]),
            Aabb3::new([50.0, 50.0, 1.0], [95.0, 95.0, 3.0]),
            Aabb3::point([11.0, 11.0, 0.5]),
            Aabb3::new([1000.0; 3], [2000.0; 3]),
        ];
        for w in &windows {
            let mut expect: Vec<u64> = items
                .iter()
                .filter(|i| i.bbox.intersects(w))
                .map(|i| i.id)
                .collect();
            expect.sort_unstable();
            let mut got: Vec<u64> = t.window(w).into_iter().map(|i| i.id).collect();
            got.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn trajectory_insertion_covers_path() {
        let mut t = RTree3::new();
        let path: Vec<(f64, f64)> = (0..20).map(|i| (i as f64 * 5.0, 30.0)).collect();
        t.insert_trajectory(7, &path, 100.0);
        assert_eq!(t.len(), 19);
        // A window over the middle of the path at the right time hits it.
        let hit = t.window_ids(&Aabb3::new([40.0, 25.0, 105.0], [60.0, 35.0, 112.0]));
        assert_eq!(hit, vec![7]);
        // Same place, wrong time window: no hit.
        let miss = t.window_ids(&Aabb3::new([40.0, 25.0, 0.0], [60.0, 35.0, 50.0]));
        assert!(miss.is_empty());
    }

    #[test]
    fn singleton_trajectory() {
        let mut t = RTree3::new();
        t.insert_trajectory(1, &[(5.0, 5.0)], 0.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.window_ids(&Aabb3::point([5.0, 5.0, 0.0])), vec![1]);
    }

    #[test]
    fn nearest_ids_orders_by_box_distance() {
        let mut t = RTree3::new();
        t.insert_trajectory(1, &[(0.0, 0.0), (5.0, 0.0)], 0.0);
        t.insert_trajectory(2, &[(100.0, 0.0), (105.0, 0.0)], 0.0);
        t.insert_trajectory(3, &[(40.0, 0.0), (45.0, 0.0)], 0.0);
        let near = t.nearest_ids([2.0, 0.0, 0.5], 2);
        assert_eq!(near[0].0, 1);
        assert_eq!(near[1].0, 3);
        assert!(near[0].1 <= near[1].1);
    }

    #[test]
    fn empty_tree_queries() {
        let t = RTree3::new();
        assert!(t.is_empty());
        assert!(t.window(&Aabb3::point([0.0; 3])).is_empty());
        assert!(t.nearest_ids([0.0; 3], 5).is_empty());
    }
}
