//! Node splitting: promotion policies and generalized-hyperplane
//! partitioning.
//!
//! The paper benchmarks two of [5]'s promotion policies: RANDOM (MT-RA,
//! cheapest to build) and SAMPLING (MT-SA, better clustering of entries —
//! a bounded search over sampled candidate pairs minimizing the larger of
//! the two covering radii).
//!
//! Leaves and internal nodes split the same way: an entry is a ball around
//! its object ([`Entry`]), so a half's covering radius is the largest
//! `d + radius` over its members — `d` for an indexed object, `d + r` for
//! a routing entry.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use strg_distance::{MetricDistance, SeqValue};

use crate::node::{Entry, Node, RoutingEntry};

/// How the two new routing pivots are chosen on node split.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PromotePolicy {
    /// Promote two distinct entries uniformly at random (MT-RA).
    Random,
    /// Sample up to `samples` entries and promote the pair minimizing the
    /// maximum of the two resulting covering radii (MT-SA).
    Sampling {
        /// Number of sampled candidate entries.
        samples: usize,
    },
}

/// Splits an over-full node's entries in two. Two entries are promoted
/// by `policy`; every entry joins the nearer promoted object (the first
/// on a tie) and stores its distance to it as its parent distance. Returns
/// each half as its routing entry — pointing at `children[i]`, parent
/// distance 0 until the caller knows the enclosing pivot — and its node.
pub(crate) fn split<V: SeqValue, D: MetricDistance<V>, E: Entry<V>>(
    entries: Vec<E>,
    children: [u32; 2],
    dist: &D,
    policy: PromotePolicy,
    rng: &mut StdRng,
) -> [(RoutingEntry<V>, Node<V>); 2] {
    let promoted = promote(&entries, dist, policy, rng);
    let mut routing = [0, 1].map(|i| RoutingEntry {
        pivot: entries[promoted[i]].object().to_vec(),
        radius: 0.0,
        parent_dist: 0.0,
        summary: *entries[promoted[i]].summary(),
        child: children[i],
    });
    let mut halves = [Vec::new(), Vec::new()];
    for mut e in entries {
        let d1 = dist.distance(&routing[0].pivot, e.object());
        let d2 = dist.distance(&routing[1].pivot, e.object());
        let (i, d) = if d1 <= d2 { (0, d1) } else { (1, d2) };
        routing[i].radius = routing[i].radius.max(d + e.radius());
        e.set_parent_dist(d);
        halves[i].push(e);
    }
    let [r1, r2] = routing;
    let [h1, h2] = halves;
    [(r1, E::node(h1)), (r2, E::node(h2))]
}

/// Chooses the two promoted indices.
fn promote<V: SeqValue, D: MetricDistance<V>, E: Entry<V>>(
    entries: &[E],
    dist: &D,
    policy: PromotePolicy,
    rng: &mut StdRng,
) -> [usize; 2] {
    let n = entries.len();
    assert!(n >= 2, "cannot split fewer than two entries");
    match policy {
        PromotePolicy::Random => {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n - 1);
            if b >= a {
                b += 1;
            }
            [a, b]
        }
        PromotePolicy::Sampling { samples } => {
            let mut idx: Vec<usize> = (0..n).collect();
            idx.shuffle(rng);
            idx.truncate(samples.max(2).min(n));
            let mut best = [idx[0], idx[1]];
            let mut best_cost = f64::INFINITY;
            for i in 0..idx.len() {
                for j in (i + 1)..idx.len() {
                    let (a, b) = (entries[idx[i]].object(), entries[idx[j]].object());
                    // Cost: the larger covering radius of the induced
                    // generalized-hyperplane partition.
                    let mut r1 = 0.0f64;
                    let mut r2 = 0.0f64;
                    for e in entries {
                        let d1 = dist.distance(a, e.object());
                        let d2 = dist.distance(b, e.object());
                        if d1 <= d2 {
                            r1 = r1.max(d1);
                        } else {
                            r2 = r2.max(d2);
                        }
                    }
                    let cost = r1.max(r2);
                    if cost < best_cost {
                        best_cost = cost;
                        best = [idx[i], idx[j]];
                    }
                }
            }
            best
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LeafEntry;
    use rand::SeedableRng;
    use strg_distance::{EgedMetric, SeqSummary};

    #[test]
    fn internal_split_inflates_radius_by_child_radius() {
        let mk = |v: f64, r: f64, child| RoutingEntry {
            pivot: vec![v],
            radius: r,
            parent_dist: 0.0,
            summary: SeqSummary::of(&[v], &0.0),
            child,
        };
        let entries = vec![mk(0.0, 3.0, 5), mk(1.0, 1.0, 6), mk(100.0, 5.0, 7)];
        let mut rng = StdRng::seed_from_u64(1);
        let d = EgedMetric::<f64>::new();
        let policy = PromotePolicy::Sampling { samples: 3 };
        let halves = split(entries, [2, 9], &d, policy, &mut rng);
        let mut children = Vec::new();
        for (i, (e, node)) in halves.iter().enumerate() {
            assert_eq!(e.child, [2, 9][i]);
            let Node::Internal(members) = node else {
                panic!("expected an internal node");
            };
            // Each half's radius covers every member's ball.
            for c in members {
                assert!(e.radius + 1e-9 >= c.parent_dist + c.radius);
                children.push(c.child);
            }
        }
        children.sort_unstable();
        assert_eq!(children, [5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "fewer than two")]
    fn promote_needs_two() {
        let d = EgedMetric::<f64>::new();
        let mut rng = StdRng::seed_from_u64(0);
        let one = [LeafEntry {
            id: 0,
            seq: vec![1.0],
            parent_dist: 0.0,
            summary: SeqSummary::of(&[1.0], &0.0),
        }];
        promote(&one, &d, PromotePolicy::Random, &mut rng);
    }
}
