//! Neighborhood graphs (Definition 7) and their most common subgraph
//! (Definition 6), which answer both of Algorithm 1's questions, plus the
//! node matching that compares Background Graphs in Algorithm 3.
//!
//! A neighborhood graph is a star, and the most common subgraph of two
//! stars has a closed form ([`Star::common_size`]), so no clique search is
//! needed. Two stars are isomorphic (Definition 4) exactly when they have
//! the same size and their most common subgraph covers every node. The
//! generic searches this replaces — VF2 for isomorphism, a maximum clique
//! of the association graph for the most common subgraph — are kept as
//! the oracles of `tests/mcs_equivalence.rs`.

use crate::attr::{CompatParams, NodeAttr, SpatialEdgeAttr};
use crate::og::BackgroundGraph;
use crate::rag::{NodeId, Rag};

/// The neighborhood graph `G_N(v)` of Definition 7: the region `v` plus
/// every adjacent region `u`, each joined to `v` by the single edge
/// `(v, u)`. Edges between the neighbors themselves are not part of it.
#[derive(Clone, Debug)]
pub struct Star {
    /// The centre region `v`.
    pub centre: NodeAttr,
    /// Each neighbor `u` of `v` with the attribute the RAG stores for the
    /// edge `{v, u}` (oriented from the lower to the higher region id), in
    /// the RAG's neighbor order.
    pub leaves: Vec<(NodeAttr, SpatialEdgeAttr)>,
}

impl Star {
    /// Builds `G_N(v)` from the RAG holding `v`.
    pub fn neighborhood(rag: &Rag, v: NodeId) -> Self {
        let leaves = rag
            .incident(v)
            .map(|(u, edge)| (*rag.attr(u), *edge))
            .collect();
        Self {
            centre: *rag.attr(v),
            leaves,
        }
    }

    /// Number of nodes, `|G_N(v)|` in the paper's notation.
    pub fn node_count(&self) -> usize {
        1 + self.leaves.len()
    }

    /// Exact size of the most common subgraph of `self` and `other`.
    ///
    /// A common induced subgraph of two stars is one of four shapes, and
    /// the size is the largest of them:
    /// * both centres, plus a maximum matching of leaves whose node *and*
    ///   edge attributes are compatible;
    /// * no centre, and a maximum matching of attribute-compatible leaves
    ///   with no edge constraint (the leaves of a star are independent);
    /// * the cross pair, each centre mapped to a leaf of the other star
    ///   (size 2: no further node can join, since every other leaf of one
    ///   centre would map to a node not adjacent to the other's leaf);
    /// * a single compatible node pair.
    ///
    /// The matchings use Kuhn's augmenting paths, `O(n · m)`-ish time.
    pub fn common_size(&self, other: &Star, p: &CompatParams) -> usize {
        let (a, b) = (&self.leaves, &other.leaves);
        let with_centres = if p.nodes_compatible(&self.centre, &other.centre) {
            1 + max_matching(a.len(), b.len(), |i, j| {
                p.nodes_compatible(&a[i].0, &b[j].0) && p.edges_compatible(&a[i].1, &b[j].1)
            })
        } else {
            0
        };
        let centreless = max_matching(a.len(), b.len(), |i, j| {
            p.nodes_compatible(&a[i].0, &b[j].0)
        });
        let cross = a.iter().any(|(x, e)| {
            b.iter().any(|(y, f)| {
                p.nodes_compatible(&self.centre, y)
                    && p.nodes_compatible(x, &other.centre)
                    && p.edges_compatible(e, f)
            })
        });
        let single = usize::from(
            self.nodes()
                .any(|x| other.nodes().any(|y| p.nodes_compatible(x, y))),
        );
        with_centres
            .max(centreless)
            .max(2 * usize::from(cross))
            .max(single)
    }

    /// The centre, then the leaves.
    fn nodes(&self) -> impl Iterator<Item = &NodeAttr> {
        std::iter::once(&self.centre).chain(self.leaves.iter().map(|(u, _)| u))
    }
}

/// Kuhn's maximum bipartite matching: the most pairs `(i, j)` with
/// `compat(i, j)`, each `i < left` and each `j < right` used at most once.
fn max_matching(left: usize, right: usize, compat: impl Fn(usize, usize) -> bool) -> usize {
    let mut owner = vec![None; right];
    (0..left)
        .filter(|&i| augment(i, &compat, &mut owner, &mut vec![false; right]))
        .count()
}

/// Finds an augmenting path from left node `i`, re-matching the right
/// nodes' current owners as needed.
fn augment(
    i: usize,
    compat: &impl Fn(usize, usize) -> bool,
    owner: &mut [Option<usize>],
    seen: &mut [bool],
) -> bool {
    for j in 0..owner.len() {
        if seen[j] || !compat(i, j) {
            continue;
        }
        seen[j] = true;
        if owner[j].is_none_or(|k| augment(k, compat, owner, seen)) {
            owner[j] = Some(i);
            return true;
        }
    }
    false
}

/// Greedy mutually-best matching over bare node attribute sets, for graphs
/// too large for an exact matching (i.e. Background Graphs).
pub fn greedy_attr_match(a: &[NodeAttr], b: &[NodeAttr], p: &CompatParams) -> usize {
    let mut candidates: Vec<(f64, usize, usize)> = Vec::new();
    for (i, na) in a.iter().enumerate() {
        for (j, nb) in b.iter().enumerate() {
            if p.nodes_compatible(na, nb) {
                candidates.push((na.color.dist(nb.color), i, j));
            }
        }
    }
    candidates.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut used_a = vec![false; a.len()];
    let mut used_b = vec![false; b.len()];
    let mut matched = 0;
    for (_, i, j) in candidates {
        if !used_a[i] && !used_b[j] {
            used_a[i] = true;
            used_b[j] = true;
            matched += 1;
        }
    }
    matched
}

/// `SimGraph`-flavored similarity between two Background Graphs (Algorithm
/// 3 step 2 compares the query BG against each root record): matched node
/// fraction in `[0, 1]` via [`greedy_attr_match`].
pub fn background_similarity(a: &BackgroundGraph, b: &BackgroundGraph, p: &CompatParams) -> f64 {
    let na = a.rag.node_count();
    let nb = b.rag.node_count();
    let denom = na.min(nb);
    if denom == 0 {
        return 0.0;
    }
    greedy_attr_match(a.rag.node_attrs(), b.rag.node_attrs(), p) as f64 / denom as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point2, Rgb};
    use crate::rag::FrameId;

    fn attr(color: f64) -> NodeAttr {
        NodeAttr::new(10, Rgb::new(color, 0.0, 0.0), Point2::ZERO)
    }

    fn loose() -> CompatParams {
        CompatParams {
            color_tol: 5.0,
            size_rel_tol: 1.0,
            edge_dist_tol: 100.0,
            edge_orient_tol: 10.0,
        }
    }

    fn star(centre: f64, leaves: &[f64]) -> Star {
        let edge = SpatialEdgeAttr {
            distance: 1.0,
            orientation: 0.0,
        };
        Star {
            centre: attr(centre),
            leaves: leaves.iter().map(|&l| (attr(l), edge)).collect(),
        }
    }

    /// Definition 4 for stars, as the tracker decides it.
    fn isomorphic(a: &Star, b: &Star, p: &CompatParams) -> bool {
        a.node_count() == b.node_count() && a.common_size(b, p) == a.node_count()
    }

    #[test]
    fn neighborhood_is_a_star() {
        let (c, a, b, d) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let rag = Rag::from_pairs(
            FrameId(0),
            [0.0, 1.0, 2.0, 3.0].map(attr).to_vec(),
            [
                (c, a),
                (c, b),
                (a, b), // neighbor-neighbor edge must NOT appear
                (b, d), // d is not adjacent to c
            ],
        );

        let g = Star::neighborhood(&rag, c);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.centre, *rag.attr(c));
        let leaves: Vec<_> = g.leaves.iter().map(|(u, _)| *u).collect();
        assert_eq!(leaves, vec![*rag.attr(a), *rag.attr(b)]);
        assert_eq!(g.leaves[1].1, *rag.edge_attr(c, b).unwrap());
    }

    #[test]
    fn background_similarity_discriminates() {
        let mk = |colors: &[f64]| BackgroundGraph {
            rag: Rag::from_pairs(FrameId(0), colors.iter().map(|&c| attr(c)).collect(), []),
            frames_covered: 1,
        };
        let lab = mk(&[10.0, 60.0, 110.0]);
        let lab2 = mk(&[11.0, 61.0, 111.0]);
        let road = mk(&[200.0, 240.0, 160.0]);
        let p = loose();
        assert!(background_similarity(&lab, &lab2, &p) > 0.9);
        assert!(background_similarity(&lab, &road, &p) < 0.5);
        assert_eq!(background_similarity(&lab, &lab, &p), 1.0);
        let empty = mk(&[]);
        assert_eq!(background_similarity(&lab, &empty, &p), 0.0);
    }

    #[test]
    fn star_specialization_handles_singletons() {
        let single = star(10.0, &[]);
        let big = star(10.0, &[0.0, 50.0]);
        let p = loose();
        assert_eq!(single.common_size(&big, &p), 1);
        assert_eq!(big.common_size(&single, &p), 1);
        let incompatible = star(200.0, &[]);
        assert_eq!(incompatible.common_size(&single, &p), 0);
        assert!(isomorphic(&single, &single, &p));
        assert!(!isomorphic(&incompatible, &single, &p));
    }

    #[test]
    fn star_isomorphism_matches_permuted_leaves() {
        // Stars with the same multiset of leaf colors but different insertion
        // order must match.
        let g1 = star(10.0, &[0.0, 50.0, 100.0, 150.0]);
        let g2 = star(10.0, &[150.0, 0.0, 100.0, 50.0]);
        assert!(isomorphic(&g1, &g2, &loose()));

        let g3 = star(10.0, &[150.0, 0.0, 100.0, 200.0]);
        assert!(!isomorphic(&g1, &g3, &loose()));
        assert_eq!(g1.common_size(&g3, &loose()), 4);
    }

    #[test]
    fn greedy_attr_match_is_injective() {
        let a = vec![attr(0.0), attr(0.0), attr(0.0)];
        let b = vec![attr(0.0)];
        assert_eq!(greedy_attr_match(&a, &b, &loose()), 1);
        assert_eq!(greedy_attr_match(&b, &a, &loose()), 1);
    }
}
