//! The `SimGraph` similarity of Equation (1) as the tracker computes it,
//! over neighborhood stars (Definition 7), and the node matching that
//! compares Background Graphs in Algorithm 3.
//!
//! The most common subgraph (Definition 6) of two stars has a closed form
//! ([`star_common_subgraph_size`]), so no clique search is needed. The
//! generic maximum-clique construction it replaces is kept as the oracle
//! of `tests/mcs_equivalence.rs`.

use crate::attr::CompatParams;
use crate::small::SmallGraph;

/// Exact most-common-subgraph size for two *star* graphs (node 0 the
/// center, as produced by [`SmallGraph::neighborhood`]).
///
/// A common induced subgraph of two stars either contains both centers —
/// contributing `1 +` a maximum matching of leaves whose node *and* edge
/// attributes are compatible — or no center at all — a maximum matching of
/// attribute-compatible leaves with no edge constraint (leaf sets are
/// independent on both sides). This runs in `O(n * m)`-ish time via Kuhn's
/// augmenting paths, replacing the exponential clique search in the
/// tracking hot path (high-degree background regions made the generic
/// search pathological).
pub fn star_common_subgraph_size(g1: &SmallGraph, g2: &SmallGraph, p: &CompatParams) -> usize {
    let n1 = g1.node_count();
    let n2 = g2.node_count();
    if n1 == 0 || n2 == 0 {
        return 0;
    }
    if n1 == 1 || n2 == 1 {
        // One side is a bare node: the MCS is one compatible node.
        for i in 0..n1 as u8 {
            for j in 0..n2 as u8 {
                if p.nodes_compatible(g1.label(i), g2.label(j)) {
                    return 1;
                }
            }
        }
        return 0;
    }
    let leaves1 = (1..n1 as u8).collect::<Vec<_>>();
    let leaves2 = (1..n2 as u8).collect::<Vec<_>>();

    let centers_ok = p.nodes_compatible(g1.label(0), g2.label(0));
    // Matching with edge compatibility (for the with-centers case).
    let with_edges = max_bipartite(&leaves1, &leaves2, |a, b| {
        p.nodes_compatible(g1.label(a), g2.label(b))
            && match (g1.edge_attr(0, a), g2.edge_attr(0, b)) {
                (Some(e1), Some(e2)) => p.edges_compatible(e1, e2),
                _ => false,
            }
    });
    // Matching on node labels only (for the centerless case).
    let free = max_bipartite(&leaves1, &leaves2, |a, b| {
        p.nodes_compatible(g1.label(a), g2.label(b))
    });
    let with_centers = if centers_ok { 1 + with_edges } else { 0 };

    // Cross mapping: center1 -> leaf2_j and leaf1_i -> center2 (size 2);
    // no further node can join (every other leaf1 is adjacent to center1
    // but its image would not be adjacent to leaf2_j).
    let mut cross = 0;
    'outer: for &a in &leaves1 {
        for &b in &leaves2 {
            if p.nodes_compatible(g1.label(0), g2.label(b))
                && p.nodes_compatible(g1.label(a), g2.label(0))
            {
                if let (Some(e1), Some(e2)) = (g1.edge_attr(0, a), g2.edge_attr(0, b)) {
                    if p.edges_compatible(e1, e2) {
                        cross = 2;
                        break 'outer;
                    }
                }
            }
        }
    }

    // Any single compatible node pair gives at least 1.
    let mut single = 0;
    'single: for i in 0..n1 as u8 {
        for j in 0..n2 as u8 {
            if p.nodes_compatible(g1.label(i), g2.label(j)) {
                single = 1;
                break 'single;
            }
        }
    }

    with_centers.max(free).max(cross).max(single)
}

/// Kuhn's maximum bipartite matching over explicit candidate predicates.
fn max_bipartite(left: &[u8], right: &[u8], compat: impl Fn(u8, u8) -> bool) -> usize {
    let mut match_r: Vec<Option<usize>> = vec![None; right.len()];
    let mut matched = 0;
    for (li, &l) in left.iter().enumerate() {
        let mut visited = vec![false; right.len()];
        if augment(li, l, left, right, &compat, &mut match_r, &mut visited) {
            matched += 1;
        }
    }
    matched
}

fn augment(
    li: usize,
    l: u8,
    left: &[u8],
    right: &[u8],
    compat: &impl Fn(u8, u8) -> bool,
    match_r: &mut Vec<Option<usize>>,
    visited: &mut Vec<bool>,
) -> bool {
    for (ri, &r) in right.iter().enumerate() {
        if visited[ri] || !compat(l, r) {
            continue;
        }
        visited[ri] = true;
        let free = match match_r[ri] {
            None => true,
            Some(prev_li) => augment(
                prev_li,
                left[prev_li],
                left,
                right,
                compat,
                match_r,
                visited,
            ),
        };
        if free {
            match_r[ri] = Some(li);
            return true;
        }
    }
    false
}

/// `SimGraph` (Equation 1) specialized to neighborhood stars, used by the
/// tracker: exact and fast via [`star_common_subgraph_size`].
pub fn sim_graph_stars(g1: &SmallGraph, g2: &SmallGraph, p: &CompatParams) -> f64 {
    let denom = g1.node_count().min(g2.node_count());
    if denom == 0 {
        return 0.0;
    }
    star_common_subgraph_size(g1, g2, p) as f64 / denom as f64
}

/// Greedy mutually-best matching over bare node attribute sets, for graphs
/// beyond [`SmallGraph`]'s 64-node cap (i.e. Background Graphs).
pub fn greedy_attr_match(
    a: &[crate::attr::NodeAttr],
    b: &[crate::attr::NodeAttr],
    p: &CompatParams,
) -> usize {
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
pub fn background_similarity(
    a: &crate::og::BackgroundGraph,
    b: &crate::og::BackgroundGraph,
    p: &CompatParams,
) -> f64 {
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
    use crate::attr::{NodeAttr, SpatialEdgeAttr};
    use crate::geom::{Point2, Rgb};

    fn attr(color: f64) -> NodeAttr {
        NodeAttr::new(10, Rgb::new(color, 0.0, 0.0), Point2::ZERO)
    }

    fn e() -> SpatialEdgeAttr {
        SpatialEdgeAttr {
            distance: 1.0,
            orientation: 0.0,
        }
    }

    fn loose() -> CompatParams {
        CompatParams {
            color_tol: 5.0,
            size_rel_tol: 1.0,
            edge_dist_tol: 100.0,
            edge_orient_tol: 10.0,
        }
    }

    fn star(center: f64, leaves: &[f64]) -> SmallGraph {
        let mut g = SmallGraph::new();
        let c = g.add_node(attr(center));
        for &l in leaves {
            let n = g.add_node(attr(l));
            g.add_edge(c, n, e());
        }
        g
    }

    #[test]
    fn background_similarity_discriminates() {
        use crate::og::BackgroundGraph;
        use crate::rag::{FrameId, Rag};
        let mk = |colors: &[f64]| {
            let mut rag = Rag::new(FrameId(0));
            for &c in colors {
                rag.add_node(attr(c));
            }
            BackgroundGraph {
                rag,
                frames_covered: 1,
            }
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
        assert_eq!(star_common_subgraph_size(&single, &big, &p), 1);
        assert_eq!(star_common_subgraph_size(&big, &single, &p), 1);
        let incompatible = star(200.0, &[]);
        assert_eq!(star_common_subgraph_size(&incompatible, &single, &p), 0);
        let empty = SmallGraph::new();
        assert_eq!(star_common_subgraph_size(&empty, &big, &p), 0);
    }

    #[test]
    fn greedy_attr_match_is_injective() {
        let a = vec![attr(0.0), attr(0.0), attr(0.0)];
        let b = vec![attr(0.0)];
        assert_eq!(greedy_attr_match(&a, &b, &loose()), 1);
        assert_eq!(greedy_attr_match(&b, &a, &loose()), 1);
    }
}
