//! Most-common-subgraph computation (Definition 6) and the `SimGraph`
//! similarity of Equation (1).
//!
//! Following Levi \[16\], the most common subgraph of two attributed graphs is
//! found as a maximum clique of their *association graph*: the graph whose
//! vertices are compatible node pairs `(i, j)` and whose edges connect pairs
//! that can coexist in one common subgraph. The clique search is
//! Bron–Kerbosch with pivoting, with a work budget that gracefully degrades
//! to the best clique found so far (neighborhood graphs are stars, so the
//! budget is never hit in the tracking path).

use crate::attr::CompatParams;
use crate::small::SmallGraph;

/// Work budget for the clique search: maximum number of recursive expansions
/// before the search returns the best clique found so far.
const CLIQUE_BUDGET: usize = 200_000;

/// Size (node count) of the most common subgraph `G_C` of `g1` and `g2`
/// (Definition 6), computed as a maximum clique of the association graph.
///
/// Nodes are paired only when their attributes are compatible under `p`;
/// two pairs are connectable when they preserve (attributed) adjacency *and*
/// non-adjacency, so the common subgraph is induced in both inputs, matching
/// the paper's induced notion of subgraph (Definition 3).
pub fn most_common_subgraph_size(g1: &SmallGraph, g2: &SmallGraph, p: &CompatParams) -> usize {
    let n1 = g1.node_count();
    let n2 = g2.node_count();
    if n1 == 0 || n2 == 0 {
        return 0;
    }

    // Association graph vertices: compatible (i, j) pairs.
    let mut pairs: Vec<(u8, u8)> = Vec::new();
    for i in 0..n1 as u8 {
        for j in 0..n2 as u8 {
            if p.nodes_compatible(g1.label(i), g2.label(j)) {
                pairs.push((i, j));
            }
        }
    }
    if pairs.is_empty() {
        return 0;
    }
    // Cap the association graph at 128 vertices (two u64 words) — ample for
    // neighborhood stars; larger graphs should use `greedy_common_nodes`.
    let n = pairs.len().min(128);
    let pairs = &pairs[..n];

    // Adjacency of the association graph as two-word bitsets.
    let mut adj = vec![[0u64; 2]; n];
    for a in 0..n {
        let (i1, j1) = pairs[a];
        for b in (a + 1)..n {
            let (i2, j2) = pairs[b];
            if i1 == i2 || j1 == j2 {
                continue;
            }
            let e1 = g1.has_edge(i1, i2);
            let e2 = g2.has_edge(j1, j2);
            let ok = match (e1, e2) {
                (true, true) => {
                    let a1 = g1.edge_attr(i1, i2).expect("edge present");
                    let a2 = g2.edge_attr(j1, j2).expect("edge present");
                    p.edges_compatible(a1, a2)
                }
                (false, false) => true,
                _ => false,
            };
            if ok {
                adj[a][b / 64] |= 1 << (b % 64);
                adj[b][a / 64] |= 1 << (a % 64);
            }
        }
    }

    let mut search = CliqueSearch {
        adj: &adj,
        best: 0,
        budget: CLIQUE_BUDGET,
    };
    let mut cand = [0u64; 2];
    for (v, word) in cand.iter_mut().enumerate() {
        let bits = n.saturating_sub(v * 64).min(64);
        *word = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
    }
    search.expand(0, cand, [0u64; 2]);
    search.best
}

struct CliqueSearch<'a> {
    adj: &'a [[u64; 2]],
    best: usize,
    budget: usize,
}

impl CliqueSearch<'_> {
    /// Bron–Kerbosch with pivot on `cand | done`.
    fn expand(&mut self, depth: usize, mut cand: [u64; 2], mut done: [u64; 2]) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        let cand_count = cand[0].count_ones() + cand[1].count_ones();
        if cand_count == 0 {
            if done[0] == 0 && done[1] == 0 {
                self.best = self.best.max(depth);
            }
            return;
        }
        if depth + cand_count as usize <= self.best {
            return; // cannot beat the incumbent
        }
        // Pivot: vertex in cand|done with most candidates as neighbors.
        let union = [cand[0] | done[0], cand[1] | done[1]];
        let mut pivot = usize::MAX;
        let mut pivot_cover = u32::MAX;
        for v in iter_bits(union) {
            let nb = self.adj[v];
            let cover = (cand[0] & !nb[0]).count_ones() + (cand[1] & !nb[1]).count_ones();
            if cover < pivot_cover {
                pivot_cover = cover;
                pivot = v;
            }
        }
        let pivot_nb = if pivot == usize::MAX {
            [0, 0]
        } else {
            self.adj[pivot]
        };
        let ext = [cand[0] & !pivot_nb[0], cand[1] & !pivot_nb[1]];
        for v in iter_bits(ext).collect::<Vec<_>>() {
            let bit = (v / 64, 1u64 << (v % 64));
            let nb = self.adj[v];
            let new_cand = [cand[0] & nb[0], cand[1] & nb[1]];
            let new_done = [done[0] & nb[0], done[1] & nb[1]];
            self.expand(depth + 1, new_cand, new_done);
            cand[bit.0] &= !bit.1;
            done[bit.0] |= bit.1;
        }
        self.best = self.best.max(depth);
    }
}

fn iter_bits(words: [u64; 2]) -> impl Iterator<Item = usize> {
    (0..2).flat_map(move |w| {
        let mut word = words[w];
        std::iter::from_fn(move || {
            if word == 0 {
                None
            } else {
                let b = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(w * 64 + b)
            }
        })
    })
}

/// `SimGraph` similarity between two neighborhood graphs (Equation 1):
/// `|G_C| / min(|G_N(v)|, |G_N(v')|)`, in `[0, 1]`.
pub fn sim_graph(g1: &SmallGraph, g2: &SmallGraph, p: &CompatParams) -> f64 {
    let denom = g1.node_count().min(g2.node_count());
    if denom == 0 {
        return 0.0;
    }
    let common = most_common_subgraph_size(g1, g2, p);
    common as f64 / denom as f64
}

/// Scalable approximation of the common-subgraph node count used for large
/// graphs (background graphs can have hundreds of nodes, for which the exact
/// clique search is infeasible): greedy mutually-best bipartite matching on
/// node compatibility, scored by color distance.
pub fn greedy_common_nodes(g1: &SmallGraph, g2: &SmallGraph, p: &CompatParams) -> usize {
    let n1 = g1.node_count();
    let n2 = g2.node_count();
    let mut candidates: Vec<(f64, u8, u8)> = Vec::new();
    for i in 0..n1 as u8 {
        for j in 0..n2 as u8 {
            if p.nodes_compatible(g1.label(i), g2.label(j)) {
                let score = g1.label(i).color.dist(g2.label(j).color);
                candidates.push((score, i, j));
            }
        }
    }
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut used1 = vec![false; n1];
    let mut used2 = vec![false; n2];
    let mut matched = 0;
    for (_, i, j) in candidates {
        if !used1[i as usize] && !used2[j as usize] {
            used1[i as usize] = true;
            used2[j as usize] = true;
            matched += 1;
        }
    }
    matched
}

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
    fn identical_graphs_share_all_nodes() {
        let g = star(10.0, &[0.0, 50.0, 100.0]);
        assert_eq!(most_common_subgraph_size(&g, &g, &loose()), 4);
        assert!((sim_graph(&g, &g, &loose()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_labels_share_nothing() {
        let g1 = star(10.0, &[20.0, 30.0]);
        let g2 = star(200.0, &[220.0, 230.0]);
        assert_eq!(most_common_subgraph_size(&g1, &g2, &loose()), 0);
        assert_eq!(sim_graph(&g1, &g2, &loose()), 0.0);
    }

    #[test]
    fn partial_overlap_counts_common_star() {
        // Same center, two of three leaves shared.
        let g1 = star(10.0, &[0.0, 50.0, 100.0]);
        let g2 = star(10.0, &[0.0, 50.0, 200.0]);
        let c = most_common_subgraph_size(&g1, &g2, &loose());
        assert_eq!(c, 3); // center + two shared leaves
        assert!((sim_graph(&g1, &g2, &loose()) - 3.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn smaller_star_embeds_fully() {
        let g1 = star(10.0, &[0.0, 50.0]);
        let g2 = star(10.0, &[0.0, 50.0, 100.0, 150.0]);
        assert_eq!(most_common_subgraph_size(&g1, &g2, &loose()), 3);
        assert!((sim_graph(&g1, &g2, &loose()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_yields_zero() {
        let g1 = SmallGraph::new();
        let g2 = star(10.0, &[0.0]);
        assert_eq!(most_common_subgraph_size(&g1, &g2, &loose()), 0);
        assert_eq!(sim_graph(&g1, &g2, &loose()), 0.0);
    }

    #[test]
    fn sim_graph_is_symmetric() {
        let g1 = star(10.0, &[0.0, 50.0, 100.0]);
        let g2 = star(10.0, &[0.0, 50.0, 200.0, 250.0]);
        let p = loose();
        assert!((sim_graph(&g1, &g2, &p) - sim_graph(&g2, &g1, &p)).abs() < 1e-12);
    }

    #[test]
    fn induced_constraint_blocks_edge_mismatch() {
        // Triangle vs path on identically-labeled nodes: the common induced
        // subgraph can use at most 2 of the 3 nodes.
        let mut tri = SmallGraph::new();
        for _ in 0..3 {
            tri.add_node(attr(0.0));
        }
        tri.add_edge(0, 1, e());
        tri.add_edge(1, 2, e());
        tri.add_edge(0, 2, e());

        let mut path = SmallGraph::new();
        for _ in 0..3 {
            path.add_node(attr(0.0));
        }
        path.add_edge(0, 1, e());
        path.add_edge(1, 2, e());

        assert_eq!(most_common_subgraph_size(&tri, &path, &loose()), 2);
    }

    #[test]
    fn greedy_matching_counts_compatible_pairs() {
        let g1 = star(10.0, &[0.0, 50.0, 100.0]);
        let g2 = star(10.0, &[0.0, 50.0, 200.0]);
        // center+0+50 compatible; 100 vs 200 not.
        assert_eq!(greedy_common_nodes(&g1, &g2, &loose()), 3);
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
    fn star_specialization_matches_generic_clique_search() {
        let p = loose();
        let cases = [
            (
                star(10.0, &[0.0, 50.0, 100.0]),
                star(10.0, &[0.0, 50.0, 100.0]),
            ),
            (
                star(10.0, &[0.0, 50.0, 100.0]),
                star(10.0, &[0.0, 50.0, 200.0]),
            ),
            (
                star(10.0, &[0.0, 50.0]),
                star(10.0, &[0.0, 50.0, 100.0, 150.0]),
            ),
            (star(10.0, &[20.0, 30.0]), star(200.0, &[220.0, 230.0])),
            (star(10.0, &[0.0]), star(10.0, &[0.0])),
            // Incompatible centers but compatible leaves: centerless MCS.
            (star(200.0, &[0.0, 50.0]), star(10.0, &[0.0, 50.0])),
        ];
        for (g1, g2) in &cases {
            assert_eq!(
                star_common_subgraph_size(g1, g2, &p),
                most_common_subgraph_size(g1, g2, &p),
                "stars {:?} vs {:?}",
                g1.node_count(),
                g2.node_count()
            );
        }
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
    fn star_edge_attrs_gate_with_center_matching() {
        // Same labels, but the star edges differ wildly: the with-centers
        // matching must skip the incompatible leaf; the centerless matching
        // may still use it.
        let mut g1 = SmallGraph::new();
        let c = g1.add_node(attr(10.0));
        let l = g1.add_node(attr(0.0));
        g1.add_edge(
            c,
            l,
            SpatialEdgeAttr {
                distance: 1.0,
                orientation: 0.0,
            },
        );
        let mut g2 = SmallGraph::new();
        let c2 = g2.add_node(attr(10.0));
        let l2 = g2.add_node(attr(0.0));
        g2.add_edge(
            c2,
            l2,
            SpatialEdgeAttr {
                distance: 500.0,
                orientation: 0.0,
            },
        );
        let mut p = loose();
        p.edge_dist_tol = 5.0;
        // With centers: 1 (no edge-compatible leaf). Centerless: 1 leaf.
        // Generic search agrees: best is 1 + 0 or the leaf pair alone...
        // but leaf-leaf is a valid induced 2-node pairing only if pairing
        // (c,c) and (l,l) violates edges => the MCS is {c,c}+{}, {l,l}
        // pairs = 2 nodes? No: (c -> c2, l -> l2) requires edge compat,
        // which fails; (c -> l2, l -> c2)? c/l labels differ from l2/c2.
        // So MCS = max(1, pairing {l -> l2} alone + {c -> ???}) = ...
        assert_eq!(
            star_common_subgraph_size(&g1, &g2, &p),
            most_common_subgraph_size(&g1, &g2, &p)
        );
    }

    #[test]
    fn greedy_attr_match_is_injective() {
        let a = vec![attr(0.0), attr(0.0), attr(0.0)];
        let b = vec![attr(0.0)];
        assert_eq!(greedy_attr_match(&a, &b, &loose()), 1);
        assert_eq!(greedy_attr_match(&b, &a, &loose()), 1);
    }
}
