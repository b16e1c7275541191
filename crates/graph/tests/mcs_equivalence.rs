//! The star-specialized most-common-subgraph computation (used in the
//! tracking hot path) against an exact generic oracle: fixed cases with
//! known answers, then a property test on arbitrary neighborhood stars.
//!
//! The oracle is the textbook construction of Definition 6. Following Levi
//! \[16\], the most common subgraph of two attributed graphs is a maximum
//! clique of their *association graph*: its vertices are compatible node
//! pairs `(i, j)`, and its edges connect pairs that can coexist in one
//! common subgraph. The clique search is Bron–Kerbosch with pivoting.

use proptest::prelude::*;
use strg_graph::{
    star_common_subgraph_size, CompatParams, NodeAttr, Point2, Rgb, SmallGraph, SpatialEdgeAttr,
};

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
fn most_common_subgraph_size(g1: &SmallGraph, g2: &SmallGraph, p: &CompatParams) -> usize {
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
    // the stars and small graphs this file compares.
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

fn attr(color_idx: u8, size: u8) -> NodeAttr {
    NodeAttr::new(
        10 + size as u32,
        Rgb::new(color_idx as f64 * 60.0, 0.0, 0.0),
        Point2::ZERO,
    )
}

fn edge(len_idx: u8) -> SpatialEdgeAttr {
    SpatialEdgeAttr {
        distance: 10.0 * (len_idx as f64 + 1.0),
        orientation: 0.0,
    }
}

/// Builds a star from (center, leaves) specs where each leaf is
/// (color_idx, size, edge_len_idx).
fn star(center: (u8, u8), leaves: &[(u8, u8, u8)]) -> SmallGraph {
    let mut g = SmallGraph::new();
    let c = g.add_node(attr(center.0, center.1));
    for &(col, sz, el) in leaves {
        let n = g.add_node(attr(col, sz));
        g.add_edge(c, n, edge(el));
    }
    g
}

/// A star whose leaves differ only in color (size 0, edge length 0).
fn colors(center: u8, leaves: &[u8]) -> SmallGraph {
    let leaves: Vec<_> = leaves.iter().map(|&c| (c, 0, 0)).collect();
    star((center, 0), &leaves)
}

fn params() -> CompatParams {
    CompatParams {
        color_tol: 30.0,    // color indices differ by 60: only same idx matches
        size_rel_tol: 0.35, // sizes 10..14: all compatible
        edge_dist_tol: 5.0, // edge lengths differ by 10: only same idx matches
        edge_orient_tol: 1.0,
    }
}

#[test]
fn oracle_and_star_mcs_agree_on_known_cases() {
    // Identically labeled triangle and path: a common *induced* subgraph
    // can use at most two of the three nodes.
    let mut tri = SmallGraph::new();
    let mut path = SmallGraph::new();
    for _ in 0..3 {
        tri.add_node(attr(0, 0));
        path.add_node(attr(0, 0));
    }
    for (u, v) in [(0, 1), (1, 2), (0, 2)] {
        tri.add_edge(u, v, edge(0));
    }
    for (u, v) in [(0, 1), (1, 2)] {
        path.add_edge(u, v, edge(0));
    }

    // (name, g1, g2, exact MCS size, whether both inputs are stars)
    let cases = [
        (
            "identical stars",
            colors(0, &[1, 2, 3]),
            colors(0, &[1, 2, 3]),
            4,
            true,
        ),
        (
            "disjoint labels",
            colors(0, &[1, 2]),
            colors(4, &[5, 6]),
            0,
            true,
        ),
        (
            "two of three leaves shared",
            colors(0, &[1, 2, 3]),
            colors(0, &[1, 2, 4]),
            3,
            true,
        ),
        (
            "smaller star embeds fully",
            colors(0, &[1, 2]),
            colors(0, &[1, 2, 3, 4]),
            3,
            true,
        ),
        ("empty graph", SmallGraph::new(), colors(0, &[1]), 0, true),
        ("one leaf each", colors(0, &[1]), colors(0, &[1]), 2, true),
        (
            "incompatible centers, compatible leaves",
            colors(4, &[1, 2]),
            colors(0, &[1, 2]),
            2,
            true,
        ),
        (
            "incompatible star edges keep one pair",
            star((0, 0), &[(1, 0, 0)]),
            star((0, 0), &[(1, 0, 2)]),
            1,
            true,
        ),
        ("triangle vs path", tri, path, 2, false),
    ];
    let p = params();
    for (name, g1, g2, want, stars) in &cases {
        assert_eq!(most_common_subgraph_size(g1, g2, &p), *want, "{name}");
        assert_eq!(
            most_common_subgraph_size(g2, g1, &p),
            *want,
            "{name}, swapped"
        );
        if *stars {
            assert_eq!(
                star_common_subgraph_size(g1, g2, &p),
                *want,
                "{name}, stars"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn star_mcs_equals_generic_mcs(
        c1 in (0u8..4, 0u8..4),
        c2 in (0u8..4, 0u8..4),
        l1 in prop::collection::vec((0u8..4, 0u8..4, 0u8..3), 0..6),
        l2 in prop::collection::vec((0u8..4, 0u8..4, 0u8..3), 0..6),
    ) {
        let g1 = star(c1, &l1);
        let g2 = star(c2, &l2);
        let p = params();
        let fast = star_common_subgraph_size(&g1, &g2, &p);
        let slow = most_common_subgraph_size(&g1, &g2, &p);
        prop_assert_eq!(fast, slow, "stars {:?} vs {:?}", (c1, &l1), (c2, &l2));
    }
}
