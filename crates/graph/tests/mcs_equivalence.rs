//! The tracker's star matcher against two exact generic oracles: fixed
//! cases with known answers, then property tests on arbitrary neighborhood
//! stars and on shuffled, optionally altered copies of one star.
//!
//! [`Star::common_size`] answers both of Algorithm 1's questions, so each
//! answer has its own oracle, run over [`Graph`], a small general graph
//! type local to this file:
//!
//! * the most common subgraph (Definition 6) is the textbook construction.
//!   Following Levi \[16\], it is a maximum clique of the two graphs'
//!   *association graph*: its vertices are compatible node pairs `(i, j)`,
//!   and its edges connect pairs that can coexist in one common subgraph.
//!   The clique search is Bron–Kerbosch with pivoting;
//! * isomorphism (Definition 4) is an exact backtracking search in the
//!   spirit of VF2. The tracker calls two stars isomorphic when they have
//!   the same size `n` and their most common subgraph has `n` nodes.

use std::collections::BTreeMap;

use proptest::prelude::*;
use strg_graph::{CompatParams, NodeAttr, Point2, Rgb, SpatialEdgeAttr, Star};

/// An attributed undirected graph of at most 64 nodes with bitset
/// adjacency rows: the input of both oracles.
#[derive(Clone, Debug, Default)]
struct Graph {
    labels: Vec<NodeAttr>,
    adj: Vec<u64>,
    edges: BTreeMap<(u8, u8), SpatialEdgeAttr>,
}

impl Graph {
    /// The star as a general graph: node 0 the centre, node `i + 1` the
    /// `i`-th leaf.
    fn from_star(s: &Star) -> Self {
        let mut g = Graph::default();
        let c = g.add_node(s.centre);
        for &(leaf, edge) in &s.leaves {
            let u = g.add_node(leaf);
            g.add_edge(c, u, edge);
        }
        g
    }

    fn node_count(&self) -> usize {
        self.labels.len()
    }

    fn edge_count(&self) -> usize {
        self.edges.len()
    }

    fn add_node(&mut self, label: NodeAttr) -> u8 {
        assert!(self.labels.len() < 64, "Graph holds at most 64 nodes");
        self.labels.push(label);
        self.adj.push(0);
        (self.labels.len() - 1) as u8
    }

    fn add_edge(&mut self, u: u8, v: u8, attr: SpatialEdgeAttr) {
        self.adj[u as usize] |= 1 << v;
        self.adj[v as usize] |= 1 << u;
        self.edges.insert((u.min(v), u.max(v)), attr);
    }

    fn label(&self, v: u8) -> &NodeAttr {
        &self.labels[v as usize]
    }

    fn has_edge(&self, u: u8, v: u8) -> bool {
        self.adj[u as usize] & (1 << v) != 0
    }

    fn edge_attr(&self, u: u8, v: u8) -> Option<&SpatialEdgeAttr> {
        self.edges.get(&(u.min(v), u.max(v)))
    }

    fn degree(&self, v: u8) -> u32 {
        self.adj[v as usize].count_ones()
    }
}

/// Whether `g1` and `g2` are isomorphic (Definition 4): a bijection between
/// their node sets preserving node labels and (attributed) adjacency.
fn isomorphic(g1: &Graph, g2: &Graph, p: &CompatParams) -> bool {
    if g1.node_count() != g2.node_count() || g1.edge_count() != g2.edge_count() {
        return false;
    }
    // Degree multisets must match.
    let degrees = |g: &Graph| {
        let mut d: Vec<u32> = (0..g.node_count() as u8).map(|v| g.degree(v)).collect();
        d.sort_unstable();
        d
    };
    if degrees(g1) != degrees(g2) {
        return false;
    }
    Matcher {
        g1,
        g2,
        p,
        mapping: vec![0; g1.node_count()],
        used: 0,
    }
    .search(0)
}

/// Backtracking matcher mapping the nodes of `g1` into `g2` in index
/// order. Non-edges must map to non-edges (induced matching, as the
/// paper's Definition 3 subgraphs are).
struct Matcher<'a> {
    g1: &'a Graph,
    g2: &'a Graph,
    p: &'a CompatParams,
    mapping: Vec<u8>,
    used: u64,
}

impl Matcher<'_> {
    fn feasible(&self, v1: u8, v2: u8) -> bool {
        if self.used & (1 << v2) != 0
            || !self
                .p
                .nodes_compatible(self.g1.label(v1), self.g2.label(v2))
            || self.g1.degree(v1) > self.g2.degree(v2)
        {
            return false;
        }
        // Consistency with already-mapped pattern nodes.
        (0..v1).all(|prev| {
            let w2 = self.mapping[prev as usize];
            match (self.g1.edge_attr(v1, prev), self.g2.edge_attr(v2, w2)) {
                (Some(a1), Some(a2)) => self.p.edges_compatible(a1, a2),
                (None, None) => true,
                _ => false,
            }
        })
    }

    fn search(&mut self, v1: u8) -> bool {
        if v1 as usize == self.g1.node_count() {
            return true;
        }
        for v2 in 0..self.g2.node_count() as u8 {
            if self.feasible(v1, v2) {
                self.mapping[v1 as usize] = v2;
                self.used |= 1 << v2;
                if self.search(v1 + 1) {
                    return true;
                }
                self.used &= !(1 << v2);
            }
        }
        false
    }
}

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
fn most_common_subgraph_size(g1: &Graph, g2: &Graph, p: &CompatParams) -> usize {
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

/// Builds a star from (centre, leaves) specs where the centre is
/// (color_idx, size) and each leaf is (color_idx, size, edge_len_idx).
fn star(centre: (u8, u8), leaves: &[(u8, u8, u8)]) -> Star {
    Star {
        centre: attr(centre.0, centre.1),
        leaves: leaves
            .iter()
            .map(|&(col, sz, el)| (attr(col, sz), edge(el)))
            .collect(),
    }
}

/// A star whose leaves differ only in color (size 0, edge length 0).
fn colors(centre: u8, leaves: &[u8]) -> Star {
    let leaves: Vec<_> = leaves.iter().map(|&c| (c, 0, 0)).collect();
    star((centre, 0), &leaves)
}

fn params() -> CompatParams {
    CompatParams {
        color_tol: 30.0,    // color indices differ by 60: only same idx matches
        size_rel_tol: 0.35, // sizes 10..14: all compatible
        edge_dist_tol: 5.0, // edge lengths differ by 10: only same idx matches
        edge_orient_tol: 1.0,
    }
}

/// Checks the star matcher against both oracles on one pair, both ways
/// round, and returns the common size and whether the pair is isomorphic.
fn check(s1: &Star, s2: &Star, p: &CompatParams) -> Result<(usize, bool), TestCaseError> {
    let (g1, g2) = (Graph::from_star(s1), Graph::from_star(s2));
    let mcs = most_common_subgraph_size(&g1, &g2, p);
    let iso = isomorphic(&g1, &g2, p);
    for (a, b) in [(s1, s2), (s2, s1)] {
        let c = a.common_size(b, p);
        prop_assert_eq!(c, mcs, "common size of {:?} vs {:?}", a, b);
        let star_iso = a.node_count() == b.node_count() && c == a.node_count();
        prop_assert_eq!(star_iso, iso, "isomorphism of {:?} vs {:?}", a, b);
    }
    Ok((mcs, iso))
}

#[test]
fn oracles_and_star_matcher_agree_on_known_cases() {
    // (name, s1, s2, exact MCS size, isomorphic)
    let cases = [
        (
            "identical stars",
            colors(0, &[1, 2, 3]),
            colors(0, &[1, 2, 3]),
            4,
            true,
        ),
        (
            "permuted leaves",
            colors(0, &[1, 2, 3]),
            colors(0, &[3, 1, 2]),
            4,
            true,
        ),
        ("bare nodes", colors(0, &[]), colors(0, &[]), 1, true),
        (
            "incompatible bare nodes",
            colors(0, &[]),
            colors(1, &[]),
            0,
            false,
        ),
        (
            "bare node inside a star",
            colors(1, &[]),
            colors(0, &[1, 2]),
            1,
            false,
        ),
        (
            "disjoint labels",
            colors(0, &[1, 2]),
            colors(4, &[5, 6]),
            0,
            false,
        ),
        (
            "two of three leaves shared",
            colors(0, &[1, 2, 3]),
            colors(0, &[1, 2, 4]),
            3,
            false,
        ),
        (
            "smaller star embeds fully",
            colors(0, &[1, 2]),
            colors(0, &[1, 2, 3, 4]),
            3,
            false,
        ),
        ("one leaf each", colors(0, &[1]), colors(0, &[1]), 2, true),
        (
            "two-node stars matched by the centre-leaf swap",
            colors(0, &[1]),
            colors(1, &[0]),
            2,
            true,
        ),
        (
            "incompatible centres, compatible leaves",
            colors(4, &[1, 2]),
            colors(0, &[1, 2]),
            2,
            false,
        ),
        (
            "incompatible star edges keep one pair",
            star((0, 0), &[(1, 0, 0)]),
            star((0, 0), &[(1, 0, 2)]),
            1,
            false,
        ),
        (
            "one edge outside tolerance",
            star((0, 0), &[(1, 0, 0), (2, 0, 0)]),
            star((0, 0), &[(1, 0, 0), (2, 0, 2)]),
            2,
            false,
        ),
    ];
    let p = params();
    for (name, s1, s2, mcs, iso) in &cases {
        assert_eq!(check(s1, s2, &p).unwrap(), (*mcs, *iso), "{name}");
    }

    // Beyond stars, the oracles still see induced structure: identically
    // labeled, a triangle and a path share at most two nodes and are not
    // isomorphic; an empty graph shares nothing.
    let mut tri = Graph::default();
    let mut path = Graph::default();
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
    let empty = Graph::default();
    let star = Graph::from_star(&colors(0, &[1]));
    for (name, g1, g2, mcs) in [
        ("triangle vs path", &tri, &path, 2),
        ("empty graph", &empty, &star, 0),
    ] {
        assert_eq!(most_common_subgraph_size(g1, g2, &p), mcs, "{name}");
        assert_eq!(
            most_common_subgraph_size(g2, g1, &p),
            mcs,
            "{name}, swapped"
        );
        assert!(!isomorphic(g1, g2, &p), "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn star_matcher_equals_oracles(
        c1 in (0u8..4, 0u8..4),
        c2 in (0u8..4, 0u8..4),
        l1 in prop::collection::vec((0u8..4, 0u8..4, 0u8..3), 0..6),
        l2 in prop::collection::vec((0u8..4, 0u8..4, 0u8..3), 0..6),
    ) {
        check(&star(c1, &l1), &star(c2, &l2), &params())?;
    }

    /// Random pairs are rarely isomorphic, so this one compares a star with
    /// a shuffled copy of itself, one leaf of which may be replaced.
    #[test]
    fn star_isomorphism_equals_vf2_on_shuffled_copies(
        c in (0u8..4, 0u8..4),
        leaves in prop::collection::vec((0u8..4, 0u8..4, 0u8..3), 0..6),
        keys in prop::collection::vec(0u32..1000, 6..7),
        replace in (0usize..12, (0u8..4, 0u8..4, 0u8..3)),
    ) {
        let mut order: Vec<usize> = (0..leaves.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let mut shuffled: Vec<_> = order.iter().map(|&i| leaves[i]).collect();
        if let Some(leaf) = shuffled.get_mut(replace.0) {
            *leaf = replace.1;
        }
        let (_, iso) = check(&star(c, &leaves), &star(c, &shuffled), &params())?;
        if replace.0 >= leaves.len() {
            prop_assert!(iso, "a shuffled copy is isomorphic");
        }
    }
}
