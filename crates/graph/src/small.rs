//! Small attributed graphs with bitset adjacency.
//!
//! The tracker's matching — isomorphism (Definition 4) and the
//! most-common-subgraph `SimGraph` (Definition 6) — operates on
//! neighborhood graphs (Definition 7): a star around one region that
//! rarely exceeds a dozen nodes. [`SmallGraph`] stores such graphs with
//! `u64` bitset adjacency rows, which makes the backtracking matcher cheap.

use std::collections::BTreeMap;

use crate::attr::{NodeAttr, SpatialEdgeAttr};
use crate::rag::{NodeId, Rag};

/// An attributed undirected graph with at most [`SmallGraph::MAX_NODES`]
/// nodes, used for isomorphism tests and common-subgraph computation.
#[derive(Clone, Debug, Default)]
pub struct SmallGraph {
    labels: Vec<NodeAttr>,
    adj: Vec<u64>,
    edges: BTreeMap<(u8, u8), SpatialEdgeAttr>,
}

impl SmallGraph {
    /// Maximum number of nodes representable (bitset width).
    pub const MAX_NODES: usize = 64;

    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes, `|G|` in the paper's notation.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node and returns its index.
    ///
    /// # Panics
    /// Panics if the graph already holds [`SmallGraph::MAX_NODES`] nodes.
    pub fn add_node(&mut self, label: NodeAttr) -> u8 {
        assert!(
            self.labels.len() < Self::MAX_NODES,
            "SmallGraph supports at most {} nodes",
            Self::MAX_NODES
        );
        let id = self.labels.len() as u8;
        self.labels.push(label);
        self.adj.push(0);
        id
    }

    /// Adds an undirected attributed edge. Self-loops are ignored.
    pub fn add_edge(&mut self, u: u8, v: u8, attr: SpatialEdgeAttr) {
        if u == v {
            return;
        }
        assert!((u as usize) < self.labels.len() && (v as usize) < self.labels.len());
        self.adj[u as usize] |= 1 << v;
        self.adj[v as usize] |= 1 << u;
        let key = if u < v { (u, v) } else { (v, u) };
        self.edges.insert(key, attr);
    }

    /// Node label (attribute record) of node `v`.
    pub fn label(&self, v: u8) -> &NodeAttr {
        &self.labels[v as usize]
    }

    /// Whether the edge `{u, v}` exists.
    pub fn has_edge(&self, u: u8, v: u8) -> bool {
        self.adj[u as usize] & (1 << v) != 0
    }

    /// Attribute of the edge `{u, v}`, if present.
    pub fn edge_attr(&self, u: u8, v: u8) -> Option<&SpatialEdgeAttr> {
        let key = if u < v { (u, v) } else { (v, u) };
        self.edges.get(&key)
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: u8) -> u32 {
        self.adj[v as usize].count_ones()
    }

    /// Bitset of neighbors of `v`.
    pub fn neighbors_mask(&self, v: u8) -> u64 {
        self.adj[v as usize]
    }

    /// Builds the neighborhood graph `G_N(v)` of Definition 7: node `v`
    /// plus every adjacent node `u`, each connected to `v` by the single
    /// edge `(v, u)`. Node 0 of the result is the center `v`; node `i + 1`
    /// corresponds to the `i`-th neighbor. Also returns the original RAG
    /// node ids in result order.
    ///
    /// Note the neighborhood graph is a *star*: edges between the neighbors
    /// themselves are not part of `G_N(v)` per Definition 7.
    pub fn neighborhood(rag: &Rag, v: NodeId) -> (Self, Vec<NodeId>) {
        let mut g = SmallGraph::new();
        let mut ids = Vec::with_capacity(rag.degree(v) + 1);
        g.add_node(*rag.attr(v));
        ids.push(v);
        for &u in rag.neighbors(v).iter().take(Self::MAX_NODES - 1) {
            let idx = g.add_node(*rag.attr(u));
            ids.push(u);
            let attr = *rag
                .edge_attr(v, u)
                .expect("neighbor implies an existing edge");
            g.add_edge(0, idx, attr);
        }
        (g, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point2, Rgb};
    use crate::rag::FrameId;

    fn attr(x: f64) -> NodeAttr {
        NodeAttr::new(10, Rgb::BLACK, Point2::new(x, 0.0))
    }

    fn edge() -> SpatialEdgeAttr {
        SpatialEdgeAttr {
            distance: 1.0,
            orientation: 0.0,
        }
    }

    #[test]
    fn build_and_query() {
        let mut g = SmallGraph::new();
        let a = g.add_node(attr(0.0));
        let b = g.add_node(attr(1.0));
        let c = g.add_node(attr(2.0));
        g.add_edge(a, b, edge());
        g.add_edge(b, c, edge());
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(a, b) && g.has_edge(b, a));
        assert!(!g.has_edge(a, c));
        assert_eq!(g.degree(b), 2);
        assert_eq!(g.neighbors_mask(b), 0b101);
        assert!(g.edge_attr(c, b).is_some());
    }

    #[test]
    fn self_loop_ignored() {
        let mut g = SmallGraph::new();
        let a = g.add_node(attr(0.0));
        g.add_edge(a, a, edge());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn neighborhood_is_a_star() {
        let mut rag = Rag::new(FrameId(0));
        let c = rag.add_node(attr(0.0));
        let a = rag.add_node(attr(1.0));
        let b = rag.add_node(attr(2.0));
        let d = rag.add_node(attr(3.0));
        rag.add_edge(c, a);
        rag.add_edge(c, b);
        rag.add_edge(a, b); // neighbor-neighbor edge must NOT appear
        rag.add_edge(b, d); // d is not adjacent to c

        let (g, ids) = SmallGraph::neighborhood(&rag, c);
        assert_eq!(g.node_count(), 3);
        assert_eq!(ids[0], c);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1) && g.has_edge(0, 2));
        assert!(!g.has_edge(1, 2));
        assert!(!ids.contains(&d));
    }
}
