//! The flat [`Rag`] against the incremental layout it replaced: a
//! `BTreeMap` of edge attributes keyed by `(min, max)` plus one sorted
//! neighbour `Vec` per node, filled one `add_edge` at a time.
//!
//! Random graphs, built from edge lists with duplicate, reversed and
//! self-loop pairs, must answer every query the same way in both: node
//! and edge counts, each node's neighbours and degree, `edge_attr` both
//! ways round (out-of-range ids included), the order and
//! attributes of `edges()`, `approx_bytes`, and each node's
//! neighbourhood star.

use std::collections::BTreeMap;

use proptest::prelude::*;
use strg_graph::{FrameId, NodeAttr, NodeId, Point2, Rag, Rgb, SpatialEdgeAttr, Star};

/// The incremental RAG: nodes pushed one by one, each edge inserted into
/// a map and into both endpoints' sorted neighbour lists.
#[derive(Default)]
struct Model {
    nodes: Vec<NodeAttr>,
    adj: Vec<Vec<NodeId>>,
    edges: BTreeMap<(NodeId, NodeId), SpatialEdgeAttr>,
}

impl Model {
    fn add_node(&mut self, attr: NodeAttr) {
        self.nodes.push(attr);
        self.adj.push(Vec::new());
    }

    /// `xi` from the endpoints, measured from `u` to `v` as given.
    fn add_edge(&mut self, u: NodeId, v: NodeId) {
        let attr = SpatialEdgeAttr::between(&self.nodes[u.idx()], &self.nodes[v.idx()]);
        self.add_edge_with(u, v, attr);
    }

    /// Self-loops are ignored; a repeated pair overwrites its attribute.
    fn add_edge_with(&mut self, u: NodeId, v: NodeId, attr: SpatialEdgeAttr) {
        if u == v {
            return;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if self.edges.insert(key, attr).is_none() {
            let pos = self.adj[u.idx()].binary_search(&v).unwrap_err();
            self.adj[u.idx()].insert(pos, v);
            let pos = self.adj[v.idx()].binary_search(&u).unwrap_err();
            self.adj[v.idx()].insert(pos, u);
        }
    }

    fn edge_attr(&self, u: NodeId, v: NodeId) -> Option<&SpatialEdgeAttr> {
        let key = if u < v { (u, v) } else { (v, u) };
        self.edges.get(&key)
    }

    fn approx_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<NodeAttr>()
            + self
                .adj
                .iter()
                .map(|l| l.len() * std::mem::size_of::<NodeId>())
                .sum::<usize>()
            + self.edges.len()
                * (std::mem::size_of::<(NodeId, NodeId)>() + std::mem::size_of::<SpatialEdgeAttr>())
    }

    /// `G_N(v)` read through neighbour lists and map lookups.
    fn star(&self, v: NodeId) -> (NodeAttr, Vec<(NodeAttr, SpatialEdgeAttr)>) {
        let leaves = self.adj[v.idx()]
            .iter()
            .map(|&u| (self.nodes[u.idx()], *self.edge_attr(v, u).unwrap()))
            .collect();
        (self.nodes[v.idx()], leaves)
    }
}

fn node(i: usize, (x, y): (u8, u8)) -> NodeAttr {
    NodeAttr::new(
        10 + i as u32,
        Rgb::new(i as f64, 0.0, 0.0),
        Point2::new(x as f64, y as f64),
    )
}

/// Compares every query of `rag` with `model`'s answer.
fn same(rag: &Rag, model: &Model) -> Result<(), TestCaseError> {
    let n = model.nodes.len();
    prop_assert_eq!(rag.node_count(), n);
    prop_assert_eq!(rag.edge_count(), model.edges.len());
    prop_assert_eq!(rag.node_attrs(), &model.nodes[..]);
    prop_assert_eq!(rag.approx_bytes(), model.approx_bytes());
    let edges: Vec<_> = rag.edges().map(|(u, v, a)| ((u, v), *a)).collect();
    let want: Vec<_> = model.edges.iter().map(|(&k, &a)| (k, a)).collect();
    prop_assert_eq!(edges, want);
    for v in (0..n as u32).map(NodeId) {
        prop_assert_eq!(
            rag.neighbors(v).collect::<Vec<_>>(),
            model.adj[v.idx()].clone()
        );
        prop_assert_eq!(rag.degree(v), model.adj[v.idx()].len());
        let star = Star::neighborhood(rag, v);
        let (centre, leaves) = model.star(v);
        prop_assert_eq!(star.centre, centre);
        prop_assert_eq!(star.leaves, leaves);
    }
    for u in (0..n as u32 + 2).map(NodeId) {
        for v in (0..n as u32 + 2).map(NodeId) {
            prop_assert_eq!(rag.edge_attr(u, v), model.edge_attr(u, v));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Attributes derived from the endpoints, as every producer but the
    /// temporal subgraph builds them. Nine nodes and up to 24 pairs make
    /// repeats, reversals and self-loops common.
    #[test]
    fn derived_attributes_match_the_model(
        coords in prop::collection::vec((0u8..16, 0u8..16), 0..9),
        pairs in prop::collection::vec((0u32..9, 0u32..9), 0..24),
    ) {
        let n = coords.len() as u32;
        let nodes: Vec<NodeAttr> = coords.iter().enumerate().map(|(i, &c)| node(i, c)).collect();
        let pairs: Vec<(NodeId, NodeId)> = if n == 0 {
            Vec::new()
        } else {
            pairs.iter().map(|&(u, v)| (NodeId(u % n), NodeId(v % n))).collect()
        };
        let mut model = Model::default();
        for &a in &nodes {
            model.add_node(a);
        }
        for &(u, v) in &pairs {
            model.add_edge(u, v);
        }
        same(&Rag::from_pairs(FrameId(3), nodes, pairs), &model)?;
    }

    /// Explicit attributes, each pair's distinct, so a repeated pair shows
    /// which of its attributes is kept.
    #[test]
    fn explicit_attributes_match_the_model(
        coords in prop::collection::vec((0u8..16, 0u8..16), 1..9),
        pairs in prop::collection::vec((0u32..9, 0u32..9), 0..24),
    ) {
        let n = coords.len() as u32;
        let nodes: Vec<NodeAttr> = coords.iter().enumerate().map(|(i, &c)| node(i, c)).collect();
        let edges: Vec<_> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| {
                let attr = SpatialEdgeAttr { distance: i as f64, orientation: -(i as f64) };
                (NodeId(u % n), NodeId(v % n), attr)
            })
            .collect();
        let mut model = Model::default();
        for &a in &nodes {
            model.add_node(a);
        }
        for &(u, v, attr) in &edges {
            model.add_edge_with(u, v, attr);
        }
        same(&Rag::new(FrameId(3), nodes, edges), &model)?;
    }
}
