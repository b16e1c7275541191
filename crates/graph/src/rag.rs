//! Region Adjacency Graphs (Definition 1).
//!
//! A RAG `G_r(f_n) = {V, E_S, nu, xi}` holds one node per segmented region
//! of frame `f_n` and one spatial edge per pair of adjacent regions, with
//! attributes generated from the regions themselves.
//!
//! The layout is flat and built once, in one pass ([`Rag::new`]): the node
//! attributes, the edge set as one array sorted by `(u, v)` with `u < v`,
//! and compressed-sparse-row adjacency whose entries carry each
//! neighbour's edge index. A RAG costs four allocations whatever its size,
//! and a neighbour's edge attribute is one index away.

use crate::attr::{NodeAttr, SpatialEdgeAttr};

/// Identifier of a node (region) within one RAG. Indices are dense and start
/// at zero.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for slice addressing.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a frame within a video segment (0-based frame number).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u32);

/// A Region Adjacency Graph: the spatial view of one frame's regions.
#[derive(Clone, Debug, Default)]
pub struct Rag {
    frame: FrameId,
    nodes: Vec<NodeAttr>,
    /// Every edge once, `u < v`, sorted by `(u, v)`.
    edges: Vec<(NodeId, NodeId, SpatialEdgeAttr)>,
    /// `adj[offsets[v]..offsets[v + 1]]` are `v`'s entries, by neighbour
    /// id: the neighbour and the index of the shared edge in `edges`.
    offsets: Vec<u32>,
    adj: Vec<(NodeId, u32)>,
}

impl Rag {
    /// Builds the RAG of frame `frame` from its regions and spatial edges.
    ///
    /// Each edge `(u, v, attr)` keeps `attr` as given and is stored as
    /// `{min, max}`; self-loops are dropped, and a pair given more than
    /// once keeps its last attribute. Input already sorted by `(u, v)`
    /// with `u < v` and no pair twice (a segmentation's adjacency, a saved
    /// Background Graph) is taken as it is, without a sort.
    ///
    /// # Panics
    /// If an edge names a node outside `nodes`.
    pub fn new(
        frame: FrameId,
        nodes: Vec<NodeAttr>,
        mut edges: Vec<(NodeId, NodeId, SpatialEdgeAttr)>,
    ) -> Self {
        let n = nodes.len();
        for e in &mut edges {
            assert!(e.0.idx() < n && e.1.idx() < n, "edge endpoint out of range");
            if e.0 > e.1 {
                std::mem::swap(&mut e.0, &mut e.1);
            }
        }
        edges.retain(|e| e.0 != e.1);
        if !edges
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1))
        {
            // Stable, so the last of equal pairs is the one given last.
            edges.sort_by_key(|e| (e.0, e.1));
            edges.dedup_by(|later, kept| {
                let same = (later.0, later.1) == (kept.0, kept.1);
                if same {
                    kept.2 = later.2;
                }
                same
            });
        }

        // Counting sort into CSR. Walking the edges in `(u, v)` order lists
        // each node's lower neighbours, then its higher ones, both rising,
        // so every row comes out sorted.
        let mut offsets = vec![0u32; n + 1];
        for &(u, v, _) in &edges {
            offsets[u.idx() + 1] += 1;
            offsets[v.idx() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        assert!(u32::try_from(2 * edges.len()).is_ok(), "too many edges");
        let mut adj = vec![(NodeId(0), 0); 2 * edges.len()];
        // `offsets[x]` is x's write cursor, ending at x's row end (= the
        // next row's start); shifting by one slot restores the starts.
        for (i, &(u, v, _)) in edges.iter().enumerate() {
            for (at, node) in [(u, v), (v, u)] {
                adj[offsets[at.idx()] as usize] = (node, i as u32);
                offsets[at.idx()] += 1;
            }
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        Self {
            frame,
            nodes,
            edges,
            offsets,
            adj,
        }
    }

    /// [`Rag::new`] with each edge's attributes derived from its endpoint
    /// regions (`xi`), measured from the pair's first node to its second.
    ///
    /// # Panics
    /// If a pair names a node outside `nodes`.
    pub fn from_pairs(
        frame: FrameId,
        nodes: Vec<NodeAttr>,
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Self {
        let edges = pairs
            .into_iter()
            .map(|(u, v)| {
                let at = |x: NodeId| nodes.get(x.idx()).expect("edge endpoint out of range");
                (u, v, SpatialEdgeAttr::between(at(u), at(v)))
            })
            .collect();
        Self::new(frame, nodes, edges)
    }

    /// The frame this RAG was extracted from.
    pub fn frame(&self) -> FrameId {
        self.frame
    }

    /// Number of nodes (regions), `|V|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of spatial edges, `|E_S|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The attribute record of node `v` (`nu(v)`).
    pub fn attr(&self, v: NodeId) -> &NodeAttr {
        &self.nodes[v.idx()]
    }

    /// All node attributes, indexed by `NodeId`.
    pub fn node_attrs(&self) -> &[NodeAttr] {
        &self.nodes
    }

    /// Iterator over all node identifiers.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    fn row(&self, v: NodeId) -> &[(NodeId, u32)] {
        &self.adj[self.offsets[v.idx()] as usize..self.offsets[v.idx() + 1] as usize]
    }

    /// The neighbours of `v`, by ascending id.
    pub fn neighbors(&self, v: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.row(v).iter().map(|&(u, _)| u)
    }

    /// The neighbours of `v` with the attributes of their edges to `v`, by
    /// ascending neighbour id.
    pub fn incident(
        &self,
        v: NodeId,
    ) -> impl ExactSizeIterator<Item = (NodeId, &SpatialEdgeAttr)> + '_ {
        self.row(v)
            .iter()
            .map(|&(u, e)| (u, &self.edges[e as usize].2))
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.row(v).len()
    }

    /// Attributes of the spatial edge `{u, v}` (`xi(e_S)`), if it exists.
    pub fn edge_attr(&self, u: NodeId, v: NodeId) -> Option<&SpatialEdgeAttr> {
        if u.idx() >= self.nodes.len() {
            return None;
        }
        let row = self.row(u);
        let at = row.binary_search_by_key(&v, |&(u, _)| u).ok()?;
        Some(&self.edges[row[at].1 as usize].2)
    }

    /// Iterator over all edges as `(u, v, attr)` with `u < v`, sorted by
    /// `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, &SpatialEdgeAttr)> + '_ {
        self.edges.iter().map(|(u, v, a)| (*u, *v, a))
    }

    /// Approximate in-memory footprint in bytes, used by the size accounting
    /// of Equations (9) and (10): each node's attributes, and per edge two
    /// adjacency entries plus its keyed attributes. A model of the graph,
    /// not of this layout, so saved sizes do not move with it.
    pub fn approx_bytes(&self) -> usize {
        const PER_EDGE: usize = 2 * std::mem::size_of::<NodeId>()
            + std::mem::size_of::<(NodeId, NodeId)>()
            + std::mem::size_of::<SpatialEdgeAttr>();
        self.nodes.len() * std::mem::size_of::<NodeAttr>() + self.edges.len() * PER_EDGE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point2, Rgb};

    fn attr(x: f64, y: f64) -> NodeAttr {
        NodeAttr::new(10, Rgb::BLACK, Point2::new(x, y))
    }

    fn triangle() -> Rag {
        let nodes = vec![attr(0.0, 0.0), attr(3.0, 0.0), attr(0.0, 4.0)];
        Rag::from_pairs(
            FrameId(0),
            nodes,
            [(0, 1), (1, 2), (2, 0)].map(|(u, v)| (NodeId(u), NodeId(v))),
        )
    }

    #[test]
    fn build_and_query() {
        let g = triangle();
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.edge_attr(b, a).is_some());
        assert_eq!(g.degree(a), 2);
        assert_eq!(g.neighbors(a).collect::<Vec<_>>(), [b, c]);
        let e = g.edge_attr(a, b).unwrap();
        assert!((e.distance - 3.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_and_self_edges_ignored() {
        let pairs = [(0, 1), (1, 0), (0, 0)].map(|(u, v)| (NodeId(u), NodeId(v)));
        let g = Rag::from_pairs(FrameId(0), vec![attr(0.0, 0.0), attr(1.0, 0.0)], pairs);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId(0)), 1);
    }

    #[test]
    fn reversed_pair_keeps_its_orientation_and_last_attribute_wins() {
        let g = triangle();
        // `(2, 0)` was given high-to-low: stored as `{0, 2}`, angle from 2.
        let (u, v, e) = g.edges().nth(1).unwrap();
        assert_eq!((u, v), (NodeId(0), NodeId(2)));
        assert!((e.orientation + std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        let [first, last] = [1.0, 2.0].map(|d| SpatialEdgeAttr {
            distance: d,
            orientation: 0.0,
        });
        let nodes = vec![attr(0.0, 0.0), attr(1.0, 0.0)];
        let (a, b) = (NodeId(0), NodeId(1));
        let g = Rag::new(FrameId(0), nodes, vec![(a, b, first), (b, a, last)]);
        assert_eq!(g.edge_attr(a, b), Some(&last));
    }

    #[test]
    fn edge_attr_symmetric_lookup() {
        let g = triangle();
        assert_eq!(
            g.edge_attr(NodeId(0), NodeId(1)),
            g.edge_attr(NodeId(1), NodeId(0))
        );
        assert!(g.edge_attr(NodeId(0), NodeId(2)).is_some());
        assert_eq!(g.incident(NodeId(2)).len(), 2);
    }

    #[test]
    fn missing_edge_is_none() {
        let g = Rag::from_pairs(FrameId(0), vec![attr(0.0, 0.0), attr(1.0, 0.0)], []);
        assert!(g.edge_attr(NodeId(0), NodeId(1)).is_none());
        assert!(g.edge_attr(NodeId(7), NodeId(0)).is_none());
        assert_eq!(g.degree(NodeId(1)), 0);
    }

    #[test]
    fn approx_bytes_models_nodes_and_edges() {
        assert_eq!(Rag::default().approx_bytes(), 0);
        // 48 B per node, 32 B per edge (DESIGN.md §10).
        assert_eq!(triangle().approx_bytes(), 3 * 48 + 3 * 32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_endpoint_out_of_range_panics() {
        Rag::from_pairs(FrameId(0), vec![attr(0.0, 0.0)], [(NodeId(0), NodeId(7))]);
    }
}
