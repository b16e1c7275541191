//! Spatio-Temporal Region Graphs (Definition 2).
//!
//! An STRG `G_st(S) = {V, E_S, E_T, nu, xi, tau}` over a video segment `S`
//! is the sequence of per-frame RAGs plus *temporal edges* connecting
//! corresponding regions in consecutive frames. Temporal edges are produced
//! by the graph-based tracker (Algorithm 1, [`crate::tracking`]).

use crate::attr::TemporalEdgeAttr;
use crate::rag::{FrameId, NodeId, Rag};

/// A temporal edge `e_T = (v, v')` from a node of frame `m` to a node of
/// frame `m + 1`, with its attributes `tau(e_T)`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TemporalEdge {
    /// Node in frame `m`.
    pub from: NodeId,
    /// Node in frame `m + 1`.
    pub to: NodeId,
    /// Velocity and moving direction of the correspondence.
    pub attr: TemporalEdgeAttr,
}

/// A Spatio-Temporal Region Graph: per-frame RAGs plus the temporal edge
/// sets between consecutive frames.
#[derive(Clone, Debug, Default)]
pub struct Strg {
    frames: Vec<Rag>,
    /// `temporal[m]` holds edges from frame `m` to frame `m + 1`; its length
    /// is `frames.len() - 1` (or 0 for empty/singleton segments).
    temporal: Vec<Vec<TemporalEdge>>,
}

impl Strg {
    /// Assembles an STRG from per-frame RAGs and pre-computed temporal edge
    /// sets.
    ///
    /// # Panics
    /// Panics if `temporal.len()` is not `frames.len().saturating_sub(1)`,
    /// or if any edge references a node outside its frame pair.
    pub fn from_parts(frames: Vec<Rag>, temporal: Vec<Vec<TemporalEdge>>) -> Self {
        assert_eq!(
            temporal.len(),
            frames.len().saturating_sub(1),
            "need one temporal edge set per consecutive frame pair"
        );
        for (m, edges) in temporal.iter().enumerate() {
            for e in edges {
                assert!(
                    e.from.idx() < frames[m].node_count(),
                    "edge source in range"
                );
                assert!(
                    e.to.idx() < frames[m + 1].node_count(),
                    "edge target in range"
                );
            }
        }
        Self { frames, temporal }
    }

    /// Number of frames in the segment.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// The RAG of frame `m`.
    pub fn rag(&self, m: usize) -> &Rag {
        &self.frames[m]
    }

    /// All per-frame RAGs in order.
    pub fn rags(&self) -> &[Rag] {
        &self.frames
    }

    /// Temporal edges from frame `m` to frame `m + 1`.
    pub fn temporal_edges(&self, m: usize) -> &[TemporalEdge] {
        &self.temporal[m]
    }

    /// Total number of temporal edges, `|E_T|`.
    pub fn temporal_edge_count(&self) -> usize {
        self.temporal.iter().map(Vec::len).sum()
    }

    /// Total number of nodes across all frames, `|V|`.
    pub fn node_count(&self) -> usize {
        self.frames.iter().map(Rag::node_count).sum()
    }

    /// The outgoing temporal edge of node `v` of frame `m`, if any.
    /// Algorithm 1 adds at most one outgoing edge per node.
    pub fn out_edge(&self, m: usize, v: NodeId) -> Option<&TemporalEdge> {
        self.temporal.get(m)?.iter().find(|e| e.from == v)
    }

    /// Whether node `v` of frame `m` has an incoming temporal edge from
    /// frame `m - 1`.
    pub fn has_in_edge(&self, m: usize, v: NodeId) -> bool {
        m > 0 && self.temporal[m - 1].iter().any(|e| e.to == v)
    }

    /// The `FrameId` of frame index `m`.
    pub fn frame_id(&self, m: usize) -> FrameId {
        self.frames[m].frame()
    }

    /// Extracts the temporal subgraph induced by a node selection
    /// (Definition 8): per frame, keep the selected nodes; restrict the
    /// spatial edge set to `V' x V'` and the temporal edge set to selected
    /// endpoint pairs. `select(frame_index, node)` decides membership.
    ///
    /// Node ids are re-densified per frame; frame count is preserved (a
    /// frame may end up empty).
    pub fn temporal_subgraph(&self, mut select: impl FnMut(usize, NodeId) -> bool) -> Strg {
        use crate::attr::NodeAttr;
        let mut frames: Vec<Rag> = Vec::with_capacity(self.frames.len());
        // Per frame: old node id -> new node id.
        let mut remap: Vec<std::collections::HashMap<NodeId, NodeId>> =
            Vec::with_capacity(self.frames.len());
        for (m, rag) in self.frames.iter().enumerate() {
            let mut nodes: Vec<NodeAttr> = Vec::new();
            let mut map = std::collections::HashMap::new();
            for v in rag.node_ids() {
                if select(m, v) {
                    map.insert(v, NodeId(nodes.len() as u32));
                    nodes.push(*rag.attr(v));
                }
            }
            // Renumbering keeps node order, so the edges stay sorted.
            let edges = rag
                .edges()
                .filter_map(|(u, v, attr)| Some((*map.get(&u)?, *map.get(&v)?, *attr)))
                .collect();
            frames.push(Rag::new(rag.frame(), nodes, edges));
            remap.push(map);
        }
        let mut temporal = Vec::with_capacity(self.temporal.len());
        for (m, edges) in self.temporal.iter().enumerate() {
            let mut kept = Vec::new();
            for e in edges {
                if let (Some(&nf), Some(&nt)) = (remap[m].get(&e.from), remap[m + 1].get(&e.to)) {
                    kept.push(TemporalEdge {
                        from: nf,
                        to: nt,
                        attr: e.attr,
                    });
                }
            }
            temporal.push(kept);
        }
        Strg::from_parts(frames, temporal)
    }

    /// Approximate in-memory footprint in bytes (Equation 9's `size(STRG)`
    /// is computed at a higher level from OGs and BGs; this is the raw graph
    /// footprint).
    pub fn approx_bytes(&self) -> usize {
        self.frames.iter().map(Rag::approx_bytes).sum::<usize>()
            + self
                .temporal
                .iter()
                .map(|v| v.len() * std::mem::size_of::<TemporalEdge>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::NodeAttr;
    use crate::geom::{Point2, Rgb};

    fn rag_with(frame: u32, n: usize, pairs: &[(u32, u32)]) -> Rag {
        let nodes = (0..n)
            .map(|i| NodeAttr::new(10, Rgb::BLACK, Point2::new(i as f64, 0.0)))
            .collect();
        let pairs = pairs.iter().map(|&(u, v)| (NodeId(u), NodeId(v)));
        Rag::from_pairs(FrameId(frame), nodes, pairs)
    }

    fn rag(frame: u32, n: usize) -> Rag {
        rag_with(frame, n, &[])
    }

    fn edge(from: u32, to: u32) -> TemporalEdge {
        TemporalEdge {
            from: NodeId(from),
            to: NodeId(to),
            attr: TemporalEdgeAttr::STILL,
        }
    }

    #[test]
    fn assemble_and_query() {
        let frames = vec![rag(0, 2), rag(1, 2), rag(2, 1)];
        let temporal = vec![vec![edge(0, 0), edge(1, 1)], vec![edge(0, 0)]];
        let g = Strg::from_parts(frames, temporal);
        assert_eq!(g.frame_count(), 3);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.temporal_edge_count(), 3);
        assert_eq!(g.temporal_edges(0).len(), 2);
        assert_eq!(g.out_edge(0, NodeId(1)).unwrap().to, NodeId(1));
        assert!(g.out_edge(1, NodeId(1)).is_none());
        assert!(g.has_in_edge(1, NodeId(0)));
        assert!(!g.has_in_edge(0, NodeId(0)));
        assert!(!g.has_in_edge(2, NodeId(0)) || g.temporal_edges(1)[0].to == NodeId(0));
    }

    #[test]
    fn empty_and_singleton_segments() {
        let g = Strg::from_parts(vec![], vec![]);
        assert_eq!(g.frame_count(), 0);
        let g = Strg::from_parts(vec![rag(0, 3)], vec![]);
        assert_eq!(g.frame_count(), 1);
        assert_eq!(g.temporal_edge_count(), 0);
        assert!(g.out_edge(0, NodeId(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "one temporal edge set per")]
    fn wrong_temporal_arity_panics() {
        Strg::from_parts(vec![rag(0, 1), rag(1, 1)], vec![]);
    }

    #[test]
    #[should_panic(expected = "edge target in range")]
    fn out_of_range_edge_panics() {
        Strg::from_parts(vec![rag(0, 1), rag(1, 1)], vec![vec![edge(0, 5)]]);
    }

    #[test]
    fn temporal_subgraph_restricts_both_edge_sets() {
        // Two frames of 3 nodes with spatial edges 0-1, 1-2 and identity
        // temporal edges; keep nodes 0 and 1 only.
        let mut rags = Vec::new();
        for m in 0..2 {
            rags.push(rag_with(m, 3, &[(0, 1), (1, 2)]));
        }
        let temporal = vec![vec![edge(0, 0), edge(1, 1), edge(2, 2)]];
        let g = Strg::from_parts(rags, temporal);
        let sub = g.temporal_subgraph(|_, v| v.0 <= 1);
        assert_eq!(sub.frame_count(), 2);
        assert_eq!(sub.rag(0).node_count(), 2);
        assert_eq!(sub.rag(0).edge_count(), 1, "edge 1-2 dropped");
        assert_eq!(sub.temporal_edges(0).len(), 2, "edge from node 2 dropped");
    }

    #[test]
    fn temporal_subgraph_with_selection_by_frame() {
        let g = Strg::from_parts(vec![rag(0, 2), rag(1, 2)], vec![vec![edge(0, 0)]]);
        // Drop everything in frame 1: temporal edges vanish too.
        let sub = g.temporal_subgraph(|m, _| m == 0);
        assert_eq!(sub.rag(0).node_count(), 2);
        assert_eq!(sub.rag(1).node_count(), 0);
        assert_eq!(sub.temporal_edge_count(), 0);
    }

    #[test]
    fn approx_bytes_counts_edges() {
        let a = Strg::from_parts(vec![rag(0, 2), rag(1, 2)], vec![vec![]]);
        let b = Strg::from_parts(
            vec![rag(0, 2), rag(1, 2)],
            vec![vec![edge(0, 0), edge(1, 1)]],
        );
        assert!(b.approx_bytes() > a.approx_bytes());
    }
}
