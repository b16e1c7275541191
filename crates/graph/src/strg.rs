//! Spatio-Temporal Region Graphs (Definition 2).
//!
//! An STRG `G_st(S) = {V, E_S, E_T, nu, xi, tau}` over a video segment `S`
//! is the sequence of per-frame RAGs plus *temporal edges* connecting
//! corresponding regions in consecutive frames. Temporal edges are produced
//! by the graph-based tracker (Algorithm 1, [`crate::tracking`]).
//!
//! An edge is the pair of nodes it joins and nothing else: its attributes
//! `tau` (velocity and moving direction) are a function of the two regions,
//! [`TemporalEdgeAttr::between`], evaluated where motion is read.
//!
//! [`TemporalEdgeAttr::between`]: crate::attr::TemporalEdgeAttr::between

use crate::rag::{NodeId, Rag};

/// A temporal edge `e_T = (v, v')` from a node of frame `m` to a node of
/// frame `m + 1`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TemporalEdge {
    /// Node in frame `m`.
    pub from: NodeId,
    /// Node in frame `m + 1`.
    pub to: NodeId,
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

    /// Whether node `v` of frame `m` has an incoming temporal edge from
    /// frame `m - 1`.
    pub fn has_in_edge(&self, m: usize, v: NodeId) -> bool {
        m > 0 && self.temporal[m - 1].iter().any(|e| e.to == v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::NodeAttr;
    use crate::geom::{Point2, Rgb};
    use crate::rag::FrameId;

    fn rag(frame: u32, n: usize) -> Rag {
        let nodes = (0..n)
            .map(|i| NodeAttr::new(10, Rgb::BLACK, Point2::new(i as f64, 0.0)))
            .collect();
        Rag::from_pairs(FrameId(frame), nodes, [])
    }

    fn edge(from: u32, to: u32) -> TemporalEdge {
        TemporalEdge {
            from: NodeId(from),
            to: NodeId(to),
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
        assert_eq!(g.temporal_edges(0)[1].to, NodeId(1));
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
        assert!(!g.has_in_edge(0, NodeId(0)));
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
}
