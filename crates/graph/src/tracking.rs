//! Graph-based object tracking (Algorithm 1).
//!
//! Tracking two consecutive frames is cast as finding, for every node `v` of
//! frame `m`, the node `v'` of frame `m + 1` whose neighborhood graph
//! (Definition 7) is isomorphic — or, failing that, most similar under
//! `SimGraph` (Equation 1) — to `G_N(v)`. The result is the temporal edge
//! set `E_T` of the STRG.

use crate::attr::CompatParams;
use crate::mcs::Star;
use crate::rag::{NodeId, Rag};
use crate::strg::{Strg, TemporalEdge};

/// Configuration of the graph-based tracker.
#[derive(Copy, Clone, Debug)]
pub struct TrackerConfig {
    /// Attribute tolerances used by isomorphism and `SimGraph`.
    pub compat: CompatParams,
    /// Similarity threshold `T_sim` of Algorithm 1: a non-isomorphic best
    /// match is accepted only when its `SimGraph` exceeds this value.
    pub t_sim: f64,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        Self {
            compat: CompatParams::default(),
            t_sim: 0.5,
        }
    }
}

/// Runs Algorithm 1 on one consecutive frame pair, returning the temporal
/// edge set from `prev` to `next`.
///
/// For each node `v` of `prev`, the tracker first looks for a node of
/// `next` whose neighborhood graph is *isomorphic* to `G_N(v)` (accepted
/// immediately); otherwise it keeps the candidate with the highest
/// `SimGraph` and accepts it if the similarity exceeds `T_sim`. Both tests
/// come from one most-common-subgraph size `c` per candidate: two stars of
/// `n` nodes each are isomorphic exactly when `c == n`, and
/// `SimGraph = c / min(|G_1|, |G_2|)`. Each node of `prev` contributes at
/// most one outgoing edge.
pub fn track_pair(prev: &Rag, next: &Rag, cfg: &TrackerConfig) -> Vec<TemporalEdge> {
    let mut edges = Vec::new();
    // Pre-extract the neighborhood graphs of the next frame once.
    let next_stars: Vec<Star> = next
        .node_ids()
        .map(|v| Star::neighborhood(next, v))
        .collect();

    for v in prev.node_ids() {
        let g = Star::neighborhood(prev, v);
        let n = g.node_count();
        let mut isomorphic = None;
        let mut max_sim = 0.0_f64;
        let mut max_node: Option<NodeId> = None;

        for (v2, g2) in next.node_ids().zip(&next_stars) {
            // Center gate: the tracked regions themselves must be
            // attribute-compatible. Without it the SimGraph fallback can
            // latch a dying track onto an unrelated region that merely
            // shares neighbors (e.g. two different regions both adjacent
            // to wall and floor), producing teleporting trajectories.
            if !cfg.compat.nodes_compatible(&g.centre, &g2.centre) {
                continue;
            }
            let n2 = g2.node_count();
            let c = g.common_size(g2, &cfg.compat);
            if n == n2 && c == n {
                isomorphic = Some(v2);
                break;
            }
            let sim = c as f64 / n.min(n2) as f64;
            if sim > max_sim {
                max_sim = sim;
                max_node = Some(v2);
            }
        }

        if let Some(v2) = isomorphic.or(max_node.filter(|_| max_sim > cfg.t_sim)) {
            edges.push(TemporalEdge { from: v, to: v2 });
        }
    }
    edges
}

/// Builds a full STRG from per-frame RAGs by running [`track_pair`] on every
/// consecutive pair (Definition 2 construction).
pub fn build_strg(frames: Vec<Rag>, cfg: &TrackerConfig) -> Strg {
    let mut temporal = Vec::with_capacity(frames.len().saturating_sub(1));
    for w in frames.windows(2) {
        temporal.push(track_pair(&w[0], &w[1], cfg));
    }
    Strg::from_parts(frames, temporal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{NodeAttr, TemporalEdgeAttr};
    use crate::geom::{Point2, Rgb};
    use crate::rag::FrameId;

    /// A frame with a 3-region "object" (distinct colors, fixed shape) at
    /// `(x, y)` plus a distinctly-colored static corner region.
    fn frame(id: u32, x: f64, y: f64) -> Rag {
        let nodes = vec![
            // head, body, legs
            NodeAttr::new(40, Rgb::new(200.0, 30.0, 30.0), Point2::new(x, y - 10.0)),
            NodeAttr::new(100, Rgb::new(30.0, 200.0, 30.0), Point2::new(x, y)),
            NodeAttr::new(60, Rgb::new(30.0, 30.0, 200.0), Point2::new(x, y + 12.0)),
            // the static corner
            NodeAttr::new(500, Rgb::new(120.0, 120.0, 0.0), Point2::new(300.0, 300.0)),
        ];
        let (head, body, legs) = (NodeId(0), NodeId(1), NodeId(2));
        Rag::from_pairs(FrameId(id), nodes, [(head, body), (body, legs)])
    }

    /// Frame 1 holding only the corner region.
    fn corner_only() -> Rag {
        let corner = NodeAttr::new(500, Rgb::new(120.0, 120.0, 0.0), Point2::new(300.0, 300.0));
        Rag::from_pairs(FrameId(1), vec![corner], [])
    }

    #[test]
    fn tracks_translated_object() {
        let f0 = frame(0, 50.0, 50.0);
        let f1 = frame(1, 55.0, 50.0);
        let edges = track_pair(&f0, &f1, &TrackerConfig::default());
        // All four regions correspond 1:1.
        assert_eq!(edges.len(), 4);
        for e in &edges {
            assert_eq!(e.from, e.to, "same insertion order on both frames");
        }
        // The moving regions report ~5 px/frame velocity; the corner ~0.
        let motion = |v| {
            let e = edges.iter().find(|e| e.from == NodeId(v)).unwrap();
            TemporalEdgeAttr::between(f0.attr(e.from), f1.attr(e.to))
        };
        let body = motion(1);
        assert!((body.velocity - 5.0).abs() < 1e-9);
        assert!(body.direction.abs() < 1e-9, "moving along +x");
        assert!(motion(3).velocity < 1e-9);
    }

    #[test]
    fn no_match_for_vanished_object() {
        let f0 = frame(0, 50.0, 50.0);
        // Frame 1 has only the corner region.
        let f1 = corner_only();
        let edges = track_pair(&f0, &f1, &TrackerConfig::default());
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].from, NodeId(3));
        assert_eq!(edges[0].to, NodeId(0));
    }

    #[test]
    fn negative_threshold_skips_nodes_without_candidates() {
        // Only the corner survives into frame 1, so the object's regions
        // have no candidate past the centre gate; a threshold below zero
        // must not turn "no candidate" into an edge.
        let f0 = frame(0, 50.0, 50.0);
        let f1 = corner_only();
        let cfg = TrackerConfig {
            t_sim: -1.0,
            ..TrackerConfig::default()
        };
        let edges = track_pair(&f0, &f1, &cfg);
        assert_eq!(edges.len(), 1);
        assert_eq!((edges[0].from, edges[0].to), (NodeId(3), NodeId(0)));
    }

    #[test]
    fn at_most_one_out_edge_per_node() {
        let f0 = frame(0, 50.0, 50.0);
        let f1 = frame(1, 52.0, 50.0);
        let edges = track_pair(&f0, &f1, &TrackerConfig::default());
        let mut froms: Vec<_> = edges.iter().map(|e| e.from).collect();
        froms.sort();
        froms.dedup();
        assert_eq!(froms.len(), edges.len());
    }

    #[test]
    fn high_threshold_blocks_partial_matches() {
        // Degrade the object in frame 1: replace the legs with an unrelated
        // yellow region, so the body's neighborhood star only partially
        // matches (SimGraph = 2/3) and the threshold decides.
        let f0 = frame(0, 50.0, 50.0);
        let nodes = vec![
            // head, body, and a yellow region in the legs' place
            NodeAttr::new(40, Rgb::new(200.0, 30.0, 30.0), Point2::new(50.0, 40.0)),
            NodeAttr::new(100, Rgb::new(30.0, 200.0, 30.0), Point2::new(50.0, 50.0)),
            NodeAttr::new(60, Rgb::new(230.0, 230.0, 30.0), Point2::new(50.0, 62.0)),
        ];
        let (head, body, other) = (NodeId(0), NodeId(1), NodeId(2));
        let f1 = Rag::from_pairs(FrameId(1), nodes, [(head, body), (body, other)]);

        let body0 = NodeId(1);
        let mut cfg = TrackerConfig {
            t_sim: 0.9,
            ..TrackerConfig::default()
        };
        let strict = track_pair(&f0, &f1, &cfg);
        cfg.t_sim = 0.3;
        let lenient = track_pair(&f0, &f1, &cfg);
        assert!(
            !strict.iter().any(|e| e.from == body0),
            "partial body match blocked at t_sim = 0.9"
        );
        assert!(
            lenient.iter().any(|e| e.from == body0),
            "partial body match accepted at t_sim = 0.3"
        );
        assert!(lenient.len() > strict.len());
    }

    #[test]
    fn build_strg_tracks_across_all_frames() {
        let frames: Vec<_> = (0..5)
            .map(|i| frame(i, 50.0 + 4.0 * i as f64, 50.0))
            .collect();
        let strg = build_strg(frames, &TrackerConfig::default());
        assert_eq!(strg.frame_count(), 5);
        for m in 0..4 {
            assert_eq!(
                strg.temporal_edges(m).len(),
                4,
                "all regions tracked at step {m}"
            );
        }
    }
}
