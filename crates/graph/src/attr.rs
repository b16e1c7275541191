//! Node and edge attributes of Region Adjacency Graphs and Spatio-Temporal
//! Region Graphs (Definitions 1 and 2), plus the compatibility predicates
//! the tracker's star matching applies to them.

use crate::geom::{angle_diff, Point2, Rgb};

/// Attributes of a RAG/STRG node: one homogeneous color region of a frame.
///
/// Per Definition 1 the node attribute functions `nu: V -> A_V` produce the
/// region's size (number of pixels), color, and location (centroid).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct NodeAttr {
    /// Number of pixels in the region.
    pub size: u32,
    /// Mean color of the region.
    pub color: Rgb,
    /// Centroid of the region in pixel coordinates.
    pub centroid: Point2,
}

impl NodeAttr {
    /// Creates a node attribute record.
    pub const fn new(size: u32, color: Rgb, centroid: Point2) -> Self {
        Self {
            size,
            color,
            centroid,
        }
    }
}

/// Attributes of a spatial edge between two adjacent regions of the same
/// frame: distance and orientation between their centroids (Definition 1).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SpatialEdgeAttr {
    /// Euclidean distance between the two region centroids, in pixels.
    pub distance: f64,
    /// Orientation of the segment joining the centroids, radians in
    /// `(-pi, pi]` from the positive x axis, measured from the
    /// lower-numbered endpoint towards the higher-numbered one.
    pub orientation: f64,
}

impl SpatialEdgeAttr {
    /// Derives the spatial edge attributes from the two endpoint regions.
    pub fn between(from: &NodeAttr, to: &NodeAttr) -> Self {
        let d = to.centroid - from.centroid;
        Self {
            distance: d.norm(),
            orientation: d.angle(),
        }
    }
}

/// Attributes of a temporal edge between corresponding regions in two
/// consecutive frames: velocity (centroid displacement per frame) and moving
/// direction (Definition 2).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TemporalEdgeAttr {
    /// Magnitude of the centroid displacement between the frames, in pixels
    /// per frame.
    pub velocity: f64,
    /// Direction of the displacement, radians in `(-pi, pi]`.
    pub direction: f64,
}

impl TemporalEdgeAttr {
    /// Derives the temporal edge attributes from the region in frame `m`
    /// (`from`) and the corresponding region in frame `m + 1` (`to`).
    pub fn between(from: &NodeAttr, to: &NodeAttr) -> Self {
        let d = to.centroid - from.centroid;
        Self {
            velocity: d.norm(),
            direction: d.angle(),
        }
    }
}

/// Tolerances deciding when two attributed nodes or edges are considered
/// equal for the purposes of graph isomorphism (Definition 4) and of
/// the most-common-subgraph computation (Definition 6).
///
/// The paper matches attributed graphs exactly; on real (and synthetic)
/// segmentations exact equality never happens across frames, so every
/// comparison is performed within tolerances. Setting all tolerances to zero
/// recovers exact attribute matching.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CompatParams {
    /// Maximum RGB distance between two matching region colors.
    pub color_tol: f64,
    /// Maximum relative size difference, `|a - b| / max(a, b)`, between two
    /// matching regions.
    pub size_rel_tol: f64,
    /// Maximum absolute difference between matching spatial-edge distances,
    /// in pixels.
    pub edge_dist_tol: f64,
    /// Maximum angular difference between matching spatial-edge
    /// orientations, in radians.
    pub edge_orient_tol: f64,
}

impl Default for CompatParams {
    /// Defaults tuned for the synthetic video substrate: regions keep their
    /// color up to illumination jitter and their size up to segmentation
    /// wobble between frames.
    fn default() -> Self {
        Self {
            color_tol: 35.0,
            size_rel_tol: 0.45,
            edge_dist_tol: 18.0,
            edge_orient_tol: 0.6,
        }
    }
}

impl CompatParams {
    /// Exact attribute matching (all tolerances zero).
    pub const EXACT: CompatParams = CompatParams {
        color_tol: 0.0,
        size_rel_tol: 0.0,
        edge_dist_tol: 0.0,
        edge_orient_tol: 0.0,
    };

    /// Whether two node attribute records are compatible, i.e. may be mapped
    /// onto each other by an isomorphism.
    ///
    /// Centroids are deliberately *not* compared: corresponding regions move
    /// between frames, which is exactly what tracking must tolerate.
    pub fn nodes_compatible(&self, a: &NodeAttr, b: &NodeAttr) -> bool {
        if a.color.dist(b.color) > self.color_tol {
            return false;
        }
        let max = a.size.max(b.size) as f64;
        if max > 0.0 {
            let rel = (a.size as f64 - b.size as f64).abs() / max;
            if rel > self.size_rel_tol {
                return false;
            }
        }
        true
    }

    /// Whether two spatial edge attribute records are compatible.
    pub fn edges_compatible(&self, a: &SpatialEdgeAttr, b: &SpatialEdgeAttr) -> bool {
        (a.distance - b.distance).abs() <= self.edge_dist_tol
            && angle_diff(a.orientation, b.orientation) <= self.edge_orient_tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(size: u32, color: Rgb, x: f64, y: f64) -> NodeAttr {
        NodeAttr::new(size, color, Point2::new(x, y))
    }

    #[test]
    fn spatial_edge_attrs_follow_geometry() {
        let a = node(10, Rgb::BLACK, 0.0, 0.0);
        let b = node(10, Rgb::BLACK, 3.0, 4.0);
        let e = SpatialEdgeAttr::between(&a, &b);
        assert!((e.distance - 5.0).abs() < 1e-12);
        assert!((e.orientation - (4.0f64).atan2(3.0)).abs() < 1e-12);
    }

    #[test]
    fn temporal_edge_attrs_measure_motion() {
        let before = node(10, Rgb::BLACK, 5.0, 5.0);
        let after = node(10, Rgb::BLACK, 5.0, 2.0);
        let t = TemporalEdgeAttr::between(&before, &after);
        assert!((t.velocity - 3.0).abs() < 1e-12);
        assert!((t.direction - (-std::f64::consts::FRAC_PI_2)).abs() < 1e-12);
    }

    #[test]
    fn node_compat_respects_color_tolerance() {
        let p = CompatParams {
            color_tol: 10.0,
            ..CompatParams::default()
        };
        let a = node(100, Rgb::new(100.0, 0.0, 0.0), 0.0, 0.0);
        let close = node(100, Rgb::new(105.0, 0.0, 0.0), 50.0, 50.0);
        let far = node(100, Rgb::new(130.0, 0.0, 0.0), 0.0, 0.0);
        assert!(p.nodes_compatible(&a, &close));
        assert!(!p.nodes_compatible(&a, &far));
    }

    #[test]
    fn node_compat_respects_size_tolerance() {
        let p = CompatParams {
            size_rel_tol: 0.2,
            ..CompatParams::default()
        };
        let a = node(100, Rgb::BLACK, 0.0, 0.0);
        assert!(p.nodes_compatible(&a, &node(85, Rgb::BLACK, 0.0, 0.0)));
        assert!(!p.nodes_compatible(&a, &node(60, Rgb::BLACK, 0.0, 0.0)));
    }

    #[test]
    fn node_compat_ignores_centroid() {
        let p = CompatParams::default();
        let a = node(100, Rgb::BLACK, 0.0, 0.0);
        let b = node(100, Rgb::BLACK, 999.0, 999.0);
        assert!(p.nodes_compatible(&a, &b));
    }

    #[test]
    fn exact_params_require_equality() {
        let p = CompatParams::EXACT;
        let a = node(100, Rgb::new(1.0, 2.0, 3.0), 0.0, 0.0);
        assert!(p.nodes_compatible(&a, &a.clone()));
        assert!(!p.nodes_compatible(&a, &node(101, Rgb::new(1.0, 2.0, 3.0), 0.0, 0.0)));
    }

    #[test]
    fn edge_compat() {
        let p = CompatParams {
            edge_dist_tol: 2.0,
            edge_orient_tol: 0.1,
            ..CompatParams::default()
        };
        let e1 = SpatialEdgeAttr {
            distance: 10.0,
            orientation: 0.0,
        };
        let e2 = SpatialEdgeAttr {
            distance: 11.0,
            orientation: 0.05,
        };
        let e3 = SpatialEdgeAttr {
            distance: 13.0,
            orientation: 0.0,
        };
        assert!(p.edges_compatible(&e1, &e2));
        assert!(!p.edges_compatible(&e1, &e3));
    }
}
