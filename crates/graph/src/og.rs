//! Object Region Graphs, Object Graphs and Background Graphs (§2.3).
//!
//! - An **ORG** is a temporal subgraph with an empty spatial edge set
//!   (Definition 8): the trajectory of one tracked region.
//! - An **OG** merges the ORGs that belong to a single moving object
//!   (§2.3.2, Theorem 1): one region node per frame of its lifetime.
//! - A **BG** is the overlap of everything that is not an object (§2.3.3);
//!   one BG per segment suffices when the background is stable, which is
//!   what makes the STRG-Index small (Equations 9 and 10).
//!
//! Neither an ORG nor an OG stores its motion: the velocity and direction
//! between two consecutive samples are [`TemporalEdgeAttr::between`] of
//! their regions, evaluated by the means below, the only places motion is
//! read.

use crate::attr::{NodeAttr, TemporalEdgeAttr};
use crate::geom::{Point2, Rgb};
use crate::rag::{NodeId, Rag};

/// The motion between each pair of consecutive samples, whose regions
/// `region` picks out.
fn steps<T>(
    samples: &[T],
    region: fn(&T) -> &NodeAttr,
) -> impl Iterator<Item = TemporalEdgeAttr> + '_ {
    samples
        .windows(2)
        .map(move |w| TemporalEdgeAttr::between(region(&w[0]), region(&w[1])))
}

/// Mean velocity over a sample sequence (pixels per frame), 0 for fewer
/// than two samples.
fn mean_velocity<T>(samples: &[T], region: fn(&T) -> &NodeAttr) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let n = (samples.len() - 1) as f64;
    steps(samples, region).map(|t| t.velocity).sum::<f64>() / n
}

/// One sample of an Object Region Graph: a tracked region in one frame.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct OrgSample {
    /// Frame index within the segment (position in the STRG frame list).
    pub frame: usize,
    /// Node id within that frame's RAG.
    pub node: NodeId,
    /// The region's attributes in that frame.
    pub attr: NodeAttr,
}

/// An Object Region Graph: the linear temporal subgraph traced by one
/// region across consecutive frames.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Org {
    /// Trajectory samples in frame order (consecutive frames).
    pub samples: Vec<OrgSample>,
}

impl Org {
    /// Number of frames the region lives for.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trajectory is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// First frame index of the trajectory.
    pub fn start_frame(&self) -> usize {
        self.samples.first().map_or(0, |s| s.frame)
    }

    /// Last frame index of the trajectory.
    pub fn end_frame(&self) -> usize {
        self.samples.last().map_or(0, |s| s.frame)
    }

    /// Mean velocity over the trajectory (pixels per frame), 0 for
    /// single-sample trajectories.
    pub fn mean_velocity(&self) -> f64 {
        mean_velocity(&self.samples, |s| &s.attr)
    }

    /// Velocity-weighted circular-mean moving direction over the
    /// trajectory, in radians.
    pub fn mean_direction(&self) -> f64 {
        let (mut sx, mut sy) = (0.0, 0.0);
        for t in steps(&self.samples, |s| &s.attr) {
            sx += t.direction.cos() * t.velocity;
            sy += t.direction.sin() * t.velocity;
        }
        sy.atan2(sx)
    }

    /// Straight-line distance between the first and last centroid.
    pub fn total_displacement(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => a.attr.centroid.dist(b.attr.centroid),
            _ => 0.0,
        }
    }

    /// The sample at frame index `frame`, if the trajectory covers it.
    pub fn sample_at(&self, frame: usize) -> Option<&OrgSample> {
        let start = self.start_frame();
        if frame < start {
            return None;
        }
        let s = self.samples.get(frame - start)?;
        debug_assert_eq!(s.frame, frame);
        Some(s)
    }
}

/// An Object Graph: the merged ORGs of a single moving object — the unit
/// that is clustered (§4) and indexed (§5).
#[derive(Clone, Debug, PartialEq)]
pub struct ObjectGraph {
    /// Identifier within the segment's decomposition.
    pub id: u32,
    /// First frame index of the object's lifetime.
    pub start_frame: usize,
    /// One region per frame of the object's lifetime: the merged regions'
    /// total size, size-weighted mean color and size-weighted mean
    /// centroid.
    pub samples: Vec<NodeAttr>,
}

impl ObjectGraph {
    /// Builds an OG directly from a centroid trajectory, giving every sample
    /// the same size and color. Used to convert synthetic workload
    /// trajectories into the OG format (§6.1's "converted to temporal
    /// subgraph format").
    pub fn from_centroids(
        id: u32,
        start_frame: usize,
        centroids: &[Point2],
        size: u32,
        color: Rgb,
    ) -> Self {
        Self {
            id,
            start_frame,
            samples: centroids
                .iter()
                .map(|&c| NodeAttr::new(size, color, c))
                .collect(),
        }
    }

    /// Number of frames the object lives for.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the object has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The centroid trajectory of the object.
    pub fn centroid_series(&self) -> Vec<Point2> {
        self.samples.iter().map(|s| s.centroid).collect()
    }

    /// Mean velocity over the lifetime (pixels per frame), 0 for a
    /// single-sample object.
    pub fn mean_velocity(&self) -> f64 {
        mean_velocity(&self.samples, |s| s)
    }

    /// Approximate in-memory footprint, for Equations (9) and (10).
    pub fn approx_bytes(&self) -> usize {
        OG_HEADER_BYTES + self.samples.len() * OG_SAMPLE_BYTES
    }
}

/// The fixed per-graph term of an Object Graph's size in Equations (9)
/// and (10): its id, start frame and sample-list header. A constant, not
/// the struct's `size_of`, so a layout change cannot move the sizes that
/// META stores and Table 2 reports.
const OG_HEADER_BYTES: usize = 40;

/// The per-sample term of an Object Graph's size in Equations (9) and
/// (10): the paper's region node plus the temporal edge attributes `tau`
/// to the next sample (size, color, centroid, velocity and direction,
/// padded to 64 bytes). A constant for the reason [`OG_HEADER_BYTES`] is,
/// although the samples hold only the node and the motion is derived.
const OG_SAMPLE_BYTES: usize = 64;

/// The fixed per-graph term of a Background Graph's size, as
/// [`OG_HEADER_BYTES`] is for an Object Graph: frame coverage plus the
/// RAG's header.
const BG_HEADER_BYTES: usize = 88;

/// A Background Graph: one representative RAG summarizing everything that is
/// not a moving object across the whole segment (§2.3.3).
#[derive(Clone, Debug, Default)]
pub struct BackgroundGraph {
    /// Representative graph: one node per background track, spatial edges
    /// where the tracks' regions were adjacent.
    pub rag: Rag,
    /// Number of frames the background summary covers (the `N` of
    /// Equation 9).
    pub frames_covered: u32,
}

impl BackgroundGraph {
    /// Approximate in-memory footprint of the single stored BG.
    pub fn approx_bytes(&self) -> usize {
        BG_HEADER_BYTES + self.rag.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rag::FrameId;

    fn org_through(points: &[Point2]) -> Org {
        let samples = points
            .iter()
            .enumerate()
            .map(|(frame, &c)| OrgSample {
                frame,
                node: NodeId(0),
                attr: NodeAttr::new(10, Rgb::BLACK, c),
            })
            .collect();
        Org { samples }
    }

    fn org_line(n: usize, step: f64) -> Org {
        let points: Vec<Point2> = (0..n).map(|i| Point2::new(step * i as f64, 0.0)).collect();
        org_through(&points)
    }

    /// `(mean velocity, mean direction)` written out as the fold of
    /// `TemporalEdgeAttr::between` over consecutive regions.
    fn folded(regions: &[NodeAttr]) -> (f64, f64) {
        let (mut v, mut sx, mut sy) = (0.0, 0.0, 0.0);
        for i in 1..regions.len() {
            let t = TemporalEdgeAttr::between(&regions[i - 1], &regions[i]);
            v += t.velocity;
            sx += t.direction.cos() * t.velocity;
            sy += t.direction.sin() * t.velocity;
        }
        let steps = regions.len().saturating_sub(1);
        let v = if steps == 0 { 0.0 } else { v / steps as f64 };
        (v, sy.atan2(sx))
    }

    #[test]
    fn org_statistics() {
        let org = org_line(5, 3.0);
        assert_eq!(org.len(), 5);
        assert_eq!(org.start_frame(), 0);
        assert_eq!(org.end_frame(), 4);
        assert!((org.mean_velocity() - 3.0).abs() < 1e-12);
        assert!((org.total_displacement() - 12.0).abs() < 1e-12);
        assert!(org.mean_direction().abs() < 1e-12, "+x direction");
        assert!(org.sample_at(2).is_some());
        assert!(org.sample_at(9).is_none());
    }

    #[test]
    fn empty_and_singleton_orgs() {
        let empty = Org::default();
        assert!(empty.is_empty());
        assert_eq!(empty.mean_velocity(), 0.0);
        assert_eq!(empty.total_displacement(), 0.0);
        let single = org_line(1, 0.0);
        assert_eq!(single.mean_velocity(), 0.0);
        assert_eq!(single.total_displacement(), 0.0);
    }

    #[test]
    fn og_from_centroids_computes_motion() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.0, 4.0),
            Point2::new(3.0, 8.0),
        ];
        let og = ObjectGraph::from_centroids(7, 2, &pts, 50, Rgb::WHITE);
        assert_eq!(og.id, 7);
        assert_eq!(og.start_frame, 2);
        assert_eq!(og.len(), 3);
        assert!((og.mean_velocity() - 4.5).abs() < 1e-12, "steps of 4 and 5");
        assert_eq!(og.centroid_series(), pts);
    }

    #[test]
    fn motion_is_the_fold_of_between_over_consecutive_samples() {
        let pts = [
            (0.0, 0.0),
            (1.5, -2.25),
            (4.0, 1.0 / 3.0),
            (-7.125, 9.0),
            (0.1, 0.2),
        ]
        .map(|(x, y)| Point2::new(x, y));
        let org = org_through(&pts);
        let regions: Vec<NodeAttr> = org.samples.iter().map(|s| s.attr).collect();
        let (v, d) = folded(&regions);
        assert_eq!(org.mean_velocity().to_bits(), v.to_bits());
        assert_eq!(org.mean_direction().to_bits(), d.to_bits());

        let line = ObjectGraph::from_centroids(0, 0, &pts, 30, Rgb::WHITE);
        let single = ObjectGraph::from_centroids(1, 4, &pts[..1], 30, Rgb::WHITE);
        // A gap frame repeats the previous sample: a zero step.
        let mut gap = line.clone();
        gap.samples.insert(2, gap.samples[1]);
        for og in [&line, &single, &gap] {
            let (v, _) = folded(&og.samples);
            assert_eq!(og.mean_velocity().to_bits(), v.to_bits());
        }
        assert_eq!(single.mean_velocity(), 0.0);
        assert!(gap.mean_velocity() < line.mean_velocity());
    }

    #[test]
    fn og_bytes_scale_with_length() {
        let short = ObjectGraph::from_centroids(0, 0, &[Point2::ZERO; 2], 1, Rgb::BLACK);
        let long = ObjectGraph::from_centroids(0, 0, &[Point2::ZERO; 20], 1, Rgb::BLACK);
        assert_eq!(long.approx_bytes() - short.approx_bytes(), 18 * 64);
    }

    #[test]
    fn background_graph_bytes() {
        let node = NodeAttr::new(100, Rgb::BLACK, Point2::ZERO);
        let bg = BackgroundGraph {
            rag: Rag::from_pairs(FrameId(0), vec![node], []),
            frames_covered: 10,
        };
        assert_eq!(
            bg.approx_bytes(),
            BG_HEADER_BYTES + std::mem::size_of::<NodeAttr>()
        );
    }
}
