//! STRG decomposition (§2.3): ORG extraction, OG merging and BG
//! construction.
//!
//! The STRG of a segment is decomposed into Object Region Graphs (the
//! trajectories of tracked regions), which are classified as foreground or
//! background by their motion; foreground ORGs that move together are merged
//! into Object Graphs (Theorem 1 justifies merging pairwise-isomorphic
//! fragments); the remaining graphs are overlapped along temporal edges into
//! a single Background Graph.

use std::collections::HashMap;

use crate::attr::TemporalEdgeAttr;
use crate::geom::angle_diff;
use crate::og::{BackgroundGraph, ObjectGraph, OgSample, Org, OrgSample};
use crate::rag::{NodeId, Rag};
use crate::strg::Strg;

/// Configuration of the decomposition stage.
#[derive(Copy, Clone, Debug)]
pub struct DecomposeConfig {
    /// An ORG is foreground (object-like) when its mean velocity is at least
    /// this many pixels/frame...
    pub min_velocity: f64,
    /// ...or its net displacement is at least this many pixels.
    pub min_displacement: f64,
    /// Trajectories shorter than this many frames are treated as
    /// segmentation noise and folded into the background.
    pub min_length: usize,
    /// Two ORGs merge into one OG when their mean velocities differ by at
    /// most this much (pixels/frame)...
    pub merge_velocity_tol: f64,
    /// ...their mean moving directions differ by at most this angle
    /// (radians)...
    pub merge_direction_tol: f64,
    /// ...and their centroids stay within this distance (pixels) over the
    /// overlapping frames.
    pub merge_proximity: f64,
}

impl Default for DecomposeConfig {
    fn default() -> Self {
        Self {
            min_velocity: 0.8,
            min_displacement: 12.0,
            min_length: 3,
            merge_velocity_tol: 2.5,
            merge_direction_tol: 0.7,
            merge_proximity: 40.0,
        }
    }
}

/// Result of decomposing an STRG.
#[derive(Clone, Debug, Default)]
pub struct Decomposition {
    /// The merged Object Graphs (foreground), ordered by start frame.
    pub objects: Vec<ObjectGraph>,
    /// The foreground ORGs that were merged into `objects` (same order as
    /// discovered; useful for diagnostics and tests).
    pub foreground_orgs: Vec<Org>,
    /// The single deduplicated Background Graph of the segment.
    pub background: BackgroundGraph,
}

/// Extracts every maximal temporal chain (ORG) from the STRG by following
/// outgoing temporal edges from nodes without an incoming edge.
///
/// Each node has at most one outgoing edge (Algorithm 1), so chains are
/// uniquely determined by their start node; chains may share a suffix when
/// two regions merge into one, mirroring the paper's temporal subgraphs.
pub fn extract_orgs(strg: &Strg) -> Vec<Org> {
    let n = strg.frame_count();
    if n == 0 {
        return Vec::new();
    }
    // Per frame-pair: from-node -> edge.
    let mut out: Vec<HashMap<NodeId, (NodeId, TemporalEdgeAttr)>> =
        Vec::with_capacity(n.saturating_sub(1));
    for m in 0..n.saturating_sub(1) {
        let mut map = HashMap::new();
        for e in strg.temporal_edges(m) {
            map.entry(e.from).or_insert((e.to, e.attr));
        }
        out.push(map);
    }

    let mut orgs = Vec::new();
    for m in 0..n {
        let rag = strg.rag(m);
        for v in rag.node_ids() {
            if strg.has_in_edge(m, v) {
                continue; // not a chain start
            }
            let mut samples = Vec::new();
            let (mut cur_m, mut cur_v) = (m, v);
            loop {
                let attr = *strg.rag(cur_m).attr(cur_v);
                let next = out.get(cur_m).and_then(|map| map.get(&cur_v)).copied();
                let motion = next.map_or(TemporalEdgeAttr::STILL, |(_, a)| a);
                samples.push(OrgSample {
                    frame: cur_m,
                    node: cur_v,
                    attr,
                    motion,
                });
                match next {
                    Some((to, _)) => {
                        cur_m += 1;
                        cur_v = to;
                    }
                    None => break,
                }
            }
            orgs.push(Org { samples });
        }
    }
    orgs
}

/// Whether an ORG is foreground (a moving object fragment) under `cfg`.
///
/// Both criteria are required: sustained per-frame motion *and* net
/// displacement. Requiring only one misclassifies large background regions
/// whose centroid wanders when moving objects occlude them.
pub fn is_foreground(org: &Org, cfg: &DecomposeConfig) -> bool {
    org.len() >= cfg.min_length
        && org.mean_velocity() >= cfg.min_velocity
        && org.total_displacement() >= cfg.min_displacement
}

/// Whether two foreground ORGs belong to the same object: temporal overlap
/// with agreeing velocity, direction, and spatial proximity (§2.3.2: "if
/// two ORGs have the same moving direction and the same velocity, these can
/// be merged into a single OG").
pub fn should_merge(a: &Org, b: &Org, cfg: &DecomposeConfig) -> bool {
    let lo = a.start_frame().max(b.start_frame());
    let hi = a.end_frame().min(b.end_frame());
    if lo > hi {
        return false; // no temporal overlap
    }
    if (a.mean_velocity() - b.mean_velocity()).abs() > cfg.merge_velocity_tol {
        return false;
    }
    // Direction only matters for actually-moving fragments.
    if a.mean_velocity() > 0.25
        && b.mean_velocity() > 0.25
        && angle_diff(a.mean_direction(), b.mean_direction()) > cfg.merge_direction_tol
    {
        return false;
    }
    let mut dist_sum = 0.0;
    let mut count = 0usize;
    for f in lo..=hi {
        if let (Some(sa), Some(sb)) = (a.sample_at(f), b.sample_at(f)) {
            dist_sum += sa.attr.centroid.dist(sb.attr.centroid);
            count += 1;
        }
    }
    count > 0 && dist_sum / count as f64 <= cfg.merge_proximity
}

/// Merges a group of ORGs into one Object Graph by per-frame size-weighted
/// aggregation, then recomputes the motion attributes from the merged
/// centroids.
fn merge_group(id: u32, group: &[&Org]) -> ObjectGraph {
    let start = group.iter().map(|o| o.start_frame()).min().unwrap_or(0);
    let end = group.iter().map(|o| o.end_frame()).max().unwrap_or(0);
    let mut samples = Vec::with_capacity(end - start + 1);
    for f in start..=end {
        let mut size = 0u64;
        let mut color = (0.0, 0.0, 0.0);
        let mut cx = 0.0;
        let mut cy = 0.0;
        for org in group {
            if let Some(s) = org.sample_at(f) {
                let w = s.attr.size as f64;
                size += s.attr.size as u64;
                color.0 += s.attr.color.r * w;
                color.1 += s.attr.color.g * w;
                color.2 += s.attr.color.b * w;
                cx += s.attr.centroid.x * w;
                cy += s.attr.centroid.y * w;
            }
        }
        if size == 0 {
            // A gap frame: repeat the previous sample (keeps the OG dense).
            if let Some(&prev) = samples.last() {
                samples.push(prev);
            }
            continue;
        }
        let w = size as f64;
        samples.push(OgSample {
            size: size.min(u32::MAX as u64) as u32,
            color: crate::geom::Rgb::new(color.0 / w, color.1 / w, color.2 / w),
            centroid: crate::geom::Point2::new(cx / w, cy / w),
            velocity: 0.0,
            direction: 0.0,
        });
    }
    crate::og::recompute_motion(&mut samples);
    ObjectGraph {
        id,
        start_frame: start,
        samples,
    }
}

/// Builds the single Background Graph by overlapping all background ORGs:
/// every background track contributes one representative node (per-frame
/// mean attributes), and representatives are connected when their regions
/// were spatially adjacent in the track's first frame.
fn build_background(strg: &Strg, background: &[&Org]) -> BackgroundGraph {
    let mut nodes = Vec::with_capacity(background.len());
    // Map (frame, node) -> representative node, for adjacency wiring.
    let mut rep_of: HashMap<(usize, NodeId), NodeId> = HashMap::new();
    for org in background {
        if org.is_empty() {
            continue;
        }
        let n = org.len() as f64;
        let mut size = 0.0;
        let mut color = (0.0, 0.0, 0.0);
        let mut cx = 0.0;
        let mut cy = 0.0;
        for s in &org.samples {
            size += s.attr.size as f64;
            color.0 += s.attr.color.r;
            color.1 += s.attr.color.g;
            color.2 += s.attr.color.b;
            cx += s.attr.centroid.x;
            cy += s.attr.centroid.y;
        }
        let rep = NodeId(nodes.len() as u32);
        nodes.push(crate::attr::NodeAttr::new(
            (size / n) as u32,
            crate::geom::Rgb::new(color.0 / n, color.1 / n, color.2 / n),
            crate::geom::Point2::new(cx / n, cy / n),
        ));
        for s in &org.samples {
            rep_of.insert((s.frame, s.node), rep);
        }
    }
    // Wire representatives whose underlying regions are adjacent somewhere.
    // Each edge is taken as `(min, max)`, the orientation the stored form
    // (`Rag::edges`, `u < v`) replays on load, so a built and a loaded
    // Background Graph measure every edge's angle from the same end.
    let mut pairs = Vec::new();
    for (m, frame_rag) in strg.rags().iter().enumerate() {
        for (u, v, _) in frame_rag.edges() {
            if let (Some(&ru), Some(&rv)) = (rep_of.get(&(m, u)), rep_of.get(&(m, v))) {
                if ru != rv {
                    pairs.push((ru.min(rv), ru.max(rv)));
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let frame = strg
        .rags()
        .first()
        .map_or(crate::rag::FrameId(0), |r| r.frame());
    BackgroundGraph {
        rag: Rag::from_pairs(frame, nodes, pairs),
        frames_covered: strg.frame_count() as u32,
    }
}

/// Decomposes an STRG into Object Graphs and one Background Graph (§2.3).
pub fn decompose(strg: &Strg, cfg: &DecomposeConfig) -> Decomposition {
    let orgs = extract_orgs(strg);
    let (fg, bg): (Vec<Org>, Vec<Org>) = orgs.into_iter().partition(|o| is_foreground(o, cfg));

    // Union-find over foreground ORGs.
    let mut parent: Vec<usize> = (0..fg.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for i in 0..fg.len() {
        for j in (i + 1)..fg.len() {
            if should_merge(&fg[i], &fg[j], cfg) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }
    // BTreeMap, not HashMap: `values()` below fixes the pre-sort OG ids,
    // and the (start_frame, id) sort breaks start-frame ties with them, so
    // the grouping must iterate in a deterministic order.
    let mut groups: std::collections::BTreeMap<usize, Vec<&Org>> =
        std::collections::BTreeMap::new();
    for (i, org) in fg.iter().enumerate() {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(org);
    }
    let mut objects: Vec<ObjectGraph> = groups
        .values()
        .enumerate()
        .map(|(id, group)| merge_group(id as u32, group))
        .collect();
    objects.sort_by_key(|o| (o.start_frame, o.id));
    for (i, o) in objects.iter_mut().enumerate() {
        o.id = i as u32;
    }

    let bg_refs: Vec<&Org> = bg.iter().collect();
    let background = build_background(strg, &bg_refs);

    Decomposition {
        objects,
        foreground_orgs: fg,
        background,
    }
}

/// Size of the raw STRG per Equation (9): the OGs plus one BG *per frame*
/// (the un-deduplicated background).
pub fn strg_size_bytes(objects: &[ObjectGraph], background: &BackgroundGraph) -> usize {
    objects.iter().map(ObjectGraph::approx_bytes).sum::<usize>()
        + background.frames_covered as usize * background.approx_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::NodeAttr;
    use crate::geom::{Point2, Rgb};
    use crate::rag::FrameId;
    use crate::strg::TemporalEdge;

    /// Builds an STRG with one moving region (two parts) and one static
    /// background region, with hand-wired temporal edges.
    fn toy_strg(frames: usize) -> Strg {
        let mut rags = Vec::new();
        for m in 0..frames {
            let x = 10.0 + 5.0 * m as f64;
            let nodes = vec![
                // part A and part B of the object move together
                NodeAttr::new(50, Rgb::new(200.0, 0.0, 0.0), Point2::new(x, 20.0)),
                NodeAttr::new(80, Rgb::new(0.0, 200.0, 0.0), Point2::new(x, 30.0)),
                // static background
                NodeAttr::new(1000, Rgb::new(90.0, 90.0, 90.0), Point2::new(160.0, 120.0)),
            ];
            let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
            rags.push(Rag::from_pairs(FrameId(m as u32), nodes, [(a, b), (b, c)]));
        }
        let mut temporal = Vec::new();
        for m in 0..frames - 1 {
            let mut edges = Vec::new();
            for v in 0..3u32 {
                let from = NodeId(v);
                let to = NodeId(v);
                let attr = TemporalEdgeAttr::between(rags[m].attr(from), rags[m + 1].attr(to));
                edges.push(TemporalEdge { from, to, attr });
            }
            temporal.push(edges);
        }
        Strg::from_parts(rags, temporal)
    }

    #[test]
    fn extract_orgs_finds_all_chains() {
        let strg = toy_strg(6);
        let orgs = extract_orgs(&strg);
        assert_eq!(orgs.len(), 3);
        for org in &orgs {
            assert_eq!(org.len(), 6);
            assert_eq!(org.start_frame(), 0);
        }
    }

    #[test]
    fn foreground_classification() {
        let strg = toy_strg(6);
        let orgs = extract_orgs(&strg);
        let cfg = DecomposeConfig::default();
        let moving: Vec<_> = orgs.iter().filter(|o| is_foreground(o, &cfg)).collect();
        assert_eq!(
            moving.len(),
            2,
            "the two object parts move, background does not"
        );
    }

    #[test]
    fn co_moving_fragments_merge_into_one_og() {
        let strg = toy_strg(6);
        let d = decompose(&strg, &DecomposeConfig::default());
        assert_eq!(d.objects.len(), 1, "parts A and B merge");
        let og = &d.objects[0];
        assert_eq!(og.len(), 6);
        assert_eq!(og.samples[0].size, 130, "sizes add up");
        // Size-weighted centroid: (50*20 + 80*30)/130 ≈ 26.15 in y.
        assert!((og.samples[0].centroid.y - (50.0 * 20.0 + 80.0 * 30.0) / 130.0).abs() < 1e-9);
        assert!((og.samples[0].velocity - 5.0).abs() < 1e-9);
        assert_eq!(d.foreground_orgs.len(), 2);
    }

    #[test]
    fn background_collapses_to_one_node() {
        let strg = toy_strg(6);
        let d = decompose(&strg, &DecomposeConfig::default());
        assert_eq!(d.background.rag.node_count(), 1);
        assert_eq!(d.background.frames_covered, 6);
    }

    #[test]
    fn opposite_motions_do_not_merge() {
        // Two regions crossing: same speed, opposite direction.
        let mut rags = Vec::new();
        let frames = 8;
        for m in 0..frames {
            let nodes = vec![
                NodeAttr::new(
                    50,
                    Rgb::new(200.0, 0.0, 0.0),
                    Point2::new(10.0 + 5.0 * m as f64, 50.0),
                ),
                NodeAttr::new(
                    50,
                    Rgb::new(0.0, 0.0, 200.0),
                    Point2::new(80.0 - 5.0 * m as f64, 50.0),
                ),
            ];
            rags.push(Rag::from_pairs(FrameId(m as u32), nodes, []));
        }
        let mut temporal = Vec::new();
        for m in 0..frames - 1 {
            let edges = (0..2u32)
                .map(|v| TemporalEdge {
                    from: NodeId(v),
                    to: NodeId(v),
                    attr: TemporalEdgeAttr::between(
                        rags[m].attr(NodeId(v)),
                        rags[m + 1].attr(NodeId(v)),
                    ),
                })
                .collect();
            temporal.push(edges);
        }
        let strg = Strg::from_parts(rags, temporal);
        let d = decompose(&strg, &DecomposeConfig::default());
        assert_eq!(d.objects.len(), 2, "opposite directions stay separate");
    }

    #[test]
    fn short_noise_tracks_fold_into_background() {
        let strg = toy_strg(2); // every track is only 2 frames < min_length
        let cfg = DecomposeConfig {
            min_length: 3,
            ..DecomposeConfig::default()
        };
        let d = decompose(&strg, &cfg);
        assert!(d.objects.is_empty());
        assert_eq!(d.background.rag.node_count(), 3);
    }

    #[test]
    fn strg_size_dominates_index_size_inputs() {
        let strg = toy_strg(6);
        let d = decompose(&strg, &DecomposeConfig::default());
        let raw = strg_size_bytes(&d.objects, &d.background);
        let og_part: usize = d.objects.iter().map(ObjectGraph::approx_bytes).sum();
        assert!(raw > og_part + d.background.approx_bytes());
    }

    #[test]
    fn empty_strg_decomposes_to_nothing() {
        let strg = Strg::from_parts(vec![], vec![]);
        let d = decompose(&strg, &DecomposeConfig::default());
        assert!(d.objects.is_empty());
        assert_eq!(d.background.rag.node_count(), 0);
    }
}
