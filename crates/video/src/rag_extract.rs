//! Frame → RAG extraction (the construction of Definition 1).
//!
//! Batch extraction fans out across `strg_parallel` workers with one
//! reusable [`SegScratch`] arena per worker (`par_map_with`), so steady
//! state per-frame segmentation allocates nothing; the arenas report their
//! footprint through [`ExtractStats`] for the `ingest.scratch_*` counters.

use strg_graph::{FrameId, NodeAttr, NodeId, Rag};
use strg_parallel::{par_map_indexed, par_map_with, Threads};

use crate::raster::Frame;
use crate::segment::{segment, segment_into, SegScratch, SegmentConfig, Segmentation};

/// Scratch-arena telemetry of one [`frames_to_rags_with_stats`] run.
#[derive(Copy, Clone, Debug, Default)]
pub struct ExtractStats {
    /// Number of worker arenas the fan-out created.
    pub workers: usize,
    /// Total heap bytes reserved across all worker arenas at the end of
    /// the run.
    pub scratch_bytes: usize,
    /// Total buffer-growth events across all worker arenas (a steady-state
    /// run over same-sized frames re-grows nothing).
    pub scratch_grows: u64,
}

/// Builds the Region Adjacency Graph of a segmentation.
///
/// Region `i` of the segmentation is node `i`, and its adjacency (sorted,
/// each pair once) is the edge list as it stands.
pub fn rag_from_segmentation(seg: &Segmentation, frame: FrameId) -> Rag {
    let nodes = seg
        .regions
        .iter()
        .enumerate()
        .map(|(i, r)| {
            debug_assert_eq!(r.label as usize, i);
            NodeAttr::new(r.size.min(u32::MAX as usize) as u32, r.color, r.centroid)
        })
        .collect();
    let pairs = seg.adjacency.iter().map(|&(a, b)| (NodeId(a), NodeId(b)));
    Rag::from_pairs(frame, nodes, pairs)
}

/// Extracts the RAG of every frame, numbering frames by slice index.
///
/// Frames are independent, so extraction fans out across `threads` workers;
/// the returned vector is in frame order and identical to a sequential
/// loop regardless of the thread count.
pub fn frames_to_rags(frames: &[Frame], cfg: &SegmentConfig, threads: Threads) -> Vec<Rag> {
    par_map_indexed(frames, threads, |i, f| {
        rag_from_segmentation(&segment(f, cfg), FrameId(i as u32))
    })
}

/// [`frames_to_rags`] with one [`SegScratch`] arena per worker, returning
/// the arenas' telemetry alongside the RAGs. The RAGs are byte-identical
/// to [`frames_to_rags`] at any thread count — the arenas recycle only
/// capacity, never results.
pub fn frames_to_rags_with_stats(
    frames: &[Frame],
    cfg: &SegmentConfig,
    threads: Threads,
) -> (Vec<Rag>, ExtractStats) {
    let (rags, scratches) = par_map_with(frames, threads, SegScratch::new, |scratch, i, f| {
        rag_from_segmentation(segment_into(f, cfg, scratch), FrameId(i as u32))
    });
    let stats = ExtractStats {
        workers: scratches.len(),
        scratch_bytes: scratches.iter().map(SegScratch::alloc_bytes).sum(),
        scratch_grows: scratches.iter().map(SegScratch::grow_events).sum(),
    };
    (rags, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::Pixel;

    #[test]
    fn rag_mirrors_segmentation() {
        let mut f = Frame::new(40, 30, Pixel::new(20, 20, 20));
        f.fill_rect(20, 0, 20, 30, Pixel::new(230, 230, 230));
        f.fill_rect(5, 5, 8, 8, Pixel::new(200, 30, 30));
        let seg = segment(&f, &SegmentConfig::default());
        let rag = rag_from_segmentation(&seg, FrameId(42));
        assert_eq!(rag.frame(), FrameId(42));
        assert_eq!(rag.node_count(), seg.regions.len());
        assert_eq!(rag.edge_count(), seg.adjacency.len());
        // Node attrs match the regions.
        for r in &seg.regions {
            let a = rag.attr(NodeId(r.label));
            assert_eq!(a.size as usize, r.size);
            assert!(a.centroid.dist(r.centroid) < 1e-12);
        }
    }

    #[test]
    fn parallel_extraction_matches_sequential() {
        let frames: Vec<Frame> = (0..12)
            .map(|i| {
                let mut f = Frame::new(40, 30, Pixel::new(20, 20, 20));
                f.fill_rect(2 * i, 0, 10, 30, Pixel::new(230, 230, 230));
                f
            })
            .collect();
        let cfg = SegmentConfig::default();
        let seq = frames_to_rags(&frames, &cfg, Threads::Fixed(1));
        for threads in [2, 8] {
            let par = frames_to_rags(&frames, &cfg, Threads::Fixed(threads));
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.frame(), b.frame());
                assert_eq!(a.node_count(), b.node_count());
                assert_eq!(a.edge_count(), b.edge_count());
            }
        }
    }

    #[test]
    fn with_stats_matches_plain_extraction() {
        let frames: Vec<Frame> = (0..9)
            .map(|i| {
                let mut f = Frame::new(40, 30, Pixel::new(20, 20, 20));
                f.fill_rect(3 * i, 0, 12, 30, Pixel::new(230, 230, 230));
                f
            })
            .collect();
        let cfg = SegmentConfig::default();
        let plain = frames_to_rags(&frames, &cfg, Threads::Fixed(1));
        for threads in [1usize, 3, 8] {
            let (rags, stats) = frames_to_rags_with_stats(&frames, &cfg, Threads::Fixed(threads));
            assert_eq!(rags.len(), plain.len());
            for (a, b) in plain.iter().zip(&rags) {
                assert_eq!(a.frame(), b.frame());
                assert_eq!(a.node_count(), b.node_count());
                assert_eq!(a.edge_count(), b.edge_count());
                for id in a.node_ids() {
                    let (x, y) = (a.attr(id), b.attr(id));
                    assert_eq!(x.size, y.size);
                    assert_eq!(x.centroid.x.to_bits(), y.centroid.x.to_bits());
                    assert_eq!(x.centroid.y.to_bits(), y.centroid.y.to_bits());
                    assert_eq!(x.color.r.to_bits(), y.color.r.to_bits());
                }
            }
            // Chunking may use fewer worker arenas than requested threads
            // (ceil-division chunks), never more.
            assert!(stats.workers >= 1 && stats.workers <= threads);
            if threads == 1 {
                assert_eq!(stats.workers, 1);
            }
            assert!(stats.scratch_bytes > 0);
            assert!(stats.scratch_grows > 0, "cold arenas must have grown");
        }
    }

    #[test]
    fn edge_attrs_are_centroid_geometry() {
        let mut f = Frame::new(40, 30, Pixel::new(20, 20, 20));
        f.fill_rect(20, 0, 20, 30, Pixel::new(230, 230, 230));
        let rag = rag_from_segmentation(&segment(&f, &SegmentConfig::default()), FrameId(0));
        assert_eq!(rag.node_count(), 2);
        let e = rag.edge_attr(NodeId(0), NodeId(1)).expect("adjacent");
        let want = rag
            .attr(NodeId(0))
            .centroid
            .dist(rag.attr(NodeId(1)).centroid);
        assert!((e.distance - want).abs() < 1e-12);
    }
}
