//! Frame → RAG extraction (the construction of Definition 1).
//!
//! Batch extraction fans out across `strg_parallel` workers with one
//! reusable [`SegScratch`] arena per worker (`par_map_with`), so steady
//! state per-frame segmentation allocates nothing but the RAGs it returns
//! (`tests/ingest_alloc.rs`).

use strg_graph::{FrameId, NodeAttr, NodeId, Rag};
use strg_parallel::{par_map_with, Threads};

use crate::raster::Frame;
use crate::segment::{segment_into, SegScratch, SegmentConfig, Segmentation};

/// What one [`frames_to_rags_with_stats`] run reports besides its RAGs.
#[derive(Copy, Clone, Debug, Default)]
pub struct ExtractStats {
    /// Number of worker arenas the fan-out created.
    pub workers: usize,
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
/// Frames are independent, so extraction fans out across `threads` workers,
/// each segmenting its frames through one reused [`SegScratch`]; the
/// returned vector is in frame order and identical to a sequential loop of
/// fresh-arena [`segment`](crate::segment::segment) calls at any thread count
/// (`tests/ingest_equivalence.rs`).
pub fn frames_to_rags(frames: &[Frame], cfg: &SegmentConfig, threads: Threads) -> Vec<Rag> {
    frames_to_rags_with_stats(frames, cfg, threads).0
}

/// [`frames_to_rags`], also reporting how many worker arenas it used.
pub fn frames_to_rags_with_stats(
    frames: &[Frame],
    cfg: &SegmentConfig,
    threads: Threads,
) -> (Vec<Rag>, ExtractStats) {
    let (rags, arenas) = par_map_with(frames, threads, SegScratch::new, |scratch, i, f| {
        rag_from_segmentation(segment_into(f, cfg, scratch), FrameId(i as u32))
    });
    let stats = ExtractStats {
        workers: arenas.len(),
    };
    (rags, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::Pixel;
    use crate::segment::segment;

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
    fn extraction_matches_fresh_segmentation_at_any_thread_count() {
        let frames: Vec<Frame> = (0..9)
            .map(|i| {
                let mut f = Frame::new(40, 30, Pixel::new(20, 20, 20));
                f.fill_rect(3 * i, 0, 12, 30, Pixel::new(230, 230, 230));
                f
            })
            .collect();
        let cfg = SegmentConfig::default();
        for threads in [1usize, 3, 8] {
            let (rags, stats) = frames_to_rags_with_stats(&frames, &cfg, Threads::Fixed(threads));
            assert_eq!(rags.len(), frames.len());
            for (i, (f, b)) in frames.iter().zip(&rags).enumerate() {
                let a = rag_from_segmentation(&segment(f, &cfg), FrameId(i as u32));
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
