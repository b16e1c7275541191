//! Allocation-discipline harness for the ingest hot path.
//!
//! Runs under the per-thread counting `#[global_allocator]` of
//! `tests/alloc_util` (shared with `query_alloc.rs`) and asserts that
//! steady-state segmentation through a warm [`SegScratch`] arena performs
//! **zero** heap allocations: every buffer the pipeline touches is owned
//! by the arena and only recycled after warm-up (DESIGN.md §10). It also
//! bounds the allocations of one sequential `VideoDatabase::load`.

mod alloc_util;

use alloc_util::alloc_events;
use strg::prelude::*;

/// A deterministic busy frame (blocks + xorshift speckles) at the paper's
/// scene scale, matching the equivalence suite's workload shape.
fn busy_frame(w: usize, h: usize, seed: u64) -> Frame {
    let mut f = Frame::new(w, h, Pixel::new(28, 36, 52));
    f.fill_rect(
        (w / 6) as isize,
        (h / 6) as isize,
        w / 3,
        h / 2,
        Pixel::new(214, 64, 58),
    );
    f.fill_rect(
        (w / 2) as isize,
        (h / 3) as isize,
        w / 4,
        h / 3,
        Pixel::new(62, 198, 88),
    );
    let mut state = seed | 1;
    for _ in 0..(w * h / 10) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let x = (state % w as u64) as isize;
        let y = ((state >> 16) % h as u64) as isize;
        let v = (state >> 32) as u8;
        f.set(x, y, Pixel::new(v, v.wrapping_mul(5), v.wrapping_add(60)));
    }
    f
}

/// Steady-state segmentation must not touch the allocator: after a warm-up
/// pass over the frame set, re-segmenting the same frames through the same
/// arena performs zero alloc/realloc events.
#[test]
fn steady_state_segmentation_allocates_nothing() {
    let cfg = SegmentConfig::default();
    let frames: Vec<Frame> = (0..3).map(|i| busy_frame(160, 120, 11 + i)).collect();
    let mut scratch = SegScratch::new();

    // Warm-up: two passes so every content-dependent buffer (region
    // stats, adjacency, neighbor CSR) reaches its high-water capacity.
    for _ in 0..2 {
        for f in &frames {
            segment_into(f, &cfg, &mut scratch);
        }
    }
    let grows_warm = scratch.grow_events();
    let bytes_warm = scratch.alloc_bytes();
    assert!(bytes_warm > 0, "warm arena owns real buffers");

    // Measure: three steady-state passes under the counting allocator.
    let mut last_regions = 0;
    let before = alloc_events();
    for _ in 0..3 {
        for f in &frames {
            let seg = segment_into(f, &cfg, &mut scratch);
            last_regions = seg.regions.len();
        }
    }
    let delta = alloc_events() - before;

    assert!(last_regions > 0, "segmentation produced real regions");
    assert_eq!(
        delta, 0,
        "steady-state segmentation performed {delta} heap allocations"
    );
    // The arena's own bookkeeping agrees with the allocator.
    assert_eq!(scratch.grow_events(), grows_warm);
    assert_eq!(scratch.alloc_bytes(), bytes_warm);
}

/// The arena's grow-event counter is an upper bound witness: a cold arena
/// grows, a warm one does not, and `alloc_bytes` is monotone under reuse.
#[test]
fn cold_arena_grows_then_stops() {
    let cfg = SegmentConfig::default();
    let f = busy_frame(96, 72, 3);
    let mut scratch = SegScratch::new();
    assert_eq!(scratch.grow_events(), 0);
    assert_eq!(scratch.alloc_bytes(), 0);
    segment_into(&f, &cfg, &mut scratch);
    let cold_grows = scratch.grow_events();
    assert!(cold_grows > 0, "first call must grow the arena");
    segment_into(&f, &cfg, &mut scratch);
    assert_eq!(
        scratch.grow_events(),
        cold_grows,
        "second call on the same frame must not grow"
    );
}

/// A reopen's allocations, bounded: one `VideoDatabase::load` at
/// `Threads::Fixed(1)` of a fixed 12-clip database (alternating lab /
/// traffic, 3 actors, 12 frames). Each Background Graph decodes into a
/// flat RAG of four buffers. The incremental layout it replaced (a
/// `BTreeMap` of edges plus one neighbour `Vec` per node) took 429
/// allocations for this file; the flat one takes 227, the bound. A
/// decoder that starts allocating per node or per edge fails here.
#[test]
fn load_allocations_are_bounded() {
    let db = VideoDatabase::new(DbOptions::new());
    for i in 0..12u64 {
        let scene = if i.is_multiple_of(2) {
            "lab"
        } else {
            "traffic"
        };
        let clip = strg::serve::wire::make_clip(scene, &format!("clip-{i:02}"), 3, 12, 40 + i)
            .expect("lab and traffic are known scenes");
        db.ingest_clip(&clip, 40 + i);
    }
    let path = std::env::temp_dir().join(format!("strg_load_alloc_{}", std::process::id()));
    db.save(&path).expect("save");
    let opts = || DbOptions::new().threads(Threads::Fixed(1));
    // Warm-up: first-use statics and thread-locals are not the loader's.
    drop(VideoDatabase::load(&path, opts()).expect("load"));
    let before = alloc_events();
    let loaded = VideoDatabase::load(&path, opts()).expect("load");
    let events = alloc_events() - before;
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded.stats().clips, 12);
    assert!(events <= 227, "load performed {events} allocations");
}
