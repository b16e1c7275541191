//! Allocation-discipline harness for the ingest hot path.
//!
//! Runs under the per-thread counting `#[global_allocator]` of
//! `tests/alloc_util` (shared with `query_alloc.rs`) and asserts that
//! steady-state segmentation through a warm [`SegScratch`] arena performs
//! **zero** heap allocations: every buffer the pipeline touches is owned
//! by the arena and only recycled after warm-up (DESIGN.md §10). Batch
//! extraction (`frames_to_rags`) keeps one such arena per worker, so past
//! its first frames it allocates only the RAGs it returns. It also pins
//! the allocations of rendering a clip and bounds those of one
//! `VideoDatabase::load` at one and at two workers.

mod alloc_util;

use alloc_util::alloc_events;
use strg::graph::FrameId;
use strg::prelude::*;
use strg::video::rag_from_segmentation;

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
}

/// A cold arena allocates on its first frame (building an arena allocates
/// nothing), and a second call on the same frame allocates nothing.
#[test]
fn cold_arena_grows_then_stops() {
    let cfg = SegmentConfig::default();
    let f = busy_frame(96, 72, 3);
    let before = alloc_events();
    let mut scratch = SegScratch::new();
    assert_eq!(alloc_events(), before, "a new arena owns no buffers");
    segment_into(&f, &cfg, &mut scratch);
    let cold = alloc_events() - before;
    assert!(cold > 0, "first call must grow the arena");
    let before = alloc_events();
    segment_into(&f, &cfg, &mut scratch);
    let warm = alloc_events() - before;
    assert_eq!(
        warm, 0,
        "second call on the same frame allocated {warm} times"
    );
}

/// `frames_to_rags` at one worker threads a single arena through every
/// frame: once the arena has seen the frames, each further frame costs
/// exactly the allocations of the RAG built for it. A fresh arena per
/// frame would add the whole arena's buffers per frame.
#[test]
fn frames_to_rags_allocates_only_the_rags_it_returns() {
    let cfg = SegmentConfig::default();
    let base: Vec<Frame> = (0..3).map(|i| busy_frame(160, 120, 21 + i)).collect();
    let rag_allocs: u64 = base
        .iter()
        .map(|f| {
            let seg = segment(f, &cfg);
            let before = alloc_events();
            let rag = rag_from_segmentation(&seg, FrameId(0));
            let events = alloc_events() - before;
            assert!(rag.node_count() > 0, "frame produced regions");
            events
        })
        .sum();
    let events_for = |passes: usize| {
        let frames: Vec<Frame> = base
            .iter()
            .cycle()
            .take(passes * base.len())
            .cloned()
            .collect();
        let before = alloc_events();
        let rags = frames_to_rags(&frames, &cfg, Threads::Fixed(1));
        let events = alloc_events() - before;
        assert_eq!(rags.len(), frames.len());
        events
    };
    // Two passes warm the arena; two more add one RAG per frame and
    // nothing else.
    let extra = events_for(4) - events_for(2);
    assert_eq!(
        extra,
        2 * rag_allocs,
        "six further frames cost {extra} allocations, their RAGs {}",
        2 * rag_allocs
    );
}

/// Rendering a clip allocates one pixel buffer per frame plus the frame
/// list, and nothing else: no per-frame table, cache or scratch buffer.
#[test]
fn render_allocates_one_buffer_per_frame() {
    let cfg = ScenarioConfig {
        n_actors: 4,
        frames: 24,
        seed: 20050614,
        ..ScenarioConfig::default()
    };
    let clip = VideoClip {
        name: "clip-0000".into(),
        scene: lab_scene(&cfg),
        fps: 30.0,
    };
    let before = alloc_events();
    let frames = clip.render_all(cfg.seed);
    let events = alloc_events() - before;
    assert_eq!(frames.len(), 59);
    assert_eq!(
        events,
        frames.len() as u64 + 1,
        "rendering {} frames performed {events} allocations",
        frames.len()
    );
}

/// A reopen's allocations, bounded: one `VideoDatabase::load` at
/// `Threads::Fixed(1)` of a fixed 12-clip database (alternating lab /
/// traffic, 3 actors, 12 frames). Each Background Graph decodes into a
/// flat RAG of four buffers. The incremental layout it replaced (a
/// `BTreeMap` of edges plus one neighbour `Vec` per node) took 429
/// allocations for this file and the flat one 227 in format v3; format v4
/// took 217. Formats v5 and v6 take 210, the bound: one record per clip, each
/// clip's OG list sized up front, the record list sized before it is
/// filled, and no id list (a clip's ids are one block). A decoder that
/// starts allocating per node or per edge fails here.
///
/// At `Fixed(2)` the records are decoded in two chunks, and the counter
/// sees the calling thread only: 133 allocations when the pool's helper
/// takes the second chunk, 217 when the caller runs it too (every
/// allocation of the load, the fork's bookkeeping and the second chunk's
/// `named` buffer included). 217 is the bound.
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
    // Warm-up at each count: first-use statics, thread-locals and the
    // pool's helper thread are not the loader's.
    let load = |n| {
        let opts = DbOptions::new().threads(Threads::Fixed(n));
        drop(VideoDatabase::load(&path, opts).expect("load"));
        let before = alloc_events();
        let loaded = VideoDatabase::load(&path, opts).expect("load");
        let events = alloc_events() - before;
        assert_eq!(loaded.stats().clips, 12);
        events
    };
    let (one, two) = (load(1), load(2));
    let _ = std::fs::remove_file(&path);
    assert!(one <= 210, "load performed {one} allocations");
    assert!(two <= 217, "load at Fixed(2) performed {two} allocations");
}
