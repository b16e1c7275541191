//! When is which index the right tool? The 3DR-tree answers
//! spatio-temporal *window* queries ("who was in this region during these
//! frames?"), while the STRG-Index answers *similarity* queries ("which
//! stored objects moved like this?"). This example runs both against the
//! same synthetic trajectories.
//!
//! Run with: `cargo run --release --example window_queries`

#![forbid(unsafe_code)]

use strg::core::StrgIndex;
use strg::graph::BackgroundGraph;
use strg::prelude::*;

fn main() {
    let n = 300;
    let ds = generate_total(n, &SynthConfig::with_noise(0.05), 21);
    let items: Vec<(u64, Vec<Point2>)> = ds
        .series()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (i as u64, s))
        .collect();

    // 3DR-tree: trajectories anchored at t = 0 frame-by-frame.
    let mut rtree = RTree3::new();
    for (id, s) in &items {
        let pts: Vec<(f64, f64)> = s.iter().map(|p| (p.x, p.y)).collect();
        rtree.insert_trajectory(*id, &pts, 0.0);
    }

    // STRG-Index on the same data.
    let mut cfg = StrgIndexConfig::with_k(24);
    cfg.em_max_iters = 8;
    cfg.em_n_init = 1;
    let mut strg = StrgIndex::new(EgedMetric::<Point2>::new(), cfg);
    strg.add_segment(BackgroundGraph::default(), items.clone());

    // Window query: upper-left quadrant during the first 10 frames.
    let window = Aabb3::new([0.0, 0.0, 0.0], [160.0, 120.0, 10.0]);
    let in_window = rtree.window_ids(&window);
    println!(
        "3DR-tree window query (upper-left quadrant, frames 0-10): {} of {} trajectories",
        in_window.len(),
        n
    );

    // Similarity query: a diagonal crossing.
    let query: Vec<Point2> = (0..30)
        .map(|i| {
            let t = i as f64 / 29.0;
            Point2::new(16.0 + t * 288.0, 16.0 + t * 208.0)
        })
        .collect();
    println!("\nSTRG-Index similarity query (diagonal crossing), top 5:");
    for h in strg.knn(&query, 5) {
        let label = ds.items[h.og_id as usize].label;
        println!(
            "  og #{:<4} pattern {:<2} dist {:>8.1}",
            h.og_id, label, h.dist
        );
    }

    // And the mismatch demonstration: the window tells you *presence*, not
    // *motion* — the trajectories in the window span many patterns.
    let mut patterns: Vec<u32> = in_window
        .iter()
        .map(|&id| ds.items[id as usize].label)
        .collect();
    patterns.sort_unstable();
    patterns.dedup();
    println!(
        "\nthe window's {} trajectories span {} distinct motion patterns — presence != similarity",
        in_window.len(),
        patterns.len()
    );
}
