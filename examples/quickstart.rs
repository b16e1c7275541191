//! Quickstart: script a tiny synthetic surveillance clip, ingest it through
//! the full STRG pipeline (segmentation → RAG → STRG → decomposition →
//! clustering → STRG-Index), and answer a k-NN trajectory query.
//!
//! Run with: `cargo run --release --example quickstart`

#![forbid(unsafe_code)]

use strg::prelude::*;

fn main() {
    // A small laboratory scene: three people crossing the room.
    let clip = VideoClip {
        name: "lab-demo".into(),
        scene: lab_scene(&ScenarioConfig {
            n_actors: 3,
            frames: 90,
            seed: 42,
            ..Default::default()
        }),
        fps: 30.0,
    };

    let db = VideoDatabase::new(DbOptions::new());
    let report = db.ingest_clip(&clip, 1);
    println!(
        "ingested {:>3} frames -> {} object graphs, background of {} regions",
        clip.frame_count(),
        report.objects,
        report.background_nodes
    );

    let stats = db.stats();
    println!(
        "size: raw STRG {} bytes (Eq 9) vs STRG-Index {} bytes (Eq 10) — {:.1}x smaller",
        stats.strg_bytes,
        stats.index_bytes,
        stats.strg_bytes as f64 / stats.index_bytes.max(1) as f64
    );

    // Query: a left-to-right walk at floor height.
    let query: Vec<Point2> = (0..40).map(|i| Point2::new(4.0 * i as f64, 80.0)).collect();
    println!("\n3 nearest stored objects to a left-to-right walking query:");
    let result = db.query(Query::knn(3).trajectory(&query).with_cost());
    for hit in &result.hits {
        let og = db.og(hit.og_id).expect("stored og");
        println!(
            "  clip {:>9}  og #{:<3} dist {:>8.1}  lifetime {} frames, mean speed {:.1} px/frame",
            hit.clip,
            hit.og_id,
            hit.dist,
            og.len(),
            og.mean_velocity()
        );
    }
    // Work counts only — elapsed time would make the stdout nondeterministic.
    let cost = result.cost.expect("with_cost() requested it");
    println!(
        "cost: {} distance calls, {} node accesses, {} pruned",
        cost.distance_calls, cost.node_accesses, cost.pruned
    );
}
