//! Surveillance retrieval: ingest all four Table-1 style clips (two lab
//! cameras, two traffic cameras) into one database and run content-based
//! trajectory queries across them — the paper's motivating application.
//!
//! Run with: `cargo run --release --example surveillance_search`

#![forbid(unsafe_code)]

use strg::prelude::*;

fn main() {
    let db = VideoDatabase::new(DbOptions::new());

    println!("ingesting the four evaluation clips (this renders + segments every frame)...");
    for clip in table1_clips() {
        let report = db.ingest_clip(&clip, 7);
        println!(
            "  {:<9} {:>4} frames  {:>3} objects  bg {} regions  raw STRG {:>9} B",
            clip.name,
            clip.frame_count(),
            report.objects,
            report.background_nodes,
            report.strg_bytes,
        );
    }

    let stats = db.stats();
    println!(
        "\ndatabase: {} clips, {} objects in {} clusters; index {} B vs raw {} B ({:.1}x smaller)",
        stats.clips,
        stats.objects,
        stats.clusters,
        stats.index_bytes,
        stats.strg_bytes,
        stats.strg_bytes as f64 / stats.index_bytes.max(1) as f64
    );

    // Query 1: eastbound road traffic (left-to-right in the upper lane).
    let eastbound: Vec<Point2> = (0..30).map(|i| Point2::new(6.0 * i as f64, 50.0)).collect();
    report_query(&db, "eastbound vehicle", &eastbound, 5);

    // Query 2: westbound traffic in the lower lane.
    let westbound: Vec<Point2> = (0..30)
        .map(|i| Point2::new(170.0 - 6.0 * i as f64, 72.0))
        .collect();
    report_query(&db, "westbound vehicle", &westbound, 5);

    // Query 3: a person walking through the lab (slower, lower on screen).
    let walker: Vec<Point2> = (0..45).map(|i| Point2::new(3.5 * i as f64, 80.0)).collect();
    report_query(&db, "lab walker", &walker, 5);

    // Query 4: the same walker, but restricted to the Lab1 clip only
    // (Algorithm 3's background-matched search path).
    println!("\nquery 'lab walker' restricted to clip Lab1:");
    for hit in db
        .query(Query::knn(3).trajectory(&walker).in_clip("Lab1"))
        .hits
    {
        println!(
            "    {:<9} og #{:<3} dist {:>9.1}",
            hit.clip, hit.og_id, hit.dist
        );
    }
}

fn report_query(db: &VideoDatabase, label: &str, query: &[Point2], k: usize) {
    println!("\nquery '{label}' — top {k}:");
    let result = db.query(Query::knn(k).trajectory(query).with_cost());
    for hit in &result.hits {
        println!(
            "    {:<9} og #{:<3} dist {:>9.1}",
            hit.clip, hit.og_id, hit.dist
        );
    }
    let cost = result.cost.expect("with_cost() requested it");
    println!(
        "    ({} distance calls, {} node accesses, {} pruned)",
        cost.distance_calls, cost.node_accesses, cost.pruned
    );
}
