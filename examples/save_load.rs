//! Persistence: build a database, save it to disk (STRGDB segment
//! file), load it back and verify queries agree — the restart story of a
//! production video database. The reload deserializes the built index
//! (no re-clustering), so it reports the `fast` reopen mode.
//!
//! Run with: `cargo run --release --example save_load`

#![forbid(unsafe_code)]

use strg::prelude::*;

fn main() {
    let db = VideoDatabase::new(DbOptions::new());
    db.ingest_clip(
        &VideoClip {
            name: "hallway".into(),
            scene: lab_scene(&ScenarioConfig {
                n_actors: 3,
                frames: 80,
                seed: 12,
                ..Default::default()
            }),
            fps: 30.0,
        },
        1,
    );
    let stats = db.stats();
    println!(
        "built: {} clip(s), {} objects, index {} bytes",
        stats.clips, stats.objects, stats.index_bytes
    );

    let path = std::env::temp_dir().join("strg_example.db");
    db.save(&path).expect("save");
    println!("saved -> {}", path.display());

    let loaded = VideoDatabase::load(&path, DbOptions::new()).expect("load");
    let re = loaded.stats();
    let p = loaded.persist_info();
    println!(
        "loaded: {} clip(s), {} objects (format v{}, reopen {})",
        re.clips,
        re.objects,
        p.format(),
        p.reopen.as_str()
    );
    assert_eq!(re.objects, stats.objects);
    assert_eq!(p.reopen, ReopenMode::Fast);

    // The deserialized index answers identically.
    let q = db.og(0).expect("og 0").centroid_series();
    let a = db.query(Query::knn(3).trajectory(&q)).hits;
    let b = loaded.query(Query::knn(3).trajectory(&q)).hits;
    println!("\nquery agreement after reload:");
    for (x, y) in a.iter().zip(&b) {
        println!(
            "  og #{:<3} dist {:>8.1}  ==  og #{:<3} dist {:>8.1}",
            x.og_id, x.dist, y.og_id, y.dist
        );
        assert_eq!(x.og_id, y.og_id);
    }
    let _ = std::fs::remove_file(&path);
    println!("\nok");
}
