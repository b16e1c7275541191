//! End-to-end integration: frames → segmentation → RAG → STRG → tracking →
//! decomposition → clustering → STRG-Index → queries, through the public
//! facade only.

use strg::prelude::*;

fn demo_clip(seed: u64, actors: usize, frames: usize) -> VideoClip {
    VideoClip {
        name: format!("demo{seed}"),
        scene: lab_scene(&ScenarioConfig {
            n_actors: actors,
            frames,
            seed,
            ..Default::default()
        }),
        fps: 30.0,
    }
}

#[test]
fn ingest_extracts_moving_objects() {
    let db = VideoDatabase::new(DbOptions::new());
    let clip = demo_clip(3, 3, 80);
    let report = db.ingest_clip(&clip, 1);
    assert!(
        report.objects >= 2,
        "three walkers scheduled, got {}",
        report.objects
    );
    assert!(
        report.objects <= 8,
        "no rampant over-segmentation: {}",
        report.objects
    );
    assert!(
        report.background_nodes >= 3,
        "room has several background regions"
    );
}

#[test]
fn stored_objects_have_plausible_motion() {
    let db = VideoDatabase::new(DbOptions::new());
    db.ingest_clip(&demo_clip(5, 2, 70), 2);
    let stats = db.stats();
    for id in 0..stats.objects as u64 {
        let og = db.og(id).expect("stored");
        assert!(og.len() >= 3, "objects live for several frames");
        assert!(og.mean_velocity() > 0.3, "objects move");
        // The scripted walkers are horizontal: displacement mostly in x.
        let series = og.centroid_series();
        let dx = (series.last().unwrap().x - series[0].x).abs();
        let dy = (series.last().unwrap().y - series[0].y).abs();
        assert!(dx > dy, "horizontal walk: dx {dx} dy {dy}");
    }
}

#[test]
fn self_query_returns_self_first() {
    let db = VideoDatabase::new(DbOptions::new());
    db.ingest_clip(&demo_clip(7, 3, 80), 3);
    let stats = db.stats();
    for id in 0..stats.objects as u64 {
        let og = db.og(id).unwrap();
        let q = og.centroid_series();
        let result = db.query(Query::knn(1).trajectory(&q).with_cost());
        assert_eq!(result.hits[0].og_id, id, "own trajectory is its own 1-NN");
        assert!(result.hits[0].dist < 1e-9);
        // Finding one neighbor among n stored OGs must do real, bounded work.
        let cost = result.cost.expect("with_cost() requested it");
        assert!(cost.distance_calls >= 1);
        assert!(cost.distance_calls + cost.pruned >= stats.objects as u64);
    }
}

#[test]
fn index_is_much_smaller_than_raw_strg() {
    let db = VideoDatabase::new(DbOptions::new());
    db.ingest_clip(&demo_clip(9, 2, 100), 4);
    let stats = db.stats();
    // Equation 9 vs 10: the raw STRG repeats the background per frame.
    assert!(
        stats.strg_bytes as f64 / stats.index_bytes as f64 > 3.0,
        "strg {} index {}",
        stats.strg_bytes,
        stats.index_bytes
    );
}

#[test]
fn multiple_clips_are_isolated_per_root() {
    let db = VideoDatabase::new(DbOptions::new());
    db.ingest_clip(&demo_clip(11, 2, 60), 1);
    db.ingest_clip(&demo_clip(12, 2, 60), 1);
    let stats = db.stats();
    assert_eq!(stats.clips, 2);
    // Every OG retrieved from a clip-restricted query belongs to that clip.
    let og = db.og(0).unwrap();
    let q = og.centroid_series();
    for hit in db
        .query(Query::knn(10).trajectory(&q).in_clip("demo11"))
        .hits
    {
        assert_eq!(hit.clip, "demo11");
    }
}

#[test]
fn background_matched_query_routes_to_right_scene() {
    // Two visually different scenes in one database; a query segment shot
    // in the traffic scene must route to the traffic root via background
    // matching (Algorithm 3 steps 1-2) even though its own objects differ.
    let db = VideoDatabase::new(DbOptions::new());
    db.ingest_clip(
        &VideoClip {
            name: "lab".into(),
            scene: lab_scene(&ScenarioConfig {
                n_actors: 2,
                frames: 60,
                seed: 41,
                ..Default::default()
            }),
            fps: 30.0,
        },
        1,
    );
    db.ingest_clip(
        &VideoClip {
            name: "traffic".into(),
            scene: traffic_scene(&ScenarioConfig {
                n_actors: 2,
                frames: 60,
                seed: 42,
                ..Default::default()
            }),
            fps: 30.0,
        },
        1,
    );
    // Query clip: same traffic scene, different actors/schedule.
    let q_clip = VideoClip {
        name: "traffic-query".into(),
        scene: traffic_scene(&ScenarioConfig {
            n_actors: 1,
            frames: 40,
            seed: 77,
            ..Default::default()
        }),
        fps: 30.0,
    };
    let q_frames = q_clip.render_all(5);
    let q: Vec<Point2> = (0..30).map(|i| Point2::new(6.0 * i as f64, 50.0)).collect();
    let hits = db
        .query(Query::knn(3).trajectory(&q).with_background(&q_frames))
        .hits;
    assert!(!hits.is_empty());
    assert!(
        hits.iter().all(|h| h.clip == "traffic"),
        "background routing must confine the search to the traffic clip: {hits:?}"
    );
}

#[test]
fn queries_across_scene_types_rank_matching_motion_first() {
    let db = VideoDatabase::new(DbOptions::new());
    // One lab clip (slow walkers) + one traffic clip (fast cars).
    db.ingest_clip(
        &VideoClip {
            name: "lab".into(),
            scene: lab_scene(&ScenarioConfig {
                n_actors: 3,
                frames: 80,
                seed: 31,
                ..Default::default()
            }),
            fps: 30.0,
        },
        1,
    );
    db.ingest_clip(
        &VideoClip {
            name: "traffic".into(),
            scene: traffic_scene(&ScenarioConfig {
                n_actors: 3,
                frames: 80,
                // A seed whose coin flips schedule at least one eastbound
                // car in the y = 50 lane the query trajectory drives down.
                seed: 30,
                ..Default::default()
            }),
            fps: 30.0,
        },
        1,
    );
    let stats = db.stats();
    assert!(stats.objects >= 4);

    // A fast left-to-right trajectory in the traffic lane should retrieve a
    // traffic OG first.
    let q: Vec<Point2> = (0..30).map(|i| Point2::new(6.0 * i as f64, 50.0)).collect();
    let hits = db.query(Query::knn(1).trajectory(&q)).hits;
    assert_eq!(
        hits[0].clip, "traffic",
        "traffic query matches traffic clip"
    );
}
