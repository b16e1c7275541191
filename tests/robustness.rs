//! Failure injection: the pipeline must keep producing usable indexes under
//! degraded input — heavy pixel noise, strong illumination flicker and
//! dropped frames — the nuisances the paper's EDISON choice and tracking
//! design are motivated by.

mod oracle;

use strg::prelude::*;
use strg::video::SceneNoise;

fn clip_with_noise(noise: SceneNoise, seed: u64) -> VideoClip {
    VideoClip {
        name: format!("noisy{seed}"),
        scene: {
            let mut s = lab_scene(&ScenarioConfig {
                n_actors: 2,
                frames: 70,
                seed,
                ..Default::default()
            });
            s.noise = noise;
            s
        },
        fps: 30.0,
    }
}

#[test]
fn survives_heavy_pixel_noise() {
    let db = VideoDatabase::new(DbOptions::new());
    let report = db.ingest_clip(
        &clip_with_noise(
            SceneNoise {
                illumination: 6.0,
                pixel_noise: 0.01, // 10x the default salt noise
                frame_drop: 0.0,
            },
            5,
        ),
        1,
    );
    assert!(report.objects >= 1, "walkers still tracked under noise");
    let og = db.og(0).unwrap();
    assert!(og.duration() >= 5, "tracks are not shredded to confetti");
}

#[test]
fn survives_dropped_frames() {
    let db = VideoDatabase::new(DbOptions::new());
    let report = db.ingest_clip(
        &clip_with_noise(
            SceneNoise {
                illumination: 2.0,
                pixel_noise: 0.0005,
                frame_drop: 0.08, // ~8% of frames lose all actors
            },
            6,
        ),
        1,
    );
    // Tracks break at dropped frames but fragments must still be objects.
    assert!(report.objects >= 1, "objects survive frame drops");
    let stats = db.stats();
    assert!(stats.index_bytes < stats.strg_bytes);
    // Queries still work.
    let og = db.og(0).unwrap();
    let q = og.centroid_series();
    let hits = db.query(Query::knn(1).trajectory(&q)).hits;
    assert_eq!(hits[0].og_id, 0);
}

#[test]
fn clean_vs_noisy_extraction_is_comparable() {
    // The number of extracted objects should not explode under noise
    // (over-segmentation would poison the index).
    let quiet = VideoDatabase::new(DbOptions::new());
    let rq = quiet.ingest_clip(
        &clip_with_noise(
            SceneNoise {
                illumination: 0.0,
                pixel_noise: 0.0,
                frame_drop: 0.0,
            },
            9,
        ),
        1,
    );
    let noisy = VideoDatabase::new(DbOptions::new());
    let rn = noisy.ingest_clip(
        &clip_with_noise(
            SceneNoise {
                illumination: 5.0,
                pixel_noise: 0.005,
                frame_drop: 0.0,
            },
            9,
        ),
        1,
    );
    assert!(
        rn.objects <= rq.objects.max(2) * 3,
        "quiet {} noisy {}",
        rq.objects,
        rn.objects
    );
}

#[test]
fn empty_and_static_videos_are_harmless() {
    let db = VideoDatabase::new(DbOptions::new());
    // A static scene: no actors at all.
    let clip = VideoClip {
        name: "static".into(),
        scene: {
            let mut s = lab_scene(&ScenarioConfig {
                n_actors: 0,
                frames: 0,
                seed: 1,
                ..Default::default()
            });
            s.actors.clear();
            s
        },
        fps: 30.0,
    };
    // Zero frames (frame_count is 0 with no actors): ingest an explicit
    // short render instead.
    let frames: Vec<Frame> = (0..10)
        .map(|t| {
            let mut rng = rand::SeedableRng::seed_from_u64(t as u64);
            clip.scene.render(t, &mut rng)
        })
        .collect();
    let report = db.ingest_frames("static", &frames);
    assert_eq!(report.objects, 0, "nothing moves, nothing indexed");
    assert!(report.background_nodes >= 3);
    let r = db.query(
        Query::knn(5)
            .trajectory(&[Point2::new(1.0, 1.0)])
            .with_cost(),
    );
    assert!(r.hits.is_empty());
    assert_eq!(
        r.cost.unwrap().distance_calls,
        0,
        "empty index does no work"
    );
}

/// Query coordinates far outside anything stored — `±1e200`, whose squares
/// overflow (every distance is `+inf`), and `±1e150`, whose squares do not
/// (huge but finite) — through both facades: no panic, no NaN, exactly the
/// linear scan's answer, and the per-record accounting still partitions the
/// database. (`strg-serve` and the CLI refuse NaN and infinite coordinates
/// at the door; these are the finite extremes they let through.)
#[test]
fn extreme_query_coordinates_are_exact_and_nan_free() {
    let plain = VideoDatabase::new(DbOptions::new());
    let sharded = ShardedDatabase::new(DbOptions::new().shards(3));
    let dbs: [(&str, &dyn Database); 2] = [("plain", &plain), ("3 shards", &sharded)];
    for (name, db) in dbs {
        for seed in [3, 7, 11, 19] {
            db.ingest_clip(&clip_with_noise(SceneNoise::default(), seed), seed);
        }
        let stats = db.stats();
        assert!(stats.objects >= 4, "{name}: {stats:?}");
        let stored: oracle::Corpus = (0..stats.objects as u64)
            .map(|id| (id, db.og(id).expect("dense og ids").centroid_series()))
            .collect();
        for big in [1e200, 1e150] {
            let q: Vec<Point2> = (0..30)
                .map(|i| Point2::new(-big, big).lerp(Point2::new(big, -big), i as f64 / 29.0))
                .collect();
            let truth = oracle::scan(&stored, &q);
            assert!(truth.iter().all(|t| !t.1.is_nan()), "{name}: scan NaN");
            assert_eq!(truth[0].1.is_infinite(), big == 1e200, "{name} {big}");
            let probes = [
                (QueryKind::Knn(3), Query::knn(3)),
                (
                    QueryKind::Knn(stats.objects + 1),
                    Query::knn(stats.objects + 1),
                ),
                (QueryKind::Range(1e300), Query::range(1e300)),
                (QueryKind::Range(f64::INFINITY), Query::range(f64::INFINITY)),
            ];
            for (probe, query) in probes {
                let r = db.query(query.trajectory(&q).with_cost());
                let hits: Vec<(u64, f64)> = r.hits.iter().map(|h| (h.og_id, h.dist)).collect();
                assert!(hits.iter().all(|h| !h.1.is_nan()), "{name} {probe:?}: NaN");
                oracle::assert_matches(&truth, &hits, probe, &format!("{name} {big}"));
                let cost = r.cost.expect("with_cost() requested it");
                assert_eq!(
                    cost.distance_calls + cost.pruned + cost.lb_pruned,
                    (stats.objects + stats.clusters) as u64,
                    "{name} {big} {probe:?}: conservation {cost:?}"
                );
            }
        }
    }
}

/// The CLI takes `--frames`, `--actors` and `--name` from outside the
/// program: unbounded counts (which aborted the process on a multi-terabyte
/// allocation) and names that would not fit on one line of its output end
/// in a `CliError` naming the limit, and the sharded database ingested
/// before them still opens.
#[test]
fn cli_refuses_unbounded_and_unnameable_ingests() {
    let dir = std::env::temp_dir().join(format!("strg_robust_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = dir.to_string_lossy().into_owned();
    let ingest = |name: &str, extra: &[&str]| {
        let mut argv = vec![
            "ingest", "--db", &db, "--shards", "2", "--scene", "lab", "--name", name,
        ];
        argv.extend_from_slice(extra);
        strg_cli::run(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    };
    ingest("cam0", &["--actors", "1", "--frames", "30"]).expect("a bounded ingest");

    for (extra, bound) in [
        (["--frames", "100000000000"], "4096"),
        (["--frames", "4097"], "4096"),
        (["--frames", "0"], "4096"),
        (["--actors", "100000000000"], "64"),
        (["--actors", "65"], "64"),
    ] {
        let e = ingest("x", &extra).expect_err("unbounded ingest accepted");
        assert!(e.0.contains(bound), "{extra:?}: {e}");
    }
    let long_name = "n".repeat(256);
    for name in ["cam\nshards 0", "cam\r", "cam\0", "", long_name.as_str()] {
        let e = ingest(name, &["--frames", "30"]).expect_err("unnameable clip accepted");
        assert!(e.0.contains("clip name"), "{name:?}: {e}");
    }

    let stats = strg_cli::run(&["stats".to_string(), "--db".to_string(), db.clone()])
        .expect("the database still opens");
    assert!(stats.contains("clips 1"), "{stats}");
    let _ = std::fs::remove_dir_all(&dir);
}
