//! Concurrency: the database must serve queries from many threads, also
//! while another thread ingests — the `parking_lot::RwLock` discipline the
//! pipeline documents.

use std::sync::Arc;

use strg::prelude::*;

fn clip(seed: u64) -> VideoClip {
    VideoClip {
        name: format!("cam{seed}"),
        scene: lab_scene(&ScenarioConfig {
            n_actors: 2,
            frames: 50,
            seed,
            ..Default::default()
        }),
        fps: 30.0,
    }
}

#[test]
fn parallel_readers_agree() {
    let db = Arc::new(VideoDatabase::new(DbOptions::new()));
    db.ingest_clip(&clip(1), 1);
    let og = db.og(0).expect("first og");
    let q = og.centroid_series();

    let baseline = db.query(Query::knn(3).trajectory(&q).with_cost());
    let mut handles = Vec::new();
    for _ in 0..4 {
        let db = Arc::clone(&db);
        let q = q.clone();
        handles.push(std::thread::spawn(move || {
            let mut out = Vec::new();
            for _ in 0..25 {
                out.push(db.query(Query::knn(3).trajectory(&q).with_cost()));
            }
            out
        }));
    }
    let base_cost = baseline.cost.expect("with_cost() requested it");
    for h in handles {
        for result in h.join().expect("no panics") {
            assert_eq!(result.hits.len(), baseline.hits.len());
            for (a, b) in result.hits.iter().zip(&baseline.hits) {
                assert_eq!(a.og_id, b.og_id);
            }
            // The index is static here: every reader does the same work.
            assert!(result.cost.unwrap().same_work(&base_cost));
        }
    }
}

#[test]
fn queries_during_ingest_never_see_torn_state() {
    let db = Arc::new(VideoDatabase::new(DbOptions::new()));
    db.ingest_clip(&clip(2), 1);
    let q: Vec<Point2> = (0..20).map(|i| Point2::new(4.0 * i as f64, 80.0)).collect();

    let writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            for seed in 10..14u64 {
                db.ingest_clip(&clip(seed), seed);
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let db = Arc::clone(&db);
            let q = q.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    // Every hit must resolve to a live clip and OG.
                    for hit in db.query(Query::knn(5).trajectory(&q)).hits {
                        assert!(db.og(hit.og_id).is_some());
                        assert!(!hit.clip.is_empty());
                    }
                }
            })
        })
        .collect();
    writer.join().expect("writer ok");
    for r in readers {
        r.join().expect("reader ok");
    }
    assert_eq!(db.stats().clips, 5);
}

#[test]
fn concurrent_writers_produce_consistent_database() {
    // Multi-writer stress: several threads ingest distinct clips while
    // readers hammer queries and stats. Whatever interleaving the scheduler
    // picks, OG ids must stay unique, every clip must land exactly once,
    // and the final statistics must add up.
    let db = Arc::new(VideoDatabase::new(DbOptions::new()));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let q: Vec<Point2> = (0..20).map(|i| Point2::new(4.0 * i as f64, 80.0)).collect();

    let writers: Vec<_> = (0..3u64)
        .map(|w| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let mut reported = Vec::new();
                for i in 0..3u64 {
                    let seed = 100 * (w + 1) + i;
                    reported.push(db.ingest_clip(&clip(seed), seed).objects);
                }
                reported
            })
        })
        .collect();
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let db = Arc::clone(&db);
            let q = q.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let stats = db.stats();
                    // A snapshot can never report more clips than exist.
                    assert!(stats.clips <= 9);
                    for hit in db.query(Query::knn(5).trajectory(&q)).hits {
                        assert!(db.og(hit.og_id).is_some());
                        assert!(!hit.clip.is_empty());
                    }
                }
            })
        })
        .collect();

    let mut total_objects = 0;
    for w in writers {
        total_objects += w.join().expect("writer ok").iter().sum::<usize>();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader ok");
    }

    // Every clip landed exactly once.
    let mut names = db.clip_names();
    assert_eq!(names.len(), 9);
    names.sort();
    names.dedup();
    assert_eq!(names.len(), 9, "no clip ingested twice");

    // Stats add up to what the writers reported.
    let stats = db.stats();
    assert_eq!(stats.clips, 9);
    assert_eq!(stats.objects, total_objects);

    // OG ids are globally unique: querying with a huge k surfaces every
    // object exactly once.
    let all = db.query(Query::knn(total_objects + 10).trajectory(&q)).hits;
    assert_eq!(all.len(), total_objects);
    let mut ids: Vec<u64> = all.iter().map(|h| h.og_id).collect();
    ids.sort_unstable();
    let n = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), n, "duplicate OG ids across concurrent ingests");
}

#[test]
fn concurrent_ingest_and_removal_stay_consistent() {
    // One thread repeatedly removes clips while another adds new ones and
    // readers resolve hits; ids must never collide or dangle.
    let db = Arc::new(VideoDatabase::new(DbOptions::new()));
    for seed in 0..3u64 {
        db.ingest_clip(&clip(seed), seed);
    }
    let q: Vec<Point2> = (0..20).map(|i| Point2::new(4.0 * i as f64, 80.0)).collect();

    let adder = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            for seed in 50..54u64 {
                db.ingest_clip(&clip(seed), seed);
            }
        })
    };
    let remover = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            for seed in 0..3u64 {
                db.remove_clip(&format!("cam{seed}"));
            }
        })
    };
    let reader = {
        let db = Arc::clone(&db);
        let q = q.clone();
        std::thread::spawn(move || {
            for _ in 0..60 {
                for hit in db.query(Query::knn(5).trajectory(&q)).hits {
                    // A hit observed in a snapshot must resolve in that
                    // snapshot; by the time we re-resolve it the clip may
                    // be gone, which must yield None, never a panic.
                    let _ = db.og(hit.og_id);
                }
            }
        })
    };
    adder.join().expect("adder ok");
    remover.join().expect("remover ok");
    reader.join().expect("reader ok");

    let stats = db.stats();
    assert_eq!(stats.clips, 4, "3 removed, 4 added on top of 3");
    let all = db.query(Query::knn(1000).trajectory(&q)).hits;
    assert_eq!(all.len(), stats.objects);
    let mut ids: Vec<u64> = all.iter().map(|h| h.og_id).collect();
    ids.sort_unstable();
    let n = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), n);
    for name in db.clip_names() {
        let seed: u64 = name.trim_start_matches("cam").parse().unwrap();
        assert!((50..54).contains(&seed), "only added clips survive: {name}");
    }
}

/// OG ids come from one database-wide allocator at every shard count:
/// removing the newest clip must not hand its ids to the next ingest, or
/// `og(id)` would silently name a different object.
#[test]
fn removing_the_last_clip_never_reissues_its_ids() {
    for shards in [1, 3] {
        let db = VideoDatabase::new(DbOptions::new().shards(shards));
        db.ingest_clip(&clip(1), 1);
        let first = db.stats().objects as u64;
        db.ingest_clip(&clip(2), 2);
        let removed: Vec<u64> = (first..db.stats().objects as u64).collect();
        assert!(!removed.is_empty(), "{shards} shards: cam2 holds objects");
        db.remove_clip("cam2").expect("known clip");
        db.ingest_clip(&clip(3), 3);
        assert!(
            db.stats().objects as u64 > first,
            "{shards} shards: cam3 holds objects"
        );
        for &id in &removed {
            assert!(
                db.og(id).is_none(),
                "{shards} shards: id {id} of the removed clip was handed out again"
            );
        }
    }
}

/// Racing ingests into one shard: each takes the clip order before the
/// shard's locks, so `clip_names()` is the shard's root order — exactly
/// the order a save writes and a load reads back.
#[test]
fn racing_ingests_keep_the_saved_clip_order() {
    let db = Arc::new(VideoDatabase::new(DbOptions::new()));
    let start = Arc::new(std::sync::Barrier::new(4));
    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            let db = Arc::clone(&db);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let clips: Vec<(VideoClip, u64)> = (0..8u64)
                    .map(|i| {
                        let seed = 1000 + 8 * w + i;
                        let cfg = ScenarioConfig {
                            n_actors: 1,
                            frames: 12,
                            seed,
                            ..Default::default()
                        };
                        let name = format!("race{seed}");
                        (
                            VideoClip {
                                name,
                                scene: lab_scene(&cfg),
                                fps: 30.0,
                            },
                            seed,
                        )
                    })
                    .collect();
                start.wait();
                for (clip, seed) in &clips {
                    db.ingest_clip(clip, *seed);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer ok");
    }
    let names = db.clip_names();
    assert_eq!(names.len(), 32);
    let path = std::env::temp_dir().join(format!("strg_racing_order_{}", std::process::id()));
    db.save(&path).expect("save");
    let loaded = VideoDatabase::load(&path, DbOptions::new()).expect("load");
    let _ = std::fs::remove_file(&path);
    assert_eq!(names, loaded.clip_names(), "ingest order vs saved order");
}

#[test]
fn batches_racing_writers_finish_and_duplicates_match() {
    // `query_batch` with repeated members while clips come and go, on both
    // flavours: the threads must join (no lock-order deadlock between the
    // batch's per-member queries and the writers), and since a duplicate
    // is handed its representative's answer, the two are byte-identical
    // whatever the writers did in between.
    let flavours: [Arc<dyn Database>; 2] = [
        Arc::new(VideoDatabase::new(DbOptions::new())),
        Arc::new(ShardedDatabase::new(DbOptions::new().shards(3))),
    ];
    for db in flavours {
        for seed in 0..3u64 {
            db.ingest_clip(&clip(seed), seed);
        }
        let q: Vec<Point2> = (0..20).map(|i| Point2::new(4.0 * i as f64, 80.0)).collect();

        let adder = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for seed in 50..53u64 {
                    db.ingest_clip(&clip(seed), seed);
                }
            })
        };
        let remover = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for seed in 0..3u64 {
                    db.remove_clip(&format!("cam{seed}"));
                }
            })
        };
        let reader = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let members = [
                    Query::knn(5).trajectory(&q),
                    Query::range(400.0).trajectory(&q),
                    Query::knn(5).trajectory(&q).in_clip("cam1"),
                ];
                let batch: Vec<Query<'_>> = members.iter().chain(&members).cloned().collect();
                for _ in 0..40 {
                    let results = db.query_batch(&batch);
                    let (reps, dups) = results.split_at(members.len());
                    for (rep, dup) in reps.iter().zip(dups) {
                        assert_eq!(rep.hits.len(), dup.hits.len());
                        for (a, b) in rep.hits.iter().zip(&dup.hits) {
                            assert_eq!((a.og_id, &a.clip), (b.og_id, &b.clip));
                            assert_eq!(a.dist.to_bits(), b.dist.to_bits());
                        }
                    }
                }
            })
        };
        adder.join().expect("adder ok");
        remover.join().expect("remover ok");
        reader.join().expect("reader ok");
        assert_eq!(db.stats().clips, 3, "3 removed, 3 added on top of 3");
    }
}
