//! Persistence equivalence suite: the STRGDB fast reopen is a
//! *physical* optimization only.
//!
//! Loading a saved file deserializes the built index (`ReopenMode::Fast`)
//! instead of re-clustering. The reference is the database the file was
//! saved from — and a second one rebuilt from the same clips: the loaded
//! database must be indistinguishable from both in every observable: hits,
//! logical [`QueryCost`]s, stats, clip names, and the bytes a re-save
//! produces. A serialization bug (missed field, drifted order, stale
//! summary) shows up here as a bit diff.
//!
//! `scripts/ci.sh` runs this binary under `STRG_THREADS=1` and
//! `STRG_THREADS=8`, so byte-stability of the format across thread counts
//! is pinned too.

use std::path::PathBuf;

use strg::prelude::*;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("strg_persist_eq_{name}_{}", std::process::id()))
}

fn demo_clip(seed: u64) -> VideoClip {
    VideoClip {
        name: format!("clip-{seed}"),
        scene: lab_scene(&ScenarioConfig {
            n_actors: 1 + (seed as usize % 2),
            frames: 40,
            seed,
            ..Default::default()
        }),
        fps: 30.0,
    }
}

const CLIP_SEEDS: [u64; 3] = [5, 9, 14];

fn ingest_all(db: &dyn Database) {
    for seed in CLIP_SEEDS {
        db.ingest_clip(&demo_clip(seed), seed);
    }
}

fn trajectories(db: &dyn Database) -> Vec<Vec<Point2>> {
    let stored = db.og(0).expect("og 0 stored").centroid_series();
    let line: Vec<Point2> = (0..25).map(|i| Point2::new(3.0 * i as f64, 70.0)).collect();
    vec![stored, line]
}

fn assert_hits_eq(a: &[QueryHit], b: &[QueryHit], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: hit count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.clip, y.clip, "{ctx}: hit clip");
        assert_eq!(x.og_id, y.og_id, "{ctx}: hit id");
        assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "{ctx}: hit distance");
    }
}

fn assert_stats_eq(a: &strg::core::DbStats, b: &strg::core::DbStats, ctx: &str) {
    assert_eq!(a.clips, b.clips, "{ctx}: clips");
    assert_eq!(a.objects, b.objects, "{ctx}: objects");
    assert_eq!(a.clusters, b.clusters, "{ctx}: clusters");
    assert_eq!(a.strg_bytes, b.strg_bytes, "{ctx}: strg_bytes");
    assert_eq!(a.index_bytes, b.index_bytes, "{ctx}: index_bytes");
}

/// Every observable of two databases must agree: stats, clip names, and
/// hits + logical costs over k-NN, range, and clip-scoped queries.
fn assert_dbs_equivalent(a: &dyn Database, b: &dyn Database, ctx: &str) {
    assert_stats_eq(&a.stats(), &b.stats(), ctx);
    assert_eq!(a.clip_names(), b.clip_names(), "{ctx}: clip names");
    let shard_a = a.shard_stats();
    let shard_b = b.shard_stats();
    assert_eq!(shard_a.len(), shard_b.len(), "{ctx}: shard count");
    for (i, (x, y)) in shard_a.iter().zip(&shard_b).enumerate() {
        assert_stats_eq(x, y, &format!("{ctx}: shard {i}"));
    }
    for (qi, q) in trajectories(a).iter().enumerate() {
        for k in [1, 5] {
            let ra = a.query(Query::knn(k).trajectory(q).with_cost());
            let rb = b.query(Query::knn(k).trajectory(q).with_cost());
            let ctx = format!("{ctx}: q{qi} knn k={k}");
            assert_hits_eq(&ra.hits, &rb.hits, &ctx);
            let (ca, cb) = (ra.cost.unwrap(), rb.cost.unwrap());
            assert!(ca.same_work(&cb), "{ctx}: cost {ca:?} vs {cb:?}");
        }
        for radius in [20.0, 200.0] {
            let ra = a.query(Query::range(radius).trajectory(q).with_cost());
            let rb = b.query(Query::range(radius).trajectory(q).with_cost());
            let ctx = format!("{ctx}: q{qi} range r={radius}");
            assert_hits_eq(&ra.hits, &rb.hits, &ctx);
            let (ca, cb) = (ra.cost.unwrap(), rb.cost.unwrap());
            assert!(ca.same_work(&cb), "{ctx}: cost {ca:?} vs {cb:?}");
        }
        let clip = &a.clip_names()[0];
        let ra = a.query(Query::knn(3).trajectory(q).in_clip(clip).with_cost());
        let rb = b.query(Query::knn(3).trajectory(q).in_clip(clip).with_cost());
        assert_hits_eq(&ra.hits, &rb.hits, &format!("{ctx}: q{qi} in_clip"));
    }
}

/// Every root's Background Graph agrees bit for bit: node attributes and
/// edge attributes (`distance` and `orientation`). Nothing queries a BG
/// edge attribute today, so only this assertion sees a drifted one.
fn assert_bgs_identical(a: &VideoDatabase, b: &VideoDatabase, ctx: &str) {
    let bits = |db: &VideoDatabase| -> Vec<Vec<u64>> {
        db.with_index(|idx| {
            idx.roots()
                .iter()
                .map(|r| {
                    let rag = &r.bg.rag;
                    let mut out = vec![r.bg.frames_covered as u64];
                    for n in rag.node_attrs() {
                        out.push(n.size as u64);
                        let (c, p) = (n.color, n.centroid);
                        out.extend([c.r, c.g, c.b, p.x, p.y].map(f64::to_bits));
                    }
                    for (u, v, e) in rag.edges() {
                        out.extend([u.0 as u64, v.0 as u64]);
                        out.extend([e.distance.to_bits(), e.orientation.to_bits()]);
                    }
                    out
                })
                .collect()
        })
    };
    let (x, y) = (bits(a), bits(b));
    assert_eq!(x.len(), y.len(), "{ctx}: root count");
    for (i, (rx, ry)) in x.iter().zip(&y).enumerate() {
        assert_eq!(rx, ry, "{ctx}: root {i} Background Graph attributes");
    }
}

/// Fast load ≡ the database it was saved from ≡ a rebuild from the same
/// clips, in every observable — and the loaded database re-saves the exact
/// original bytes.
#[test]
fn v2_fast_load_matches_rebuild_single_tree() {
    let built = VideoDatabase::new(DbOptions::new());
    ingest_all(&built);
    let path = temp_path("single");
    built.save(&path).expect("save");
    let original = std::fs::read(&path).unwrap();

    let fast = VideoDatabase::load(&path, DbOptions::new()).unwrap();
    assert_eq!(fast.persist_info().reopen, ReopenMode::Fast);
    assert_eq!(fast.persist_info().format(), FORMAT_VERSION);
    let rebuilt = VideoDatabase::new(DbOptions::new());
    ingest_all(&rebuilt);

    assert_dbs_equivalent(&fast, &built, "fast vs built");
    assert_dbs_equivalent(&fast, &rebuilt, "fast vs rebuild");
    assert_bgs_identical(&fast, &built, "fast vs built");

    let out = temp_path("single_resave");
    fast.save(&out).unwrap();
    let resaved = std::fs::read(&out).unwrap();
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(&path);
    assert_eq!(original, resaved, "re-saved bytes differ");
}

/// The same contract on a sharded database: fast load ≡ the built
/// database ≡ a rebuild from the same clips, and the re-saved directory
/// (its one file) is byte-identical.
#[test]
fn v2_fast_load_matches_rebuild_sharded() {
    let built = ShardedDatabase::new(DbOptions::new().shards(3));
    ingest_all(&built);
    let dir = temp_path("sharded");
    built.save(&dir).expect("save sharded");
    let read_dir = |d: &PathBuf| -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(d)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort_by(|a, b| a.0.cmp(&b.0));
        files
    };
    let original = read_dir(&dir);
    assert_eq!(original.len(), 1, "one file at any shard count");

    let fast = ShardedDatabase::load(&dir, DbOptions::new()).unwrap();
    assert_eq!(fast.persist_info().reopen, ReopenMode::Fast);
    assert_eq!(fast.persist_info().format(), FORMAT_VERSION);
    let rebuilt = ShardedDatabase::new(DbOptions::new().shards(3));
    ingest_all(&rebuilt);

    assert_dbs_equivalent(&fast, &built, "sharded fast vs built");
    assert_dbs_equivalent(&fast, &rebuilt, "sharded fast vs rebuild");

    let out = temp_path("sharded_resave");
    fast.save(&out).unwrap();
    let resaved = read_dir(&out);
    let _ = std::fs::remove_dir_all(&out);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(original.len(), resaved.len(), "re-saved file set differs");
    for ((an, ab), (bn, bb)) in original.iter().zip(&resaved) {
        assert_eq!(an, bn, "file name");
        assert_eq!(ab, bb, "{an} bytes differ");
    }
}

/// Clip removal leaves non-contiguous OG id blocks in memory and moves the
/// later roots up one position; `save → load → save` must still be a byte
/// identity and the fast loader equivalent to the database it was saved
/// from — also when clips are ingested after a removal in the middle.
#[test]
fn removal_then_save_stays_canonical() {
    let built = VideoDatabase::new(DbOptions::new());
    ingest_all(&built);
    built.ingest_clip(&demo_clip(23), 23);
    assert!(built.remove_clip("clip-9").is_some());
    for stage in ["removal", "ingest after removal"] {
        if stage == "ingest after removal" {
            built.ingest_clip(&demo_clip(31), 31);
            assert!(built.remove_clip("clip-14").is_some());
            built.ingest_clip(&demo_clip(36), 36);
        }
        let path = temp_path("removal");
        built.save(&path).unwrap();
        let original = std::fs::read(&path).unwrap();

        let fast = VideoDatabase::load(&path, DbOptions::new()).unwrap();
        assert_dbs_equivalent(&fast, &built, &format!("{stage}: fast vs built"));
        assert_bgs_identical(&fast, &built, &format!("{stage}: fast vs built"));
        for name in built.clip_names() {
            let q = trajectories(&built).remove(1);
            let query = || Query::knn(5).trajectory(&q).in_clip(name.clone());
            assert_hits_eq(
                &fast.query(query()).hits,
                &built.query(query()).hits,
                &format!("{stage}: in_clip {name}"),
            );
        }

        let out = temp_path("removal_resave");
        fast.save(&out).unwrap();
        let resaved = std::fs::read(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&path);
        assert_eq!(original, resaved, "{stage}: re-saved bytes differ");
    }
}

/// A root's position is its only number: after a middle removal and
/// another ingest, the built database and its save → load copy return the
/// same raw tree hits — `root_id` and `cluster_id` included — over
/// `Scope::All` and over every `Scope::Root(p)`.
#[test]
fn removal_then_ingest_keeps_root_positions_across_save_load() {
    let built = VideoDatabase::new(DbOptions::new());
    ingest_all(&built);
    assert!(built.remove_clip("clip-9").is_some());
    built.ingest_clip(&demo_clip(23), 23);
    let path = temp_path("positions");
    built.save(&path).unwrap();
    let loaded = VideoDatabase::load(&path, DbOptions::new()).unwrap();
    let _ = std::fs::remove_file(&path);

    let roots = built.with_index(|i| i.roots().len()) as u32;
    assert_eq!(roots, 3);
    let scopes: Vec<Scope> = std::iter::once(Scope::All)
        .chain((0..roots).map(Scope::Root))
        .collect();
    for (qi, q) in trajectories(&built).iter().enumerate() {
        for kind in [QueryKind::Knn(5), QueryKind::Range(200.0)] {
            for &scope in &scopes {
                let ctx = format!("q{qi} {kind:?} {scope:?}");
                let (a, _) = built.with_index(|i| i.search(q, kind, scope));
                let (b, _) = loaded.with_index(|i| i.search(q, kind, scope));
                if let QueryKind::Knn(_) = kind {
                    assert!(!a.is_empty(), "{ctx}: no hits");
                }
                assert_eq!(a, b, "{ctx}: raw hits");
            }
        }
    }
}

/// `open()` on a file and on a shard directory reports the fast reopen
/// through the object-safe [`Database`] surface.
#[test]
fn open_reports_persist_info() {
    let built = VideoDatabase::new(DbOptions::new());
    built.ingest_clip(&demo_clip(31), 31);
    let path = temp_path("open_file");
    built.save(&path).unwrap();
    let db = open(&path, DbOptions::new()).unwrap();
    let info = db.persist_info();
    let _ = std::fs::remove_file(&path);
    assert_eq!(info.reopen, ReopenMode::Fast);
    assert_eq!(info.format(), FORMAT_VERSION);

    // A fresh database is Fresh and speaks the current format.
    let fresh = VideoDatabase::new(DbOptions::new());
    assert_eq!(fresh.persist_info().reopen, ReopenMode::Fresh);
    assert_eq!(fresh.persist_info().format(), FORMAT_VERSION);
}

/// Equation (9)'s `strg_bytes` counts only the clips a database holds: after
/// a removal it equals that of a database that ingested only the
/// survivors, at 1 and 3 shards, and again after save → load.
#[test]
fn removal_subtracts_the_clips_strg_bytes() {
    for shards in [1, 3] {
        let opts = DbOptions::new().shards(shards);
        let both = VideoDatabase::new(opts);
        let survivor = VideoDatabase::new(opts);
        both.ingest_clip(&demo_clip(5), 5);
        both.ingest_clip(&demo_clip(9), 9);
        survivor.ingest_clip(&demo_clip(9), 9);
        let ctx = format!("{shards} shards");
        assert!(
            both.stats().strg_bytes > survivor.stats().strg_bytes,
            "{ctx}"
        );
        both.remove_clip("clip-5").expect("known clip");
        let want = survivor.stats().strg_bytes;
        assert_eq!(both.stats().strg_bytes, want, "{ctx}: after removal");
        let path = temp_path(&format!("strg_bytes_{shards}"));
        both.save(&path).unwrap();
        let loaded = VideoDatabase::load(&path, DbOptions::new()).unwrap();
        let _ = std::fs::remove_dir_all(&path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.stats().strg_bytes, want, "{ctx}: after save → load");
        for (i, (a, b)) in loaded
            .shard_stats()
            .iter()
            .zip(survivor.shard_stats())
            .enumerate()
        {
            assert_eq!(a.strg_bytes, b.strg_bytes, "{ctx}: shard {i}");
        }
    }
}
