//! Shard equivalence suite: sharding is a *physical* layout choice only.
//!
//! A [`VideoDatabase`] with N shards must be indistinguishable from one
//! with a single shard in every observable except wall-clock: a one-shard
//! database answers exactly what its tree answers (hits **and** costs),
//! raising the shard count never changes a hit list, background matching
//! picks the same root at every shard count, the cost counting is
//! identical at any `STRG_THREADS` setting, and the fan-out (DESIGN.md
//! §12) returns the linear scan's answer (`tests/oracle`) at a cost that is
//! exactly the sum of its shards' own searches.
//!
//! `scripts/ci.sh` runs this binary under `STRG_THREADS=1` and
//! `STRG_THREADS=8`, so the equivalence is also pinned with the centroid
//! pass and the shard fan-out forked.

mod oracle;

use oracle::{assert_matches, scan, Corpus};
use strg::core::shard::{route, sharded_query};
use strg::prelude::*;

type Idx = StrgIndex<Point2, EgedMetric<Point2>>;

/// Hash-routes `items` across `shards` raw index trees, exactly as
/// [`VideoDatabase`] routes clips.
fn shard_indexes(items: &[(u64, Vec<Point2>)], shards: usize) -> Vec<Idx> {
    let mut chunks: Vec<Corpus> = vec![Vec::new(); shards];
    for (id, series) in items {
        chunks[route(&format!("series-{id}"), shards)].push((*id, series.clone()));
    }
    chunks
        .into_iter()
        .map(|chunk| {
            let mut cfg = StrgIndexConfig::with_k(8.min(chunk.len().max(1)));
            cfg.seed = 17;
            cfg.em_max_iters = 10;
            cfg.em_n_init = 1;
            let mut idx = StrgIndex::new(EgedMetric::<Point2>::new(), cfg);
            if !chunk.is_empty() {
                idx.add_segment(BackgroundGraph::default(), chunk);
            }
            idx
        })
        .collect()
}

/// One fan-out over raw shard trees: `(og_id, distance)` hits + cost.
fn fan_out(
    shards: &[Idx],
    q: &[Point2],
    probe: QueryKind,
    threads: usize,
) -> (Vec<(u64, f64)>, QueryCost) {
    let idxs: Vec<&Idx> = shards.iter().collect();
    let threads = Threads::Fixed(threads);
    let (hits, cost, _) = sharded_query(&idxs, q, probe, threads);
    let hits = hits.iter().map(|(_, h)| (h.og_id, h.dist)).collect();
    (hits, cost)
}

/// The synthetic trajectory workload of the fan-out tests.
fn synth_items() -> Corpus {
    generate_total(48, &SynthConfig::with_noise(0.10), 17)
        .series()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (i as u64, s))
        .collect()
}

/// The stored series with the largest gap mass: its `k = 1` answer is
/// itself at distance 0, in one shard, and every other shard's summaries
/// lie far from it.
fn extreme_series(items: &[(u64, Vec<Point2>)]) -> &(u64, Vec<Point2>) {
    let dist = EgedMetric::<Point2>::new();
    items
        .iter()
        .max_by(|a, b| {
            dist.summarize(&a.1)
                .gap_mass
                .total_cmp(&dist.summarize(&b.1).gap_mass)
        })
        .expect("non-empty workload")
}

fn demo_clip(seed: u64) -> VideoClip {
    VideoClip {
        name: format!("demo{seed}"),
        scene: lab_scene(&ScenarioConfig {
            n_actors: 2,
            frames: 36,
            seed,
            ..Default::default()
        }),
        fps: 30.0,
    }
}

const CLIP_SEEDS: [u64; 4] = [3, 7, 11, 19];

fn ingest_all(db: &dyn Database) {
    for seed in CLIP_SEEDS {
        db.ingest_clip(&demo_clip(seed), seed);
    }
}

/// A synthetic line and a far-away outlier.
fn trajectories_far_and_line() -> Vec<Vec<Point2>> {
    let line: Vec<Point2> = (0..25).map(|i| Point2::new(3.0 * i as f64, 70.0)).collect();
    let far: Vec<Point2> = (0..10)
        .map(|i| Point2::new(900.0 + i as f64, 900.0))
        .collect();
    vec![line, far]
}

/// Query trajectories: a stored series (self-query), a synthetic line, and
/// a far-away outlier.
fn trajectories(db: &dyn Database) -> Vec<Vec<Point2>> {
    let mut out = vec![db.og(0).expect("og 0 stored").centroid_series()];
    out.extend(trajectories_far_and_line());
    out
}

fn run(db: &dyn Database, q: Query) -> (Vec<QueryHit>, QueryCost) {
    let r = db.query(q.with_cost());
    let cost = r.cost.expect("with_cost() requested it");
    (r.hits, cost)
}

fn assert_hits_eq(a: &[QueryHit], b: &[QueryHit], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: hit count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.clip, y.clip, "{ctx}: hit clip");
        assert_eq!(x.og_id, y.og_id, "{ctx}: hit id");
        assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "{ctx}: hit distance");
    }
}

/// `(og_id, distance)` pairs of resolved hits.
fn pairs(hits: &[QueryHit]) -> Vec<(u64, f64)> {
    hits.iter().map(|h| (h.og_id, h.dist)).collect()
}

/// `(og_id, distance)` pairs of a tree's raw hits.
fn tree_pairs(hits: &[Hit]) -> Vec<(u64, f64)> {
    hits.iter().map(|h| (h.og_id, h.dist)).collect()
}

/// A one-shard database is its tree: `db.query` returns exactly what
/// `with_index(|i| i.search(..))` returns — hits and logical cost — over
/// `Scope::All` and over a clip's `Scope::Root`, for k-NN and range, and
/// both equal the linear scan over the objects in scope.
#[test]
fn one_shard_matches_plain_database() {
    let db = VideoDatabase::new(DbOptions::new());
    ingest_all(&db);
    assert_eq!(db.shard_count(), 1);
    let stored: Corpus = (0..db.stats().objects as u64)
        .map(|id| (id, db.og(id).expect("dense og ids").centroid_series()))
        .collect();
    // `demo3` is the first clip: root 0, holding these objects.
    let root = 0;
    let in_clip: Vec<u64> = db.with_index(|i| {
        i.roots()[0]
            .clusters
            .iter()
            .flat_map(|c| c.leaf.records.iter().map(|rec| rec.og_id))
            .collect()
    });
    let clip_objects: Corpus = stored
        .iter()
        .filter(|(id, _)| in_clip.contains(id))
        .cloned()
        .collect();

    for q in trajectories(&db) {
        let probes = [1, 5]
            .map(|k| (QueryKind::Knn(k), Query::knn(k)))
            .into_iter()
            .chain([20.0, 200.0].map(|r| (QueryKind::Range(r), Query::range(r))));
        for (kind, query) in probes {
            for (scope, objects) in [(Scope::All, &stored), (Scope::Root(root), &clip_objects)] {
                let ctx = format!("{kind:?} {scope:?}");
                let query = query.clone().trajectory(&q);
                let query = match scope {
                    Scope::Root(_) => query.in_clip("demo3"),
                    _ => query,
                };
                let (hits, cost) = run(&db, query);
                let (want, want_cost) = db.with_index(|i| i.search(&q, kind, scope));
                assert_eq!(pairs(&hits), tree_pairs(&want), "{ctx}: hits");
                assert!(
                    cost.same_work(&want_cost),
                    "{ctx}: {cost:?} vs {want_cost:?}"
                );
                assert_matches(&scan(objects, &q), &pairs(&hits), kind, &ctx);
            }
        }
    }
}

/// Frames of a traffic scene no stored clip was rendered from: its
/// Background Graph matches the traffic roots.
fn traffic_query_frames() -> Vec<Frame> {
    VideoClip {
        name: "traffic-query".into(),
        scene: traffic_scene(&ScenarioConfig {
            n_actors: 1,
            frames: 40,
            seed: 77,
            ..Default::default()
        }),
        fps: 30.0,
    }
    .render_all(5)
}

fn scene_clip(name: &str, traffic: bool, seed: u64) -> VideoClip {
    let cfg = ScenarioConfig {
        n_actors: 2,
        frames: 60,
        seed,
        ..Default::default()
    };
    VideoClip {
        name: name.into(),
        scene: if traffic {
            traffic_scene(&cfg)
        } else {
            lab_scene(&cfg)
        },
        fps: 30.0,
    }
}

/// Algorithm 3 at the database level, on a lab + traffic corpus: a
/// background-matched query charges one node access per root and then
/// searches the best-matching root (the last maximum in ingest order) when
/// its similarity reaches 0.5, or every root when it does not. On one
/// shard that is exactly the tree's scoped search; at 3 shards the hits
/// are bit-identical, k-NN and range alike.
#[test]
fn background_matching_is_the_scoped_tree_search() {
    let corpus = [
        scene_clip("lab", false, 41),
        scene_clip("traffic", true, 42),
        scene_clip("lab-2", false, 43),
        scene_clip("traffic-2", true, 44),
    ];
    let one = VideoDatabase::new(DbOptions::new());
    let three = VideoDatabase::new(DbOptions::new().shards(3));
    for db in [&one, &three] {
        for clip in &corpus {
            db.ingest_clip(clip, 1);
        }
    }
    let opts = *one.options();
    let matching = traffic_query_frames();
    // One flat colour no scene paints: nothing in it resembles a root.
    let (w, h) = (matching[0].width(), matching[0].height());
    let blank: Vec<Frame> = (0..4)
        .map(|_| {
            Frame::new(
                w,
                h,
                Pixel {
                    r: 255,
                    g: 0,
                    b: 255,
                },
            )
        })
        .collect();
    let q: Vec<Point2> = (0..30).map(|i| Point2::new(6.0 * i as f64, 50.0)).collect();

    for (name, frames, matched) in [("matched", &matching, true), ("fallback", &blank, false)] {
        let bg = {
            let rags = frames_to_rags(frames, &opts.segment, opts.threads);
            let strg = strg::graph::build_strg(rags, &opts.tracker);
            decompose(&strg, &opts.decompose).background
        };
        let (roots, best, sim) = one.with_index(|i| {
            let mut best: Option<(u32, f64)> = None;
            for (p, r) in i.roots().iter().enumerate() {
                let sim = strg::graph::background_similarity(&bg, &r.bg, &opts.tracker.compat);
                if best.is_none_or(|(_, b)| sim >= b) {
                    best = Some((p as u32, sim));
                }
            }
            let (best, sim) = best.expect("four roots");
            (i.roots().len() as u64, best, sim)
        });
        assert_eq!(sim >= 0.5, matched, "{name}: best similarity {sim}");
        let scope = if matched {
            Scope::Root(best)
        } else {
            Scope::All
        };
        // A radius that takes in the k-NN's answer.
        let radius = run(&one, Query::knn(3).trajectory(&q).with_background(frames))
            .0
            .last()
            .expect("k-NN hits")
            .dist;
        for (kind, query) in [
            (QueryKind::Knn(3), Query::knn(3)),
            (QueryKind::Range(radius), Query::range(radius)),
        ] {
            let ctx = format!("{name} {kind:?}");
            let query = query.trajectory(&q).with_background(frames);
            let (hits, cost) = run(&one, query.clone());
            assert!(!hits.is_empty(), "{ctx}: no hits");
            let (want, inner) = one.with_index(|i| i.search(&q, kind, scope));
            let mut want_cost = QueryCost {
                node_accesses: roots,
                ..QueryCost::default()
            };
            want_cost.merge(&inner);
            assert_eq!(pairs(&hits), tree_pairs(&want), "{ctx}: hits");
            assert!(
                cost.same_work(&want_cost),
                "{ctx}: {cost:?} vs {want_cost:?}"
            );
            if matched {
                assert!(
                    hits.iter().all(|h| h.clip.starts_with("traffic")),
                    "{ctx}: routed off the traffic roots: {hits:?}"
                );
            }
            let (hits3, _) = run(&three, query);
            assert_hits_eq(&hits, &hits3, &format!("{ctx}: 1 vs 3 shards"));
        }
    }
}

/// A lab clip and a traffic clip may share a name (the library does not
/// refuse one). Background matching walks the global ingest order with
/// one cursor per shard, so it reaches the second clip's root too: a
/// traffic query searches root 1, the traffic clip, at 1 and 3 shards,
/// charged one node access per root on top of that scoped search.
#[test]
fn background_matching_reaches_the_second_of_two_clips_sharing_a_name() {
    let one = VideoDatabase::new(DbOptions::new());
    let three = VideoDatabase::new(DbOptions::new().shards(3));
    for db in [&one, &three] {
        db.ingest_clip(&scene_clip("cam", false, 41), 1);
        db.ingest_clip(&scene_clip("cam", true, 42), 1);
    }
    let frames = traffic_query_frames();
    let q: Vec<Point2> = (0..30).map(|i| Point2::new(6.0 * i as f64, 50.0)).collect();
    let (want, _) = one.with_index(|i| i.search(&q, QueryKind::Knn(3), Scope::Root(1)));
    let radius = want.last().expect("the traffic clip holds objects").dist;
    for kind in [QueryKind::Knn(3), QueryKind::Range(radius)] {
        let (want, inner) = one.with_index(|i| i.search(&q, kind, Scope::Root(1)));
        let mut want_cost = QueryCost {
            node_accesses: 2,
            ..QueryCost::default()
        };
        want_cost.merge(&inner);
        let query = match kind {
            QueryKind::Knn(k) => Query::knn(k),
            QueryKind::Range(r) => Query::range(r),
        };
        for db in [&one, &three] {
            let ctx = format!("{} shards {kind:?}", db.shard_count());
            let (hits, cost) = run(db, query.clone().trajectory(&q).with_background(&frames));
            assert_eq!(pairs(&hits), tree_pairs(&want), "{ctx}: hits");
            assert!(
                cost.same_work(&want_cost),
                "{ctx}: {cost:?} vs {want_cost:?}"
            );
        }
    }
}

/// Raising the shard count redistributes records but never changes a hit
/// list: the global OG-id allocator keeps ids stable and the fan-out merge
/// reproduces the single-tree ranking.
#[test]
fn shard_count_never_changes_hits() {
    let one = ShardedDatabase::new(DbOptions::new().shards(1));
    let four = ShardedDatabase::new(DbOptions::new().shards(4));
    ingest_all(&one);
    ingest_all(&four);
    assert_eq!(four.shard_count(), 4);
    assert_eq!(one.stats().objects, four.stats().objects);

    for q in trajectories(&one) {
        for k in [1, 5] {
            let (ha, _) = run(&one, Query::knn(k).trajectory(&q));
            let (hb, _) = run(&four, Query::knn(k).trajectory(&q));
            assert_hits_eq(&ha, &hb, &format!("knn k={k}"));
        }
        for radius in [20.0, 200.0] {
            let (ha, _) = run(&one, Query::range(radius).trajectory(&q));
            let (hb, _) = run(&four, Query::range(radius).trajectory(&q));
            assert_hits_eq(&ha, &hb, &format!("range r={radius}"));
        }
        let (ha, _) = run(&one, Query::knn(3).trajectory(&q).in_clip("demo7"));
        let (hb, _) = run(&four, Query::knn(3).trajectory(&q).in_clip("demo7"));
        assert_hits_eq(&ha, &hb, "clip-scoped knn");
    }
}

/// The fan-out's cost counting is bit-identical at any thread count: the
/// parallel path runs the same per-shard searches as the sequential one.
#[test]
fn fan_out_costs_identical_across_thread_counts() {
    let seq = ShardedDatabase::new(DbOptions::new().shards(4).threads(Threads::Fixed(1)));
    let par = ShardedDatabase::new(DbOptions::new().shards(4).threads(Threads::Fixed(8)));
    ingest_all(&seq);
    ingest_all(&par);

    for q in trajectories(&seq) {
        for k in [1, 5] {
            let (ha, ca) = run(&seq, Query::knn(k).trajectory(&q));
            let (hb, cb) = run(&par, Query::knn(k).trajectory(&q));
            assert_hits_eq(&ha, &hb, &format!("knn k={k}"));
            assert!(ca.same_work(&cb), "knn k={k}: {ca:?} vs {cb:?}");
        }
        for radius in [20.0, 200.0] {
            let (ha, ca) = run(&seq, Query::range(radius).trajectory(&q));
            let (hb, cb) = run(&par, Query::range(radius).trajectory(&q));
            assert_hits_eq(&ha, &hb, &format!("range r={radius}"));
            assert!(ca.same_work(&cb), "range r={radius}: {ca:?} vs {cb:?}");
        }
    }
}

/// At 1–4 shards, sequentially and in parallel, the fan-out over the raw
/// shard trees returns exactly the linear scan's answer, and its cost is
/// exactly the sum of every shard's own [`StrgIndex::search`] over
/// [`Scope::All`]: each shard is searched, and nothing more is charged.
#[test]
fn fan_out_cost_is_the_sum_of_its_shards_searches() {
    let items = synth_items();
    let mut queries = vec![extreme_series(&items).1.clone(), items[0].1.clone()];
    queries.extend(trajectories_far_and_line());
    for shards in 1..=4 {
        let trees = shard_indexes(&items, shards);
        for q in &queries {
            let truth = scan(&items, q);
            let probes = [1, 5]
                .map(QueryKind::Knn)
                .into_iter()
                .chain([truth[4].1, 1e6].map(QueryKind::Range));
            for probe in probes {
                let mut want = QueryCost::default();
                for t in &trees {
                    want.merge(&t.search(q, probe, Scope::All).1);
                }
                for threads in [1, 8] {
                    let ctx = format!("{shards} shards, {threads} threads, {probe:?}");
                    let (hits, cost) = fan_out(&trees, q, probe, threads);
                    assert_matches(&truth, &hits, probe, &ctx);
                    assert!(cost.same_work(&want), "{ctx}: {cost:?} vs {want:?}");
                }
            }
        }
    }
}

/// At 1, 2 and 4 shards, sequentially and in parallel, the fan-out
/// returns exactly the linear scan's answer — on the raw shard trees and
/// through a 4-shard [`VideoDatabase`] on real clips.
#[test]
fn fan_out_matches_linear_scan() {
    let items = synth_items();
    let mut queries = vec![extreme_series(&items).1.clone(), items[0].1.clone()];
    queries.extend(trajectories_far_and_line());
    for shards in [1, 2, 4] {
        let trees = shard_indexes(&items, shards);
        for q in &queries {
            let truth = scan(&items, q);
            let probes = [1, 5]
                .map(QueryKind::Knn)
                .into_iter()
                .chain([truth[4].1, 1e6].map(QueryKind::Range));
            for probe in probes {
                let (seq, cost) = fan_out(&trees, q, probe, 1);
                assert_matches(&truth, &seq, probe, &format!("{shards} shards"));
                let (par, par_cost) = fan_out(&trees, q, probe, 8);
                assert_eq!(seq, par, "{shards} shards {probe:?}: parallel hits");
                assert!(cost.same_work(&par_cost), "{shards} shards {probe:?}");
            }
        }
    }

    let db = ShardedDatabase::new(DbOptions::new().shards(4));
    ingest_all(&db);
    let stored: Corpus = (0..db.stats().objects as u64)
        .map(|id| (id, db.og(id).expect("dense og ids").centroid_series()))
        .collect();
    for q in trajectories(&db) {
        let truth = scan(&stored, &q);
        let probes = [1, 5]
            .map(|k| (QueryKind::Knn(k), Query::knn(k)))
            .into_iter()
            .chain([truth[2].1, 200.0].map(|r| (QueryKind::Range(r), Query::range(r))));
        for (probe, query) in probes {
            let hits: Vec<(u64, f64)> = run(&db, query.trajectory(&q))
                .0
                .iter()
                .map(|h| (h.og_id, h.dist))
                .collect();
            assert_matches(&truth, &hits, probe, "facade, 4 shards");
        }
    }
}

/// A radius bit-equal to a stored object's distance keeps that object, on
/// a single tree and across 3 shards. One-object segments are where it
/// used to be dropped: a singleton leaf's key is ~1e-14 (a one-member
/// centroid is not bit-equal to its member) and `EGED_M(q, centroid)`
/// rounds an ulp or two above `EGED_M(q, member)`, so an unwidened key band
/// excluded the very record that defines the radius (DESIGN.md §9, "The
/// rounding slack").
#[test]
fn bit_equal_radius_keeps_the_boundary_object() {
    let items = synth_items();
    let segment_per_object = |chunk: &[(u64, Vec<Point2>)]| {
        let mut idx = StrgIndex::new(EgedMetric::<Point2>::new(), StrgIndexConfig::default());
        for object in chunk {
            idx.add_segment(BackgroundGraph::default(), vec![object.clone()]);
        }
        idx
    };
    let single = segment_per_object(&items);
    let mut chunks: Vec<Corpus> = vec![Vec::new(); 3];
    for object in &items {
        chunks[route(&format!("series-{}", object.0), 3)].push(object.clone());
    }
    let shards: Vec<Idx> = chunks.iter().map(|c| segment_per_object(c)).collect();
    for q in generate_total(24, &SynthConfig::with_noise(0.10), 23).series() {
        let truth = scan(&items, &q);
        for nth in [1, 5, 10, 30] {
            let probe = QueryKind::Range(truth[nth - 1].1);
            let hits: Vec<(u64, f64)> = single
                .search(&q, probe, Scope::All)
                .0
                .iter()
                .map(|h| (h.og_id, h.dist))
                .collect();
            assert_matches(&truth, &hits, probe, "single tree");
            for threads in [1, 8] {
                let (hits, _) = fan_out(&shards, &q, probe, threads);
                assert_matches(
                    &truth,
                    &hits,
                    probe,
                    &format!("3 shards, {threads} threads"),
                );
            }
        }
    }
}

/// The corners of `kernel_equivalence.rs`'s `oracle_corners_single_tree`
/// across 4 shards: `k = 0`, `k > n`, `radius = 0`, an all-empty database
/// and all-identical objects (every shard ties with every other).
#[test]
fn oracle_corners_four_shards() {
    for (name, objects) in oracle::corner_corpora() {
        let trees = shard_indexes(&objects, 4);
        for q in oracle::corner_queries() {
            let truth = scan(&objects, &q);
            for probe in oracle::corner_probes(&truth) {
                for threads in [1, 8] {
                    let (hits, _) = fan_out(&trees, &q, probe, threads);
                    assert_matches(&truth, &hits, probe, &format!("{name} threads {threads}"));
                }
            }
        }
    }
}

/// Directory save/load round-trip: the file's shard count wins over
/// `DbOptions::shards`, stats survive, and queries return identical hits.
#[test]
fn sharded_save_load_roundtrip() {
    let dir = std::env::temp_dir().join(format!("strg_shard_rt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let db = ShardedDatabase::new(DbOptions::new().shards(3));
    ingest_all(&db);
    db.save(&dir).expect("save sharded db");

    let loaded = ShardedDatabase::load(&dir, DbOptions::new().shards(5)).expect("load sharded db");
    assert_eq!(loaded.shard_count(), 3, "the file's shard count wins");
    assert_eq!(db.stats().clips, loaded.stats().clips);
    assert_eq!(db.stats().objects, loaded.stats().objects);

    for q in trajectories(&db) {
        let (ha, ca) = run(&db, Query::knn(5).trajectory(&q));
        let (hb, cb) = run(&loaded, Query::knn(5).trajectory(&q));
        assert_hits_eq(&ha, &hb, "knn after roundtrip");
        assert!(ca.same_work(&cb), "knn after roundtrip: {ca:?} vs {cb:?}");
    }

    // `open()` on the directory detects the sharded layout.
    let opened = open(&dir, DbOptions::new()).expect("open sharded dir");
    assert_eq!(opened.shard_count(), 3);

    let _ = std::fs::remove_dir_all(&dir);
}

/// `shards(1)` through the `open()` factory persists the plain single-file
/// format, byte-identical to `VideoDatabase::save` — no format fork for
/// the default configuration. Saved into an existing directory, the same
/// database is that directory's one file, byte for byte; it loads from
/// there and saves back into it unchanged.
#[test]
fn one_shard_persists_plain_bytes() {
    let base = std::env::temp_dir().join(format!("strg_shard_bytes_{}", std::process::id()));
    let plain_path = base.with_extension("plain.strgdb");
    let one_path = base.with_extension("one.strgdb");
    let dir = base.with_extension("dir");
    let _ = std::fs::remove_file(&plain_path);
    let _ = std::fs::remove_file(&one_path);
    let _ = std::fs::remove_dir_all(&dir);

    let plain = VideoDatabase::new(DbOptions::new());
    ingest_all(&plain);
    plain.save(&plain_path).expect("save plain");

    let one = open(&one_path, DbOptions::new().shards(1)).expect("open shards(1)");
    assert_eq!(one.shard_count(), 1);
    ingest_all(&one);
    one.save(&one_path).expect("save shards(1)");

    let a = std::fs::read(&plain_path).expect("read plain bytes");
    let b = std::fs::read(&one_path).expect("read shards(1) bytes");
    assert_eq!(a, b, "shards(1) persisted bytes diverge from single-tree");

    // The same database saved into a directory: one file, the same bytes.
    let dir_bytes = |dir: &std::path::Path| -> Vec<Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| std::fs::read(e.unwrap().path()).unwrap())
            .collect()
    };
    std::fs::create_dir_all(&dir).unwrap();
    plain.save(&dir).expect("save into a directory");
    assert_eq!(
        dir_bytes(&dir),
        std::slice::from_ref(&a),
        "the directory's one file"
    );
    let loaded = VideoDatabase::load(&dir, DbOptions::new()).expect("load a one-shard directory");
    assert_eq!(loaded.shard_count(), 1);
    assert_eq!(loaded.clip_names(), plain.clip_names());
    for q in trajectories(&plain) {
        let (ha, ca) = run(&plain, Query::knn(5).trajectory(&q));
        let (hb, cb) = run(&loaded, Query::knn(5).trajectory(&q));
        assert_hits_eq(&ha, &hb, "one-shard directory knn");
        assert!(ca.same_work(&cb), "one-shard directory: {ca:?} vs {cb:?}");
    }
    loaded.save(&dir).expect("save back into the directory");
    assert_eq!(dir_bytes(&dir), [a], "the directory keeps its one file");

    let _ = std::fs::remove_file(&plain_path);
    let _ = std::fs::remove_file(&one_path);
    let _ = std::fs::remove_dir_all(&dir);
}
