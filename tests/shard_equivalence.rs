//! Shard equivalence suite: sharding is a *physical* layout choice only.
//!
//! A [`ShardedDatabase`] must be indistinguishable from the single-tree
//! [`VideoDatabase`] in every observable except wall-clock: `shards(1)`
//! reproduces the plain database bit-for-bit (hits **and** costs), raising
//! the shard count never changes a hit list, the logical cost counting is
//! identical at any `STRG_THREADS` setting, and the shard-envelope filter
//! (DESIGN.md §12) never changes a result — sharded hits are pinned to a
//! linear scan (`tests/oracle`) on queries that provably prune whole
//! shards, so an inadmissible aggregate envelope shows up here as a hit
//! diff against ground truth.
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
/// [`ShardedDatabase`] routes clips.
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

/// The synthetic trajectory workload of the pruning tests.
fn synth_items() -> Corpus {
    generate_total(48, &SynthConfig::with_noise(0.10), 17)
        .series()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (i as u64, s))
        .collect()
}

/// The stored series with the globally extreme summary: querying it at
/// `k = 1` drives the shared cutoff to ~0 after the owning shard, so every
/// shard with a positive envelope bound is pruned.
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

/// `shards(1)` is byte-identical to the plain single-tree database: same
/// hits, same logical costs, for k-NN, range and clip-scoped queries.
#[test]
fn one_shard_matches_plain_database() {
    let plain = VideoDatabase::new(DbOptions::new());
    let sharded = ShardedDatabase::new(DbOptions::new().shards(1));
    ingest_all(&plain);
    ingest_all(&sharded);
    assert_eq!(sharded.shard_count(), 1);

    for q in trajectories(&plain) {
        for k in [1, 5] {
            let (ha, ca) = run(&plain, Query::knn(k).trajectory(&q));
            let (hb, cb) = run(&sharded, Query::knn(k).trajectory(&q));
            assert_hits_eq(&ha, &hb, &format!("knn k={k}"));
            assert!(ca.same_work(&cb), "knn k={k}: {ca:?} vs {cb:?}");
        }
        for radius in [20.0, 200.0] {
            let (ha, ca) = run(&plain, Query::range(radius).trajectory(&q));
            let (hb, cb) = run(&sharded, Query::range(radius).trajectory(&q));
            assert_hits_eq(&ha, &hb, &format!("range r={radius}"));
            assert!(ca.same_work(&cb), "range r={radius}: {ca:?} vs {cb:?}");
        }
        let (ha, ca) = run(&plain, Query::knn(3).trajectory(&q).in_clip("demo3"));
        let (hb, cb) = run(&sharded, Query::knn(3).trajectory(&q).in_clip("demo3"));
        assert_hits_eq(&ha, &hb, "clip-scoped knn");
        assert!(ca.same_work(&cb), "clip-scoped knn: {ca:?} vs {cb:?}");
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

/// The fan-out's logical cost counting is bit-identical at any thread
/// count: the speculative parallel path replays the sequential decision
/// sequence over prefetched results and never charges speculation.
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

/// The shard envelope filter is a physical optimization only: at 1, 2 and
/// 4 shards, sequentially and in parallel, the fan-out returns exactly the
/// linear scan's answer — on the raw shard trees with queries that
/// provably prune whole shards, and through the [`ShardedDatabase`] facade
/// on real clips. An inadmissible envelope bound fails here.
#[test]
fn envelope_filter_matches_linear_scan() {
    let items = synth_items();
    let mut queries = vec![extreme_series(&items).1.clone(), items[0].1.clone()];
    queries.extend(trajectories_far_and_line());
    for shards in [1, 2, 4] {
        let trees = shard_indexes(&items, shards);
        let mut shards_pruned = 0;
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
                shards_pruned += cost.shards_pruned;
            }
        }
        assert!(
            shards == 1 || shards_pruned > 0,
            "{shards} shards: no query pruned a whole shard — the check is vacuous"
        );
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

/// On a self-query workload the bound-ordered fan-out actually skips whole
/// shards — sequentially without searching them — and the hits still match
/// the linear scan exactly.
#[test]
fn fan_out_prunes_whole_shards_on_self_queries() {
    let items = synth_items();
    let trees = shard_indexes(&items, 4);
    let extreme = extreme_series(&items);
    let (hits, cost) = fan_out(&trees, &extreme.1, QueryKind::Knn(1), 1);
    assert!(
        cost.shards_pruned >= 1,
        "self-query should prune at least one whole shard: {cost:?}"
    );
    // A skipped shard charges all its records to `pruned` and nothing else:
    // conservation holds database-wide with zero work inside it.
    let clusters: usize = trees.iter().map(|t| t.cluster_count()).sum();
    assert_eq!(
        cost.distance_calls + cost.pruned + cost.lb_pruned,
        (items.len() + clusters) as u64
    );
    assert_matches(&scan(&items, &extreme.1), &hits, QueryKind::Knn(1), "self");
    assert_eq!(hits[0], (extreme.0, 0.0), "self-query returns itself first");
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

/// Directory save/load round-trip: the manifest's shard count wins over
/// `DbOptions::shards`, stats survive, and queries return identical hits.
#[test]
fn sharded_save_load_roundtrip() {
    let dir = std::env::temp_dir().join(format!("strg_shard_rt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let db = ShardedDatabase::new(DbOptions::new().shards(3));
    ingest_all(&db);
    db.save(&dir).expect("save sharded db");

    let loaded = ShardedDatabase::load(&dir, DbOptions::new().shards(5)).expect("load sharded db");
    assert_eq!(loaded.shard_count(), 3, "manifest shard count wins");
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
/// the default configuration.
#[test]
fn one_shard_persists_plain_bytes() {
    let base = std::env::temp_dir().join(format!("strg_shard_bytes_{}", std::process::id()));
    let plain_path = base.with_extension("plain.strgdb");
    let one_path = base.with_extension("one.strgdb");
    let _ = std::fs::remove_file(&plain_path);
    let _ = std::fs::remove_file(&one_path);

    let plain = VideoDatabase::new(DbOptions::new());
    ingest_all(&plain);
    plain.save(&plain_path).expect("save plain");

    let one = open(&one_path, DbOptions::new().shards(1)).expect("open shards(1)");
    assert_eq!(one.shard_count(), 1);
    ingest_all(one.as_ref());
    one.save(&one_path).expect("save shards(1)");

    let a = std::fs::read(&plain_path).expect("read plain bytes");
    let b = std::fs::read(&one_path).expect("read shards(1) bytes");
    assert_eq!(a, b, "shards(1) persisted bytes diverge from single-tree");

    let _ = std::fs::remove_file(&plain_path);
    let _ = std::fs::remove_file(&one_path);
}
