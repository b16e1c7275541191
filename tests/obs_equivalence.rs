//! Observability equivalence suite.
//!
//! Two invariants keep the cost accounting honest:
//!
//! 1. **Exactness** — on a sequential index, `QueryCost::distance_calls`
//!    equals what a wrapping [`CountingDistance`] physically observes: the
//!    recorder is bookkeeping, not estimation.
//! 2. **Thread invariance** — the work fields of every query cost, and the
//!    database's deterministic metrics snapshot, are bit-identical whatever
//!    the thread count. Inside a tree nothing speculates, so the charge is
//!    the physical count at any worker count; the parallel shard fan-out
//!    may *search* shards the replay then skips, but it *charges* only the
//!    logical decisions the sequential walk would make (see DESIGN.md §8).
//!
//! `scripts/ci.sh` runs this binary under `STRG_THREADS=1` and
//! `STRG_THREADS=8`; the `default_config_…` test below picks the pin up
//! via `Threads::Auto`.

use strg::prelude::*;

fn dataset() -> Vec<(u64, Vec<f64>)> {
    let mut out = Vec::new();
    let mut id = 0;
    for g in 0..4 {
        let base = 90.0 * g as f64;
        for i in 0..12 {
            out.push((id, vec![base + 0.5 * i as f64, base + 1.0, base + 2.0]));
            id += 1;
        }
    }
    out
}

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

fn queries() -> Vec<Vec<Point2>> {
    vec![
        (0..25).map(|i| Point2::new(3.0 * i as f64, 70.0)).collect(),
        (0..25)
            .map(|i| Point2::new(100.0 - 3.0 * i as f64, 80.0))
            .collect(),
        vec![Point2::new(40.0, 75.0); 10],
    ]
}

/// Invariant 1: the recorder's distance-call count is exactly the number
/// of `distance()` invocations a counting wrapper sees — for k-NN and
/// range, across selectivities.
#[test]
fn cost_matches_counting_distance_exactly() {
    let cd = CountingDistance::new(EgedMetric::<f64>::new());
    let mut idx = StrgIndex::new(
        cd.clone(),
        StrgIndexConfig::with_k(4).with_threads(Threads::Fixed(1)),
    );
    idx.add_segment(Default::default(), dataset());

    for (qi, q) in [
        vec![91.0, 92.0, 93.0],
        vec![0.0, 0.0, 0.0],
        vec![500.0, 1.0, 2.0],
    ]
    .iter()
    .enumerate()
    {
        for k in [1, 5, 48] {
            cd.reset();
            let (hits, cost) = idx.knn_with_cost(q, k);
            assert_eq!(
                cost.distance_calls,
                cd.count(),
                "query {qi} k {k}: recorder vs CountingDistance"
            );
            assert!(hits.len() <= k);
        }
        for radius in [0.0, 15.0, 1e6] {
            cd.reset();
            let (_, cost) = idx.range_with_cost(q, radius);
            assert_eq!(
                cost.distance_calls,
                cd.count(),
                "query {qi} radius {radius}: recorder vs CountingDistance"
            );
        }
    }
}

/// Invariant 1, conservation form: every stored OG is either evaluated,
/// key-band/best-first pruned, or lower-bound pruned — the three counters
/// partition the database (plus one evaluation per cluster centroid), and
/// early abandonment only ever shortens charged evaluations.
#[test]
fn cost_partitions_the_database() {
    let data = dataset();
    let n = data.len() as u64;
    let mut idx = StrgIndex::new(
        EgedMetric::<f64>::new(),
        StrgIndexConfig::with_k(4).with_threads(Threads::Fixed(1)),
    );
    idx.add_segment(Default::default(), data);
    let clusters = idx.cluster_count() as u64;
    for k in [1, 5, 48] {
        let (_, cost) = idx.knn_with_cost(&[91.0, 92.0, 93.0], k);
        assert_eq!(
            cost.distance_calls + cost.pruned + cost.lb_pruned,
            n + clusters,
            "k {k}: every record accounted exactly once"
        );
        assert!(
            cost.early_abandoned <= cost.distance_calls,
            "k {k}: abandoned calls are still calls"
        );
    }
}

/// Invariant 2 at the index level: work fields agree bit-for-bit between
/// a sequential and a parallel index over the same data.
#[test]
fn index_costs_identical_across_thread_counts() {
    let mut seq = StrgIndex::new(
        EgedMetric::<f64>::new(),
        StrgIndexConfig::with_k(4).with_threads(Threads::Fixed(1)),
    );
    seq.add_segment(Default::default(), dataset());
    for threads in [2, 8] {
        let mut par = StrgIndex::new(
            EgedMetric::<f64>::new(),
            StrgIndexConfig::with_k(4).with_threads(Threads::Fixed(threads)),
        );
        par.add_segment(Default::default(), dataset());
        for q in [
            vec![91.0, 92.0, 93.0],
            vec![0.0, 0.0, 0.0],
            vec![181.0, 182.0, 183.0],
        ] {
            for k in [1, 5, 48] {
                let (_, a) = seq.knn_with_cost(&q, k);
                let (_, b) = par.knn_with_cost(&q, k);
                assert!(
                    a.same_work(&b),
                    "knn k {k} threads {threads}: {a:?} vs {b:?}"
                );
            }
            for radius in [0.0, 15.0, 1e6] {
                let (_, a) = seq.range_with_cost(&q, radius);
                let (_, b) = par.range_with_cost(&q, radius);
                assert!(
                    a.same_work(&b),
                    "range r {radius} threads {threads}: {a:?} vs {b:?}"
                );
            }
        }
    }
}

/// Invariant 2 at the database level: after identical ingests and queries,
/// the deterministic snapshot (volatile counters and all timing histograms
/// stripped) renders to byte-identical JSON at every thread count.
#[test]
fn deterministic_snapshot_identical_across_thread_counts() {
    let run = |threads: Threads| {
        let db = VideoDatabase::new(DbOptions::new().threads(threads));
        for seed in [3, 7] {
            db.ingest_clip(&clip(seed), seed);
        }
        for q in queries() {
            db.query(Query::knn(3).trajectory(&q));
            db.query(Query::range(50.0).trajectory(&q));
        }
        db.metrics_snapshot().deterministic_json()
    };
    let base = run(Threads::Fixed(1));
    for t in [2, 8] {
        let other = run(Threads::Fixed(t));
        assert_eq!(
            base, other,
            "deterministic snapshot diverged at {t} threads"
        );
    }
}

/// The test `scripts/ci.sh` pins: `Threads::Auto` (the default config)
/// must agree with the pinned sequential database whatever `STRG_THREADS`
/// says — in hits, in per-query work, and in the deterministic snapshot.
#[test]
fn default_config_costs_match_pinned_sequential() {
    let auto_db = VideoDatabase::new(DbOptions::new());
    let seq_db = VideoDatabase::new(DbOptions::new().threads(Threads::Fixed(1)));
    for seed in [3, 7] {
        auto_db.ingest_clip(&clip(seed), seed);
        seq_db.ingest_clip(&clip(seed), seed);
    }
    for (qi, q) in queries().iter().enumerate() {
        let a = auto_db.query(Query::knn(5).trajectory(q).with_cost());
        let b = seq_db.query(Query::knn(5).trajectory(q).with_cost());
        assert_eq!(a.hits.len(), b.hits.len(), "query {qi}");
        for (x, y) in a.hits.iter().zip(&b.hits) {
            assert_eq!(x.og_id, y.og_id, "query {qi}");
            assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "query {qi}");
        }
        assert!(
            a.cost.unwrap().same_work(&b.cost.unwrap()),
            "query {qi}: auto vs sequential cost"
        );
    }
    assert_eq!(
        auto_db.metrics_snapshot().deterministic_json(),
        seq_db.metrics_snapshot().deterministic_json(),
        "auto vs sequential deterministic snapshot"
    );
}
