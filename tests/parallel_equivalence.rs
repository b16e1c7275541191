//! Sequential-equivalence suite for the parallel execution layer.
//!
//! Every parallel path in the pipeline (frame → RAG extraction, the EM
//! distance matrix / E-step, leaf keying, and k-NN candidate evaluation)
//! must produce output **identical** to the sequential path, no matter the
//! thread count: chunk results merge in input order and every float
//! reduction runs on the calling thread in that order, so there is nothing
//! for a scheduler to reorder. These tests build the same database at
//! `threads = 1`, `2` and `8` and require the reports, statistics and query
//! answers to agree bit-for-bit.
//!
//! `scripts/ci.sh` additionally runs this binary under `STRG_THREADS=1` and
//! `STRG_THREADS=8`, which the `default_config_…` test below picks up via
//! `Threads::Auto`.

use strg::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn clip(seed: u64, actors: usize, frames: usize) -> VideoClip {
    VideoClip {
        name: format!("clip{seed}"),
        scene: lab_scene(&ScenarioConfig {
            n_actors: actors,
            frames,
            seed,
            ..Default::default()
        }),
        fps: 30.0,
    }
}

fn db_with(threads: Threads) -> VideoDatabase {
    VideoDatabase::new(DbOptions::new().threads(threads))
}

fn ingest_all(db: &VideoDatabase, seeds: &[u64]) -> Vec<IngestReport> {
    seeds
        .iter()
        .map(|&s| db.ingest_clip(&clip(s, 2, 50), s))
        .collect()
}

fn assert_reports_equal(a: &IngestReport, b: &IngestReport, ctx: &str) {
    assert_eq!(a.root_id, b.root_id, "{ctx}: root_id");
    assert_eq!(a.objects, b.objects, "{ctx}: objects");
    assert_eq!(
        a.background_nodes, b.background_nodes,
        "{ctx}: background_nodes"
    );
    assert_eq!(a.strg_bytes, b.strg_bytes, "{ctx}: strg_bytes");
}

fn assert_hits_equal(a: &[QueryHit], b: &[QueryHit], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: hit count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.og_id, y.og_id, "{ctx}: og id");
        assert_eq!(x.clip, y.clip, "{ctx}: clip");
        assert_eq!(
            x.dist.to_bits(),
            y.dist.to_bits(),
            "{ctx}: distance must be bit-identical ({} vs {})",
            x.dist,
            y.dist
        );
    }
}

#[test]
fn ingest_reports_identical_across_thread_counts() {
    for seeds in [vec![3], vec![7, 11]] {
        let baseline = ingest_all(&db_with(Threads::Fixed(1)), &seeds);
        for &t in &THREAD_COUNTS[1..] {
            let reports = ingest_all(&db_with(Threads::Fixed(t)), &seeds);
            for (a, b) in baseline.iter().zip(&reports) {
                assert_reports_equal(a, b, &format!("seeds {seeds:?} threads {t}"));
            }
        }
    }
}

#[test]
fn db_stats_identical_across_thread_counts() {
    let seeds = [5, 9];
    let base_db = db_with(Threads::Fixed(1));
    ingest_all(&base_db, &seeds);
    let base = base_db.stats();
    for &t in &THREAD_COUNTS[1..] {
        let db = db_with(Threads::Fixed(t));
        ingest_all(&db, &seeds);
        let stats = db.stats();
        assert_eq!(base.clips, stats.clips, "threads {t}");
        assert_eq!(base.objects, stats.objects, "threads {t}");
        assert_eq!(base.clusters, stats.clusters, "threads {t}");
        assert_eq!(base.strg_bytes, stats.strg_bytes, "threads {t}");
        assert_eq!(base.index_bytes, stats.index_bytes, "threads {t}");
    }
}

#[test]
fn knn_answers_identical_across_thread_counts() {
    let seeds = [13, 17];
    let queries: Vec<Vec<Point2>> = vec![
        (0..25).map(|i| Point2::new(3.0 * i as f64, 70.0)).collect(),
        (0..25)
            .map(|i| Point2::new(100.0 - 3.0 * i as f64, 80.0))
            .collect(),
        vec![Point2::new(40.0, 75.0); 10],
    ];
    let base_db = db_with(Threads::Fixed(1));
    ingest_all(&base_db, &seeds);
    for &t in &THREAD_COUNTS[1..] {
        let db = db_with(Threads::Fixed(t));
        ingest_all(&db, &seeds);
        for (qi, q) in queries.iter().enumerate() {
            for k in [1, 3, 100] {
                let a = base_db.query(Query::knn(k).trajectory(q).with_cost());
                let b = db.query(Query::knn(k).trajectory(q).with_cost());
                assert_hits_equal(&a.hits, &b.hits, &format!("query {qi} k {k} threads {t}"));
                // The logical cost must not depend on the thread count.
                assert!(
                    a.cost.unwrap().same_work(&b.cost.unwrap()),
                    "query {qi} k {k} threads {t}: cost diverged"
                );
            }
        }
        // Stored trajectories must find themselves in both databases.
        let n = db.stats().objects as u64;
        for id in 0..n {
            let og = db.og(id).expect("stored");
            let q = og.centroid_series();
            let a = base_db.query(Query::knn(2).trajectory(&q)).hits;
            let b = db.query(Query::knn(2).trajectory(&q)).hits;
            assert_hits_equal(&a, &b, &format!("self-query og {id} threads {t}"));
        }
    }
}

#[test]
fn background_matched_queries_identical_across_thread_counts() {
    let q_frames = clip(23, 1, 30).render_all(4);
    let q: Vec<Point2> = (0..20).map(|i| Point2::new(4.0 * i as f64, 72.0)).collect();
    let base_db = db_with(Threads::Fixed(1));
    ingest_all(&base_db, &[19, 29]);
    let base = base_db.query(
        Query::knn(4)
            .trajectory(&q)
            .with_background(&q_frames)
            .with_cost(),
    );
    for &t in &THREAD_COUNTS[1..] {
        let db = db_with(Threads::Fixed(t));
        ingest_all(&db, &[19, 29]);
        let r = db.query(
            Query::knn(4)
                .trajectory(&q)
                .with_background(&q_frames)
                .with_cost(),
        );
        assert_hits_equal(
            &base.hits,
            &r.hits,
            &format!("background query threads {t}"),
        );
        assert!(
            base.cost.unwrap().same_work(&r.cost.unwrap()),
            "background query threads {t}: cost diverged"
        );
    }
}

/// `Threads::Auto` (the default config) must agree with the pinned
/// sequential build whatever `STRG_THREADS` says — this is the test the CI
/// script runs under `STRG_THREADS=1` and `STRG_THREADS=8`.
#[test]
fn default_config_matches_pinned_sequential() {
    let auto_db = VideoDatabase::new(DbOptions::new());
    let seq_db = db_with(Threads::Fixed(1));
    let a = auto_db.ingest_clip(&clip(37, 2, 50), 37);
    let b = seq_db.ingest_clip(&clip(37, 2, 50), 37);
    assert_reports_equal(&a, &b, "auto vs sequential");
    let q: Vec<Point2> = (0..25).map(|i| Point2::new(3.0 * i as f64, 70.0)).collect();
    assert_hits_equal(
        &auto_db.query(Query::knn(5).trajectory(&q)).hits,
        &seq_db.query(Query::knn(5).trajectory(&q)).hits,
        "auto vs sequential knn",
    );
}

/// Four threads querying one `Fixed(8)` database at once (built through the
/// shared fork/join pool; a tree query itself runs on its calling thread):
/// each must still get exactly the `Fixed(1)` answer and logical cost.
#[test]
fn concurrent_queries_on_the_shared_pool_match_sequential() {
    let seeds = [13, 17, 31];
    let seq_db = db_with(Threads::Fixed(1));
    ingest_all(&seq_db, &seeds);
    let par_db = db_with(Threads::Fixed(8));
    ingest_all(&par_db, &seeds);
    let queries: Vec<Vec<Point2>> = (0..8)
        .map(|q| {
            (0..25)
                .map(|i| Point2::new(3.0 * i as f64 + q as f64, 60.0 + 4.0 * q as f64))
                .collect()
        })
        .collect();
    let expect: Vec<QueryResult> = queries
        .iter()
        .map(|q| seq_db.query(Query::knn(5).trajectory(q).with_cost()))
        .collect();
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (par_db, queries, expect, start) = (&par_db, &queries, &expect, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..25 {
                    for (qi, q) in queries.iter().enumerate() {
                        let got = par_db.query(Query::knn(5).trajectory(q).with_cost());
                        let ctx = format!("thread {t} round {round} query {qi}");
                        assert_hits_equal(&expect[qi].hits, &got.hits, &ctx);
                        assert!(
                            expect[qi].cost.unwrap().same_work(&got.cost.unwrap()),
                            "{ctx}: cost diverged"
                        );
                    }
                }
            });
        }
    });
}
