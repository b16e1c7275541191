//! Figure 7: STRG-Index vs MT-RA vs MT-SA —
//! (a) index building time vs database size, (b) number of distance
//! computations per k-NN query, (c) precision/recall of the returned
//! neighbors judged by cluster (pattern) membership.

use std::time::Instant;

use strg_core::{Recorder, StrgIndex, StrgIndexConfig};
use strg_distance::{CountingDistance, EgedMetric};
use strg_graph::{BackgroundGraph, Point2};
use strg_mtree::{MTree, MTreeConfig};
use strg_synth::{generate_total, Dataset, SynthConfig};

use crate::Scale;

/// The compared methods.
pub const METHODS: [&str; 3] = ["STRG-Index", "MT-RA", "MT-SA"];

/// One point of Figure 7a.
#[derive(Clone, Debug)]
pub struct BuildRow {
    /// Method name.
    pub method: &'static str,
    /// Number of indexed OGs.
    pub db_size: usize,
    /// Wall-clock build seconds.
    pub seconds: f64,
    /// Distance computations during the build: for STRG-Index the EM
    /// clustering's `Eged` calls plus one `EGED_M` keying call per object.
    pub dist_calls: u64,
}

/// One point of Figure 7b.
#[derive(Clone, Debug)]
pub struct KnnRow {
    /// Method name.
    pub method: &'static str,
    /// Neighbors requested.
    pub k: usize,
    /// Mean distance computations per query.
    pub dist_calls: f64,
}

/// One point of Figure 7c (one `k`, averaged over queries).
#[derive(Clone, Debug)]
pub struct PrRow {
    /// Method name.
    pub method: &'static str,
    /// Neighbors requested.
    pub k: usize,
    /// Mean recall over queries.
    pub recall: f64,
    /// Mean precision over queries.
    pub precision: f64,
}

/// Output of the Figure 7 experiment.
#[derive(Clone, Debug, Default)]
pub struct Fig7 {
    /// 7a points.
    pub build: Vec<BuildRow>,
    /// 7b points.
    pub knn: Vec<KnnRow>,
    /// 7c points.
    pub pr: Vec<PrRow>,
}

type Cd = CountingDistance<EgedMetric<Point2>>;

#[allow(clippy::large_enum_variant)] // two locals per run, size is irrelevant
enum Index {
    Strg(StrgIndex<Point2, Cd>),
    MTree(MTree<Point2, Cd>),
}

fn noise() -> SynthConfig {
    SynthConfig::with_noise(0.10)
}

/// Builds `method` over `items`. Returns the index, its metric's counter,
/// and the distance calls the build made outside that metric: the EM
/// clustering's (`cluster.em.distance_calls`) for STRG-Index, none for the
/// M-trees.
fn build(method: &str, items: Vec<(u64, Vec<Point2>)>, seed: u64) -> (Index, Cd, u64) {
    let cd = CountingDistance::new(EgedMetric::<Point2>::new());
    match method {
        "STRG-Index" => {
            // The workload has 48 natural clusters (the motion patterns);
            // the index is configured accordingly, as the paper's setup
            // clusters the synthetic data into its true groups.
            let mut cfg = StrgIndexConfig::with_k(48.min(items.len().max(1)));
            cfg.seed = seed;
            // Bounded clustering effort for the build-time sweep; quality
            // saturates well before the default budget on this workload.
            cfg.em_max_iters = 10;
            cfg.em_n_init = 1;
            let mut idx = StrgIndex::new(cd.clone(), cfg);
            let recorder = Recorder::new();
            idx.set_recorder(recorder.clone());
            idx.add_segment(BackgroundGraph::default(), items);
            let em_calls = recorder
                .snapshot()
                .counter("cluster.em.distance_calls")
                .unwrap_or(0);
            (Index::Strg(idx), cd, em_calls)
        }
        "MT-RA" => {
            let t = MTree::bulk_insert(cd.clone(), MTreeConfig::random(seed), items);
            (Index::MTree(t), cd, 0)
        }
        "MT-SA" => {
            let t = MTree::bulk_insert(cd.clone(), MTreeConfig::sampling(seed), items);
            (Index::MTree(t), cd, 0)
        }
        _ => panic!("unknown method {method}"),
    }
}

fn query(index: &Index, q: &[Point2], k: usize) -> Vec<u64> {
    match index {
        // The paper's STRG-Index search is the cluster-first Algorithm 3.
        Index::Strg(i) => i
            .knn_single_cluster(q, k)
            .into_iter()
            .map(|h| h.og_id)
            .collect(),
        Index::MTree(t) => t.knn(q, k).into_iter().map(|n| n.id).collect(),
    }
}

/// Runs Figure 7.
pub fn run(scale: &Scale) -> Fig7 {
    let mut out = Fig7::default();

    // 7a: build cost vs database size.
    for &n in &scale.db_sizes {
        let ds = generate_total(n, &noise(), scale.seed);
        let items: Vec<(u64, Vec<Point2>)> = ds
            .series()
            .into_iter()
            .enumerate()
            .map(|(i, s)| (i as u64, s))
            .collect();
        for method in METHODS {
            let t = Instant::now();
            let (_, cd, cluster_calls) = build(method, items.clone(), scale.seed);
            out.build.push(BuildRow {
                method,
                db_size: n,
                seconds: t.elapsed().as_secs_f64(),
                dist_calls: cd.count() + cluster_calls,
            });
        }
    }

    // 7b + 7c: query cost and accuracy on a fixed database.
    let db = generate_total(scale.query_db_size, &noise(), scale.seed + 1);
    let items: Vec<(u64, Vec<Point2>)> = db
        .series()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (i as u64, s))
        .collect();
    let queries = generate_total(scale.queries, &noise(), scale.seed + 999);
    for method in METHODS {
        let (index, cd, _) = build(method, items.clone(), scale.seed);
        for &k in &scale.ks {
            cd.reset();
            let mut recall = 0.0;
            let mut precision = 0.0;
            for q in queries.items.iter() {
                let ids = query(&index, &q.points, k);
                let (r, p) = precision_recall(&ids, q.label, &db, k);
                recall += r;
                precision += p;
            }
            let nq = queries.len() as f64;
            out.knn.push(KnnRow {
                method,
                k,
                dist_calls: cd.count() as f64 / nq,
            });
            out.pr.push(PrRow {
                method,
                k,
                recall: recall / nq,
                precision: precision / nq,
            });
        }
    }
    out
}

/// Judges a result set by cluster (pattern) membership, the paper's
/// definition of relevance for Figure 7c. Precision is precision@k: hits
/// over `k`, so an answer shorter than `k` counts its missing places as
/// misses rather than reading higher for returning less.
fn precision_recall(ids: &[u64], query_label: u32, db: &Dataset, k: usize) -> (f64, f64) {
    let relevant_total = db
        .items
        .iter()
        .filter(|t| t.label == query_label)
        .count()
        .max(1);
    let hit = ids
        .iter()
        .filter(|&&id| db.items[id as usize].label == query_label)
        .count();
    let recall = hit as f64 / relevant_total.min(k) as f64;
    let precision = hit as f64 / k.max(1) as f64;
    (recall.min(1.0), precision)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_covers_all_methods() {
        let f = run(&Scale::quick());
        assert_eq!(f.build.len(), 2 * 3);
        assert_eq!(f.knn.len(), 2 * 3);
        assert_eq!(f.pr.len(), 2 * 3);
        for r in &f.pr {
            assert!((0.0..=1.0).contains(&r.recall), "{r:?}");
            assert!((0.0..=1.0).contains(&r.precision), "{r:?}");
        }
        for r in &f.knn {
            assert!(r.dist_calls > 0.0);
        }
        // The STRG-Index build is charged its clustering: at least the
        // seeding's K · n calls, plus one keying call per object.
        for r in f.build.iter().filter(|r| r.method == "STRG-Index") {
            let n = r.db_size as u64;
            assert!(r.dist_calls >= 48.min(n) * n + n, "{r:?}");
        }
    }

    #[test]
    fn precision_counts_missing_answers_as_misses() {
        let db = generate_total(400, &noise(), 7);
        let label = db.items[0].label;
        let same: Vec<u64> = (0..db.len() as u64)
            .filter(|&i| db.items[i as usize].label == label)
            .take(3)
            .collect();
        assert_eq!(same.len(), 3);
        // Three relevant answers where ten were asked for: precision@10 is
        // 0.3, not the 1.0 of dividing by the answers returned.
        let (_, p) = precision_recall(&same, label, &db, 10);
        assert_eq!(p, 0.3);
        let (_, p) = precision_recall(&same, label, &db, 3);
        assert_eq!(p, 1.0);
        assert_eq!(precision_recall(&[], label, &db, 5).1, 0.0);
    }

    #[test]
    fn strg_index_queries_use_fewer_distance_calls() {
        let mut scale = Scale::quick();
        scale.query_db_size = 400;
        scale.queries = 6;
        scale.ks = vec![10];
        let f = run(&scale);
        let calls = |m: &str| f.knn.iter().find(|r| r.method == m).unwrap().dist_calls;
        assert!(
            calls("STRG-Index") < calls("MT-RA"),
            "STRG {} vs MT-RA {}",
            calls("STRG-Index"),
            calls("MT-RA")
        );
    }
}
