//! Ground truth for the equivalence suites: a linear `EgedMetric::distance`
//! scan over every indexed object — no lower bound, no early abandon, no
//! tree. Same contract as `benchmark/src/oracle.rs`: a k-NN answer must
//! carry the scan's `k` smallest distances bit for bit, each attached to an
//! object that really is at that distance (the indexes break exact ties by
//! discovery order, so ids are checked through their distances — a
//! multiset comparison); a range answer must be exactly the in-radius set —
//! the suites take their "near" radii bit-equal to a scan distance, so the
//! object *on* the boundary is part of every such answer.
//!
//! An inadmissible bound, an over-eager abandon or a wrongly pruned shard
//! surfaces here as a hit diff against the truth.

// `robustness.rs` uses the scan and the matcher but none of the corners.
#![allow(dead_code)]

use strg::distance::SeqValue;
use strg::prelude::*;

/// Indexed trajectories by OG id.
pub type Corpus = Vec<(u64, Vec<Point2>)>;

/// `(og_id, distance)` of every object, ascending by distance (ties by id).
pub fn scan<V: SeqValue>(objects: &[(u64, Vec<V>)], query: &[V]) -> Vec<(u64, f64)> {
    let metric = EgedMetric::<V>::new();
    let mut all: Vec<(u64, f64)> = objects
        .iter()
        .map(|(id, series)| (*id, metric.distance(query, series)))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all
}

/// Asserts that `hits` (`(og_id, distance)`, in answer order) is a correct
/// answer to `probe` against the scan `truth`.
pub fn assert_matches(truth: &[(u64, f64)], hits: &[(u64, f64)], probe: QueryKind, ctx: &str) {
    let want = match probe {
        QueryKind::Knn(k) => k.min(truth.len()),
        QueryKind::Range(radius) => truth.iter().filter(|t| t.1 <= radius).count(),
    };
    assert_eq!(hits.len(), want, "{ctx} {probe:?}: hit count");
    for (h, t) in hits.iter().zip(truth) {
        // Both lists ascend, so position i carries the i-th smallest
        // distance — for range too, whose answer is a prefix of the scan.
        assert_eq!(h.1.to_bits(), t.1.to_bits(), "{ctx} {probe:?}: distance");
        let real = truth.iter().find(|t| t.0 == h.0).map(|t| t.1.to_bits());
        assert_eq!(real, Some(h.1.to_bits()), "{ctx} {probe:?}: id {}", h.0);
    }
}

/// Corpora no two-implementation diff could ever pin, because both twins
/// shared the corner: an empty index and all-identical objects (every
/// distance ties).
pub fn corner_corpora() -> Vec<(&'static str, Corpus)> {
    let same: Vec<Point2> = (0..6).map(|i| Point2::new(4.0 * i as f64, 30.0)).collect();
    vec![
        ("empty", Vec::new()),
        ("identical", (0..12).map(|id| (id, same.clone())).collect()),
    ]
}

/// Queries for the corner corpora: the identical objects' own series
/// (distance 0 to all of them) and a far-away one.
pub fn corner_queries() -> Vec<Vec<Point2>> {
    vec![
        (0..6).map(|i| Point2::new(4.0 * i as f64, 30.0)).collect(),
        vec![Point2::new(500.0, 500.0), Point2::new(501.0, 499.0)],
    ]
}

/// The probes of a corner case: `k = 0`, `k = 1`, `k > n`, `radius = 0`,
/// and a radius bit-equal to the farthest object's distance.
pub fn corner_probes(truth: &[(u64, f64)]) -> Vec<QueryKind> {
    let far = truth.last().map_or(1.0, |t| t.1);
    vec![
        QueryKind::Knn(0),
        QueryKind::Knn(1),
        QueryKind::Knn(truth.len() + 5),
        QueryKind::Range(0.0),
        QueryKind::Range(far),
    ]
}
