//! Property-based tests of the paper's core claims, over the public facade:
//! Theorem 2 on realistic OG data, index structural invariants under random
//! workloads, and the clustering/accuracy relationships the evaluation
//! relies on.

use proptest::prelude::*;
use strg::core::StrgIndex;
use strg::graph::BackgroundGraph;
use strg::prelude::*;

fn trajectory() -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(
        (0.0f64..320.0, 0.0f64..240.0).prop_map(|(x, y)| Point2::new(x, y)),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 2 on trajectory-shaped data: metric EGED obeys the triangle
    /// inequality, which is what makes leaf keys prunable.
    #[test]
    fn theorem2_on_trajectories(a in trajectory(), b in trajectory(), c in trajectory()) {
        let m = EgedMetric::<Point2>::new();
        let ab = m.distance(&a, &b);
        let bc = m.distance(&b, &c);
        let ac = m.distance(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-6);
        prop_assert!((ab - m.distance(&b, &a)).abs() < 1e-9);
    }

    /// Index invariants hold under arbitrary insert workloads: leaf keys
    /// stay sorted and equal to the metric distance to their cluster
    /// centroid, and no OG is lost or duplicated.
    #[test]
    fn index_invariants_under_inserts(seqs in prop::collection::vec(trajectory(), 1..40)) {
        let mut cfg = StrgIndexConfig::with_k(3);
        cfg.leaf_split_threshold = 8;
        let mut idx = StrgIndex::new(EgedMetric::<Point2>::new(), cfg);
        let root = idx.add_segment(BackgroundGraph::default(), Vec::new());
        for (i, s) in seqs.iter().enumerate() {
            idx.insert(root, i as u64, s.clone());
        }
        prop_assert_eq!(idx.len(), seqs.len());

        let m = EgedMetric::<Point2>::new();
        let mut seen = Vec::new();
        for r in idx.roots() {
            for c in &r.clusters {
                let mut prev = f64::NEG_INFINITY;
                for rec in &c.leaf.records {
                    prop_assert!(rec.key >= prev, "keys sorted");
                    prev = rec.key;
                    let d = m.distance(&rec.seq, &c.centroid);
                    prop_assert!((d - rec.key).abs() < 1e-9, "key = EGED_M to centroid");
                    seen.push(rec.og_id);
                }
            }
        }
        seen.sort_unstable();
        let expect: Vec<u64> = (0..seqs.len() as u64).collect();
        prop_assert_eq!(seen, expect, "no OG lost or duplicated");
    }

    /// Exact index k-NN equals brute force for arbitrary data and queries.
    #[test]
    fn index_knn_is_exact(
        seqs in prop::collection::vec(trajectory(), 2..30),
        q in trajectory(),
        k in 1usize..6,
    ) {
        let items: Vec<(u64, Vec<Point2>)> =
            seqs.iter().cloned().enumerate().map(|(i, s)| (i as u64, s)).collect();
        let mut idx = StrgIndex::new(EgedMetric::<Point2>::new(), StrgIndexConfig::with_k(4));
        idx.add_segment(BackgroundGraph::default(), items.clone());

        let m = EgedMetric::<Point2>::new();
        let mut truth: Vec<f64> = items.iter().map(|(_, s)| m.distance(&q, s)).collect();
        truth.sort_by(f64::total_cmp);
        let got = idx.knn(&q, k);
        prop_assert_eq!(got.len(), k.min(items.len()));
        for (h, td) in got.iter().zip(&truth) {
            prop_assert!((h.dist - td).abs() < 1e-9, "{} vs {}", h.dist, td);
        }
    }

    /// M-tree invariants survive arbitrary workloads (covering radii and
    /// exact parent distances).
    #[test]
    fn mtree_invariants(seqs in prop::collection::vec(trajectory(), 2..60)) {
        let items: Vec<(u64, Vec<Point2>)> =
            seqs.into_iter().enumerate().map(|(i, s)| (i as u64, s)).collect();
        let n = items.len();
        let t = MTree::bulk_insert(
            EgedMetric::<Point2>::new(),
            MTreeConfig { node_capacity: 4, ..MTreeConfig::sampling(1) },
            items,
        );
        prop_assert_eq!(t.len(), n);
        t.check_invariants();
    }
}

/// The headline robustness claim of Figure 5, at smoke scale: EM-EGED's
/// error under heavy noise stays within a sane band while EM clustering
/// still runs to completion for LCS and DTW.
#[test]
fn clustering_error_rates_bounded() {
    use strg::cluster::Clusterer;
    let patterns: Vec<_> = strg::synth::all_patterns()
        .into_iter()
        .step_by(12)
        .collect();
    let k = patterns.len();
    let ds = strg::synth::generate_for_patterns(&patterns, 6, &SynthConfig::with_noise(0.2), 9);
    let data = ds.series();
    let labels: Vec<u32> = ds
        .items
        .iter()
        .map(|t| patterns.iter().position(|p| p.id == t.label).unwrap() as u32)
        .collect();
    let em = EmClusterer::new(Eged, EmConfig::new(k).with_seed(1));
    let c = em.fit(&data);
    let err = clustering_error_rate(&c.assignments, &labels, c.k());
    assert!(
        err < 35.0,
        "EM-EGED on 4 well-separated patterns at 20% noise: {err}%"
    );
}
