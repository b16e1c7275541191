//! Property-based verification of the index metric's bounded evaluation
//! (DESIGN.md §9): admissibility of `EGED_M`'s summary lower bound and
//! cutoff-equivalence of its `distance_upto`.
//!
//! The contracts under test:
//!
//! * **Admissibility** — `lower_bound(q, qsum, csum) <= distance(q, c)` for
//!   every pair of sequences. An inadmissible bound would silently drop
//!   true neighbors, so this is the load-bearing property.
//! * **Cutoff equivalence** — `distance_upto(a, b, c)` returns
//!   `Some(distance(a, b))` (bit-identical) exactly when
//!   `distance(a, b) <= c`, and `None` exactly when it exceeds `c`. Early
//!   abandoning is a physical shortcut, never a semantic change.
//! * **Symmetry** — the bounded kernels inherit the symmetry of their
//!   underlying distances.

use proptest::prelude::*;
use strg_distance::{EgedMetric, MetricDistance, SequenceDistance};
use strg_graph::Point2;

fn seq() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-50.0f64..50.0, 0..12)
}

fn point_seq() -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(
        (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point2::new(x, y)),
        0..10,
    )
}

/// Cutoffs spanning both sides of the true distance, including the exact
/// boundary `c == d` (which must yield `Some`).
fn cutoffs(d: f64) -> [f64; 6] {
    [0.0, d * 0.5, d, d * 1.5, d + 1.0, 1e6]
}

/// Asserts the full cutoff-equivalence contract for one distance and pair.
fn assert_cutoff_contract<V, D>(dist: &D, a: &[V], b: &[V])
where
    V: strg_distance::SeqValue,
    D: MetricDistance<V>,
{
    let d = dist.distance(a, b);
    for c in cutoffs(d) {
        match dist.distance_upto(a, b, c) {
            Some(got) => {
                assert!(d <= c, "Some returned but {d} > cutoff {c}");
                assert_eq!(
                    got.to_bits(),
                    d.to_bits(),
                    "bounded result differs from full distance at cutoff {c}"
                );
            }
            None => assert!(d > c, "None returned but {d} <= cutoff {c}"),
        }
    }
}

const EPS: f64 = 1e-9;

proptest! {
    /// EGED_M lower bound is admissible over scalar sequences.
    #[test]
    fn eged_metric_lb_admissible(a in seq(), b in seq()) {
        let m = EgedMetric::<f64>::new();
        let lb = m.lower_bound(&a, &m.summarize(&a), &m.summarize(&b));
        prop_assert!(lb <= m.distance(&a, &b), "lb {lb} > d {}", m.distance(&a, &b));
    }

    /// ... and with a non-zero gap constant.
    #[test]
    fn eged_metric_lb_admissible_nonzero_gap(a in seq(), b in seq()) {
        let m = EgedMetric::with_gap(7.5f64);
        let lb = m.lower_bound(&a, &m.summarize(&a), &m.summarize(&b));
        prop_assert!(lb <= m.distance(&a, &b));
    }

    /// ... and over 2-D trajectories.
    #[test]
    fn eged_metric_lb_admissible_points(a in point_seq(), b in point_seq()) {
        let m = EgedMetric::<Point2>::new();
        let lb = m.lower_bound(&a, &m.summarize(&a), &m.summarize(&b));
        prop_assert!(lb <= m.distance(&a, &b));
    }

    /// Cutoff equivalence over f64, at the origin gap and a non-zero one.
    #[test]
    fn eged_metric_cutoff_equivalence(a in seq(), b in seq()) {
        assert_cutoff_contract(&EgedMetric::<f64>::new(), &a, &b);
        assert_cutoff_contract(&EgedMetric::with_gap(7.5f64), &a, &b);
    }

    /// Cutoff equivalence over 2-D trajectories.
    #[test]
    fn cutoff_equivalence_points(a in point_seq(), b in point_seq()) {
        assert_cutoff_contract(&EgedMetric::<Point2>::new(), &a, &b);
    }

    /// The bounded kernel stays symmetric: abandoning depends only on row
    /// minima, which a transposed lattice reproduces within fp equality of
    /// the final value.
    #[test]
    fn bounded_symmetry(a in seq(), b in seq()) {
        let m = EgedMetric::<f64>::new();
        let d = m.distance(&a, &b);
        for c in cutoffs(d) {
            let ab = m.distance_upto(&a, &b, c);
            let ba = m.distance_upto(&b, &a, c);
            match (ab, ba) {
                (Some(x), Some(y)) => prop_assert!((x - y).abs() < EPS),
                (None, None) => {}
                other => prop_assert!(false, "asymmetric abandonment: {other:?}"),
            }
        }
    }

    /// Summaries are insensitive to which side is the query: the EGED_M
    /// bound itself is symmetric in the two summaries.
    #[test]
    fn eged_metric_lb_symmetric(a in seq(), b in seq()) {
        let m = EgedMetric::<f64>::new();
        let (sa, sb) = (m.summarize(&a), m.summarize(&b));
        let lb_ab = m.lower_bound(&a, &sa, &sb);
        let lb_ba = m.lower_bound(&b, &sb, &sa);
        prop_assert!((lb_ab - lb_ba).abs() < EPS);
    }
}
