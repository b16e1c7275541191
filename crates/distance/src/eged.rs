//! Extended Graph Edit Distance (Definition 9, Theorem 2).
//!
//! EGED computes the minimum cost of node edit operations (replace, delete,
//! add) transforming one Object Graph's node-value sequence into another.
//! The cost of deleting or adding a node is its ground distance to a *gap*
//! element `g_i`; the gap policy decides the space:
//!
//! * `g_i = (v_{i-1} + v_i) / 2` (midpoint) handles local time shifting but
//!   breaks the triangle inequality — the **non-metric** EGED used for
//!   clustering ([`Eged`]);
//! * `g_i = v_{i-1}` (repeat-previous) reproduces DTW's cost model, offered
//!   for the ablation of §3.1's discussion;
//! * `g_i = g` fixed makes EGED a **metric** (Theorem 2) — [`EgedMetric`],
//!   used for index keys. With `g = 0` this coincides with Chen's ERP,
//!   which is exactly the lineage the paper cites.

use crate::traits::{MetricDistance, SequenceDistance};
use crate::value::SeqValue;

/// Gap policy of the EGED recurrence.
///
/// The paper defines the gap `g_i` relative to "the previous node" of the
/// alignment; concretely, editing out a node is priced against the node the
/// *other* sequence currently sits at:
///
/// * with `g_i` equal to that node ([`GapPolicy::Opposite`]) the recurrence
///   collapses to DTW's — exactly the paper's remark that "when
///   `g_i = v_{i-1}`, the cost function is the same as one in DTW";
/// * with `g_i` the *midpoint* between the edited node and the opposite
///   node ([`GapPolicy::Midpoint`]) deletions/additions cost half the
///   ground distance, which absorbs local time shifting more cheaply than a
///   substitution while still penalizing genuinely different content;
/// * with a *fixed constant* `g` ([`GapPolicy::Constant`]) the cost of an
///   edit no longer depends on alignment context, which is what restores
///   the triangle inequality (Theorem 2).
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum GapPolicy<V> {
    /// `g_i = (opposite + v_i) / 2`: non-metric, tolerant to local time
    /// shifting (the paper's clustering configuration).
    Midpoint,
    /// `g_i = opposite node`: reproduces DTW.
    Opposite,
    /// Fixed constant gap: the metric configuration of Theorem 2.
    Constant(V),
}

/// Full EGED dynamic program over the `(m + 1) x (n + 1)` edit lattice.
///
/// `D[i][0]` / `D[0][j]` accumulate pure deletions/additions (the paper's
/// `m = 0` / `n = 0` rows, which its metric variant requires); interior
/// cells take the minimum of replace / delete / add per Definition 9.
pub(crate) fn eged_dp<V: SeqValue>(a: &[V], b: &[V], policy: &GapPolicy<V>) -> f64 {
    // With an infinite cutoff the bounded DP never abandons and performs
    // exactly the unbounded recurrence, so the value is bit-identical.
    eged_dp_upto(a, b, policy, f64::INFINITY).expect("infinite cutoff never abandons")
}

/// Cutoff-bounded EGED: `Some(d)` iff `d <= cutoff` (with `d` bit-identical
/// to [`eged_dp`]), `None` iff the distance exceeds `cutoff`.
///
/// Early abandoning is exact: every edit cost is non-negative, so each DP
/// cell is `>=` some cell of the previous row and the final value is `>=`
/// the minimum of any row. Once a row's minimum exceeds `cutoff`, the true
/// distance must too. Floating point preserves the argument — adding a
/// non-negative `f64` never rounds below the addend, and `min` is exact.
///
/// Each row's ground distances are staged with [`SeqValue::dist_many`],
/// the two previous-row terms are combined in SIMD lanes, and the
/// loop-carried `add` term is resolved in a scalar prefix pass — the same
/// association as the textbook double loop (`eged_dp_upto_scalar`, kept as
/// the unit tests' reference), so the value and every abandon decision are
/// bit-identical to it (DESIGN.md §13).
pub(crate) fn eged_dp_upto<V: SeqValue>(
    a: &[V],
    b: &[V],
    policy: &GapPolicy<V>,
    cutoff: f64,
) -> Option<f64> {
    if a.is_empty() && b.is_empty() {
        return if 0.0 <= cutoff { Some(0.0) } else { None };
    }
    crate::scratch::with_dp_scratch(|s| eged_dp_upto_vector(a, b, policy, cutoff, s))
}

/// Cost of deleting `v` when the other sequence is positioned at `opp`
/// (None when the other sequence is empty).
#[inline]
fn edit_cost<V: SeqValue>(v: &V, opp: Option<&V>, policy: &GapPolicy<V>) -> f64 {
    match policy {
        GapPolicy::Constant(g) => v.dist(g),
        GapPolicy::Opposite => match opp {
            Some(o) => v.dist(o),
            None => v.dist(&V::origin()),
        },
        GapPolicy::Midpoint => match opp {
            Some(o) => v.dist(&v.midpoint(o)),
            None => v.dist(&V::origin()),
        },
    }
}

/// The textbook scalar DP: the reference `vector_path_matches_scalar_bitwise`
/// pins the vectorized kernel to.
#[cfg(test)]
fn eged_dp_upto_scalar<V: SeqValue>(
    a: &[V],
    b: &[V],
    policy: &GapPolicy<V>,
    cutoff: f64,
) -> Option<f64> {
    let m = a.len();
    let n = b.len();
    let edit = |v: &V, opp: Option<&V>| edit_cost(v, opp, policy);

    // Two-row DP; rows indexed by j over b.
    let mut prev = vec![0.0f64; n + 1];
    let mut cur = vec![0.0f64; n + 1];
    for j in 1..=n {
        prev[j] = prev[j - 1] + edit(&b[j - 1], a.first());
    }
    for i in 1..=m {
        cur[0] = prev[0] + edit(&a[i - 1], b.first());
        let mut row_min = cur[0];
        for j in 1..=n {
            let replace = prev[j - 1] + a[i - 1].dist(&b[j - 1]);
            let delete = prev[j] + edit(&a[i - 1], Some(&b[j - 1]));
            let add = cur[j - 1] + edit(&b[j - 1], Some(&a[i - 1]));
            cur[j] = replace.min(delete).min(add);
            row_min = row_min.min(cur[j]);
        }
        if row_min > cutoff {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let d = prev[n];
    if d <= cutoff {
        Some(d)
    } else {
        None
    }
}

/// The vectorized DP over arena rows. Per row `i` it computes
/// `t[j] = (prev[j-1] + dist(aᵢ, bⱼ)).min(prev[j] + delete_cost)` in SIMD
/// lanes (both terms depend only on the previous row), then resolves
/// `cur[j] = t[j].min(cur[j-1] + add_cost)` left to right — exactly the
/// scalar `replace.min(delete).min(add)` chain, cell by cell. For the
/// constant-gap policy the delete/add costs drop from three ground-distance
/// evaluations per cell to one (`dist(aᵢ, g)` is hoisted per row,
/// `dist(bⱼ, g)` per call), which is most of the speedup on 2-D values.
fn eged_dp_upto_vector<V: SeqValue>(
    a: &[V],
    b: &[V],
    policy: &GapPolicy<V>,
    cutoff: f64,
    scratch: &mut crate::scratch::DpScratch,
) -> Option<f64> {
    let m = a.len();
    let n = b.len();
    let (mut prev, mut cur, sub, del, add) = scratch.rows(n);
    prev[0] = 0.0;
    match policy {
        GapPolicy::Constant(g) => {
            // Per-call: add[j] = dist(bⱼ, g) — also row 0's edit costs.
            V::dist_many(g, b, add);
            for j in 1..=n {
                prev[j] = prev[j - 1] + add[j - 1];
            }
            for i in 1..=m {
                let ai = &a[i - 1];
                let ag = ai.dist(g);
                V::dist_many(ai, b, sub);
                crate::simd::combine_const(prev, sub, ag, &mut cur[1..]);
                cur[0] = prev[0] + ag;
                let mut row_min = cur[0];
                for j in 1..=n {
                    let c = cur[j].min(cur[j - 1] + add[j - 1]);
                    cur[j] = c;
                    row_min = row_min.min(c);
                }
                if row_min > cutoff {
                    return None;
                }
                std::mem::swap(&mut prev, &mut cur);
            }
        }
        _ => {
            // Alignment-dependent gaps: delete/add costs vary per cell and
            // per row, staged scalar; the combine still vectorizes.
            for j in 1..=n {
                prev[j] = prev[j - 1] + edit_cost(&b[j - 1], a.first(), policy);
            }
            for i in 1..=m {
                let ai = &a[i - 1];
                V::dist_many(ai, b, sub);
                for j in 0..n {
                    del[j] = edit_cost(ai, Some(&b[j]), policy);
                    add[j] = edit_cost(&b[j], Some(ai), policy);
                }
                crate::simd::combine_rows(prev, sub, del, &mut cur[1..]);
                cur[0] = prev[0] + edit_cost(ai, b.first(), policy);
                let mut row_min = cur[0];
                for j in 1..=n {
                    let c = cur[j].min(cur[j - 1] + add[j - 1]);
                    cur[j] = c;
                    row_min = row_min.min(c);
                }
                if row_min > cutoff {
                    return None;
                }
                std::mem::swap(&mut prev, &mut cur);
            }
        }
    }
    let d = prev[n];
    if d <= cutoff {
        Some(d)
    } else {
        None
    }
}

/// The non-metric EGED with the midpoint gap `g_i = (v_{i-1} + v_i) / 2`
/// (the paper's clustering distance).
#[derive(Copy, Clone, Debug, Default)]
pub struct Eged;

impl<V: SeqValue> SequenceDistance<V> for Eged {
    fn distance(&self, a: &[V], b: &[V]) -> f64 {
        eged_dp(a, b, &GapPolicy::Midpoint)
    }
    fn name(&self) -> &'static str {
        "EGED"
    }
}

/// EGED with the DTW gap (`g_i` = the opposite node), provided for the
/// gap-policy ablation; equivalent to DTW.
#[derive(Copy, Clone, Debug, Default)]
pub struct EgedRepeatGap;

impl<V: SeqValue> SequenceDistance<V> for EgedRepeatGap {
    fn distance(&self, a: &[V], b: &[V]) -> f64 {
        eged_dp(a, b, &GapPolicy::Opposite)
    }
    fn name(&self) -> &'static str {
        "EGED-dtwgap"
    }
}

/// The metric EGED (`EGED_M`): fixed constant gap, satisfying the triangle
/// inequality (Theorem 2). This is the key function of the STRG-Index and
/// the distance the M-tree baseline is driven with.
#[derive(Copy, Clone, Debug)]
pub struct EgedMetric<V> {
    /// The fixed gap constant `g`.
    pub gap: V,
}

impl<V: SeqValue> Default for EgedMetric<V> {
    fn default() -> Self {
        Self { gap: V::origin() }
    }
}

impl<V: SeqValue> EgedMetric<V> {
    /// Metric EGED with gap constant `g = origin` (Chen's ERP choice).
    pub fn new() -> Self {
        Self::default()
    }

    /// Metric EGED with an explicit gap constant.
    pub fn with_gap(gap: V) -> Self {
        Self { gap }
    }
}

impl<V: SeqValue> SequenceDistance<V> for EgedMetric<V> {
    fn distance(&self, a: &[V], b: &[V]) -> f64 {
        eged_dp(a, b, &GapPolicy::Constant(self.gap))
    }
    fn name(&self) -> &'static str {
        "EGED_M"
    }
}

impl<V: SeqValue> MetricDistance<V> for EgedMetric<V> {}

/// Edit distance with Real Penalty (Chen & Ng, VLDB 2004). ERP is exactly
/// the metric EGED with gap constant `0`; the alias documents the lineage.
pub type Erp<V> = EgedMetric<V>;

#[cfg(test)]
mod tests {
    use super::*;

    fn eged(a: &[f64], b: &[f64]) -> f64 {
        SequenceDistance::distance(&Eged, a, b)
    }

    fn eged_m(a: &[f64], b: &[f64]) -> f64 {
        SequenceDistance::distance(&EgedMetric::<f64>::new(), a, b)
    }

    #[test]
    fn identical_sequences_have_zero_distance() {
        let s = [1.0, 2.0, 3.0, 2.0];
        assert_eq!(eged(&s, &s), 0.0);
        assert_eq!(eged_m(&s, &s), 0.0);
    }

    #[test]
    fn empty_sequences() {
        assert_eq!(eged_m(&[], &[]), 0.0);
        // Against empty: pure additions at |v - 0| each.
        assert_eq!(eged_m(&[], &[2.0, 2.0, 3.0]), 7.0);
        assert_eq!(eged_m(&[1.0, 1.0], &[]), 2.0);
    }

    #[test]
    fn paper_example_metric_values() {
        // §3.1: OGr = {0}, OGs = {1,1}, OGt = {2,2,3} with g = 0:
        // EGED_M(r,t) = 7, EGED_M(r,s) = 2, EGED_M(s,t) = 5, and
        // 7 <= 2 + 5 (triangle inequality).
        let r = [0.0];
        let s = [1.0, 1.0];
        let t = [2.0, 2.0, 3.0];
        assert_eq!(eged_m(&r, &t), 7.0);
        assert_eq!(eged_m(&r, &s), 2.0);
        assert_eq!(eged_m(&s, &t), 5.0);
        assert!(eged_m(&r, &t) <= eged_m(&r, &s) + eged_m(&s, &t));
    }

    #[test]
    fn non_metric_midpoint_gap_is_cheaper_on_time_shift() {
        // A local time shift (one repeated sample) should cost less under
        // the midpoint gap than under the constant gap.
        let a = [1.0, 5.0, 9.0];
        let b = [1.0, 5.0, 5.0, 9.0];
        let non_metric = eged(&a, &b);
        let metric = eged_m(&a, &b);
        assert!(non_metric < metric);
        // Deleting the duplicated 5 against midpoint(5,5) = 5 is free.
        assert_eq!(non_metric, 0.0);
    }

    #[test]
    fn metric_symmetry() {
        let a = [0.0, 3.0, 1.0];
        let b = [2.0, 2.0];
        assert_eq!(eged_m(&a, &b), eged_m(&b, &a));
        assert_eq!(eged(&a, &b), eged(&b, &a));
    }

    #[test]
    fn substitution_bounded_by_pointwise_costs() {
        let a = [1.0, 2.0];
        let b = [1.5, 2.5];
        // Direct replacement costs 1.0; EGED can't exceed it.
        assert!(eged_m(&a, &b) <= 1.0 + 1e-12);
    }

    #[test]
    fn repeat_gap_matches_dtw_flavor() {
        let a = [1.0, 5.0, 9.0];
        let b = [1.0, 5.0, 5.0, 9.0];
        // Deleting the duplicate 5 at cost |5 - 5| = 0.
        assert_eq!(
            SequenceDistance::<f64>::distance(&EgedRepeatGap, &a, &b),
            0.0
        );
    }

    #[test]
    fn custom_gap_constant() {
        let d = EgedMetric::with_gap(10.0);
        // Adding 12 against gap 10 costs 2.
        assert_eq!(d.distance(&[], &[12.0]), 2.0);
    }

    #[test]
    fn works_on_points() {
        use strg_graph::Point2;
        let a = [Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)];
        let b = [
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
        ];
        let d = EgedMetric::<Point2>::new();
        // Best: match both, add (1,1) at |(1,1)| = sqrt(2).
        assert!((d.distance(&a, &b) - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn vector_path_matches_scalar_bitwise() {
        use strg_graph::Point2;
        for (m, n) in [(0, 5), (5, 0), (1, 1), (7, 3), (23, 17), (16, 16)] {
            let a: Vec<f64> = (0..m).map(|i| (i as f64 * 0.7).sin() * 5.0).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos() * 4.0).collect();
            for policy in [
                GapPolicy::Midpoint,
                GapPolicy::Opposite,
                GapPolicy::Constant(0.5),
            ] {
                for cutoff in [f64::INFINITY, 50.0, 10.0, 1.0, 0.0] {
                    let s = eged_dp_upto_scalar(&a, &b, &policy, cutoff);
                    let v = crate::scratch::with_dp_scratch(|sc| {
                        eged_dp_upto_vector(&a, &b, &policy, cutoff, sc)
                    });
                    assert_eq!(
                        s.map(f64::to_bits),
                        v.map(f64::to_bits),
                        "{policy:?} m={m} n={n} cutoff={cutoff}"
                    );
                }
            }
            // Point2 stages rows through the default (scalar, hypot)
            // dist_many but still runs the vectorized combine.
            let pa: Vec<Point2> = a.iter().map(|&x| Point2::new(x, 1.5 - 0.25 * x)).collect();
            let pb: Vec<Point2> = b.iter().map(|&x| Point2::new(0.5 * x, x)).collect();
            for cutoff in [f64::INFINITY, 12.0, 2.0] {
                let policy = GapPolicy::Constant(Point2::new(0.0, 0.0));
                let s = eged_dp_upto_scalar(&pa, &pb, &policy, cutoff);
                let v = crate::scratch::with_dp_scratch(|sc| {
                    eged_dp_upto_vector(&pa, &pb, &policy, cutoff, sc)
                });
                assert_eq!(
                    s.map(f64::to_bits),
                    v.map(f64::to_bits),
                    "Point2 m={m} n={n} cutoff={cutoff}"
                );
            }
        }
    }

    #[test]
    fn names() {
        assert_eq!(SequenceDistance::<f64>::name(&Eged), "EGED");
        assert_eq!(
            SequenceDistance::<f64>::name(&EgedMetric::<f64>::new()),
            "EGED_M"
        );
    }
}
