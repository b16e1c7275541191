//! Dynamic Time Warping (Gish & Ng [11]), one of the two baseline distances
//! the paper compares EGED against in Figure 5.

use crate::traits::SequenceDistance;
use crate::value::SeqValue;

/// Classic unconstrained DTW: minimum total ground-distance over monotone
/// alignments of the two sequences. Non-metric (fails the triangle
/// inequality), so it may drive clustering but not the index.
#[derive(Copy, Clone, Debug, Default)]
pub struct Dtw;

/// Cutoff-bounded DTW: `Some(d)` iff `d <= cutoff` (with `d` bit-identical
/// to the unbounded DP), `None` iff the distance exceeds `cutoff`.
///
/// Same row-minimum argument as EGED: warping costs are non-negative, every
/// cell extends some cell of the previous or current row, so the final value
/// is `>=` the minimum of any completed row.
pub(crate) fn dtw_upto<V: SeqValue>(a: &[V], b: &[V], cutoff: f64) -> Option<f64> {
    let m = a.len();
    let n = b.len();
    if m == 0 || n == 0 {
        // Conventional: distance to an empty sequence is the sum of
        // ground distances to the origin, so that the function stays
        // total on degenerate inputs.
        let rest = if m == 0 { b } else { a };
        let d: f64 = rest.iter().map(|v| v.dist(&V::origin())).sum();
        return if d <= cutoff { Some(d) } else { None };
    }
    crate::scratch::with_dp_scratch(|s| dtw_upto_vector(a, b, cutoff, s))
}

/// The textbook scalar DP: the reference `vector_path_matches_scalar_bitwise`
/// pins the vectorized kernel to.
#[cfg(test)]
fn dtw_upto_scalar<V: SeqValue>(a: &[V], b: &[V], cutoff: f64) -> Option<f64> {
    let m = a.len();
    let n = b.len();
    let mut prev = vec![f64::INFINITY; n + 1];
    let mut cur = vec![f64::INFINITY; n + 1];
    prev[0] = 0.0;
    for i in 1..=m {
        cur[0] = f64::INFINITY;
        let mut row_min = f64::INFINITY;
        for j in 1..=n {
            let cost = a[i - 1].dist(&b[j - 1]);
            let best = prev[j - 1].min(prev[j]).min(cur[j - 1]);
            cur[j] = cost + best;
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

/// Vectorized DTW over arena rows: the ground-distance row fans out through
/// [`SeqValue::dist_many`], `prev[j-1].min(prev[j])` computes in SIMD
/// lanes, and the loop-carried `.min(cur[j-1])` plus the cost addition run
/// in a scalar prefix pass — the same `(prev[j-1].min(prev[j])).min(cur[j-1])`
/// association as the scalar kernel, so values and abandon decisions are
/// bit-identical (DESIGN.md §13).
fn dtw_upto_vector<V: SeqValue>(
    a: &[V],
    b: &[V],
    cutoff: f64,
    scratch: &mut crate::scratch::DpScratch,
) -> Option<f64> {
    let m = a.len();
    let n = b.len();
    let mut prev = scratch.prev.sized(n + 1);
    let mut cur = scratch.cur.sized(n + 1);
    let sub = scratch.cost.sized(n);
    prev.fill(f64::INFINITY);
    prev[0] = 0.0;
    for i in 1..=m {
        V::dist_many(&a[i - 1], b, sub);
        crate::simd::min_shift(prev, &mut cur[1..]);
        cur[0] = f64::INFINITY;
        let mut row_min = f64::INFINITY;
        for j in 1..=n {
            let c = sub[j - 1] + cur[j].min(cur[j - 1]);
            cur[j] = c;
            row_min = row_min.min(c);
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

impl<V: SeqValue> SequenceDistance<V> for Dtw {
    fn distance(&self, a: &[V], b: &[V]) -> f64 {
        dtw_upto(a, b, f64::INFINITY).expect("infinite cutoff never abandons")
    }

    fn name(&self) -> &'static str {
        "DTW"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dtw(a: &[f64], b: &[f64]) -> f64 {
        SequenceDistance::distance(&Dtw, a, b)
    }

    #[test]
    fn identical_is_zero() {
        let s = [1.0, 2.0, 3.0];
        assert_eq!(dtw(&s, &s), 0.0);
    }

    #[test]
    fn time_shift_is_free() {
        // DTW absorbs repeated samples at zero cost.
        assert_eq!(dtw(&[1.0, 5.0, 9.0], &[1.0, 5.0, 5.0, 5.0, 9.0]), 0.0);
    }

    #[test]
    fn simple_offset() {
        // Offset sequences: the optimal warping matches 1->2 (1), 2->2 (0),
        // 3->3 (0), 3->4 (1) for a total of 2 — less than the pointwise 3.
        assert_eq!(dtw(&[1.0, 2.0, 3.0], &[2.0, 3.0, 4.0]), 2.0);
    }

    #[test]
    fn symmetric() {
        let a = [0.0, 1.0, 0.5];
        let b = [1.0, 1.0];
        assert_eq!(dtw(&a, &b), dtw(&b, &a));
    }

    #[test]
    fn violates_triangle_inequality() {
        // The well-known failure: DTW(r,t) > DTW(r,s) + DTW(s,t) for these.
        let r = [0.0];
        let s = [0.0, 2.0];
        let t = [0.0, 2.0, 2.0, 2.0];
        let rt = dtw(&r, &t);
        let rs = dtw(&r, &s);
        let st = dtw(&s, &t);
        assert!(rt > rs + st, "{rt} vs {rs} + {st}");
    }

    #[test]
    fn empty_sequences() {
        assert_eq!(dtw(&[], &[]), 0.0);
        assert_eq!(dtw(&[], &[3.0, 4.0]), 7.0);
        assert_eq!(dtw(&[3.0], &[]), 3.0);
    }

    #[test]
    fn vector_path_matches_scalar_bitwise() {
        for (m, n) in [(1, 1), (4, 9), (21, 13), (16, 16)] {
            let a: Vec<f64> = (0..m).map(|i| (i as f64 * 1.3).sin() * 6.0).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).cos() * 5.0).collect();
            for cutoff in [f64::INFINITY, 40.0, 5.0, 0.5, 0.0] {
                let s = dtw_upto_scalar(&a, &b, cutoff);
                let v = crate::scratch::with_dp_scratch(|sc| dtw_upto_vector(&a, &b, cutoff, sc));
                assert_eq!(
                    s.map(f64::to_bits),
                    v.map(f64::to_bits),
                    "m={m} n={n} cutoff={cutoff}"
                );
            }
        }
    }
}
