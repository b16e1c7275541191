//! Dynamic Time Warping (Gish & Ng [11]), one of the two baseline distances
//! the paper compares EGED against in Figure 5.

use crate::traits::SequenceDistance;
use crate::value::SeqValue;

/// Classic unconstrained DTW: minimum total ground-distance over monotone
/// alignments of the two sequences. Non-metric (fails the triangle
/// inequality), so it may drive clustering but not the index.
#[derive(Copy, Clone, Debug, Default)]
pub struct Dtw;

impl<V: SeqValue> SequenceDistance<V> for Dtw {
    fn distance(&self, a: &[V], b: &[V]) -> f64 {
        let m = a.len();
        let n = b.len();
        if m == 0 || n == 0 {
            // Conventional: distance to an empty sequence is the sum of
            // ground distances to the origin, so that the function stays
            // total on degenerate inputs. Folded from `+0.0`: `sum()` starts
            // from `-0.0`, which `total_cmp` orders below every other zero.
            let rest = if m == 0 { b } else { a };
            return rest.iter().fold(0.0, |acc, v| acc + v.dist(&V::origin()));
        }
        // The textbook recurrence, one row at a time over this thread's
        // arena rows (no allocation after warm-up).
        crate::scratch::with_dp_scratch(|s| {
            let mut prev = s.prev.sized(n + 1);
            let mut cur = s.cur.sized(n + 1);
            prev.fill(f64::INFINITY);
            prev[0] = 0.0;
            for ai in a {
                cur[0] = f64::INFINITY;
                for j in 1..=n {
                    let best = prev[j - 1].min(prev[j]).min(cur[j - 1]);
                    cur[j] = ai.dist(&b[j - 1]) + best;
                }
                std::mem::swap(&mut prev, &mut cur);
            }
            prev[n]
        })
    }

    fn name(&self) -> &'static str {
        "DTW"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strg_graph::Point2;

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
        // Positive zero, to the bit, for either value type.
        assert_eq!(dtw(&[], &[]).to_bits(), 0);
        let none: [Point2; 0] = [];
        assert_eq!(SequenceDistance::distance(&Dtw, &none, &none).to_bits(), 0);
        assert_eq!(dtw(&[], &[3.0, 4.0]), 7.0);
        assert_eq!(dtw(&[3.0], &[]), 3.0);
    }

    /// Sequences from exact integer arithmetic (no libm), so the table
    /// below reads the same on every target.
    fn ramp(len: usize, mul: usize, add: usize) -> Vec<f64> {
        (0..len)
            .map(|i| ((i * mul + add) % 23) as f64 * 0.37 - 4.0)
            .collect()
    }

    fn points(len: usize, mul: usize, add: usize) -> Vec<Point2> {
        ramp(len, mul, add)
            .into_iter()
            .zip(ramp(len, mul + 4, add + 9))
            .map(|(x, y)| Point2::new(x, y))
            .collect()
    }

    fn assert_golden<V: SeqValue>(a: &[V], b: &[V], bits: u64) {
        let label = format!("m={} n={}", a.len(), b.len());
        let d = SequenceDistance::distance(&Dtw, a, b);
        assert_eq!(d.to_bits(), bits, "{label}: {d}");
    }

    /// `f64::to_bits` of `Dtw.distance` as the staged, explicit-lane kernel
    /// of commit c21b775 computed it, before the textbook recurrence
    /// replaced it: `(m, n, f64 bits, Point2 bits)`. (`empty_sequences`
    /// pins the 0×0 pair to positive zero.)
    const GOLDEN: [(usize, usize, u64, u64); 5] = [
        (0, 3, 0x40170a3d70a3d70a, 0x402430af3ef1505c),
        (1, 1, 0x4007ae147ae147af, 0x4010be89b23f6ed1),
        (4, 9, 0x402fd1eb851eb852, 0x4041f9c655505014),
        (21, 13, 0x403e570a3d70a3d6, 0x404fef9d7df210b2),
        (16, 16, 0x40339c28f5c28f5d, 0x4045fd1f932498b1),
    ];

    #[test]
    fn dtw_golden_bits() {
        for (m, n, scalar_bits, point_bits) in GOLDEN {
            assert_golden(&ramp(m, 7, 3), &ramp(n, 5, 11), scalar_bits);
            assert_golden(&points(m, 7, 3), &points(n, 5, 11), point_bits);
        }
    }
}
