//! Sequence element values.
//!
//! The paper's EGED (Definition 9) treats a node as its attribute value
//! `nu(v)` and measures `|v_i - v_j|`. Object Graphs scalarize to `f64`
//! sequences, but trajectories are naturally 2-D, so every distance in this
//! crate is generic over [`SeqValue`]: anything with a metric ground
//! distance and an origin (the fixed constant gap of Theorem 2). The
//! non-metric midpoint gap needs no midpoint element: it costs half the
//! ground distance.

use strg_graph::Point2;

/// An element of a time series that the sequence distances can compare.
///
/// Implementations must make [`SeqValue::dist`] a metric (non-negative,
/// symmetric, zero iff equal, triangle inequality); the metric property of
/// [`crate::EgedMetric`] (Theorem 2) is inherited from it.
///
/// Non-finite elements (NaN, `±inf`) are outside the metric contract: the
/// DP kernels order lattice cells with a plain `<`, which is only a total
/// order without NaN. Finite elements never produce one — a ground
/// distance that overflows is `+inf`, and sums and minima of non-negative
/// values keep it there — and every entry point that takes coordinates from
/// outside the program (`strg-serve`'s wire parser, the CLI) refuses
/// non-finite ones.
///
/// `Send + Sync` lets the clustering and search layers fan sequences out
/// across scoped worker threads; element values are plain `Copy` data, so
/// every sensible implementor satisfies both already.
pub trait SeqValue: Copy + std::fmt::Debug + PartialEq + Send + Sync {
    /// Ground distance between two elements (`|v_i - v_j|` in the paper).
    fn dist(&self, other: &Self) -> f64;
    /// The canonical fixed gap constant (`g`) that makes EGED a metric.
    fn origin() -> Self;
    /// Lane-wise paired distances: `out[i] = a[i].dist(&b[i])` over fixed
    /// arrays — the EGED wavefront's four cells of a step (`N = 4`). An
    /// override must produce values bit-identical to
    /// elementwise [`SeqValue::dist`] calls.
    ///
    /// Neither implementor overrides it: once `dist` inlines, `|a - b|` and
    /// `sqrt(dx² + dy²)` are straight-line IEEE operations (subtract,
    /// multiply, add, square root, each correctly rounded), which the
    /// compiler packs into whatever lanes the target has without being able
    /// to change a bit.
    #[inline]
    fn dist_pairs<const N: usize>(a: &[Self; N], b: &[Self; N]) -> [f64; N] {
        std::array::from_fn(|i| a[i].dist(&b[i]))
    }
}

impl SeqValue for f64 {
    #[inline]
    fn dist(&self, other: &Self) -> f64 {
        (self - other).abs()
    }
    fn origin() -> Self {
        0.0
    }
}

impl SeqValue for Point2 {
    #[inline]
    fn dist(&self, other: &Self) -> f64 {
        Point2::dist(*self, *other)
    }
    fn origin() -> Self {
        Point2::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_value() {
        assert_eq!(SeqValue::dist(&2.0f64, &-1.0), 3.0);
        assert_eq!(f64::origin(), 0.0);
    }

    #[test]
    fn point_value() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(SeqValue::dist(&a, &b), 5.0);
        assert_eq!(Point2::origin(), Point2::ZERO);
    }
}
