//! Linear resampling, which the cluster centroid computation uses to bring
//! sequences of different lengths onto one common length.

use crate::value::SeqValue;
use strg_graph::Point2;

/// Linearly resamples `seq` to exactly `len` samples.
///
/// Endpoints are preserved; interior samples are interpolated at uniform
/// parameter spacing. An empty input yields a sequence of origins; a
/// singleton is repeated.
pub fn resample<V: SeqValue + Lerp>(seq: &[V], len: usize) -> Vec<V> {
    if len == 0 {
        return Vec::new();
    }
    match seq.len() {
        0 => vec![V::origin(); len],
        1 => vec![seq[0]; len],
        n => {
            if len == 1 {
                return vec![seq[0]];
            }
            (0..len)
                .map(|i| {
                    let t = i as f64 / (len - 1) as f64 * (n - 1) as f64;
                    let lo = t.floor() as usize;
                    let hi = (lo + 1).min(n - 1);
                    seq[lo].lerp(&seq[hi], t - lo as f64)
                })
                .collect()
        }
    }
}

/// Linear interpolation between two sequence elements.
pub trait Lerp: Sized {
    /// Value at parameter `t` between `self` (`t = 0`) and `other`
    /// (`t = 1`).
    fn lerp(&self, other: &Self, t: f64) -> Self;
}

impl Lerp for f64 {
    fn lerp(&self, other: &Self, t: f64) -> Self {
        self + (other - self) * t
    }
}

impl Lerp for Point2 {
    fn lerp(&self, other: &Self, t: f64) -> Self {
        Point2::lerp(*self, *other, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resample_preserves_endpoints() {
        let s = [0.0, 10.0];
        let r = resample(&s, 5);
        assert_eq!(r, vec![0.0, 2.5, 5.0, 7.5, 10.0]);
        assert_eq!(resample(&s, 2), vec![0.0, 10.0]);
    }

    #[test]
    fn resample_degenerate_inputs() {
        let e: [f64; 0] = [];
        assert_eq!(resample(&e, 3), vec![0.0, 0.0, 0.0]);
        assert_eq!(resample(&[7.0], 3), vec![7.0, 7.0, 7.0]);
        assert_eq!(resample(&[1.0, 2.0], 1), vec![1.0]);
        assert!(resample(&[1.0, 2.0], 0).is_empty());
    }

    #[test]
    fn resample_downsamples() {
        let s = [0.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(resample(&s, 3), vec![0.0, 2.0, 4.0]);
    }
}
