//! Order statistics over timing samples.

/// Linear-interpolated quantile of an ascending-sorted slice
/// (`q` in `[0, 1]`); 0 for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// A sample set sorted once, queried many times.
pub struct Sorted(Vec<f64>);

impl Sorted {
    pub fn new(mut v: Vec<f64>) -> Self {
        v.sort_by(f64::total_cmp);
        Sorted(v)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn p(&self, q: f64) -> f64 {
        quantile_sorted(&self.0, q)
    }

    pub fn median(&self) -> f64 {
        self.p(0.5)
    }
}

/// Median of a handful of values (set-up repeats, layer probes).
pub fn median(v: &[f64]) -> f64 {
    Sorted::new(v.to_vec()).median()
}

/// Quartiles the way Python's `statistics.quantiles(v, n=4)` computes
/// them (exclusive method), which is what the driver uses for spreads.
pub fn quartiles_exclusive(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |i: usize| -> f64 {
        // statistics.quantiles: j = i*(n+1)//4 clamped to 1..n-1,
        // delta = i*(n+1) - j*4, value = (s[j-1]*(4-delta) + s[j]*delta)/4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), (2.75, 5.5, 8.25));
        assert_eq!(Sorted::new(v.clone()).median(), 5.5);
        assert_eq!(quantile_sorted(&v, 1.0), 10.0);
    }
}
