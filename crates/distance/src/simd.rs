//! SIMD row kernels for the row-staged DP distances (DESIGN.md §13).
//!
//! What is left here after the EGED lattice moved to its anti-diagonal
//! wavefront (`eged.rs`, safe Rust, no intrinsics) is the two row shapes
//! DTW still stages:
//!
//! 1. *ground-distance rows* — `|q - xⱼ|` for a fixed `q` over all `j`
//!    (`f64`'s [`crate::SeqValue::dist_many`]);
//! 2. *shifted minima* — `prev[j].min(prev[j + 1])`, the part of DTW's
//!    recurrence that depends only on the **previous** row. The third term
//!    carries a loop dependency on the current row and stays scalar;
//!    splitting the recurrence this way preserves the scalar kernel's
//!    association, so results are bit-identical (IEEE sub/abs/min are exact
//!    deterministic operations regardless of lane count).
//!
//! Lanes: 4×f64 AVX when the CPU reports it, else 2×f64 SSE2 (part of the
//! x86_64 baseline), 2×f64 NEON on aarch64, and a plain scalar loop
//! elsewhere — which also serves as the tail handler for the remainder
//! elements on every architecture.
//!
//! NaN caveat: `_mm_min_pd`/`vminq_f64` propagate NaN from either operand,
//! while `f64::min` prefers the non-NaN one. All DP inputs are
//! non-negative sums of ground distances, so NaN can only appear if a
//! `SeqValue::dist` implementation produces one — outside the metric
//! contract. Finite inputs round identically on every path.
//!
//! The pre-SIMD scalar DTW survives as a `#[cfg(test)]` reference next to
//! its kernel (`dtw_upto_scalar`); the unit test there pins the vector
//! path to it bit for bit, call by call.

/// `out[i] = (q - xs[i]).abs()` — the f64 ground-distance row.
pub(crate) fn dist_abs_many(q: f64, xs: &[f64], out: &mut [f64]) {
    debug_assert_eq!(xs.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    {
        if x86::avx_available() {
            // SAFETY: AVX support verified at runtime; slices equal length.
            unsafe { x86::dist_abs_many_avx(q, xs, out) };
        } else {
            // SAFETY: SSE2 is part of the x86_64 baseline.
            unsafe { x86::dist_abs_many_sse2(q, xs, out) };
        }
        return;
    }
    #[cfg(target_arch = "aarch64")]
    {
        // SAFETY: NEON is part of the aarch64 baseline.
        unsafe { neon::dist_abs_many_neon(q, xs, out) };
        return;
    }
    #[allow(unreachable_code)]
    scalar::dist_abs_many(q, xs, out)
}

/// DTW shifted minimum: `out[j] = prev[j].min(prev[j + 1])`.
pub(crate) fn min_shift(prev: &[f64], out: &mut [f64]) {
    debug_assert_eq!(prev.len(), out.len() + 1);
    #[cfg(target_arch = "x86_64")]
    {
        if x86::avx_available() {
            // SAFETY: AVX support verified at runtime; lengths asserted.
            unsafe { x86::min_shift_avx(prev, out) };
        } else {
            // SAFETY: SSE2 is part of the x86_64 baseline.
            unsafe { x86::min_shift_sse2(prev, out) };
        }
        return;
    }
    #[cfg(target_arch = "aarch64")]
    {
        // SAFETY: NEON is part of the aarch64 baseline.
        unsafe { neon::min_shift_neon(prev, out) };
        return;
    }
    #[allow(unreachable_code)]
    scalar::min_shift(prev, out)
}

/// Scalar reference kernels — the portable fallback and the tail handler
/// the vector bodies delegate their remainder elements to.
mod scalar {
    pub(super) fn dist_abs_many(q: f64, xs: &[f64], out: &mut [f64]) {
        for (x, d) in xs.iter().zip(out.iter_mut()) {
            *d = (q - x).abs();
        }
    }

    pub(super) fn min_shift(prev: &[f64], out: &mut [f64]) {
        for j in 0..out.len() {
            out[j] = prev[j].min(prev[j + 1]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::scalar;
    use std::arch::x86_64::*;

    pub(super) fn avx_available() -> bool {
        // std caches the CPUID probe behind an atomic, so this is a load.
        is_x86_feature_detected!("avx")
    }

    /// Sign-bit mask for `abs` via ANDNOT — exact, same bits as `f64::abs`.
    const SIGN: f64 = -0.0;

    pub(super) unsafe fn dist_abs_many_sse2(q: f64, xs: &[f64], out: &mut [f64]) {
        let n = out.len();
        let qv = _mm_set1_pd(q);
        let sign = _mm_set1_pd(SIGN);
        let mut j = 0;
        while j + 2 <= n {
            let x = _mm_loadu_pd(xs.as_ptr().add(j));
            let d = _mm_andnot_pd(sign, _mm_sub_pd(qv, x));
            _mm_storeu_pd(out.as_mut_ptr().add(j), d);
            j += 2;
        }
        scalar::dist_abs_many(q, &xs[j..], &mut out[j..]);
    }

    #[target_feature(enable = "avx")]
    pub(super) unsafe fn dist_abs_many_avx(q: f64, xs: &[f64], out: &mut [f64]) {
        let n = out.len();
        let qv = _mm256_set1_pd(q);
        let sign = _mm256_set1_pd(SIGN);
        let mut j = 0;
        while j + 4 <= n {
            let x = _mm256_loadu_pd(xs.as_ptr().add(j));
            let d = _mm256_andnot_pd(sign, _mm256_sub_pd(qv, x));
            _mm256_storeu_pd(out.as_mut_ptr().add(j), d);
            j += 4;
        }
        scalar::dist_abs_many(q, &xs[j..], &mut out[j..]);
    }

    pub(super) unsafe fn min_shift_sse2(prev: &[f64], out: &mut [f64]) {
        let n = out.len();
        let mut j = 0;
        while j + 2 <= n {
            let p0 = _mm_loadu_pd(prev.as_ptr().add(j));
            let p1 = _mm_loadu_pd(prev.as_ptr().add(j + 1));
            _mm_storeu_pd(out.as_mut_ptr().add(j), _mm_min_pd(p0, p1));
            j += 2;
        }
        scalar::min_shift(&prev[j..], &mut out[j..]);
    }

    #[target_feature(enable = "avx")]
    pub(super) unsafe fn min_shift_avx(prev: &[f64], out: &mut [f64]) {
        let n = out.len();
        let mut j = 0;
        while j + 4 <= n {
            let p0 = _mm256_loadu_pd(prev.as_ptr().add(j));
            let p1 = _mm256_loadu_pd(prev.as_ptr().add(j + 1));
            _mm256_storeu_pd(out.as_mut_ptr().add(j), _mm256_min_pd(p0, p1));
            j += 4;
        }
        scalar::min_shift(&prev[j..], &mut out[j..]);
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::scalar;
    use std::arch::aarch64::*;

    pub(super) unsafe fn dist_abs_many_neon(q: f64, xs: &[f64], out: &mut [f64]) {
        let n = out.len();
        let qv = vdupq_n_f64(q);
        let mut j = 0;
        while j + 2 <= n {
            let x = vld1q_f64(xs.as_ptr().add(j));
            vst1q_f64(out.as_mut_ptr().add(j), vabsq_f64(vsubq_f64(qv, x)));
            j += 2;
        }
        scalar::dist_abs_many(q, &xs[j..], &mut out[j..]);
    }

    pub(super) unsafe fn min_shift_neon(prev: &[f64], out: &mut [f64]) {
        let n = out.len();
        let mut j = 0;
        while j + 2 <= n {
            let p0 = vld1q_f64(prev.as_ptr().add(j));
            let p1 = vld1q_f64(prev.as_ptr().add(j + 1));
            vst1q_f64(out.as_mut_ptr().add(j), vminq_f64(p0, p1));
            j += 2;
        }
        scalar::min_shift(&prev[j..], &mut out[j..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.73 - 3.1).abs() * 1.37)
            .collect()
    }

    #[test]
    fn dist_abs_many_matches_scalar_at_every_length() {
        for n in 0..35 {
            let xs = vals(n);
            let mut fast = vec![0.0; n];
            let mut slow = vec![0.0; n];
            dist_abs_many(2.25, &xs, &mut fast);
            scalar::dist_abs_many(2.25, &xs, &mut slow);
            for (a, b) in fast.iter().zip(&slow) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn min_shift_matches_scalar_at_every_length() {
        for n in 0..35 {
            let prev = vals(n + 1);
            let mut fast = vec![0.0; n];
            let mut slow = vec![0.0; n];
            min_shift(&prev, &mut fast);
            scalar::min_shift(&prev, &mut slow);
            assert_eq!(fast, slow, "min_shift n={n}");
        }
    }
}
