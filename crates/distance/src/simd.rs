//! SIMD row kernels for the DP distances (DESIGN.md §13).
//!
//! The dynamic programs of EGED/DTW spend almost all of their time in two
//! shapes of work per lattice row:
//!
//! 1. *ground-distance rows* — `dist(aᵢ, bⱼ)` for a fixed `aᵢ` over all
//!    `j` (and elementwise pairs for the Lp norms);
//! 2. *combine rows* — the `min` of the two terms that depend only on the
//!    **previous** row (`replace`, `delete`). The third term (`add`) carries
//!    a loop dependency on the current row and stays scalar; splitting the
//!    recurrence this way preserves the exact association
//!    `(replace.min(delete)).min(add)` of the scalar kernel, so results are
//!    bit-identical (IEEE add/sub/mul/min are exact deterministic
//!    operations regardless of lane count).
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
//! The pre-SIMD scalar DPs survive as `#[cfg(test)]` references next to
//! their kernels (`eged_dp_upto_scalar`, `dtw_upto_scalar`); the unit tests
//! there pin the vector paths to them bit for bit, call by call.

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

/// `out[i] = (a[i] - b[i]).abs()` — elementwise f64 pair distances (Lp).
pub(crate) fn dist_abs_pairs(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert!(a.len() == out.len() && b.len() == out.len());
    #[cfg(target_arch = "x86_64")]
    {
        if x86::avx_available() {
            // SAFETY: AVX support verified at runtime; slices equal length.
            unsafe { x86::dist_abs_pairs_avx(a, b, out) };
        } else {
            // SAFETY: SSE2 is part of the x86_64 baseline.
            unsafe { x86::dist_abs_pairs_sse2(a, b, out) };
        }
        return;
    }
    #[cfg(target_arch = "aarch64")]
    {
        // SAFETY: NEON is part of the aarch64 baseline.
        unsafe { neon::dist_abs_pairs_neon(a, b, out) };
        return;
    }
    #[allow(unreachable_code)]
    scalar::dist_abs_pairs(a, b, out)
}

/// EGED combine with a constant delete cost:
/// `out[j] = (prev[j] + sub[j]).min(prev[j + 1] + del)`.
///
/// `prev` is one longer than `out`/`sub` (the DP row has `n + 1` cells).
pub(crate) fn combine_const(prev: &[f64], sub: &[f64], del: f64, out: &mut [f64]) {
    debug_assert!(prev.len() == out.len() + 1 && sub.len() == out.len());
    #[cfg(target_arch = "x86_64")]
    {
        if x86::avx_available() {
            // SAFETY: AVX support verified at runtime; lengths asserted.
            unsafe { x86::combine_const_avx(prev, sub, del, out) };
        } else {
            // SAFETY: SSE2 is part of the x86_64 baseline.
            unsafe { x86::combine_const_sse2(prev, sub, del, out) };
        }
        return;
    }
    #[cfg(target_arch = "aarch64")]
    {
        // SAFETY: NEON is part of the aarch64 baseline.
        unsafe { neon::combine_const_neon(prev, sub, del, out) };
        return;
    }
    #[allow(unreachable_code)]
    scalar::combine_const(prev, sub, del, out)
}

/// EGED combine with per-cell delete costs:
/// `out[j] = (prev[j] + sub[j]).min(prev[j + 1] + del[j])`.
pub(crate) fn combine_rows(prev: &[f64], sub: &[f64], del: &[f64], out: &mut [f64]) {
    debug_assert!(prev.len() == out.len() + 1 && sub.len() == out.len() && del.len() == out.len());
    #[cfg(target_arch = "x86_64")]
    {
        if x86::avx_available() {
            // SAFETY: AVX support verified at runtime; lengths asserted.
            unsafe { x86::combine_rows_avx(prev, sub, del, out) };
        } else {
            // SAFETY: SSE2 is part of the x86_64 baseline.
            unsafe { x86::combine_rows_sse2(prev, sub, del, out) };
        }
        return;
    }
    #[cfg(target_arch = "aarch64")]
    {
        // SAFETY: NEON is part of the aarch64 baseline.
        unsafe { neon::combine_rows_neon(prev, sub, del, out) };
        return;
    }
    #[allow(unreachable_code)]
    scalar::combine_rows(prev, sub, del, out)
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

    pub(super) fn dist_abs_pairs(a: &[f64], b: &[f64], out: &mut [f64]) {
        for ((x, y), d) in a.iter().zip(b).zip(out.iter_mut()) {
            *d = (x - y).abs();
        }
    }

    pub(super) fn combine_const(prev: &[f64], sub: &[f64], del: f64, out: &mut [f64]) {
        for j in 0..out.len() {
            out[j] = (prev[j] + sub[j]).min(prev[j + 1] + del);
        }
    }

    pub(super) fn combine_rows(prev: &[f64], sub: &[f64], del: &[f64], out: &mut [f64]) {
        for j in 0..out.len() {
            out[j] = (prev[j] + sub[j]).min(prev[j + 1] + del[j]);
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

    pub(super) unsafe fn dist_abs_pairs_sse2(a: &[f64], b: &[f64], out: &mut [f64]) {
        let n = out.len();
        let sign = _mm_set1_pd(SIGN);
        let mut j = 0;
        while j + 2 <= n {
            let x = _mm_loadu_pd(a.as_ptr().add(j));
            let y = _mm_loadu_pd(b.as_ptr().add(j));
            let d = _mm_andnot_pd(sign, _mm_sub_pd(x, y));
            _mm_storeu_pd(out.as_mut_ptr().add(j), d);
            j += 2;
        }
        scalar::dist_abs_pairs(&a[j..], &b[j..], &mut out[j..]);
    }

    #[target_feature(enable = "avx")]
    pub(super) unsafe fn dist_abs_pairs_avx(a: &[f64], b: &[f64], out: &mut [f64]) {
        let n = out.len();
        let sign = _mm256_set1_pd(SIGN);
        let mut j = 0;
        while j + 4 <= n {
            let x = _mm256_loadu_pd(a.as_ptr().add(j));
            let y = _mm256_loadu_pd(b.as_ptr().add(j));
            let d = _mm256_andnot_pd(sign, _mm256_sub_pd(x, y));
            _mm256_storeu_pd(out.as_mut_ptr().add(j), d);
            j += 4;
        }
        scalar::dist_abs_pairs(&a[j..], &b[j..], &mut out[j..]);
    }

    pub(super) unsafe fn combine_const_sse2(prev: &[f64], sub: &[f64], del: f64, out: &mut [f64]) {
        let n = out.len();
        let dv = _mm_set1_pd(del);
        let mut j = 0;
        while j + 2 <= n {
            let p0 = _mm_loadu_pd(prev.as_ptr().add(j));
            let p1 = _mm_loadu_pd(prev.as_ptr().add(j + 1));
            let s = _mm_loadu_pd(sub.as_ptr().add(j));
            let replace = _mm_add_pd(p0, s);
            let delete = _mm_add_pd(p1, dv);
            _mm_storeu_pd(out.as_mut_ptr().add(j), _mm_min_pd(replace, delete));
            j += 2;
        }
        scalar::combine_const(&prev[j..], &sub[j..], del, &mut out[j..]);
    }

    #[target_feature(enable = "avx")]
    pub(super) unsafe fn combine_const_avx(prev: &[f64], sub: &[f64], del: f64, out: &mut [f64]) {
        let n = out.len();
        let dv = _mm256_set1_pd(del);
        let mut j = 0;
        while j + 4 <= n {
            let p0 = _mm256_loadu_pd(prev.as_ptr().add(j));
            let p1 = _mm256_loadu_pd(prev.as_ptr().add(j + 1));
            let s = _mm256_loadu_pd(sub.as_ptr().add(j));
            let replace = _mm256_add_pd(p0, s);
            let delete = _mm256_add_pd(p1, dv);
            _mm256_storeu_pd(out.as_mut_ptr().add(j), _mm256_min_pd(replace, delete));
            j += 4;
        }
        scalar::combine_const(&prev[j..], &sub[j..], del, &mut out[j..]);
    }

    pub(super) unsafe fn combine_rows_sse2(
        prev: &[f64],
        sub: &[f64],
        del: &[f64],
        out: &mut [f64],
    ) {
        let n = out.len();
        let mut j = 0;
        while j + 2 <= n {
            let p0 = _mm_loadu_pd(prev.as_ptr().add(j));
            let p1 = _mm_loadu_pd(prev.as_ptr().add(j + 1));
            let s = _mm_loadu_pd(sub.as_ptr().add(j));
            let d = _mm_loadu_pd(del.as_ptr().add(j));
            let replace = _mm_add_pd(p0, s);
            let delete = _mm_add_pd(p1, d);
            _mm_storeu_pd(out.as_mut_ptr().add(j), _mm_min_pd(replace, delete));
            j += 2;
        }
        scalar::combine_rows(&prev[j..], &sub[j..], &del[j..], &mut out[j..]);
    }

    #[target_feature(enable = "avx")]
    pub(super) unsafe fn combine_rows_avx(prev: &[f64], sub: &[f64], del: &[f64], out: &mut [f64]) {
        let n = out.len();
        let mut j = 0;
        while j + 4 <= n {
            let p0 = _mm256_loadu_pd(prev.as_ptr().add(j));
            let p1 = _mm256_loadu_pd(prev.as_ptr().add(j + 1));
            let s = _mm256_loadu_pd(sub.as_ptr().add(j));
            let d = _mm256_loadu_pd(del.as_ptr().add(j));
            let replace = _mm256_add_pd(p0, s);
            let delete = _mm256_add_pd(p1, d);
            _mm256_storeu_pd(out.as_mut_ptr().add(j), _mm256_min_pd(replace, delete));
            j += 4;
        }
        scalar::combine_rows(&prev[j..], &sub[j..], &del[j..], &mut out[j..]);
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

    pub(super) unsafe fn dist_abs_pairs_neon(a: &[f64], b: &[f64], out: &mut [f64]) {
        let n = out.len();
        let mut j = 0;
        while j + 2 <= n {
            let x = vld1q_f64(a.as_ptr().add(j));
            let y = vld1q_f64(b.as_ptr().add(j));
            vst1q_f64(out.as_mut_ptr().add(j), vabsq_f64(vsubq_f64(x, y)));
            j += 2;
        }
        scalar::dist_abs_pairs(&a[j..], &b[j..], &mut out[j..]);
    }

    pub(super) unsafe fn combine_const_neon(prev: &[f64], sub: &[f64], del: f64, out: &mut [f64]) {
        let n = out.len();
        let dv = vdupq_n_f64(del);
        let mut j = 0;
        while j + 2 <= n {
            let p0 = vld1q_f64(prev.as_ptr().add(j));
            let p1 = vld1q_f64(prev.as_ptr().add(j + 1));
            let s = vld1q_f64(sub.as_ptr().add(j));
            let replace = vaddq_f64(p0, s);
            let delete = vaddq_f64(p1, dv);
            vst1q_f64(out.as_mut_ptr().add(j), vminq_f64(replace, delete));
            j += 2;
        }
        scalar::combine_const(&prev[j..], &sub[j..], del, &mut out[j..]);
    }

    pub(super) unsafe fn combine_rows_neon(
        prev: &[f64],
        sub: &[f64],
        del: &[f64],
        out: &mut [f64],
    ) {
        let n = out.len();
        let mut j = 0;
        while j + 2 <= n {
            let p0 = vld1q_f64(prev.as_ptr().add(j));
            let p1 = vld1q_f64(prev.as_ptr().add(j + 1));
            let s = vld1q_f64(sub.as_ptr().add(j));
            let d = vld1q_f64(del.as_ptr().add(j));
            let replace = vaddq_f64(p0, s);
            let delete = vaddq_f64(p1, d);
            vst1q_f64(out.as_mut_ptr().add(j), vminq_f64(replace, delete));
            j += 2;
        }
        scalar::combine_rows(&prev[j..], &sub[j..], &del[j..], &mut out[j..]);
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
    fn dist_abs_pairs_matches_scalar_at_every_length() {
        for n in 0..35 {
            let a = vals(n);
            let b: Vec<f64> = a.iter().map(|x| 7.5 - x).collect();
            let mut fast = vec![0.0; n];
            let mut slow = vec![0.0; n];
            dist_abs_pairs(&a, &b, &mut fast);
            scalar::dist_abs_pairs(&a, &b, &mut slow);
            for (x, y) in fast.iter().zip(&slow) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn combine_kernels_match_scalar_at_every_length() {
        for n in 0..35 {
            let prev = vals(n + 1);
            let sub = vals(n);
            let del: Vec<f64> = sub.iter().map(|x| x * 0.31 + 0.07).collect();
            let mut fast = vec![0.0; n];
            let mut slow = vec![0.0; n];
            combine_const(&prev, &sub, 0.42, &mut fast);
            scalar::combine_const(&prev, &sub, 0.42, &mut slow);
            assert_eq!(fast, slow, "combine_const n={n}");
            combine_rows(&prev, &sub, &del, &mut fast);
            scalar::combine_rows(&prev, &sub, &del, &mut slow);
            assert_eq!(fast, slow, "combine_rows n={n}");
            min_shift(&prev, &mut fast);
            scalar::min_shift(&prev, &mut slow);
            assert_eq!(fast, slow, "min_shift n={n}");
        }
    }
}
