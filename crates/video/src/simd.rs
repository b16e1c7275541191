//! Integer SIMD kernels for the segmentation hot path.
//!
//! The box blur's vertical pass is a pair of element-wise `u32` running-sum
//! sweeps (`colsum += row`, `colsum -= row`) over contiguous channel
//! slices. Integer lane addition is exact, so the vectorized sweeps are
//! bit-identical to the scalar loops for every input; the final `sum / n`
//! division stays scalar (see `segment::box_blur`).
//!
//! Tiers: SSE2 on `x86_64` (baseline, always present), NEON on `aarch64`,
//! and a scalar fallback that doubles as the tail handler for the vector
//! bodies and as the reference the unit tests below compare against.

/// `dst[i] += src[i]` over equal-length slices.
pub(crate) fn add_assign_u32(dst: &mut [u32], src: &[u32]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    {
        unsafe { x86::add_assign_sse2(dst, src) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    {
        unsafe { neon::add_assign(dst, src) };
        return;
    }
    #[allow(unreachable_code)]
    scalar::add_assign(dst, src)
}

/// Calls `f(i)` for every index with `a[i] != b[i]`, in ascending order.
///
/// The mode filter's interior slide compares the outgoing and incoming
/// window columns, which are equal almost everywhere away from region
/// boundaries; the vector body burns through the all-equal spans four
/// lanes per compare and falls into the callback only on real diffs.
/// Visit order and callback arguments are identical to the scalar loop,
/// so histogram updates driven by this kernel stay byte-identical.
pub(crate) fn for_each_diff_u32(a: &[u32], b: &[u32], mut f: impl FnMut(usize)) {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    {
        unsafe { x86::for_each_diff_sse2(a, b, &mut f) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    {
        unsafe { neon::for_each_diff(a, b, &mut f) };
        return;
    }
    #[allow(unreachable_code)]
    scalar::for_each_diff(a, b, 0, &mut f)
}

/// `dst[i] -= src[i]` over equal-length slices.
pub(crate) fn sub_assign_u32(dst: &mut [u32], src: &[u32]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    {
        unsafe { x86::sub_assign_sse2(dst, src) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    {
        unsafe { neon::sub_assign(dst, src) };
        return;
    }
    #[allow(unreachable_code)]
    scalar::sub_assign(dst, src)
}

/// Scalar reference sweeps — the portable fallback and the tail handler
/// for the vector bodies.
mod scalar {
    pub(crate) fn add_assign(dst: &mut [u32], src: &[u32]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }

    pub(crate) fn sub_assign(dst: &mut [u32], src: &[u32]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d -= s;
        }
    }

    /// Diff walk from `base` (the vector bodies hand their tails here with
    /// the absolute starting index). Inlined: at small radii the mode
    /// filter's window columns are shorter than a vector, so this tail *is*
    /// the per-pixel walk and a call per pixel would dominate it.
    #[inline(always)]
    pub(crate) fn for_each_diff(a: &[u32], b: &[u32], base: usize, f: &mut impl FnMut(usize)) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            if x != y {
                f(base + i);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// # Safety
    /// SSE2 is part of the `x86_64` baseline; slices must be equal length
    /// (checked by the caller).
    pub(super) unsafe fn add_assign_sse2(dst: &mut [u32], src: &[u32]) {
        let n = dst.len();
        let mut i = 0;
        while i + 4 <= n {
            let d = _mm_loadu_si128(dst.as_ptr().add(i) as *const __m128i);
            let s = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
            _mm_storeu_si128(dst.as_mut_ptr().add(i) as *mut __m128i, _mm_add_epi32(d, s));
            i += 4;
        }
        super::scalar::add_assign(&mut dst[i..], &src[i..]);
    }

    /// # Safety
    /// See [`add_assign_sse2`].
    pub(super) unsafe fn for_each_diff_sse2(a: &[u32], b: &[u32], f: &mut impl FnMut(usize)) {
        let n = a.len();
        let mut i = 0;
        while i + 4 <= n {
            let va = _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(i) as *const __m128i);
            let mask = _mm_movemask_epi8(_mm_cmpeq_epi32(va, vb)) as u32;
            if mask != 0xFFFF {
                // Each u32 lane contributes 4 mask bits; a lane differs iff
                // its nibble is not all-ones. Lanes are checked low-to-high
                // to preserve the scalar visit order.
                for lane in 0..4 {
                    if (mask >> (4 * lane)) & 0xF != 0xF {
                        f(i + lane);
                    }
                }
            }
            i += 4;
        }
        super::scalar::for_each_diff(&a[i..], &b[i..], i, f);
    }

    /// # Safety
    /// See [`add_assign_sse2`].
    pub(super) unsafe fn sub_assign_sse2(dst: &mut [u32], src: &[u32]) {
        let n = dst.len();
        let mut i = 0;
        while i + 4 <= n {
            let d = _mm_loadu_si128(dst.as_ptr().add(i) as *const __m128i);
            let s = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
            _mm_storeu_si128(dst.as_mut_ptr().add(i) as *mut __m128i, _mm_sub_epi32(d, s));
            i += 4;
        }
        super::scalar::sub_assign(&mut dst[i..], &src[i..]);
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    /// # Safety
    /// NEON is part of the `aarch64` baseline; slices must be equal length.
    pub(super) unsafe fn add_assign(dst: &mut [u32], src: &[u32]) {
        let n = dst.len();
        let mut i = 0;
        while i + 4 <= n {
            let d = vld1q_u32(dst.as_ptr().add(i));
            let s = vld1q_u32(src.as_ptr().add(i));
            vst1q_u32(dst.as_mut_ptr().add(i), vaddq_u32(d, s));
            i += 4;
        }
        super::scalar::add_assign(&mut dst[i..], &src[i..]);
    }

    /// # Safety
    /// See [`add_assign`].
    pub(super) unsafe fn for_each_diff(a: &[u32], b: &[u32], f: &mut impl FnMut(usize)) {
        let n = a.len();
        let mut i = 0;
        while i + 4 <= n {
            let va = vld1q_u32(a.as_ptr().add(i));
            let vb = vld1q_u32(b.as_ptr().add(i));
            // Narrow the 32-bit equality masks to 16 bits and read all four
            // as one u64: all-ones means the whole group is equal.
            let eq = vmovn_u32(vceqq_u32(va, vb));
            let packed = vget_lane_u64::<0>(vreinterpret_u64_u16(eq));
            if packed != u64::MAX {
                for lane in 0..4 {
                    if (packed >> (16 * lane)) & 0xFFFF != 0xFFFF {
                        f(i + lane);
                    }
                }
            }
            i += 4;
        }
        super::scalar::for_each_diff(&a[i..], &b[i..], i, f);
    }

    /// # Safety
    /// See [`add_assign`].
    pub(super) unsafe fn sub_assign(dst: &mut [u32], src: &[u32]) {
        let n = dst.len();
        let mut i = 0;
        while i + 4 <= n {
            let d = vld1q_u32(dst.as_ptr().add(i));
            let s = vld1q_u32(src.as_ptr().add(i));
            vst1q_u32(dst.as_mut_ptr().add(i), vsubq_u32(d, s));
            i += 4;
        }
        super::scalar::sub_assign(&mut dst[i..], &src[i..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_walk_matches_scalar_at_all_lengths() {
        for n in 0..35usize {
            let a: Vec<u32> = (0..n as u32).map(|i| i % 7).collect();
            // Differ at every index divisible by 3 or 5 (mixes isolated
            // diffs, runs, and all-equal groups across lane boundaries).
            let b: Vec<u32> = a
                .iter()
                .enumerate()
                .map(|(i, &v)| if i % 3 == 0 || i % 5 == 0 { v + 1 } else { v })
                .collect();
            let mut fast = Vec::new();
            for_each_diff_u32(&a, &b, |i| fast.push(i));
            let mut reference = Vec::new();
            scalar::for_each_diff(&a, &b, 0, &mut |i| reference.push(i));
            assert_eq!(fast, reference, "n={n}");
        }
    }

    #[test]
    fn sweeps_match_scalar_at_all_lengths() {
        for n in 0..35usize {
            let src: Vec<u32> = (0..n as u32).map(|i| i * 977 + 13).collect();
            let mut a: Vec<u32> = (0..n as u32).map(|i| i * 31 + 100_000).collect();
            let mut b = a.clone();
            add_assign_u32(&mut a, &src);
            scalar::add_assign(&mut b, &src);
            assert_eq!(a, b, "add n={n}");
            sub_assign_u32(&mut a, &src);
            scalar::sub_assign(&mut b, &src);
            assert_eq!(a, b, "sub n={n}");
        }
    }
}
