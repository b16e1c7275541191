//! Offline stand-in for the subset of the `rand` 0.8 API this workspace
//! uses. The container that builds this repo has no network access to
//! crates.io, so the workspace vendors a tiny, dependency-free
//! implementation with the same method names and generic signatures:
//!
//! * [`rngs::StdRng`] — a deterministic `xoshiro256**` generator,
//! * [`SeedableRng::seed_from_u64`] / [`SeedableRng::from_seed`],
//! * [`Rng::gen`], [`Rng::gen_range`], [`Rng::gen_bool`],
//! * [`seq::SliceRandom::shuffle`] / [`seq::SliceRandom::choose`],
//! * [`thread_rng`] / [`random`].
//!
//! The streams differ from upstream `rand` (no ChaCha here), but every
//! consumer in this repo seeds explicitly and only relies on *determinism*,
//! not on a particular stream.

#![forbid(unsafe_code)]

/// Low-level source of randomness: the object-safe core trait.
pub trait RngCore {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A random number generator seedable from a fixed-size byte array or a
/// single `u64`.
pub trait SeedableRng: Sized {
    /// The seed type (a byte array for [`rngs::StdRng`]).
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a single `u64`, expanded with SplitMix64
    /// exactly like upstream `rand` expands small seeds.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let v = splitmix64(&mut sm).to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
        Self::from_seed(seed)
    }

    /// Builds the generator from OS-independent entropy (the current time).
    fn from_entropy() -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e3779b97f4a7c15);
        Self::seed_from_u64(nanos)
    }
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Values producible uniformly at random by [`Rng::gen`].
pub trait StandardValue {
    /// Draws one value from `rng`.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardValue for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardValue for f32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl StandardValue for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardValue for $t {
            fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as $u).wrapping_sub(self.start as $u);
                self.start.wrapping_add((rng.next_u64() as $u % span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as $u).wrapping_sub(lo as $u).wrapping_add(1);
                if span == 0 {
                    // Full domain.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() as $u % span) as $t)
            }
        }
    )*};
}
impl_int_range!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
                i8 => u64, i16 => u64, i32 => u64, i64 => u64, isize => u64);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let u = <$t as StandardValue>::draw(rng);
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let u = <$t as StandardValue>::draw(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}
impl_float_range!(f32, f64);

/// User-facing random-value methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform value of type `T` (floats in [0, 1)).
    fn gen<T: StandardValue>(&mut self) -> T {
        T::draw(self)
    }

    /// Uniform value in `range`.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        <f64 as StandardValue>::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// Deterministic `xoshiro256**` generator: the stand-in for
    /// `rand::rngs::StdRng`.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks(8).enumerate() {
                let mut b = [0u8; 8];
                b.copy_from_slice(chunk);
                s[i] = u64::from_le_bytes(b);
            }
            // All-zero state would be a fixed point; nudge it.
            if s == [0; 4] {
                s = [
                    0x9e3779b97f4a7c15,
                    0x6a09e667f3bcc909,
                    0xbb67ae8584caa73b,
                    0x3c6ef372fe94f82b,
                ];
            }
            Self { s }
        }
    }

    /// Alias used by callers that spell out the small generator.
    pub type SmallRng = StdRng;
}

pub mod seq {
    //! Slice shuffling and sampling.

    use super::{Rng, RngCore};

    /// Extension methods on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly chosen element, `None` when empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

/// A fresh time-seeded generator (no thread-local caching — callers in this
/// repo only use it for non-reproducible smoke paths).
pub fn thread_rng() -> rngs::StdRng {
    <rngs::StdRng as SeedableRng>::from_entropy()
}

/// One value from a fresh time-seeded generator.
pub fn random<T: StandardValue>() -> T {
    T::draw(&mut thread_rng())
}

/// `rand::prelude` stand-in.
pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{random, thread_rng, Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(3..10);
            assert!((3..10).contains(&v));
            let f = rng.gen_range(-2.0..=2.0);
            assert!((-2.0..=2.0).contains(&f));
            let u: usize = rng.gen_range(0..1);
            assert_eq!(u, 0);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        use super::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }
}
