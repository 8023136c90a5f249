//! Offline shim for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! member provides the small, deterministic subset of the rand 0.9 API
//! that SPES uses: [`SmallRng`](rngs::SmallRng) seeded via
//! [`SeedableRng::seed_from_u64`], and the [`RngExt`] extension trait with
//! `random`, `random_range`, and `random_bool`.
//!
//! The generator is xoshiro256++ (the same family rand's `SmallRng` uses
//! on 64-bit targets), seeded through SplitMix64. Streams are stable
//! across platforms and releases of this shim; the synthetic-trace tests
//! rely on that determinism, not on any particular stream.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use std::ops::{Range, RangeInclusive};

/// Sources of randomness: the only required method is a 64-bit draw.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Deterministic seeding.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed via SplitMix64 expansion.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods, mirroring rand 0.9's `Rng`.
pub trait RngExt: RngCore {
    /// Samples a value from the standard distribution of `T`:
    /// uniform `[0, 1)` for floats, uniform over all values for integers,
    /// fair coin for `bool`.
    fn random<T: StandardUniform>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Samples uniformly from a half-open or inclusive range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        Self: Sized,
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore> RngExt for R {}

/// Legacy alias: rand 0.8 called the extension trait `Rng`.
pub use self::RngExt as Rng;

/// Types sampleable by [`RngExt::random`].
pub trait StandardUniform {
    /// Draws one value from the type's standard distribution.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardUniform for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardUniform for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardUniform for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardUniform for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Types sampleable by [`RngExt::random_range`].
pub trait SampleUniform: Copy + PartialOrd {
    /// Draws a value uniform in `[lo, hi]` (both inclusive).
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;

    /// The successor of `v`, used to turn `lo..hi` into `[lo, hi - 1]`.
    fn checked_pred(v: Self) -> Option<Self>;
}

macro_rules! impl_sample_uniform_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                debug_assert!(lo <= hi);
                let span = (hi as u64).wrapping_sub(lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                // Debiased modulo draw (rejection sampling on the top zone).
                let span = span + 1;
                let zone = u64::MAX - u64::MAX % span;
                loop {
                    let draw = rng.next_u64();
                    if draw < zone {
                        return lo + (draw % span) as $t;
                    }
                }
            }

            fn checked_pred(v: Self) -> Option<Self> {
                v.checked_sub(1)
            }
        }
    )*};
}
impl_sample_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_sint {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                // Shift into the unsigned domain to reuse the unsigned path.
                let lo_u = (lo as $u).wrapping_add(<$t>::MIN as $u);
                let hi_u = (hi as $u).wrapping_add(<$t>::MIN as $u);
                let v = <$u>::sample_inclusive(rng, lo_u, hi_u);
                v.wrapping_sub(<$t>::MIN as $u) as $t
            }

            fn checked_pred(v: Self) -> Option<Self> {
                v.checked_sub(1)
            }
        }
    )*};
}
impl_sample_uniform_sint!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl SampleUniform for f64 {
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        lo + f64::sample_standard(rng) * (hi - lo)
    }

    fn checked_pred(v: Self) -> Option<Self> {
        Some(v)
    }
}

/// Range forms accepted by [`RngExt::random_range`].
pub trait SampleRange<T> {
    /// Draws a uniform sample from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        #[expect(clippy::expect_used, reason = "start < end is asserted above")]
        let hi = T::checked_pred(self.end).expect("cannot sample empty range");
        T::sample_inclusive(rng, self.start, hi)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// A small, fast, deterministic generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    /// Alias: the shim has a single generator, quality is xoshiro-grade.
    pub type StdRng = SmallRng;

    impl SmallRng {
        fn from_state(mut sm: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            Self::from_state(seed)
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(a.random::<u64>(), c.random::<u64>());
    }

    #[test]
    fn unit_float_in_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = rng.random_range(3u32..=7);
            assert!((3..=7).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 7;
            let w = rng.random_range(0usize..5);
            assert!(w < 5);
        }
        assert!(seen_lo && seen_hi, "inclusive endpoints never drawn");
    }

    #[test]
    fn random_bool_probabilities() {
        let mut rng = SmallRng::seed_from_u64(3);
        let hits = (0..20_000).filter(|_| rng.random_bool(0.3)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((0.27..0.33).contains(&frac), "p=0.3 measured {frac}");
        assert!(!(0..100).any(|_| rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SmallRng::seed_from_u64(4);
        let _ = rng.random_range(5u32..5);
    }
}
