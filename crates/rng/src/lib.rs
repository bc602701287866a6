//! The workspace's seeded generator. Every random choice in PathRank —
//! the simulated fleet, map matching, node2vec walks, negative samples,
//! trainer shuffles — draws from [`rngs::StdRng`] seeded explicitly.
//!
//! [`rngs::StdRng`] is a xoshiro256++ generator seeded through SplitMix64.
//! The API mirrors the subset of `rand` 0.8 the workspace uses
//! ([`Rng::gen`], [`Rng::gen_range`], [`Rng::gen_bool`],
//! [`seq::SliceRandom::shuffle`], [`seq::SliceRandom::choose`]), but the
//! streams are this crate's own: they are not the real `StdRng`'s (ChaCha12).
//!
//! **The stream values are pinned.** Eleven `*golden*` tests across the
//! workspace fingerprint outputs these streams feed (the map-matching,
//! engine, CH, CCH, Yen, popularity, SGNS, workbench, OSM-fixture and
//! model goldens), and `streams_are_golden` below pins the streams
//! themselves. Any change to seeding, the generator or a sampling method
//! moves them; such a change must re-pin every one of them in the same
//! commit.
//!
//! The workspace builds with no package registry: every dependency is a
//! workspace crate. Never `cargo add` one; extend a workspace crate
//! instead.

#![warn(missing_docs)]

/// Low-level entropy source: everything else is derived from `next_u64`.
pub trait RngCore {
    /// The next 64 uniformly distributed random bits.
    fn next_u64(&mut self) -> u64;
}

/// Deterministic construction from seeds.
pub trait SeedableRng: Sized {
    /// Creates a generator whose stream is a pure function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Concrete generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Types samplable uniformly over their whole domain via [`Rng::gen`].
pub trait Standard {
    /// Draws one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}
impl Standard for u32 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}
impl Standard for usize {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}
impl Standard for bool {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}
impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($ty:ty => $wide:ty),* $(,)?) => {$(
        impl SampleRange<$ty> for core::ops::Range<$ty> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u128;
                let r = rng.next_u64() as u128 % span;
                ((self.start as $wide as u128).wrapping_add(r)) as $ty
            }
        }
        impl SampleRange<$ty> for core::ops::RangeInclusive<$ty> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u128 + 1;
                let r = rng.next_u64() as u128 % span;
                ((lo as $wide as u128).wrapping_add(r)) as $ty
            }
        }
    )*};
}

int_sample_range!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
);

macro_rules! float_sample_range {
    ($($ty:ty),* $(,)?) => {$(
        impl SampleRange<$ty> for core::ops::Range<$ty> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "gen_range: empty range");
                // Rejection keeps the half-open contract even when rounding
                // of `start + span * u` lands exactly on `end`.
                for _ in 0..8 {
                    let u = <$ty as Standard>::sample_standard(rng);
                    let v = self.start + (self.end - self.start) * u;
                    if v < self.end {
                        return v;
                    }
                }
                self.start
            }
        }
        impl SampleRange<$ty> for core::ops::RangeInclusive<$ty> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let u = <$ty as Standard>::sample_standard(rng);
                (lo + (hi - lo) * u).min(hi)
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform value over `T`'s whole domain (floats: `[0, 1)`).
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// A uniform value from `range`.
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        <f64 as Standard>::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Sequence-related helpers (`shuffle`, `choose`).
pub mod seq {
    use super::{Rng, RngCore};

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);
        /// A uniformly random element, `None` when empty.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.gen_range(0..self.len()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    use super::RngCore;

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: u32 = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let f: f64 = rng.gen_range(-2.0..3.5);
            assert!((-2.0..3.5).contains(&f));
            let i: usize = rng.gen_range(0..=4);
            assert!(i <= 4);
            let g: f32 = rng.gen_range(-0.5..0.5f32);
            assert!((-0.5..0.5f32).contains(&g));
        }
    }

    #[test]
    fn unit_floats_cover_the_interval() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        let mut sum = 0.0;
        const N: usize = 20_000;
        for _ in 0..N {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
            sum += u;
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.02, "biased mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "a 100-element shuffle staying sorted is ~impossible"
        );
    }

    #[test]
    fn choose_stays_in_slice() {
        let mut rng = StdRng::seed_from_u64(9);
        let v = [10, 20, 30];
        for _ in 0..100 {
            assert!(v.contains(v.choose(&mut rng).unwrap()));
        }
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    /// FNV-1a over a value's little-endian bytes.
    fn fnv(h: &mut u64, x: u64) {
        for b in x.to_le_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Every stream the workspace's seeded pipeline draws from, pinned in
    /// bits: raw words, integer and float ranges, `gen`, `gen_bool`,
    /// `shuffle` and `choose`. A change here re-pins the eleven `*golden*`
    /// tests downstream, so this constant must not move by accident.
    #[test]
    fn streams_are_golden() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for seed in [0u64, 1, 42] {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..1_000 {
                fnv(&mut h, rng.next_u64());
            }
        }
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            fnv(&mut h, rng.gen_range(3u32..17) as u64);
            fnv(&mut h, rng.gen_range(0usize..=4) as u64);
            fnv(&mut h, rng.gen_range(-5i32..5) as i64 as u64);
            fnv(&mut h, rng.gen_range(-9i64..=9) as u64);
            fnv(&mut h, rng.gen_range(250u8..=255) as u64);
            fnv(&mut h, rng.gen_range(-2.0f64..3.5).to_bits());
            fnv(&mut h, rng.gen_range(0.0f64..=1.0).to_bits());
            fnv(&mut h, rng.gen_range(-0.5f32..0.5).to_bits() as u64);
            fnv(&mut h, rng.gen::<f64>().to_bits());
            fnv(&mut h, rng.gen::<f32>().to_bits() as u64);
            fnv(&mut h, rng.gen::<u32>() as u64);
            fnv(&mut h, rng.gen::<usize>() as u64);
            fnv(&mut h, rng.gen::<bool>() as u64);
            fnv(&mut h, rng.gen_bool(0.3) as u64);
        }
        let mut v: Vec<u32> = (0..257).collect();
        for _ in 0..20 {
            v.shuffle(&mut rng);
            for &x in &v {
                fnv(&mut h, x as u64);
            }
            for _ in 0..50 {
                fnv(&mut h, *v.choose(&mut rng).unwrap() as u64);
            }
        }
        assert_eq!(h, 0xf38e_14f9_3499_e55d, "streams moved: {h:#018x}");
    }
}
