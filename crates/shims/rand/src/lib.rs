//! Offline shim for the subset of the `rand` 0.8 API used by this
//! workspace.
//!
//! The build environment has no network access, so instead of the real
//! crate this workspace vendors a tiny, deterministic reimplementation:
//! [`rngs::StdRng`] is xoshiro256++ seeded through SplitMix64 (not the
//! real `StdRng`'s ChaCha12 — sequences differ from upstream `rand`, but
//! consumers in this repository rely only on determinism, uniformity and
//! the one-word contract below, never on specific streams). Supported
//! surface:
//!
//! * `StdRng::seed_from_u64` via [`SeedableRng`];
//! * `Rng::gen_range` over half-open and inclusive integer ranges;
//! * `Rng::gen::<f64>()` uniform in `[0, 1)`.
//!
//! **One word per draw.** Every conversion ([`Standard`] and
//! [`SampleRange`]) calls [`RngCore::next_u64`] exactly once and is a
//! pure function of that word. `mosaic-workload`'s generator relies on
//! it: it draws a run of words first and converts them later through a
//! source that hands back one stored word, and the trace is unchanged
//! only because each conversion consumes exactly that word. This is why
//! `gen_range` reduces by `%` (slightly biased for spans that do not
//! divide 2^64) instead of rejecting and redrawing as upstream `rand`
//! does; changing that changes every generated trace.

#![deny(missing_docs)]

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seeding interface (only the `u64` convenience entry point).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Samples uniformly from `range` (half-open or inclusive).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Samples a value of `T` from its standard distribution
    /// (`f64` uniform in `[0, 1)`).
    fn gen<T>(&mut self) -> T
    where
        T: Standard,
    {
        T::sample_standard(self)
    }
}

impl<R: RngCore> Rng for R {}

/// Types with a standard distribution for [`Rng::gen`].
pub trait Standard {
    /// Draws one value from the standard distribution, from exactly one
    /// [`RngCore::next_u64`] word (see the crate docs' one-word
    /// contract).
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits, uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// A range that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform sample from exactly one [`RngCore::next_u64`]
    /// word (see the crate docs' one-word contract).
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (stands in for `rand`'s
    /// `StdRng`; streams differ from upstream).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

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

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    /// Hands back the same word forever.
    struct Constant(u64);

    impl RngCore for Constant {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// Pins the one-word contract: each conversion consumes exactly one
    /// word and depends on nothing else, so converting a stored word
    /// gives what the same draw gives on the generator itself.
    #[test]
    fn every_conversion_reads_exactly_one_word() {
        let mut rng = StdRng::seed_from_u64(9);
        for span in [1u64, 2, 3, 7, 1000, (1 << 40) + 1] {
            for _ in 0..200 {
                let word = rng.clone().next_u64();
                let mut after = rng.clone();
                after.next_u64();

                let mut draw = rng.clone();
                assert_eq!(draw.gen::<f64>(), Constant(word).gen::<f64>());
                assert_eq!(draw, after);
                let mut draw = rng.clone();
                assert_eq!(draw.gen::<bool>(), Constant(word).gen::<bool>());
                assert_eq!(draw, after);
                let mut draw = rng.clone();
                assert_eq!(
                    draw.gen_range(5..5 + span),
                    Constant(word).gen_range(5..5 + span)
                );
                assert_eq!(draw, after);
                let mut draw = rng.clone();
                let (lo, hi) = (3usize, 3 + span as usize - 1);
                assert_eq!(draw.gen_range(lo..=hi), Constant(word).gen_range(lo..=hi));
                assert_eq!(draw, after);
                let mut draw = rng.clone();
                assert_eq!(
                    draw.gen_range(0u32..=u32::MAX),
                    Constant(word).gen_range(0u32..=u32::MAX)
                );
                assert_eq!(draw, after);
                let mut draw = rng.clone();
                assert_eq!(
                    draw.gen_range(-1.5..span as f64),
                    Constant(word).gen_range(-1.5..span as f64)
                );
                assert_eq!(draw, after);

                rng = after;
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1000), b.gen_range(0u64..1000));
        }
        let mut c = StdRng::seed_from_u64(8);
        let series_a: Vec<u64> = (0..32).map(|_| a.gen_range(0u64..1 << 60)).collect();
        let series_c: Vec<u64> = (0..32).map(|_| c.gen_range(0u64..1 << 60)).collect();
        assert_ne!(series_a, series_c);
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let x = rng.gen_range(10u32..20);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(0usize..=5);
            assert!(y <= 5);
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn unit_floats_cover_the_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut lo = false;
        let mut hi = false;
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            if f < 0.1 {
                lo = true;
            }
            if f > 0.9 {
                hi = true;
            }
        }
        assert!(lo && hi, "uniform [0,1) should hit both tails");
    }
}
