//! Minimal offline stand-in for the crates.io `rand` crate.
//!
//! Implements exactly the subset WattDB-RS uses — `rngs::SmallRng`,
//! [`SeedableRng::seed_from_u64`], and [`Rng::gen`] / [`Rng::gen_range`]
//! over integer and float ranges — on top of xoshiro256++, which has the
//! same flavour of small, fast, non-cryptographic state as the real
//! `SmallRng`. Streams are deterministic functions of the seed.

/// Low-level entropy source: 64 random bits per call.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from seeds.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable from 64 random bits ("standard distribution").
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges a generator can sample uniformly.
pub trait SampleRange {
    /// Element type produced.
    type Output;
    /// Draw one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    // Rejection sampling against the largest multiple of `span`, so the
    // draw is exactly uniform (no modulo bias). A power-of-two span takes
    // no division: that multiple is 2^64 − span, the remainder a mask.
    debug_assert!(span > 0);
    let pow2 = span.is_power_of_two();
    let zone = if pow2 {
        span.wrapping_neg()
    } else {
        u64::MAX - (u64::MAX % span)
    };
    loop {
        let x = rng.next_u64();
        if x < zone {
            return if pow2 { x & (span - 1) } else { x % span };
        }
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_u64(rng, span) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + uniform_u64(rng, span + 1) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        let u = f64::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

/// User-facing sampling helpers, blanket-implemented for every core rng.
pub trait Rng: RngCore {
    /// Sample a value of `T` from its standard distribution.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Sample uniformly from `range`.
    fn gen_range<Rg: SampleRange>(&mut self, range: Rg) -> Rg::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Small-state generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — 256 bits of state, top-tier statistical quality for
    /// a non-cryptographic generator.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // Expand the seed with splitmix64, as rand itself does.
            let mut sm = seed;
            Self {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for SmallRng {
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
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    /// The division path every span took before powers of two got their
    /// mask.
    fn by_division<R: super::RngCore>(rng: &mut R, span: u64) -> u64 {
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let x = rng.next_u64();
            if x < zone {
                return x % span;
            }
        }
    }

    /// Replays a script of raw draws, then a generator's.
    struct Scripted(Vec<u64>, SmallRng);

    impl super::RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.0.pop().unwrap_or_else(|| self.1.gen())
        }
    }

    #[test]
    fn a_power_of_two_span_draws_what_division_draws() {
        for bit in 0..64 {
            let span = 1u64 << bit;
            // Values at and around the rejection zone's edge come first.
            let edge = span.wrapping_neg();
            let script = vec![3, edge - 1, edge, u64::MAX, edge.wrapping_add(1)];
            let mut fast = Scripted(script.clone(), SmallRng::seed_from_u64(bit));
            let mut slow = Scripted(script, SmallRng::seed_from_u64(bit));
            for _ in 0..64 {
                let want = by_division(&mut slow, span);
                assert_eq!(super::uniform_u64(&mut fast, span), want, "span 2^{bit}");
            }
        }
        // The draw the TPC-C loader makes per stand-in byte.
        let (mut fast, mut slow) = (SmallRng::seed_from_u64(5), SmallRng::seed_from_u64(5));
        for _ in 0..10_000 {
            let want = by_division(&mut slow, 256);
            assert_eq!(fast.gen_range(0u64..=255), want);
        }
    }

    #[test]
    fn deterministic_streams() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn ranges_hit_their_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[r.gen_range(0u64..=3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            let f = r.gen_range(0.25f64..0.5);
            assert!((0.25..0.5).contains(&f));
        }
    }

    #[test]
    fn unit_floats_cover_zero_one() {
        let mut r = SmallRng::seed_from_u64(2);
        let mean: f64 = (0..10_000).map(|_| r.gen::<f64>()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
    }
}
