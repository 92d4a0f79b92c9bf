//! # xai-rand
//!
//! The workspace's only source of randomness: a from-scratch, seedable
//! PCG64 generator with the exact API surface the `xai` crates use, plus a
//! deterministic fork-join parallel executor. Nothing here touches the OS
//! entropy pool — every stream is derived from a caller-supplied `u64`
//! seed, so every Monte-Carlo explainer in the workspace is reproducible
//! bit-for-bit.
//!
//! - [`rngs::StdRng`] — PCG XSL RR 128/64 ("PCG64"), seeded through a
//!   SplitMix64 expansion of a single `u64`;
//! - [`Rng`] / [`SeedableRng`] / [`RngCore`] — the trait surface
//!   (`gen`, `gen_range`, `gen_bool`) mirroring the subset of `rand 0.8`
//!   the workspace was written against;
//! - [`distributions`] — the [`distributions::Distribution`] trait and the
//!   [`distributions::Standard`] distribution backing [`Rng::gen`];
//! - [`seq::SliceRandom`] — Fisher–Yates `shuffle` and uniform `choose`;
//! - [`child_seed`] — SplitMix64-derived independent sub-streams, the
//!   basis of the determinism guarantee: *fixed seed ⇒ bit-identical
//!   results at any worker count* (see [`parallel`]);
//! - [`parallel`] — scoped-thread fork-join executors
//!   ([`parallel::par_map_seeded`], [`parallel::try_par_map_seeded`]) that
//!   hand every task its own child-seeded RNG and reduce in task order;
//! - [`property`] — the seeded-loop property-test harness that replaced
//!   the external `proptest` dependency.

pub mod distributions;
pub mod parallel;
pub mod property;
pub mod seq;

use distributions::{Distribution, SampleRange, Standard};

/// The raw 64-bit generator interface.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns 32 random bits (the high half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction of a generator from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose entire stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// High-level sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of type `T` from the [`Standard`] distribution:
    /// `f64`/`f32` uniform in `[0, 1)`, `bool` fair, integers uniform over
    /// their full range.
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    /// Draws a value uniformly from `range` (`a..b` or `a..=b`).
    ///
    /// # Panics
    /// Panics when the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    /// Panics when `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability out of range: {p}");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// PCG XSL RR 128/64 (O'Neill 2014): a 128-bit LCG state advanced by a
/// fixed multiplier, output-mixed by xor-shift-low + random rotation.
/// Period 2^128; passes BigCrush; 16 bytes of state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pcg64 {
    state: u128,
    /// Stream selector; always odd.
    increment: u128,
}

/// The default PCG64 multiplier.
const PCG_MULT: u128 = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645;

impl Pcg64 {
    /// Builds a generator from raw state and stream values (the increment
    /// is forced odd, as the LCG requires).
    pub fn from_state(state: u128, stream: u128) -> Self {
        let mut rng = Self { state, increment: stream | 1 };
        // Discard the first output so nearby raw states decorrelate.
        rng.state = rng.state.wrapping_mul(PCG_MULT).wrapping_add(rng.increment);
        rng
    }
}

impl SeedableRng for Pcg64 {
    fn seed_from_u64(seed: u64) -> Self {
        // Expand the 64-bit seed into 256 bits of state + stream with
        // SplitMix64 — the standard seeding recipe for large-state PRNGs.
        let mut sm = SplitMix64::new(seed);
        let state = (sm.next() as u128) << 64 | sm.next() as u128;
        let stream = (sm.next() as u128) << 64 | sm.next() as u128;
        Self::from_state(state, stream)
    }
}

impl RngCore for Pcg64 {
    fn next_u64(&mut self) -> u64 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.increment);
        // XSL-RR output function: xor the halves, rotate by the top bits.
        let rot = (old >> 122) as u32;
        let xored = ((old >> 64) as u64) ^ (old as u64);
        xored.rotate_right(rot)
    }
}

/// SplitMix64 (Steele, Lea & Flood 2014): a tiny splittable generator used
/// here for seed expansion and for deriving independent child streams.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

/// The SplitMix64 increment (the 64-bit golden ratio).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// Builds the generator at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next output.
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        split_mix_finalize(self.state)
    }
}

/// The SplitMix64 finalizer: a strong bijective bit-mixer.
fn split_mix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of independent sub-stream `index` from `base`.
///
/// This is the workspace's stream-splitting scheme: child `i` seeds a
/// fresh PCG64 via `seed_from_u64(child_seed(base, i))`. Because
/// `seed_from_u64` expands the seed into both the 128-bit state *and* the
/// 128-bit stream selector, distinct child seeds give LCG sequences on
/// different orbits — not merely different offsets of one sequence — so
/// worker streams never overlap in practice.
pub fn child_seed(base: u64, index: u64) -> u64 {
    // One SplitMix64 step per index, offset so child 0 differs from the
    // parent's own seed expansion.
    split_mix_finalize(
        base.wrapping_add(GOLDEN_GAMMA.wrapping_mul(index.wrapping_add(1))),
    )
}

/// Namespaced generators, mirroring the layout of `rand 0.8`'s `rngs`.
pub mod rngs {
    /// The workspace's standard generator (PCG64).
    pub use crate::Pcg64 as StdRng;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanket_rng_works_through_unsized_refs() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen()
        }
        let mut rng = Pcg64::seed_from_u64(1);
        let v = draw(&mut rng);
        assert!((0.0..1.0).contains(&v));
    }

    #[test]
    fn splitmix_reference_values() {
        // Known-answer vectors for SplitMix64 with seed 1234567
        // (cross-checked against the published Java reference).
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next(), 6457827717110365317);
        assert_eq!(sm.next(), 3203168211198807973);
    }
}
