//! Deterministic randomness helpers.
//!
//! Every randomized schedule or delay policy in this workspace is driven by a
//! seeded [`StdRng`], so experiments are exactly reproducible: the same seed
//! always yields the same admissible timed computation.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use session_types::Ratio;

/// Creates a deterministic random number generator from a seed.
///
/// # Examples
///
/// ```
/// use rand::RngExt;
///
/// let mut a = session_sim::seeded_rng(7);
/// let mut b = session_sim::seeded_rng(7);
/// assert_eq!(a.random_range(0..1_000_000u64), b.random_range(0..1_000_000u64));
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// How many grid points subdivide the interval of every simulator draw
/// through [`ratio_in_range`] ([`crate::UniformDelay`],
/// [`crate::JitterSchedule`]).
pub(crate) const GRANULARITY: u32 = 16;

/// Draws an exact rational uniformly from the `granularity + 1` evenly spaced
/// points of `[lo, hi]` (inclusive on both ends).
///
/// Rationals have no continuous uniform distribution, so we discretize: the
/// result is `lo + (hi - lo) * k / granularity` for a uniformly random
/// integer `k ∈ [0, granularity]`. Timing models only require membership in
/// the closed interval, which the discretization preserves exactly.
///
/// # Panics
///
/// Panics if `lo > hi` or `granularity == 0`.
pub fn ratio_in_range<R: Rng + ?Sized>(
    rng: &mut R,
    lo: Ratio,
    hi: Ratio,
    granularity: u32,
) -> Ratio {
    assert!(lo <= hi, "ratio_in_range requires lo <= hi");
    assert!(granularity > 0, "ratio_in_range requires granularity > 0");
    if lo == hi {
        return lo;
    }
    let k = rng.random_range(0..=granularity);
    lo + (hi - lo) * Ratio::new(k as i128, granularity as i128)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..100 {
            assert_eq!(a.random_range(0..u64::MAX), b.random_range(0..u64::MAX));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let same = (0..32).all(|_| a.random_range(0..u64::MAX) == b.random_range(0..u64::MAX));
        assert!(!same);
    }

    #[test]
    fn ratio_in_range_stays_in_bounds() {
        let mut rng = seeded_rng(9);
        let lo = Ratio::new(1, 3);
        let hi = Ratio::new(7, 2);
        for _ in 0..1000 {
            let r = ratio_in_range(&mut rng, lo, hi, 64);
            assert!(r >= lo && r <= hi, "{r} out of [{lo}, {hi}]");
        }
    }

    #[test]
    fn ratio_in_range_degenerate_interval() {
        let mut rng = seeded_rng(0);
        let x = Ratio::new(5, 4);
        assert_eq!(ratio_in_range(&mut rng, x, x, 16), x);
    }

    #[test]
    fn ratio_in_range_hits_endpoints() {
        let mut rng = seeded_rng(3);
        let lo = Ratio::ZERO;
        let hi = Ratio::ONE;
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..500 {
            let r = ratio_in_range(&mut rng, lo, hi, 4);
            saw_lo |= r == lo;
            saw_hi |= r == hi;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn ratio_in_range_rejects_inverted_interval() {
        let mut rng = seeded_rng(0);
        let _ = ratio_in_range(&mut rng, Ratio::ONE, Ratio::ZERO, 4);
    }
}
