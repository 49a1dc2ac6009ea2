//! Property-based tests for the exact rational arithmetic underpinning
//! simulated time. If `Ratio` is wrong, every admissibility check in the
//! workspace is wrong, so we check the field axioms directly.

use proptest::prelude::*;
use session_types::{Dur, Ratio, Time};

/// A generator for rationals with numerators and denominators small enough
/// that products of several of them never overflow `i128`.
fn small_ratio() -> impl Strategy<Value = Ratio> {
    (-1_000_000i128..=1_000_000, 1i128..=1_000).prop_map(|(n, d)| Ratio::new(n, d))
}

/// Like [`small_ratio`], but an integer half the time: the integer fast
/// paths of `+`, `-` and `cmp` (both denominators 1, or equal) then get
/// exercised as often as the general path. `small_ratio` alone draws a
/// denominator of 1 about once in a thousand draws.
fn int_or_ratio() -> impl Strategy<Value = Ratio> {
    (any::<bool>(), -1_000_000i128..=1_000_000, 1i128..=1_000).prop_map(|(int, n, d)| {
        if int {
            Ratio::from_int(n)
        } else {
            Ratio::new(n, d)
        }
    })
}

/// `a + b` by the general cross-multiplied formula, reduced by `new`.
fn cross_sum(a: Ratio, b: Ratio) -> Ratio {
    Ratio::new(
        a.numer() * b.denom() + b.numer() * a.denom(),
        a.denom() * b.denom(),
    )
}

fn nonzero_ratio() -> impl Strategy<Value = Ratio> {
    small_ratio().prop_filter("nonzero", |r| !r.is_zero())
}

proptest! {
    #[test]
    fn addition_commutes(a in small_ratio(), b in small_ratio()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn addition_associates(a in small_ratio(), b in small_ratio(), c in small_ratio()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn multiplication_commutes(a in small_ratio(), b in small_ratio()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn multiplication_associates(a in small_ratio(), b in small_ratio(), c in small_ratio()) {
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn distributivity(a in small_ratio(), b in small_ratio(), c in small_ratio()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn additive_inverse(a in small_ratio()) {
        prop_assert_eq!(a + (-a), Ratio::ZERO);
        prop_assert_eq!(a - a, Ratio::ZERO);
    }

    #[test]
    fn multiplicative_inverse(a in nonzero_ratio()) {
        prop_assert_eq!(a * a.recip(), Ratio::ONE);
        prop_assert_eq!(a / a, Ratio::ONE);
    }

    #[test]
    fn identities(a in small_ratio()) {
        prop_assert_eq!(a + Ratio::ZERO, a);
        prop_assert_eq!(a * Ratio::ONE, a);
        prop_assert_eq!(a * Ratio::ZERO, Ratio::ZERO);
    }

    #[test]
    fn normalization_is_canonical(a in small_ratio()) {
        // Re-creating from the exposed numerator/denominator is the identity.
        prop_assert_eq!(Ratio::new(a.numer(), a.denom()), a);
        // Denominator is always positive and the fraction is in lowest terms.
        prop_assert!(a.denom() > 0);
    }

    #[test]
    fn order_is_total_and_compatible(a in small_ratio(), b in small_ratio(), c in small_ratio()) {
        // Exactly one of <, ==, > holds.
        let lt = a < b;
        let eq = a == b;
        let gt = a > b;
        prop_assert_eq!(u8::from(lt) + u8::from(eq) + u8::from(gt), 1);
        // Order is translation invariant.
        prop_assert_eq!(a < b, a + c < b + c);
    }

    #[test]
    fn floor_ceil_bracket_value(a in small_ratio()) {
        let f = Ratio::from_int(a.floor());
        let c = Ratio::from_int(a.ceil());
        prop_assert!(f <= a && a <= c);
        prop_assert!(a - f < Ratio::ONE);
        prop_assert!(c - a < Ratio::ONE);
        if a.is_integer() {
            prop_assert_eq!(f, c);
        } else {
            prop_assert_eq!(c - f, Ratio::ONE);
        }
    }

    #[test]
    fn time_dur_roundtrip(a in small_ratio(), b in small_ratio()) {
        let t = Time::from_ratio(a);
        let d = Dur::from_ratio(b);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d) - d, t);
    }

    #[test]
    fn sum_and_difference_match_the_cross_multiplied_formula(
        a in int_or_ratio(),
        b in int_or_ratio(),
    ) {
        prop_assert_eq!(a + b, cross_sum(a, b));
        prop_assert_eq!(a - b, cross_sum(a, -b));
        prop_assert_eq!(a.checked_add(b), Some(cross_sum(a, b)));
        prop_assert_eq!(a.checked_sub(b), Some(cross_sum(a, -b)));
        // Lowest terms with a positive denominator, whichever path ran.
        let sum = a + b;
        prop_assert_eq!(Ratio::new(sum.numer(), sum.denom()), sum);
        prop_assert!(sum.denom() > 0);
    }

    #[test]
    fn order_matches_the_cross_multiplied_formula(a in int_or_ratio(), b in int_or_ratio()) {
        let cross = (a.numer() * b.denom()).cmp(&(b.numer() * a.denom()));
        prop_assert_eq!(a.cmp(&b), cross);
        prop_assert_eq!(a.partial_cmp(&b), Some(cross));
        prop_assert_eq!(a == b, cross.is_eq());
    }

    #[test]
    fn time_arithmetic_matches_ratio_arithmetic(a in int_or_ratio(), b in int_or_ratio()) {
        let (t, d) = (Time::from_ratio(a), Dur::from_ratio(b));
        prop_assert_eq!((t + d).as_ratio(), cross_sum(a, b));
        prop_assert_eq!((t - d).as_ratio(), cross_sum(a, -b));
        prop_assert_eq!((d + d).as_ratio(), cross_sum(b, b));
        prop_assert_eq!(t.cmp(&Time::from_ratio(b)), a.cmp(&b));
    }

    #[test]
    fn dur_div_floor_matches_ratio_floor(a in 0i128..=100_000, b in 1i128..=1_000) {
        let q = Dur::from_int(a).div_floor(Dur::from_int(b));
        prop_assert_eq!(q, a.div_euclid(b));
    }
}

#[test]
fn integer_checked_add_overflows_to_none() {
    let max = Ratio::from_int(i128::MAX);
    let min = Ratio::from_int(i128::MIN);
    assert_eq!(max.checked_add(Ratio::ONE), None);
    assert_eq!(Ratio::ONE.checked_add(max), None);
    assert_eq!(max.checked_add(max), None);
    assert_eq!(min.checked_add(-Ratio::ONE), None);
    assert_eq!(min.checked_sub(Ratio::ONE), None);
    assert_eq!(max.checked_add(Ratio::ZERO), Some(max));
    assert_eq!(max.checked_add(-max), Some(Ratio::ZERO));
    assert_eq!(
        max.checked_sub(Ratio::ONE),
        Some(Ratio::from_int(i128::MAX - 1))
    );
}

#[test]
#[should_panic(expected = "Ratio addition overflowed")]
fn integer_addition_overflow_panics() {
    let _ = Ratio::from_int(i128::MAX) + Ratio::ONE;
}

#[test]
fn equal_denominators_order_by_numerator_even_near_the_limit() {
    // Cross-multiplying these would overflow; equal denominators need not.
    let big = Ratio::new(i128::MAX - 2, 3);
    let bigger = Ratio::new(i128::MAX, 3);
    assert!(big < bigger);
    assert_eq!(bigger.cmp(&bigger), std::cmp::Ordering::Equal);
}
