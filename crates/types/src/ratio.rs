//! Exact rational arithmetic over `i128`.
//!
//! Simulated real time in this workspace is represented exactly. The paper's
//! lower-bound constructions rescale and subdivide step times by rational
//! factors (e.g. `2c1/K` in Theorem 6.5 and half-interval retimings in
//! Theorem 5.1); exact rationals let the admissibility checker verify the
//! reconstructed computations with equality comparisons.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num / den` with `den > 0`, always stored in
/// lowest terms.
///
/// Arithmetic panics on overflow of the underlying `i128` representation and
/// on division by zero; both are far outside the parameter ranges used by the
/// simulator (which works with small integer timing constants).
///
/// # Examples
///
/// ```
/// use session_types::Ratio;
///
/// let a = Ratio::new(3, 4);
/// let b = Ratio::new(1, 4);
/// assert_eq!(a + b, Ratio::from_int(1));
/// assert_eq!((a - b).to_string(), "1/2");
/// assert!(a > b);
/// assert_eq!(Ratio::new(7, 2).floor(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i128,
    den: i128,
}

const fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    if a < 0 {
        -a
    } else {
        a
    }
}

impl Ratio {
    /// The rational zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates the rational `num / den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Ratio {
        assert!(den != 0, "Ratio denominator must be nonzero");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        if g == 0 {
            return Ratio::ZERO;
        }
        Ratio {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// Creates the rational `value / 1`.
    pub const fn from_int(value: i128) -> Ratio {
        Ratio { num: value, den: 1 }
    }

    /// The numerator of the lowest-terms representation.
    pub const fn numer(self) -> i128 {
        self.num
    }

    /// The (positive) denominator of the lowest-terms representation.
    pub const fn denom(self) -> i128 {
        self.den
    }

    /// Returns `true` if this rational is an integer.
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Returns `true` if this rational is zero.
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Returns `true` if this rational is strictly positive.
    pub const fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Returns `true` if this rational is strictly negative.
    pub const fn is_negative(self) -> bool {
        self.num < 0
    }

    /// The largest integer `<= self`.
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// The smallest integer `>= self`.
    pub fn ceil(self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }

    /// The absolute value.
    pub fn abs(self) -> Ratio {
        Ratio {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub fn recip(self) -> Ratio {
        assert!(self.num != 0, "cannot invert zero Ratio");
        Ratio::new(self.den, self.num)
    }

    /// The smaller of `self` and `other`.
    pub fn min(self, other: Ratio) -> Ratio {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of `self` and `other`.
    pub fn max(self, other: Ratio) -> Ratio {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Approximates this rational as an `f64` (for reporting only; all model
    /// logic uses exact arithmetic).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Raises this rational to an integer power (negative exponents invert).
    ///
    /// # Panics
    ///
    /// Panics on overflow, or if `self` is zero and `exp < 0`.
    pub fn pow(self, exp: i32) -> Ratio {
        let base = if exp < 0 { self.recip() } else { self };
        let mut result = Ratio::ONE;
        for _ in 0..exp.unsigned_abs() {
            result *= base;
        }
        result
    }

    /// The sign of this rational: -1, 0 or 1.
    pub const fn signum(self) -> i128 {
        self.num.signum()
    }

    /// Checked subtraction; `None` on `i128` overflow.
    pub fn checked_sub(self, other: Ratio) -> Option<Ratio> {
        self.checked_add(-other)
    }

    /// Checked division; `None` on overflow or when `other` is zero.
    pub fn checked_div(self, other: Ratio) -> Option<Ratio> {
        if other.is_zero() {
            return None;
        }
        self.checked_mul(other.recip())
    }

    /// Checked addition; `None` on `i128` overflow.
    ///
    /// Two integers (the common case: every timing constant at the
    /// checker's scopes is one) add their numerators directly, with no
    /// cross-multiplication and no gcd; the sum of integers is already in
    /// lowest terms.
    pub fn checked_add(self, other: Ratio) -> Option<Ratio> {
        if self.den == 1 && other.den == 1 {
            return Some(Ratio::from_int(self.num.checked_add(other.num)?));
        }
        let num = self
            .num
            .checked_mul(other.den)?
            .checked_add(other.num.checked_mul(self.den)?)?;
        let den = self.den.checked_mul(other.den)?;
        Some(Ratio::new(num, den))
    }

    /// Checked multiplication; `None` on `i128` overflow.
    pub fn checked_mul(self, other: Ratio) -> Option<Ratio> {
        // Cross-reduce first to keep intermediate products small.
        let g1 = gcd(self.num, other.den);
        let g2 = gcd(other.num, self.den);
        let (g1, g2) = (g1.max(1), g2.max(1));
        let num = (self.num / g1).checked_mul(other.num / g2)?;
        let den = (self.den / g2).checked_mul(other.den / g1)?;
        Some(Ratio::new(num, den))
    }
}

impl Default for Ratio {
    fn default() -> Ratio {
        Ratio::ZERO
    }
}

impl From<i128> for Ratio {
    fn from(value: i128) -> Ratio {
        Ratio::from_int(value)
    }
}

impl From<i64> for Ratio {
    fn from(value: i64) -> Ratio {
        Ratio::from_int(value as i128)
    }
}

impl From<u64> for Ratio {
    fn from(value: u64) -> Ratio {
        Ratio::from_int(value as i128)
    }
}

impl From<i32> for Ratio {
    fn from(value: i32) -> Ratio {
        Ratio::from_int(value as i128)
    }
}

impl From<u32> for Ratio {
    fn from(value: u32) -> Ratio {
        Ratio::from_int(value as i128)
    }
}

impl Add for Ratio {
    type Output = Ratio;

    fn add(self, other: Ratio) -> Ratio {
        self.checked_add(other).expect("Ratio addition overflowed")
    }
}

impl Sub for Ratio {
    type Output = Ratio;

    fn sub(self, other: Ratio) -> Ratio {
        self + (-other)
    }
}

impl Mul for Ratio {
    type Output = Ratio;

    fn mul(self, other: Ratio) -> Ratio {
        self.checked_mul(other)
            .expect("Ratio multiplication overflowed")
    }
}

impl Div for Ratio {
    type Output = Ratio;

    #[allow(clippy::suspicious_arithmetic_impl)] // a/b = a * b^-1 is the definition
    fn div(self, other: Ratio) -> Ratio {
        self * other.recip()
    }
}

impl Neg for Ratio {
    type Output = Ratio;

    fn neg(self) -> Ratio {
        Ratio {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Ratio {
    fn add_assign(&mut self, other: Ratio) {
        *self = *self + other;
    }
}

impl SubAssign for Ratio {
    fn sub_assign(&mut self, other: Ratio) {
        *self = *self - other;
    }
}

impl MulAssign for Ratio {
    fn mul_assign(&mut self, other: Ratio) {
        *self = *self * other;
    }
}

impl DivAssign for Ratio {
    fn div_assign(&mut self, other: Ratio) {
        *self = *self / other;
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        // Equal (positive) denominators order like their numerators; this
        // covers every pair of integers.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // Denominators are positive, so cross-multiplication preserves order.
        let lhs = self
            .num
            .checked_mul(other.den)
            .expect("Ratio comparison overflowed");
        let rhs = other
            .num
            .checked_mul(self.den)
            .expect("Ratio comparison overflowed");
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-2, 4), Ratio::new(1, -2));
        assert_eq!(Ratio::new(0, 7), Ratio::ZERO);
        assert_eq!(Ratio::new(6, 3), Ratio::from_int(2));
    }

    #[test]
    fn negative_denominator_is_normalized_to_positive() {
        let r = Ratio::new(3, -6);
        assert_eq!(r.numer(), -1);
        assert_eq!(r.denom(), 2);
    }

    #[test]
    #[should_panic(expected = "denominator must be nonzero")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Ratio::new(1, 3);
        let b = Ratio::new(1, 6);
        assert_eq!(a + b, Ratio::new(1, 2));
        assert_eq!(a - b, Ratio::new(1, 6));
        assert_eq!(a * b, Ratio::new(1, 18));
        assert_eq!(a / b, Ratio::from_int(2));
        assert_eq!(-a, Ratio::new(-1, 3));
    }

    #[test]
    fn assign_ops_match_binary_ops() {
        let mut x = Ratio::new(5, 4);
        x += Ratio::new(3, 4);
        assert_eq!(x, Ratio::from_int(2));
        x -= Ratio::ONE;
        assert_eq!(x, Ratio::ONE);
        x *= Ratio::new(3, 2);
        assert_eq!(x, Ratio::new(3, 2));
        x /= Ratio::from_int(3);
        assert_eq!(x, Ratio::new(1, 2));
    }

    #[test]
    fn ordering_is_by_value() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::ZERO);
        assert!(Ratio::new(7, 7) == Ratio::ONE);
        assert!(Ratio::new(10, 3) > Ratio::from_int(3));
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Ratio::new(7, 2).floor(), 3);
        assert_eq!(Ratio::new(7, 2).ceil(), 4);
        assert_eq!(Ratio::new(-7, 2).floor(), -4);
        assert_eq!(Ratio::new(-7, 2).ceil(), -3);
        assert_eq!(Ratio::from_int(5).floor(), 5);
        assert_eq!(Ratio::from_int(5).ceil(), 5);
    }

    #[test]
    fn recip_and_abs() {
        assert_eq!(Ratio::new(3, 4).recip(), Ratio::new(4, 3));
        assert_eq!(Ratio::new(-3, 4).abs(), Ratio::new(3, 4));
        assert_eq!(Ratio::new(-2, 5).recip(), Ratio::new(-5, 2));
    }

    #[test]
    #[should_panic(expected = "cannot invert zero")]
    fn recip_of_zero_panics() {
        let _ = Ratio::ZERO.recip();
    }

    #[test]
    fn min_max() {
        let a = Ratio::new(1, 2);
        let b = Ratio::new(2, 3);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn predicates() {
        assert!(Ratio::from_int(3).is_integer());
        assert!(!Ratio::new(3, 2).is_integer());
        assert!(Ratio::ZERO.is_zero());
        assert!(Ratio::ONE.is_positive());
        assert!((-Ratio::ONE).is_negative());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Ratio::new(3, 2).to_string(), "3/2");
        assert_eq!(Ratio::from_int(-4).to_string(), "-4");
        assert_eq!(format!("{:?}", Ratio::new(-1, 3)), "-1/3");
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Ratio::from(3i32), Ratio::from_int(3));
        assert_eq!(Ratio::from(3u32), Ratio::from_int(3));
        assert_eq!(Ratio::from(3i64), Ratio::from_int(3));
        assert_eq!(Ratio::from(3u64), Ratio::from_int(3));
        assert_eq!(Ratio::from(3i128), Ratio::from_int(3));
    }

    #[test]
    fn to_f64_is_close() {
        assert!((Ratio::new(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pow_and_signum() {
        let half = Ratio::new(1, 2);
        assert_eq!(half.pow(3), Ratio::new(1, 8));
        assert_eq!(half.pow(0), Ratio::ONE);
        assert_eq!(half.pow(-2), Ratio::from_int(4));
        assert_eq!(Ratio::from_int(-3).pow(2), Ratio::from_int(9));
        assert_eq!(Ratio::from_int(-3).signum(), -1);
        assert_eq!(Ratio::ZERO.signum(), 0);
        assert_eq!(half.signum(), 1);
    }

    #[test]
    fn checked_sub_and_div() {
        assert_eq!(
            Ratio::ONE.checked_sub(Ratio::new(1, 2)),
            Some(Ratio::new(1, 2))
        );
        assert_eq!(
            Ratio::from_int(3).checked_div(Ratio::from_int(2)),
            Some(Ratio::new(3, 2))
        );
        assert_eq!(Ratio::ONE.checked_div(Ratio::ZERO), None);
        let huge = Ratio::from_int(i128::MAX);
        assert!(huge.checked_sub(-huge).is_none());
    }

    #[test]
    fn checked_ops_detect_overflow() {
        let huge = Ratio::from_int(i128::MAX);
        assert!(huge.checked_mul(Ratio::from_int(4)).is_none());
        assert!(huge.checked_add(huge).is_none());
        assert_eq!(
            Ratio::new(1, 2).checked_add(Ratio::new(1, 2)),
            Some(Ratio::ONE)
        );
    }
}
