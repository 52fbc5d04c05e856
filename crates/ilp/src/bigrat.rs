//! Arbitrary-precision rational arithmetic for certificate checking.
//!
//! [`certify`](crate::certify) re-verifies solver certificates against the
//! original model in *exact* arithmetic, so it cannot use `f64`. This module
//! provides the minimal bignum rational it needs: a sign plus little-endian
//! `Vec<u64>` limb magnitudes for numerator and denominator, with addition,
//! subtraction, multiplication, comparison and a binary GCD for
//! normalisation. There is deliberately no serialisation and no
//! dependency — the whole module is safe, portable Rust.
//!
//! Every finite `f64` is a dyadic rational (`±mantissa · 2^exponent`), so
//! [`BigRat::from_f64`] is **lossless**: the exact value the solver computed
//! with is the exact value the checker reasons about. Denominators of all
//! quantities derived from `f64` inputs stay powers of two, which keeps the
//! binary GCD cheap.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

// ---------------------------------------------------------------------------
// Limb-vector helpers. Magnitudes are little-endian `Vec<u64>` with no
// trailing zero limbs; the empty vector is zero.
// ---------------------------------------------------------------------------

fn trim(v: &mut Vec<u64>) {
    while v.last() == Some(&0) {
        v.pop();
    }
}

fn cmp_mag(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x.cmp(y);
        }
    }
    Ordering::Equal
}

fn add_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u128;
    for (i, &limb) in long.iter().enumerate() {
        let s = carry + u128::from(limb) + u128::from(*short.get(i).unwrap_or(&0));
        out.push(s as u64);
        carry = s >> 64;
    }
    if carry != 0 {
        out.push(carry as u64);
    }
    out
}

/// `a - b`; requires `a >= b`.
fn sub_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(cmp_mag(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0i128;
    for (i, &limb) in a.iter().enumerate() {
        let d = i128::from(limb) - i128::from(*b.get(i).unwrap_or(&0)) - borrow;
        if d < 0 {
            out.push((d + (1i128 << 64)) as u64);
            borrow = 1;
        } else {
            out.push(d as u64);
            borrow = 0;
        }
    }
    trim(&mut out);
    out
}

fn mul_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let t = u128::from(x) * u128::from(y) + u128::from(out[i + j]) + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = u128::from(out[k]) + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    trim(&mut out);
    out
}

/// Number of trailing zero bits of a non-zero magnitude.
fn trailing_zero_bits(v: &[u64]) -> u64 {
    debug_assert!(!v.is_empty());
    let mut tz = 0u64;
    for &limb in v {
        if limb == 0 {
            tz += 64;
        } else {
            return tz + u64::from(limb.trailing_zeros());
        }
    }
    tz
}

fn shl_mag(v: &[u64], bits: u64) -> Vec<u64> {
    if v.is_empty() {
        return Vec::new();
    }
    let limbs = (bits / 64) as usize;
    let sh = (bits % 64) as u32;
    let mut out = vec![0u64; limbs];
    if sh == 0 {
        out.extend_from_slice(v);
    } else {
        let mut carry = 0u64;
        for &limb in v {
            out.push((limb << sh) | carry);
            carry = limb >> (64 - sh);
        }
        if carry != 0 {
            out.push(carry);
        }
    }
    trim(&mut out);
    out
}

fn shr_mag(v: &[u64], bits: u64) -> Vec<u64> {
    let limbs = (bits / 64) as usize;
    if limbs >= v.len() {
        return Vec::new();
    }
    let sh = (bits % 64) as u32;
    let mut out = v[limbs..].to_vec();
    if sh != 0 {
        for i in 0..out.len() {
            let hi = if i + 1 < out.len() { out[i + 1] } else { 0 };
            out[i] = (out[i] >> sh) | (hi << (64 - sh));
        }
    }
    trim(&mut out);
    out
}

/// Binary GCD of two magnitudes; `gcd(0, b) = b`.
fn gcd_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    trim(&mut a);
    trim(&mut b);
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let ta = trailing_zero_bits(&a);
    let tb = trailing_zero_bits(&b);
    let k = ta.min(tb);
    a = shr_mag(&a, ta);
    loop {
        let t = trailing_zero_bits(&b);
        b = shr_mag(&b, t);
        if cmp_mag(&a, &b) == Ordering::Greater {
            std::mem::swap(&mut a, &mut b);
        }
        b = sub_mag(&b, &a);
        if b.is_empty() {
            break;
        }
    }
    shl_mag(&a, k)
}

/// Divides a magnitude by a small non-zero divisor, returning the quotient
/// and remainder. Used only for decimal formatting.
fn divrem_small(v: &[u64], d: u64) -> (Vec<u64>, u64) {
    debug_assert!(d != 0);
    let mut out = vec![0u64; v.len()];
    let mut rem = 0u128;
    for i in (0..v.len()).rev() {
        let cur = (rem << 64) | u128::from(v[i]);
        out[i] = (cur / u128::from(d)) as u64;
        rem = cur % u128::from(d);
    }
    trim(&mut out);
    (out, rem as u64)
}

fn mag_to_decimal(v: &[u64]) -> String {
    if v.is_empty() {
        return "0".to_string();
    }
    // Peel 19 decimal digits at a time (10^19 fits in a u64).
    const CHUNK: u64 = 10_000_000_000_000_000_000;
    let mut rest = v.to_vec();
    let mut chunks = Vec::new();
    while !rest.is_empty() {
        let (q, r) = divrem_small(&rest, CHUNK);
        chunks.push(r);
        rest = q;
    }
    let mut s = chunks
        .last()
        .map_or_else(|| "0".to_string(), u64::to_string);
    for chunk in chunks.iter().rev().skip(1) {
        s.push_str(&format!("{chunk:019}"));
    }
    s
}

/// Approximates a magnitude as `(mantissa, exponent)` with value
/// `≈ mantissa · 2^exponent`; the top 64 bits are kept exactly, so the
/// result is lossless whenever the magnitude has ≤ 64 significant bits.
fn top_bits(v: &[u64]) -> (u64, i64) {
    let bits = mag_bits(v);
    if bits <= 64 {
        (v.first().copied().unwrap_or(0), 0)
    } else {
        let shift = bits - 64;
        let top = shr_mag(v, shift);
        (top[0], shift as i64)
    }
}

// ---------------------------------------------------------------------------
// BigRat
// ---------------------------------------------------------------------------

/// An exact arbitrary-precision rational: sign plus limb-vector numerator
/// and denominator magnitudes, always kept in lowest terms.
///
/// Invariants: `den` is non-zero; `gcd(num, den) == 1`; zero is represented
/// with an empty numerator, denominator one and a non-negative sign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BigRat {
    neg: bool,
    num: Vec<u64>,
    den: Vec<u64>,
}

impl BigRat {
    /// The rational 0.
    pub fn zero() -> Self {
        BigRat {
            neg: false,
            num: Vec::new(),
            den: vec![1],
        }
    }

    /// The rational 1.
    pub fn one() -> Self {
        BigRat::from_i64(1)
    }

    /// Builds an exact integer.
    pub fn from_i64(v: i64) -> Self {
        let neg = v < 0;
        let mag = v.unsigned_abs();
        let num = if mag == 0 { Vec::new() } else { vec![mag] };
        BigRat {
            neg: neg && mag != 0,
            num,
            den: vec![1],
        }
    }

    /// Converts a finite `f64` to the **exact** rational it represents
    /// (every finite `f64` is `±mantissa · 2^e`). Returns `None` for NaN
    /// and the infinities.
    pub fn from_f64(v: f64) -> Option<Self> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(BigRat::zero());
        }
        let bits = v.to_bits();
        let neg = bits >> 63 == 1;
        let biased = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mant, e) = if biased == 0 {
            (frac, -1074i64)
        } else {
            (frac | (1u64 << 52), biased - 1075)
        };
        let mut num = vec![mant];
        let mut den = vec![1u64];
        if e >= 0 {
            num = shl_mag(&num, e as u64);
        } else {
            den = shl_mag(&den, (-e) as u64);
        }
        Some(Self::from_parts(neg, num, den))
    }

    /// Normalising constructor: trims, reduces by the GCD and canonicalises
    /// zero. `den` must be non-zero.
    fn from_parts(neg: bool, mut num: Vec<u64>, mut den: Vec<u64>) -> Self {
        trim(&mut num);
        trim(&mut den);
        assert!(!den.is_empty(), "BigRat denominator must be non-zero");
        if num.is_empty() {
            return BigRat::zero();
        }
        let g = gcd_mag(&num, &den);
        if g != [1] {
            num = divide_exact(&num, &g);
            den = divide_exact(&den, &g);
        }
        BigRat { neg, num, den }
    }

    /// `true` iff the value is exactly 0.
    pub fn is_zero(&self) -> bool {
        self.num.is_empty()
    }

    /// `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.neg
    }

    /// `true` iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        !self.neg && !self.num.is_empty()
    }

    /// `true` iff the value is an integer (denominator 1).
    pub fn is_integer(&self) -> bool {
        self.den == [1]
    }

    /// The absolute value.
    pub fn abs(&self) -> Self {
        BigRat {
            neg: false,
            num: self.num.clone(),
            den: self.den.clone(),
        }
    }

    /// Nearest `f64` (approximate; used only for diagnostics, never for
    /// certification decisions).
    pub fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        // Divide the top 64 bits of each magnitude and re-apply the
        // stripped power of two; exponents beyond f64 range saturate to
        // ±inf / 0, which is the right answer for a diagnostic value.
        let (n, ne) = top_bits(&self.num);
        let (d, de) = top_bits(&self.den);
        let exp = (ne - de).clamp(-1500, 1500) as i32;
        let q = (n as f64 / d as f64) * 2f64.powi(exp);
        if self.neg {
            -q
        } else {
            q
        }
    }

    fn signed_cmp(&self, other: &Self) -> Ordering {
        match (self.neg, other.neg) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => cmp_mag(
                &mul_mag(&self.num, &other.den),
                &mul_mag(&other.num, &self.den),
            ),
            (true, true) => cmp_mag(
                &mul_mag(&other.num, &self.den),
                &mul_mag(&self.num, &other.den),
            ),
        }
    }
}

/// Exact division `a / g` where `g` is known to divide `a`.
fn divide_exact(a: &[u64], g: &[u64]) -> Vec<u64> {
    let (quo, rem) = divrem_mag(a, g);
    debug_assert!(rem.is_empty(), "divide_exact divisor must divide exactly");
    quo
}

/// Truncating division of magnitudes: returns `(a / g, a % g)` with
/// `g != 0`. Schoolbook via [`divrem_small`] when `g` is one limb, binary
/// long division (subtracting shifted copies of `g`) otherwise.
fn divrem_mag(a: &[u64], g: &[u64]) -> (Vec<u64>, Vec<u64>) {
    debug_assert!(!g.is_empty());
    if g == [1] {
        return (a.to_vec(), Vec::new());
    }
    if g.len() == 1 {
        let (q, r) = divrem_small(a, g[0]);
        let rem = if r == 0 { Vec::new() } else { vec![r] };
        return (q, rem);
    }
    let mut rem = a.to_vec();
    trim(&mut rem);
    let mut quo: Vec<u64> = Vec::new();
    let bits_a = mag_bits(&rem);
    let bits_g = mag_bits(g);
    if bits_a < bits_g {
        return (Vec::new(), rem);
    }
    let mut shift = bits_a - bits_g;
    loop {
        let gs = shl_mag(g, shift);
        if cmp_mag(&rem, &gs) != Ordering::Less {
            rem = sub_mag(&rem, &gs);
            set_bit(&mut quo, shift);
        }
        if shift == 0 {
            break;
        }
        shift -= 1;
    }
    trim(&mut quo);
    (quo, rem)
}

fn mag_bits(v: &[u64]) -> u64 {
    match v.last() {
        None => 0,
        Some(&top) => (v.len() as u64) * 64 - u64::from(top.leading_zeros()),
    }
}

fn set_bit(v: &mut Vec<u64>, bit: u64) {
    let limb = (bit / 64) as usize;
    if v.len() <= limb {
        v.resize(limb + 1, 0);
    }
    v[limb] |= 1u64 << (bit % 64);
}

impl PartialOrd for BigRat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigRat {
    fn cmp(&self, other: &Self) -> Ordering {
        self.signed_cmp(other)
    }
}

impl Add for &BigRat {
    type Output = BigRat;

    fn add(self, rhs: &BigRat) -> BigRat {
        let left = mul_mag(&self.num, &rhs.den);
        let right = mul_mag(&rhs.num, &self.den);
        let den = mul_mag(&self.den, &rhs.den);
        let (neg, num) = if self.neg == rhs.neg {
            (self.neg, add_mag(&left, &right))
        } else if cmp_mag(&left, &right) == Ordering::Less {
            (rhs.neg, sub_mag(&right, &left))
        } else {
            (self.neg, sub_mag(&left, &right))
        };
        BigRat::from_parts(neg, num, den)
    }
}

impl Sub for &BigRat {
    type Output = BigRat;

    fn sub(self, rhs: &BigRat) -> BigRat {
        self + &(-rhs)
    }
}

impl Mul for &BigRat {
    type Output = BigRat;

    fn mul(self, rhs: &BigRat) -> BigRat {
        BigRat::from_parts(
            self.neg != rhs.neg,
            mul_mag(&self.num, &rhs.num),
            mul_mag(&self.den, &rhs.den),
        )
    }
}

impl Neg for &BigRat {
    type Output = BigRat;

    fn neg(self) -> BigRat {
        if self.is_zero() {
            return BigRat::zero();
        }
        BigRat {
            neg: !self.neg,
            num: self.num.clone(),
            den: self.den.clone(),
        }
    }
}

impl fmt::Display for BigRat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.neg {
            f.write_str("-")?;
        }
        f.write_str(&mag_to_decimal(&self.num))?;
        if !self.is_integer() {
            write!(f, "/{}", mag_to_decimal(&self.den))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: f64) -> BigRat {
        BigRat::from_f64(v).unwrap()
    }

    #[test]
    fn f64_roundtrip_is_exact_for_dyadics() {
        for v in [0.0, 1.0, -1.0, 0.5, -0.375, 3.25, 1e18, -1e-300, 2.5e307] {
            let q = r(v);
            assert_eq!(q.to_f64(), v, "roundtrip of {v}");
        }
        assert!(BigRat::from_f64(f64::NAN).is_none());
        assert!(BigRat::from_f64(f64::INFINITY).is_none());
    }

    #[test]
    fn point_one_is_not_one_tenth() {
        // 0.1 is not representable; its exact rational has a power-of-two
        // denominator, not 10.
        let q = r(0.1);
        let tenth = BigRat::from_parts(false, vec![1], vec![10]);
        assert_ne!(q, tenth);
        assert!((&q - &tenth).abs() < r(1e-16));
    }

    #[test]
    fn arithmetic_identities() {
        let a = r(0.1);
        let b = r(0.7);
        let c = r(-3.2);
        assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        assert_eq!(&a - &a, BigRat::zero());
        assert_eq!(&a + &(-&a), BigRat::zero());
        assert!((&b - &a).is_positive());
        assert!((&c - &a).is_negative());
    }

    #[test]
    fn exact_sums_match_integer_arithmetic() {
        // 2^53 + 1 is not an f64, but BigRat must represent the exact sum.
        let big = r(9_007_199_254_740_992.0); // 2^53
        let one = BigRat::one();
        let sum = &big + &one;
        assert_eq!(sum.to_string(), "9007199254740993");
        assert!(sum.is_integer());
        assert!(sum > big);
    }

    #[test]
    fn ordering_crosses_signs_and_magnitudes() {
        let vals = [-2.5, -0.1, 0.0, 1e-9, 0.5, 2.0, 1e9];
        for (i, &x) in vals.iter().enumerate() {
            for (j, &y) in vals.iter().enumerate() {
                assert_eq!(r(x).cmp(&r(y)), i.cmp(&j).then(Ordering::Equal));
            }
        }
    }

    #[test]
    fn reduction_keeps_lowest_terms() {
        let q = BigRat::from_parts(false, vec![6], vec![4]);
        assert_eq!(q.to_string(), "3/2");
        let p = BigRat::from_parts(true, vec![0], vec![7]);
        assert!(p.is_zero() && !p.is_negative());
    }

    #[test]
    fn multi_limb_products_and_display() {
        let a = r(1e300);
        let sq = &a * &a;
        assert!(sq > a);
        assert!(sq.is_integer());
        // 1e300 is ~2^996; its square has > 30 limbs.
        assert!(sq.to_string().len() > 590);
        // 1e600 is far beyond f64 range: the diagnostic value saturates.
        assert_eq!(sq.to_f64(), f64::INFINITY);
    }

    #[test]
    fn subnormals_convert_exactly() {
        let tiny = f64::from_bits(1); // smallest subnormal, 2^-1074
        let q = r(tiny);
        assert!(q.is_positive());
        assert_eq!(&q + &q, r(2.0 * tiny));
    }

    #[test]
    fn gcd_small_cases() {
        assert_eq!(gcd_mag(&[12], &[18]), vec![6]);
        assert_eq!(gcd_mag(&[], &[5]), vec![5]);
        assert_eq!(gcd_mag(&[7], &[]), vec![7]);
        assert_eq!(gcd_mag(&[1u64 << 40], &[1u64 << 63]), vec![1u64 << 40]);
    }

    #[test]
    fn divrem_and_decimal() {
        let v = mul_mag(&[u64::MAX], &[u64::MAX]);
        let (q, rem) = divrem_small(&v, 3);
        let back = add_mag(&mul_mag(&q, &[3]), &[rem]);
        assert_eq!(back, v);
        assert_eq!(mag_to_decimal(&[]), "0");
        assert_eq!(mag_to_decimal(&[10_000_000_000_000_000_000, 5]), {
            // 5 * 2^64 + 10^19 = 102233720368547758080 + 10^19
            "102233720368547758080".to_string()
        });
    }
}
