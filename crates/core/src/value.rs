//! Numeric values for value-domain consistency.
//!
//! Value-domain semantics (Δv, Mv) apply to objects that *have a value* —
//! stock prices, sports scores, weather readings (§2). [`Value`] is a thin
//! newtype over `f64` that adds a total order (needed to keep values in
//! sorted containers and to take min/max over traces) while rejecting NaN
//! at construction, so the order is genuinely total.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A finite numeric value of a web object (e.g. a stock price in dollars).
///
/// `Value` is totally ordered; construction rejects NaN (and the arithmetic
/// operators debug-assert finiteness) so comparisons never silently
/// misbehave.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Value(f64);

impl Value {
    /// Zero.
    pub const ZERO: Value = Value(0.0);

    /// Creates a value, returning `None` for NaN or infinite inputs.
    pub fn checked_new(v: f64) -> Option<Value> {
        v.is_finite().then_some(Value(v))
    }

    /// Creates a value.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN or infinite.
    pub fn new(v: f64) -> Value {
        Value::checked_new(v).unwrap_or_else(|| panic!("value must be finite, got {v}"))
    }

    /// The underlying float.
    pub const fn as_f64(self) -> f64 {
        self.0
    }

    /// Absolute difference `|self − other|`.
    pub fn abs_diff(self, other: Value) -> Value {
        Value((self.0 - other.0).abs())
    }

    /// The smaller of two values.
    pub fn min(self, other: Value) -> Value {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two values.
    pub fn max(self, other: Value) -> Value {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Eq for Value {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Value {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Construction rejects NaN, so partial_cmp is always Some.
        self.partial_cmp(other).expect("Value is never NaN")
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::new(v)
    }
}

impl From<Value> for f64 {
    fn from(v: Value) -> f64 {
        v.0
    }
}

macro_rules! value_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for Value {
            type Output = Value;

            fn $method(self, rhs: Value) -> Value {
                let out = self.0 $op rhs.0;
                debug_assert!(out.is_finite(), "value arithmetic overflowed: {out}");
                Value(out)
            }
        }
    };
}

value_binop!(Add, add, +);
value_binop!(Sub, sub, -);
value_binop!(Mul, mul, *);
value_binop!(Div, div, /);

impl Neg for Value {
    type Output = Value;

    fn neg(self) -> Value {
        Value(-self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_finite() {
        assert!(Value::checked_new(f64::NAN).is_none());
        assert!(Value::checked_new(f64::INFINITY).is_none());
        assert!(Value::checked_new(1.25).is_some());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn new_panics_on_nan() {
        let _ = Value::new(f64::NAN);
    }

    #[test]
    fn total_order_and_minmax() {
        let a = Value::new(1.0);
        let b = Value::new(2.0);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let mut v = vec![b, a];
        v.sort();
        assert_eq!(v, vec![a, b]);
    }

    #[test]
    fn arithmetic_and_diff() {
        let a = Value::new(160.5);
        let b = Value::new(36.25);
        assert_eq!((a - b).as_f64(), 124.25);
        assert_eq!(a.abs_diff(b), b.abs_diff(a));
        assert_eq!(-(-b), b);
        assert_eq!((a + Value::ZERO), a);
        assert_eq!((a * Value::new(2.0)).as_f64(), 321.0);
        assert_eq!((a / Value::new(2.0)).as_f64(), 80.25);
    }

    #[test]
    fn conversions_and_display() {
        let v = Value::from(3.5);
        let f: f64 = v.into();
        assert_eq!(f, 3.5);
        assert_eq!(v.to_string(), "3.5000");
    }
}
