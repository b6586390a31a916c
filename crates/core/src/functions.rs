//! The function `f` over pairs of object values that Mv-consistency bounds
//! (§2, Equation 5; §4.2).
//!
//! Mv-consistency requires `|f(S_a, S_b) − f(P_a, P_b)| < δ` for a
//! user-chosen `f` — e.g. the *difference* of two stock prices when the
//! user asks whether one outperforms the other by more than δ.
//!
//! When `f` decomposes additively (difference, sum, weighted sum), §4.2
//! shows the problem reduces to individual Δv-consistency: pick per-object
//! tolerances δ_a, δ_b with `w_a·δ_a + w_b·δ_b = δ` and the triangle
//! inequality guarantees the mutual bound. [`ValueFunction::lipschitz_weights`]
//! exposes the coefficients `w_a, w_b` that make that sound, or `None` for
//! functions (like [`ValueFunction::Ratio`]) where no such static split
//! exists and the virtual-object approach must be used.

use crate::value::Value;

/// A binary function over object values for Mv-consistency.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ValueFunction {
    /// `f(a, b) = a − b` — the paper's running example (comparing two
    /// stock prices).
    Difference,
    /// `f(a, b) = a + b` — e.g. the sum of individual scores versus a
    /// total.
    Sum,
    /// `f(a, b) = w_a·a + w_b·b` — e.g. a two-component index.
    WeightedSum {
        /// Weight of the first object.
        wa: f64,
        /// Weight of the second object.
        wb: f64,
    },
    /// `f(a, b) = a / b` — nonlinear; no static tolerance split exists, so
    /// only the virtual-object approach applies.
    Ratio,
}

impl ValueFunction {
    /// Evaluates the function.
    ///
    /// For [`ValueFunction::Ratio`] with `b == 0`, the result saturates to
    /// zero rather than dividing by zero (cached financial data never has
    /// an exactly-zero denominator in practice; the guard keeps the type's
    /// no-NaN invariant).
    pub fn eval(self, a: Value, b: Value) -> Value {
        match self {
            ValueFunction::Difference => a - b,
            ValueFunction::Sum => a + b,
            ValueFunction::WeightedSum { wa, wb } => Value::new(wa * a.as_f64() + wb * b.as_f64()),
            ValueFunction::Ratio => {
                if b.as_f64() == 0.0 {
                    Value::ZERO
                } else {
                    a / b
                }
            }
        }
    }

    /// Per-object Lipschitz coefficients `(w_a, w_b)` such that
    /// `|f(S_a,S_b) − f(P_a,P_b)| ≤ w_a·|S_a−P_a| + w_b·|S_b−P_b|`,
    /// or `None` when the function admits no such global decomposition.
    ///
    /// These are the weights the partitioned Mv approach (§4.2) must
    /// respect when splitting δ: `w_a·δ_a + w_b·δ_b ≤ δ`.
    pub fn lipschitz_weights(self) -> Option<(f64, f64)> {
        match self {
            ValueFunction::Difference | ValueFunction::Sum => Some((1.0, 1.0)),
            ValueFunction::WeightedSum { wa, wb } => Some((wa.abs(), wb.abs())),
            ValueFunction::Ratio => None,
        }
    }

    /// Whether the partitioned approach is sound for this function.
    pub fn supports_partitioning(self) -> bool {
        self.lipschitz_weights().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation() {
        let a = Value::new(160.0);
        let b = Value::new(36.0);
        assert_eq!(ValueFunction::Difference.eval(a, b), Value::new(124.0));
        assert_eq!(ValueFunction::Sum.eval(a, b), Value::new(196.0));
        assert_eq!(
            ValueFunction::WeightedSum { wa: 0.5, wb: 2.0 }.eval(a, b),
            Value::new(152.0)
        );
        assert!((ValueFunction::Ratio.eval(a, b).as_f64() - 160.0 / 36.0).abs() < 1e-12);
        assert_eq!(ValueFunction::Ratio.eval(a, Value::ZERO), Value::ZERO);
    }

    #[test]
    fn partitioning_support() {
        assert!(ValueFunction::Difference.supports_partitioning());
        assert!(ValueFunction::Sum.supports_partitioning());
        assert!(ValueFunction::WeightedSum { wa: -2.0, wb: 1.0 }.supports_partitioning());
        assert!(!ValueFunction::Ratio.supports_partitioning());
        assert_eq!(
            ValueFunction::WeightedSum { wa: -2.0, wb: 1.0 }.lipschitz_weights(),
            Some((2.0, 1.0))
        );
    }

    #[test]
    fn lipschitz_bound_holds_for_difference() {
        // |f(S) − f(P)| ≤ |Sa−Pa| + |Sb−Pb| for the difference function.
        let cases = [
            (10.0, 9.0, 5.0, 5.5),
            (0.0, 1.0, 0.0, -1.0),
            (100.0, 99.5, 42.0, 41.0),
        ];
        for (sa, pa, sb, pb) in cases {
            let f = ValueFunction::Difference;
            let lhs = f
                .eval(Value::new(sa), Value::new(sb))
                .abs_diff(f.eval(Value::new(pa), Value::new(pb)))
                .as_f64();
            let rhs = (sa - pa).abs() + (sb - pb).abs();
            assert!(
                lhs <= rhs + 1e-12,
                "triangle inequality failed: {lhs} > {rhs}"
            );
        }
    }
}
