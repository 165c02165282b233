//! Finite-difference gradients.
//!
//! The paper's objective "can only be determined numerically for a given
//! ω and I_TEC" (§5.2) — its SQP runs on numerical gradients, and so does
//! this one. Steps are relative and respect box bounds (one-sided at the
//! boundary).

/// Central-difference gradient of `f`, with per-coordinate steps that stay
/// inside `[lo, hi]`. Increments `evals` by the number of `f` calls.
///
/// `f` failures (None) are substituted by `penalty`, which makes the
/// gradient point away from failure regions.
///
/// # Panics
///
/// Panics if slice lengths disagree.
pub fn central_gradient<F>(
    f: F,
    x: &[f64],
    lo: &[f64],
    hi: &[f64],
    penalty: f64,
    evals: &mut usize,
) -> Vec<f64>
where
    F: Fn(&[f64]) -> Option<f64>,
{
    assert_eq!(x.len(), lo.len(), "bound length mismatch");
    assert_eq!(x.len(), hi.len(), "bound length mismatch");
    let n = x.len();
    let mut g = vec![0.0; n];
    let mut xp = x.to_vec();
    for i in 0..n {
        let h = step_size(x[i], hi[i] - lo[i]);
        let up = (x[i] + h).min(hi[i]);
        let dn = (x[i] - h).max(lo[i]);
        let denom = up - dn;
        if denom <= 0.0 {
            g[i] = 0.0;
            continue;
        }
        xp[i] = up;
        let fu = f(&xp).unwrap_or(penalty);
        xp[i] = dn;
        let fd = f(&xp).unwrap_or(penalty);
        xp[i] = x[i];
        *evals += 2;
        g[i] = (fu - fd) / denom;
    }
    g
}

/// Relative step: `∛ε · max(|x|, 1% of range, tiny)`.
fn step_size(x: f64, range: f64) -> f64 {
    let scale = x.abs().max(0.01 * range.abs()).max(1e-6);
    f64::EPSILON.cbrt() * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_gradient_is_exact_enough() {
        let f = |x: &[f64]| Some(3.0 * x[0] * x[0] + 2.0 * x[0] * x[1] + x[1] * x[1]);
        let x = [1.0, -2.0];
        let mut evals = 0;
        let g = central_gradient(f, &x, &[-10.0, -10.0], &[10.0, 10.0], 1e9, &mut evals);
        // ∇f = (6x + 2y, 2x + 2y) = (2, -2).
        assert!((g[0] - 2.0).abs() < 1e-6);
        assert!((g[1] + 2.0).abs() < 1e-6);
        assert_eq!(evals, 4);
    }

    #[test]
    fn respects_bounds_at_the_edge() {
        // x at the upper bound: central must use a one-sided interval and
        // still produce the right sign.
        let f = |x: &[f64]| Some(x[0] * x[0]);
        let mut evals = 0;
        let g = central_gradient(f, &[1.0], &[0.0], &[1.0], 1e9, &mut evals);
        assert!(g[0] > 1.9 && g[0] < 2.1);
    }

    #[test]
    fn failure_regions_repel() {
        // f fails for x > 0.5: the gradient at 0.49 must point strongly
        // upward (toward the penalty), so minimizers walk away.
        let f = |x: &[f64]| if x[0] > 0.5 { None } else { Some(x[0]) };
        let mut evals = 0;
        let g = central_gradient(f, &[0.4999999], &[0.0], &[1.0], 1e9, &mut evals);
        assert!(g[0] > 1e6);
    }
}
