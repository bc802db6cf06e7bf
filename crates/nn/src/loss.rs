//! Softmax, cross-entropy (eq. 3) and classification metrics.

use crate::Tensor;

/// Row-wise softmax of a logits matrix `[n, classes]`.
///
/// Numerically stabilized by subtracting each row's maximum.
///
/// # Example
///
/// ```
/// use icoil_nn::{loss::softmax, Tensor};
///
/// let p = softmax(&Tensor::from_vec(vec![1, 3], vec![1.0, 1.0, 1.0]).unwrap());
/// for v in p.data() {
///     assert!((v - 1.0 / 3.0).abs() < 1e-6);
/// }
/// ```
///
/// # Panics
///
/// Panics unless the input is a 2-D tensor.
pub fn softmax(logits: &Tensor) -> Tensor {
    let shape = logits.shape();
    assert_eq!(shape.len(), 2, "softmax expects [n, classes]");
    let (n, c) = (shape[0], shape[1]);
    let mut out = vec![0.0f32; n * c];
    for i in 0..n {
        let row = &logits.data()[i * c..(i + 1) * c];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for (o, &v) in out[i * c..(i + 1) * c].iter_mut().zip(row) {
            *o = (v - max).exp();
            sum += *o;
        }
        for o in &mut out[i * c..(i + 1) * c] {
            *o /= sum;
        }
    }
    Tensor::from_vec(vec![n, c], out).expect("softmax preserves shape")
}

/// In-place variant of [`softmax`]: replaces a logits matrix with its
/// row-wise softmax without allocating. Produces bit-identical results.
///
/// # Panics
///
/// Panics unless the input is a 2-D tensor.
pub fn softmax_in_place(logits: &mut Tensor) {
    let shape = logits.shape();
    assert_eq!(shape.len(), 2, "softmax expects [n, classes]");
    let (n, c) = (shape[0], shape[1]);
    let data = logits.data_mut();
    for i in 0..n {
        let row = &mut data[i * c..(i + 1) * c];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row {
            *v /= sum;
        }
    }
}

/// Mean softmax cross-entropy loss over a batch, plus its gradient with
/// respect to the logits.
///
/// This is eq. (3) of the paper: `L = -(1/|D|) Σ log p_correct`. The
/// returned gradient is `(softmax - onehot) / n`, ready to feed into
/// [`crate::Network::backward`].
///
/// # Panics
///
/// Panics when `labels.len()` differs from the batch size or any label is
/// out of range.
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let shape = logits.shape();
    assert_eq!(shape.len(), 2, "cross_entropy expects [n, classes]");
    let (n, c) = (shape[0], shape[1]);
    assert_eq!(labels.len(), n, "one label per batch row required");
    let probs = softmax(logits);
    let mut grad = probs.clone();
    let mut loss = 0.0f32;
    let inv_n = 1.0 / n as f32;
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < c, "label {y} out of range for {c} classes");
        let p = probs.data()[i * c + y].max(1e-12);
        loss -= p.ln();
        grad.data_mut()[i * c + y] -= 1.0;
    }
    grad.scale(inv_n);
    (loss * inv_n, grad)
}

/// Label-smoothed cross-entropy: the one-hot target is mixed with the
/// uniform distribution (`ε` mass spread over all classes). Smoothing
/// keeps the trained network from collapsing to near-zero entropy — a
/// calibration property the HSA uncertainty signal depends on.
///
/// # Panics
///
/// Panics on dimension mismatch, out-of-range labels, or `ε ∉ [0, 1)`.
pub fn cross_entropy_smoothed(logits: &Tensor, labels: &[usize], eps: f32) -> (f32, Tensor) {
    assert!((0.0..1.0).contains(&eps), "smoothing must be in [0, 1)");
    let shape = logits.shape();
    assert_eq!(shape.len(), 2, "cross_entropy expects [n, classes]");
    let (n, c) = (shape[0], shape[1]);
    assert_eq!(labels.len(), n, "one label per batch row required");
    let probs = softmax(logits);
    let mut grad = probs.clone();
    let mut loss = 0.0f32;
    let inv_n = 1.0 / n as f32;
    let off = eps / c as f32;
    let on = 1.0 - eps + off;
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < c, "label {y} out of range for {c} classes");
        for j in 0..c {
            let target = if j == y { on } else { off };
            let p = probs.data()[i * c + j].max(1e-12);
            loss -= target * p.ln();
            grad.data_mut()[i * c + j] -= target;
        }
    }
    grad.scale(inv_n);
    (loss * inv_n, grad)
}

/// Fraction of rows whose argmax equals the label.
///
/// # Panics
///
/// Panics when `labels.len()` differs from the batch size.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    let preds = logits.argmax_rows();
    assert_eq!(
        preds.len(),
        labels.len(),
        "one label per batch row required"
    );
    if preds.is_empty() {
        return f64::NAN;
    }
    let correct = preds.iter().zip(labels).filter(|(p, y)| p == y).count();
    correct as f64 / labels.len() as f64
}

/// Shannon entropy (nats) of one probability row — the paper's instant
/// scenario uncertainty `ω_i = -Σ_j p_j log p_j` (§IV-C).
///
/// # Example
///
/// ```
/// use icoil_nn::loss::entropy;
///
/// // Uniform over 4 classes: ln 4 ≈ 1.386 nats.
/// assert!((entropy(&[0.25; 4]) - 4.0f64.ln()).abs() < 1e-9);
/// // One-hot: zero entropy.
/// assert_eq!(entropy(&[1.0, 0.0, 0.0]), 0.0);
/// ```
pub fn entropy(probs: &[f64]) -> f64 {
    probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -p * p.ln())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let l = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., -10., 0., 10.]).unwrap();
        let p = softmax(&l);
        for i in 0..2 {
            let s: f32 = p.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // larger logit, larger probability
        assert!(p.at(0, 2) > p.at(0, 1) && p.at(0, 1) > p.at(0, 0));
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = Tensor::from_vec(vec![1, 2], vec![1000.0, 1001.0]).unwrap();
        let p = softmax(&a);
        assert!(p.is_finite());
        let b = Tensor::from_vec(vec![1, 2], vec![0.0, 1.0]).unwrap();
        let q = softmax(&b);
        for (x, y) in p.data().iter().zip(q.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_small() {
        let l = Tensor::from_vec(vec![1, 3], vec![100.0, 0.0, 0.0]).unwrap();
        let (loss, _) = cross_entropy(&l, &[0]);
        assert!(loss < 1e-6);
        let (bad_loss, _) = cross_entropy(&l, &[2]);
        assert!(bad_loss > 10.0);
    }

    #[test]
    fn cross_entropy_uniform_is_log_c() {
        let l = Tensor::zeros(vec![4, 5]);
        let (loss, grad) = cross_entropy(&l, &[0, 1, 2, 3]);
        assert!((loss - (5.0f32).ln()).abs() < 1e-5);
        // gradient rows sum to zero (softmax minus one-hot)
        for i in 0..4 {
            let s: f32 = grad.data()[i * 5..(i + 1) * 5].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let l = Tensor::from_vec(vec![2, 3], vec![0.5, -0.2, 0.1, 0.0, 0.3, -0.4]).unwrap();
        let labels = [2usize, 0];
        let (_, grad) = cross_entropy(&l, &labels);
        let eps = 1e-3f32;
        for i in 0..6 {
            let mut lp = l.clone();
            lp.data_mut()[i] += eps;
            let mut lm = l.clone();
            lm.data_mut()[i] -= eps;
            let (fp, _) = cross_entropy(&lp, &labels);
            let (fm, _) = cross_entropy(&lm, &labels);
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - grad.data()[i]).abs() < 1e-3,
                "logit {i}: numeric {num} vs analytic {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn accuracy_counts_matches() {
        let l = Tensor::from_vec(vec![3, 2], vec![1., 0., 0., 1., 1., 0.]).unwrap();
        assert!((accuracy(&l, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(accuracy(&l, &[0, 1, 0]), 1.0);
    }

    #[test]
    fn entropy_bounds() {
        // entropy maximal for uniform, zero for deterministic
        let m = 8;
        let uniform = vec![1.0 / m as f64; m];
        assert!((entropy(&uniform) - (m as f64).ln()).abs() < 1e-12);
        for k in 2..10 {
            let mut p = vec![0.0; k];
            p[0] = 1.0;
            assert_eq!(entropy(&p), 0.0);
        }
    }

    #[test]
    fn smoothed_cross_entropy_reduces_confidence_incentive() {
        // at eps = 0 it matches the plain loss
        let l = Tensor::from_vec(vec![2, 3], vec![0.5, -0.2, 0.1, 0.0, 0.3, -0.4]).unwrap();
        let labels = [2usize, 0];
        let (a, ga) = cross_entropy(&l, &labels);
        let (b, gb) = cross_entropy_smoothed(&l, &labels, 0.0);
        assert!((a - b).abs() < 1e-6);
        for (x, y) in ga.data().iter().zip(gb.data()) {
            assert!((x - y).abs() < 1e-6);
        }
        // with smoothing, an extremely confident correct logit is *worse*
        // than a moderately confident one
        let confident = Tensor::from_vec(vec![1, 3], vec![50.0, 0.0, 0.0]).unwrap();
        let moderate = Tensor::from_vec(vec![1, 3], vec![3.0, 0.0, 0.0]).unwrap();
        let (lc, _) = cross_entropy_smoothed(&confident, &[0], 0.1);
        let (lm, _) = cross_entropy_smoothed(&moderate, &[0], 0.1);
        assert!(lc > lm, "overconfidence must cost: {lc} vs {lm}");
    }

    #[test]
    fn smoothed_gradient_matches_finite_difference() {
        let l = Tensor::from_vec(vec![2, 3], vec![0.4, -0.1, 0.2, -0.3, 0.6, 0.0]).unwrap();
        let labels = [1usize, 2];
        let (_, grad) = cross_entropy_smoothed(&l, &labels, 0.15);
        let eps = 1e-3f32;
        for i in 0..6 {
            let mut lp = l.clone();
            lp.data_mut()[i] += eps;
            let mut lm = l.clone();
            lm.data_mut()[i] -= eps;
            let (fp, _) = cross_entropy_smoothed(&lp, &labels, 0.15);
            let (fm, _) = cross_entropy_smoothed(&lm, &labels, 0.15);
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - grad.data()[i]).abs() < 1e-3, "logit {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        let l = Tensor::zeros(vec![1, 2]);
        let _ = cross_entropy(&l, &[5]);
    }
}
