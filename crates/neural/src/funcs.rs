//! Forward-only functional kernels shared by the autograd ops ([`crate::Var`])
//! and the raw-tensor inference path (DESIGN.md §11).
//!
//! The KV-cached decoder promises logits that are **bit-identical** to the
//! full autograd decode. That promise is only cheap to keep if both paths
//! execute the same float operations in the same order — so every forward
//! whose op order is not already pinned by a shared `Tensor` kernel lives
//! here, and `Var` calls these functions instead of re-implementing them.

use crate::Tensor;

/// GELU (tanh approximation), one scalar. `Var::gelu` maps this over its
/// input; the inference path must use the same constant and op order.
#[inline]
pub fn gelu_scalar(v: f32) -> f32 {
    const C: f32 = 0.7978845608; // sqrt(2/pi)
    0.5 * v * (1.0 + (C * (v + 0.044715 * v * v * v)).tanh())
}

/// Softmax of one row, in place. [`Tensor::softmax_rows`] runs this per row;
/// the inference path's cached attention runs it on its score rows.
pub fn softmax_in_place(row: &mut [f32]) {
    let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0;
    for v in row.iter_mut() {
        *v = (*v - m).exp();
        z += *v;
    }
    if z > 0.0 {
        for v in row.iter_mut() {
            *v /= z;
        }
    }
}

/// Row-wise layer-norm forward.
///
/// Returns `(out, xhat, inv_std)`: autograd keeps the normalized activations
/// and inverse standard deviations for the backward pass; inference discards
/// them. `gain` and `bias` are `(1, cols)` row vectors.
pub fn layer_norm_forward(
    x: &Tensor,
    gain: &Tensor,
    bias: &Tensor,
    eps: f32,
) -> (Tensor, Tensor, Vec<f32>) {
    let (rows, cols) = x.shape();
    let mut xhat = Tensor::zeros(rows, cols);
    let mut inv_std = vec![0.0f32; rows];
    for r in 0..rows {
        let row = x.row(r);
        let mean: f32 = row.iter().sum::<f32>() / cols as f32;
        let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let istd = 1.0 / (var + eps).sqrt();
        inv_std[r] = istd;
        for (c, &v) in row.iter().enumerate() {
            xhat.set(r, c, (v - mean) * istd);
        }
    }
    let mut out = Tensor::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            out.set(r, c, xhat.get(r, c) * gain.get(0, c) + bias.get(0, c));
        }
    }
    (out, xhat, inv_std)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_norm_forward_normalizes() {
        let x = Tensor::from_vec(1, 4, vec![10.0, 12.0, 14.0, 16.0]);
        let gain = Tensor::full(1, 4, 1.0);
        let bias = Tensor::zeros(1, 4);
        let (out, xhat, istd) = layer_norm_forward(&x, &gain, &bias, 1e-5);
        let mean: f32 = out.row(0).iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        // With identity gain/bias the output is exactly xhat.
        assert_eq!(out.as_slice(), xhat.as_slice());
        assert_eq!(istd.len(), 1);
        assert!(istd[0] > 0.0);
    }

    #[test]
    fn gelu_scalar_reference_points() {
        assert_eq!(gelu_scalar(0.0), 0.0);
        assert!((gelu_scalar(1.0) - 0.8411920).abs() < 1e-5);
        assert!(gelu_scalar(-10.0).abs() < 1e-4);
    }
}
