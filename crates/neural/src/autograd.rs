//! Reverse-mode automatic differentiation over [`Tensor`]s.
//!
//! A [`Var`] wraps a tensor plus an optional backward closure and links to
//! its parents, forming a DAG as operations execute ("define-by-run").
//! Calling [`Var::backward`] on a scalar output topologically sorts the graph
//! and propagates gradients to every node, accumulating into each node's
//! `grad` buffer. Parameters are leaves created with [`Var::param`]; their
//! gradients persist until [`Var::zero_grad`], while intermediate nodes are
//! rebuilt fresh each forward pass.
//!
//! `Var` is `Send + Sync`: a fitted model's parameters can be shared by
//! reference across threads for inference, which only ever reads them.
//! Training mutates values and gradients through the same locks; it stays
//! serial per graph by choice, not by type.

use crate::Tensor;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

static NEXT_ID: AtomicUsize = AtomicUsize::new(0);

type BackwardFn = Box<dyn Fn(&Tensor) + Send + Sync>;

const POISONED: &str = "a thread panicked while writing a Var's tensor";

fn read(lock: &RwLock<Tensor>) -> RwLockReadGuard<'_, Tensor> {
    lock.read().expect(POISONED)
}

fn write(lock: &RwLock<Tensor>) -> RwLockWriteGuard<'_, Tensor> {
    lock.write().expect(POISONED)
}

struct VarInner {
    id: usize,
    data: RwLock<Tensor>,
    grad: RwLock<Tensor>,
    parents: Vec<Var>,
    backward: Option<BackwardFn>,
    trainable: bool,
}

/// A node in the autograd graph.
#[derive(Clone)]
pub struct Var {
    inner: Arc<VarInner>,
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Var")
            .field("id", &self.inner.id)
            .field("shape", &read(&self.inner.data).shape())
            .field("trainable", &self.inner.trainable)
            .finish()
    }
}

impl Var {
    fn make(data: Tensor, parents: Vec<Var>, backward: Option<BackwardFn>, trainable: bool) -> Var {
        let (r, c) = data.shape();
        Var {
            inner: Arc::new(VarInner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                data: RwLock::new(data),
                grad: RwLock::new(Tensor::zeros(r, c)),
                parents,
                backward,
                trainable,
            }),
        }
    }

    /// A trainable leaf (model parameter).
    pub fn param(data: Tensor) -> Var {
        Var::make(data, vec![], None, true)
    }

    /// A non-trainable leaf (input or constant).
    pub fn constant(data: Tensor) -> Var {
        Var::make(data, vec![], None, false)
    }

    /// Whether this is a trainable parameter leaf.
    pub fn is_trainable(&self) -> bool {
        self.inner.trainable
    }

    /// Shape of the wrapped tensor.
    pub fn shape(&self) -> (usize, usize) {
        read(&self.inner.data).shape()
    }

    /// Borrow the forward value.
    pub fn data(&self) -> RwLockReadGuard<'_, Tensor> {
        read(&self.inner.data)
    }

    /// Copy out the forward value.
    pub fn value(&self) -> Tensor {
        read(&self.inner.data).clone()
    }

    /// Borrow the accumulated gradient.
    pub fn grad(&self) -> RwLockReadGuard<'_, Tensor> {
        read(&self.inner.grad)
    }

    /// Copy out the accumulated gradient.
    pub fn grad_value(&self) -> Tensor {
        read(&self.inner.grad).clone()
    }

    /// Zeroes this node's gradient (for parameters, between steps).
    pub fn zero_grad(&self) {
        write(&self.inner.grad).zero_();
    }

    /// Overwrites the forward value (optimizer steps mutate params in place).
    pub fn set_value(&self, t: Tensor) {
        assert_eq!(self.shape(), t.shape(), "set_value must preserve shape");
        *write(&self.inner.data) = t;
    }

    /// Applies `f` to the parameter value in place.
    pub fn update_value(&self, f: impl FnOnce(&mut Tensor)) {
        f(&mut write(&self.inner.data));
    }

    fn accumulate_grad(&self, delta: &Tensor) {
        write(&self.inner.grad).add_scaled_assign(delta, 1.0);
    }

    /// Runs reverse-mode differentiation from this (scalar, `1x1`) node.
    ///
    /// # Panics
    /// Panics if the node is not scalar.
    pub fn backward(&self) {
        assert_eq!(self.shape(), (1, 1), "backward requires a scalar output");
        // Topological order (post-order DFS, iterative to spare the stack).
        let mut order: Vec<Var> = Vec::new();
        let mut visited: HashSet<usize> = HashSet::new();
        let mut stack: Vec<(Var, usize)> = vec![(self.clone(), 0)];
        while let Some((node, child_idx)) = stack.pop() {
            if child_idx == 0 {
                if !visited.insert(node.inner.id) {
                    continue;
                }
            }
            if child_idx < node.inner.parents.len() {
                let next = node.inner.parents[child_idx].clone();
                stack.push((node, child_idx + 1));
                if !visited.contains(&next.inner.id) {
                    stack.push((next, 0));
                }
            } else {
                order.push(node);
            }
        }

        // Seed and propagate.
        *write(&self.inner.grad) = Tensor::full(1, 1, 1.0);
        for node in order.iter().rev() {
            if let Some(f) = &node.inner.backward {
                let g = read(&node.inner.grad).clone();
                f(&g);
            }
        }
    }

    // ---------------------------------------------------------------- ops

    /// Matrix product.
    pub fn matmul(&self, other: &Var) -> Var {
        let out = self.data().matmul(&other.data());
        let a = self.clone();
        let b = other.clone();
        Var::make(
            out,
            vec![self.clone(), other.clone()],
            Some(Box::new(move |g| {
                let da = g.matmul(&b.data().transpose());
                a.accumulate_grad(&da);
                let db = a.data().transpose().matmul(g);
                b.accumulate_grad(&db);
            })),
            false,
        )
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Var) -> Var {
        let out = self.data().add(&other.data());
        let a = self.clone();
        let b = other.clone();
        Var::make(
            out,
            vec![self.clone(), other.clone()],
            Some(Box::new(move |g| {
                a.accumulate_grad(g);
                b.accumulate_grad(g);
            })),
            false,
        )
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Var) -> Var {
        let out = self.data().sub(&other.data());
        let a = self.clone();
        let b = other.clone();
        Var::make(
            out,
            vec![self.clone(), other.clone()],
            Some(Box::new(move |g| {
                a.accumulate_grad(g);
                b.accumulate_grad(&g.scale(-1.0));
            })),
            false,
        )
    }

    /// Element-wise product.
    pub fn mul(&self, other: &Var) -> Var {
        let out = self.data().mul(&other.data());
        let a = self.clone();
        let b = other.clone();
        Var::make(
            out,
            vec![self.clone(), other.clone()],
            Some(Box::new(move |g| {
                let da = g.mul(&b.data());
                a.accumulate_grad(&da);
                let db = g.mul(&a.data());
                b.accumulate_grad(&db);
            })),
            false,
        )
    }

    /// Scales by a constant.
    pub fn scale(&self, s: f32) -> Var {
        let out = self.data().scale(s);
        let a = self.clone();
        Var::make(
            out,
            vec![self.clone()],
            Some(Box::new(move |g| a.accumulate_grad(&g.scale(s)))),
            false,
        )
    }

    /// Adds a `(1, cols)` row vector (e.g. a bias) to every row.
    pub fn add_row_broadcast(&self, row: &Var) -> Var {
        let out = self.data().add_row_broadcast(&row.data());
        let a = self.clone();
        let b = row.clone();
        Var::make(
            out,
            vec![self.clone(), row.clone()],
            Some(Box::new(move |g| {
                a.accumulate_grad(g);
                // Bias gradient: column-wise sum over rows.
                let mut db = Tensor::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for (d, &v) in db.row_mut(0).iter_mut().zip(g.row(r)) {
                        *d += v;
                    }
                }
                b.accumulate_grad(&db);
            })),
            false,
        )
    }

    /// Transpose.
    pub fn transpose(&self) -> Var {
        let out = self.data().transpose();
        let a = self.clone();
        Var::make(
            out,
            vec![self.clone()],
            Some(Box::new(move |g| a.accumulate_grad(&g.transpose()))),
            false,
        )
    }

    /// ReLU activation.
    pub fn relu(&self) -> Var {
        let x = self.value();
        let out = x.map(|v| v.max(0.0));
        let a = self.clone();
        Var::make(
            out,
            vec![self.clone()],
            Some(Box::new(move |g| {
                let da = g.zip_map(&x, |gi, xi| if xi > 0.0 { gi } else { 0.0 });
                a.accumulate_grad(&da);
            })),
            false,
        )
    }

    /// GELU activation (tanh approximation). The forward scalar lives in
    /// [`crate::funcs::gelu_scalar`] so the inference path matches bit-for-bit.
    pub fn gelu(&self) -> Var {
        const C: f32 = 0.7978845608; // sqrt(2/pi)
        let x = self.value();
        let out = x.map(crate::funcs::gelu_scalar);
        let a = self.clone();
        Var::make(
            out,
            vec![self.clone()],
            Some(Box::new(move |g| {
                let da = g.zip_map(&x, |gi, v| {
                    let u = C * (v + 0.044715 * v * v * v);
                    let t = u.tanh();
                    let du = C * (1.0 + 3.0 * 0.044715 * v * v);
                    gi * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du)
                });
                a.accumulate_grad(&da);
            })),
            false,
        )
    }

    /// Sigmoid activation.
    pub fn sigmoid(&self) -> Var {
        let out = self.data().map(|v| 1.0 / (1.0 + (-v).exp()));
        let s = out.clone();
        let a = self.clone();
        Var::make(
            out,
            vec![self.clone()],
            Some(Box::new(move |g| {
                let da = g.zip_map(&s, |gi, si| gi * si * (1.0 - si));
                a.accumulate_grad(&da);
            })),
            false,
        )
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Var {
        let out = self.data().map(f32::exp);
        let saved = out.clone();
        let a = self.clone();
        Var::make(
            out,
            vec![self.clone()],
            Some(Box::new(move |g| {
                let da = g.mul(&saved);
                a.accumulate_grad(&da);
            })),
            false,
        )
    }

    /// Element-wise natural logarithm (inputs are clamped at `1e-12`).
    pub fn ln(&self) -> Var {
        let x = self.value();
        let out = x.map(|v| v.max(1e-12).ln());
        let a = self.clone();
        Var::make(
            out,
            vec![self.clone()],
            Some(Box::new(move |g| {
                let da = g.zip_map(&x, |gi, xi| gi / xi.max(1e-12));
                a.accumulate_grad(&da);
            })),
            false,
        )
    }

    /// Tanh activation.
    pub fn tanh(&self) -> Var {
        let out = self.data().map(f32::tanh);
        let t = out.clone();
        let a = self.clone();
        Var::make(
            out,
            vec![self.clone()],
            Some(Box::new(move |g| {
                let da = g.zip_map(&t, |gi, ti| gi * (1.0 - ti * ti));
                a.accumulate_grad(&da);
            })),
            false,
        )
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Var {
        let s = self.data().softmax_rows();
        let s_saved = s.clone();
        let a = self.clone();
        Var::make(
            s,
            vec![self.clone()],
            Some(Box::new(move |g| {
                // dx_i = s_i * (g_i - sum_j g_j s_j), per row.
                let mut da = Tensor::zeros(g.rows(), g.cols());
                for r in 0..g.rows() {
                    let dot: f32 = g
                        .row(r)
                        .iter()
                        .zip(s_saved.row(r))
                        .map(|(&gi, &si)| gi * si)
                        .sum();
                    for (c, d) in da.row_mut(r).iter_mut().enumerate() {
                        let si = s_saved.get(r, c);
                        *d = si * (g.get(r, c) - dot);
                    }
                }
                a.accumulate_grad(&da);
            })),
            false,
        )
    }

    /// Adds a constant mask tensor (no gradient flows to the mask). Used for
    /// attention masking with `-1e9` entries.
    pub fn add_mask(&self, mask: &Tensor) -> Var {
        let out = self.data().add(mask);
        let a = self.clone();
        Var::make(
            out,
            vec![self.clone()],
            Some(Box::new(move |g| a.accumulate_grad(g))),
            false,
        )
    }

    /// Row-wise layer normalization with learnable `gain` and `bias`
    /// (`(1, cols)` parameters).
    pub fn layer_norm(&self, gain: &Var, bias: &Var, eps: f32) -> Var {
        // Forward kernel shared with the raw-tensor inference path
        // (`funcs::layer_norm_forward`) so the two are bit-identical.
        let x = self.value();
        let (out, xhat, inv_std) =
            crate::funcs::layer_norm_forward(&x, &gain.data(), &bias.data(), eps);
        let a = self.clone();
        let gv = gain.clone();
        let bv = bias.clone();
        let xhat_saved = xhat;
        Var::make(
            out,
            vec![self.clone(), gain.clone(), bias.clone()],
            Some(Box::new(move |g| {
                let (rows, cols) = (g.rows(), g.cols());
                let gd = gv.value();
                // Gain & bias grads.
                let mut dgain = Tensor::zeros(1, cols);
                let mut dbias = Tensor::zeros(1, cols);
                for r in 0..rows {
                    for c in 0..cols {
                        let gi = g.get(r, c);
                        dgain.set(0, c, dgain.get(0, c) + gi * xhat_saved.get(r, c));
                        dbias.set(0, c, dbias.get(0, c) + gi);
                    }
                }
                gv.accumulate_grad(&dgain);
                bv.accumulate_grad(&dbias);
                // Input grad, standard layer-norm backward per row:
                // dx = istd/n * (n*dy' - sum(dy') - xhat * sum(dy' * xhat))
                // where dy' = dy * gain.
                let n = cols as f32;
                let mut da = Tensor::zeros(rows, cols);
                for r in 0..rows {
                    let mut sum_dy = 0.0f32;
                    let mut sum_dy_xhat = 0.0f32;
                    for c in 0..cols {
                        let dy = g.get(r, c) * gd.get(0, c);
                        sum_dy += dy;
                        sum_dy_xhat += dy * xhat_saved.get(r, c);
                    }
                    for c in 0..cols {
                        let dy = g.get(r, c) * gd.get(0, c);
                        let v = inv_std[r] / n
                            * (n * dy - sum_dy - xhat_saved.get(r, c) * sum_dy_xhat);
                        da.set(r, c, v);
                    }
                }
                a.accumulate_grad(&da);
            })),
            false,
        )
    }

    /// Embedding lookup: rows of the `(vocab, dim)` parameter `weight`
    /// selected by `indices`. Backward scatters into the weight gradient.
    pub fn embedding(weight: &Var, indices: &[usize]) -> Var {
        let w = weight.data();
        let dim = w.cols();
        let mut out = Tensor::zeros(indices.len(), dim);
        for (r, &idx) in indices.iter().enumerate() {
            assert!(idx < w.rows(), "embedding index {idx} out of vocab");
            out.row_mut(r).copy_from_slice(w.row(idx));
        }
        drop(w);
        let wv = weight.clone();
        let idxs: Vec<usize> = indices.to_vec();
        Var::make(
            out,
            vec![weight.clone()],
            Some(Box::new(move |g| {
                let mut dw = Tensor::zeros(wv.shape().0, wv.shape().1);
                for (r, &idx) in idxs.iter().enumerate() {
                    for (d, &gi) in dw.row_mut(idx).iter_mut().zip(g.row(r)) {
                        *d += gi;
                    }
                }
                wv.accumulate_grad(&dw);
            })),
            false,
        )
    }

    /// Extracts columns `[start, start+width)` (per-head attention slicing).
    pub fn slice_cols(&self, start: usize, width: usize) -> Var {
        let out = self.data().slice_cols(start, width);
        let a = self.clone();
        let (rows, cols) = self.shape();
        Var::make(
            out,
            vec![self.clone()],
            Some(Box::new(move |g| {
                let mut da = Tensor::zeros(rows, cols);
                for r in 0..rows {
                    da.row_mut(r)[start..start + width].copy_from_slice(g.row(r));
                }
                a.accumulate_grad(&da);
            })),
            false,
        )
    }

    /// Horizontally concatenates vars with equal row counts.
    pub fn concat_cols(parts: &[Var]) -> Var {
        assert!(!parts.is_empty());
        let datas: Vec<Tensor> = parts.iter().map(Var::value).collect();
        let refs: Vec<&Tensor> = datas.iter().collect();
        let out = Tensor::concat_cols(&refs);
        let widths: Vec<usize> = datas.iter().map(Tensor::cols).collect();
        let parts_saved: Vec<Var> = parts.to_vec();
        Var::make(
            out,
            parts.to_vec(),
            Some(Box::new(move |g| {
                let mut off = 0;
                for (p, &w) in parts_saved.iter().zip(&widths) {
                    p.accumulate_grad(&g.slice_cols(off, w));
                    off += w;
                }
            })),
            false,
        )
    }

    /// Mean of all entries, as a `1x1` scalar.
    pub fn mean_all(&self) -> Var {
        let d = self.value();
        let n = d.len().max(1) as f32;
        let out = Tensor::full(1, 1, d.sum() / n);
        let a = self.clone();
        let (rows, cols) = d.shape();
        Var::make(
            out,
            vec![self.clone()],
            Some(Box::new(move |g| {
                let s = g.get(0, 0) / n;
                a.accumulate_grad(&Tensor::full(rows, cols, s));
            })),
            false,
        )
    }

    /// Dropout with keep-probability `1 - p`, scaled at train time (inverted
    /// dropout). `mask` must contain `0.0` (dropped) or `1/(1-p)` values and
    /// is supplied by the caller so training loops control the RNG.
    pub fn dropout_with_mask(&self, mask: &Tensor) -> Var {
        self.mul(&Var::constant(mask.clone()))
    }

    /// Cross entropy of row-wise logits against target class indices,
    /// averaged over rows where `targets[r] != ignore`. Returns a scalar.
    pub fn cross_entropy_logits(&self, targets: &[usize], ignore: Option<usize>) -> Var {
        let logits = self.value();
        let (rows, cols) = logits.shape();
        assert_eq!(rows, targets.len(), "one target per row");
        let probs = logits.softmax_rows();
        let active: Vec<usize> = (0..rows)
            .filter(|&r| ignore != Some(targets[r]))
            .collect();
        let n_active = active.len().max(1) as f32;
        let mut loss = 0.0f32;
        for &r in &active {
            loss -= probs.get(r, targets[r]).max(1e-12).ln();
        }
        loss /= n_active;
        let a = self.clone();
        let t: Vec<usize> = targets.to_vec();
        Var::make(
            Tensor::full(1, 1, loss),
            vec![self.clone()],
            Some(Box::new(move |g| {
                let s = g.get(0, 0) / n_active;
                let mut da = Tensor::zeros(rows, cols);
                for &r in &active {
                    for c in 0..cols {
                        let mut v = probs.get(r, c);
                        if c == t[r] {
                            v -= 1.0;
                        }
                        da.set(r, c, v * s);
                    }
                }
                a.accumulate_grad(&da);
            })),
            false,
        )
    }

    /// Numerically stable binary cross-entropy *with logits* against constant
    /// targets in `[0, 1]`, averaged over all entries. Returns a scalar.
    pub fn bce_with_logits(&self, targets: &Tensor) -> Var {
        let z = self.value();
        assert_eq!(z.shape(), targets.shape());
        let n = z.len().max(1) as f32;
        // loss = mean( max(z,0) - z*y + log(1 + exp(-|z|)) )
        let loss = z
            .as_slice()
            .iter()
            .zip(targets.as_slice())
            .map(|(&zi, &yi)| zi.max(0.0) - zi * yi + (1.0 + (-zi.abs()).exp()).ln())
            .sum::<f32>()
            / n;
        let a = self.clone();
        let t = targets.clone();
        let (rows, cols) = z.shape();
        Var::make(
            Tensor::full(1, 1, loss),
            vec![self.clone()],
            Some(Box::new(move |g| {
                let s = g.get(0, 0) / n;
                // d/dz = sigmoid(z) - y
                let mut da = Tensor::zeros(rows, cols);
                for (i, (&zi, &yi)) in z.as_slice().iter().zip(t.as_slice()).enumerate() {
                    let sig = 1.0 / (1.0 + (-zi).exp());
                    da.as_mut_slice()[i] = (sig - yi) * s;
                }
                a.accumulate_grad(&da);
            })),
            false,
        )
    }

    /// Mean squared error against a constant target, as a scalar.
    pub fn mse(&self, target: &Tensor) -> Var {
        let x = self.value();
        assert_eq!(x.shape(), target.shape());
        let n = x.len().max(1) as f32;
        let loss = x
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f32>()
            / n;
        let a = self.clone();
        let t = target.clone();
        Var::make(
            Tensor::full(1, 1, loss),
            vec![self.clone()],
            Some(Box::new(move |g| {
                let s = g.get(0, 0) * 2.0 / n;
                let da = a.value().zip_map(&t, |xi, ti| (xi - ti) * s);
                a.accumulate_grad(&da);
            })),
            false,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference numerical gradient check on a scalar function.
    fn check_grad(param: &Var, loss_fn: impl Fn() -> Var, tol: f32) {
        param.zero_grad();
        let loss = loss_fn();
        loss.backward();
        let analytic = param.grad_value();
        let (rows, cols) = param.shape();
        let eps = 1e-3f32;
        for r in 0..rows {
            for c in 0..cols {
                let orig = param.data().get(r, c);
                param.update_value(|t| t.set(r, c, orig + eps));
                let up = loss_fn().data().get(0, 0);
                param.update_value(|t| t.set(r, c, orig - eps));
                let down = loss_fn().data().get(0, 0);
                param.update_value(|t| t.set(r, c, orig));
                let numeric = (up - down) / (2.0 * eps);
                let a = analytic.get(r, c);
                assert!(
                    (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                    "grad mismatch at ({r},{c}): analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn matmul_grad() {
        let w = Var::param(Tensor::from_vec(2, 2, vec![0.5, -0.3, 0.8, 0.1]));
        let x = Var::constant(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        check_grad(&w, || x.matmul(&w).mean_all(), 1e-2);
    }

    #[test]
    fn chained_ops_grad() {
        let w = Var::param(Tensor::from_vec(2, 3, vec![0.1, 0.2, -0.1, 0.4, -0.5, 0.3]));
        let b = Var::param(Tensor::row_vector(vec![0.05, -0.02, 0.1]));
        let x = Var::constant(Tensor::from_vec(2, 2, vec![1.0, -1.0, 0.5, 2.0]));
        check_grad(&w, || x.matmul(&w).add_row_broadcast(&b).tanh().mean_all(), 2e-2);
        check_grad(&b, || x.matmul(&w).add_row_broadcast(&b).tanh().mean_all(), 2e-2);
    }

    #[test]
    fn relu_sigmoid_gelu_grads() {
        let w = Var::param(Tensor::from_vec(1, 4, vec![0.7, -0.8, 0.3, 1.2]));
        check_grad(&w, || w.relu().mean_all(), 1e-2);
        check_grad(&w, || w.sigmoid().mean_all(), 1e-2);
        check_grad(&w, || w.gelu().mean_all(), 2e-2);
    }

    #[test]
    fn exp_ln_grads_and_inverse() {
        let w = Var::param(Tensor::from_vec(1, 3, vec![0.5, 1.0, 2.0]));
        check_grad(&w, || w.exp().mean_all(), 2e-2);
        check_grad(&w, || w.ln().mean_all(), 2e-2);
        // ln(exp(x)) == x
        let roundtrip = w.exp().ln().value();
        for (a, b) in roundtrip.as_slice().iter().zip(w.value().as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_grad() {
        let w = Var::param(Tensor::from_vec(2, 3, vec![0.2, -0.4, 0.6, 1.0, 0.0, -1.0]));
        let mask = Tensor::from_vec(2, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
        check_grad(
            &w,
            || w.softmax_rows().mul(&Var::constant(mask.clone())).mean_all(),
            1e-2,
        );
    }

    #[test]
    fn layer_norm_grad() {
        let x = Var::param(Tensor::from_vec(2, 4, vec![0.3, -0.2, 0.9, 0.1, 1.2, 0.4, -0.5, 0.0]));
        let gain = Var::param(Tensor::row_vector(vec![1.0, 0.9, 1.1, 1.0]));
        let bias = Var::param(Tensor::row_vector(vec![0.0, 0.1, -0.1, 0.0]));
        let weights = Tensor::from_vec(2, 4, vec![0.5, 1.0, -0.5, 0.25, 1.0, -1.0, 0.5, 0.75]);
        let f = || {
            x.layer_norm(&gain, &bias, 1e-5)
                .mul(&Var::constant(weights.clone()))
                .mean_all()
        };
        check_grad(&x, f, 3e-2);
        check_grad(&gain, f, 3e-2);
        check_grad(&bias, f, 3e-2);
    }

    #[test]
    fn embedding_grad_scatters() {
        let w = Var::param(Tensor::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]));
        let out = Var::embedding(&w, &[2, 0, 2]);
        out.mean_all().backward();
        let g = w.grad_value();
        // Row 2 appears twice, row 0 once, row 1 never. mean over 6 entries.
        assert!((g.get(2, 0) - 2.0 / 6.0).abs() < 1e-6);
        assert!((g.get(0, 0) - 1.0 / 6.0).abs() < 1e-6);
        assert_eq!(g.get(1, 0), 0.0);
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let logits = Var::param(Tensor::from_vec(2, 3, vec![2.0, 1.0, 0.0, 0.0, 0.0, 0.0]));
        let loss = logits.cross_entropy_logits(&[0, 2], None);
        let p0 = (2.0f32).exp() / ((2.0f32).exp() + (1.0f32).exp() + 1.0);
        let expected = (-(p0.ln()) - (1.0f32 / 3.0).ln()) / 2.0;
        assert!((loss.data().get(0, 0) - expected).abs() < 1e-5);
        check_grad(&logits, || logits.cross_entropy_logits(&[0, 2], None), 1e-2);
    }

    #[test]
    fn cross_entropy_ignores_pad() {
        let logits = Var::param(Tensor::from_vec(2, 3, vec![2.0, 1.0, 0.0, 5.0, 5.0, 5.0]));
        let loss_all = logits.cross_entropy_logits(&[0, 1], None).data().get(0, 0);
        let loss_ignored = logits.cross_entropy_logits(&[0, 1], Some(1)).data().get(0, 0);
        assert!(loss_ignored != loss_all);
        // With row 1 ignored, loss equals the row-0 NLL.
        let p0 = (2.0f32).exp() / ((2.0f32).exp() + (1.0f32).exp() + 1.0);
        assert!((loss_ignored + p0.ln()).abs() < 1e-5);
    }

    #[test]
    fn bce_with_logits_grad() {
        let z = Var::param(Tensor::from_vec(1, 3, vec![0.5, -1.0, 2.0]));
        let y = Tensor::from_vec(1, 3, vec![1.0, 0.0, 1.0]);
        check_grad(&z, || z.bce_with_logits(&y), 1e-2);
        // Known value at z=0, y=1: ln 2.
        let z0 = Var::param(Tensor::from_vec(1, 1, vec![0.0]));
        let l = z0.bce_with_logits(&Tensor::from_vec(1, 1, vec![1.0]));
        assert!((l.data().get(0, 0) - std::f32::consts::LN_2).abs() < 1e-6);
    }

    #[test]
    fn mse_grad() {
        let x = Var::param(Tensor::from_vec(1, 2, vec![1.0, -2.0]));
        let t = Tensor::from_vec(1, 2, vec![0.0, 0.0]);
        check_grad(&x, || x.mse(&t), 1e-2);
        assert!((x.mse(&t).data().get(0, 0) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn slice_concat_grads() {
        let x = Var::param(Tensor::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]));
        let f = || {
            let a = x.slice_cols(0, 2);
            let b = x.slice_cols(2, 2);
            Var::concat_cols(&[b, a]).mean_all()
        };
        check_grad(&x, f, 1e-2);
    }

    #[test]
    fn grad_accumulates_across_backwards() {
        let w = Var::param(Tensor::from_vec(1, 1, vec![2.0]));
        let x = Var::constant(Tensor::from_vec(1, 1, vec![3.0]));
        x.matmul(&w).mean_all().backward();
        x.matmul(&w).mean_all().backward();
        assert_eq!(w.grad_value().get(0, 0), 6.0);
        w.zero_grad();
        assert_eq!(w.grad_value().get(0, 0), 0.0);
    }

    #[test]
    fn diamond_graph_grad() {
        // y = (x * x) + x: dy/dx = 2x + 1 summed via two paths.
        let x = Var::param(Tensor::from_vec(1, 1, vec![3.0]));
        let y = x.mul(&x).add(&x).mean_all();
        y.backward();
        assert_eq!(x.grad_value().get(0, 0), 7.0);
    }

    #[test]
    fn sgd_reduces_simple_loss() {
        // One linear weight fitting y = 2x by MSE.
        let w = Var::param(Tensor::from_vec(1, 1, vec![0.0]));
        let x = Var::constant(Tensor::from_vec(1, 1, vec![1.0]));
        let target = Tensor::from_vec(1, 1, vec![2.0]);
        let mut prev = f32::INFINITY;
        for _ in 0..50 {
            w.zero_grad();
            let loss = x.matmul(&w).mse(&target);
            let lv = loss.data().get(0, 0);
            assert!(lv <= prev + 1e-6);
            prev = lv;
            loss.backward();
            let g = w.grad_value();
            w.update_value(|t| t.add_scaled_assign(&g, -0.3));
        }
        assert!((w.data().get(0, 0) - 2.0).abs() < 1e-2);
    }
}
