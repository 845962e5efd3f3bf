//! [`Persist`] codecs for fitted mixtures.
//!
//! The paper's pipeline splits into an *offline* phase (hours: train models,
//! learn distributions) and an *online* phase (minutes: synthesize). This
//! module lets the offline artifact — the learned `O`-distribution — be
//! saved and shipped through the shared `persist` grammar: hex-bit-pattern
//! floats (bit-exact round trips), a magic line per component, and per-line
//! validation on read.
//!
//! A mixture (`serd-gmm-v1`) stores its parameters *and* its EM sufficient
//! statistics, so a reloaded model keeps supporting incremental updates
//! (Eq. 8–9). The `O`-distribution (`serd-odist-v1`) keeps the layout of its
//! original standalone format: a `lines` count, a `serd-omixture-v1` line,
//! `pi`, then the two mixtures behind `--m--` / `--n--` marker lines.
//!
//! Note the privacy angle: an `OMixture` file contains only distribution
//! parameters, which is exactly the artifact the paper argues is safe to
//! share (Section II-D).

use crate::em::SuffStats;
use crate::{Gaussian, Gmm, OMixture};
use linalg::Matrix;
use persist::{Persist, Reader, Writer};

/// Upper bound on a persisted mixture's component count. The same cap
/// `SerdModel` puts on `gmm_max_components`, so no fit can exceed it.
pub const MAX_PERSISTED_COMPONENTS: usize = 256;

/// Upper bound on a persisted mixture's dimensionality (one similarity
/// feature per attribute). Checked before any `dim × dim` buffer exists.
const MAX_PERSISTED_DIM: usize = 1024;

impl Persist for Gmm {
    const MAGIC: &'static str = "serd-gmm-v1";

    fn write_body(&self, w: &mut Writer) {
        let stats = self.stats();
        w.kv("components", self.num_components());
        w.kv("dim", self.dim());
        w.kv_f64("reg_covar", self.reg_covar());
        w.kv_f64("n", stats.n);
        for (k, comp) in self.components().iter().enumerate() {
            w.kv_f64("weight", self.weights()[k]);
            w.kv_f64s("mean", comp.mean());
            w.kv_f64s("cov", comp.cov().as_slice());
            w.kv_f64("gamma", stats.gamma[k]);
            w.kv_f64s("sum_x", &stats.sum_x[k]);
            w.kv_f64s("sum_xx", stats.sum_xx[k].as_slice());
        }
    }

    fn read_body(r: &mut Reader<'_>) -> persist::Result<Self> {
        let g = r.kv_usize("components")?;
        if g == 0 || g > MAX_PERSISTED_COMPONENTS {
            return Err(r.invalid(format!(
                "components {g} outside [1, {MAX_PERSISTED_COMPONENTS}]"
            )));
        }
        let d = r.kv_usize("dim")?;
        if d == 0 || d > MAX_PERSISTED_DIM {
            return Err(r.invalid(format!("dim {d} outside [1, {MAX_PERSISTED_DIM}]")));
        }
        let reg_covar = r.kv_finite_f64("reg_covar")?;
        let mut stats = SuffStats {
            gamma: Vec::with_capacity(g),
            sum_x: Vec::with_capacity(g),
            sum_xx: Vec::with_capacity(g),
            n: r.kv_finite_f64("n")?,
        };
        let mut weights = Vec::with_capacity(g);
        let mut components = Vec::with_capacity(g);
        for _ in 0..g {
            weights.push(r.kv_finite_f64("weight")?);
            let mean = r.kv_finite_f64s("mean", d)?;
            let cov = Matrix::from_vec(d, d, r.kv_finite_f64s("cov", d * d)?);
            components.push(Gaussian::new(mean, cov).map_err(|e| r.invalid(e.to_string()))?);
            stats.gamma.push(r.kv_finite_f64("gamma")?);
            stats.sum_x.push(r.kv_finite_f64s("sum_x", d)?);
            stats.sum_xx.push(Matrix::from_vec(d, d, r.kv_finite_f64s("sum_xx", d * d)?));
        }
        Gmm::from_parts(weights, components, stats, reg_covar)
            .map_err(|e| r.invalid(e.to_string()))
    }
}

impl Persist for OMixture {
    const MAGIC: &'static str = "serd-odist-v1";

    fn write_body(&self, w: &mut Writer) {
        // Lines after this one: `serd-omixture-v1`, `pi`, `--m--`, `--n--`,
        // five header lines per mixture, and six lines per component.
        let g = self.m().num_components() + self.n().num_components();
        w.kv("lines", 14 + 6 * g);
        w.line("serd-omixture-v1");
        w.kv_f64("pi", self.pi());
        w.line("--m--");
        w.child(self.m());
        w.line("--n--");
        w.child(self.n());
    }

    fn read_body(r: &mut Reader<'_>) -> persist::Result<Self> {
        let declared = r.kv_usize("lines")?;
        let start = r.line_no();
        r.magic("serd-omixture-v1")?;
        let pi = r.kv_finite_f64("pi")?;
        // `OMixture::new` clamps π; an out-of-range value is corruption.
        if !(0.0..=1.0).contains(&pi) {
            return Err(r.invalid(format!("pi {pi} outside [0, 1]")));
        }
        r.magic("--m--")?;
        let m: Gmm = r.child()?;
        r.magic("--n--")?;
        let n: Gmm = r.child()?;
        let consumed = r.line_no() - start;
        if consumed != declared {
            return Err(r.invalid(format!("lines {declared} declared, {consumed} present")));
        }
        OMixture::new(pi, m, n).map_err(|e| r.invalid(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GmmConfig;
    use persist::PersistError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fitted(seed: u64) -> Gmm {
        let mut rng = StdRng::seed_from_u64(seed);
        let g1 = Gaussian::isotropic(vec![0.2, 0.1], 0.01).unwrap();
        let g2 = Gaussian::isotropic(vec![0.8, 0.9], 0.01).unwrap();
        let data: Vec<Vec<f64>> = (0..100)
            .map(|i| if i % 2 == 0 { g1.sample(&mut rng) } else { g2.sample(&mut rng) })
            .collect();
        Gmm::fit(&data, 2, &GmmConfig::default(), &mut rng).unwrap()
    }

    /// A hand-built mixture with one shared 2×2 covariance and fixed
    /// sufficient statistics, so its artifact text is a stable literal.
    fn fixed(means: &[[f64; 2]]) -> Gmm {
        let g = means.len();
        let cov = || Matrix::from_vec(2, 2, vec![0.5, 0.125, 0.125, 0.25]);
        let comps = means.iter().map(|m| Gaussian::new(m.to_vec(), cov()).unwrap()).collect();
        let stats = SuffStats {
            gamma: vec![4.0; g],
            sum_x: means.iter().map(|m| vec![4.0 * m[0], 4.0 * m[1]]).collect(),
            sum_xx: vec![Matrix::from_vec(2, 2, vec![2.0, 0.5, 0.5, 1.0]); g],
            n: 4.0 * g as f64,
        };
        Gmm::from_parts(vec![1.0 / g as f64; g], comps, stats, 0.125).unwrap()
    }

    /// The `serd-odist-v1` bytes of two `fixed` mixtures. Every shipped
    /// `.serd` artifact embeds this layout, so a change here needs a format
    /// version bump.
    const FIXED_ODIST: &str = "\
serd-odist-v1
lines 32
serd-omixture-v1
pi 3fd0000000000000
--m--
serd-gmm-v1
components 2
dim 2
reg_covar 3fc0000000000000
n 4020000000000000
weight 3fe0000000000000
mean 3fe8000000000000 3ff0000000000000
cov 3fe0000000000000 3fc0000000000000 3fc0000000000000 3fd0000000000000
gamma 4010000000000000
sum_x 4008000000000000 4010000000000000
sum_xx 4000000000000000 3fe0000000000000 3fe0000000000000 3ff0000000000000
weight 3fe0000000000000
mean 3fe0000000000000 8000000000000000
cov 3fe0000000000000 3fc0000000000000 3fc0000000000000 3fd0000000000000
gamma 4010000000000000
sum_x 4000000000000000 8000000000000000
sum_xx 4000000000000000 3fe0000000000000 3fe0000000000000 3ff0000000000000
--n--
serd-gmm-v1
components 1
dim 2
reg_covar 3fc0000000000000
n 4010000000000000
weight 3ff0000000000000
mean 3fd0000000000000 0000000000000000
cov 3fe0000000000000 3fc0000000000000 3fc0000000000000 3fd0000000000000
gamma 4010000000000000
sum_x 3ff0000000000000 0000000000000000
sum_xx 4000000000000000 3fe0000000000000 3fe0000000000000 3ff0000000000000
";

    #[test]
    fn odist_layout_is_pinned() {
        let o = OMixture::new(0.25, fixed(&[[0.75, 1.0], [0.5, -0.0]]), fixed(&[[0.25, 0.0]]))
            .unwrap();
        assert_eq!(o.to_persist_string(), FIXED_ODIST);
        let back = OMixture::from_persist_str(FIXED_ODIST).unwrap();
        assert_eq!(back.to_persist_string(), FIXED_ODIST);
        assert_eq!(back.m().components()[1].mean()[1].to_bits(), (-0.0f64).to_bits());
        for x in [[0.3, 0.3], [0.8, 0.8]] {
            assert_eq!(back.posterior_match(&x).to_bits(), o.posterior_match(&x).to_bits());
        }
    }

    #[test]
    fn gmm_roundtrip_bitexact() {
        let gmm = fitted(1);
        let text = gmm.to_persist_string();
        let back = Gmm::from_persist_str(&text).unwrap();
        assert_eq!(back.num_components(), 2);
        assert_eq!(back.weights(), gmm.weights());
        for x in [[0.5, 0.5], [0.1, 0.2], [0.95, 0.85]] {
            assert_eq!(back.log_pdf(&x), gmm.log_pdf(&x));
        }
        assert_eq!(back.to_persist_string(), text);
    }

    #[test]
    fn roundtrip_preserves_incremental_updates() {
        let mut a = fitted(2);
        let mut b = Gmm::from_persist_str(&a.to_persist_string()).unwrap();
        let delta = vec![vec![0.5, 0.5]; 10];
        a.update_incremental(&delta).unwrap();
        b.update_incremental(&delta).unwrap();
        assert_eq!(a.log_pdf(&[0.5, 0.5]), b.log_pdf(&[0.5, 0.5]));
        assert_eq!(a.to_persist_string(), b.to_persist_string());
    }

    #[test]
    fn omixture_persist_roundtrip_bitexact() {
        let o = OMixture::new(0.33, fitted(6), fitted(7)).unwrap();
        let text = o.to_persist_string();
        let back = OMixture::from_persist_str(&text).unwrap();
        assert_eq!(back.pi().to_bits(), o.pi().to_bits());
        for x in [[0.3, 0.3], [0.8, 0.8]] {
            assert_eq!(back.posterior_match(&x), o.posterior_match(&x));
        }
        assert_eq!(back.to_persist_string(), text);
    }

    #[test]
    fn omixture_persist_rejects_nan_means() {
        let o = OMixture::new(0.33, fitted(8), fitted(9)).unwrap();
        let mean = o.m().components()[0].mean();
        let hex = |v: &[f64]| v.iter().map(|&x| persist::f64_to_hex(x)).collect::<Vec<_>>();
        let good = hex(mean).join(" ");
        let bad = hex(&[f64::NAN, mean[1]]).join(" ");
        let text = o.to_persist_string().replacen(&good, &bad, 1);
        assert!(matches!(
            OMixture::from_persist_str(&text),
            Err(PersistError::NonFinite { .. })
        ));
    }

    #[test]
    fn omixture_persist_rejects_truncation() {
        let o = OMixture::new(0.5, fitted(10), fitted(11)).unwrap();
        let text = o.to_persist_string();
        let cut: String = text
            .lines()
            .take(text.lines().count() / 2)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(OMixture::from_persist_str(&cut).is_err());
    }

    #[test]
    fn corrupt_input_is_rejected() {
        assert!(Gmm::from_persist_str("not a gmm").is_err());
        let bad_pi = "serd-odist-v1\nlines 32\nserd-omixture-v1\npi zz\n";
        assert!(OMixture::from_persist_str(bad_pi).is_err());
        let mut text = fitted(5).to_persist_string();
        text.truncate(text.len() / 2);
        assert!(Gmm::from_persist_str(&text).is_err());
    }

    #[test]
    fn oversized_counts_and_bad_pi_are_rejected_before_allocation() {
        for (from, to) in [
            ("components 2\n", "components 18446744073709551615\n"),
            ("components 2\n", "components 3000000000\n"),
            ("components 2\n", "components 0\n"),
            ("dim 2\n", "dim 18446744073709551615\n"),
            ("dim 2\n", "dim 3000000000\n"),
            ("pi 3fd0000000000000\n", "pi 4000000000000000\n"),
            ("pi 3fd0000000000000\n", "pi bff0000000000000\n"),
            ("lines 32\n", "lines 31\n"),
        ] {
            let text = FIXED_ODIST.replacen(from, to, 1);
            assert!(
                matches!(OMixture::from_persist_str(&text), Err(PersistError::Invalid { .. })),
                "{to:?} accepted"
            );
        }
    }
}
