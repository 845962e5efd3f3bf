//! The versioned SERD model artifact: everything the *online* phase needs,
//! bundled into one `serd-model-v1` file.
//!
//! The paper's pipeline is two-phase. The **offline** phase (S1) is the
//! expensive one — learn `O_real`, train the per-column DP transformers and
//! the tabular GAN. The **online** phase (S2 + S3) only samples from those
//! learned components. [`SerdModel`] is the boundary between the two: it
//! holds the learned distribution parameters plus the public background
//! corpus slices, and *no real entities* — exactly the artifact the paper's
//! Section II-D argues is safe to share.

use crate::backend::TabularBackend;
use crate::synthesis::ColumnSynthesizer;
use crate::SerdConfig;
use gmm::io::MAX_PERSISTED_COMPONENTS;
use gmm::{GmmConfig, OMixture};
use persist::{Persist, Reader, Writer};

/// Upper bound on persisted corpus sizes per text column. The corpora are
/// *public background data* (paper Section IV-B2), not real entities, but a
/// corrupt count must still not trigger an absurd allocation.
const MAX_PERSISTED_CORPUS: usize = 1 << 22;

/// Upper bound on the knob-style integer fields of [`OnlineConfig`] (also
/// the cap `serd::api` applies to request-supplied overrides).
pub(crate) const MAX_ONLINE_KNOB: usize = 1 << 20;

/// The subset of [`SerdConfig`] the online phase actually reads. Persisted
/// with the model so `synthesize` behaves identically whether the model came
/// from `fit` in the same process or from an artifact on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineConfig {
    /// Distribution-rejection strictness `α` (Eq. 10).
    pub alpha: f64,
    /// Discriminator-rejection threshold `β`.
    pub beta: f64,
    /// Enable rejection Case 1 (GAN discriminator).
    pub reject_by_discriminator: bool,
    /// Enable rejection Case 2 (distribution drift, Eq. 10).
    pub reject_by_distribution: bool,
    /// Entities sampled from `T_e` when computing `ΔX_syn`.
    pub t_sample: usize,
    /// Monte-Carlo samples per JSD estimate.
    pub jsd_samples: usize,
    /// Pairs collected before the `O_syn` tracker is first fitted.
    pub osyn_warmup: usize,
    /// Retries before a repeatedly rejected entity is accepted anyway.
    pub max_retries: usize,
    /// GMM configuration for the incremental `O_syn` refits.
    pub gmm: GmmConfig,
}

impl OnlineConfig {
    /// Extracts the online-phase knobs from a full pipeline configuration.
    pub fn from_serd(cfg: &SerdConfig) -> Self {
        OnlineConfig {
            alpha: cfg.alpha,
            beta: cfg.beta,
            reject_by_discriminator: cfg.reject_by_discriminator,
            reject_by_distribution: cfg.reject_by_distribution,
            t_sample: cfg.t_sample,
            jsd_samples: cfg.jsd_samples,
            osyn_warmup: cfg.osyn_warmup,
            max_retries: cfg.max_retries,
            gmm: cfg.gmm.clone(),
        }
    }
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig::from_serd(&SerdConfig::default())
    }
}

/// The fitted, shareable SERD model: output of the offline phase
/// ([`crate::SerdSynthesizer::fit`]), input of the online phase
/// ([`crate::SerdSynthesizer::from_model`]).
///
/// Contains learned distribution parameters (`O_real`, transformer weights,
/// the tabular backend — GAN weights or noisy marginals), column metadata
/// (bounds, categorical domains), the public text corpora the backend's
/// generator samples from, and the online-phase configuration. It never
/// contains rows of the real `A`/`B` relations.
pub struct SerdModel {
    /// The learned pair-similarity distribution `O_real` (M- and N-GMMs).
    pub o_real: OMixture,
    /// Column-wise synthesis machinery (schema, domains, text models).
    pub columns: ColumnSynthesizer,
    /// The tabular backend (cold-start generator + rejection Case 1 scorer):
    /// the paper's GAN or the DP-marginals synthesizer.
    pub backend: TabularBackend,
    /// Per-column background corpus slices, indexed by column; only text
    /// columns carry entries (the backends' generators read nothing else).
    pub text_corpora: Vec<Vec<String>>,
    /// Target `|A_syn|`.
    pub n_a: usize,
    /// Target `|B_syn|`.
    pub n_b: usize,
    /// Names of the synthesized relations.
    pub names: (String, String),
    /// S2-2 probability of drawing from the M-distribution.
    pub match_rate: f64,
    /// DP ε (δ = 1e-5) spent training the text models.
    pub epsilon: f64,
    /// Online-phase knobs captured at fit time.
    pub online: OnlineConfig,
}

impl Persist for SerdModel {
    const MAGIC: &'static str = "serd-model-v1";

    fn write_body(&self, w: &mut Writer) {
        w.kv("n_a", self.n_a);
        w.kv("n_b", self.n_b);
        w.kv_str("name_a", &self.names.0);
        w.kv_str("name_b", &self.names.1);
        w.kv_f64("match_rate", self.match_rate);
        w.kv_f64("epsilon", self.epsilon);
        w.kv_f64("alpha", self.online.alpha);
        w.kv_f64("beta", self.online.beta);
        w.kv_bool("reject_by_discriminator", self.online.reject_by_discriminator);
        w.kv_bool("reject_by_distribution", self.online.reject_by_distribution);
        w.kv("t_sample", self.online.t_sample);
        w.kv("jsd_samples", self.online.jsd_samples);
        w.kv("osyn_warmup", self.online.osyn_warmup);
        w.kv("max_retries", self.online.max_retries);
        w.kv("gmm_max_components", self.online.gmm.max_components);
        w.kv("gmm_max_iters", self.online.gmm.max_iters);
        w.kv_f64("gmm_tol", self.online.gmm.tol);
        w.kv_f64("gmm_reg_covar", self.online.gmm.reg_covar);
        w.kv("corpora", self.text_corpora.len());
        for corpus in &self.text_corpora {
            w.kv("corpus", corpus.len());
            for t in corpus {
                w.kv_str("t", t);
            }
        }
        w.child(&self.o_real);
        w.child(&self.columns);
        // The backend writes its own `serd-gan-v1` / `serd-marginals-v1`
        // section; for the GAN this is byte-identical to the pre-seam layout.
        self.backend.write_into(w);
    }

    fn read_body(r: &mut Reader<'_>) -> persist::Result<Self> {
        let n_a = r.kv_usize("n_a")?;
        let n_b = r.kv_usize("n_b")?;
        let name_a = r.kv_str("name_a")?;
        let name_b = r.kv_str("name_b")?;
        let match_rate = r.kv_finite_f64("match_rate")?;
        if !(0.0..=1.0).contains(&match_rate) {
            return Err(r.invalid(format!("match_rate {match_rate} outside [0, 1]")));
        }
        let epsilon = r.kv_finite_f64("epsilon")?;
        if epsilon < 0.0 {
            return Err(r.invalid(format!("negative epsilon {epsilon}")));
        }
        let alpha = r.kv_finite_f64("alpha")?;
        if alpha < 0.0 {
            return Err(r.invalid(format!("negative alpha {alpha}")));
        }
        let beta = r.kv_finite_f64("beta")?;
        if !(0.0..=1.0).contains(&beta) {
            return Err(r.invalid(format!("beta {beta} outside [0, 1]")));
        }
        let reject_by_discriminator = r.kv_bool("reject_by_discriminator")?;
        let reject_by_distribution = r.kv_bool("reject_by_distribution")?;
        let t_sample = r.kv_usize("t_sample")?;
        let jsd_samples = r.kv_usize("jsd_samples")?;
        let osyn_warmup = r.kv_usize("osyn_warmup")?;
        let max_retries = r.kv_usize("max_retries")?;
        for (key, v) in [
            ("t_sample", t_sample),
            ("jsd_samples", jsd_samples),
            ("osyn_warmup", osyn_warmup),
            ("max_retries", max_retries),
        ] {
            if v > MAX_ONLINE_KNOB {
                return Err(r.invalid(format!("implausible {key} {v}")));
            }
        }
        if t_sample == 0 || jsd_samples == 0 {
            return Err(r.invalid("t_sample and jsd_samples must be positive"));
        }
        let gmm_max_components = r.kv_usize("gmm_max_components")?;
        if gmm_max_components == 0 || gmm_max_components > MAX_PERSISTED_COMPONENTS {
            return Err(r.invalid(format!(
                "gmm_max_components {gmm_max_components} outside [1, {MAX_PERSISTED_COMPONENTS}]"
            )));
        }
        let gmm_max_iters = r.kv_usize("gmm_max_iters")?;
        if gmm_max_iters == 0 || gmm_max_iters > MAX_ONLINE_KNOB {
            return Err(r.invalid(format!("implausible gmm_max_iters {gmm_max_iters}")));
        }
        let gmm_tol = r.kv_finite_f64("gmm_tol")?;
        let gmm_reg_covar = r.kv_finite_f64("gmm_reg_covar")?;
        if gmm_tol < 0.0 || gmm_reg_covar < 0.0 {
            return Err(r.invalid("gmm_tol and gmm_reg_covar must be non-negative"));
        }
        let n_corpora = r.kv_usize("corpora")?;
        if n_corpora > 4096 {
            return Err(r.invalid(format!("implausible corpora count {n_corpora}")));
        }
        let mut text_corpora = Vec::with_capacity(n_corpora);
        for _ in 0..n_corpora {
            let m = r.kv_usize("corpus")?;
            if m > MAX_PERSISTED_CORPUS {
                return Err(r.invalid(format!("implausible corpus size {m}")));
            }
            let mut corpus = Vec::with_capacity(m);
            for _ in 0..m {
                corpus.push(r.kv_str("t")?);
            }
            text_corpora.push(corpus);
        }
        let o_real: OMixture = r.child()?;
        let columns: ColumnSynthesizer = r.child()?;
        let backend = TabularBackend::read_from(r)?;
        if let TabularBackend::Marginals(m) = &backend {
            if m.dim() != columns.schema().len() {
                return Err(r.invalid(format!(
                    "marginals dimension {} does not match {} columns",
                    m.dim(),
                    columns.schema().len()
                )));
            }
        }
        // Cross-component consistency: the corpora vector is indexed by
        // column, and `x ~ O_real` must have one similarity per column.
        if text_corpora.len() != columns.schema().len() {
            return Err(r.invalid(format!(
                "{} corpora for {} columns",
                text_corpora.len(),
                columns.schema().len()
            )));
        }
        if o_real.dim() != columns.schema().len() {
            return Err(r.invalid(format!(
                "O_real dimension {} does not match {} columns",
                o_real.dim(),
                columns.schema().len()
            )));
        }
        Ok(SerdModel {
            o_real,
            columns,
            backend,
            text_corpora,
            n_a,
            n_b,
            names: (name_a, name_b),
            match_rate,
            epsilon,
            online: OnlineConfig {
                alpha,
                beta,
                reject_by_discriminator,
                reject_by_distribution,
                t_sample,
                jsd_samples,
                osyn_warmup,
                max_retries,
                gmm: GmmConfig {
                    max_components: gmm_max_components,
                    max_iters: gmm_max_iters,
                    tol: gmm_tol,
                    reg_covar: gmm_reg_covar,
                },
            },
        })
    }
}

impl SerdModel {
    /// Saves the model to `path`, wrapping IO/format errors into
    /// [`crate::SerdError`].
    pub fn save_to(&self, path: impl AsRef<std::path::Path>) -> crate::Result<()> {
        Ok(self.save(path)?)
    }

    /// Loads a model artifact from `path`.
    pub fn load_from(path: impl AsRef<std::path::Path>) -> crate::Result<Self> {
        Ok(Self::load(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, DatasetKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_model() -> SerdModel {
        let mut rng = StdRng::seed_from_u64(0);
        let sim = generate(DatasetKind::Restaurant, 0.02, &mut rng);
        crate::SerdSynthesizer::fit(&sim.er, &sim.background, SerdConfig::fast(), &mut rng)
            .expect("fit succeeds")
    }

    #[test]
    fn model_roundtrip_is_byte_stable() {
        let model = small_model();
        let text = model.to_persist_string();
        let back = SerdModel::from_persist_str(&text).unwrap();
        assert_eq!(back.to_persist_string(), text);
        assert_eq!(back.n_a, model.n_a);
        assert_eq!(back.n_b, model.n_b);
        assert_eq!(back.names, model.names);
        assert_eq!(back.match_rate.to_bits(), model.match_rate.to_bits());
        assert_eq!(back.epsilon.to_bits(), model.epsilon.to_bits());
        assert_eq!(back.online, model.online);
        assert_eq!(back.text_corpora, model.text_corpora);
    }

    #[test]
    fn model_keeps_only_text_corpora() {
        let model = small_model();
        let schema = model.columns.schema().clone();
        assert_eq!(model.text_corpora.len(), schema.len());
        for (i, col) in schema.columns().iter().enumerate() {
            if col.ctype != er_core::ColumnType::Text {
                assert!(
                    model.text_corpora[i].is_empty(),
                    "non-text column {i} retained a corpus"
                );
            }
        }
        assert!(
            model.text_corpora.iter().any(|c| !c.is_empty()),
            "no text corpus retained at all"
        );
    }

    #[test]
    fn model_rejects_bad_match_rate() {
        let model = small_model();
        let text = model.to_persist_string();
        let bad = text.replacen(
            &format!("match_rate {}", persist::f64_to_hex(model.match_rate)),
            &format!("match_rate {}", persist::f64_to_hex(1.5)),
            1,
        );
        assert!(SerdModel::from_persist_str(&bad).is_err());
    }

    #[test]
    fn model_rejects_truncation_anywhere_coarse() {
        let model = small_model();
        let text = model.to_persist_string();
        let lines: Vec<&str> = text.lines().collect();
        // Cut at a handful of positions spread over the artifact.
        for frac in [1, 4, 13, 27, 50, 75, 98] {
            let cut = lines.len() * frac / 100;
            let partial: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
            assert!(
                SerdModel::from_persist_str(&partial).is_err(),
                "truncation at line {cut} accepted"
            );
        }
    }

    fn small_marginals_model() -> SerdModel {
        let mut rng = StdRng::seed_from_u64(0);
        let sim = generate(DatasetKind::Restaurant, 0.02, &mut rng);
        let cfg = SerdConfig::fast().with_backend(crate::Backend::Marginals);
        crate::SerdSynthesizer::fit(&sim.er, &sim.background, cfg, &mut rng)
            .expect("fit succeeds")
    }

    #[test]
    fn marginals_model_roundtrip_is_byte_stable() {
        let model = small_marginals_model();
        assert_eq!(model.backend.kind(), crate::Backend::Marginals);
        let text = model.to_persist_string();
        assert!(text.contains("serd-marginals-v1"), "marginals section missing");
        let back = SerdModel::from_persist_str(&text).unwrap();
        assert_eq!(back.backend.kind(), crate::Backend::Marginals);
        assert_eq!(back.to_persist_string(), text);
        assert_eq!(back.epsilon.to_bits(), model.epsilon.to_bits());
    }

    #[test]
    fn marginals_section_version_skew_detected() {
        let model = small_marginals_model();
        let text = model
            .to_persist_string()
            .replacen("serd-marginals-v1", "serd-marginals-v9", 1);
        assert!(matches!(
            SerdModel::from_persist_str(&text),
            Err(persist::PersistError::VersionSkew { .. })
        ));
    }

    #[test]
    fn model_version_skew_detected() {
        let model = small_model();
        let text = model
            .to_persist_string()
            .replacen("serd-model-v1", "serd-model-v2", 1);
        assert!(matches!(
            SerdModel::from_persist_str(&text),
            Err(persist::PersistError::VersionSkew { .. })
        ));
    }
}
