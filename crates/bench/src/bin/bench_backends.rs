//! Backend fit-cost comparison for `scripts/bench_marginals.sh`: wall time
//! of training the tabular GAN (DP-SGD discriminator) vs measuring the
//! DP-marginals synthesizer, on the same rows at matched ε, emitted as one
//! JSON object on stdout.
//!
//! Only the *backend* step is timed — the GMM/text-transformer costs of a
//! full `fit` are identical for both backends and would drown the
//! difference at bench scales.
//!
//! ```text
//! cargo run --release -p bench --bin bench_backends
//! ```

use bench::{scale_for, MIN_MATCHES};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serd_repro::datagen::{generate_with_min_matches, DatasetKind};
use serd_repro::er_core::Relation;
use serd_repro::gan::{DpGanConfig, TabularGan, TabularGanConfig};
use serd_repro::marginals::{MarginalSynthesizer, MarginalsConfig};
use serd_repro::serve::metrics::percentile;

const DELTA: f64 = 1e-5;
const SIGMA_GRID: [f64; 6] = [32.0, 16.0, 8.0, 4.0, 2.0, 1.0];

fn main() {
    let kind = DatasetKind::Restaurant;
    let mut rng = StdRng::seed_from_u64(11);
    let sim = generate_with_min_matches(kind, scale_for(kind), MIN_MATCHES, &mut rng);

    // Both backends train on the same pooled rows.
    let mut pooled = Relation::new("pooled", sim.er.a().schema().clone());
    for e in sim.er.a().entities().iter().chain(sim.er.b().entities()) {
        pooled.push_entity(e.clone()).expect("schema-valid row");
    }

    // DP-GAN reference: DP-SGD on the discriminator, σ = 1.
    let gan_cfg = TabularGanConfig {
        dp: Some(DpGanConfig { clip: 1.0, sigma: 1.0 }),
        ..TabularGanConfig::default()
    };
    let mut gan_times = Vec::new();
    let mut gan_eps = 0.0;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        let gan = TabularGan::train(&pooled, gan_cfg.clone(), &mut rng);
        gan_times.push(t.elapsed().as_secs_f64() * 1e3);
        gan_eps = gan.epsilon();
    }

    // Marginals at the grid σ whose ε is closest to the DP-GAN's.
    let (sigma, marg_eps) = SIGMA_GRID
        .iter()
        .map(|&sigma| {
            let cfg = MarginalsConfig { sigma, delta: DELTA, ..MarginalsConfig::default() };
            let m = MarginalSynthesizer::measure(sim.er.a(), sim.er.b(), &cfg, &mut rng);
            (sigma, m.epsilon())
        })
        .min_by(|a, b| (a.1 - gan_eps).abs().total_cmp(&(b.1 - gan_eps).abs()))
        .expect("non-empty grid");
    let cfg = MarginalsConfig { sigma, delta: DELTA, ..MarginalsConfig::default() };
    let mut marg_times = Vec::new();
    for _ in 0..5 {
        let t = std::time::Instant::now();
        let m = MarginalSynthesizer::measure(sim.er.a(), sim.er.b(), &cfg, &mut rng);
        marg_times.push(t.elapsed().as_secs_f64() * 1e3);
        assert!(m.epsilon().is_finite());
    }

    gan_times.sort_by(f64::total_cmp);
    marg_times.sort_by(f64::total_cmp);
    let gan_ms = percentile(&gan_times, 0.5);
    let marg_ms = percentile(&marg_times, 0.5);
    println!(
        "{{\"dataset\":\"{}\",\"rows\":{},\"delta\":{DELTA},\
         \"gan\":{{\"fit_ms\":{gan_ms:.3},\"epsilon\":{gan_eps:.4}}},\
         \"marginals\":{{\"fit_ms\":{marg_ms:.3},\"epsilon\":{marg_eps:.4},\"sigma\":{sigma}}},\
         \"speedup\":{:.2}}}",
        kind.name(),
        pooled.len(),
        gan_ms / marg_ms
    );
}
