//! The `synthesize` span's children account for nearly all of its time, so
//! the run report explains where an S2/S3 run goes.
//!
//! Its own test binary: the obs mode and registry are process-global.

use datagen::{generate, DatasetKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serd::{SerdConfig, SerdSynthesizer};

/// Every direct child span of `synthesize`.
const STAGES: [&str; 8] = [
    "s2.prepare_entity",
    "text.decode",
    "text.repair",
    "s2.discriminator",
    "s2.delta_vectors",
    "s2.would_reject",
    "osyn.commit",
    "s3.label",
];

#[test]
fn synthesize_children_cover_95_percent_of_it() {
    let mut rng = StdRng::seed_from_u64(12);
    let sim = generate(DatasetKind::Restaurant, 0.02, &mut rng);
    let model = SerdSynthesizer::fit(&sim.er, &sim.background, SerdConfig::fast(), &mut rng)
        .expect("fit");
    let syn = SerdSynthesizer::from_model(model);

    obs::set_mode(obs::Mode::Json);
    obs::reset();
    syn.synthesize(&mut rng).expect("synthesize");
    let total = obs::span_secs(&["synthesize"]).expect("synthesize span");
    let stages: Vec<(&str, f64)> = STAGES
        .iter()
        .map(|&name| (name, obs::span_secs(&["synthesize", name]).unwrap_or(0.0)))
        .collect();
    obs::set_mode(obs::Mode::Off);

    // The golden run goes through every stage.
    for &(name, secs) in &stages {
        assert!(secs > 0.0, "stage {name} never ran: {stages:?}");
    }
    let covered: f64 = stages.iter().map(|&(_, secs)| secs).sum();
    assert!(
        covered >= 0.95 * total,
        "children cover {covered:.4} s of synthesize's {total:.4} s: {stages:?}"
    );
}
