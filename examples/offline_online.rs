//! Scenario: the offline/online deployment split (paper Table IV's two
//! phases, and Figure 2's "what may leave the building" boundary).
//!
//! ```text
//! cargo run --release --example offline_online
//! ```
//!
//! Offline (inside the data owner's perimeter): fit SERD once and persist
//! the artifacts that leave the building — the full `serd-model-v1` bundle
//! (learned distribution parameters, DP transformer + GAN weights, public
//! corpus slices — never a real row) plus the standalone O-distribution, a
//! `serd-odist-v1` file written through the same `Persist` grammar.
//! Online (anywhere, later): reload the model, synthesize, and verify the
//! output is byte-identical to what the in-memory model produces at the same
//! seed; reload the O-distribution with `OMixture::load` and check it labels
//! fresh pairs with a bit-identical posterior.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serd_repro::prelude::*;
use serd_repro::serd::api;

fn main() {
    let dir = std::env::temp_dir().join("serd_offline_online");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mut rng = StdRng::seed_from_u64(5);

    // ---------- offline: data owner's side ----------
    let sim = generate(DatasetKind::Restaurant, 0.05, &mut rng);
    let t_fit = std::time::Instant::now();
    let model = SerdSynthesizer::fit(&sim.er, &sim.background, SerdConfig::fast(), &mut rng)
        .expect("fit");
    let offline_secs = t_fit.elapsed().as_secs_f64();

    // The shareable artifacts: the whole model, and the O-distribution alone.
    let model_path = dir.join("model.serd");
    model.save_to(&model_path).expect("write model");
    let synthesizer = SerdSynthesizer::from_model(model);
    let dist_path = dir.join("o_real.odist");
    synthesizer.o_real().save(&dist_path).expect("write distribution");
    println!("offline phase done ({offline_secs:.1}s):");
    println!("  shipped {}", model_path.display());
    println!("  shipped {}", dist_path.display());
    println!("  (no real entity ever leaves; only learned parameters + public corpora)");

    // Reference output from the in-memory model, through the typed online
    // facade (`serd::api`) — the same request the CLI's `synthesize --model`
    // and the HTTP server's `/synthesize` would run.
    let request = SynthesisRequest {
        seed: 99,
        ..SynthesisRequest::new(ModelRef::Path(model_path.clone()))
    };
    let reference = api::synthesize(&synthesizer, &request).expect("synthesize");
    let a_csv = reference.csv(Table::A);

    // ---------- online: consumer's side ----------
    let loaded = api::load_model(&model_path).expect("load model");
    println!(
        "\nreloaded model: targets |A|={} |B|={}, DP eps {:.3}",
        loaded.n_a, loaded.n_b, loaded.epsilon
    );
    let online = SerdSynthesizer::from_model(loaded);
    let t_syn = std::time::Instant::now();
    let out2 = api::synthesize(&online, &request).expect("synthesize from artifact");
    println!(
        "online phase done ({:.1}s): |A|={} |B|={} matches={}",
        t_syn.elapsed().as_secs_f64(),
        out2.er().a().len(),
        out2.er().b().len(),
        out2.er().num_matches()
    );
    assert_eq!(out2.csv(Table::A), a_csv);
    println!("artifact-loaded synthesis is byte-identical to the in-memory run");

    // The standalone O-distribution labels pairs with the identical posterior.
    let o = OMixture::load(&dist_path).expect("load distribution");
    let mut agree = 0;
    let total = 200;
    for _ in 0..total {
        let (x, _) = synthesizer.o_real().sample(&mut rng);
        if o.is_match(&x) == synthesizer.o_real().is_match(&x) {
            agree += 1;
        }
        assert_eq!(o.posterior_match(&x), synthesizer.o_real().posterior_match(&x));
    }
    println!("posterior agreement with in-memory model: {agree}/{total} (bit-exact)");
}
