//! Per-layer numbers shared by the workloads' traced runs.
//!
//! * [`fit_layers`] times one `SerdSynthesizer::fit` call from outside
//!   and splits it with the program's own `obs` spans (`SERD_OBS=json`),
//!   then re-runs the q-gram blocking that `fit` performs to count its
//!   candidates and the planted matches they keep.
//! * [`synth_layers`] covers the inner S2/S3 calls that cannot be wrapped
//!   from outside a live `synthesize`: each public call is timed on inputs
//!   captured from the workload's own output, multiplied by the call counts
//!   in `SynthesisStats`, and reported as an estimate with its coverage of
//!   the measured `synthesize` wall time.

use crate::report::Report;
use crate::trace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serd_repro::datagen::SimulatedDataset;
use serd_repro::er_core::{blocking, ErDataset, IncrementalProfiler, RecordProfile};
use serd_repro::marginals::MarginalSynthesizer;
use serd_repro::obs;
use serd_repro::serd::{
    OSynState, SerdConfig, SerdModel, SerdSynthesizer, Side, SynthesisStats, TabularBackend,
};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Mean microseconds per call of `f`, run until `budget` has elapsed (and
/// at least three times). Returns `(mean_us, calls)`.
fn per_call_us(budget: Duration, mut f: impl FnMut()) -> (f64, u64) {
    let start = Instant::now();
    let mut n = 0u64;
    while n < 3 || start.elapsed() < budget {
        f();
        n += 1;
    }
    (start.elapsed().as_secs_f64() * 1e6 / n as f64, n)
}

/// The JSON object of the first span named `span` in an `obs` report (the
/// whole report when there is none).
pub fn obs_subtree<'a>(report: &'a str, span: &str) -> &'a str {
    let Some(at) = report.find(&format!("{{\"name\":\"{}\"", obs::json_escape(span))) else {
        return report;
    };
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in report[at..].char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '{' if !in_str => depth += 1,
            '}' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    return &report[at..at + i + 1];
                }
            }
            _ => {}
        }
    }
    &report[at..]
}

/// Sum of every counter named `name` in (a subtree of) an `obs` JSON report.
pub fn obs_counter_total(report: &str, name: &str) -> f64 {
    let key = format!("\"{name}\":");
    report
        .match_indices(&key)
        .filter_map(|(i, _)| {
            let rest = &report[i + key.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(rest.len());
            rest[..end].parse::<f64>().ok()
        })
        .sum()
}

fn obs_secs(path: &[&str]) -> f64 {
    serd_repro::obs::span_secs(path).unwrap_or(0.0)
}

/// Runs one traced `fit` (spans `serd.fit`, `persist.save`,
/// `persist.load`) and records the fit-side layer metrics.
pub fn fit_layers(
    rep: &mut Report,
    sim: &SimulatedDataset,
    cfg: SerdConfig,
    seed: u64,
    artifact: &Path,
    req: u64,
) -> Result<(), String> {
    // A fresh dataset, so `fit` builds its own profile cache as a cold fit
    // would, even when the workload already fitted on `sim`.
    let mut matches: Vec<(usize, usize)> = sim.er.matches().iter().copied().collect();
    matches.sort_unstable();
    let er = ErDataset::new(sim.er.a().clone(), sim.er.b().clone(), matches)
        .map_err(|e| e.to_string())?;
    let er = &er;
    serd_repro::obs::reset();
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Instant::now();
    let model = {
        let _s = trace::span("serd.fit", req);
        SerdSynthesizer::fit(er, &sim.background, cfg.clone(), &mut rng)
            .map_err(|e| e.to_string())?
    };
    let fit_s = t.elapsed().as_secs_f64();
    rep.obs_report("fit", serd_repro::obs::report_json());
    let profile = obs_secs(&["fit", "similarity_vectors", "sim.profile_build"]);
    let block = obs_secs(&["fit", "similarity_vectors", "blocking"]);
    let simvec = obs_secs(&["fit", "similarity_vectors"]) - profile - block;
    let gmm = obs_secs(&["fit", "gmm.fit_auto"]);
    let train = obs_secs(&["fit", "transformer.train"]);
    rep.value("serd.fit_s", "s", fit_s, 1, "measured");
    rep.value("er-core.profile_build_s", "s", profile, 1, "obs");
    rep.value("er-core.block_s", "s", block, 1, "obs");
    rep.value("er-core.simvec_s", "s", simvec, 1, "obs");
    rep.value("gmm.learn_s", "s", gmm, 1, "obs");
    rep.value("transformer.train_s", "s", train, 1, "obs");

    // GAN training has no span inside `fit`: time the public call on a
    // relation of the same size captured from the workload's A side.
    let rows = cfg.gan_rows.max(8).min(er.a().len());
    let mut rel = serd_repro::er_core::Relation::new("gan_probe", er.a().schema().clone());
    for e in &er.a().entities()[..rows] {
        rel.push_entity(e.clone()).map_err(|e| e.to_string())?;
    }
    let t = Instant::now();
    black_box(serd_repro::gan::TabularGan::train(
        &rel,
        cfg.gan.clone(),
        &mut rng,
    ));
    let gan = t.elapsed().as_secs_f64();
    rep.value("gan.train_s", "s", gan, 1, "probe");
    rep.value(
        "obs.fit_coverage",
        "ratio",
        (profile + block + simvec + gmm + train + gan) / fit_s,
        1,
        "estimate",
    );

    // The blocking `fit` ran (hard negatives, q = 3, bucket cap 20), re-run
    // on the same profiles to count what it keeps.
    let cands = {
        let _s = trace::span("er-core.block", req);
        blocking::candidate_pairs_cached(er.a(), er.b(), er.profiles(), 3, 20)
    };
    let kept = cands.iter().filter(|p| er.matches().contains(p)).count();
    rep.value(
        "er-core.block_candidates",
        "count",
        cands.len() as f64,
        1,
        "measured",
    );
    rep.value(
        "er-core.block_pair_completeness",
        "ratio",
        kept as f64 / er.num_matches().max(1) as f64,
        er.num_matches() as u64,
        "measured",
    );

    let t = Instant::now();
    {
        let _s = trace::span("persist.save", req);
        model.save_to(artifact).map_err(|e| e.to_string())?;
    }
    rep.value(
        "persist.save_s",
        "s",
        t.elapsed().as_secs_f64(),
        1,
        "measured",
    );
    let bytes = std::fs::metadata(artifact)
        .map_err(|e| e.to_string())?
        .len();
    rep.value(
        "persist.artifact_bytes",
        "bytes",
        bytes as f64,
        1,
        "measured",
    );
    let t = Instant::now();
    {
        let _s = trace::span("persist.load", req);
        black_box(SerdModel::load_from(artifact).map_err(|e| e.to_string())?);
    }
    rep.value(
        "persist.load_s",
        "s",
        t.elapsed().as_secs_f64(),
        1,
        "measured",
    );
    Ok(())
}

/// Writes `er` as a CSV directory and times `datagen::ingest_dir` on it —
/// the ingest layer for workloads whose data is generated in process.
pub fn ingest_probe(rep: &mut Report, sim: &SimulatedDataset, dir: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    std::fs::create_dir_all(dir).map_err(io)?;
    for (name, rel) in [("A.csv", sim.er.a()), ("B.csv", sim.er.b())] {
        let f = std::fs::File::create(dir.join(name)).map_err(io)?;
        serd_repro::er_core::csv::write_relation_csv(std::io::BufWriter::new(f), rel)
            .map_err(io)?;
    }
    std::fs::write(
        dir.join("matches.csv"),
        serd_repro::serd::api::matches_csv(&sim.er),
    )
    .map_err(io)?;
    let records = (sim.er.a().len() + sim.er.b().len()) as f64;
    let mut secs = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let back = serd_repro::datagen::ingest_dir(sim.kind, dir).map_err(io)?;
        secs.push(t.elapsed().as_secs_f64());
        black_box(back);
    }
    secs.sort_by(f64::total_cmp);
    rep.value(
        "er-core.ingest_records_per_s",
        "records/s",
        records / secs[2],
        5,
        "probe",
    );
    Ok(())
}

/// Sums of the S2/S3 counters over the requests of one measured phase.
#[derive(Default, Clone)]
pub struct SynthTotals {
    pub requests: u64,
    pub synth_s: f64,
    pub render_s: f64,
    pub accepted: u64,
    pub rejected_discriminator: u64,
    pub rejected_distribution: u64,
    pub forced: u64,
    pub s3_matches: u64,
}

impl SynthTotals {
    pub fn add(&mut self, stats: &SynthesisStats, synth_s: f64, render_s: f64) {
        self.requests += 1;
        self.synth_s += synth_s;
        self.render_s += render_s;
        self.accepted += stats.accepted as u64;
        self.rejected_discriminator += stats.rejected_discriminator as u64;
        self.rejected_distribution += stats.rejected_distribution as u64;
        self.forced += stats.forced_accepts as u64;
        self.s3_matches += stats.s3_matches as u64;
    }
}

/// Records the synthesis-side layer metrics for the requests in `t`,
/// probing inner calls on inputs captured from `out` (one of those
/// requests' output). `marginals` is the workload's marginals backend if it
/// has one; otherwise one is measured on `out`. `decode_tokens` is the
/// total of the program's `decode.kv_cache_steps` counter over the requests.
pub fn synth_layers(
    rep: &mut Report,
    synth: &SerdSynthesizer,
    out: &ErDataset,
    t: &SynthTotals,
    marginals: Option<&TabularBackend>,
    decode_tokens: f64,
    seed: u64,
) {
    let model = synth.model();
    let online = &model.online;
    let schema = out.a().schema().clone();
    let budget = Duration::from_millis(150);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9b0b);
    let reqs = t.requests.max(1) as f64;
    let accepted = t.accepted.max(1) as f64;
    let attempts = t.accepted + t.rejected_discriminator + t.rejected_distribution;

    rep.value(
        "serd.synthesize_s",
        "s",
        t.synth_s / reqs,
        t.requests,
        "measured",
    );
    rep.value(
        "serd.render_ms",
        "ms",
        t.render_s * 1e3 / reqs,
        t.requests,
        "measured",
    );
    rep.value(
        "serd.attempts_per_accept",
        "ratio",
        attempts as f64 / accepted,
        t.accepted,
        "measured",
    );
    rep.value(
        "serd.forced_accept_share",
        "ratio",
        t.forced as f64 / accepted,
        t.accepted,
        "measured",
    );
    rep.value(
        "serd.s3_matches_per_entity",
        "ratio",
        t.s3_matches as f64 / accepted,
        t.accepted,
        "measured",
    );
    rep.value(
        "transformer.decode_tokens",
        "count",
        decode_tokens / reqs,
        t.requests,
        "obs",
    );

    // Captured inputs: an output entity of A and a vector x ~ M.
    let e = out.a().entity(0).clone();
    let other = out.b().entity(0).clone();
    let x = synth.o_real().m().sample_clamped(&mut rng);
    let (prepare_us, n_prep) = per_call_us(budget, || {
        black_box(synth.columns().prepare_entity(&e, &x, Side::B));
    });
    let prepared = synth.columns().prepare_entity(&e, &x, Side::B);
    let mut cand = prepared.synthesize(&mut rng);
    let (candidate_us, n_cand) = per_call_us(budget, || {
        cand = black_box(prepared.synthesize(&mut rng));
    });
    let (plaus_us, n_plaus) = per_call_us(budget, || {
        black_box(model.backend.plausibility(&cand));
    });
    let mut profiler = IncrementalProfiler::new(&schema, blocking::DEFAULT_BLOCK_Q);
    let other_prof = profiler.profile_entity(&other);
    let mut cand_prof = profiler.profile_entity(&cand);
    let (profile_us, n_prof) = per_call_us(budget, || {
        cand_prof = black_box(profiler.profile_entity(&cand));
    });
    let (pair_us, n_pair) = per_call_us(budget, || {
        black_box(profiler.pair_similarity(&schema, &cand, &cand_prof, &other, &other_prof));
    });

    // O_syn: warm a tracker up on the output's own pair vectors, then time
    // the rejection test and the commit on t_sample-sized batches.
    let aprofs: Vec<RecordProfile> = out
        .a()
        .entities()
        .iter()
        .map(|x| profiler.profile_entity(x))
        .collect();
    let bprofs: Vec<RecordProfile> = out
        .b()
        .entities()
        .iter()
        .map(|x| profiler.profile_entity(x))
        .collect();
    let mut vectors = Vec::new();
    for (i, ea) in out.a().entities().iter().enumerate() {
        for (j, eb) in out.b().entities().iter().enumerate() {
            vectors.push(profiler.pair_similarity(&schema, ea, &aprofs[i], eb, &bprofs[j]));
        }
    }
    let batch = online.t_sample.max(1);
    let mut osyn = OSynState::new(online.osyn_warmup);
    let mut chunks = vectors.chunks(batch).cycle();
    let mut commit_ok = true;
    while !osyn.is_active() && commit_ok {
        let delta = chunks.next().expect("cycle over non-empty vectors");
        commit_ok = osyn
            .commit(
                delta,
                synth.o_real(),
                &online.gmm,
                online.jsd_samples,
                &mut rng,
            )
            .is_ok();
    }
    let delta: Vec<Vec<f64>> = chunks
        .next()
        .expect("cycle over non-empty vectors")
        .to_vec();
    let (reject_us, n_rej) = per_call_us(budget, || {
        black_box(osyn.would_reject(
            &delta,
            synth.o_real(),
            online.alpha,
            online.jsd_samples,
            &mut rng,
        ));
    });
    let (commit_us, n_commit) = per_call_us(budget, || {
        let d = chunks.next().expect("cycle over non-empty vectors");
        commit_ok &= osyn
            .commit(d, synth.o_real(), &online.gmm, online.jsd_samples, &mut rng)
            .is_ok();
    });
    rep.check(
        "probe.osyn_commit",
        commit_ok,
        "O_syn commits on captured vectors succeed",
    );

    // S3: the blocking pass over one request's output, replayed.
    let t0 = Instant::now();
    let s3 = blocking::candidate_pairs_profiled(
        out.a(),
        out.b(),
        &aprofs,
        &bprofs,
        blocking::DEFAULT_BLOCK_Q,
        50,
    );
    let s3_block_s = t0.elapsed().as_secs_f64();
    black_box(s3);

    // Tabular backend cold-start generation (the marginals layer).
    let measured;
    let marg = match marginals {
        Some(m) => m,
        None => {
            let cfg = SerdConfig::fast();
            measured = TabularBackend::Marginals(MarginalSynthesizer::measure(
                out.a(),
                out.b(),
                &cfg.marginals,
                &mut rng,
            ));
            &measured
        }
    };
    let (generate_us, n_gen) = per_call_us(budget, || {
        black_box(marg.generate_entity(&model.text_corpora, &mut rng));
    });

    rep.value("transformer.prepare_us", "us", prepare_us, n_prep, "probe");
    rep.value(
        "transformer.candidate_us",
        "us",
        candidate_us,
        n_cand,
        "probe",
    );
    rep.value("gan.plausibility_us", "us", plaus_us, n_plaus, "probe");
    rep.value(
        "er-core.profile_entity_us",
        "us",
        profile_us,
        n_prof,
        "probe",
    );
    rep.value("er-core.pair_similarity_us", "us", pair_us, n_pair, "probe");
    rep.value("gmm.would_reject_us", "us", reject_us, n_rej, "probe");
    rep.value("gmm.osyn_commit_us", "us", commit_us, n_commit, "probe");
    rep.value("er-core.s3_block_s", "s", s3_block_s, 1, "probe");
    rep.value("marginals.generate_us", "us", generate_us, n_gen, "probe");

    // Call counts over the measured requests (SynthesisStats): every
    // request after its bootstrap entity prepares once per accept, draws
    // one candidate per attempt, and profiles every candidate that passes
    // the discriminator plus every forced accept.
    let r = t.requests as f64;
    let a = t.accepted as f64;
    let (rd, rj, forced) = (
        t.rejected_discriminator as f64,
        t.rejected_distribution as f64,
        t.forced as f64,
    );
    let n_prepare = a - r;
    let n_candidate = (a - r) + rd + rj;
    let n_plaus_calls = if online.reject_by_discriminator {
        n_candidate - forced
    } else {
        0.0
    };
    let n_profile = a + rj;
    let n_pairs = (n_profile - r) * online.t_sample as f64;
    let n_reject = if online.reject_by_distribution {
        rj + (a - r - forced)
    } else {
        0.0
    };
    let n_commits = a - r;
    let estimates = [
        ("transformer.prepare", prepare_us * 1e-6 * n_prepare),
        ("transformer.candidate", candidate_us * 1e-6 * n_candidate),
        ("gan.plausibility", plaus_us * 1e-6 * n_plaus_calls),
        ("er-core.profile_entity", profile_us * 1e-6 * n_profile),
        ("er-core.pair_similarity", pair_us * 1e-6 * n_pairs),
        ("gmm.would_reject", reject_us * 1e-6 * n_reject),
        ("gmm.osyn_commit", commit_us * 1e-6 * n_commits),
        ("er-core.s3_block", s3_block_s * r),
    ];
    let mut covered = 0.0;
    for (layer, secs) in estimates {
        rep.value(&format!("est.{layer}_s"), "s", secs, t.requests, "estimate");
        covered += secs;
    }
    rep.value(
        "obs.synth_coverage",
        "ratio",
        covered / t.synth_s.max(1e-9),
        t.requests,
        "estimate",
    );
}
