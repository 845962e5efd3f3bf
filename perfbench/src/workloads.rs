//! The three workloads. Each sets up several times (the median is
//! `setup_s`), measures for `--seconds`, and checks its outputs.
//!
//! A traced run first repeats the measured operations untraced, then the
//! same operations with the benchmark's spans and the program's `obs`
//! layer on: the time difference is the tracing overhead and the output
//! digests of the two halves must agree. It then adds the per-layer numbers
//! of `layers` and a short serve probe over the workload's own artifact.

use crate::layers::{self, SynthTotals};
use crate::report::{fnv1a, Report};
use crate::serve_load::{self, Phase, Plan, Rig, Target};
use crate::trace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serd_repro::datagen::{self, DatasetKind, ScaleSpec, SimulatedDataset};
use serd_repro::er_core::ErDataset;
use serd_repro::obs;
use serd_repro::serd::api::{self, ModelRef, SynthesisRequest};
use serd_repro::serd::{Backend, Persist, SerdConfig, SerdModel, SerdSynthesizer, SynthesisStats};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed of the fitted artifacts of `synth_dblp` and `serve_mix` (the CLI's
/// default seed). Synthesis cost depends strongly on the fitted model, so
/// the artifact is a fixed input and the workload seed varies the requests.
const ARTIFACT_SEED: u64 = 42;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Server workers of `serve_mix` (and of the serve probe).
const SERVE_WORKERS: usize = 2;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Small inputs, for the benchmark's self-test.
    pub smoke: bool,
    pub work: PathBuf,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Digest of a set of request outputs, independent of their order.
fn outputs_digest(seeds: &[u64], outs: &[SynthOut]) -> u64 {
    let mut parts: Vec<String> = seeds
        .iter()
        .zip(outs)
        .map(|(s, o)| format!("{s}:{:016x}", o.digest))
        .collect();
    parts.sort();
    fnv1a(parts.join(",").as_bytes())
}

/// Runs `setup` [`SETUPS`] times, records each time, keeps the last result.
fn timed_setups<T>(
    rep: &mut Report,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take()); // release the previous set-up before building the next
        let t = Instant::now();
        let v = setup()?;
        rep.sample("setup_s", "s", t.elapsed().as_secs_f64());
        kept = Some(v);
    }
    Ok(kept.expect("at least one set-up"))
}

/// Turns the program's `obs` layer on (`SERD_OBS=json` semantics) together
/// with the benchmark's spans, or both off.
fn tracing(on: bool) {
    obs::set_mode(if on { obs::Mode::Json } else { obs::Mode::Off });
    obs::reset();
    trace::set_enabled(on);
}

/// Pool busy seconds since `before`, as a share of `wall` × threads.
fn pool_busy_share(before: f64, wall: f64) -> f64 {
    let (_, busy) = serd_repro::parallel::pool_stats();
    (busy - before) / (wall * serd_repro::parallel::num_threads() as f64).max(1e-9)
}

struct SynthOut {
    digest: u64,
    entities: usize,
    synth_s: f64,
    render_s: f64,
    stats: SynthesisStats,
    er: ErDataset,
}

/// One `synth_dblp` request: `api::synthesize` plus the CSV renders.
fn synth_request(
    synth: &SerdSynthesizer,
    req: SynthesisRequest,
    id: u64,
) -> Result<SynthOut, String> {
    let _root = trace::span("synth.request", id);
    let t = Instant::now();
    let resp = {
        let _s = trace::span("serd.synthesize", id);
        api::synthesize(synth, &req).map_err(err)?
    };
    let synth_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let body = {
        let _s = trace::span("serd.render", id);
        let mut body = resp.csv(api::Table::A);
        body.push_str(&resp.csv(api::Table::B));
        body.push_str(&resp.csv(api::Table::Matches));
        body
    };
    let render_s = t.elapsed().as_secs_f64();
    let entities = resp.er().a().len() + resp.er().b().len();
    Ok(SynthOut {
        digest: fnv1a(body.as_bytes()),
        entities,
        synth_s,
        render_s,
        stats: resp.stats().clone(),
        er: resp.out.er,
    })
}

fn path_request(path: &Path, seed: u64) -> SynthesisRequest {
    SynthesisRequest {
        seed,
        ..SynthesisRequest::new(ModelRef::Path(path.to_path_buf()))
    }
}

/// Serve probe for workloads without a server of their own: the
/// workload's artifact, hits and `/models` at one offered rate, and a swap
/// every two seconds (after which the hit keys miss once).
fn serve_probe(ctx: &Ctx, rep: &mut Report, artifact: String) -> Result<(), String> {
    let plan = Plan {
        phases: vec![Phase {
            label: "probe",
            rate: 300.0,
            share: 1.0,
        }],
        hit_share: 0.97,
        miss_share: 0.0,
        hit_seeds: vec![1, 2],
        n: 2,
        swap_every_s: 2.0,
        miss_checks: 0,
    };
    let targets = vec![Target {
        name: "probe".to_string(),
        versions: vec![artifact],
        swap: true,
    }];
    let mut rig = Rig::start(&ctx.work.join("probe"), targets, SERVE_WORKERS, &plan)?;
    rig.load_references()?;
    serve_layers(rep, &rig, &plan, 4.2, ctx.seed, None)?;
    Ok(())
}

/// Idle hits, then the load, recording the serve crate's layer metrics.
fn serve_layers(
    rep: &mut Report,
    rig: &Rig,
    plan: &Plan,
    seconds: f64,
    seed: u64,
    totals: Option<&mut SynthTotals>,
) -> Result<(serve_load::LoadResult, Option<(usize, ErDataset)>), String> {
    for ms in rig.idle_hits(plan, 300)? {
        rep.sample("serve.idle_hit_ms", "ms", ms);
    }
    let cache = rig.server.response_cache();
    let (h0, m0, e0) = (cache.hits(), cache.misses(), cache.evictions());
    let shed0 = rig.server.metrics().shed_total();
    let mut own = SynthTotals::default();
    let totals = totals.unwrap_or(&mut own);
    let mut last = None;
    let load = serve_load::run(rig, plan, seconds, seed, rep, totals, &mut last)?;
    let (hits, misses) = (cache.hits() - h0, cache.misses() - m0);
    rep.value(
        "serve.respcache_hit_ratio",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        hits + misses,
        "measured",
    );
    rep.value(
        "serve.respcache_evictions",
        "count",
        (cache.evictions() - e0) as f64,
        1,
        "measured",
    );
    rep.value(
        "serve.shed",
        "count",
        (rig.server.metrics().shed_total() - shed0) as f64,
        load.attempted,
        "measured",
    );
    rep.value(
        "serve.requests_per_conn",
        "requests",
        rig.server.metrics().requests_per_conn(),
        rig.server.metrics().connections_total(),
        "measured",
    );
    for &ms in &load.swap_visible_ms {
        rep.sample("serve.swap_visible_ms", "ms", ms);
    }
    for &ms in &load.lag_ms {
        rep.sample("serve.client_lag_ms", "ms", ms);
    }
    rep.check(
        "serve.swaps_visible",
        !load.swap_visible_ms.is_empty() || seconds < plan.swap_every_s,
        format!("{} swaps became visible", load.swap_visible_ms.len()),
    );
    Ok((load, last))
}

// ---------------------------------------------------------------- synth_dblp

const SYNTH_SCALE: f64 = 0.02;

/// Set-up: simulate DBLP-ACM at scale 0.02, fit with the CLI's config,
/// save the artifact and load it back.
fn synth_setup(ctx: &Ctx) -> Result<(SimulatedDataset, SerdSynthesizer, PathBuf), String> {
    let mut rng = StdRng::seed_from_u64(ARTIFACT_SEED);
    let sim = datagen::generate_with_min_matches(DatasetKind::DblpAcm, SYNTH_SCALE, 16, &mut rng);
    let model = SerdSynthesizer::fit(&sim.er, &sim.background, SerdConfig::fast(), &mut rng)
        .map_err(err)?;
    let path = ctx.work.join("dblp.serd");
    model.save_to(&path).map_err(err)?;
    let loaded = SerdModel::load_from(&path).map_err(err)?;
    Ok((sim, SerdSynthesizer::from_model(loaded), path))
}

/// Seconds one `synth_dblp` request takes on the reference machine, which
/// sets how many requests a run of `--seconds` makes.
const SYNTH_REQUEST_S: f64 = 8.0;

/// The run's request seeds: the fixed sequence `1..=k`, rotated by the
/// workload seed. Request cost is heavy-tailed in the seed (one of the
/// first four takes several times the others), so every run makes the same
/// requests and only their order varies.
fn synth_seeds(ctx: &Ctx) -> Vec<u64> {
    let k = ((ctx.seconds / SYNTH_REQUEST_S).ceil() as u64).max(1);
    (0..k).map(|i| (ctx.seed + i) % k + 1).collect()
}

/// Runs one request per seed; returns the outputs and the wall time.
fn synth_phase(
    rep: &mut Report,
    synth: &SerdSynthesizer,
    path: &Path,
    seeds: &[u64],
) -> (Vec<SynthOut>, f64) {
    let start = Instant::now();
    let mut outs = Vec::new();
    for (k, &seed) in seeds.iter().enumerate() {
        match synth_request(synth, path_request(path, seed), k as u64) {
            Ok(o) => {
                rep.op(true);
                outs.push(o);
            }
            Err(e) => {
                eprintln!("perfbench: synth request {k} (seed {seed}) failed: {e}");
                rep.op(false);
            }
        }
    }
    (outs, start.elapsed().as_secs_f64())
}

pub fn synth_dblp(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let (sim, synth, path) = timed_setups(rep, || synth_setup(ctx))?;
    let plan = synth.plan();
    let seeds = synth_seeds(ctx);
    if !ctx.traced {
        let (outs, _) = synth_phase(rep, &synth, &path, &seeds);
        let mut entities = 0usize;
        let mut wall = 0.0;
        for o in &outs {
            rep.sample("synth.request_ms", "ms", (o.synth_s + o.render_s) * 1e3);
            entities += o.entities;
            wall += o.synth_s + o.render_s;
            rep.check(
                "synth.sizes",
                o.er.a().len() == plan.n_a && o.er.b().len() == plan.n_b,
                format!("|A|={} |B|={}", o.er.a().len(), o.er.b().len()),
            );
        }
        rep.value(
            "synth.entities_per_s",
            "entities/s",
            entities as f64 / wall.max(1e-9),
            outs.len() as u64,
            "measured",
        );
        if outs.len() != seeds.len() {
            return Err("a synth request failed".to_string());
        }
        // Replay the quickest request: same seed, same bytes.
        let (quick, _) = outs
            .iter()
            .enumerate()
            .min_by(|a, b| (a.1.synth_s + a.1.render_s).total_cmp(&(b.1.synth_s + b.1.render_s)))
            .expect("at least one request");
        let replay = synth_request(&synth, path_request(&path, seeds[quick]), 0)?;
        rep.check(
            "synth.replay_identical",
            replay.digest == outs[quick].digest,
            "a replayed request seed gives identical bytes",
        );
        rep.digest("synth.requests", outputs_digest(&seeds, &outs));
        return Ok(());
    }

    // Traced: the same requests untraced, then traced.
    let (plain, plain_wall) = synth_phase(rep, &synth, &path, &seeds);
    tracing(true);
    let busy0 = serd_repro::parallel::pool_stats().1;
    let (traced, traced_wall) = synth_phase(rep, &synth, &path, &seeds);
    let busy = pool_busy_share(busy0, traced_wall);
    let report = obs::report_json();
    let decode = layers::obs_counter_total(&report, "decode.kv_cache_steps");
    rep.obs_report("synth", report);
    let same =
        plain.len() == traced.len() && plain.iter().zip(&traced).all(|(a, b)| a.digest == b.digest);
    rep.check(
        "trace.inert",
        same,
        "traced requests give the untraced bytes",
    );
    if plain.len() != seeds.len() {
        return Err("a synth request failed".to_string());
    }
    rep.digest("synth.requests", outputs_digest(&seeds, &plain));
    let mut totals = SynthTotals::default();
    for o in &traced {
        totals.add(&o.stats, o.synth_s, o.render_s);
    }
    let last = traced.last().ok_or("no traced request succeeded")?;
    layers::synth_layers(rep, &synth, &last.er, &totals, None, decode, ctx.seed);
    // Request wall covered by the estimated S2/S3 layers plus the render.
    let cov = rep.get("obs.synth_coverage").unwrap_or(0.0);
    rep.value(
        "obs.span_coverage",
        "ratio",
        (cov * totals.synth_s + totals.render_s) / (totals.synth_s + totals.render_s).max(1e-9),
        totals.requests,
        "estimate",
    );
    common_traced(
        ctx,
        rep,
        &sim,
        plain_wall,
        traced_wall,
        busy,
        std::fs::read_to_string(&path).map_err(err)?,
    )
}

/// Records overhead, pool share and coverage, then the fit layers, the
/// ingest probe and the serve probe, for the two workloads without a server.
#[allow(clippy::too_many_arguments)]
fn common_traced(
    ctx: &Ctx,
    rep: &mut Report,
    sim: &SimulatedDataset,
    plain_wall: f64,
    traced_wall: f64,
    busy: f64,
    artifact: String,
) -> Result<(), String> {
    rep.value(
        "obs.trace_overhead",
        "ratio",
        traced_wall / plain_wall.max(1e-9) - 1.0,
        2,
        "measured",
    );
    rep.value("parallel.pool_busy_share", "ratio", busy, 1, "measured");
    layers::fit_layers(
        rep,
        sim,
        SerdConfig::fast(),
        ctx.seed,
        &ctx.work.join("traced.serd"),
        0,
    )?;
    if rep.get("er-core.ingest_records_per_s").is_none() {
        layers::ingest_probe(rep, sim, &ctx.work.join("ingest"))?;
    }
    tracing(false);
    serve_probe(ctx, rep, artifact)
}

// -------------------------------------------------------------- fit_dblp_1e5

fn fit_entities(ctx: &Ctx) -> usize {
    if ctx.smoke {
        4_000
    } else {
        100_000
    }
}

struct FitOut {
    records: usize,
    ingest_s: f64,
    fit_s: f64,
    save_s: f64,
    digest: u64,
    sim: Option<SimulatedDataset>,
}

/// One `fit_dblp_1e5` operation: fresh ingest, fit, save.
fn fit_op(
    ctx: &Ctx,
    data: &Path,
    artifact: &Path,
    id: u64,
    keep_sim: bool,
) -> Result<(FitOut, SerdModel), String> {
    let _root = trace::span("fit.op", id);
    let t = Instant::now();
    let sim = {
        let _s = trace::span("er-core.ingest", id);
        datagen::ingest_dir(DatasetKind::DblpAcm, data).map_err(err)?
    };
    let ingest_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let model = {
        let _s = trace::span("serd.fit", id);
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        SerdSynthesizer::fit(&sim.er, &sim.background, SerdConfig::fast(), &mut rng).map_err(err)?
    };
    let fit_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    {
        let _s = trace::span("persist.save", id);
        model.save_to(artifact).map_err(err)?;
    }
    let save_s = t.elapsed().as_secs_f64();
    let digest = fnv1a(&std::fs::read(artifact).map_err(err)?);
    let out = FitOut {
        records: sim.er.a().len() + sim.er.b().len(),
        ingest_s,
        fit_s,
        save_s,
        digest,
        sim: keep_sim.then_some(sim),
    };
    Ok((out, model))
}

fn fit_phase(
    ctx: &Ctx,
    rep: &mut Report,
    data: &Path,
    artifact: &Path,
    seconds: f64,
    count: Option<u64>,
) -> (Vec<FitOut>, f64, Option<SerdModel>) {
    let start = Instant::now();
    let mut outs: Vec<FitOut> = Vec::new();
    // Only the newest model is kept: one 10⁵ fit in memory at a time.
    let mut model = None;
    let mut k = 0u64;
    loop {
        let done = match count {
            Some(c) => k >= c,
            None => k > 0 && start.elapsed().as_secs_f64() >= seconds,
        };
        if done {
            break;
        }
        let last = count.is_some_and(|c| k + 1 == c);
        match fit_op(ctx, data, artifact, k, last) {
            Ok((o, m)) => {
                rep.op(true);
                outs.push(o);
                model = Some(m);
            }
            Err(e) => {
                eprintln!("perfbench: fit op {k} failed: {e}");
                rep.op(false);
            }
        }
        k += 1;
    }
    (outs, start.elapsed().as_secs_f64(), model)
}

pub fn fit_dblp_1e5(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let data = ctx.work.join("data");
    let spec = ScaleSpec::for_entities(DatasetKind::DblpAcm, fit_entities(ctx));
    timed_setups(rep, || {
        datagen::export_dir(&spec, ctx.seed, &data)
            .map(|_| ())
            .map_err(err)
    })?;
    let artifact = ctx.work.join("fit.serd");
    let (outs, plain_wall, model) = fit_phase(
        ctx,
        rep,
        &data,
        &artifact,
        if ctx.traced {
            ctx.seconds / 2.0
        } else {
            ctx.seconds
        },
        None,
    );
    let first = outs.first().ok_or("no fit op succeeded")?;
    rep.check(
        "fit.deterministic",
        outs.iter().all(|o| o.digest == first.digest),
        "every fit of the same input and seed saves the same bytes",
    );
    rep.digest("fit.artifact", first.digest);
    if !ctx.traced {
        let (mut records, mut wall) = (0usize, 0.0);
        for o in &outs {
            let op = o.ingest_s + o.fit_s + o.save_s;
            rep.sample("fit.op_ms", "ms", op * 1e3);
            rep.sample("fit.ingest_ms", "ms", o.ingest_s * 1e3);
            rep.sample("fit.fit_ms", "ms", o.fit_s * 1e3);
            rep.sample("fit.save_ms", "ms", o.save_s * 1e3);
            records += o.records;
            wall += op;
        }
        rep.value(
            "fit.records_per_s",
            "records/s",
            records as f64 / wall.max(1e-9),
            outs.len() as u64,
            "measured",
        );
    }
    fit_checks(ctx, rep, &model.expect("a fit op succeeded"), &artifact)?;
    if !ctx.traced {
        return Ok(());
    }

    tracing(true);
    let busy0 = serd_repro::parallel::pool_stats().1;
    let (traced, traced_wall, _) =
        fit_phase(ctx, rep, &data, &artifact, 0.0, Some(outs.len() as u64));
    let busy = pool_busy_share(busy0, traced_wall);
    rep.check(
        "trace.inert",
        traced.iter().all(|o| o.digest == first.digest),
        "traced fits save the untraced bytes",
    );
    let n = traced.len() as f64;
    let mean = |f: fn(&FitOut) -> f64| traced.iter().map(f).sum::<f64>() / n;
    let (ingest, fit, save) = (mean(|o| o.ingest_s), mean(|o| o.fit_s), mean(|o| o.save_s));
    let records: usize = traced.iter().map(|o| o.records).sum();
    rep.value(
        "er-core.ingest_records_per_s",
        "records/s",
        records as f64 / traced.iter().map(|o| o.ingest_s).sum::<f64>(),
        traced.len() as u64,
        "measured",
    );
    let sim = traced
        .last()
        .and_then(|o| o.sim.as_ref())
        .ok_or("no traced fit op succeeded")?;

    // Synthesis layers: the check request against the loaded model.
    obs::reset();
    let loaded = SerdSynthesizer::from_model(SerdModel::load_from(&artifact).map_err(err)?);
    let out = {
        let _o = obs::span("perfbench.verify");
        synth_request(&loaded, check_request(ctx, &artifact), 0)?
    };
    let decode = layers::obs_counter_total(
        layers::obs_subtree(&obs::report_json(), "perfbench.verify"),
        "decode.kv_cache_steps",
    );
    let mut totals = SynthTotals::default();
    totals.add(&out.stats, out.synth_s, out.render_s);
    layers::synth_layers(rep, &loaded, &out.er, &totals, None, decode, ctx.seed);

    // fit_layers (inside common_traced) measures the fit split; coverage
    // of the op combines it with the measured ingest and save spans.
    common_traced(
        ctx,
        rep,
        sim,
        plain_wall,
        traced_wall,
        busy,
        std::fs::read_to_string(&artifact).map_err(err)?,
    )?;
    let fit_cov = rep.get("obs.fit_coverage").unwrap_or(0.0);
    rep.value(
        "obs.span_coverage",
        "ratio",
        (ingest + fit_cov * fit + save) / (ingest + fit + save),
        traced.len() as u64,
        "estimate",
    );
    Ok(())
}

fn check_request(ctx: &Ctx, artifact: &Path) -> SynthesisRequest {
    SynthesisRequest {
        seed: ctx.seed,
        n_a: Some(8),
        n_b: Some(8),
        ..SynthesisRequest::new(ModelRef::Path(artifact.to_path_buf()))
    }
}

/// save → load → save is a byte fixpoint, and the loaded model
/// synthesizes the bytes of the model in memory.
fn fit_checks(
    ctx: &Ctx,
    rep: &mut Report,
    model: &SerdModel,
    artifact: &Path,
) -> Result<(), String> {
    let bytes = std::fs::read(artifact).map_err(err)?;
    let loaded = SerdModel::load_from(artifact).map_err(err)?;
    let again = ctx.work.join("fit_again.serd");
    loaded.save_to(&again).map_err(err)?;
    let fixpoint = std::fs::read(&again).map_err(err)? == bytes;
    rep.check(
        "fit.save_load_fixpoint",
        fixpoint,
        "save → load → save gives the same bytes",
    );
    let loaded = SerdSynthesizer::from_model(loaded);
    let in_memory = SerdSynthesizer::from_model(
        SerdModel::from_persist_str(&model.to_persist_string()).map_err(err)?,
    );
    let a = synth_request(&loaded, check_request(ctx, artifact), 0)?;
    let b = synth_request(&in_memory, check_request(ctx, artifact), 0)?;
    rep.check(
        "fit.loaded_synthesizes_same",
        a.digest == b.digest,
        "the loaded model synthesizes the in-memory model's bytes",
    );
    Ok(())
}

// ----------------------------------------------------------------- serve_mix

const SERVE_SCALE: f64 = 0.02;

/// Offered rates: the reference rate leaves both connections mostly idle,
/// so hit latency is service time; the high rate is near where queued misses
/// start pushing hits past their limit. Misses are 1% of requests, plus the
/// hit keys of the swapped model once after each swap.
fn serve_plan() -> Plan {
    Plan {
        phases: vec![
            Phase {
                label: "low",
                rate: 50.0,
                share: 0.2,
            },
            Phase {
                label: "ref",
                rate: 100.0,
                share: 0.5,
            },
            Phase {
                label: "high",
                rate: 200.0,
                share: 0.3,
            },
        ],
        hit_share: 0.94,
        miss_share: 0.01,
        hit_seeds: vec![1, 2, 3],
        n: 4,
        swap_every_s: 4.0,
        miss_checks: 12,
    }
}

/// Set-up: fit the Restaurant 0.02 artifacts (GAN, a second GAN version
/// to swap in, marginals), then start the server and warm its cache.
fn serve_setup(ctx: &Ctx, plan: &Plan) -> Result<Rig, String> {
    let mut rng = StdRng::seed_from_u64(ARTIFACT_SEED);
    let sim =
        datagen::generate_with_min_matches(DatasetKind::Restaurant, SERVE_SCALE, 16, &mut rng);
    let text =
        |cfg: SerdConfig, sim: &SimulatedDataset, rng: &mut StdRng| -> Result<String, String> {
            Ok(SerdSynthesizer::fit(&sim.er, &sim.background, cfg, rng)
                .map_err(err)?
                .to_persist_string())
        };
    let gan_v0 = text(SerdConfig::fast(), &sim, &mut rng)?;
    let marg = text(
        SerdConfig::fast().with_backend(Backend::Marginals),
        &sim,
        &mut rng,
    )?;
    let sim2 =
        datagen::generate_with_min_matches(DatasetKind::Restaurant, SERVE_SCALE, 16, &mut rng);
    let gan_v1 = text(SerdConfig::fast(), &sim2, &mut rng)?;
    let targets = vec![
        Target {
            name: "rest_gan".to_string(),
            versions: vec![gan_v0, gan_v1],
            swap: true,
        },
        Target {
            name: "rest_marg".to_string(),
            versions: vec![marg],
            swap: false,
        },
    ];
    Rig::start(&ctx.work, targets, SERVE_WORKERS, plan)
}

pub fn serve_mix(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let plan = serve_plan();
    let mut rig = timed_setups(rep, || serve_setup(ctx, &plan))?;
    rig.load_references()?;
    if !ctx.traced {
        let mut totals = SynthTotals::default();
        let mut last = None;
        let load = serve_load::run(
            &rig,
            &plan,
            ctx.seconds,
            ctx.seed,
            rep,
            &mut totals,
            &mut last,
        )?;
        rep.attempted += load.attempted;
        rep.failed += load.failed;
        for ((phase, class), v) in &load.latency {
            let label = plan.phases[*phase].label;
            for &ms in v {
                rep.sample(&format!("serve.{label}.{class}_ms"), "ms", ms);
            }
        }
        for (i, p) in plan.phases.iter().enumerate() {
            rep.value(
                &format!("serve.{}.goodput_rps", p.label),
                "requests/s",
                load.good[i] as f64 / load.phase_secs[i],
                load.good[i],
                "measured",
            );
            rep.value(
                &format!("serve.{}.offered_rps", p.label),
                "requests/s",
                p.rate,
                1,
                "setting",
            );
        }
        for &ms in &load.lag_ms {
            rep.sample("serve.client_lag_ms", "ms", ms);
        }
        rep.digest("serve.hit_bodies", load.digest);
        return Ok(());
    }

    // Tracing overhead on idle cache hits: obs off, then on.
    let plain: f64 = rig.idle_hits(&plan, 300)?.iter().sum();
    tracing(true);
    let traced: f64 = rig.idle_hits(&plan, 300)?.iter().sum();
    rep.value(
        "obs.trace_overhead",
        "ratio",
        traced / plain.max(1e-9) - 1.0,
        600,
        "measured",
    );
    obs::reset();
    let busy0 = serd_repro::parallel::pool_stats().1;
    let mut totals = SynthTotals::default();
    let t = Instant::now();
    let (load, last) = {
        let _o = obs::span("perfbench.verify");
        serve_layers(rep, &rig, &plan, ctx.seconds, ctx.seed, Some(&mut totals))?
    };
    rep.value(
        "parallel.pool_busy_share",
        "ratio",
        pool_busy_share(busy0, t.elapsed().as_secs_f64()),
        1,
        "measured",
    );
    rep.attempted += load.attempted;
    rep.failed += load.failed;
    rep.digest("serve.hit_bodies", load.digest);
    let report = obs::report_json();
    let decode = layers::obs_counter_total(
        layers::obs_subtree(&report, "perfbench.verify"),
        "decode.kv_cache_steps",
    );
    rep.obs_report("serve", report);
    let (ti, er) = last.ok_or("no body was re-synthesized")?;
    let marg = serve_load::reference_of(&rig, 1).model();
    layers::synth_layers(
        rep,
        serve_load::reference_of(&rig, ti),
        &er,
        &totals,
        Some(&marg.backend),
        decode,
        ctx.seed,
    );
    // Miss latency covered by the generator's wait and the in-process
    // synthesis + render of the same requests.
    rep.value(
        "obs.span_coverage",
        "ratio",
        load.miss_coverage,
        load.miss_coverage_n,
        "estimate",
    );

    let mut rng = StdRng::seed_from_u64(ARTIFACT_SEED);
    let sim =
        datagen::generate_with_min_matches(DatasetKind::Restaurant, SERVE_SCALE, 16, &mut rng);
    layers::fit_layers(
        rep,
        &sim,
        SerdConfig::fast(),
        ctx.seed,
        &ctx.work.join("traced.serd"),
        0,
    )?;
    layers::ingest_probe(rep, &sim, &ctx.work.join("ingest"))?;
    tracing(false);
    drop(rig);
    Ok(())
}
